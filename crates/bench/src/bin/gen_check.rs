//! Static schedule-verifier throughput benchmark.
//!
//! Sweeps the full collective registry through the static verifier
//! (`collopt check`'s registry mode) over p ∈ 2..=64 at several block
//! sizes plus a large-p stress point, requiring every shipped lowering
//! to verify clean (no COL008/COL009/COL010 errors) and every
//! planted-bug lowering to be rejected with its expected code. Timing a
//! verifier whose verdicts are wrong would be worthless, so correctness
//! gates the measurement.
//!
//! Writes `results/BENCH_check.json` and prints a summary. Environment:
//!
//! * `CHECK_PMAX` — sweep upper bound for p (default 64).
//! * `CHECK_STRESS_P` — the large-p stress point (default 1024; the
//!   verifier is symbolic, so p is bounded by time, not threads).
//! * `COLLOPT_CHECK_FLOOR` — when set (e.g. `500.0`), exit non-zero
//!   unless the sweep sustains at least that many schedule
//!   verifications per second; unset = report only. CI sets this on the
//!   nightly job, not on PRs.

use std::time::Instant;

use collopt_analysis::schedule::{verify_planted, verify_registry};
use collopt_bench::harness::{env_floor, env_usize};

fn main() {
    std::fs::create_dir_all("results").expect("create results/");
    let pmax = env_usize("CHECK_PMAX", 64);
    let stress_p = env_usize("CHECK_STRESS_P", 1024);
    let blocks: [u64; 4] = [1, 32, 97, 4096];

    println!("# registry sweep: p in 2..={pmax}, m in {blocks:?}, plus stress p={stress_p} m=32");
    let mut verifications = 0u64;
    let mut messages = 0u64;
    let mut words = 0u64;
    let mut failures = Vec::new();
    let start = Instant::now();
    for p in 2..=pmax {
        for m in blocks {
            for report in verify_registry(p, m) {
                verifications += 1;
                messages += report.messages;
                words += report.words;
                if !report.ok() {
                    failures.push(format!("{} at p={p} m={m}", report.variant));
                }
            }
            for (report, expected) in verify_planted(p, m) {
                verifications += 1;
                messages += report.messages;
                if !report.diagnostics.iter().any(|d| d.code == expected) {
                    failures.push(format!(
                        "planted {} NOT rejected with {expected} at p={p} m={m}",
                        report.variant
                    ));
                }
            }
        }
    }
    let sweep_s = start.elapsed().as_secs_f64();
    assert!(
        failures.is_empty(),
        "verifier verdicts wrong, refusing to time them: {failures:?}"
    );

    // Large-p stress point: alltoall alone is Θ(p²) symbolic messages
    // here, so this times the abstract executor on a schedule far past
    // the thread engine's rank ceiling.
    let stress_start = Instant::now();
    let stress_reports = verify_registry(stress_p, 32);
    let stress_ok = stress_reports.iter().all(|r| r.ok());
    let stress_messages: u64 = stress_reports.iter().map(|r| r.messages).sum();
    let stress_s = stress_start.elapsed().as_secs_f64();
    assert!(stress_ok, "registry must verify clean at p={stress_p}");

    let per_sec = verifications as f64 / sweep_s;
    let msgs_per_sec = messages as f64 / sweep_s;
    println!(
        "== registry sweep ==\n  {verifications} verifications ({messages} symbolic messages, \
         {words} words) in {sweep_s:.3}s\n  {per_sec:.0} verifications/s, {msgs_per_sec:.0} \
         messages/s",
    );
    println!(
        "== stress point ==\n  p={stress_p}: {} lowerings, {stress_messages} symbolic messages \
         in {stress_s:.3}s",
        stress_reports.len()
    );

    let json = format!(
        r#"{{
  "bench": "check",
  "pmax": {pmax},
  "blocks": [1, 32, 97, 4096],
  "verifications": {verifications},
  "symbolic_messages": {messages},
  "symbolic_words": {words},
  "sweep_s": {sweep_s:.6},
  "verifications_per_sec": {per_sec:.1},
  "messages_per_sec": {msgs_per_sec:.1},
  "all_shipped_verified": true,
  "all_planted_rejected": true,
  "stress_p": {stress_p},
  "stress_lowerings": {},
  "stress_messages": {stress_messages},
  "stress_s": {stress_s:.6}
}}
"#,
        stress_reports.len(),
    );
    std::fs::write("results/BENCH_check.json", json).expect("write results/BENCH_check.json");
    println!("# wrote results/BENCH_check.json");

    if let Some(floor) = env_floor("COLLOPT_CHECK_FLOOR") {
        if per_sec < floor {
            eprintln!("FAIL: {per_sec:.0} verifications/s below floor {floor:.0}");
            std::process::exit(1);
        }
        println!("# check throughput floor {floor:.0}/s satisfied ({per_sec:.0}/s)");
    }
}
