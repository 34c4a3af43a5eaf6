//! End-to-end drills for the static communication-schedule verifier.
//!
//! Three layers are tied together here:
//!
//! 1. **Breadth** — every shipped collective lowering must verify clean
//!    (no deadlocks, no orphan messages, round counts matching the cost
//!    model's closed forms) across the full p ∈ 2..=64 sweep, including
//!    non-powers-of-two and blocks smaller than the machine (`m < p`),
//!    and at a p = 1024 stress point.
//! 2. **Determinism** — the verifier is a pure function of `(p, m)`;
//!    its byte-stable JSON rendering must not change between runs, and
//!    both renderings are pinned: a golden file over a dozen points and
//!    an FNV-1a hash over the full p ∈ 2..=64 sweep
//!    (`UPDATE_GOLDEN=1` rewrites the file and prints the hash).
//! 3. **Ground truth** — each planted-bug lowering is rejected
//!    statically with its expected code, *and* its runnable async twin
//!    genuinely deadlocks the discrete-event engine. A verifier whose
//!    rejections don't correspond to real hangs is just a linter with
//!    opinions; these drills pin the static verdict to dynamic reality.

use collopt::analysis::schedule::{
    render_reports_human, render_reports_json, verify_planted, verify_registry, ScheduleReport,
};
use collopt::analysis::Severity;
use collopt::collectives::schedule::planted;
use collopt::machine::{ClockParams, Machine};
use collopt_bench::sweep_driver::par_map;

#[test]
fn every_shipped_lowering_verifies_across_the_full_p_sweep() {
    par_map((2..=64usize).collect(), |p| {
        // m = 5 puts m < p on most of the sweep; 97 is prime (ragged
        // against every p > 1); 32 and 64 divide evenly on the pow2
        // points; 4096 is a block far larger than any machine here.
        for m in [1u64, 5, 32, 64, 97, 4096] {
            for report in verify_registry(p, m) {
                assert!(
                    report.ok(),
                    "{} fails static verification at p={p} m={m}: {:#?}",
                    report.variant,
                    report.diagnostics
                );
            }
        }
    });
}

#[test]
fn verifier_output_is_deterministic() {
    for (p, m) in [(6usize, 14u64), (16, 97), (64, 5)] {
        let a = render_reports_json(&verify_registry(p, m), p, m);
        let b = render_reports_json(&verify_registry(p, m), p, m);
        assert_eq!(a, b, "verifier output must be a pure function of (p, m)");
    }
}

/// Both renderings at one point: the planted drills for humans, the
/// shipped registry as JSON.
fn render_point(p: usize, m: u64) -> (String, String) {
    let planted: Vec<ScheduleReport> = verify_planted(p, m).into_iter().map(|(r, _)| r).collect();
    (
        render_reports_human(&planted),
        render_reports_json(&verify_registry(p, m), p, m),
    )
}

#[test]
fn verifier_output_matches_the_golden_file() {
    let mut out = String::new();
    for p in [3usize, 4, 5, 8, 13, 64] {
        for m in [4u64, 97] {
            out.push_str(&format!("== planted p={p} m={m}\n{}", render_point(p, m).0));
        }
    }
    for (p, m) in [(2usize, 1u64), (6, 14), (16, 97), (48, 97), (64, 5)] {
        out.push_str(&format!(
            "== registry p={p} m={m}\n{}\n",
            render_point(p, m).1
        ));
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/schedule_verifier.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &out).expect("rewrite the golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file is committed");
    assert!(
        out == golden,
        "verifier output differs from {path}; if the change is intended, \
         rerun with UPDATE_GOLDEN=1 and inspect the diff"
    );
}

/// FNV-1a of both renderings over the full sweep, in sweep order.
const SWEEP_HASH: u64 = 0x1153_21a7_d529_a450;

#[test]
fn verifier_output_over_the_full_sweep_matches_its_hash() {
    let points: Vec<(usize, u64)> = (2..=64usize)
        .flat_map(|p| [1u64, 4, 9, 32, 97].map(|m| (p, m)))
        .collect();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (human, json) in par_map(points, |(p, m)| render_point(p, m)) {
        for b in human.bytes().chain(json.bytes()) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        println!("SWEEP_HASH = {hash:#018x}");
    }
    assert_eq!(hash, SWEEP_HASH, "got {hash:#018x}");
}

#[test]
fn planted_bugs_are_rejected_at_every_applicable_point() {
    for p in 2..=64usize {
        for m in [1u64, 4, 9, 32, 97, 4096] {
            for (report, expected) in verify_planted(p, m) {
                assert!(
                    report.diagnostics.iter().any(|d| d.code == expected),
                    "planted {} not rejected with {expected} at p={p} m={m}: {:#?}",
                    report.variant,
                    report.diagnostics
                );
            }
        }
    }
}

/// `collopt check --deny warnings`'s verdict — no error and no warning —
/// at the CLI's default point, at a ragged non-power-of-two point and at
/// the p = 1024 stress point, alltoall's Θ(p²) symbolic messages
/// included; and at p = 1024 the planted drills keep their classification
/// at scale — the swapped ring reduce-scatter stalls on a wait-for cycle
/// through all 1,024 ranks, and the off-by-one broadcast leaves 17 orphan
/// receives.
#[test]
fn the_verifier_holds_at_a_thousand_ranks() {
    for (p, m) in [(64, 32), (48, 97), (1024, 32)] {
        for report in verify_registry(p, m) {
            assert!(
                report
                    .diagnostics
                    .iter()
                    .all(|d| d.severity == Severity::Note),
                "{} at p={p} m={m}: {:#?}",
                report.variant,
                report.diagnostics
            );
        }
    }
    let (p, m) = (1024, 32);
    let mut at_scale = 0;
    for (report, expected) in verify_planted(p, m) {
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&expected),
            "planted {} not rejected with {expected}: {codes:?}",
            report.variant
        );
        match report.variant {
            "planted_swapped_ring_reduce_scatter" => {
                let cycle = &report.diagnostics[0].message;
                assert_eq!(cycle.matches(" -> ").count(), p, "{cycle}");
            }
            "planted_off_by_one_bcast" => assert_eq!(codes, vec!["COL009"; 17]),
            _ => continue,
        }
        at_scale += 1;
    }
    assert_eq!(at_scale, 2, "both drills run at p={p}");
}

// The dynamic halves: each statically-rejected lowering must actually
// hang the DES engine, which detects quiescence-with-blocked-ranks and
// panics instead of spinning forever. `ClockParams::free()` keeps the
// drills instant.

#[test]
#[should_panic(expected = "DES deadlock")]
fn swapped_ring_reduce_scatter_deadlocks_dynamically() {
    let machine = Machine::new(4, ClockParams::free());
    machine.run_des(|ctx| {
        Box::pin(async move {
            let block: Vec<i64> = (0..8).collect();
            planted::swapped_ring_reduce_scatter_async(ctx, block).await
        })
    });
}

#[test]
#[should_panic(expected = "DES deadlock")]
fn dropped_barrier_deadlocks_dynamically() {
    let machine = Machine::new(5, ClockParams::free());
    machine.run_des(|ctx| Box::pin(async move { planted::dropped_barrier_async(ctx).await }));
}

// The off-by-one broadcast is rejected with COL009 (orphan message),
// not COL008: the root finishes having sent to the wrong rank, so the
// skipped rank blocks on a peer that already exited. Dynamically that
// surfaces as a disconnected-mailbox panic, not a quiescent deadlock —
// the static code and the dynamic failure mode agree.
#[test]
#[should_panic(expected = "disconnected (peer thread exited mid-run)")]
fn off_by_one_bcast_orphans_a_rank_dynamically() {
    let machine = Machine::new(8, ClockParams::free());
    machine.run_des(|ctx| {
        Box::pin(async move {
            let value = (ctx.rank() == 0).then(|| vec![7i64; 3]);
            planted::off_by_one_bcast_async(ctx, value, 3).await
        })
    });
}
