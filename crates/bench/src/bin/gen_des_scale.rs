//! Discrete-event engine scale benchmark: throughput against the thread
//! engine at thread-feasible sizes, and machine sizes threads cannot host
//! at all.
//!
//! Three suites:
//!
//! * `identity gate` — before any timing, re-prove on a reduced grid
//!   that a DES run is observationally indistinguishable from a
//!   thread-engine run (outputs, makespan bits, byte-identical Chrome
//!   traces). The full-strength 528-point version lives in
//!   `tests/engine_identity.rs`.
//! * `single_stage` — the same one-stage allreduce program repeated
//!   under the thread engine and under DES; simulations per second of
//!   each. The DES engine runs `p` ranks on one thread with no
//!   spawn/park/unpark traffic, so it should win handily at small `p` —
//!   `COLLOPT_DES_FLOOR` turns that expectation into a gate.
//! * `scale ladder` — one allreduce at `p = 10³, 10⁴, 10⁵` (and up to
//!   10⁶ with `DES_SCALE_MAX_P`) under DES, with wall time and
//!   messages/second. The thread engine refuses these sizes with
//!   `CapacityExceeded` (pinned by a `collopt-machine` unit test).
//!
//! Writes `results/BENCH_des.json` and prints a summary. Environment:
//!
//! * `DES_SCALE_REPS` — repetitions for the throughput suite
//!   (default 3000).
//! * `DES_SCALE_MAX_P` — largest ladder size (default 100000).
//! * `COLLOPT_DES_FLOOR` — when set (e.g. `2.0`), exit non-zero unless
//!   DES single-stage sims/sec reaches the floor times the thread
//!   engine's; unset = report only. CI sets this on the nightly job.

use std::time::Instant;

use collopt_bench::harness::{env_floor, env_usize};
use collopt_bench::{rule_lhs, rule_rhs, varied_input};
use collopt_core::exec::{execute_traced_with, execute_with, ExecConfig};
use collopt_core::op::lib as ops;
use collopt_core::rules::Rule;
use collopt_core::term::Program;
use collopt_machine::{chrome_trace_json, ClockParams, ExecEngine};

fn engine_config(engine: ExecEngine) -> ExecConfig {
    ExecConfig {
        engine: Some(engine),
        ..ExecConfig::default()
    }
}

/// Reduced identity gate: every observable of a DES run must match the
/// thread-engine run to the bit. Returns the number of compared points.
fn identity_gate() -> usize {
    let clock = ClockParams::new(100.0, 2.0);
    let mut points = 0usize;
    for p in 2..=9usize {
        let inputs = varied_input(p, 4, 900 + p as u64);
        for rule in Rule::ALL {
            for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
                let tag = format!("{rule} {side} p={p}");
                let run = |engine| {
                    let config = ExecConfig {
                        engine: Some(engine),
                        profile: true,
                        ..ExecConfig::default()
                    };
                    execute_traced_with(&prog, &inputs, clock, config)
                };
                let threads = run(ExecEngine::Threads);
                let des = run(ExecEngine::Des);
                assert_eq!(threads.outcome.outputs, des.outcome.outputs, "{tag}");
                assert_eq!(
                    threads.outcome.makespan.to_bits(),
                    des.outcome.makespan.to_bits(),
                    "{tag}: makespans"
                );
                assert_eq!(
                    chrome_trace_json(&[(tag.as_str(), &threads.trace)]),
                    chrome_trace_json(&[(tag.as_str(), &des.trace)]),
                    "{tag}: Chrome exports"
                );
                points += 1;
            }
        }
    }
    points
}

/// Time the one-stage allreduce `reps` times under one engine; returns
/// (seconds, simulations run).
fn single_stage(engine: ExecEngine, reps: usize) -> (f64, usize) {
    let prog = Program::new().allreduce(ops::add());
    let inputs = varied_input(8, 4, 42);
    let clock = ClockParams::new(100.0, 2.0);
    // Warm up.
    let want = execute_with(&prog, &inputs, clock, engine_config(engine));
    let start = Instant::now();
    for _ in 0..reps {
        let got = execute_with(&prog, &inputs, clock, engine_config(engine));
        assert_eq!(got.makespan.to_bits(), want.makespan.to_bits());
    }
    (start.elapsed().as_secs_f64(), reps)
}

struct ScalePoint {
    p: usize,
    wall_s: f64,
    makespan: f64,
    messages: u64,
    msgs_per_sec: f64,
}

/// One allreduce over the full machine at size `p` under DES.
fn scale_point(p: usize) -> ScalePoint {
    let prog = Program::new().allreduce(ops::add());
    let inputs = varied_input(p, 4, 7);
    let clock = ClockParams::new(100.0, 2.0);
    let start = Instant::now();
    let out = execute_with(&prog, &inputs, clock, engine_config(ExecEngine::Des));
    let wall_s = start.elapsed().as_secs_f64();
    ScalePoint {
        p,
        wall_s,
        makespan: out.makespan,
        messages: out.total_messages,
        msgs_per_sec: out.total_messages as f64 / wall_s,
    }
}

fn main() {
    std::fs::create_dir_all("results").expect("create results/");
    let reps = env_usize("DES_SCALE_REPS", 3000);
    let max_p = env_usize("DES_SCALE_MAX_P", 100_000);

    println!("# identity gate: des vs thread engine");
    let identity_points = identity_gate();
    println!("#   {identity_points} points bit-identical (traces, makespans)");

    println!("# single-stage throughput: p=8 allreduce x{reps}");
    let (threads_s, threads_sims) = single_stage(ExecEngine::Threads, reps);
    let (des_s, des_sims) = single_stage(ExecEngine::Des, reps);
    let threads_rate = threads_sims as f64 / threads_s;
    let des_rate = des_sims as f64 / des_s;
    let speedup = des_rate / threads_rate;
    println!(
        "  threads: {threads_s:>8.3}s for {threads_sims} sims ({threads_rate:>9.0} sims/s)\n  \
         des:     {des_s:>8.3}s for {des_sims} sims ({des_rate:>9.0} sims/s)\n  \
         single-stage throughput speedup {speedup:.2}x"
    );

    let mut ladder = vec![1_000usize, 10_000, 100_000];
    ladder.retain(|&p| p <= max_p);
    if max_p > 100_000 {
        ladder.push(max_p);
    }
    let mut scale_json = Vec::new();
    println!("# scale ladder (des engine, single allreduce)");
    for &p in &ladder {
        let pt = scale_point(p);
        println!(
            "  p={:>8}: {:>8.3}s wall, makespan {:>12.0}, {:>9} msgs ({:>9.0} msgs/s)",
            pt.p, pt.wall_s, pt.makespan, pt.messages, pt.msgs_per_sec
        );
        scale_json.push(format!(
            r#"    {{
      "p": {},
      "wall_s": {:.6},
      "makespan": {:.1},
      "messages": {},
      "msgs_per_sec": {:.1}
    }}"#,
            pt.p, pt.wall_s, pt.makespan, pt.messages, pt.msgs_per_sec
        ));
    }

    let json = format!(
        r#"{{
  "bench": "des_scale",
  "identity_points": {},
  "identity_bit_identical": true,
  "thread_max_p": {},
  "single_stage": {{
    "p": 8,
    "reps": {},
    "threads_s": {:.6},
    "threads_sims_per_sec": {:.1},
    "des_s": {:.6},
    "des_sims_per_sec": {:.1},
    "des_vs_threads_speedup": {:.3}
  }},
  "scale": [
{}
  ]
}}
"#,
        identity_points,
        ExecEngine::THREAD_MAX_P,
        reps,
        threads_s,
        threads_rate,
        des_s,
        des_rate,
        speedup,
        scale_json.join(",\n"),
    );
    std::fs::write("results/BENCH_des.json", json).expect("write results/BENCH_des.json");
    println!("# wrote results/BENCH_des.json");

    if let Some(floor) = env_floor("COLLOPT_DES_FLOOR") {
        if speedup < floor {
            eprintln!("FAIL: des single-stage throughput {speedup:.2}x below floor {floor:.2}x");
            std::process::exit(1);
        }
        println!("# des throughput floor {floor:.2}x satisfied ({speedup:.2}x)");
    }
}
