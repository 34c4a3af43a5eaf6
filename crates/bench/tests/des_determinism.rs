//! DES determinism under faults (and without them): the discrete-event
//! engine's step order is a pure function of the simulated communication
//! structure, so the same `(seed, FaultPlan)` must produce byte-identical
//! Chrome traces, identical retry counters and identical makespan bits —
//! across repeated runs in one process, and regardless of how many sweep
//! workers drive independent simulations concurrently.

use collopt_bench::sweep_driver::par_map_with;
use collopt_bench::{rule_lhs, rule_rhs, varied_input};
use collopt_core::exec::{execute_faulted_traced, ExecConfig};
use collopt_core::rules::Rule;
use collopt_fuzz::{random_plan, ChaosKind};
use collopt_machine::{chrome_trace_json, ClockParams, FaultPlan};

fn des_config() -> ExecConfig {
    ExecConfig {
        profile: true,
        ..ExecConfig::default()
    }
}

/// Everything observable about one faulted DES run, in comparable form.
fn observe(seed: u64, p: usize, kind: ChaosKind) -> (String, u64, u64, u64) {
    let rule = Rule::ALL[(seed as usize) % Rule::ALL.len()];
    let prog = if seed.is_multiple_of(2) {
        rule_lhs(rule)
    } else {
        rule_rhs(rule)
    };
    let inputs = varied_input(p, 4, seed);
    let plan: FaultPlan = random_plan(seed, p, kind);
    let run = execute_faulted_traced(
        &prog,
        &inputs,
        ClockParams::new(100.0, 2.0),
        des_config(),
        &plan,
    )
    .expect("recoverable plan must complete");
    (
        chrome_trace_json(&[("run", &run.trace)]),
        run.outcome.total_retries,
        run.outcome.total_retry_time.to_bits(),
        run.outcome.makespan.to_bits(),
    )
}

#[test]
fn repeated_des_runs_are_byte_identical() {
    for kind in [ChaosKind::Delay, ChaosKind::Lossy] {
        for seed in [3u64, 17, 40] {
            let p = 4 + (seed as usize) % 5;
            let first = observe(seed, p, kind);
            for round in 1..3 {
                let again = observe(seed, p, kind);
                assert_eq!(
                    first, again,
                    "seed={seed} kind={kind:?} diverged on repeat #{round}"
                );
            }
        }
    }
}

#[test]
fn des_results_do_not_depend_on_sweep_worker_count() {
    // The same batch of faulted simulations, swept serially and with four
    // concurrent workers: every per-job observable must match slot for
    // slot. (Each DES run is single-threaded and self-contained, so
    // worker scheduling has nothing to leak into the simulated clock.)
    let jobs: Vec<(u64, ChaosKind)> = (0..12u64)
        .map(|i| {
            (
                100 + i,
                if i % 2 == 0 {
                    ChaosKind::Delay
                } else {
                    ChaosKind::Lossy
                },
            )
        })
        .collect();
    let run_batch = |workers: usize| {
        par_map_with(jobs.clone(), workers, |(seed, kind)| {
            observe(seed, 5 + (seed as usize) % 4, kind)
        })
    };
    let serial = run_batch(1);
    let parallel = run_batch(4);
    assert_eq!(serial, parallel, "sweep worker count leaked into DES runs");
}

#[test]
fn des_crash_reporting_is_deterministic() {
    // Crash plans that certainly fire (crash after 0 or 1 sends): the
    // surfaced error — or, if a rank crashes after its last send, the
    // completed observables — must be the same, run after run.
    let mut crashed = 0;
    for seed in [5u64, 23, 31, 77] {
        let p = 6;
        let rule = Rule::ALL[(seed as usize) % Rule::ALL.len()];
        let prog = rule_lhs(rule);
        let inputs = varied_input(p, 4, seed);
        let plan = FaultPlan::new(seed).with_crash((seed as usize) % p, seed % 2);
        let outcomes: Vec<_> = (0..3)
            .map(|_| {
                execute_faulted_traced(
                    &prog,
                    &inputs,
                    ClockParams::new(100.0, 2.0),
                    des_config(),
                    &plan,
                )
                .map(|run| {
                    (
                        chrome_trace_json(&[("run", &run.trace)]),
                        run.outcome.makespan.to_bits(),
                    )
                })
            })
            .collect();
        if outcomes[0].is_err() {
            crashed += 1;
        }
        assert_eq!(outcomes[0], outcomes[1], "seed={seed}");
        assert_eq!(outcomes[1], outcomes[2], "seed={seed}");
    }
    assert!(crashed > 0, "no seed exercised the crash path");
}
