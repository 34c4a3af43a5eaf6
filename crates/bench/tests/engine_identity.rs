//! Differential identity: the discrete-event engine must be
//! *observationally indistinguishable* from its reference, the
//! thread-per-rank engine — same outputs, bit-identical makespans, same
//! retry counters, byte-identical Chrome trace exports — across every
//! Table-1 rule, both sides of each rewrite, machine sizes 2..=9, with
//! and without fault plans, and under every collective-lowering variant.
//!
//! This is the license for making [`ExecEngine::Des`] the default and
//! for trusting it at machine sizes where threads cannot follow: the
//! simulated clock travels with the data, so neither OS scheduling
//! (threads) nor event ordering (DES) can leak into any observable of a
//! run.

use collopt_bench::chaos::{random_plan, ChaosKind};
use collopt_bench::sweep_driver::par_map;
use collopt_bench::{rule_lhs, rule_rhs, varied_input};
use collopt_core::exec::{
    execute_faulted, execute_faulted_traced, execute_traced_with, ExecConfig, ExecOutcome,
    TracedExecOutcome,
};
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_machine::{chrome_trace_json, ClockParams, ExecEngine, FaultPlan, MachineError};

fn engine_config(engine: ExecEngine) -> ExecConfig {
    ExecConfig {
        engine: Some(engine),
        profile: true,
        ..ExecConfig::default()
    }
}

/// Assert every observable of two runs matches to the bit, including the
/// serialized Chrome trace.
fn assert_identical(tag: &str, threads: &TracedExecOutcome, des: &TracedExecOutcome) {
    assert_eq!(
        threads.outcome.outputs, des.outcome.outputs,
        "{tag}: outputs"
    );
    assert_eq!(
        threads.outcome.makespan.to_bits(),
        des.outcome.makespan.to_bits(),
        "{tag}: makespan {} vs {}",
        threads.outcome.makespan,
        des.outcome.makespan
    );
    assert_eq!(
        threads.outcome.total_compute.to_bits(),
        des.outcome.total_compute.to_bits(),
        "{tag}: compute totals"
    );
    assert_eq!(
        threads.outcome.total_messages, des.outcome.total_messages,
        "{tag}: message counts"
    );
    assert_eq!(
        threads.outcome.total_retries, des.outcome.total_retries,
        "{tag}: retry counters"
    );
    assert_eq!(
        threads.outcome.total_retry_time.to_bits(),
        des.outcome.total_retry_time.to_bits(),
        "{tag}: retry time"
    );
    let a = chrome_trace_json(&[(tag, &threads.trace)]);
    let b = chrome_trace_json(&[(tag, &des.trace)]);
    assert_eq!(a, b, "{tag}: Chrome trace exports differ");
}

fn run_traced(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    plan: Option<&FaultPlan>,
    engine: ExecEngine,
) -> Result<TracedExecOutcome, MachineError> {
    match plan {
        None => Ok(execute_traced_with(
            prog,
            inputs,
            clock,
            engine_config(engine),
        )),
        Some(plan) => execute_faulted_traced(prog, inputs, clock, engine_config(engine), plan),
    }
}

/// Run `prog` traced on both engines and assert the runs identical.
fn assert_engines_identical(
    tag: &str,
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    plan: Option<&FaultPlan>,
) {
    let threads = run_traced(prog, inputs, clock, plan, ExecEngine::Threads)
        .unwrap_or_else(|e| panic!("{tag} threads: {e}"));
    let des = run_traced(prog, inputs, clock, plan, ExecEngine::Des)
        .unwrap_or_else(|e| panic!("{tag} des: {e}"));
    assert_identical(tag, &threads, &des);
}

/// Under a plan that may abort the run, both engines must share one fate:
/// the same outputs and makespan bits, or the same [`MachineError`].
fn assert_engines_share_a_fate(
    tag: &str,
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    plan: &FaultPlan,
) {
    let run = |engine| -> Result<ExecOutcome, MachineError> {
        execute_faulted(prog, inputs, clock, engine_config(engine), plan)
    };
    match (run(ExecEngine::Threads), run(ExecEngine::Des)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.outputs, b.outputs, "{tag}");
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{tag}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{tag}: errors differ"),
        (a, b) => panic!("{tag}: engines disagree on success: {a:?} vs {b:?}"),
    }
}

#[test]
fn des_is_bit_identical_to_threads_across_rules_sizes_and_plans() {
    // Every p gets an independent battery — fan the sizes across cores.
    par_map((2usize..=9).collect(), |p| {
        let clock = ClockParams::new(100.0, 2.0);
        let seed = 1000 + p as u64;
        let inputs = varied_input(p, 4, seed);
        // Recoverable plans only: traced comparison needs completed runs.
        let plans: Vec<Option<FaultPlan>> = vec![
            None,
            Some(random_plan(seed, p, ChaosKind::Delay)),
            Some(random_plan(seed, p, ChaosKind::Lossy)),
        ];
        for rule in collopt_core::rules::Rule::ALL {
            for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
                for (i, plan) in plans.iter().enumerate() {
                    let tag = format!("{rule} {side} p={p} plan#{i}");
                    assert_engines_identical(&tag, &prog, &inputs, clock, plan.as_ref());
                }
            }
        }
    });
}

#[test]
fn engines_agree_on_crash_plan_errors() {
    // A crashed run must surface the *same* MachineError from both
    // engines — how a rank is torn down must not change failure reporting.
    for p in [2usize, 5, 9] {
        let clock = ClockParams::new(100.0, 2.0);
        let seed = 7 + p as u64;
        let inputs = varied_input(p, 4, seed);
        let plan = random_plan(seed, p, ChaosKind::Crash);
        for rule in collopt_core::rules::Rule::ALL {
            for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
                let tag = format!("{rule} {side} p={p}");
                assert_engines_share_a_fate(&tag, &prog, &inputs, clock, &plan);
            }
        }
    }
}

#[test]
fn generated_pipeline_batch_is_bit_identical_across_engines() {
    // A fixed-seed batch of 64 fuzz-generated pipelines — arbitrary stage
    // compositions, table operators, machine sizes, fault plans, and
    // pre-fused forms — through the same two-engine identity gate the
    // hand-enumerated rule batteries use above. Failures print the
    // case's spec string, replayable via `collopt fuzz --replay`.
    use collopt_fuzz::{generate_case, GenConfig};

    const BASE_SEED: u64 = 0xBA7C_4000;
    par_map((0..64u64).collect(), |i| {
        let case = generate_case(BASE_SEED + i, &GenConfig::default());
        let tag = format!("batch case {} [spec: {}]", BASE_SEED + i, case.render());
        let clock = ClockParams::new(100.0, 2.0);
        let prog = case.program();
        let inputs = case.inputs();
        let plan = case.plan.as_ref();
        if plan.is_none_or(FaultPlan::is_recoverable) {
            assert_engines_identical(&tag, &prog, &inputs, clock, plan);
        } else {
            // Crash plans: runs may abort, so compare Result-level outcomes.
            assert_engines_share_a_fate(&tag, &prog, &inputs, clock, plan.unwrap());
        }
    });
}

#[test]
fn engines_agree_under_every_collective_lowering_variant() {
    // The adaptive lowering paths (cost-model-selected broadcast and
    // reduction algorithms) route through different collectives — the
    // engines must agree under each of the four lowering combinations.
    let p = 8;
    let clock = ClockParams::parsytec_like();
    let inputs = varied_input(p, 16, 99);
    for (adaptive_bcast, adaptive_reduction) in
        [(false, false), (true, false), (false, true), (true, true)]
    {
        for rule in collopt_core::rules::Rule::ALL {
            for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
                let tag = format!(
                    "{rule} {side} adaptive_bcast={adaptive_bcast} \
                     adaptive_reduction={adaptive_reduction}"
                );
                let config = |engine| ExecConfig {
                    adaptive_bcast,
                    adaptive_reduction,
                    profile: true,
                    engine: Some(engine),
                };
                let threads =
                    execute_traced_with(&prog, &inputs, clock, config(ExecEngine::Threads));
                let des = execute_traced_with(&prog, &inputs, clock, config(ExecEngine::Des));
                assert_identical(&tag, &threads, &des);
            }
        }
    }
}
