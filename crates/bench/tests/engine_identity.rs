//! Event-order identity: nothing observable may depend on the order in
//! which the discrete-event scheduler runs events due at the same
//! simulated time. Every run here is repeated under permuted tie-breaks
//! ([`FaultPlan::order`]) and must match the canonical order — same
//! outputs, bit-identical makespans, compute and retry totals, same
//! message and retry counters, byte-identical Chrome trace exports — across
//! every Table-1 rule, both sides of each rewrite, machine sizes 2..=9,
//! with and without fault plans, and under every collective-lowering
//! variant; under a crash plan every order surfaces the same error.
//!
//! The simulated clock travels with the data and every receive names its
//! source, so the step order is an implementation detail of the engine;
//! these points hold it to that.

use collopt_bench::chaos::{random_plan, ChaosKind};
use collopt_bench::sweep_driver::par_map;
use collopt_bench::{rule_lhs, rule_rhs, varied_input};
use collopt_core::exec::{
    execute_faulted, execute_faulted_traced, execute_traced_with, ExecConfig, TracedExecOutcome,
};
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_machine::{chrome_trace_json, ClockParams, FaultPlan, MachineError, Rng};

fn profiled() -> ExecConfig {
    ExecConfig {
        profile: true,
        ..ExecConfig::default()
    }
}

/// The tie-breaks each point is repeated under: the full reversal, and one
/// drawn from `seed` with bit 0 set, so that ranks `2k` and `2k + 1` due at
/// the same time swap whatever the draw.
fn permuted_orders(seed: u64) -> [u64; 2] {
    [u64::MAX, Rng::new(seed).next_u64() | 1]
}

/// Assert every observable of two runs matches to the bit, including the
/// serialized Chrome trace.
fn assert_identical(tag: &str, canonical: &TracedExecOutcome, permuted: &TracedExecOutcome) {
    let (a, b) = (&canonical.outcome, &permuted.outcome);
    assert_eq!(a.outputs, b.outputs, "{tag}: outputs");
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{tag}: makespan {} vs {}",
        a.makespan,
        b.makespan
    );
    assert_eq!(
        a.total_compute.to_bits(),
        b.total_compute.to_bits(),
        "{tag}: compute totals"
    );
    assert_eq!(a.total_messages, b.total_messages, "{tag}: message counts");
    assert_eq!(a.total_retries, b.total_retries, "{tag}: retry counters");
    assert_eq!(
        a.total_retry_time.to_bits(),
        b.total_retry_time.to_bits(),
        "{tag}: retry time"
    );
    let a = chrome_trace_json(&[(tag, &canonical.trace)]);
    let b = chrome_trace_json(&[(tag, &permuted.trace)]);
    assert_eq!(a, b, "{tag}: Chrome trace exports differ");
}

fn run_traced(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    plan: Option<&FaultPlan>,
    config: ExecConfig,
) -> Result<TracedExecOutcome, MachineError> {
    match plan {
        None => Ok(execute_traced_with(prog, inputs, clock, config)),
        Some(plan) => execute_faulted_traced(prog, inputs, clock, config, plan),
    }
}

/// Run `prog` traced in the canonical order and in each permuted order,
/// and assert the runs identical.
fn assert_orders_identical(
    tag: &str,
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    plan: Option<&FaultPlan>,
    config: ExecConfig,
    seed: u64,
) {
    let canonical = run_traced(prog, inputs, clock, plan, config)
        .unwrap_or_else(|e| panic!("{tag} canonical: {e}"));
    for order in permuted_orders(seed) {
        let tag = format!("{tag} order={order:#x}");
        let permuted = plan.cloned().unwrap_or_default().with_order(order);
        let run = run_traced(prog, inputs, clock, Some(&permuted), config)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_identical(&tag, &canonical, &run);
    }
}

/// Under a plan that may abort the run, every order must share one fate:
/// the same outputs and makespan bits, or the same [`MachineError`].
fn assert_orders_share_a_fate(
    tag: &str,
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    plan: &FaultPlan,
    seed: u64,
) {
    let run = |plan: &FaultPlan| execute_faulted(prog, inputs, clock, profiled(), plan);
    let canonical = run(plan);
    for order in permuted_orders(seed) {
        let tag = format!("{tag} order={order:#x}");
        match (&canonical, run(&plan.clone().with_order(order))) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.outputs, b.outputs, "{tag}");
                assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{tag}");
            }
            (Err(a), Err(b)) => assert_eq!(*a, b, "{tag}: errors differ"),
            (a, b) => panic!("{tag}: orders disagree on success: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn permuted_orders_are_bit_identical_across_rules_sizes_and_plans() {
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
                    let plan = plan.as_ref();
                    assert_orders_identical(&tag, &prog, &inputs, clock, plan, profiled(), seed);
                }
            }
        }
    });
}

#[test]
fn event_orders_agree_on_crash_plan_errors() {
    // A crashed run must surface the *same* MachineError in every order —
    // which rank the scheduler tears down first must not change failure
    // reporting.
    for p in [2usize, 5, 9] {
        let clock = ClockParams::new(100.0, 2.0);
        let seed = 7 + p as u64;
        let inputs = varied_input(p, 4, seed);
        let plan = random_plan(seed, p, ChaosKind::Crash);
        for rule in collopt_core::rules::Rule::ALL {
            for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
                let tag = format!("{rule} {side} p={p}");
                assert_orders_share_a_fate(&tag, &prog, &inputs, clock, &plan, seed);
            }
        }
    }
}

#[test]
fn generated_pipeline_batch_is_bit_identical_across_event_orders() {
    // A fixed-seed batch of 64 fuzz-generated pipelines — arbitrary stage
    // compositions, table operators, machine sizes, fault plans, and
    // pre-fused forms — through the same identity gate the
    // hand-enumerated rule batteries use above. Failures print the case's
    // spec string, replayable via `collopt fuzz --replay`.
    use collopt_fuzz::{generate_case, GenConfig};

    const BASE_SEED: u64 = 0xBA7C_4000;
    par_map((0..64u64).collect(), |i| {
        let seed = BASE_SEED + i;
        let case = generate_case(seed, &GenConfig::default());
        let tag = format!("batch case {seed} [spec: {}]", case.render());
        let clock = ClockParams::new(100.0, 2.0);
        let prog = case.program();
        let inputs = case.inputs();
        match case.plan.as_ref() {
            Some(plan) if !plan.is_recoverable() => {
                // Crash plans: runs may abort, so compare Result-level outcomes.
                assert_orders_share_a_fate(&tag, &prog, &inputs, clock, plan, seed);
            }
            plan => assert_orders_identical(&tag, &prog, &inputs, clock, plan, profiled(), seed),
        }
    });
}

#[test]
fn event_orders_agree_under_every_collective_lowering_variant() {
    // The adaptive lowering paths (cost-model-selected broadcast and
    // reduction algorithms) route through different collectives — every
    // order must agree under each of the four lowering combinations.
    let p = 8;
    let clock = ClockParams::parsytec_like();
    let inputs = varied_input(p, 16, 99);
    for (adaptive_bcast, adaptive_reduction) in
        [(false, false), (true, false), (false, true), (true, true)]
    {
        let config = ExecConfig {
            adaptive_bcast,
            adaptive_reduction,
            ..profiled()
        };
        for rule in collopt_core::rules::Rule::ALL {
            for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
                let tag = format!(
                    "{rule} {side} adaptive_bcast={adaptive_bcast} \
                     adaptive_reduction={adaptive_reduction}"
                );
                assert_orders_identical(&tag, &prog, &inputs, clock, None, config, 99);
            }
        }
    }
}
