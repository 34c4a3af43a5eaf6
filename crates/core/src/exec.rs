//! Executing program terms on the simulated machine.
//!
//! [`execute`] lowers each [`Stage`] onto the algorithms of
//! `collopt-collectives`, running the program SPMD-style on the simulated
//! machine's discrete-event scheduler, one resumable future per
//! processor. The returned [`ExecOutcome`] carries both the computed
//! distributed list (which must agree with
//! [`crate::semantics::eval_program`] — the integration tests check this
//! for every rule) and the deterministic simulated makespan under the
//! paper's `ts`/`tw` model (which must agree with
//! [`crate::rewrite::program_cost`] for power-of-two machines — the cost
//! benches check that).

use std::sync::Arc;

use collopt_collectives::{
    allgather_binomial_async, allreduce_async, allreduce_balanced_async, bcast_binomial_async,
    comcast_bcast_repeat_async, comcast_cost_optimal_async, gather_binomial_async,
    reduce_balanced_async, reduce_binomial_async, scan_balanced_async, scatter_binomial_async,
    BalancedOp, Combine, PairedOp, RepeatOp,
};
use collopt_machine::{
    critical_path, ClockParams, CriticalPath, Ctx, ExecEngine, FaultPlan, Machine, MachineError,
    ProfileError, ProfileReport,
};

use crate::adjust::iter_balanced;
use crate::term::{ComcastVariant, Program, Stage};
use crate::value::Value;

/// Execution options. Each stage has one lowering, the one
/// [`crate::rewrite::program_cost`] prices, so no option changes what a
/// run computes or costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecConfig {
    /// Inject an [`EventKind::Stage`](collopt_machine::EventKind::Stage)
    /// boundary into the trace after every program stage, labelled with
    /// [`Stage::describe`]. Stage boundaries are zero-cost annotations —
    /// they never change the makespan or the rendered timeline — and feed
    /// the per-stage breakdown of
    /// [`collopt_machine::ProfileReport`]. Only meaningful together with
    /// tracing (see [`execute_traced_with`]); silently inert otherwise.
    pub profile: bool,
    /// Every value — `None` and `Some(ExecEngine::Des)` — runs on the one
    /// engine, the discrete-event scheduler. Kept only because the
    /// standalone `benchmark/` crate sets it; ROADMAP item 5's follow-up
    /// `benchmark` issue ("drop the engine vestiges") deletes this field
    /// with [`ExecEngine`].
    pub engine: Option<ExecEngine>,
}

/// Result of running a program on the machine.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Final per-processor values.
    pub outputs: Vec<Value>,
    /// Simulated parallel run time (max over ranks).
    pub makespan: f64,
    /// Total computation operations charged across ranks.
    pub total_compute: f64,
    /// Total message exchanges across ranks.
    pub total_messages: u64,
    /// Failed transmission attempts retried across ranks (always zero
    /// without a lossy fault plan).
    pub total_retries: u64,
    /// Simulated time lost to failed attempts across ranks — the exact
    /// overhead a lossy-but-recovered run paid for its retries.
    pub total_retry_time: f64,
}

/// Execute `prog` on `inputs.len()` simulated processors with the given
/// cost parameters. `inputs[i]` is processor `i`'s initial block.
pub fn execute(prog: &Program, inputs: &[Value], clock: ClockParams) -> ExecOutcome {
    run_program(prog, inputs, clock, false, ExecConfig::default()).0
}

/// Execute `prog` under a [`FaultPlan`]: stragglers, slow links, message
/// drops and rank crashes are replayed deterministically. Returns `Err`
/// with the originating [`MachineError`] when the plan makes the run fail
/// (a crash, or a message exhausting its retry budget) — cleanly, with
/// no rank left hanging. An empty plan is observationally inert: the
/// outcome is bit-identical to [`execute`].
pub fn execute_faulted(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    config: ExecConfig,
    plan: &FaultPlan,
) -> Result<ExecOutcome, MachineError> {
    try_run_program(prog, inputs, clock, false, config, Some(plan)).map(|(o, _)| o)
}

/// [`execute_faulted`] with event tracing: the trace carries the injected
/// [`Retry`](collopt_machine::EventKind::Retry) spans, so Chrome exports
/// and profiles show exactly where the fault overhead went.
pub fn execute_faulted_traced(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    config: ExecConfig,
    plan: &FaultPlan,
) -> Result<TracedExecOutcome, MachineError> {
    try_run_program(prog, inputs, clock, true, config, Some(plan))
        .map(|(outcome, trace)| TracedExecOutcome { outcome, trace })
}

/// [`execute`] with explicit [`ExecConfig`] options.
pub fn execute_with(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    config: ExecConfig,
) -> ExecOutcome {
    run_program(prog, inputs, clock, false, config).0
}

/// [`execute`] with event tracing enabled; also returns the merged trace
/// (sends, receives, exchanges, computation, ordered by simulated time),
/// from which Figure-1-style run-time diagrams can be rendered via
/// [`collopt_machine::Trace::ascii_timeline`].
pub fn execute_traced(prog: &Program, inputs: &[Value], clock: ClockParams) -> TracedExecOutcome {
    execute_traced_with(prog, inputs, clock, ExecConfig::default())
}

/// [`execute_traced`] with explicit [`ExecConfig`] options. With
/// [`ExecConfig::profile`] set, the trace carries per-stage boundaries
/// and [`TracedExecOutcome::profile_report`] breaks the run down stage
/// by stage.
pub fn execute_traced_with(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    config: ExecConfig,
) -> TracedExecOutcome {
    let (outcome, trace) = run_program(prog, inputs, clock, true, config);
    TracedExecOutcome { outcome, trace }
}

/// Execute with a per-stage profile: element `i` of the returned vector
/// is the simulated time at which the slowest rank finished stage `i`
/// (so differences give per-stage makespans). The profile is what the
/// optimization report uses for *measured* stage costs next to the
/// analytic ones. Implemented on top of the stage boundaries the traced
/// executor injects; use [`execute_traced_with`] directly for the full
/// [`ProfileReport`].
pub fn execute_profiled(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
) -> (ExecOutcome, Vec<f64>) {
    let run = execute_traced_with(
        prog,
        inputs,
        clock,
        ExecConfig {
            profile: true,
            ..ExecConfig::default()
        },
    );
    let stage_finish = run
        .profile_report()
        .stages
        .iter()
        .map(|s| s.finish)
        .collect();
    (run.outcome, stage_finish)
}

/// An [`ExecOutcome`] together with the run's event trace.
#[derive(Debug)]
pub struct TracedExecOutcome {
    /// The execution result.
    pub outcome: ExecOutcome,
    /// Merged per-rank event log.
    pub trace: collopt_machine::Trace,
}

impl std::ops::Deref for TracedExecOutcome {
    type Target = ExecOutcome;
    fn deref(&self) -> &ExecOutcome {
        &self.outcome
    }
}

impl TracedExecOutcome {
    /// Aggregate the trace into per-rank (and, when the run was executed
    /// with [`ExecConfig::profile`], per-stage) busy/idle accounting.
    pub fn profile_report(&self) -> ProfileReport {
        ProfileReport::from_trace(
            &self.trace,
            self.outcome.outputs.len(),
            self.outcome.makespan,
        )
    }

    /// The causal chain of events that determined this run's makespan.
    /// Its [`length`](collopt_machine::CriticalPath::length) equals
    /// [`ExecOutcome::makespan`] exactly — the cross-validation oracle the
    /// property suite leans on.
    pub fn critical_path(&self) -> Result<CriticalPath, ProfileError> {
        critical_path(&self.trace)
    }
}

fn run_program(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    tracing: bool,
    config: ExecConfig,
) -> (ExecOutcome, collopt_machine::Trace) {
    try_run_program(prog, inputs, clock, tracing, config, None)
        .expect("a fault-free run cannot fail")
}

fn try_run_program(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    tracing: bool,
    config: ExecConfig,
    faults: Option<&FaultPlan>,
) -> Result<(ExecOutcome, collopt_machine::Trace), MachineError> {
    assert!(!inputs.is_empty());
    let mut machine = Machine::new(inputs.len(), clock);
    if tracing {
        machine = machine.with_tracing();
    }
    if let Some(plan) = faults {
        machine = machine.with_faults(plan.clone());
    }
    let inputs: Arc<Vec<Value>> = Arc::new(inputs.to_vec());
    // `try_run_des` requires the rank future to borrow nothing but its
    // `Ctx`, so the program is copied once per run (a `BinOp` clone
    // allocates its name and law list) and each rank holds a handle on
    // that copy and on the inputs.
    let prog = Arc::new(prog.clone());
    let run = machine.try_run_des(move |ctx| {
        let (prog, inputs) = (Arc::clone(&prog), Arc::clone(&inputs));
        Box::pin(async move { rank_main(&prog, &inputs, config, ctx).await })
    })?;
    let total_retries = run.total_retries();
    let total_retry_time = run.total_retry_time();
    Ok((
        ExecOutcome {
            outputs: run.results,
            makespan: run.makespan,
            total_compute: run.compute_ops.iter().sum(),
            total_messages: run.messages.iter().sum(),
            total_retries,
            total_retry_time,
        },
        run.trace,
    ))
}

async fn rank_main(
    prog: &Program,
    inputs: &Arc<Vec<Value>>,
    config: ExecConfig,
    ctx: &mut Ctx,
) -> Value {
    let mut v = inputs[ctx.rank()].clone();
    for (i, stage) in prog.stages().iter().enumerate() {
        exec_stage(stage, ctx, &mut v).await;
        if config.profile {
            ctx.end_stage(i, stage.describe());
        }
    }
    v
}

async fn exec_stage(stage: &Stage, ctx: &mut Ctx, v: &mut Value) {
    let m = v.block_len() as f64;
    match stage {
        Stage::Map { f, ops, label } => {
            *v = f(v);
            ctx.charge(ops * m, label);
        }
        Stage::MapIndexed { f, ops, label } => {
            *v = f(ctx.rank(), v);
            ctx.charge(ops * m, label);
        }
        Stage::Bcast => {
            let words = v.words();
            let value = (ctx.rank() == 0).then(|| v.clone());
            *v = bcast_binomial_async(ctx, 0, value, words).await;
        }
        Stage::Scan(op) => {
            let words = v.words().max(1);
            // Convert the operator's per-element charge into the
            // per-message-word charge the collective layer expects.
            let ops_per_word = op.ops_per_word() * m / words as f64;
            let f = |a: &Value, b: &Value| op.apply(a, b);
            let combine = Combine::with_cost(&f, ops_per_word);
            *v = collopt_collectives::scan_butterfly_async(ctx, v.clone(), words, &combine).await;
        }
        Stage::Reduce(op) => {
            let words = v.words().max(1);
            let ops_per_word = op.ops_per_word() * m / words as f64;
            let f = |a: &Value, b: &Value| op.apply(a, b);
            let combine = Combine::with_cost(&f, ops_per_word);
            if let Some(r) = reduce_binomial_async(ctx, 0, v.clone(), words, &combine).await {
                *v = r;
            }
            // Non-roots keep their value — the semantics of eq. (5).
        }
        Stage::AllReduce(op) => {
            let words = v.words().max(1);
            let ops_per_word = op.ops_per_word() * m / words as f64;
            let commutative = op.is_commutative();
            let f = |a: &Value, b: &Value| op.apply(a, b);
            let mut combine = Combine::with_cost(&f, ops_per_word);
            if commutative {
                combine = combine.assume_commutative();
            }
            *v = allreduce_async(ctx, v.clone(), words, &combine).await;
        }
        Stage::ReduceBalanced {
            combine,
            solo,
            all,
            ops_combine,
            ops_solo,
            words_factor,
            ..
        } => {
            let cf = |a: &Value, b: &Value| combine(a, b);
            let sf = |x: &Value| solo(x);
            let op = BalancedOp {
                combine: &cf,
                solo: &sf,
                ops_combine: *ops_combine,
                ops_solo: *ops_solo,
                words_factor: *words_factor,
            };
            let words = v.block_len() as u64;
            if *all {
                *v = allreduce_balanced_async(ctx, v.clone(), words, &op).await;
            } else if let Some(r) = reduce_balanced_async(ctx, v.clone(), words, &op).await {
                *v = r;
            }
        }
        Stage::ScanBalanced {
            combine,
            solo,
            ops_lower,
            ops_upper,
            ops_solo,
            words_factor,
            ..
        } => {
            let cf = |a: &Value, b: &Value| combine(a, b);
            let sf = |x: &Value| solo(x);
            let op = PairedOp {
                combine: &cf,
                solo: &sf,
                ops_lower: *ops_lower,
                ops_upper: *ops_upper,
                ops_solo: *ops_solo,
                words_factor: *words_factor,
            };
            let words = v.block_len() as u64;
            *v = scan_balanced_async(ctx, v.clone(), words, &op).await;
        }
        Stage::Comcast {
            e,
            o,
            inject,
            project,
            ops_e,
            ops_o,
            words_factor,
            variant,
            ..
        } => {
            let ef = |x: &Value| e(x);
            let of = |x: &Value| o(x);
            let op = RepeatOp {
                e: &ef,
                o: &of,
                ops_e: *ops_e,
                ops_o: *ops_o,
            };
            let injf = |b: &Value| inject(b);
            let projf = |s: &Value| project(s);
            let words = v.words().max(1);
            let value = (ctx.rank() == 0).then(|| v.clone());
            *v = match variant {
                ComcastVariant::BcastRepeat => {
                    comcast_bcast_repeat_async(ctx, 0, value, words, &injf, &projf, &op).await
                }
                ComcastVariant::CostOptimal => {
                    comcast_cost_optimal_async(
                        ctx,
                        0,
                        value,
                        words,
                        &injf,
                        &projf,
                        &op,
                        *words_factor,
                    )
                    .await
                }
            };
        }
        Stage::Gather => {
            let words = v.words().max(1);
            if let Some(all) = gather_binomial_async(ctx, v.clone(), words).await {
                *v = Value::list(all);
            }
        }
        Stage::Scatter => {
            let blocks = (ctx.rank() == 0).then(|| {
                let list = v.as_list();
                assert_eq!(
                    list.len(),
                    ctx.size(),
                    "scatter needs one element per processor"
                );
                list.to_vec()
            });
            let words = (v.words() / ctx.size() as u64).max(1);
            *v = scatter_binomial_async(ctx, blocks, words).await;
        }
        Stage::AllGather => {
            let words = v.words().max(1);
            *v = Value::list(allgather_binomial_async(ctx, v.clone(), words).await);
        }
        Stage::IterLocal {
            combine,
            solo,
            all,
            ops_combine,
            ops_solo,
            label,
        } => {
            if ctx.rank() == 0 {
                let cf = |a: &Value, b: &Value| combine(a, b);
                let sf = |x: &Value| solo(x);
                let (nv, combines, solos) = iter_balanced(ctx.size(), v, &cf, &sf);
                ctx.charge(
                    combines as f64 * ops_combine * m + solos as f64 * ops_solo * m,
                    label,
                );
                *v = nv;
            }
            if *all {
                let words = v.words();
                let value = (ctx.rank() == 0).then(|| v.clone());
                *v = bcast_binomial_async(ctx, 0, value, words).await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::rewrite::Rewriter;
    use crate::semantics::eval_program;
    use crate::term::Program;

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn executor_matches_evaluator_on_basic_stages() {
        let prog = Program::new()
            .map("inc", 1.0, |v| Value::Int(v.as_int() + 1))
            .scan(lib::add())
            .allreduce(lib::max())
            .bcast();
        for p in [1usize, 2, 3, 6, 8, 13] {
            let input: Vec<i64> = (0..p as i64).map(|i| 2 * i - 3).collect();
            let xs = ints(&input);
            let expected = eval_program(&prog, &xs);
            let got = execute(&prog, &xs, ClockParams::free());
            assert_eq!(got.outputs, expected, "p={p}");
        }
    }

    #[test]
    fn executor_matches_evaluator_on_reduce_semantics() {
        let prog = Program::new().reduce(lib::add());
        let xs = ints(&[1, 2, 3, 4, 5]);
        let got = execute(&prog, &xs, ClockParams::free());
        assert_eq!(got.outputs, eval_program(&prog, &xs));
        assert_eq!(got.outputs[0], Value::Int(15));
        assert_eq!(got.outputs[3], Value::Int(4)); // untouched
    }

    #[test]
    fn optimized_programs_execute_identically() {
        // Every fusible program: original vs exhaustively optimized, on
        // the machine, all positions (rank0-only rules excluded here).
        let programs: Vec<Program> = vec![
            Program::new().scan(lib::mul()).allreduce(lib::add()),
            Program::new().scan(lib::add()).allreduce(lib::add()),
            Program::new().scan(lib::mul()).scan(lib::add()),
            Program::new().scan(lib::add()).scan(lib::add()),
            Program::new().bcast().scan(lib::add()),
            Program::new().bcast().scan(lib::mul()).scan(lib::add()),
            Program::new().bcast().scan(lib::add()).scan(lib::add()),
            Program::new().bcast().allreduce(lib::add()),
        ];
        for prog in programs {
            let opt = Rewriter::exhaustive()
                .allow_rank0_rules(false)
                .optimize(&prog);
            assert!(!opt.steps.is_empty(), "{prog} should be optimizable");
            for p in [2usize, 4, 6, 7] {
                let input: Vec<i64> = (0..p as i64).map(|i| (i % 3) + 1).collect();
                let xs = ints(&input);
                let a = execute(&prog, &xs, ClockParams::free());
                let b = execute(&opt.program, &xs, ClockParams::free());
                assert_eq!(a.outputs, b.outputs, "{prog} p={p}");
                assert_eq!(b.outputs, eval_program(&opt.program, &xs), "{prog} p={p}");
            }
        }
    }

    #[test]
    fn rank0_rules_execute_correctly_on_rank0() {
        let programs: Vec<Program> = vec![
            Program::new().bcast().reduce(lib::add()),
            Program::new().bcast().scan(lib::mul()).reduce(lib::add()),
            Program::new().bcast().scan(lib::add()).reduce(lib::add()),
            Program::new().scan(lib::mul()).reduce(lib::add()),
            Program::new().scan(lib::add()).reduce(lib::add()),
        ];
        for prog in programs {
            let opt = Rewriter::exhaustive().optimize(&prog);
            assert!(!opt.steps.is_empty(), "{prog}");
            for p in [1usize, 2, 5, 8] {
                let mut input = vec![9i64; p];
                input[0] = 2;
                let xs = ints(&input);
                let a = execute(&prog, &xs, ClockParams::free());
                let b = execute(&opt.program, &xs, ClockParams::free());
                assert_eq!(a.outputs[0], b.outputs[0], "{prog} p={p}");
            }
        }
    }

    #[test]
    fn fused_program_communicates_less() {
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let opt = Rewriter::exhaustive().optimize(&prog).program;
        let xs = ints(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let orig = execute(&prog, &xs, ClockParams::parsytec_like());
        let fused = execute(&opt, &xs, ClockParams::parsytec_like());
        assert!(fused.total_messages < orig.total_messages);
        assert!(
            fused.makespan < orig.makespan,
            "{} < {}",
            fused.makespan,
            orig.makespan
        );
    }

    #[test]
    fn simulated_makespan_matches_cost_model_for_power_of_two() {
        use collopt_cost::MachineParams;
        let p = 8usize;
        let (ts, tw) = (100.0, 2.0);
        let prog = Program::new().scan(lib::add()).reduce(lib::add());
        let xs: Vec<Value> = (0..p as i64).map(Value::Int).collect();
        let run = execute(&prog, &xs, ClockParams::new(ts, tw));
        let predicted = crate::rewrite::program_cost(&prog, &MachineParams::new(p, ts, tw), 1.0);
        assert_eq!(run.makespan, predicted);
    }

    #[test]
    fn blocks_execute_elementwise() {
        let prog = Program::new().scan(lib::add());
        let input: Vec<Value> = (0..6)
            .map(|i| Value::int_list([i as i64, 100 * i as i64]))
            .collect();
        let got = execute(&prog, &input, ClockParams::free());
        assert_eq!(got.outputs, eval_program(&prog, &input));
    }

    #[test]
    fn gather_family_matches_evaluator() {
        for p in [1usize, 2, 3, 6, 8, 11] {
            let input: Vec<Value> = (0..p as i64).map(|i| Value::Int(3 * i - 1)).collect();
            for prog in [
                Program::new().gather(),
                Program::new().allgather(),
                // `rev` only acts on the root's gathered list; the other
                // processors hold scalars at this point, which it keeps.
                Program::new()
                    .gather()
                    .map("rev", 1.0, |v| match v {
                        Value::List(l) => {
                            let mut l = l.to_vec();
                            l.reverse();
                            Value::list(l)
                        }
                        other => other.clone(),
                    })
                    .scatter(),
            ] {
                let expected = eval_program(&prog, &input);
                let got = execute(&prog, &input, ClockParams::free());
                assert_eq!(got.outputs, expected, "{prog} p={p}");
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip_on_machine() {
        let input: Vec<Value> = (0..7i64).map(Value::Int).collect();
        let prog = Program::new().gather().scatter();
        let got = execute(&prog, &input, ClockParams::parsytec_like());
        assert_eq!(got.outputs, input);
        // ... and the normalizer knows it is the identity.
        let opt = crate::rewrite::Rewriter::exhaustive().optimize(&prog);
        assert!(opt.program.is_empty());
    }

    #[test]
    fn profiled_trace_partitions_the_run_into_stages() {
        let prog = Program::new().bcast().scan(lib::mul()).reduce(lib::add());
        let xs = ints(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let clock = ClockParams::new(100.0, 2.0);
        let run = execute_traced_with(
            &prog,
            &xs,
            clock,
            ExecConfig {
                profile: true,
                ..ExecConfig::default()
            },
        );
        // Results unchanged by profiling, and the makespan matches the
        // plain run bit for bit (stage markers are zero-cost).
        let plain = execute(&prog, &xs, clock);
        assert_eq!(run.outcome.outputs, plain.outputs);
        assert_eq!(run.outcome.makespan, plain.makespan);

        let report = run.profile_report();
        assert_eq!(report.stages.len(), prog.len());
        assert_eq!(report.stages[0].label, "bcast");
        assert!(report.stages.windows(2).all(|w| w[0].finish <= w[1].finish));
        assert_eq!(report.stages.last().unwrap().finish, run.outcome.makespan);
        for r in &report.ranks {
            assert_eq!(r.compute + r.comm + r.idle, report.makespan);
        }

        // The critical-path oracle: trace-derived length == clock makespan.
        let path = run.critical_path().expect("trace is causally complete");
        assert_eq!(path.length(), run.outcome.makespan);
    }

    #[test]
    fn execute_profiled_agrees_with_the_stage_markers() {
        let prog = Program::new().scan(lib::add()).allreduce(lib::max());
        let xs = ints(&[5, 2, 8, 1, 7, 3]);
        let clock = ClockParams::parsytec_like();
        let (outcome, finish) = execute_profiled(&prog, &xs, clock);
        assert_eq!(finish.len(), prog.len());
        assert_eq!(*finish.last().unwrap(), outcome.makespan);
        assert!(finish.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(outcome.outputs, eval_program(&prog, &xs));
    }

    #[test]
    fn faulted_execution_with_empty_plan_is_bit_identical() {
        let prog = Program::new()
            .map("inc", 1.0, |v| Value::Int(v.as_int() + 1))
            .scan(lib::add())
            .allreduce(lib::max())
            .bcast();
        let xs = ints(&[3, 1, 4, 1, 5, 9]);
        let clock = ClockParams::parsytec_like();
        let plain = execute(&prog, &xs, clock);
        let faulted = execute_faulted(
            &prog,
            &xs,
            clock,
            ExecConfig::default(),
            &FaultPlan::new(12345),
        )
        .expect("an empty plan cannot fail");
        assert_eq!(plain.outputs, faulted.outputs);
        assert_eq!(plain.makespan.to_bits(), faulted.makespan.to_bits());
        assert_eq!(plain.total_compute, faulted.total_compute);
        assert_eq!(plain.total_messages, faulted.total_messages);
        assert_eq!(faulted.total_retries, 0);
        assert_eq!(faulted.total_retry_time, 0.0);
    }

    #[test]
    fn faulted_execution_survives_delays_and_drops_bit_identically() {
        let prog = Program::new().scan(lib::add()).reduce(lib::add()).bcast();
        let xs = ints(&[2, 7, 1, 8, 2, 8, 1, 8]);
        let clock = ClockParams::new(100.0, 2.0);
        let plain = execute(&prog, &xs, clock);
        let plan = FaultPlan::new(9)
            .with_straggler(3, 4.0)
            .with_slow_link(0, 1, 2.0, 25.0)
            .with_drops(0.3, 2);
        let faulted = execute_faulted(&prog, &xs, clock, ExecConfig::default(), &plan)
            .expect("bounded drops are recoverable");
        assert_eq!(
            plain.outputs, faulted.outputs,
            "results must survive faults"
        );
        assert!(faulted.makespan >= plain.makespan);
    }

    #[test]
    fn faulted_execution_surfaces_a_crash_as_rank_failed() {
        let prog = Program::new().scan(lib::add()).allreduce(lib::add());
        let xs = ints(&[1, 2, 3, 4, 5, 6]);
        let clock = ClockParams::parsytec_like();
        let err = execute_faulted(
            &prog,
            &xs,
            clock,
            ExecConfig::default(),
            &FaultPlan::new(0).with_crash(4, 1),
        )
        .expect_err("a crashed rank fails the run");
        assert_eq!(err, MachineError::RankFailed { rank: 4 });
    }

    #[test]
    fn faulted_traced_run_records_retries() {
        let prog = Program::new().bcast();
        let xs = ints(&[7, 0, 0, 0]);
        let clock = ClockParams::new(10.0, 1.0);
        // Binomial bcast from rank 0 over p=4 sends on both lanes 0 -> 1
        // and 0 -> 2 (whatever the tree order); drop each lane's first
        // message once.
        let plan = FaultPlan::new(0)
            .with_drop_exact(0, 1, 0, 1)
            .with_drop_exact(0, 2, 0, 1)
            .with_retry(4, 50.0);
        let run = execute_faulted_traced(&prog, &xs, clock, ExecConfig::default(), &plan)
            .expect("one drop with four attempts is recoverable");
        assert_eq!(run.outcome.total_retries, 2);
        assert!(run.outcome.total_retry_time > 0.0);
        let retries = run
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, collopt_machine::EventKind::Retry { .. }))
            .count();
        assert_eq!(retries, 2);
        let plain = execute(&prog, &xs, clock);
        assert_eq!(plain.outputs, run.outcome.outputs);
    }

    #[test]
    fn makespan_scales_with_block_size() {
        let prog = Program::new().scan(lib::add());
        let small: Vec<Value> = (0..8).map(|_| Value::int_list(vec![1i64; 4])).collect();
        let large: Vec<Value> = (0..8).map(|_| Value::int_list(vec![1i64; 64])).collect();
        let a = execute(&prog, &small, ClockParams::parsytec_like());
        let b = execute(&prog, &large, ClockParams::parsytec_like());
        assert!(b.makespan > a.makespan);
    }
}
