//! Cross-validation properties for the trace-analysis layer.
//!
//! The simulated clock computes a run's makespan *forwards* (each rank's
//! `SimClock` advances through charges and rendezvous); the critical-path
//! pass recomputes it *backwards* from the recorded trace alone. The two
//! implementations share no code, so exact agreement across every
//! collective variant and machine size is a strong check on both:
//!
//! * `critical_path(trace).length() == makespan` **exactly** (bitwise,
//!   not within a tolerance) — the chain is rebuilt from recorded `f64`
//!   timestamps, never recomputed, so any disagreement is a real bug;
//! * the chain is gapless and starts at simulated time zero;
//! * per rank, idle is exactly the busy complement
//!   `makespan − compute − comm` (so busy + idle sums back to the
//!   makespan), and it agrees with the gap-based idle (waiting between
//!   events plus the tail after the rank's last action) within float
//!   tolerance.

use std::future::Future;
use std::pin::Pin;

use collopt::collectives::{
    allgather_binomial_async, allgather_doubling_async, allgather_ring_async, allreduce_async,
    allreduce_auto_async, allreduce_balanced_async, allreduce_balanced_halving_async,
    allreduce_commutative_async, allreduce_rabenseifner_async, allreduce_ring_async,
    alltoall_async, barrier_dissemination_async, bcast_auto_async, bcast_binomial_async,
    bcast_linear_async, bcast_pipelined_async, bcast_scatter_allgather_async,
    comcast_bcast_repeat_async, comcast_cost_optimal_async, exscan_async, gather_binomial_async,
    reduce_auto_async, reduce_balanced_async, reduce_binomial_async, reduce_scatter_binomial_async,
    reduce_scatter_halving_async, reduce_scatter_ring_async, scan_balanced_async,
    scan_butterfly_async, scan_sklansky_async, scatter_binomial_async, BalancedOp, Combine,
    PairedOp, RepeatOp,
};
use collopt::machine::{
    critical_path, ClockParams, Ctx, EventKind, Machine, ProfileReport, RunResult,
};

/// Run `f` on `p` traced ranks and check every invariant the trace layer
/// promises.
fn check<T, F>(label: &str, p: usize, clock: ClockParams, f: F)
where
    T: Send,
    F: for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = T> + 'a>>,
{
    let run = Machine::new(p, clock).with_tracing().run_des(f);
    assert_oracle(label, p, &run);
}

fn assert_oracle<T>(label: &str, p: usize, run: &RunResult<T>) {
    let tag = format!("{label} p={p}");
    let path = critical_path(&run.trace).unwrap_or_else(|e| panic!("{tag}: {e}"));

    // The headline oracle: trace-derived length equals the clock's
    // makespan to machine precision (they are the same f64).
    assert_eq!(
        path.length(),
        run.makespan,
        "{tag}: critical path != makespan"
    );

    // The chain covers [0, makespan] without gaps.
    if let Some(first) = path.steps.first() {
        assert_eq!(first.start, 0.0, "{tag}: chain must start at t=0");
    }
    for w in path.steps.windows(2) {
        assert_eq!(
            w[0].time, w[1].start,
            "{tag}: chain is not contiguous at t={}",
            w[0].time
        );
    }

    // Per-rank accounting: busy + idle telescopes to the makespan
    // exactly (idle is defined as the complement) …
    let report = ProfileReport::from_trace(&run.trace, p, run.makespan);
    assert_eq!(report.ranks.len(), p, "{tag}");
    for r in &report.ranks {
        // The complement identity is exact by construction …
        assert_eq!(
            r.idle,
            run.makespan - r.compute - r.comm,
            "{tag}: rank {} idle is not the busy complement",
            r.rank
        );
        // … so re-summing busy + idle recovers the makespan (bitwise for
        // dyadic costs; within one rounding step under jitter, where the
        // re-association of the float sum can differ).
        assert!(
            (r.compute + r.comm + r.idle - run.makespan).abs()
                <= 1e-12 * run.makespan.abs().max(1.0),
            "{tag}: rank {} busy+idle != makespan",
            r.rank
        );
        assert!(r.finish <= run.makespan, "{tag}: rank {} overruns", r.rank);
    }

    // … and agrees with idle measured the hard way, as the sum of gaps
    // between consecutive events plus the tail after the last one.
    let tol = 1e-9 * run.makespan.abs().max(1.0);
    for r in &report.ranks {
        let mut prev_end = 0.0;
        let mut gaps = 0.0;
        for e in run.trace.events() {
            if e.rank != r.rank || e.kind.is_annotation() {
                continue;
            }
            assert!(
                e.start >= prev_end - tol,
                "{tag}: rank {} events overlap at t={}",
                r.rank,
                e.start
            );
            gaps += e.start - prev_end;
            prev_end = e.time;
        }
        gaps += run.makespan - prev_end;
        assert!(
            (gaps - r.idle).abs() <= 1e-6 * run.makespan.abs().max(1.0),
            "{tag}: rank {} gap idle {} != complement idle {}",
            r.rank,
            gaps,
            r.idle
        );
    }

    // Every message exchange the machine counted shows up in the trace
    // (the trace additionally records the matching sends).
    let traced_messages: usize = run
        .trace
        .events()
        .iter()
        .filter(|e| e.kind.is_comm())
        .count();
    let clocked_messages: u64 = run.messages.iter().sum();
    assert!(
        traced_messages as u64 >= clocked_messages,
        "{tag}: trace lost messages ({traced_messages} < {clocked_messages})"
    );
}

fn iadd() -> impl Fn(&Vec<i64>, &Vec<i64>) -> Vec<i64> + Copy {
    |a, b| a.iter().zip(b).map(|(x, y)| x + y).collect()
}

fn block(rank: usize, m: usize) -> Vec<i64> {
    (0..m).map(|j| (rank * 31 + j) as i64 % 13 - 6).collect()
}

fn clock() -> ClockParams {
    ClockParams::new(100.0, 2.0)
}

const M: usize = 12;

#[test]
fn bcast_variants_satisfy_the_critical_path_oracle() {
    for p in 2..=9 {
        check("bcast_binomial", p, clock(), |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_binomial_async(ctx, 0, v, M as u64).await
            })
        });
        check("bcast_linear", p, clock(), |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_linear_async(ctx, 0, v, M as u64).await
            })
        });
        check("bcast_pipelined", p, clock(), |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_pipelined_async(ctx, 0, v, 1, 3).await
            })
        });
        check("bcast_scatter_allgather", p, clock(), |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_scatter_allgather_async(ctx, v, 1).await
            })
        });
        check("bcast_auto", p, clock(), |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_auto_async(ctx, v, 1).await
            })
        });
    }
}

#[test]
fn reduce_and_allreduce_variants_satisfy_the_oracle() {
    let add = iadd();
    for p in 2..=9 {
        check("reduce_binomial", p, clock(), |ctx| {
            Box::pin(async move {
                reduce_binomial_async(ctx, 0, block(ctx.rank(), M), M as u64, &Combine::new(&add))
                    .await
            })
        });
        check("reduce_auto", p, clock(), |ctx| {
            Box::pin(async move {
                reduce_auto_async(ctx, block(ctx.rank(), M), 1, &Combine::new(&add)).await
            })
        });
        check("allreduce_butterfly", p, clock(), |ctx| {
            Box::pin(async move {
                allreduce_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check("allreduce_commutative", p, clock(), |ctx| {
            Box::pin(async move {
                allreduce_commutative_async(
                    ctx,
                    block(ctx.rank(), M),
                    M as u64,
                    &Combine::new(&add).assume_commutative(),
                )
                .await
            })
        });
        check("allreduce_ring", p, clock(), |ctx| {
            Box::pin(async move {
                allreduce_ring_async(
                    ctx,
                    block(ctx.rank(), M),
                    1,
                    &Combine::new(&add).assume_commutative(),
                )
                .await
            })
        });
        check("allreduce_auto", p, clock(), |ctx| {
            Box::pin(async move {
                allreduce_auto_async(
                    ctx,
                    block(ctx.rank(), M),
                    1,
                    &Combine::new(&add).assume_commutative(),
                )
                .await
            })
        });
    }
    // The recursive-halving family is defined for power-of-two machines.
    for p in [2usize, 4, 8] {
        check("allreduce_rabenseifner", p, clock(), |ctx| {
            Box::pin(async move {
                allreduce_rabenseifner_async(ctx, block(ctx.rank(), M), 1, &Combine::new(&add))
                    .await
            })
        });
        check("reduce_scatter_halving", p, clock(), |ctx| {
            Box::pin(async move {
                reduce_scatter_halving_async(ctx, block(ctx.rank(), M), 1, &Combine::new(&add))
                    .await
            })
        });
        check("allgather_doubling", p, clock(), |ctx| {
            Box::pin(async move { allgather_doubling_async(ctx, block(ctx.rank(), 2), 1).await })
        });
    }
}

#[test]
fn scan_variants_satisfy_the_oracle() {
    let add = iadd();
    for p in 2..=9 {
        check("scan_butterfly", p, clock(), |ctx| {
            Box::pin(async move {
                scan_butterfly_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check("scan_sklansky", p, clock(), |ctx| {
            Box::pin(async move {
                scan_sklansky_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check("exscan", p, clock(), |ctx| {
            Box::pin(async move {
                exscan_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
    }
}

#[test]
fn balanced_tree_collectives_satisfy_the_oracle() {
    for p in 2..=9 {
        let combine = |a: &i64, b: &i64| a + b;
        let solo = |x: &i64| x * 2;
        check("reduce_balanced", p, clock(), |ctx| {
            Box::pin(async move {
                let op = BalancedOp {
                    combine: &combine,
                    solo: &solo,
                    ops_combine: 1.0,
                    ops_solo: 1.0,
                    words_factor: 1,
                };
                reduce_balanced_async(ctx, ctx.rank() as i64 + 1, 1, &op).await
            })
        });
        check("allreduce_balanced", p, clock(), |ctx| {
            Box::pin(async move {
                let op = BalancedOp {
                    combine: &combine,
                    solo: &solo,
                    ops_combine: 1.0,
                    ops_solo: 1.0,
                    words_factor: 1,
                };
                allreduce_balanced_async(ctx, ctx.rank() as i64 + 1, 1, &op).await
            })
        });
        check("scan_balanced", p, clock(), |ctx| {
            Box::pin(async move {
                let paired = |a: &i64, b: &i64| (a + b, a * b);
                let op = PairedOp {
                    combine: &paired,
                    solo: &solo,
                    ops_lower: 1.0,
                    ops_upper: 1.0,
                    ops_solo: 1.0,
                    words_factor: 1,
                };
                scan_balanced_async(ctx, ctx.rank() as i64 + 1, 1, &op).await
            })
        });
    }
    for p in [2usize, 4, 8] {
        let combine = |a: &Vec<i64>, b: &Vec<i64>| -> Vec<i64> {
            a.iter().zip(b).map(|(x, y)| x + y).collect()
        };
        let solo = |x: &Vec<i64>| x.iter().map(|v| v * 2).collect::<Vec<i64>>();
        check("allreduce_balanced_halving", p, clock(), |ctx| {
            Box::pin(async move {
                let op = BalancedOp {
                    combine: &combine,
                    solo: &solo,
                    ops_combine: 1.0,
                    ops_solo: 1.0,
                    words_factor: 1,
                };
                allreduce_balanced_halving_async(ctx, block(ctx.rank(), M), 1, &op).await
            })
        });
    }
}

#[test]
fn comcast_gather_and_alltoall_satisfy_the_oracle() {
    let add = iadd();
    type Pair = (i64, i64);
    let e = |s: &Pair| (s.0, 2 * s.1);
    let o = |s: &Pair| (s.0 + s.1, 2 * s.1);
    let inject = |b: &i64| (*b, *b);
    let project = |s: &Pair| s.0;
    for p in 2..=9 {
        check("comcast_bcast_repeat", p, clock(), |ctx| {
            Box::pin(async move {
                let op = RepeatOp {
                    e: &e,
                    o: &o,
                    ops_e: 1.0,
                    ops_o: 2.0,
                };
                let seed = (ctx.rank() == 0).then_some(1i64);
                comcast_bcast_repeat_async(ctx, 0, seed, 1, &inject, &project, &op).await
            })
        });
        check("comcast_cost_optimal", p, clock(), |ctx| {
            Box::pin(async move {
                let op = RepeatOp {
                    e: &e,
                    o: &o,
                    ops_e: 1.0,
                    ops_o: 2.0,
                };
                let seed = (ctx.rank() == 0).then_some(1i64);
                comcast_cost_optimal_async(ctx, 0, seed, 1, &inject, &project, &op, 2).await
            })
        });
        check("gather_binomial", p, clock(), |ctx| {
            Box::pin(async move { gather_binomial_async(ctx, block(ctx.rank(), 2), 2).await })
        });
        check("scatter_binomial", p, clock(), |ctx| {
            Box::pin(async move {
                let blocks =
                    (ctx.rank() == 0).then(|| (0..ctx.size()).map(|r| block(r, 2)).collect());
                scatter_binomial_async(ctx, blocks, 2).await
            })
        });
        check("allgather", p, clock(), |ctx| {
            Box::pin(async move { allgather_binomial_async(ctx, block(ctx.rank(), 2), 2).await })
        });
        check("allgather_ring", p, clock(), |ctx| {
            Box::pin(async move { allgather_ring_async(ctx, block(ctx.rank(), 2), 2).await })
        });
        check("alltoall", p, clock(), |ctx| {
            Box::pin(async move {
                let blocks: Vec<i64> = (0..ctx.size() as i64).collect();
                alltoall_async(ctx, blocks, 1).await
            })
        });
        check("reduce_scatter", p, clock(), |ctx| {
            Box::pin(async move {
                let blocks: Vec<Vec<i64>> = (0..ctx.size()).map(|r| block(r, 2)).collect();
                reduce_scatter_binomial_async(ctx, blocks, 2, &Combine::new(&add)).await
            })
        });
        check("reduce_scatter_ring", p, clock(), |ctx| {
            Box::pin(async move {
                reduce_scatter_ring_async(
                    ctx,
                    block(ctx.rank(), M),
                    1,
                    &Combine::new(&add).assume_commutative(),
                )
                .await
            })
        });
        check("barrier_ladder", p, clock(), |ctx| {
            Box::pin(async move {
                ctx.charge((ctx.rank() + 1) as f64 * 3.0, "skew");
                barrier_dissemination_async(ctx).await;
                ctx.charge(1.0, "tail");
                barrier_dissemination_async(ctx).await;
            })
        });
    }
}

#[test]
fn the_oracle_holds_under_jitter() {
    let add = iadd();
    for p in [3usize, 5, 8] {
        let jittery = ClockParams::new(100.0, 2.0).with_jitter(7, 0.5);
        check("allreduce under jitter", p, jittery, |ctx| {
            Box::pin(async move {
                allreduce_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check("scan under jitter", p, jittery, |ctx| {
            Box::pin(async move {
                scan_butterfly_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
    }
}

#[test]
fn table1_rule_programs_satisfy_the_oracle_before_and_after_rewriting() {
    use collopt::core::exec::{execute_traced_with, ExecConfig};
    use collopt::core::Rule;
    use collopt_bench::{block_input, rule_lhs, rule_rhs};

    let config = ExecConfig {
        profile: true,
        ..ExecConfig::default()
    };
    for rule in Rule::ALL {
        for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
            for p in [2usize, 5, 8] {
                let inputs = block_input(p, 6);
                let run = execute_traced_with(&prog, &inputs, clock(), config);
                let tag = format!("{rule} {side} p={p}");
                let path = run.critical_path().unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(path.length(), run.outcome.makespan, "{tag}");
                let report = run.profile_report();
                assert_eq!(report.stages.len(), prog.len(), "{tag}");
                assert!(
                    report.stages.windows(2).all(|w| w[0].finish <= w[1].finish),
                    "{tag}: stage finishes must be non-decreasing"
                );
                for r in &report.ranks {
                    assert_eq!(r.idle, run.outcome.makespan - r.compute - r.comm, "{tag}");
                }
            }
        }
    }
}

#[test]
fn stage_events_are_annotations_and_never_move_the_clock() {
    use collopt::core::exec::{execute, execute_traced_with, ExecConfig};
    use collopt::core::Rule;
    use collopt_bench::{block_input, rule_lhs};

    let prog = rule_lhs(Rule::Sr2Reduction);
    let inputs = block_input(8, 6);
    let plain = execute(&prog, &inputs, clock());
    let profiled = execute_traced_with(
        &prog,
        &inputs,
        clock(),
        ExecConfig {
            profile: true,
            ..ExecConfig::default()
        },
    );
    assert_eq!(plain.makespan, profiled.outcome.makespan);
    assert_eq!(plain.outputs, profiled.outcome.outputs);
    assert!(profiled
        .trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::Stage { .. })));
}
