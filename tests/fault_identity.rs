//! The fault layer must be *observationally inert* when the plan is
//! empty.
//!
//! An identity [`FaultPlan`] (a seed but no stragglers, slow links,
//! drops or crashes) threads a live [`collopt::machine::FaultInjector`]
//! through every send/recv/exchange — every fault hook runs on every
//! event. This differential property test pins that scaffolding to zero
//! observable cost: for every collective variant in the library and
//! every machine size `p = 2..=9`, a run under the identity plan must be
//! **byte-identical** to a plain run — same results, bitwise-equal
//! makespan, event-for-event equal traces, and character-identical
//! Chrome trace exports. Any drift here (even a `x * 1.0` rounding step)
//! would silently invalidate every differential chaos oracle built on
//! top.

use std::future::Future;
use std::pin::Pin;

use collopt::collectives::{
    allgather_binomial_async, allgather_doubling_async, allgather_ring_async, allreduce_async,
    allreduce_auto_async, allreduce_balanced_async, allreduce_balanced_halving_async,
    allreduce_commutative_async, allreduce_rabenseifner_async, allreduce_ring_async,
    alltoall_async, barrier_dissemination_async, bcast_binomial_async, bcast_linear_async,
    bcast_pipelined_async, bcast_scatter_allgather_async, comcast_bcast_repeat_async,
    comcast_cost_optimal_async, exscan_async, gather_binomial_async, reduce_balanced_async,
    reduce_binomial_async, reduce_scatter_binomial_async, reduce_scatter_halving_async,
    reduce_scatter_ring_async, scan_balanced_async, scan_butterfly_async, scan_sklansky_async,
    scatter_binomial_async, BalancedOp, Combine, PairedOp, RepeatOp,
};
use collopt::machine::{chrome_trace_json, ClockParams, Ctx, FaultPlan, Machine};

/// Run `f` twice — plain, and under an identity fault plan — and require
/// the two runs to be indistinguishable byte for byte.
fn check_identity<T, F>(label: &str, p: usize, f: F)
where
    T: Send + PartialEq + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = T> + 'a>>,
{
    let clock = ClockParams::new(100.0, 2.0);
    let plain = Machine::new(p, clock).with_tracing().run_des(&f);
    let under = Machine::new(p, clock)
        .with_tracing()
        .with_faults(FaultPlan::new(0xC0FFEE))
        .run_des(&f);
    let tag = format!("{label} p={p}");

    assert_eq!(plain.results, under.results, "{tag}: results drifted");
    assert_eq!(
        plain.makespan.to_bits(),
        under.makespan.to_bits(),
        "{tag}: makespan not bitwise equal ({} vs {})",
        plain.makespan,
        under.makespan
    );
    assert_eq!(plain.compute_ops, under.compute_ops, "{tag}: compute ops");
    assert_eq!(plain.messages, under.messages, "{tag}: message counts");
    assert_eq!(under.total_retries(), 0, "{tag}: phantom retries");
    assert_eq!(under.total_retry_time(), 0.0, "{tag}: phantom retry time");
    assert_eq!(
        plain.trace.events(),
        under.trace.events(),
        "{tag}: traces differ"
    );
    assert_eq!(
        chrome_trace_json(&[(label, &plain.trace)]),
        chrome_trace_json(&[(label, &under.trace)]),
        "{tag}: chrome exports differ"
    );
}

fn iadd() -> impl Fn(&Vec<i64>, &Vec<i64>) -> Vec<i64> + Copy {
    |a, b| a.iter().zip(b).map(|(x, y)| x + y).collect()
}

fn block(rank: usize, m: usize) -> Vec<i64> {
    (0..m).map(|j| (rank * 31 + j) as i64 % 13 - 6).collect()
}

const M: usize = 12;

#[test]
fn bcast_variants_are_unaffected_by_the_identity_plan() {
    for p in 2..=9 {
        check_identity("bcast_binomial", p, |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_binomial_async(ctx, 0, v, M as u64).await
            })
        });
        check_identity("bcast_linear", p, |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_linear_async(ctx, 0, v, M as u64).await
            })
        });
        check_identity("bcast_pipelined", p, |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_pipelined_async(ctx, 0, v, 1, 3).await
            })
        });
        check_identity("bcast_scatter_allgather", p, |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_scatter_allgather_async(ctx, v, 1).await
            })
        });
    }
}

#[test]
fn reduce_and_allreduce_variants_are_unaffected_by_the_identity_plan() {
    let add = iadd();
    for p in 2..=9 {
        check_identity("reduce_binomial", p, |ctx| {
            Box::pin(async move {
                reduce_binomial_async(ctx, 0, block(ctx.rank(), M), M as u64, &Combine::new(&add))
                    .await
            })
        });
        check_identity("allreduce_butterfly", p, |ctx| {
            Box::pin(async move {
                allreduce_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check_identity("allreduce_commutative", p, |ctx| {
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
        check_identity("allreduce_ring", p, |ctx| {
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
        check_identity("allreduce_auto", p, |ctx| {
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
    for p in [2usize, 4, 8] {
        check_identity("allreduce_rabenseifner", p, |ctx| {
            Box::pin(async move {
                allreduce_rabenseifner_async(ctx, block(ctx.rank(), M), 1, &Combine::new(&add))
                    .await
            })
        });
        check_identity("reduce_scatter_halving", p, |ctx| {
            Box::pin(async move {
                reduce_scatter_halving_async(ctx, block(ctx.rank(), M), 1, &Combine::new(&add))
                    .await
            })
        });
        check_identity("allgather_doubling", p, |ctx| {
            Box::pin(async move { allgather_doubling_async(ctx, block(ctx.rank(), 2), 1).await })
        });
    }
}

#[test]
fn scan_variants_are_unaffected_by_the_identity_plan() {
    let add = iadd();
    for p in 2..=9 {
        check_identity("scan_butterfly", p, |ctx| {
            Box::pin(async move {
                scan_butterfly_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check_identity("scan_sklansky", p, |ctx| {
            Box::pin(async move {
                scan_sklansky_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check_identity("exscan", p, |ctx| {
            Box::pin(async move {
                exscan_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
    }
}

#[test]
fn balanced_tree_collectives_are_unaffected_by_the_identity_plan() {
    for p in 2..=9 {
        let combine = |a: &i64, b: &i64| a + b;
        let solo = |x: &i64| x * 2;
        check_identity("reduce_balanced", p, |ctx| {
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
        check_identity("allreduce_balanced", p, |ctx| {
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
        check_identity("scan_balanced", p, |ctx| {
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
        check_identity("allreduce_balanced_halving", p, |ctx| {
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
fn comcast_gather_and_alltoall_are_unaffected_by_the_identity_plan() {
    let add = iadd();
    type Pair = (i64, i64);
    let e = |s: &Pair| (s.0, 2 * s.1);
    let o = |s: &Pair| (s.0 + s.1, 2 * s.1);
    let inject = |b: &i64| (*b, *b);
    let project = |s: &Pair| s.0;
    for p in 2..=9 {
        check_identity("comcast_bcast_repeat", p, |ctx| {
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
        check_identity("comcast_cost_optimal", p, |ctx| {
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
        check_identity("gather_binomial", p, |ctx| {
            Box::pin(async move { gather_binomial_async(ctx, block(ctx.rank(), 2), 2).await })
        });
        check_identity("scatter_binomial", p, |ctx| {
            Box::pin(async move {
                let blocks =
                    (ctx.rank() == 0).then(|| (0..ctx.size()).map(|r| block(r, 2)).collect());
                scatter_binomial_async(ctx, blocks, 2).await
            })
        });
        check_identity("allgather", p, |ctx| {
            Box::pin(async move { allgather_binomial_async(ctx, block(ctx.rank(), 2), 2).await })
        });
        check_identity("allgather_ring", p, |ctx| {
            Box::pin(async move { allgather_ring_async(ctx, block(ctx.rank(), 2), 2).await })
        });
        check_identity("alltoall", p, |ctx| {
            Box::pin(async move {
                let blocks: Vec<i64> = (0..ctx.size() as i64).collect();
                alltoall_async(ctx, blocks, 1).await
            })
        });
        check_identity("reduce_scatter", p, |ctx| {
            Box::pin(async move {
                let blocks: Vec<Vec<i64>> = (0..ctx.size()).map(|r| block(r, 2)).collect();
                reduce_scatter_binomial_async(ctx, blocks, 2, &Combine::new(&add)).await
            })
        });
        check_identity("reduce_scatter_ring", p, |ctx| {
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
        check_identity("barrier_ladder", p, |ctx| {
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
fn rule_programs_are_unaffected_by_the_identity_plan_through_the_executor() {
    use collopt::core::exec::{execute_faulted_traced, execute_traced, ExecConfig};
    use collopt::core::Rule;
    use collopt_bench::{rule_lhs, rule_rhs, varied_input};

    for rule in Rule::ALL {
        for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
            for p in [2usize, 5, 8] {
                let tag = format!("{rule} {side} p={p}");
                let inputs = varied_input(p, 6, 7);
                let clock = ClockParams::new(100.0, 2.0);
                let plain = execute_traced(&prog, &inputs, clock);
                let under = execute_faulted_traced(
                    &prog,
                    &inputs,
                    clock,
                    ExecConfig::default(),
                    &FaultPlan::new(99),
                )
                .unwrap_or_else(|e| panic!("{tag}: identity plan failed the run: {e}"));
                assert_eq!(plain.outcome.outputs, under.outcome.outputs, "{tag}");
                assert_eq!(
                    plain.outcome.makespan.to_bits(),
                    under.outcome.makespan.to_bits(),
                    "{tag}"
                );
                assert_eq!(plain.trace.events(), under.trace.events(), "{tag}");
                assert_eq!(
                    chrome_trace_json(&[(&tag, &plain.trace)]),
                    chrome_trace_json(&[(&tag, &under.trace)]),
                    "{tag}"
                );
            }
        }
    }
}
