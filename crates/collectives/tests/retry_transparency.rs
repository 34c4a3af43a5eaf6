//! Message loss must be invisible to the collectives' *values*.
//!
//! The ack/retry protocol lives entirely in `Ctx::send`/`exchange`: a
//! dropped transmission costs the sender time (transfer + ack timeout)
//! and is retransmitted, but the payload that eventually lands — and the
//! order packets enter each FIFO lane — is untouched. So every collective
//! algorithm, written with no knowledge of faults, must produce
//! bit-identical results under any recoverable drop plan. This test pins
//! that transparency for a representative of each communication pattern
//! (tree, butterfly, ring) under both probabilistic and surgical drops.

use std::future::Future;
use std::pin::Pin;

use collopt_collectives::{
    allgather_ring_async, allreduce_async, bcast_binomial_async, reduce_binomial_async,
    scan_butterfly_async, Combine,
};
use collopt_machine::{ClockParams, Ctx, FaultPlan, Machine};

/// Run `f` clean and under `plan`; results must match bit for bit.
/// Returns the number of retries the faulted run performed so callers
/// can assert the sweep as a whole actually exercised the retry path
/// (a single small run may draw no drops).
fn check_transparent<T, F>(label: &str, p: usize, plan: &FaultPlan, f: F) -> u64
where
    T: Send + PartialEq + std::fmt::Debug,
    F: for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = T> + 'a>>,
{
    let clock = ClockParams::new(100.0, 2.0);
    let clean = Machine::new(p, clock).run_des(&f);
    let faulted = Machine::new(p, clock).with_faults(plan.clone()).run_des(&f);
    let tag = format!("{label} p={p} plan={}", plan.describe());
    assert_eq!(clean.results, faulted.results, "{tag}: results drifted");
    assert!(
        faulted.makespan >= clean.makespan,
        "{tag}: retries sped the run up"
    );
    faulted.total_retries()
}

fn block(rank: usize, m: usize) -> Vec<i64> {
    (0..m).map(|j| (rank * 17 + j) as i64 % 11 - 5).collect()
}

const M: usize = 8;

#[test]
fn collectives_survive_probabilistic_drops_bit_identically() {
    let add =
        |a: &Vec<i64>, b: &Vec<i64>| -> Vec<i64> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
    // Aggressive but recoverable: up to 2 consecutive drops, 5 attempts.
    let mut retries = 0u64;
    for seed in [1u64, 23, 77] {
        let plan = FaultPlan::new(seed).with_drops(0.35, 2).with_retry(5, 80.0);
        for p in [2usize, 5, 8] {
            retries += check_transparent("bcast_binomial", p, &plan, |ctx| {
                Box::pin(async move {
                    let v = (ctx.rank() == 0).then(|| block(0, M));
                    bcast_binomial_async(ctx, 0, v, M as u64).await
                })
            });
            retries += check_transparent("reduce_binomial", p, &plan, |ctx| {
                Box::pin(async move {
                    reduce_binomial_async(
                        ctx,
                        0,
                        block(ctx.rank(), M),
                        M as u64,
                        &Combine::new(&add),
                    )
                    .await
                })
            });
            retries += check_transparent("allreduce_butterfly", p, &plan, |ctx| {
                Box::pin(async move {
                    allreduce_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
                })
            });
            retries += check_transparent("scan_butterfly", p, &plan, |ctx| {
                Box::pin(async move {
                    scan_butterfly_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add))
                        .await
                })
            });
            retries += check_transparent("allgather_ring", p, &plan, |ctx| {
                Box::pin(async move { allgather_ring_async(ctx, block(ctx.rank(), 2), 2).await })
            });
        }
    }
    assert!(retries > 0, "sweep never exercised the retry path");
}

#[test]
fn collectives_survive_surgical_drops_bit_identically() {
    let add =
        |a: &Vec<i64>, b: &Vec<i64>| -> Vec<i64> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
    // Kill specific early messages on specific lanes — the first tree
    // hop, a butterfly exchange leg, a ring step — twice in a row each.
    let plan = FaultPlan::new(5)
        .with_drop_exact(0, 1, 0, 2)
        .with_drop_exact(1, 0, 0, 2)
        .with_drop_exact(1, 2, 1, 1);
    for p in [3usize, 4, 6] {
        let r = check_transparent("bcast under surgical drops", p, &plan, |ctx| {
            Box::pin(async move {
                let v = (ctx.rank() == 0).then(|| block(0, M));
                bcast_binomial_async(ctx, 0, v, M as u64).await
            })
        });
        assert!(r >= 2, "p={p}: the first tree hop is always dropped twice");
        check_transparent("allreduce under surgical drops", p, &plan, |ctx| {
            Box::pin(async move {
                allreduce_async(ctx, block(ctx.rank(), M), M as u64, &Combine::new(&add)).await
            })
        });
        check_transparent("allgather_ring under surgical drops", p, &plan, |ctx| {
            Box::pin(async move { allgather_ring_async(ctx, block(ctx.rank(), 2), 2).await })
        });
    }
}
