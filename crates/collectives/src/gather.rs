//! Gather, scatter, allgather and barrier-style helpers.
//!
//! The paper's rules only manipulate broadcast, reduction and scan, but its
//! programming model (Section 1) names scatter among the collective
//! operations, and realistic programs built on this library need the full
//! family. All three use binomial trees with message sizes that double
//! (gather) or halve (scatter) along the tree, the standard
//! `log p` -round algorithms.

use collopt_machine::topology::ceil_log2;
use collopt_machine::Ctx;

use crate::bcast::bcast_binomial_async;

/// Gather every rank's block to rank 0, in rank order.
///
/// Along the binomial tree, the subtree of virtual rank `v` at round `j`
/// covers ranks `v..v+2^j`, so each merge concatenates contiguous,
/// rank-ordered segments. Returns `Some(blocks)` on rank 0 (index `i` =
/// rank `i`'s block), `None` elsewhere. `words` is the size of one block.
pub async fn gather_binomial_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
) -> Option<Vec<T>> {
    let p = ctx.size();
    let rank = ctx.rank();
    let mut acc: Vec<T> = vec![value];
    for round in 0..ceil_log2(p) {
        let bit = 1usize << round;
        if rank & bit != 0 {
            let sz = acc.len() as u64;
            ctx.send(rank - bit, acc, words * sz);
            return None;
        }
        let src = rank + bit;
        if src < p {
            let got: Vec<T> = ctx.recv_async(src).await;
            acc.extend(got);
        }
    }
    debug_assert_eq!(acc.len(), p);
    Some(acc)
}

/// Scatter rank 0's vector of blocks (`blocks[i]` for rank `i`) across all
/// ranks. The inverse of [`gather_binomial_async`]: message sizes halve
/// along the tree. `words` is the size of one block.
pub async fn scatter_binomial_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    blocks: Option<Vec<T>>,
    words: u64,
) -> T {
    let p = ctx.size();
    let rank = ctx.rank();
    let rounds = ceil_log2(p);
    // Time reversal of the gather tree: rank r obtains the segment
    // [r, r + 2^tz(r)) ∩ [0, p) from r - 2^tz(r), then repeatedly splits
    // off and forwards the upper half of whatever it holds.
    let mut held: Vec<T>;
    let first_round;
    if rank == 0 {
        held = blocks.expect("rank 0 must supply the blocks to scatter");
        assert_eq!(held.len(), p, "need exactly one block per rank");
        first_round = 0;
    } else {
        assert!(blocks.is_none(), "non-root ranks must not supply blocks");
        let j = rank.trailing_zeros();
        held = ctx.recv_async(rank - (1usize << j)).await;
        first_round = rounds - j;
    }
    for round in first_round..rounds {
        let bit = 1usize << (rounds - 1 - round);
        if bit < held.len() {
            let upper: Vec<T> = held.split_off(bit);
            let sz = upper.len() as u64;
            ctx.send(rank + bit, upper, words * sz);
        }
    }
    held.into_iter().next().expect("own block remains")
}

/// Allgather: every rank ends with every rank's block, in rank order.
/// Implemented as a binomial gather followed by a binomial broadcast of the
/// assembled vector (`2 log p` rounds).
pub async fn allgather_binomial_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
) -> Vec<T> {
    let p = ctx.size() as u64;
    let gathered = gather_binomial_async(ctx, value, words).await;
    bcast_binomial_async(ctx, 0, gathered, words * p).await
}

/// MPI_Barrier over the whole machine: a dissemination barrier of empty
/// messages, `⌈log₂ p⌉` rounds. Unlike
/// [`Ctx::barrier_async`](collopt_machine::Ctx::barrier_async) (which also
/// aligns the simulated clocks to the global maximum), this one is a pure
/// message-passing construct whose cost is visible in the makespan, like a
/// real MPI barrier.
pub async fn barrier_dissemination_async(ctx: &mut Ctx) {
    let p = ctx.size();
    for round in 0..ceil_log2(p) {
        let dist = 1usize << round;
        let to = (ctx.rank() + dist) % p;
        let from = (ctx.rank() + p - dist) % p;
        if to == from {
            if to != ctx.rank() {
                ctx.exchange_async(to, (), 0).await;
            }
            continue;
        }
        ctx.send(to, (), 0);
        let () = ctx.recv_async(from).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_machine::{ClockParams, Machine};

    #[test]
    fn gather_assembles_in_rank_order() {
        for p in 1..=20usize {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run_des(|ctx| {
                Box::pin(async move { gather_binomial_async(ctx, ctx.rank() * 10, 1).await })
            });
            let expected: Vec<usize> = (0..p).map(|r| r * 10).collect();
            assert_eq!(run.results[0], Some(expected), "p={p}");
            assert!(run.results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn scatter_delivers_each_block_to_its_rank() {
        for p in 1..=20usize {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run_des(move |ctx| {
                Box::pin(async move {
                    let blocks =
                        (ctx.rank() == 0).then(|| (0..ctx.size()).map(|r| r * 7 + 1).collect());
                    scatter_binomial_async(ctx, blocks, 1).await
                })
            });
            let expected: Vec<usize> = (0..p).map(|r| r * 7 + 1).collect();
            assert_eq!(run.results, expected, "p={p}");
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        for p in [1usize, 3, 6, 8, 13] {
            let original: Vec<String> = (0..p).map(|r| format!("block{r}")).collect();
            let orig2 = std::sync::Arc::new(original.clone());
            let m = Machine::new(p, ClockParams::free());
            let run = m.run_des(move |ctx| {
                let orig2 = std::sync::Arc::clone(&orig2);
                Box::pin(async move {
                    let blocks = (ctx.rank() == 0).then(|| orig2.as_ref().clone());
                    let mine = scatter_binomial_async(ctx, blocks, 4).await;
                    gather_binomial_async(ctx, mine, 4).await
                })
            });
            assert_eq!(run.results[0], Some(original), "p={p}");
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        for p in [1usize, 2, 5, 8, 11] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run_des(|ctx| {
                Box::pin(async move { allgather_binomial_async(ctx, ctx.rank() as i64, 1).await })
            });
            let expected: Vec<i64> = (0..p as i64).collect();
            for (rank, r) in run.results.iter().enumerate() {
                assert_eq!(r, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn barrier_completes_and_costs_log_p_startups() {
        for p in [1usize, 2, 3, 6, 8, 13] {
            let params = ClockParams::new(50.0, 1.0);
            let m = Machine::new(p, params);
            let run = m.run_des(|ctx| {
                Box::pin(async move {
                    barrier_dissemination_async(ctx).await;
                    ctx.time()
                })
            });
            if p == 1 {
                assert_eq!(run.makespan, 0.0);
            } else {
                // At least log p rounds of start-ups; dissemination skew
                // can add a bounded factor on the store-and-forward model.
                let logp = collopt_machine::topology::ceil_log2(p) as f64;
                assert!(run.makespan >= logp * 50.0, "p={p}: {}", run.makespan);
                assert!(run.makespan <= 3.0 * logp * 50.0, "p={p}: {}", run.makespan);
            }
        }
    }

    #[test]
    fn barrier_actually_synchronizes() {
        // A rank that races ahead must wait for the slowest rank's round.
        let m = Machine::new(4, ClockParams::new(10.0, 0.0));
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 2 {
                    ctx.charge(500.0, "slow");
                }
                barrier_dissemination_async(ctx).await;
                ctx.time()
            })
        });
        for (rank, &t) in run.finish_times.iter().enumerate() {
            assert!(
                t >= 500.0,
                "rank {rank} left the barrier before the straggler: {t}"
            );
        }
    }

    #[test]
    fn gather_charges_no_compute() {
        let m = Machine::new(8, ClockParams::new(10.0, 1.0));
        let run = m.run_des(|ctx| {
            Box::pin(async move { gather_binomial_async(ctx, ctx.rank(), 2).await })
        });
        assert!(run.compute_ops.iter().all(|&c| c == 0.0));
        assert!(run.makespan > 0.0);
    }
}
