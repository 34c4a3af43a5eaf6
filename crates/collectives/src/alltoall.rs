//! All-to-all personalized exchange and reduce-scatter.
//!
//! Rounding out the MPI collective family on the simulated machine:
//!
//! * [`alltoall_async`] — every rank holds one block *per destination*;
//!   after the exchange every rank holds one block *per source*, in source
//!   order. Implemented with the linear-shift schedule (`p − 1` rounds of
//!   simultaneous pairwise exchanges, round `r` pairing rank `i` with
//!   `i XOR`-free partners `(i + r) mod p` / `(i − r) mod p`), which works
//!   for any `p` and keeps every link busy.
//! * [`reduce_scatter_binomial_async`] — block-wise reduction with
//!   scattered results: rank `i` ends with
//!   `block_i(x₀) ⊕ … ⊕ block_i(x_{p−1})`. Implemented as a binomial
//!   reduction of the full block vector followed by a binomial scatter;
//!   the classic recursive-halving algorithm is equivalent in cost for
//!   power-of-two `p` but unsound for non-commutative operators on other
//!   sizes, so the simple composition is the default.

use collopt_machine::Ctx;

use crate::gather::scatter_binomial_async;
use crate::op::Combine;
use crate::reduce::reduce_binomial_async;

/// All-to-all: `blocks[d]` is this rank's block destined for rank `d`;
/// returns the received blocks indexed by source rank. `words` is the
/// size of one block.
pub async fn alltoall_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    blocks: Vec<T>,
    words: u64,
) -> Vec<T> {
    let p = ctx.size();
    assert_eq!(blocks.len(), p, "need exactly one block per destination");
    let rank = ctx.rank();
    let mut out: Vec<Option<T>> = vec![None; p];
    out[rank] = Some(blocks[rank].clone());
    for round in 1..p {
        let dst = (rank + round) % p;
        let src = (rank + p - round) % p;
        let payload = blocks[dst].clone();
        if dst == src {
            // p = 2k and round = k: a true pairwise exchange.
            let got: T = ctx.exchange_async(dst, payload, words).await;
            out[src] = Some(got);
        } else {
            ctx.send(dst, payload, words);
            let got: T = ctx.recv_async(src).await;
            out[src] = Some(got);
        }
    }
    out.into_iter()
        .map(|o| o.expect("every source delivers exactly once"))
        .collect()
}

/// Reduce-scatter: `blocks[i]` is this rank's contribution to rank `i`'s
/// result; rank `i` returns the rank-order reduction of all `blocks[i]`.
/// `words` is the size of one block.
pub async fn reduce_scatter_binomial_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    blocks: Vec<T>,
    words: u64,
    op: &Combine<'_, T>,
) -> T {
    let p = ctx.size();
    assert_eq!(blocks.len(), p, "need exactly one block per destination");
    // Reduce the whole vector elementwise to rank 0 …
    let total_words = words * p as u64;
    let vec_op = |a: &Vec<T>, b: &Vec<T>| -> Vec<T> {
        a.iter().zip(b).map(|(x, y)| op.apply(x, y)).collect()
    };
    let combine = Combine::with_cost(&vec_op, op.ops_per_word);
    let reduced = reduce_binomial_async(ctx, 0, blocks, total_words, &combine).await;
    // … then scatter one block to each rank.
    scatter_binomial_async(ctx, reduced, words).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_machine::{drive, ClockParams, Machine};

    #[test]
    fn alltoall_transposes_the_block_matrix() {
        for p in 1..=12usize {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                // Block for destination d: (my_rank, d).
                let blocks: Vec<(usize, usize)> =
                    (0..ctx.size()).map(|d| (ctx.rank(), d)).collect();
                drive(alltoall_async(ctx, blocks, 2))
            });
            for (rank, received) in run.results.iter().enumerate() {
                let expected: Vec<(usize, usize)> = (0..p).map(|src| (src, rank)).collect();
                assert_eq!(received, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn alltoall_twice_restores_the_transpose() {
        let p = 7;
        let m = Machine::new(p, ClockParams::free());
        let run = m.run(|ctx| {
            let blocks: Vec<usize> = (0..ctx.size()).map(|d| ctx.rank() * 100 + d).collect();
            let once = drive(alltoall_async(ctx, blocks.clone(), 1));
            let twice = drive(alltoall_async(ctx, once, 1));
            (blocks, twice)
        });
        for (blocks, twice) in run.results {
            // alltoall is the transpose of the (rank, dest) matrix;
            // applying it twice restores each rank's original row — with
            // indices swapped back.
            let original: Vec<usize> = blocks;
            let roundtrip: Vec<usize> = twice;
            assert_eq!(original, roundtrip);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_column_sum() {
        for p in 1..=10usize {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let add = |a: &i64, b: &i64| a + b;
                // Contribution of rank r to destination d: r * 10 + d.
                let blocks: Vec<i64> = (0..ctx.size())
                    .map(|d| (ctx.rank() * 10 + d) as i64)
                    .collect();
                drive(reduce_scatter_binomial_async(
                    ctx,
                    blocks,
                    1,
                    &Combine::new(&add),
                ))
            });
            for (rank, &got) in run.results.iter().enumerate() {
                let expected: i64 = (0..p).map(|r| (r * 10 + rank) as i64).sum();
                assert_eq!(got, expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn reduce_scatter_preserves_rank_order() {
        let p = 6;
        let m = Machine::new(p, ClockParams::free());
        let run = m.run(|ctx| {
            let cat = |a: &String, b: &String| format!("{a}{b}");
            let blocks: Vec<String> = (0..ctx.size()).map(|_| ctx.rank().to_string()).collect();
            drive(reduce_scatter_binomial_async(
                ctx,
                blocks,
                1,
                &Combine::new(&cat),
            ))
        });
        for got in run.results {
            assert_eq!(got, "012345");
        }
    }

    #[test]
    fn alltoall_costs_scale_with_p() {
        let params = ClockParams::new(50.0, 1.0);
        let mk = |p: usize| {
            let m = Machine::new(p, params);
            m.run(|ctx| {
                let blocks: Vec<u64> = vec![0; ctx.size()];
                drive(alltoall_async(ctx, blocks, 8))
            })
            .makespan
        };
        // p-1 rounds: cost grows roughly linearly with p, unlike the
        // log-p collectives.
        let t4 = mk(4);
        let t8 = mk(8);
        assert!(t8 > 1.5 * t4, "alltoall is linear in p: {t4} -> {t8}");
    }
}
