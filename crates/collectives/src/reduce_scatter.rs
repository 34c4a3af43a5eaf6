//! The bandwidth-optimal reduction family: reduce-scatter, allgather and
//! the composed allreduce algorithms built from them.
//!
//! The butterfly allreduce ships the **full** `m`-word block in every one
//! of its `log p` rounds — `log p·(ts + m·(tw + c))`. The classic fix
//! (Rabenseifner; see Träff, arXiv:2410.14234, and Jocksch et al.,
//! arXiv:2006.13112) splits the block into `p` segments
//! ([`Splittable`]), reduces *segment-wise* so each round moves only the
//! half of the data still in flight, and reassembles with an allgather:
//!
//! * [`reduce_scatter_halving_async`] — recursive halving for power-of-two `p`:
//!   `log₂ p·ts + m(1−1/p)(tw + c)`. Rounds go **low bit first** (round
//!   `j` pairs rank `r` with `r XOR 2^j`), so every partial covers a
//!   contiguous, `2^j`-aligned rank group and combines join complete
//!   sibling groups in rank order — safe for any associative operator
//!   (and for the paper's balanced fused operators, whose correctness
//!   needs exactly that complete-sibling-group invariant). The classic
//!   high-bit-first halving does not have this property.
//! * [`allgather_doubling_async`] — recursive doubling, the inverse pattern:
//!   `log₂ p·ts + m(1−1/p)·tw`.
//! * [`reduce_scatter_ring_async`] — `p − 1` ring steps of `m/p`-word
//!   messages, any `p`: `(p−1)(2(ts + (m/p)tw) + (m/p)c)` on this
//!   machine's half-duplex store-and-forward nodes. Partials accumulate
//!   in *cyclic* rank order (a rotation of `0..p`), so the operator must
//!   be declared commutative ([`Combine::assume_commutative`]).
//! * [`allreduce_rabenseifner_async`] — reduce-scatter + allgather:
//!   `2 log₂ p·ts + m(1−1/p)(2tw + c)` for power-of-two `p`; the ring
//!   pair for other `p` when the operator commutes; the order-safe
//!   reduce + broadcast otherwise.
//! * [`allreduce_ring_async`] — ring reduce-scatter + ring allgather, the
//!   fully bandwidth-optimal choice when start-ups are cheap.
//! * [`allreduce_balanced_halving_async`] — the same halving/doubling pair for
//!   the fused [`BalancedOp`] operators (rule SR-Reduction's RHS), whose
//!   pair-tuples cost `words_factor` wire words per block word.
//!
//! All formulas are exact on the simulated machine when `p` divides the
//! block length; the tests assert them to machine precision.

use collopt_machine::topology::butterfly_rounds;
use collopt_machine::Ctx;

use crate::balanced::BalancedOp;
use crate::op::{Combine, Splittable};
use crate::reduce::allreduce_async;
use crate::variants::allgather_ring_async;

/// Shared implementation of low-bit-first recursive halving: after round
/// `j`, rank `r` holds, for every segment index `s` agreeing with `r` on
/// bits `0..=j`, the combination of that segment over `r`'s aligned
/// `2^(j+1)`-rank group. After `log₂ p` rounds only segment `rank`
/// remains, fully reduced. `combine(left, right)` is always called with
/// `left` covering the lower-ranked group.
async fn halving_core<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    wire_words_per_unit: u64,
    ops_per_word: f64,
    combine: &dyn Fn(&S, &S) -> S,
    label: &str,
) -> S {
    let p = ctx.size();
    assert!(
        p.is_power_of_two(),
        "recursive halving needs a power-of-two rank count, got {p}"
    );
    let rank = ctx.rank();
    let mut segs: Vec<Option<S>> = value.split_into(p).into_iter().map(Some).collect();
    for round in 0..butterfly_rounds(p) {
        let bit = 1usize << round;
        let partner = rank ^ bit;
        // Segments whose bit `round` disagrees with ours belong to the
        // partner's half; everything else stays and gets the partner's
        // matching partial.
        let mut outgoing: Vec<S> = Vec::new();
        let mut out_words = 0u64;
        for (s, slot) in segs.iter_mut().enumerate() {
            if (s ^ rank) & bit == 0 {
                continue;
            }
            if let Some(seg) = slot.take() {
                out_words += seg.unit_len() as u64 * wire_words_per_unit;
                outgoing.push(seg);
            }
        }
        let got: Vec<S> = ctx.exchange_async(partner, outgoing, out_words).await;
        // Both sides enumerate kept indices in increasing order, so the
        // received partials line up one-to-one with ours.
        let mut received = got.into_iter();
        let mut kept_units = 0usize;
        for slot in segs.iter_mut() {
            if let Some(mine) = slot.take() {
                let theirs = received
                    .next()
                    .expect("partner sends one partial per kept segment");
                kept_units += mine.unit_len();
                // Rank order: the lower-ranked group's partial is the
                // left operand (rank < partner ⟺ our group is lower).
                *slot = Some(if rank < partner {
                    combine(&mine, &theirs)
                } else {
                    combine(&theirs, &mine)
                });
            }
        }
        ctx.charge(
            kept_units as f64 * wire_words_per_unit as f64 * ops_per_word,
            label,
        );
    }
    segs[rank].take().expect("own segment survives every round")
}

/// Recursive-doubling allgather of per-rank segments back into the full
/// block. `wire_words_per_unit` sizes the cost charge of one segment
/// unit on the wire.
async fn doubling_core<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    segment: S,
    wire_words_per_unit: u64,
) -> S {
    let p = ctx.size();
    assert!(
        p.is_power_of_two(),
        "recursive doubling needs a power-of-two rank count, got {p}"
    );
    let rank = ctx.rank();
    let mut acc = segment;
    for round in 0..butterfly_rounds(p) {
        let bit = 1usize << round;
        let partner = rank ^ bit;
        let words = acc.unit_len() as u64 * wire_words_per_unit;
        let got: S = ctx.exchange_async(partner, acc.clone(), words).await;
        // Before round `j` both sides hold the contiguous segment run of
        // their aligned 2^j-rank group; the partner's run sits directly
        // below or above ours depending on bit `j`.
        acc = if partner < rank {
            S::concat(vec![got, acc])
        } else {
            S::concat(vec![acc, got])
        };
    }
    acc
}

/// Recursive-halving reduce-scatter (power-of-two `p`): rank `r` returns
/// segment `r` of the rank-order reduction of all blocks. Safe for any
/// associative operator — see the module docs for why low-bit-first
/// rounds preserve operand order. Makespan
/// `log₂ p·ts + m(1−1/p)(tw + c)` (exact when `p` divides the block
/// length).
pub async fn reduce_scatter_halving_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> S {
    halving_core(
        ctx,
        value,
        words_per_unit,
        op.ops_per_word,
        &|a, b| op.apply(a, b),
        "reduce_scatter:combine",
    )
    .await
}

/// Recursive-doubling allgather (power-of-two `p`): the inverse of
/// [`reduce_scatter_halving_async`] — every rank contributes its segment and
/// returns the full block, in rank order. Makespan
/// `log₂ p·ts + m(1−1/p)·tw`.
pub async fn allgather_doubling_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    segment: S,
    words_per_unit: u64,
) -> S {
    doubling_core(ctx, segment, words_per_unit).await
}

/// Ring reduce-scatter for any `p`: `p − 1` steps around the ring, each
/// moving one `≈ m/p`-word partial to the successor. Partials accumulate
/// in cyclic rank order — a rotation of `0..p` — so the operator must be
/// declared commutative. Makespan `(p−1)(2(ts + (m/p)tw) + (m/p)c)`.
pub async fn reduce_scatter_ring_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> S {
    let p = ctx.size();
    if p == 1 {
        return value;
    }
    assert!(
        op.commutative,
        "ring reduce-scatter combines operands in cyclic order; \
         the operator must be declared commutative"
    );
    let rank = ctx.rank();
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let mut segs: Vec<Option<S>> = value.split_into(p).into_iter().map(Some).collect();
    for step in 0..p - 1 {
        // Step k: pass on the partial for segment (rank − 1 − k) mod p,
        // receive and fold the one for segment (rank − 2 − k) mod p.
        let send_idx = (rank + p - 1 - step) % p;
        let recv_idx = (rank + p - 2 - step) % p;
        let outgoing = segs[send_idx]
            .take()
            .expect("each partial leaves exactly once");
        let words = outgoing.unit_len() as u64 * words_per_unit;
        let got: S = if p == 2 {
            // Two ranks: a single pairwise exchange.
            ctx.exchange_async(next, outgoing, words).await
        } else {
            ctx.send(next, outgoing, words);
            ctx.recv_async(prev).await
        };
        let mine = segs[recv_idx]
            .take()
            .expect("own contribution still unfolded");
        let units = mine.unit_len();
        segs[recv_idx] = Some(op.apply(&got, &mine));
        ctx.charge(
            units as f64 * words_per_unit as f64 * op.ops_per_word,
            "reduce_scatter_ring:combine",
        );
    }
    segs[rank].take().expect("own segment fully reduced")
}

/// Rabenseifner's allreduce: reduce-scatter, then allgather.
///
/// * power-of-two `p`: recursive halving + recursive doubling —
///   `2 log₂ p·ts + m(1−1/p)(2tw + c)`, any associative operator;
/// * other `p`, commutative operator: ring reduce-scatter + ring
///   allgather (see [`allreduce_ring_async`]);
/// * other `p`, non-commutative: the order-safe binomial
///   reduce + broadcast fallback of [`allreduce_async`].
pub async fn allreduce_rabenseifner_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> S {
    let p = ctx.size();
    if p == 1 {
        return value;
    }
    if p.is_power_of_two() {
        let seg = reduce_scatter_halving_async(ctx, value, words_per_unit, op).await;
        allgather_doubling_async(ctx, seg, words_per_unit).await
    } else if op.commutative {
        allreduce_ring_async(ctx, value, words_per_unit, op).await
    } else {
        let words = (value.unit_len() as u64 * words_per_unit).max(1);
        allreduce_async(ctx, value, words, op).await
    }
}

/// Bandwidth-optimal ring allreduce for any `p` and a commutative
/// operator: ring reduce-scatter followed by a ring allgather of the
/// reduced segments. Makespan
/// `(p−1)(2(ts + (m/p)tw) + (m/p)c) + 2(p−1)(ts + (m/p)tw)` — only
/// `≈ 2m·tw` total volume per link, at the price of `2(p−1)` start-ups.
pub async fn allreduce_ring_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> S {
    let p = ctx.size();
    if p == 1 {
        return value;
    }
    let seg = reduce_scatter_ring_async(ctx, value, words_per_unit, op).await;
    let words = seg.unit_len() as u64 * words_per_unit;
    S::concat(allgather_ring_async(ctx, seg, words).await)
}

/// The halving/doubling allreduce for the fused balanced operators (rule
/// SR-Reduction's RHS). Power-of-two `p` only: there the halving rounds
/// join exactly the complete `2^j`-aligned sibling groups the balanced
/// tree requires, so the non-associative `op_sr`-style operators stay
/// correct (the solo variant is never needed). Wire words are scaled by
/// the operator's `words_factor` (2 for `op_sr`'s pairs); makespan
/// `2 log₂ p·ts + m(1−1/p)(2·wf·tw + c)`.
pub async fn allreduce_balanced_halving_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &BalancedOp<'_, S>,
) -> S {
    let p = ctx.size();
    if p == 1 {
        return value;
    }
    let wire = words_per_unit * op.words_factor;
    let seg = halving_core(
        ctx,
        value,
        wire,
        // `ops_combine` is declared per block word, but `halving_core`
        // charges per *wire* word; undo the words_factor scaling.
        op.ops_combine / op.words_factor as f64,
        op.combine,
        "allreduce_balanced_halving:combine",
    )
    .await;
    doubling_core(ctx, seg, wire).await
}

#[cfg(test)]
// The operator helpers must match `dyn Fn(&Vec<T>, &Vec<T>) -> Vec<T>`,
// so `&[T]` parameters are not an option here.
#[allow(clippy::ptr_arg)]
mod tests {
    use super::*;
    use crate::reference::ref_allreduce;
    use collopt_machine::topology::ceil_log2;
    use collopt_machine::{drive, ClockParams, Machine};
    use std::sync::Arc;

    fn add_blocks(a: &Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    fn cat_blocks(a: &Vec<String>, b: &Vec<String>) -> Vec<String> {
        a.iter().zip(b).map(|(x, y)| format!("{x}{y}")).collect()
    }

    /// Rank r's test block: element e is r*1000 + e.
    fn block_of(rank: usize, n: usize) -> Vec<i64> {
        (0..n as i64).map(|e| rank as i64 * 1000 + e).collect()
    }

    /// Elementwise sum of all ranks' test blocks.
    fn summed(p: usize, n: usize) -> Vec<i64> {
        (0..n as i64)
            .map(|e| (0..p as i64).map(|r| r * 1000 + e).sum())
            .collect()
    }

    #[test]
    fn halving_gives_each_rank_its_reduced_segment() {
        for p in [1usize, 2, 4, 8, 16] {
            for n in [p, 3 * p, 37, 5] {
                let m = Machine::new(p, ClockParams::free());
                let run = m.run(move |ctx| {
                    let block = block_of(ctx.rank(), n);
                    drive(reduce_scatter_halving_async(
                        ctx,
                        block,
                        1,
                        &Combine::new(&add_blocks),
                    ))
                });
                let expected = summed(p, n).split_into(p);
                for (rank, got) in run.results.iter().enumerate() {
                    assert_eq!(got, &expected[rank], "p={p} n={n} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn halving_preserves_rank_order_for_nonabelian_op() {
        // Element e of rank r's block is the letter for r; after the
        // reduce-scatter each element must read "abc…" in rank order.
        for p in [2usize, 4, 8, 16] {
            let n = 11usize;
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(move |ctx| {
                let letter = char::from(b'a' + ctx.rank() as u8).to_string();
                let block: Vec<String> = vec![letter; n];
                drive(reduce_scatter_halving_async(
                    ctx,
                    block,
                    1,
                    &Combine::new(&cat_blocks),
                ))
            });
            let word: String = (0..p).map(|r| char::from(b'a' + r as u8)).collect();
            for (rank, got) in run.results.iter().enumerate() {
                assert!(got.iter().all(|s| s == &word), "p={p} rank={rank}: {got:?}");
            }
        }
    }

    #[test]
    fn doubling_reassembles_the_block_in_rank_order() {
        for p in [1usize, 2, 4, 8, 16] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| drive(allgather_doubling_async(ctx, vec![ctx.rank(); 3], 1)));
            let expected: Vec<usize> = (0..p).flat_map(|r| vec![r; 3]).collect();
            for (rank, got) in run.results.iter().enumerate() {
                assert_eq!(got, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn ring_reduce_scatter_matches_halving_for_commutative_ops() {
        for p in [1usize, 2, 3, 5, 6, 7, 9, 12] {
            for n in [2 * p, 23] {
                let m = Machine::new(p, ClockParams::free());
                let run = m.run(move |ctx| {
                    let block = block_of(ctx.rank(), n);
                    let op = Combine::new(&add_blocks).assume_commutative();
                    drive(reduce_scatter_ring_async(ctx, block, 1, &op))
                });
                let expected = summed(p, n).split_into(p);
                for (rank, got) in run.results.iter().enumerate() {
                    assert_eq!(got, &expected[rank], "p={p} n={n} rank={rank}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "commutative")]
    fn ring_reduce_scatter_rejects_undeclared_operators() {
        let m = Machine::new(4, ClockParams::free());
        m.run(|ctx| {
            let block = block_of(ctx.rank(), 8);
            drive(reduce_scatter_ring_async(
                ctx,
                block,
                1,
                &Combine::new(&add_blocks),
            ))
        });
    }

    #[test]
    fn rabenseifner_matches_reference_for_every_size() {
        for p in 1..=12usize {
            let n = 17usize;
            let machine = Machine::new(p, ClockParams::free());
            let run = machine.run(move |ctx| {
                let block = block_of(ctx.rank(), n);
                let op = Combine::new(&add_blocks).assume_commutative();
                drive(allreduce_rabenseifner_async(ctx, block, 1, &op))
            });
            let inputs: Vec<Vec<i64>> = (0..p).map(|r| block_of(r, n)).collect();
            let expected = ref_allreduce(add_blocks, &inputs);
            assert_eq!(run.results, expected, "p={p}");
        }
    }

    #[test]
    fn rabenseifner_preserves_rank_order_on_powers_of_two() {
        for p in [2usize, 4, 8, 16] {
            let n = 9usize;
            let machine = Machine::new(p, ClockParams::free());
            let run = machine.run(move |ctx| {
                let letter = char::from(b'a' + ctx.rank() as u8).to_string();
                drive(allreduce_rabenseifner_async(
                    ctx,
                    vec![letter; n],
                    1,
                    &Combine::new(&cat_blocks),
                ))
            });
            let word: String = (0..p).map(|r| char::from(b'a' + r as u8)).collect();
            for (rank, got) in run.results.iter().enumerate() {
                assert!(got.iter().all(|s| s == &word), "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn rabenseifner_falls_back_safely_for_nonabelian_odd_sizes() {
        // Non-power-of-two and non-commutative: the order-safe fallback
        // must still produce the rank-order result.
        for p in [3usize, 5, 6, 7, 9] {
            let machine = Machine::new(p, ClockParams::free());
            let run = machine.run(|ctx| {
                let letter = char::from(b'a' + ctx.rank() as u8).to_string();
                drive(allreduce_rabenseifner_async(
                    ctx,
                    vec![letter; 4],
                    1,
                    &Combine::new(&cat_blocks),
                ))
            });
            let word: String = (0..p).map(|r| char::from(b'a' + r as u8)).collect();
            for (rank, got) in run.results.iter().enumerate() {
                assert!(got.iter().all(|s| s == &word), "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn ring_allreduce_is_correct_for_any_size() {
        for p in 1..=11usize {
            let n = 3 * p.max(1);
            let machine = Machine::new(p, ClockParams::free());
            let run = machine.run(move |ctx| {
                let block = block_of(ctx.rank(), n);
                let op = Combine::new(&add_blocks).assume_commutative();
                drive(allreduce_ring_async(ctx, block, 1, &op))
            });
            let expected = summed(p, n);
            for (rank, got) in run.results.iter().enumerate() {
                assert_eq!(got, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn halving_makespan_matches_the_closed_form() {
        // log₂ p·ts + m(1−1/p)(tw + c), exact when p | m.
        let (ts, tw) = (100.0, 2.0);
        for (p, mw) in [(2usize, 64usize), (8, 64), (16, 1600)] {
            let machine = Machine::new(p, ClockParams::new(ts, tw));
            let run = machine.run(move |ctx| {
                let block = block_of(ctx.rank(), mw);
                drive(reduce_scatter_halving_async(
                    ctx,
                    block,
                    1,
                    &Combine::new(&add_blocks),
                ))
            });
            let frac = 1.0 - 1.0 / p as f64;
            let expected = ceil_log2(p) as f64 * ts + mw as f64 * frac * (tw + 1.0);
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn doubling_makespan_matches_the_closed_form() {
        // log₂ p·ts + m(1−1/p)·tw, exact when p | m.
        let (ts, tw) = (100.0, 2.0);
        for (p, mw) in [(4usize, 64usize), (16, 1600)] {
            let machine = Machine::new(p, ClockParams::new(ts, tw));
            let run = machine.run(move |ctx| {
                let seg = vec![ctx.rank() as i64; mw / ctx.size()];
                drive(allgather_doubling_async(ctx, seg, 1))
            });
            let frac = 1.0 - 1.0 / p as f64;
            let expected = ceil_log2(p) as f64 * ts + mw as f64 * frac * tw;
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn rabenseifner_makespan_matches_the_closed_form() {
        // 2 log₂ p·ts + m(1−1/p)(2tw + c), exact when p | m.
        let (ts, tw) = (100.0, 2.0);
        for (p, mw) in [(4usize, 64usize), (8, 640), (16, 1600)] {
            let machine = Machine::new(p, ClockParams::new(ts, tw));
            let run = machine.run(move |ctx| {
                let block = block_of(ctx.rank(), mw);
                drive(allreduce_rabenseifner_async(
                    ctx,
                    block,
                    1,
                    &Combine::new(&add_blocks),
                ))
            });
            let frac = 1.0 - 1.0 / p as f64;
            let expected = 2.0 * ceil_log2(p) as f64 * ts + mw as f64 * frac * (2.0 * tw + 1.0);
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn ring_allreduce_makespan_matches_the_closed_form() {
        // (p−1)(2(ts + (m/p)tw) + (m/p)c) + 2(p−1)(ts + (m/p)tw),
        // exact when p | m (and p > 2: the two-rank ring degenerates to
        // single exchanges).
        let (ts, tw) = (100.0, 2.0);
        for (p, mw) in [(4usize, 64usize), (5, 100), (8, 640)] {
            let machine = Machine::new(p, ClockParams::new(ts, tw));
            let run = machine.run(move |ctx| {
                let block = block_of(ctx.rank(), mw);
                let op = Combine::new(&add_blocks).assume_commutative();
                drive(allreduce_ring_async(ctx, block, 1, &op))
            });
            let seg = mw as f64 / p as f64;
            let steps = (p - 1) as f64;
            let expected = steps * (2.0 * (ts + seg * tw) + seg) + 2.0 * steps * (ts + seg * tw);
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn rabenseifner_beats_butterfly_for_large_blocks() {
        let (p, mw) = (16usize, 32_000usize);
        let clock = ClockParams::parsytec_like();
        let machine = Machine::new(p, clock);
        let butterfly = machine.run(move |ctx| {
            let block = block_of(ctx.rank(), mw);
            drive(crate::reduce::allreduce_butterfly_async(
                ctx,
                block,
                mw as u64,
                &Combine::new(&add_blocks),
            ))
        });
        let raben = machine.run(move |ctx| {
            let block = block_of(ctx.rank(), mw);
            drive(allreduce_rabenseifner_async(
                ctx,
                block,
                1,
                &Combine::new(&add_blocks),
            ))
        });
        assert_eq!(butterfly.results, raben.results);
        assert!(
            raben.makespan < butterfly.makespan,
            "rabenseifner {} must beat butterfly {} at m={mw}",
            raben.makespan,
            butterfly.makespan
        );
    }

    #[test]
    fn butterfly_beats_rabenseifner_for_tiny_blocks() {
        let (p, mw) = (16usize, 4usize);
        let clock = ClockParams::parsytec_like();
        let machine = Machine::new(p, clock);
        let butterfly = machine.run(move |ctx| {
            let block = block_of(ctx.rank(), mw);
            drive(crate::reduce::allreduce_butterfly_async(
                ctx,
                block,
                mw as u64,
                &Combine::new(&add_blocks),
            ))
        });
        let raben = machine.run(move |ctx| {
            let block = block_of(ctx.rank(), mw);
            drive(allreduce_rabenseifner_async(
                ctx,
                block,
                1,
                &Combine::new(&add_blocks),
            ))
        });
        assert!(butterfly.makespan < raben.makespan);
    }

    #[test]
    fn balanced_halving_matches_the_balanced_butterfly() {
        // The paper's op_sr (⊕ = +) applied elementwise to pair blocks:
        // the halving/doubling allreduce must agree with
        // allreduce_balanced on every rank, for every power of two.
        fn op_sr(a: &(i64, i64), b: &(i64, i64)) -> (i64, i64) {
            let uu = a.1 + b.1;
            (a.0 + b.0 + a.1, uu + uu)
        }
        fn combine(a: &Vec<(i64, i64)>, b: &Vec<(i64, i64)>) -> Vec<(i64, i64)> {
            a.iter().zip(b).map(|(x, y)| op_sr(x, y)).collect()
        }
        fn solo(x: &Vec<(i64, i64)>) -> Vec<(i64, i64)> {
            x.iter().map(|(t, u)| (*t, u + u)).collect()
        }
        let balanced_op = || BalancedOp {
            combine: &combine,
            solo: &solo,
            ops_combine: 4.0,
            ops_solo: 1.0,
            words_factor: 2,
        };
        for p in [2usize, 4, 8, 16] {
            let n = 6usize;
            let machine = Machine::new(p, ClockParams::free());
            let block = move |rank: usize| -> Vec<(i64, i64)> {
                (0..n as i64)
                    .map(|e| {
                        let x = rank as i64 + e;
                        (x, x)
                    })
                    .collect()
            };
            let butterfly = machine.run(move |ctx| {
                drive(crate::balanced::allreduce_balanced_async(
                    ctx,
                    block(ctx.rank()),
                    n as u64,
                    &balanced_op(),
                ))
            });
            let halving = machine.run(move |ctx| {
                drive(allreduce_balanced_halving_async(
                    ctx,
                    block(ctx.rank()),
                    1,
                    &balanced_op(),
                ))
            });
            assert_eq!(butterfly.results, halving.results, "p={p}");
        }
    }

    #[test]
    fn balanced_halving_makespan_matches_the_closed_form() {
        // 2 log₂ p·ts + m(1−1/p)(2·wf·tw + c) with wf = 2, c = 4.
        fn combine(a: &Vec<(i64, i64)>, b: &Vec<(i64, i64)>) -> Vec<(i64, i64)> {
            a.iter()
                .zip(b)
                .map(|(x, y)| {
                    let uu = x.1 + y.1;
                    (x.0 + y.0 + x.1, uu + uu)
                })
                .collect()
        }
        fn solo(x: &Vec<(i64, i64)>) -> Vec<(i64, i64)> {
            x.clone()
        }
        let (ts, tw) = (100.0, 2.0);
        let (p, mw) = (8usize, 64usize);
        let machine = Machine::new(p, ClockParams::new(ts, tw));
        let run = machine.run(move |ctx| {
            let block: Vec<(i64, i64)> = vec![(1, 1); mw];
            let op = BalancedOp {
                combine: &combine,
                solo: &solo,
                ops_combine: 4.0,
                ops_solo: 1.0,
                words_factor: 2,
            };
            drive(allreduce_balanced_halving_async(ctx, block, 1, &op))
        });
        let frac = 1.0 - 1.0 / p as f64;
        let expected = 2.0 * ceil_log2(p) as f64 * ts + mw as f64 * frac * (2.0 * 2.0 * tw + 4.0);
        assert_eq!(run.makespan, expected);
    }

    #[test]
    fn blocks_shorter_than_p_still_work() {
        // Empty segments travel as zero-word messages.
        for p in [4usize, 8] {
            let n = 3usize; // fewer elements than ranks
            let machine = Machine::new(p, ClockParams::free());
            let run = machine.run(move |ctx| {
                let block = block_of(ctx.rank(), n);
                drive(allreduce_rabenseifner_async(
                    ctx,
                    block,
                    1,
                    &Combine::new(&add_blocks),
                ))
            });
            let expected = summed(p, n);
            for got in &run.results {
                assert_eq!(got, &expected);
            }
        }
    }

    #[test]
    fn random_inputs_agree_with_the_reference() {
        let mut rng = collopt_machine::Rng::new(0x5CA7);
        for _ in 0..24 {
            let p = rng.range_usize(1, 13);
            let n = rng.range_usize(1, 40);
            let inputs: Vec<Vec<i64>> = (0..p)
                .map(|_| (0..n).map(|_| rng.range_i64(-50, 50)).collect())
                .collect();
            let shared = Arc::new(inputs.clone());
            let machine = Machine::new(p, ClockParams::free());
            let run = machine.run(move |ctx| {
                let op = Combine::new(&add_blocks).assume_commutative();
                drive(allreduce_rabenseifner_async(
                    ctx,
                    shared[ctx.rank()].clone(),
                    1,
                    &op,
                ))
            });
            let expected = ref_allreduce(add_blocks, &inputs);
            assert_eq!(run.results, expected, "p={p} n={n}");
        }
    }
}
