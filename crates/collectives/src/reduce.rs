//! Reduction (eqs. 5–6): combine the blocks of all ranks with an
//! associative operator.
//!
//! * [`reduce_binomial_async`] — reduce to a root along the binomial tree;
//!   makespan `log p · (ts + m·(tw + c))` for an operator charging `c`
//!   ops/word (eq. 16 with `c = 1`).
//! * [`allreduce_butterfly_async`] — every rank gets the result; the butterfly
//!   exchange the paper's cost model assumes, `log p` phases. Requires `p`
//!   to be a power of two (each phase pairs every rank).
//! * [`allreduce_async`] — allreduce for any `p` and any associative operator:
//!   the butterfly when `p` is a power of two, otherwise a binomial reduce
//!   followed by a binomial broadcast (the standard fold-excess trick would
//!   reorder operands, which is unsound for non-commutative operators).

use collopt_machine::topology::{butterfly_rounds, ceil_log2};
use collopt_machine::Ctx;

use crate::bcast::bcast_binomial_async;
use crate::op::Combine;

/// Binomial-tree reduction of each rank's `value` to rank `root`.
///
/// Returns `Some(result)` on the root and `None` elsewhere. Operands are
/// combined in rank order **relative to the root** (virtual rank
/// `(rank - root) mod p`); with `root = 0` — the paper's convention that
/// the root is the first processor of the group — this is exactly
/// `x1 ⊕ x2 ⊕ … ⊕ xn`, so any associative operator is safe.
pub async fn reduce_binomial_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    root: usize,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> Option<T> {
    let p = ctx.size();
    assert!(root < p, "root {root} out of range");
    let v = (ctx.rank() + p - root) % p; // virtual rank
    let mut acc = value;
    for round in 0..ceil_log2(p) {
        let bit = 1usize << round;
        if v & bit != 0 {
            // Send the accumulated value of [v, v + bit) to the left
            // neighbour block and drop out.
            let dst = ((v - bit) + root) % p;
            ctx.send(dst, acc, words);
            return None;
        }
        let src_v = v + bit;
        if src_v < p {
            let got: T = ctx.recv_async((src_v + root) % p).await;
            // `acc` covers lower virtual ranks: it is the left operand.
            acc = op.apply(&acc, &got);
            ctx.charge(words as f64 * op.ops_per_word, "reduce:combine");
        }
    }
    Some(acc)
}

/// Butterfly allreduce: `log p` exchange phases; in phase `j` rank `r`
/// exchanges partial results with `r XOR 2^j` and both combine in rank
/// order. Requires `p` to be a power of two.
pub async fn allreduce_butterfly_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> T {
    let p = ctx.size();
    assert!(
        p.is_power_of_two(),
        "butterfly allreduce needs a power-of-two rank count, got {p}"
    );
    let mut acc = value;
    for round in 0..butterfly_rounds(p) {
        let partner = ctx.rank() ^ (1usize << round);
        let got: T = ctx.exchange_async(partner, acc.clone(), words).await;
        // Combine in rank order so non-commutative associative operators
        // still see x1 ⊕ … ⊕ xn.
        acc = if partner > ctx.rank() {
            op.apply(&acc, &got)
        } else {
            op.apply(&got, &acc)
        };
        ctx.charge(words as f64 * op.ops_per_word, "allreduce:combine");
    }
    acc
}

/// Allreduce for any `p`: the butterfly when `p` is a power of two,
/// otherwise binomial reduce to rank 0 followed by a binomial broadcast.
pub async fn allreduce_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> T {
    if ctx.size().is_power_of_two() {
        allreduce_butterfly_async(ctx, value, words, op).await
    } else {
        let reduced = reduce_binomial_async(ctx, 0, value, words, op).await;
        bcast_binomial_async(ctx, 0, reduced, words).await
    }
}

/// Allreduce for any `p` and a **commutative** operator, via the standard
/// fold-excess trick: the `r = p − 2^k` excess ranks pre-combine into the
/// leading power-of-two block, the block runs the butterfly, and the
/// results are sent back — `log p + 2` phases instead of the `2·log p` of
/// reduce-plus-broadcast. The pre-combine pairs rank `2^k + i` with rank
/// `i`, which permutes operands — hence the commutativity requirement,
/// asserted here against the operator-free contract by the caller.
pub async fn allreduce_commutative_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> T {
    let p = ctx.size();
    if p.is_power_of_two() {
        return allreduce_butterfly_async(ctx, value, words, op).await;
    }
    let k = 1usize << collopt_machine::topology::floor_log2(p);
    let rank = ctx.rank();
    if rank >= k {
        // Excess rank: hand the value down, wait for the result.
        ctx.send(rank - k, value, words);
        return ctx.recv_async(rank - k).await;
    }
    let mut acc = value;
    if rank + k < p {
        let got: T = ctx.recv_async(rank + k).await;
        acc = op.apply(&acc, &got);
        ctx.charge(words as f64 * op.ops_per_word, "allreduce_comm:fold");
    }
    // Butterfly among the leading 2^k ranks, in their own sub-world.
    for round in 0..collopt_machine::topology::butterfly_rounds(k) {
        let partner = rank ^ (1usize << round);
        let got: T = ctx.exchange_async(partner, acc.clone(), words).await;
        acc = if partner > rank {
            op.apply(&acc, &got)
        } else {
            op.apply(&got, &acc)
        };
        ctx.charge(words as f64 * op.ops_per_word, "allreduce_comm:combine");
    }
    if rank + k < p {
        ctx.send(rank + k, acc.clone(), words);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ref_allreduce, ref_reduce_value};
    use collopt_machine::topology::ceil_log2;
    use collopt_machine::{drive, ClockParams, Machine};

    #[test]
    fn reduce_sums_to_root_zero() {
        for p in [1, 2, 3, 5, 6, 8, 11, 16, 27] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let add = |a: &u64, b: &u64| a + b;
                drive(reduce_binomial_async(
                    ctx,
                    0,
                    ctx.rank() as u64 + 1,
                    1,
                    &Combine::new(&add),
                ))
            });
            let expected: u64 = (1..=p as u64).sum();
            assert_eq!(run.results[0], Some(expected), "p={p}");
            assert!(run.results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn reduce_preserves_operand_order_for_nonabelian_op() {
        // String concatenation is associative but not commutative: the
        // result must be "abcdef..." in rank order.
        for p in [2, 3, 6, 7, 12] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let cat = |a: &String, b: &String| format!("{a}{b}");
                let mine = char::from(b'a' + ctx.rank() as u8).to_string();
                drive(reduce_binomial_async(ctx, 0, mine, 1, &Combine::new(&cat)))
            });
            let expected: String = (0..p).map(|i| char::from(b'a' + i as u8)).collect();
            assert_eq!(run.results[0], Some(expected), "p={p}");
        }
    }

    #[test]
    fn reduce_to_nonzero_root_rotates_order() {
        let m = Machine::new(4, ClockParams::free());
        let run = m.run(|ctx| {
            let cat = |a: &String, b: &String| format!("{a}{b}");
            drive(reduce_binomial_async(
                ctx,
                2,
                ctx.rank().to_string(),
                1,
                &Combine::new(&cat),
            ))
        });
        // Virtual order starting at root 2: ranks 2,3,0,1.
        assert_eq!(run.results[2], Some("2301".to_string()));
    }

    #[test]
    fn reduce_to_every_root_combines_in_virtual_rank_order() {
        // The binomial tree runs on virtual ranks (r − root) mod p, so a
        // non-commutative operator must see the cyclic order
        // root, root+1, …, root−1 — for every root and every p, power of
        // two or not.
        for p in 2..=9usize {
            for root in 0..p {
                let m = Machine::new(p, ClockParams::free());
                let run = m.run(move |ctx| {
                    let cat = |a: &String, b: &String| format!("{a}{b}");
                    let mine = char::from(b'a' + ctx.rank() as u8).to_string();
                    drive(reduce_binomial_async(
                        ctx,
                        root,
                        mine,
                        1,
                        &Combine::new(&cat),
                    ))
                });
                let expected: String = (0..p)
                    .map(|v| char::from(b'a' + ((root + v) % p) as u8))
                    .collect();
                for (rank, got) in run.results.iter().enumerate() {
                    if rank == root {
                        assert_eq!(got, &Some(expected.clone()), "p={p} root={root}");
                    } else {
                        assert_eq!(got, &None, "p={p} root={root} rank={rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_makespan_matches_eq16() {
        // T_reduce = log p · (ts + m·(tw + 1)), eq. (16).
        for (p, mw) in [(2usize, 4u64), (8, 16), (64, 1000)] {
            let params = ClockParams::new(100.0, 2.0);
            let m = Machine::new(p, params);
            let run = m.run(|ctx| {
                let add = |a: &Vec<u64>, b: &Vec<u64>| {
                    a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>()
                };
                let block = vec![ctx.rank() as u64; mw as usize];
                drive(reduce_binomial_async(
                    ctx,
                    0,
                    block,
                    mw,
                    &Combine::new(&add),
                ))
            });
            let expected = ceil_log2(p) as f64 * (params.ts + mw as f64 * (params.tw + 1.0));
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn butterfly_allreduce_agrees_with_reference() {
        for p in [1usize, 2, 4, 8, 16, 32] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let mul = |a: &u128, b: &u128| a * b;
                drive(allreduce_butterfly_async(
                    ctx,
                    ctx.rank() as u128 + 2,
                    1,
                    &Combine::new(&mul),
                ))
            });
            let input: Vec<u128> = (0..p as u128).map(|r| r + 2).collect();
            let expected = ref_allreduce(|a, b| a * b, &input);
            assert_eq!(run.results, expected, "p={p}");
        }
    }

    #[test]
    fn butterfly_allreduce_preserves_rank_order() {
        for p in [2usize, 4, 8, 16] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let cat = |a: &String, b: &String| format!("{a}{b}");
                drive(allreduce_butterfly_async(
                    ctx,
                    ctx.rank().to_string(),
                    1,
                    &Combine::new(&cat),
                ))
            });
            let expected: String = (0..p).map(|i| i.to_string()).collect();
            assert!(run.results.iter().all(|r| r == &expected), "p={p}");
        }
    }

    #[test]
    fn generic_allreduce_handles_any_size() {
        for p in 1..20 {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let cat = |a: &String, b: &String| format!("{a}{b}");
                drive(allreduce_async(
                    ctx,
                    ctx.rank().to_string(),
                    1,
                    &Combine::new(&cat),
                ))
            });
            let expected: String = (0..p).map(|i| i.to_string()).collect();
            assert!(run.results.iter().all(|r| r == &expected), "p={p}");
        }
    }

    #[test]
    fn commutative_allreduce_is_correct_for_any_size() {
        for p in 1..=20usize {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let add = |a: &i64, b: &i64| a + b;
                drive(allreduce_commutative_async(
                    ctx,
                    ctx.rank() as i64 + 1,
                    1,
                    &Combine::new(&add),
                ))
            });
            let expected: i64 = (1..=p as i64).sum();
            assert!(
                run.results.iter().all(|&v| v == expected),
                "p={p}: {:?}",
                run.results
            );
        }
    }

    #[test]
    fn commutative_allreduce_beats_reduce_plus_bcast_for_odd_sizes() {
        // The fold-excess variant saves nearly half the phases for
        // non-powers-of-two on latency-bound machines.
        let p = 13usize;
        let params = ClockParams::parsytec_like();
        let m = Machine::new(p, params);
        let add = |a: &i64, b: &i64| a + b;
        let generic = m.run(move |ctx| drive(allreduce_async(ctx, 1i64, 8, &Combine::new(&add))));
        let comm = m.run(move |ctx| {
            drive(allreduce_commutative_async(
                ctx,
                1i64,
                8,
                &Combine::new(&add),
            ))
        });
        assert_eq!(generic.results, comm.results);
        assert!(
            comm.makespan < generic.makespan,
            "fold-excess {} must beat reduce+bcast {}",
            comm.makespan,
            generic.makespan
        );
    }

    #[test]
    fn butterfly_allreduce_makespan_is_logp_phases() {
        let params = ClockParams::new(50.0, 1.0);
        let p = 16;
        let mw = 10u64;
        let m = Machine::new(p, params);
        let run = m.run(|ctx| {
            let add = |a: &Vec<u64>, b: &Vec<u64>| {
                a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>()
            };
            drive(allreduce_butterfly_async(
                ctx,
                vec![1u64; mw as usize],
                mw,
                &Combine::new(&add),
            ))
        });
        let expected = 4.0 * (50.0 + 10.0 * 1.0 + 10.0);
        assert_eq!(run.makespan, expected);
        // Every rank holds the same value and finished at the same time.
        assert!(run.finish_times.iter().all(|&t| t == expected));
    }

    #[test]
    fn reduce_with_random_inputs_matches_reference() {
        let mut rng = collopt_machine::Rng::new(7);
        for _ in 0..20 {
            let p = rng.range_usize(1, 24);
            let inputs: Vec<i64> = (0..p).map(|_| rng.range_i64(-100, 100)).collect();
            let expected = ref_reduce_value(|a, b| a + b, &inputs);
            let shared = std::sync::Arc::new(inputs);
            let m = Machine::new(p, ClockParams::free());
            let inputs2 = shared.clone();
            let run = m.run(move |ctx| {
                let add = |a: &i64, b: &i64| a + b;
                drive(reduce_binomial_async(
                    ctx,
                    0,
                    inputs2[ctx.rank()],
                    1,
                    &Combine::new(&add),
                ))
            });
            assert_eq!(run.results[0], Some(expected));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn butterfly_rejects_non_power_of_two() {
        let m = Machine::new(6, ClockParams::free());
        m.run(|ctx| {
            let add = |a: &i64, b: &i64| a + b;
            drive(allreduce_butterfly_async(ctx, 1i64, 1, &Combine::new(&add)))
        });
    }
}
