//! Scan / parallel prefix (eq. 7): rank `i` ends with `x1 ⊕ … ⊕ x(i+1)`.
//!
//! [`scan_butterfly_async`] is the hypercube algorithm the paper's cost model
//! assumes (Section 4.1, after Quinn): `⌈log₂ p⌉` exchange phases; each
//! rank maintains a running *result* (prefix up to itself) and a running
//! *aggregate* (combination of its whole current block). Per phase the
//! aggregate costs one operator application and — on ranks whose partner is
//! lower — the result costs a second one, giving the paper's
//! `T_scan = log p · (ts + m·(tw + 2))` (eq. 17) on the critical path.
//!
//! The algorithm is correct for **any** rank count, not only powers of two:
//! a rank whose partner would be `≥ p` simply skips the phase. Its block
//! aggregate is then incomplete, but an incomplete block is never consumed
//! — a lower partner's block always lies entirely below a live rank and is
//! therefore complete (the same observation that makes the paper's balanced
//! scan of Figure 5 work on six processors).

use collopt_machine::topology::{butterfly_partner, butterfly_rounds};
use collopt_machine::Ctx;

use crate::op::Combine;

/// Inclusive butterfly scan: returns `x1 ⊕ … ⊕ x(rank+1)` on each rank.
pub async fn scan_butterfly_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> T {
    let p = ctx.size();
    let mut result = value.clone();
    let mut aggregate = value;
    for round in 0..butterfly_rounds(p) {
        let Some(partner) = butterfly_partner(ctx.rank(), round, p) else {
            continue;
        };
        let got: T = ctx.exchange_async(partner, aggregate.clone(), words).await;
        if partner < ctx.rank() {
            // `got` is the aggregate of the complete lower half-block.
            result = op.apply(&got, &result);
            aggregate = op.apply(&got, &aggregate);
            ctx.charge(2.0 * words as f64 * op.ops_per_word, "scan:combine2");
        } else {
            aggregate = op.apply(&aggregate, &got);
            ctx.charge(words as f64 * op.ops_per_word, "scan:combine1");
        }
    }
    result
}

/// Exclusive scan: rank `i` gets `Some(x1 ⊕ … ⊕ x(i))`, rank 0 gets `None`
/// (no identity element is assumed). Implemented as an inclusive scan
/// followed by a single shift round (each rank forwards its inclusive
/// prefix to the next rank), i.e. one extra `ts + m·tw` phase.
pub async fn exscan_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> Option<T> {
    let inclusive = scan_butterfly_async(ctx, value, words, op).await;
    let rank = ctx.rank();
    let p = ctx.size();
    if rank + 1 < p {
        ctx.send(rank + 1, inclusive, words);
    }
    if rank > 0 {
        Some(ctx.recv_async(rank - 1).await)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ref_exscan, ref_scan};
    use collopt_machine::topology::ceil_log2;
    use collopt_machine::{ClockParams, Machine};
    use std::sync::Arc;

    fn run_scan_i64(inputs: Vec<i64>, op: fn(&i64, &i64) -> i64) -> Vec<i64> {
        let p = inputs.len();
        let shared = Arc::new(inputs);
        let m = Machine::new(p, ClockParams::free());
        let run = m.run_des(move |ctx| {
            let shared = Arc::clone(&shared);
            Box::pin(async move {
                let c = Combine::new(&op);
                scan_butterfly_async(ctx, shared[ctx.rank()], 1, &c).await
            })
        });
        run.results
    }

    #[test]
    fn scan_matches_reference_for_all_small_sizes() {
        for p in 1..=33 {
            let inputs: Vec<i64> = (0..p as i64).map(|i| i * i - 3).collect();
            let got = run_scan_i64(inputs.clone(), |a, b| a + b);
            assert_eq!(got, ref_scan(|a, b| a + b, &inputs), "p={p}");
        }
    }

    #[test]
    fn scan_paper_example_six_processors() {
        // Input of Figures 4/5.
        let got = run_scan_i64(vec![2, 5, 9, 1, 2, 6], |a, b| a + b);
        assert_eq!(got, vec![2, 7, 16, 17, 19, 25]);
    }

    #[test]
    fn scan_preserves_order_for_nonabelian_op() {
        for p in [2usize, 3, 5, 6, 8, 12, 17] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run_des(|ctx| {
                Box::pin(async move {
                    let cat = |a: &String, b: &String| format!("{a}{b}");
                    scan_butterfly_async(ctx, ctx.rank().to_string(), 1, &Combine::new(&cat)).await
                })
            });
            for (rank, r) in run.results.iter().enumerate() {
                let expected: String = (0..=rank).map(|i| i.to_string()).collect();
                assert_eq!(r, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn scan_with_max_operator() {
        let got = run_scan_i64(vec![3, 1, 4, 1, 5, 9, 2, 6], |a, b| *a.max(b));
        assert_eq!(got, vec![3, 3, 4, 4, 5, 9, 9, 9]);
    }

    #[test]
    fn scan_makespan_matches_eq17() {
        // T_scan = log p · (ts + m·(tw + 2)), eq. (17), power-of-two p.
        for (p, mw) in [(2usize, 4u64), (8, 16), (64, 500)] {
            let params = ClockParams::new(100.0, 2.0);
            let m = Machine::new(p, params);
            let run = m.run_des(|ctx| {
                Box::pin(async move {
                    let add = |a: &Vec<u64>, b: &Vec<u64>| {
                        a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>()
                    };
                    scan_butterfly_async(ctx, vec![1u64; mw as usize], mw, &Combine::new(&add))
                        .await
                })
            });
            let expected = ceil_log2(p) as f64 * (params.ts + mw as f64 * (params.tw + 2.0));
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn scan_on_blocks_is_elementwise_prefix() {
        let p = 6;
        let m = Machine::new(p, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                let add = |a: &Vec<i64>, b: &Vec<i64>| {
                    a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<i64>>()
                };
                let block = vec![ctx.rank() as i64, 10 * ctx.rank() as i64];
                scan_butterfly_async(ctx, block, 2, &Combine::new(&add)).await
            })
        });
        for rank in 0..p {
            let s: i64 = (0..=rank as i64).sum();
            assert_eq!(run.results[rank], vec![s, 10 * s]);
        }
    }

    #[test]
    fn exscan_matches_reference() {
        for p in 1..=17 {
            let inputs: Vec<i64> = (0..p as i64).map(|i| 2 * i + 1).collect();
            let shared = Arc::new(inputs.clone());
            let m = Machine::new(p, ClockParams::free());
            let run = m.run_des(move |ctx| {
                let shared = Arc::clone(&shared);
                Box::pin(async move {
                    let add = |a: &i64, b: &i64| a + b;
                    exscan_async(ctx, shared[ctx.rank()], 1, &Combine::new(&add)).await
                })
            });
            assert_eq!(run.results, ref_exscan(|a, b| a + b, &inputs), "p={p}");
        }
    }

    #[test]
    fn scan_random_inputs_property() {
        let mut rng = collopt_machine::Rng::new(99);
        for _ in 0..25 {
            let p = rng.range_usize(1, 30);
            let inputs: Vec<i64> = (0..p).map(|_| rng.range_i64(-1000, 1000)).collect();
            let got = run_scan_i64(inputs.clone(), |a, b| a + b);
            assert_eq!(got, ref_scan(|a, b| a + b, &inputs));
        }
    }
}
