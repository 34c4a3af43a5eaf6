//! Pipelined (segmented) broadcast — the "pipelines" implementation
//! family of the paper's Section 1 ("Solutions based on spanning trees,
//! hypercubes, pipelines, as well as hybrid schemes have been reported").
//!
//! The binomial broadcast moves the whole `m`-word block `⌈log₂ p⌉` times
//! on the critical path: `T = log p · (ts + m·tw)`. For large blocks a
//! *chain pipeline* wins: split the block into `S` segments of `m/S`
//! words and stream them down the processor line.
//!
//! On this machine an intermediate node *stores and forwards*: it cannot
//! send a segment while receiving the next (its clock serializes the two
//! transfers), so the steady-state interval at an interior node is
//! `2·u` with `u = ts + (m/S)·tw`, and the makespan is
//!
//! ```text
//! T_chain = (p − 1 + 2(S − 1)) · u     for p ≥ 3
//! T_chain = S · u                      for p = 2 (no interior node)
//! ```
//!
//! minimized at `S* = √((p−3)·m·tw / (2·ts))` ([`optimal_segments`]).
//! The crossover against the binomial tree is exactly the kind of
//! machine-dependent implementation choice the paper's cost calculus is
//! built to arbitrate — here applied one level below the algebraic rules.

use collopt_machine::Ctx;

use crate::op::Splittable;

/// The optimal segment count `S* = √((p−3)·m·tw/(2·ts))` for the
/// store-and-forward chain pipeline, clamped to `[1, m]`. With `ts = 0`
/// the model wants infinitely fine segments; we clamp to one word per
/// segment. For `p = 2` a single segment is optimal (the root streams at
/// interval `u` regardless, so splitting only adds start-ups — but the
/// receiver's completion is `S·u`, minimized at `S = 1`).
pub fn optimal_segments(p: usize, words: u64, ts: f64, tw: f64) -> u64 {
    if p <= 3 || words <= 1 {
        return 1;
    }
    if ts <= 0.0 {
        return words;
    }
    let s = ((((p - 3) as f64) * words as f64 * tw) / (2.0 * ts))
        .sqrt()
        .round() as u64;
    s.clamp(1, words)
}

/// Chain-pipelined broadcast of a block of elements. The block is split
/// into `segments` nearly equal chunks; rank `r` receives each chunk from
/// `r − 1` and immediately forwards it to `r + 1` (the root is rank 0 in
/// the chain ordering `(rank − root) mod p`). `words_per_elem` sizes the
/// cost charge.
pub async fn bcast_pipelined_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    root: usize,
    value: Option<Vec<T>>,
    words_per_elem: u64,
    segments: u64,
) -> Vec<T> {
    let p = ctx.size();
    let v = (ctx.rank() + p - root) % p; // position in the chain
    let segments = segments.max(1) as usize;

    if v == 0 {
        let data = value.expect("root must supply the broadcast block");
        if p == 1 {
            return data;
        }
        let next = (ctx.rank() + 1) % p;
        // Exactly `segments` chunks (possibly empty ones when the block
        // is shorter than the segment count), so sender and receivers
        // always agree on the message count.
        let chunks = data.split_into(segments);
        for chunk in chunks {
            let words = chunk.len() as u64 * words_per_elem;
            ctx.send(next, chunk, words);
        }
        data
    } else {
        assert!(value.is_none(), "non-root must not supply a block");
        let prev = (ctx.rank() + p - 1) % p;
        let forward = v + 1 < p;
        let next = (ctx.rank() + 1) % p;
        let mut data = Vec::new();
        for _ in 0..segments {
            let chunk: Vec<T> = ctx.recv_async(prev).await;
            if forward {
                let words = chunk.len() as u64 * words_per_elem;
                ctx.send(next, chunk.clone(), words);
            }
            data.extend(chunk);
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::bcast_binomial_async;
    use collopt_machine::{ClockParams, Machine};

    /// Analytic chain-pipeline makespan under the half-duplex
    /// store-and-forward model (see module docs).
    fn chain_cost(p: usize, words: u64, segments: u64, ts: f64, tw: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let seg_words = (words as f64 / segments as f64).ceil();
        let u = ts + seg_words * tw;
        if p == 2 {
            segments as f64 * u
        } else {
            ((p - 1) as f64 + 2.0 * (segments as f64 - 1.0)) * u
        }
    }

    #[test]
    fn pipelined_bcast_delivers_the_block_everywhere() {
        for p in 1..=12usize {
            for segments in [1u64, 2, 3, 7] {
                let m = Machine::new(p, ClockParams::free());
                let run = m.run_des(move |ctx| {
                    Box::pin(async move {
                        let value = (ctx.rank() == 0).then(|| (0..23i64).collect::<Vec<i64>>());
                        bcast_pipelined_async(ctx, 0, value, 1, segments).await
                    })
                });
                let expected: Vec<i64> = (0..23).collect();
                for (rank, r) in run.results.iter().enumerate() {
                    assert_eq!(r, &expected, "p={p} segments={segments} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn pipelined_bcast_with_nonzero_root() {
        let p = 6;
        let m = Machine::new(p, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                let value = (ctx.rank() == 2).then(|| vec![9u8, 8, 7]);
                bcast_pipelined_async(ctx, 2, value, 1, 2).await
            })
        });
        assert!(run.results.iter().all(|r| r == &vec![9, 8, 7]));
    }

    #[test]
    fn more_segments_than_elements_is_fine() {
        let m = Machine::new(3, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                let value = (ctx.rank() == 0).then(|| vec![1i64, 2]);
                bcast_pipelined_async(ctx, 0, value, 1, 64).await
            })
        });
        assert!(run.results.iter().all(|r| r == &vec![1, 2]));
    }

    #[test]
    fn chain_beats_binomial_for_large_blocks() {
        // Latency-dominated preset, big block: the pipeline wins.
        let (p, mw) = (8usize, 32_000usize);
        let clock = ClockParams::parsytec_like();
        let segments = optimal_segments(p, mw as u64, clock.ts, clock.tw);
        assert!(segments > 1);

        let m = Machine::new(p, clock);
        let tree = m.run_des(move |ctx| {
            Box::pin(async move {
                let value = (ctx.rank() == 0).then(|| vec![1u8; mw]);
                bcast_binomial_async(ctx, 0, value, mw as u64).await.len()
            })
        });
        let chain = m.run_des(move |ctx| {
            Box::pin(async move {
                let value = (ctx.rank() == 0).then(|| vec![1u8; mw]);
                bcast_pipelined_async(ctx, 0, value, 1, segments)
                    .await
                    .len()
            })
        });
        assert!(
            chain.makespan < tree.makespan,
            "pipelined {} should beat binomial {} at m={mw}",
            chain.makespan,
            tree.makespan
        );
    }

    #[test]
    fn binomial_beats_chain_for_small_blocks() {
        // Tiny block: the chain pays p-2 extra start-ups and loses.
        let (p, mw) = (16usize, 4usize);
        let clock = ClockParams::parsytec_like();
        let m = Machine::new(p, clock);
        let tree = m.run_des(move |ctx| {
            Box::pin(async move {
                let value = (ctx.rank() == 0).then(|| vec![1u8; mw]);
                bcast_binomial_async(ctx, 0, value, mw as u64).await.len()
            })
        });
        let chain = m.run_des(move |ctx| {
            Box::pin(async move {
                let value = (ctx.rank() == 0).then(|| vec![1u8; mw]);
                bcast_pipelined_async(ctx, 0, value, 1, 1).await.len()
            })
        });
        assert!(tree.makespan < chain.makespan);
    }

    #[test]
    fn measured_chain_time_matches_the_analytic_model_exactly() {
        for (p, mw, segments) in [
            (6usize, 1200u64, 4u64),
            (2, 600, 3),
            (3, 900, 5),
            (10, 4000, 8),
        ] {
            let (ts, tw) = (100.0, 2.0);
            let m = Machine::new(p, ClockParams::new(ts, tw));
            let run = m.run_des(move |ctx| {
                Box::pin(async move {
                    let value = (ctx.rank() == 0).then(|| vec![1u8; mw as usize]);
                    bcast_pipelined_async(ctx, 0, value, 1, segments)
                        .await
                        .len()
                })
            });
            let predicted = chain_cost(p, mw, segments, ts, tw);
            assert_eq!(
                run.makespan, predicted,
                "p={p} m={mw} S={segments}: measured vs model"
            );
        }
    }

    #[test]
    fn optimal_segments_formula() {
        // S* = sqrt((p-3) m tw / (2 ts)).
        assert_eq!(optimal_segments(8, 32_000, 200.0, 2.0), 28); // sqrt(5*64000/400)=28.3
        assert_eq!(optimal_segments(2, 1000, 1.0, 1.0), 1);
        assert_eq!(optimal_segments(8, 1, 1.0, 1.0), 1);
        assert_eq!(optimal_segments(8, 100, 0.0, 1.0), 100);
        // Monotone in block size.
        assert!(optimal_segments(8, 64_000, 200.0, 2.0) > optimal_segments(8, 16_000, 200.0, 2.0));
        // The chosen S really is (near-)optimal: no neighbour is better.
        let (p, mw, ts, tw) = (8usize, 32_000u64, 200.0, 2.0);
        let s = optimal_segments(p, mw, ts, tw);
        let best = chain_cost(p, mw, s, ts, tw);
        for cand in [s.saturating_sub(2), s + 2, 1, mw] {
            if cand >= 1 {
                assert!(
                    chain_cost(p, mw, cand, ts, tw) >= best * 0.999,
                    "S={cand} should not beat S*={s}"
                );
            }
        }
    }
}
