//! Broadcast (eq. 8): the block of the root reaches every rank.
//!
//! Two implementations:
//!
//! * [`bcast_binomial_async`] — the recursive-doubling binomial tree the paper's
//!   cost model assumes: `⌈log₂ p⌉` rounds, makespan
//!   `log p · (ts + m·tw)` (eq. 15);
//! * [`bcast_linear_async`] — the naive root-sends-to-everyone baseline
//!   (`(p-1)·(ts + m·tw)` on the root's clock), kept for the ablation
//!   benches.

use collopt_machine::topology::binomial_bcast_rank_plan;
use collopt_machine::Ctx;

/// Binomial-tree broadcast. Ranks other than `root` pass `None` for
/// `value`; every rank returns the root's block.
///
/// # Panics
/// Panics if the root passes `None` or a non-root passes `Some`.
pub async fn bcast_binomial_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    root: usize,
    value: Option<T>,
    words: u64,
) -> T {
    let plan = binomial_bcast_rank_plan(ctx.size(), root, ctx.rank());
    let v: T = match (plan.recv, value) {
        (None, Some(v)) => v,
        (Some((_, src)), None) => ctx.recv_async(src).await,
        (None, None) => panic!("root rank {} must supply the broadcast value", ctx.rank()),
        (Some(_), Some(_)) => {
            panic!(
                "non-root rank {} must not supply a broadcast value",
                ctx.rank()
            )
        }
    };
    for (_, dst) in plan.sends {
        ctx.send(dst, v.clone(), words);
    }
    v
}

/// Linear broadcast: the root sends to every other rank in turn.
pub async fn bcast_linear_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    root: usize,
    value: Option<T>,
    words: u64,
) -> T {
    if ctx.rank() == root {
        let v = value.expect("root must supply the broadcast value");
        for dst in 0..ctx.size() {
            if dst != root {
                ctx.send(dst, v.clone(), words);
            }
        }
        v
    } else {
        assert!(
            value.is_none(),
            "non-root rank must not supply a broadcast value"
        );
        ctx.recv_async(root).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_machine::topology::ceil_log2;
    use collopt_machine::{drive, ClockParams, Machine};

    fn run_bcast(p: usize, root: usize, params: ClockParams) -> (Vec<Vec<u64>>, f64) {
        let m = Machine::new(p, params);
        let run = m.run(|ctx| {
            let value = (ctx.rank() == root).then(|| vec![42u64, 7, root as u64]);
            drive(bcast_binomial_async(ctx, root, value, 3))
        });
        (run.results, run.makespan)
    }

    #[test]
    fn everyone_receives_the_root_block() {
        for p in [1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 31] {
            for root in [0, p / 2, p - 1] {
                let (results, _) = run_bcast(p, root, ClockParams::free());
                for (rank, r) in results.iter().enumerate() {
                    assert_eq!(
                        r,
                        &vec![42u64, 7, root as u64],
                        "p={p} root={root} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn binomial_makespan_matches_eq15() {
        // T_bcast = log p · (ts + m·tw), eq. (15), for p a power of two.
        for (p, m) in [(2usize, 1u64), (4, 8), (8, 32), (64, 1000)] {
            let params = ClockParams::new(100.0, 2.0);
            let machine = Machine::new(p, params);
            let run = machine.run(|ctx| {
                let value = (ctx.rank() == 0).then(|| vec![1u8; m as usize]);
                drive(bcast_binomial_async(ctx, 0, value, m))
            });
            let expected = ceil_log2(p) as f64 * (params.ts + m as f64 * params.tw);
            assert_eq!(run.makespan, expected, "p={p} m={m}");
        }
    }

    #[test]
    fn linear_bcast_is_correct_but_slower() {
        let params = ClockParams::new(100.0, 1.0);
        let p = 8;
        let m = Machine::new(p, params);
        let run_lin = m.run(|ctx| {
            let value = (ctx.rank() == 0).then_some(11u32);
            drive(bcast_linear_async(ctx, 0, value, 4))
        });
        assert!(run_lin.results.iter().all(|&v| v == 11));
        let run_tree = m.run(|ctx| {
            let value = (ctx.rank() == 0).then_some(11u32);
            drive(bcast_binomial_async(ctx, 0, value, 4))
        });
        assert!(
            run_lin.makespan > run_tree.makespan,
            "linear {} should exceed binomial {}",
            run_lin.makespan,
            run_tree.makespan
        );
        // Root performs p-1 sequential sends.
        assert_eq!(run_lin.makespan, (p - 1) as f64 * (100.0 + 4.0));
    }

    #[test]
    fn bcast_charges_no_compute() {
        let m = Machine::new(8, ClockParams::new(10.0, 1.0));
        let run = m.run(|ctx| {
            let value = (ctx.rank() == 0).then_some(1.5f64);
            drive(bcast_binomial_async(ctx, 0, value, 1))
        });
        assert!(run.compute_ops.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn single_rank_bcast_is_identity() {
        let m = Machine::new(1, ClockParams::parsytec_like());
        let run = m.run(|ctx| drive(bcast_binomial_async(ctx, 0, Some(99u8), 1)));
        assert_eq!(run.results, vec![99]);
        assert_eq!(run.makespan, 0.0);
    }

    #[test]
    #[should_panic(expected = "root rank")]
    fn missing_root_value_panics() {
        let m = Machine::new(2, ClockParams::free());
        m.run(|ctx| drive(bcast_binomial_async::<u8>(ctx, 0, None, 1)));
    }
}
