#![forbid(unsafe_code)]
//! The paper's evaluation and the code its parts share.
//!
//! [`repro`] reproduces every committed artifact under `results/` (behind
//! `collopt repro`), [`chaos`] is the fault-injection oracle (behind
//! `collopt chaos`), [`sweep_driver`] fans independent simulation points
//! out across host cores, and [`harness`] is the Criterion stand-in of the
//! `benches/`. What they have in common lives here: the per-rule LHS/RHS
//! program builders, the three comcast implementations measured in
//! Figures 7–8, and workload generators.
//!
//! The Figures 7–8 workloads run the collectives *directly* on native
//! `Vec<i64>` blocks (no dynamic `Value` layer) so that wall-clock numbers
//! measure the algorithms, not interpretation overhead; the simulated
//! makespans come from the same runs' deterministic clocks.

pub mod chaos;
pub mod harness;
pub mod repro;
pub mod sweep_driver;

use collopt_collectives::{
    bcast_binomial, comcast_bcast_repeat, comcast_cost_optimal, scan_butterfly, Combine, RepeatOp,
};
use collopt_core::op::lib as ops;
use collopt_core::rules::{try_match, window_len, Rule};
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_machine::{ClockParams, Machine};

/// The paper's Parsytec-like machine constants used for all figure
/// regenerations (latency-dominated network; see DESIGN.md §2).
pub fn figure_clock() -> ClockParams {
    ClockParams::parsytec_like()
}

/// LHS program of each Table-1 rule, with unit-cost base operators.
pub fn rule_lhs(rule: Rule) -> Program {
    match rule {
        Rule::Sr2Reduction => Program::new().scan(ops::mul()).reduce(ops::add()),
        Rule::SrReduction => Program::new().scan(ops::add()).reduce(ops::add()),
        Rule::Ss2Scan => Program::new().scan(ops::mul()).scan(ops::add()),
        Rule::SsScan => Program::new().scan(ops::add()).scan(ops::add()),
        Rule::BsComcast => Program::new().bcast().scan(ops::add()),
        Rule::Bss2Comcast => Program::new().bcast().scan(ops::mul()).scan(ops::add()),
        Rule::BssComcast => Program::new().bcast().scan(ops::add()).scan(ops::add()),
        Rule::BrLocal => Program::new().bcast().reduce(ops::add()),
        Rule::Bsr2Local => Program::new().bcast().scan(ops::mul()).reduce(ops::add()),
        Rule::BsrLocal => Program::new().bcast().scan(ops::add()).reduce(ops::add()),
        Rule::CrAlllocal => Program::new().bcast().allreduce(ops::add()),
    }
}

/// RHS program of each rule (the rule applied at position 0).
pub fn rule_rhs(rule: Rule) -> Program {
    let l = rule_lhs(rule);
    let rw = try_match(rule, l.stages()).expect("rule conditions hold by construction");
    l.splice(0, window_len(rule), rw.stages)
}

/// Identical unit blocks of `m` words on `p` processors — the timing
/// workload (values kept at 1 to avoid overflow in scan(mul)).
pub fn block_input(p: usize, m: usize) -> Vec<Value> {
    (0..p)
        .map(|_| Value::list(vec![Value::Int(1); m]))
        .collect()
}

/// A deterministic pseudo-random block input for correctness-sensitive
/// benches (values small enough for scan(add) over 64 ranks).
pub fn varied_input(p: usize, m: usize, seed: u64) -> Vec<Value> {
    (0..p)
        .map(|i| {
            Value::list(
                (0..m)
                    .map(|j| {
                        let x = (seed ^ (i as u64 * 2654435761) ^ (j as u64 * 40503)) % 17;
                        Value::Int(x as i64 - 8)
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Which of the three Figure-7/8 implementations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComcastImpl {
    /// The unoptimized left-hand side `bcast ; scan(+)`.
    BcastScan,
    /// The cost-optimal successive-doubling comcast (§3.4 alternative).
    CostOptimal,
    /// Broadcast followed by local `repeat` (Figure 6) — the winner.
    BcastRepeat,
}

impl ComcastImpl {
    /// All three curves in the paper's legend order.
    pub const ALL: [ComcastImpl; 3] = [
        ComcastImpl::BcastScan,
        ComcastImpl::CostOptimal,
        ComcastImpl::BcastRepeat,
    ];

    /// Legend label as printed in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ComcastImpl::BcastScan => "bcast;scan",
            ComcastImpl::CostOptimal => "comcast",
            ComcastImpl::BcastRepeat => "bcast;repeat",
        }
    }
}

/// State of the fused BS-Comcast repeat operator on native blocks:
/// `(t, u)` with both components `m` words long.
type PairBlock = (Vec<i64>, Vec<i64>);

fn pair_e(s: &PairBlock) -> PairBlock {
    (s.0.clone(), s.1.iter().map(|u| u + u).collect())
}

fn pair_o(s: &PairBlock) -> PairBlock {
    (
        s.0.iter().zip(&s.1).map(|(t, u)| t + u).collect(),
        s.1.iter().map(|u| u + u).collect(),
    )
}

fn inject(b: &[i64]) -> PairBlock {
    (b.to_vec(), b.to_vec())
}

fn project(s: &PairBlock) -> Vec<i64> {
    s.0.clone()
}

/// Run one of the three implementations of `bcast ; scan(+)` on `p`
/// processors with `m`-word blocks; returns (per-rank results, simulated
/// makespan). The block held by the root is `[1; m]`.
pub fn run_comcast(which: ComcastImpl, p: usize, m: usize, clock: ClockParams) -> (Vec<i64>, f64) {
    let machine = Machine::new(p, clock);
    let words = m as u64;
    let run = machine.run(move |ctx| {
        let seed: Option<Vec<i64>> = (ctx.rank() == 0).then(|| vec![1i64; m]);
        let out: Vec<i64> = match which {
            ComcastImpl::BcastScan => {
                let b = bcast_binomial(ctx, 0, seed, words);
                let add = |a: &Vec<i64>, b: &Vec<i64>| -> Vec<i64> {
                    a.iter().zip(b).map(|(x, y)| x + y).collect()
                };
                scan_butterfly(ctx, b, words, &Combine::new(&add))
            }
            ComcastImpl::CostOptimal => {
                let op = RepeatOp {
                    e: &pair_e,
                    o: &pair_o,
                    ops_e: 1.0,
                    ops_o: 2.0,
                };
                let inj = |b: &Vec<i64>| inject(b);
                comcast_cost_optimal(ctx, 0, seed, words, &inj, &project, &op, 2)
            }
            ComcastImpl::BcastRepeat => {
                let op = RepeatOp {
                    e: &pair_e,
                    o: &pair_o,
                    ops_e: 1.0,
                    ops_o: 2.0,
                };
                let inj = |b: &Vec<i64>| inject(b);
                comcast_bcast_repeat(ctx, 0, seed, words, &inj, &project, &op)
            }
        };
        // Fold to a checksum so the bench can assert correctness cheaply.
        out.first().copied().unwrap_or(0) * 1_000_000 + out.last().copied().unwrap_or(0)
    });
    (run.results, run.makespan)
}

/// Verify all three implementations agree (rank `k` ends with `(k+1)·1`).
pub fn check_comcast_agreement(p: usize, m: usize) {
    let clock = ClockParams::free();
    let expected: Vec<i64> = (0..p as i64)
        .map(|k| (k + 1) * 1_000_000 + (k + 1))
        .collect();
    for which in ComcastImpl::ALL {
        let (got, _) = run_comcast(which, p, m, clock);
        assert_eq!(got, expected, "{} at p={p} m={m}", which.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rules_have_buildable_sides() {
        for rule in Rule::ALL {
            let l = rule_lhs(rule);
            let r = rule_rhs(rule);
            assert!(r.collective_count() < l.collective_count(), "{rule}");
        }
    }

    #[test]
    fn comcast_implementations_agree() {
        for (p, m) in [(2usize, 1usize), (6, 4), (8, 16), (13, 3)] {
            check_comcast_agreement(p, m);
        }
    }

    #[test]
    fn curve_ordering_matches_the_paper() {
        // Figure 7/8: bcast;repeat < bcast;scan < comcast on the
        // latency-dominated preset with nontrivial blocks.
        let (_, t_scan) = run_comcast(ComcastImpl::BcastScan, 16, 256, figure_clock());
        let (_, t_opt) = run_comcast(ComcastImpl::CostOptimal, 16, 256, figure_clock());
        let (_, t_rep) = run_comcast(ComcastImpl::BcastRepeat, 16, 256, figure_clock());
        assert!(t_rep < t_scan, "{t_rep} < {t_scan}");
        assert!(t_scan < t_opt, "{t_scan} < {t_opt}");
    }

    #[test]
    fn varied_input_is_deterministic() {
        assert_eq!(varied_input(4, 8, 42), varied_input(4, 8, 42));
        assert_ne!(varied_input(4, 8, 42), varied_input(4, 8, 43));
    }
}
