//! Per-phase costs of the individual collective operations, from which the
//! Table-1 rows are assembled.
//!
//! Conventions (paper §4.1): every collective runs `log p` phases; each
//! phase of a communicating collective pays one start-up `ts`; a message
//! of `f·m` words pays `f·m·tw`; computation charges per-word operation
//! counts. A *local* stage (the result of the Local rules) runs `log p`
//! iterations with no communication at all.

use crate::params::MachineParams;
use crate::phase::PhaseCost;

/// Broadcast: no computation (eq. 15).
pub const fn bcast() -> PhaseCost {
    PhaseCost::new(1.0, 1.0, 0.0)
}

/// Reduction with an operator costing `ops` per word, on tuples `f` words
/// wide (eq. 16 is `reduce(1.0, 1.0)`): one combine per phase.
pub const fn reduce(ops: f64, words_factor: f64) -> PhaseCost {
    PhaseCost::new(1.0, words_factor, ops)
}

/// Scan with an operator costing `ops` per word on `f`-word tuples
/// (eq. 17 is `scan(1.0, 1.0)`): two combines per phase on the critical
/// path.
pub const fn scan(ops: f64, words_factor: f64) -> PhaseCost {
    PhaseCost::new(1.0, words_factor, 2.0 * ops)
}

/// Balanced reduction (rule SR-Reduction's target): one `op_sr`-style
/// combine per phase, tuples `f` words wide.
pub const fn reduce_balanced(ops_combine: f64, words_factor: f64) -> PhaseCost {
    PhaseCost::new(1.0, words_factor, ops_combine)
}

/// Balanced scan (rule SS-Scan's target): the critical path charges the
/// upper partner's operation count; only `words_factor` words of the tuple
/// cross the link per direction (3 of op_ss's 4 components).
pub const fn scan_balanced(ops_upper: f64, words_factor: f64) -> PhaseCost {
    PhaseCost::new(1.0, words_factor, ops_upper)
}

/// Comcast in the broadcast-then-`repeat` implementation: the broadcast's
/// `ts + m·tw` per phase plus the `o` step's operations (the heavier of
/// `e`/`o`, which dominates the critical path).
pub const fn comcast_bcast_repeat(ops_o: f64) -> PhaseCost {
    PhaseCost::new(1.0, 1.0, ops_o)
}

/// Comcast in the cost-optimal successive-doubling implementation: the
/// full auxiliary tuple (`f` words per block word) crosses the link each
/// phase, and active processors compute both `e` and `o`.
pub const fn comcast_cost_optimal(ops_e: f64, ops_o: f64, words_factor: f64) -> PhaseCost {
    PhaseCost::new(1.0, words_factor, ops_e + ops_o)
}

/// A purely local iteration (the Local rules' target): `ops` operations
/// per word per phase, no communication.
pub const fn local_iter(ops: f64) -> PhaseCost {
    PhaseCost::new(0.0, 0.0, ops)
}

// --- The bandwidth-optimal reduction family -------------------------------
//
// Unlike the `PhaseCost` constructors above, these makespans are not a
// uniform per-phase cost times `log p`: the segmenting algorithms move a
// different volume every round (halving/doubling) or run `p − 1` linear
// steps (ring), so they are closed forms over the whole operation. Each
// is exact on the simulated machine when `p` divides `m` and is verified
// to machine precision by the collectives crate's makespan tests, which
// implement the same formulas independently.

/// `m(1 − 1/p)` — the total volume per rank of a segmenting collective.
fn frac(params: &MachineParams) -> f64 {
    1.0 - 1.0 / params.p as f64
}

/// Butterfly allreduce (power-of-two `p`): `log p (ts + m(tw + ops))`.
/// The `PhaseCost` equivalent of `reduce(ops, 1.0)` — restated here so
/// the family can be compared through one interface.
pub fn allreduce_butterfly_cost(params: &MachineParams, m: f64, ops: f64) -> f64 {
    params.log_p() * (params.ts + m * (params.tw + ops))
}

/// Recursive-halving reduce-scatter (power-of-two `p`):
/// `log₂ p·ts + m(1−1/p)(tw + ops)` — round `j` exchanges and combines
/// only `m/2^(j+1)` words.
pub fn reduce_scatter_halving_cost(params: &MachineParams, m: f64, ops: f64) -> f64 {
    params.log_p() * params.ts + m * frac(params) * (params.tw + ops)
}

/// Recursive-doubling allgather (power-of-two `p`):
/// `log₂ p·ts + m(1−1/p)·tw`.
pub fn allgather_doubling_cost(params: &MachineParams, m: f64) -> f64 {
    params.log_p() * params.ts + m * frac(params) * params.tw
}

/// Rabenseifner's allreduce = reduce-scatter + allgather
/// (power-of-two `p`): `2 log₂ p·ts + m(1−1/p)(2tw + ops)`.
pub fn allreduce_rabenseifner_cost(params: &MachineParams, m: f64, ops: f64) -> f64 {
    reduce_scatter_halving_cost(params, m, ops) + allgather_doubling_cost(params, m)
}

/// Ring reduce-scatter (any `p`, commutative operator): `p − 1` steps of
/// `m/p`-word messages. On the half-duplex store-and-forward machine
/// each step pays a send *and* a receive:
/// `(p−1)(2(ts + (m/p)tw) + (m/p)·ops)`.
pub fn reduce_scatter_ring_cost(params: &MachineParams, m: f64, ops: f64) -> f64 {
    let steps = params.p as f64 - 1.0;
    let seg = m / params.p as f64;
    steps * (2.0 * (params.ts + seg * params.tw) + seg * ops)
}

/// Ring allreduce = ring reduce-scatter + ring allgather (any `p`,
/// commutative operator):
/// `(p−1)(2(ts + (m/p)tw) + (m/p)·ops) + 2(p−1)(ts + (m/p)tw)`.
pub fn allreduce_ring_cost(params: &MachineParams, m: f64, ops: f64) -> f64 {
    let steps = params.p as f64 - 1.0;
    let seg = m / params.p as f64;
    reduce_scatter_ring_cost(params, m, ops) + 2.0 * steps * (params.ts + seg * params.tw)
}

/// Binomial reduce + binomial broadcast — the order-safe allreduce
/// fallback for any `p`: `log p (ts + m(tw + ops)) + log p (ts + m·tw)`.
pub fn allreduce_reduce_bcast_cost(params: &MachineParams, m: f64, ops: f64) -> f64 {
    reduce(ops, 1.0).eval(params, m) + bcast().eval(params, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;

    #[test]
    fn standard_collectives_match_eqs_15_to_17() {
        let p = MachineParams::new(64, 100.0, 2.0);
        let m = 32.0;
        // eq. 15: log p (ts + m tw) = 6 * (100 + 64) = 984.
        assert_eq!(bcast().eval(&p, m), 984.0);
        // eq. 16: log p (ts + m (tw+1)) = 6 * (100 + 96) = 1176.
        assert_eq!(reduce(1.0, 1.0).eval(&p, m), 1176.0);
        // eq. 17: log p (ts + m (tw+2)) = 6 * (100 + 128) = 1368.
        assert_eq!(scan(1.0, 1.0).eval(&p, m), 1368.0);
    }

    #[test]
    fn collective_ordering_bcast_reduce_scan() {
        // For any parameters, T_bcast ≤ T_reduce ≤ T_scan.
        for (ts, tw, m) in [(0.0, 0.0, 1.0), (100.0, 2.0, 32.0), (1.0, 50.0, 7.0)] {
            let p = MachineParams::new(16, ts, tw);
            assert!(bcast().eval(&p, m) <= reduce(1.0, 1.0).eval(&p, m));
            assert!(reduce(1.0, 1.0).eval(&p, m) <= scan(1.0, 1.0).eval(&p, m));
        }
    }

    #[test]
    fn local_iter_is_communication_free() {
        let c = local_iter(3.0);
        assert_eq!(c.ts, 0.0);
        assert_eq!(c.mtw, 0.0);
        let p = MachineParams::new(8, 1e9, 1e9);
        assert_eq!(c.eval(&p, 10.0), 3.0 * 3.0 * 10.0);
    }

    #[test]
    fn cost_optimal_comcast_is_never_cheaper_than_bcast_repeat() {
        // Same ops, wider messages and extra `e` work: §3.4's remark.
        let fast = comcast_bcast_repeat(2.0);
        let opt = comcast_cost_optimal(1.0, 2.0, 2.0);
        assert!(opt.always_exceeds(&fast));
    }

    #[test]
    fn reduction_family_costs_at_a_hand_checked_point() {
        // p = 8, ts = 100, tw = 2, m = 64, ops = 1:
        let p = MachineParams::new(8, 100.0, 2.0);
        let m = 64.0;
        // butterfly: 3(100 + 64·3) = 876
        assert_eq!(allreduce_butterfly_cost(&p, m, 1.0), 876.0);
        // halving RS: 300 + 56·3 = 468
        assert_eq!(reduce_scatter_halving_cost(&p, m, 1.0), 468.0);
        // doubling AG: 300 + 56·2 = 412
        assert_eq!(allgather_doubling_cost(&p, m), 412.0);
        // rabenseifner = RS + AG = 880
        assert_eq!(allreduce_rabenseifner_cost(&p, m, 1.0), 880.0);
        // ring RS: 7·(2(100 + 16) + 8) = 7·240 = 1680
        assert_eq!(reduce_scatter_ring_cost(&p, m, 1.0), 1680.0);
        // ring allreduce: 1680 + 2·7·116 = 3304
        assert_eq!(allreduce_ring_cost(&p, m, 1.0), 3304.0);
    }

    #[test]
    fn rabenseifner_wins_exactly_above_the_crossover() {
        // Butterfly's log p·m(tw+c) volume term against Rabenseifner's
        // m(1−1/p)(2tw+c): the winner flips once, from butterfly (small
        // m, start-up bound) to Rabenseifner (large m, bandwidth bound).
        let p = MachineParams::parsytec_like(16);
        assert!(allreduce_butterfly_cost(&p, 4.0, 1.0) < allreduce_rabenseifner_cost(&p, 4.0, 1.0));
        assert!(
            allreduce_rabenseifner_cost(&p, 4096.0, 1.0)
                < allreduce_butterfly_cost(&p, 4096.0, 1.0)
        );
        // Asymptotically the butterfly pays log p / ((1−1/p)·(2tw+c)/(tw+c))
        // times more; at p = 16, tw = 2, c = 1 that is 4·3/(0.9375·5) ≈ 2.56.
        let huge = 1e9;
        let ratio =
            allreduce_butterfly_cost(&p, huge, 1.0) / allreduce_rabenseifner_cost(&p, huge, 1.0);
        assert!((ratio - 4.0 * 3.0 / (0.9375 * 5.0)).abs() < 1e-3);
    }

    #[test]
    fn reduce_bcast_fallback_always_loses_to_the_butterfly() {
        // On a power of two the fallback is the butterfly plus a whole
        // broadcast — the selector must never pick it there.
        for m in [1.0, 100.0, 10_000.0] {
            let p = MachineParams::new(16, 200.0, 2.0);
            assert!(allreduce_butterfly_cost(&p, m, 1.0) < allreduce_reduce_bcast_cost(&p, m, 1.0));
        }
    }
}
