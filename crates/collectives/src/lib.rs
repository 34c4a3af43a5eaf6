#![forbid(unsafe_code)]
//! # collopt-collectives — collective operations on the simulated machine
//!
//! Implementations of every collective operation used by Gorlatch, Wedler &
//! Lengauer (IPPS 1999), on top of [`collopt_machine`]:
//!
//! * the *standard* collectives the paper's programs are written in —
//!   [`bcast_binomial`], [`reduce_binomial`], [`allreduce`],
//!   [`scan_butterfly`] — in the butterfly/binomial implementations the
//!   paper's cost model (Section 4.1, eqs. 15–17) assumes, plus
//!   [`gather_binomial`]/[`scatter_binomial`]/[`allgather`]/[`alltoall()`](alltoall::alltoall)
//!   for completeness;
//! * the *special* collectives the optimization rules produce —
//!   [`reduce_balanced`] (rule SR-Reduction, Figure 4), [`scan_balanced`]
//!   (rule SS-Scan, Figure 5), and both implementations of the comcast
//!   pattern in [`comcast`] (rules *-Comcast, Figure 6 and the
//!   cost-optimal variant of Section 3.4);
//! * the pipelined chain broadcast ([`pipelined`]);
//! * the *bandwidth-optimal* reduction family ([`mod@reduce_scatter`]):
//!   recursive-halving and ring reduce-scatter, Rabenseifner's
//!   reduce-scatter + allgather allreduce, and the ring allreduce, plus
//!   the cost-model-driven selectors [`allreduce_auto`] / [`reduce_auto`]
//!   in [`variants`] that pick the cheapest algorithm for the machine's
//!   `(p, m, ts, tw, c)` point.
//!
//! All collectives are generic over the block type `T`, take the block size
//! in machine words explicitly (for cost accounting), and charge the
//! simulated clock exactly what the paper's model charges: `ts + m·tw` per
//! message phase and one unit per base-operation per word.
//!
//! ## Semantics
//!
//! With `x_i` the block held by rank `i` (the paper's distributed list
//! `[x1, …, xn]`):
//!
//! * `bcast`:      `[x, _, …, _] ↦ [x, x, …, x]`                   (eq. 8)
//! * `reduce ⊕`:   `[x1, …, xn] ↦ [x1 ⊕ … ⊕ xn, x2, …, xn]`        (eq. 5)
//! * `allreduce ⊕`:`[x1, …, xn] ↦ [y, …, y]`, `y = x1 ⊕ … ⊕ xn`    (eq. 6)
//! * `scan ⊕`:     `[x1, …, xn] ↦ [x1, x1 ⊕ x2, …, x1 ⊕ … ⊕ xn]`   (eq. 7)
//!
//! The module `reference` contains direct sequential
//! implementations of these equations; every distributed algorithm is
//! tested against them.

pub mod alltoall;
pub mod balanced;
pub mod bcast;
pub mod comcast;
pub mod gather;
pub mod op;
pub mod pipelined;
pub mod reduce;
pub mod reduce_scatter;
pub mod reference;
pub mod scan;
pub mod schedule;
pub mod variants;

pub use alltoall::{alltoall, reduce_scatter};
pub use balanced::{
    allreduce_balanced, allreduce_balanced_async, reduce_balanced, reduce_balanced_async,
    scan_balanced, scan_balanced_async, BalancedOp, PairedOp,
};
pub use bcast::{bcast_binomial, bcast_binomial_async, bcast_linear, bcast_linear_async};
pub use comcast::{
    comcast_bcast_repeat, comcast_bcast_repeat_async, comcast_cost_optimal,
    comcast_cost_optimal_async, RepeatOp,
};
pub use gather::{
    allgather, allgather_async, barrier, barrier_async, gather_binomial, gather_binomial_async,
    scatter_binomial, scatter_binomial_async,
};
pub use op::{Combine, Splittable};
pub use pipelined::{bcast_pipelined, bcast_pipelined_async, chain_cost, optimal_segments};
pub use reduce::{
    allreduce, allreduce_async, allreduce_butterfly, allreduce_butterfly_async,
    allreduce_commutative, allreduce_commutative_async, reduce_binomial, reduce_binomial_async,
};
pub use reduce_scatter::{
    allgather_doubling, allgather_doubling_async, allreduce_balanced_halving,
    allreduce_balanced_halving_async, allreduce_rabenseifner, allreduce_rabenseifner_async,
    allreduce_ring, allreduce_ring_async, reduce_scatter_halving, reduce_scatter_halving_async,
    reduce_scatter_ring, reduce_scatter_ring_async,
};
pub use scan::{exscan, exscan_async, scan_butterfly, scan_butterfly_async};
pub use variants::{
    allgather_ring, allgather_ring_async, allreduce_auto, allreduce_auto_async,
    allreduce_model_cost, balanced_halving_wins, bcast_auto, bcast_auto_async,
    bcast_scatter_allgather, bcast_scatter_allgather_async, choose_allreduce, choose_bcast,
    choose_reduce, reduce_auto, reduce_auto_async, reduce_model_cost, scan_sklansky,
    scan_sklansky_async, AllreduceChoice, BcastChoice, ReduceChoice,
};
