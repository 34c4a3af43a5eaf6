#![forbid(unsafe_code)]
//! # collopt-collectives — collective operations on the simulated machine
//!
//! Implementations of every collective operation used by Gorlatch, Wedler &
//! Lengauer (IPPS 1999), on top of [`collopt_machine`]:
//!
//! * the *standard* collectives the paper's programs are written in —
//!   [`bcast_binomial_async`], [`reduce_binomial_async`],
//!   [`allreduce_async`], [`scan_butterfly_async`] — in the
//!   butterfly/binomial implementations the paper's cost model
//!   (Section 4.1, eqs. 15–17) assumes, plus [`gather_binomial_async`],
//!   [`scatter_binomial_async`], [`allgather_binomial_async`] and
//!   [`alltoall_async`] for completeness;
//! * the *special* collectives the optimization rules produce —
//!   [`reduce_balanced_async`] (rule SR-Reduction, Figure 4),
//!   [`scan_balanced_async`] (rule SS-Scan, Figure 5), and both
//!   implementations of the comcast pattern in [`comcast`] (rules
//!   *-Comcast, Figure 6 and the cost-optimal variant of Section 3.4);
//! * the pipelined chain broadcast ([`pipelined`]);
//! * the *bandwidth-optimal* reduction family ([`mod@reduce_scatter`]):
//!   recursive-halving and ring reduce-scatter, Rabenseifner's
//!   reduce-scatter + allgather allreduce, and the ring allreduce, plus
//!   the cost-model-driven selectors [`allreduce_auto_async`] /
//!   [`reduce_auto_async`] in [`variants`] that pick the cheapest
//!   algorithm for the machine's `(p, m, ts, tw, c)` point.
//!
//! All collectives are generic over the block type `T`, take the block size
//! in machine words explicitly (for cost accounting), and charge the
//! simulated clock exactly what the paper's model charges: `ts + m·tw` per
//! message phase and one unit per base-operation per word.
//!
//! Each collective is one `async fn x_async(ctx, ..)`, written once; a
//! rank body run by [`Machine::run_des`] awaits it.
//!
//! [`Machine::run_des`]: collopt_machine::Machine::run_des
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

pub use alltoall::{alltoall_async, reduce_scatter_binomial_async};
pub use balanced::{
    allreduce_balanced_async, reduce_balanced_async, scan_balanced_async, BalancedOp, PairedOp,
};
pub use bcast::{bcast_binomial_async, bcast_linear_async};
pub use comcast::{comcast_bcast_repeat_async, comcast_cost_optimal_async, RepeatOp};
pub use gather::{
    allgather_binomial_async, barrier_dissemination_async, gather_binomial_async,
    scatter_binomial_async,
};
pub use op::{Combine, Splittable};
pub use pipelined::{bcast_pipelined_async, chain_cost, optimal_segments};
pub use reduce::{
    allreduce_async, allreduce_butterfly_async, allreduce_commutative_async, reduce_binomial_async,
};
pub use reduce_scatter::{
    allgather_doubling_async, allreduce_balanced_halving_async, allreduce_rabenseifner_async,
    allreduce_ring_async, reduce_scatter_halving_async, reduce_scatter_ring_async,
};
pub use scan::{exscan_async, scan_butterfly_async};
pub use variants::{
    allgather_ring_async, allreduce_auto_async, allreduce_model_cost, balanced_halving_wins,
    bcast_auto_async, bcast_scatter_allgather_async, choose_allreduce, choose_bcast, choose_reduce,
    reduce_auto_async, reduce_model_cost, scan_sklansky_async, AllreduceChoice, BcastChoice,
    ReduceChoice,
};
