#![forbid(unsafe_code)]
//! # collopt-cost — the paper's cost calculus (Section 4)
//!
//! Analytic performance estimates for collective operations and for the
//! optimization rules, on the paper's machine model: a virtual, fully
//! connected machine, `ts` start-up time, `tw` per-word transfer time, one
//! unit per computation operation, and butterfly implementations of the
//! collectives:
//!
//! ```text
//! T_bcast  = log p · (ts + m·tw)            (eq. 15)
//! T_reduce = log p · (ts + m·(tw + 1))      (eq. 16)
//! T_scan   = log p · (ts + m·(tw + 2))      (eq. 17)
//! ```
//!
//! Every cost in this crate is a *per-`log p`-phase* affine expression
//! `α·ts + β·m·tw + γ·m` ([`PhaseCost`]); multiplying by `log p` gives the
//! full estimate. [`table1`] reproduces the paper's Table 1 — the
//! before/after cost of every optimization rule and the machine-parameter
//! condition under which the rule improves performance — and augments it
//! with exact crossover solvers.
//!
//! This crate is deliberately free of any dependency on the simulated
//! machine: the benches cross-validate its predictions against measured
//! simulated makespans, which only works if the two are independent
//! implementations of the same model.

pub mod bounds;
pub mod collectives;
pub mod exact;
pub mod params;
pub mod phase;
pub mod sweep;
pub mod table1;

pub use params::MachineParams;
pub use phase::PhaseCost;
pub use table1::{Rule, RuleEstimate};
