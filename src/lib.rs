#![forbid(unsafe_code)]
//! # collopt — optimization rules for programming with collective operations
//!
//! A Rust reproduction of
//!
//! > S. Gorlatch, C. Wedler, C. Lengauer. *Optimization Rules for
//! > Programming with Collective Operations.* IPPS 1999.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`machine`] — the simulated SPMD message-passing machine
//!   (thread-per-rank runtime + deterministic `ts`/`tw` cost clock);
//! * [`collectives`] — butterfly/binomial implementations of broadcast,
//!   reduction, scan, gather/scatter, plus the paper's special collectives
//!   (`reduce_balanced`, `scan_balanced`, comcast);
//! * [`cost`] — the Table-1 cost calculus with per-rule improvement
//!   predicates and crossover solvers;
//! * [`core`] — the formal framework: program terms, operator algebra,
//!   the eleven fusion rules, the cost-guided rewrite engine, and the
//!   machine executor;
//! * [`analysis`] — the static soundness analyzer: operator-property
//!   auditing with counterexample shrinking, rewrite-certificate
//!   validation, and the `collopt lint` pipeline linter;
//! * [`mod@bench`] — the paper's evaluation: every table and figure as a
//!   function behind one table (`collopt repro`), the fault-injection
//!   oracle (`collopt chaos`), and the parallel sweep driver;
//! * [`fuzz`] — coverage-guided differential fuzzing of all of the above:
//!   a seeded pipeline generator, four oracles (rewrite soundness,
//!   cross-engine identity, defense-layer unanimity on planted law lies,
//!   saturation-vs-brute-force optimality agreement), a greedy shrinker
//!   and the pinned-regression corpus;
//! * [`serve`] — optimization as a service: a JSON-lines-over-TCP
//!   server with a canonicalizing LRU optimization cache and batched
//!   dispatch (`collopt serve` / `collopt submit`).
//!
//! See `examples/quickstart.rs` for a guided tour, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for the paper-vs-measured record
//! of every table and figure.
//!
//! ```
//! use collopt::prelude::*;
//!
//! // The paper's Example program: map f ; scan(⊗) ; reduce(⊕) ; map g ; bcast.
//! let program = Program::new()
//!     .map("f", 1.0, |v| Value::Int(v.as_int() + 1))
//!     .scan(ops::mul())
//!     .reduce(ops::add())
//!     .map("g", 1.0, |v| Value::Int(v.as_int() * 2))
//!     .bcast();
//!
//! // Optimize for a latency-bound 64-processor machine, 1-word blocks.
//! let params = MachineParams::parsytec_like(64);
//! let optimized = Rewriter::cost_guided(params, 1.0).optimize(&program);
//! assert_eq!(optimized.steps.len(), 1); // SR2-Reduction fires
//! assert!(program_cost(&optimized.program, &params, 1.0)
//!     < program_cost(&program, &params, 1.0));
//! ```

pub use collopt_analysis as analysis;
pub use collopt_bench as bench;
pub use collopt_collectives as collectives;
pub use collopt_core as core;
pub use collopt_cost as cost;
pub use collopt_fuzz as fuzz;
pub use collopt_machine as machine;
pub use collopt_serve as serve;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use collopt_collectives::{
        allgather_binomial_async, allreduce_async, bcast_binomial_async, gather_binomial_async,
        reduce_binomial_async, scan_butterfly_async, scatter_binomial_async, Combine,
    };
    pub use collopt_core::op::lib as ops;
    pub use collopt_core::rewrite::{program_cost, Rewriter};
    pub use collopt_core::semantics::eval_program;
    pub use collopt_core::{execute, BinOp, ExecOutcome, Program, Rule, Stage, Value};
    pub use collopt_cost::{MachineParams, PhaseCost};
    pub use collopt_machine::{drive, ClockParams, Ctx, Machine};
}
