#![forbid(unsafe_code)]
//! # collopt-core — optimization rules for programming with collective operations
//!
//! A Rust implementation of the formal framework, optimization rules and
//! cost-guided rewrite engine of
//!
//! > S. Gorlatch, C. Wedler, C. Lengauer. *Optimization Rules for
//! > Programming with Collective Operations.* IPPS 1999.
//!
//! ## The idea
//!
//! Parallel programs written with collective operations (`bcast`,
//! `reduce`, `scan`, …) often compose several collectives in sequence —
//! within one program, or where two programs meet. Under algebraic side
//! conditions (associativity, commutativity, distributivity), such a
//! composition equals a *single* collective over auxiliary tuples: one
//! message start-up per butterfly phase instead of two or three, at the
//! price of slightly heavier local computation. The paper proves eleven
//! such fusion rules and pairs them with a cost calculus that predicts,
//! per machine, when the trade pays off.
//!
//! ## This crate
//!
//! * [`value`] / [`op`] — the data domain and the operator algebra with
//!   declared + verifiable properties;
//! * [`term`] — programs as compositions of stages
//!   (`map f ; scan (⊗) ; reduce (⊕) ; map g ; bcast`);
//! * [`semantics`] — the reference evaluator (the denotations the rules
//!   are equalities over);
//! * [`rules`] — the eleven rules with their fused operators
//!   (`op_sr2`, `op_sr`, `op_ss`, the comcast `e`/`o` pairs, `op_br`, …);
//! * [`rewrite`] — the exhaustive and cost-guided rewrite engine;
//! * [`egraph`] — equality saturation with cost-model extraction, the
//!   exact search behind `Rewriter::saturate`;
//! * [`exec`] — lowering onto the simulated message-passing machine of
//!   [`collopt_machine`] via the collective algorithms of
//!   [`collopt_collectives`].
//!
//! ## Quickstart
//!
//! ```
//! use collopt_core::op::lib;
//! use collopt_core::rewrite::Rewriter;
//! use collopt_core::term::Program;
//! use collopt_core::semantics::eval_program;
//! use collopt_core::value::Value;
//!
//! // scan(*) ; allreduce(+) — fusible because * distributes over +.
//! let prog = Program::new().scan(lib::mul()).allreduce(lib::add());
//! let optimized = Rewriter::exhaustive().optimize(&prog);
//! assert_eq!(optimized.program.collective_count(), 1);
//!
//! // Same meaning, half the communication.
//! let input: Vec<Value> = [1i64, 2, 3, 4].map(Value::Int).to_vec();
//! assert_eq!(
//!     eval_program(&prog, &input),
//!     eval_program(&optimized.program, &input),
//! );
//! ```

pub mod adjust;
pub mod dist;
pub mod egraph;
pub mod exec;
pub mod op;
pub mod parser;
pub mod report;
pub mod rewrite;
pub mod rules;
pub mod semantics;
pub mod term;
pub mod tutorial;
pub mod value;

pub use egraph::{
    saturate_program, LawGate, SaturateConfig, SaturationOutcome, SaturationStats,
    DEFAULT_NODE_BUDGET,
};
pub use exec::{
    execute, execute_profiled, execute_traced, execute_traced_with, execute_with, ExecConfig,
    ExecOutcome, TracedExecOutcome,
};
pub use op::{BinOp, Counterexample, RequiredLaw, FLOAT_RTOL};
pub use rewrite::{
    program_cost, Certificate, OptimizeResult, RewriteStep, Rewriter, RuleRejection, Witness,
    RULE_PRIORITY,
};
pub use rules::Rule;
pub use term::{Program, Stage};
pub use value::Value;
