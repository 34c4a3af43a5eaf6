#![forbid(unsafe_code)]
//! # collopt-machine — a simulated SPMD message-passing machine
//!
//! This crate is the substrate on which the collective operations of
//! Gorlatch, Wedler & Lengauer, *"Optimization Rules for Programming with
//! Collective Operations"* (IPPS 1999) are implemented and measured.
//!
//! The paper assumes (Section 4.1) a *virtual, fully connected* machine:
//! every processor can communicate with every other processor at the same
//! cost, links are bidirectional, and a message of `m` words costs
//! `ts + m*tw` (start-up time plus per-word transfer time). One local
//! computation operation costs one time unit.
//!
//! This crate provides exactly that machine: a **deterministic simulated
//! clock** ([`clock`]) is carried by every message, so each run yields an
//! exact, scheduler-independent *simulated makespan* under the paper's
//! `ts`/`tw` cost model. This is what lets us regenerate the paper's
//! Table 1 and Figures 7–8 without the authors' 64-processor Parsytec.
//!
//! A program runs on one of two engines ([`ExecEngine`]), bit-identical in
//! every observable. Which one is decided by the shape of the rank body,
//! not by a setting:
//!
//! * [`Machine::run_des`] takes an async rank body and runs it on the
//!   single-threaded **discrete-event engine** — what `collopt_core::exec`
//!   uses by default, and the only engine past
//!   [`ExecEngine::THREAD_MAX_P`] ranks;
//! * [`Machine::run`] takes a blocking rank body and runs it on one fresh
//!   scoped OS thread per rank — the **reference** the event engine is
//!   held to, exercising the real concurrency of the algorithms.
//!
//! The [`topology`] module contains the rank arithmetic shared by all
//! collective algorithms: binomial trees, butterfly (hypercube) partners,
//! and the paper's *virtual balanced tree* — the unique tree for any number
//! of leaves in which all leaves have the same depth and the right subtree
//! of any node with a non-empty left subtree is complete (Section 3.2).
//!
//! ## Quick example
//!
//! ```
//! use collopt_machine::{Machine, ClockParams};
//!
//! // Four processors; each sends its rank to rank 0.
//! let machine = Machine::new(4, ClockParams::new(10.0, 1.0));
//! let run = machine.run(|ctx| {
//!     if ctx.rank() == 0 {
//!         let mut sum = 0usize;
//!         for src in 1..ctx.size() {
//!             sum += ctx.recv::<usize>(src);
//!         }
//!         sum
//!     } else {
//!         ctx.send(0, ctx.rank(), 1);
//!         0
//!     }
//! });
//! assert_eq!(run.results[0], 6);
//! assert!(run.makespan > 0.0);
//! ```

pub(crate) mod barrier;
pub mod channel;
pub mod chrome;
pub mod clock;
pub(crate) mod des;
pub mod error;
pub mod fault;
pub mod machine;
pub mod profile;
pub mod rng;
pub mod topology;
pub mod trace;

pub use chrome::{chrome_trace, chrome_trace_json, Json};
pub use clock::{ClockParams, ClusterParams};
pub use error::MachineError;
pub use fault::{FaultInjector, FaultPlan, RetryParams};
pub use machine::{drive, Ctx, ExecEngine, Machine, RunResult};
pub use profile::{
    critical_path, CriticalPath, ProfileError, ProfileReport, RankProfile, StageProfile,
};
pub use rng::Rng;
pub use topology::BalancedTree;
pub use trace::{Event, EventKind, Trace};
