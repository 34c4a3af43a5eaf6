#![forbid(unsafe_code)]
//! # collopt-serve — optimization as a service
//!
//! The amortizing front end over the rewrite calculus: a long-running,
//! dependency-free JSON-lines-over-TCP server that accepts
//! `(pipeline spec, MachineParams, options)` requests and returns the
//! saturation-optimal program with certificates, lint diagnostics, and
//! predicted (optionally simulated) costs.
//!
//! Saturation-based extraction is an expensive, *pure*, deterministic
//! function — exactly the shape that caching turns into a
//! high-throughput service. The three layers:
//!
//! * [`cache`] — a bounded LRU keyed by the *canonicalized* pipeline
//!   plus machine parameters and options; hits return the cold path's
//!   rendered bytes behind an `Arc`, zero-copy.
//! * [`service`] — canonicalization ([`collopt_core::rules::enabling`]'s
//!   replayable normalization), cache-key derivation, and the cold
//!   path (saturate → lint → simulate → render through the shared
//!   [`collopt_machine::Json`] writer).
//! * [`server`] — the TCP front: one thread per connection reads a
//!   bounded line, runs it under one of `workers` permits and answers in
//!   order, with a graceful stop that lets every connection finish.
//!
//! Hits byte-identical to cold responses, replies invariant under worker
//! count and transport: `tests/` here and `tests/serve_integration.rs`.
//! What a request costs, cold and hot: the `serve_cold` and `serve_hot`
//! workloads of `benchmark/`. See DESIGN.md §13.

pub mod cache;
pub mod request;
pub mod server;
pub mod service;

pub use cache::{Cache, CacheStats};
pub use request::{
    parse_request, ErrorCode, Op, OptimizeRequest, Request, RequestError, DEFAULT_M, DEFAULT_P,
    DEFAULT_TS, DEFAULT_TW,
};
pub use server::{submit, Server, ServerConfig, MAX_LINE};
pub use service::{cache_key, canonicalize, Reply, Service, DEFAULT_CACHE_CAPACITY};
