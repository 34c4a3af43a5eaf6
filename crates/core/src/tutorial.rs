//! # Tutorial: performance-directed programming with collective operations
//!
//! A guided tour of the library, following the paper's method end to end.
//! Every snippet below is a compiled, executed doctest.
//!
//! ## 1. Programs are compositions of stages
//!
//! The paper models an SPMD program as a forward composition of *local*
//! stages (`map f`) and *collective* stages (`bcast`, `scan`, `reduce`,
//! `allreduce`). Element `i` of the distributed list is the block held by
//! processor `i`:
//!
//! ```
//! use collopt_core::{op::lib as ops, semantics::eval_program, Program, Value};
//!
//! let prog = Program::new().scan(ops::add()).allreduce(ops::max());
//! let input: Vec<Value> = [3i64, -5, 4, -1, 2].map(Value::Int).to_vec();
//! // scan(+):        [3, -2, 2, 1, 3]
//! // allreduce(max): [3, 3, 3, 3, 3]
//! assert_eq!(eval_program(&prog, &input), vec![Value::Int(3); 5]);
//! ```
//!
//! ## 2. Operators carry their algebra
//!
//! The optimization rules have algebraic side conditions. Operators
//! declare their properties, and the declarations can be *verified* on
//! sample values:
//!
//! ```
//! use collopt_core::{op::lib as ops, Value};
//!
//! let add = ops::add_tropical(); // declares: distributes over max
//! let max = ops::max();
//! let samples: Vec<Value> = [-3i64, 0, 1, 5].map(Value::Int).to_vec();
//! assert!(add.check_distributes_over(&max, &samples)); // a+(b max c) = (a+b) max (a+c)
//! assert!(add.check_associative(&samples));
//! ```
//!
//! ## 3. Rules fuse collectives
//!
//! `scan(+); allreduce(max)` computes a running total and then its global
//! maximum — the *high-watermark* of a delta stream. Because `+`
//! distributes over `max`, rule SR2-Reduction fuses the two collectives
//! into a single `allreduce` over pairs, halving the message start-ups:
//!
//! ```
//! use collopt_core::{op::lib as ops, rewrite::Rewriter, semantics::eval_program,
//!                    Program, Rule, Value};
//!
//! let prog = Program::new().scan(ops::add_tropical()).allreduce(ops::max());
//! let fused = Rewriter::exhaustive().optimize(&prog);
//! assert_eq!(fused.steps[0].rule, Rule::Sr2Reduction);
//! assert_eq!(fused.program.collective_count(), 1);
//!
//! let input: Vec<Value> = [3i64, -5, 4, -1, 2].map(Value::Int).to_vec();
//! assert_eq!(eval_program(&prog, &input), eval_program(&fused.program, &input));
//! ```
//!
//! ## 4. The cost calculus decides *where* rules pay off
//!
//! SR-Reduction (same commutative operator in scan and reduction) only
//! helps when the start-up time exceeds the block size (`ts > m`,
//! Table 1). The cost-guided rewriter applies it on a latency-bound
//! machine and leaves it alone on a fast network:
//!
//! ```
//! use collopt_core::{op::lib as ops, rewrite::Rewriter, Program};
//! use collopt_cost::MachineParams;
//!
//! let prog = Program::new().scan(ops::add()).allreduce(ops::add());
//! let slow_net = MachineParams::new(64, 200.0, 2.0); // ts = 200
//! let fast_net = MachineParams::new(64, 4.0, 0.5);   // ts = 4
//!
//! let m = 32.0; // 32-word blocks
//! assert_eq!(Rewriter::cost_guided(slow_net, m).optimize(&prog).steps.len(), 1);
//! assert!(Rewriter::cost_guided(fast_net, m).optimize(&prog).steps.is_empty());
//! ```
//!
//! ## 5. Execute on the simulated machine
//!
//! The same program runs on a thread-per-rank machine with a
//! deterministic `ts`/`tw` clock; the fused version moves fewer messages
//! and finishes earlier:
//!
//! ```
//! use collopt_core::{execute, op::lib as ops, rewrite::Rewriter, Program, Value};
//! use collopt_machine::ClockParams;
//!
//! let prog = Program::new().scan(ops::mul()).allreduce(ops::add());
//! let fused = Rewriter::exhaustive().optimize(&prog).program;
//! let input: Vec<Value> = (0..16).map(|i| Value::Int(i % 3)).collect();
//!
//! let before = execute(&prog, &input, ClockParams::parsytec_like());
//! let after = execute(&fused, &input, ClockParams::parsytec_like());
//! assert_eq!(before.outputs, after.outputs);
//! assert!(after.total_messages < before.total_messages);
//! assert!(after.makespan < before.makespan);
//! ```
//!
//! ## 6. Parse pipelines from text
//!
//! The `collopt` binary wraps all of this behind a concrete syntax:
//!
//! ```
//! use collopt_core::parser::parse_pipeline;
//! use collopt_core::rewrite::Rewriter;
//!
//! let prog = parse_pipeline("bcast ; map prep ; scan(add) ; scan(add)").unwrap();
//! let res = Rewriter::exhaustive().optimize(&prog);
//! // The normalizer commutes `map prep` out of the way, then BSS-Comcast
//! // fuses broadcast + both scans into one comcast.
//! assert_eq!(res.program.collective_count(), 1);
//! ```
//!
//! ## 7. When greedy is not enough
//!
//! Overlapping fusible windows can make first-match rewriting suboptimal;
//! `saturate` searches every application order:
//!
//! ```
//! use collopt_core::{op::lib as ops, program_cost, rewrite::Rewriter, Program};
//! use collopt_cost::MachineParams;
//!
//! let prog = Program::new().scan(ops::add()).scan(ops::add()).reduce(ops::add());
//! let params = MachineParams::new(64, 100.0, 2.0);
//! let greedy = Rewriter::exhaustive().optimize(&prog).program;
//! let optimal = Rewriter::exhaustive().saturate(&prog, &params, 8.0).result.program;
//! assert!(program_cost(&optimal, &params, 8.0) < program_cost(&greedy, &params, 8.0));
//! ```

// This module is documentation only.
