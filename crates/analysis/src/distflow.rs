//! Distribution-state dataflow analysis over collective pipelines.
//!
//! An abstract interpreter over the distribution lattice of
//! [`collopt_core::dist`]: starting from the paper's input convention
//! (the list is block-distributed over all processors) each stage's
//! transfer function maps the incoming [`DistState`] to the outgoing
//! one. Two lint families fall out:
//!
//! * `COL007` — **distribution mismatch**: a stage that consumes data on
//!   every rank (scan, reduce, allreduce, gather, …) is fed a state that
//!   is only meaningful on rank 0 (`RootOnly` after a reduce/gather) or
//!   undefined (`⊥`). The program still *runs* — every rank holds some
//!   value — but the non-root inputs are stale operands, which is the
//!   classic silently-wrong-answer bug in SPMD pipelines.
//! * `COL011` — **divisibility hazard**: the cost model picks a
//!   segmenting (reduce-scatter-based) lowering for an `allreduce` stage
//!   at this machine point, but `m mod p ≠ 0`, so the segments are ragged
//!   and the critical path serializes on the longest one. Fires only
//!   when the segmenting lowering actually *wins* the cost comparison —
//!   a blanket `m mod p` check would flag machines where the butterfly
//!   runs anyway. `reduce` is exempt: the executor lowers it to the
//!   binomial tree whatever the cost model prefers, while an `allreduce`
//!   takes the selected lowering under `ExecConfig::adaptive_reduction`.
//!
//! The pass is part of [`crate::lint::lint_program`]; `COL012` (a
//! suggested rewrite narrows the final distribution to rank 0) lives in
//! the fusion pass, which knows the matched rewrite's `rank0_only` flag.

use collopt_collectives::variants::{choose_allreduce, AllreduceChoice};
use collopt_core::dist::{consumes_all_ranks, transfer, DistState};
use collopt_core::parser::Span;
use collopt_core::term::{Program, Stage};
use collopt_machine::ClockParams;

use crate::lint::{Diagnostic, LintConfig, Severity};

/// The abstract distribution state after every stage: `states[i]` is the
/// state *entering* stage `i`; the final element is the pipeline's
/// post-state.
pub fn dist_trace(prog: &Program) -> Vec<DistState> {
    let mut states = Vec::with_capacity(prog.len() + 1);
    let mut state = DistState::Blocked;
    states.push(state);
    for stage in prog.stages() {
        state = transfer(state, stage);
        states.push(state);
    }
    states
}

/// COL007 + COL011 over one program. Appends to `diags`; the caller
/// sorts.
pub fn distflow_pass(
    prog: &Program,
    spans: Option<&[Span]>,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let states = dist_trace(prog);
    let clock = ClockParams::new(cfg.params.ts, cfg.params.tw);
    let p = cfg.params.p;
    let m = (cfg.block.max(1.0)) as u64;
    for (i, stage) in prog.stages().iter().enumerate() {
        let incoming = states[i];
        if consumes_all_ranks(stage) && !incoming.all_ranks_meaningful() {
            let producer = if i == 0 {
                "the pipeline input".to_string()
            } else {
                format!("stage {} (`{}`)", i - 1, prog.stages()[i - 1].describe())
            };
            diags.push(Diagnostic {
                code: "COL007",
                severity: Severity::Warning,
                message: format!(
                    "distribution mismatch: `{}` consumes data on every rank but {producer} \
                     leaves the distribution {} — non-root ranks feed stale operands into the \
                     collective; broadcast first or switch to an all-variant",
                    stage.describe(),
                    incoming.name(),
                ),
                stage: i,
                len: 1,
                span: spans.and_then(|s| s.get(i).copied()),
                suggestion: None,
            });
        }
        let segmenting: Option<&str> = match stage {
            Stage::AllReduce(op) => {
                match choose_allreduce(p, m, op.ops_per_word(), op.is_commutative(), &clock) {
                    AllreduceChoice::Rabenseifner => {
                        Some("rabenseifner (reduce-scatter + allgather)")
                    }
                    AllreduceChoice::Ring => Some("ring (reduce-scatter + ring allgather)"),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(lowering) = segmenting {
            if !m.is_multiple_of(p as u64) {
                diags.push(Diagnostic {
                    code: "COL011",
                    severity: Severity::Warning,
                    message: format!(
                        "divisibility hazard: the cost model lowers `{}` to {lowering} at \
                         p = {p}, m = {m}, but p does not divide m — ragged segments serialize \
                         the critical path; pad the block to {padded} words or choose p | m",
                        stage.describe(),
                        padded = m.next_multiple_of(p as u64),
                    ),
                    stage: i,
                    len: 1,
                    span: spans.and_then(|s| s.get(i).copied()),
                    suggestion: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_core::op::lib;

    #[test]
    fn reduce_then_scan_is_a_distribution_mismatch() {
        let prog = Program::new().reduce(lib::add()).scan(lib::add());
        let mut diags = Vec::new();
        distflow_pass(&prog, None, &LintConfig::default(), &mut diags);
        assert!(
            diags.iter().any(|d| d.code == "COL007" && d.stage == 1),
            "{diags:?}"
        );
    }

    #[test]
    fn bcast_repairs_the_mismatch() {
        let prog = Program::new().reduce(lib::add()).bcast().scan(lib::add());
        let mut diags = Vec::new();
        distflow_pass(&prog, None, &LintConfig::default(), &mut diags);
        assert!(diags.iter().all(|d| d.code != "COL007"), "{diags:?}");
    }

    #[test]
    fn default_config_does_not_fire_col011_on_plain_allreduce() {
        // At the default machine (p = 64, ts = 200, tw = 2, m = 32) the
        // butterfly wins the cost comparison, so no divisibility hazard
        // even though 64 does not divide 32.
        let prog = Program::new().allreduce(lib::add());
        let mut diags = Vec::new();
        distflow_pass(&prog, None, &LintConfig::default(), &mut diags);
        assert!(diags.iter().all(|d| d.code != "COL011"), "{diags:?}");
    }

    #[test]
    fn ragged_segmenting_point_fires_col011() {
        // p = 16, m = 4097: rabenseifner wins by a wide margin and
        // 4097 mod 16 = 1.
        let cfg = LintConfig {
            params: collopt_cost::MachineParams::new(16, 200.0, 2.0),
            block: 4097.0,
            ..LintConfig::default()
        };
        let prog = Program::new().allreduce(lib::add());
        let mut diags = Vec::new();
        distflow_pass(&prog, None, &cfg, &mut diags);
        assert!(diags.iter().any(|d| d.code == "COL011"), "{diags:?}");
    }

    #[test]
    fn col011_names_only_lowerings_that_can_run() {
        // At p = 8, m = 1 000 001 the cost model prefers reduce-scatter +
        // gather for `reduce` — a lowering the executor never runs — and
        // Rabenseifner for `allreduce`, which the adaptive path does run.
        let cfg = LintConfig {
            params: collopt_cost::MachineParams::new(8, 200.0, 2.0),
            block: 1_000_001.0,
            ..LintConfig::default()
        };
        for (prog, fires) in [
            (Program::new().reduce(lib::add()), false),
            (Program::new().allreduce(lib::add()), true),
        ] {
            let mut diags = Vec::new();
            distflow_pass(&prog, None, &cfg, &mut diags);
            let col011 = diags.iter().any(|d| d.code == "COL011");
            assert_eq!(col011, fires, "{prog}: {diags:?}");
        }
    }

    #[test]
    fn trace_tracks_the_lattice() {
        let prog = Program::new().scan(lib::add()).reduce(lib::add()).bcast();
        let t = dist_trace(&prog);
        assert_eq!(
            t,
            vec![
                DistState::Blocked,
                DistState::Scanned,
                DistState::RootOnly,
                DistState::Replicated
            ]
        );
    }
}
