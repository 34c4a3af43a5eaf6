//! Distribution-state dataflow analysis over collective pipelines.
//!
//! An abstract interpreter over the distribution lattice of
//! [`collopt_core::dist`]: starting from the paper's input convention
//! (the list is block-distributed over all processors) each stage's
//! transfer function maps the incoming [`DistState`] to the outgoing
//! one. One lint falls out:
//!
//! * `COL007` — **distribution mismatch**: a stage that consumes data on
//!   every rank (scan, reduce, allreduce, gather, …) is fed a state that
//!   is only meaningful on rank 0 (`RootOnly` after a reduce/gather) or
//!   undefined (`⊥`). The program still *runs* — every rank holds some
//!   value — but the non-root inputs are stale operands, which is the
//!   classic silently-wrong-answer bug in SPMD pipelines.
//!
//! `COL011` (a divisibility hazard of segmenting lowerings) is retired:
//! every stage runs its one fixed lowering, and none of them segments
//! the block, so its number is not reused.
//!
//! The pass is part of [`crate::lint::lint_program`]; `COL012` (a
//! suggested rewrite narrows the final distribution to rank 0) lives in
//! the fusion pass, which knows the matched rewrite's `rank0_only` flag.

use collopt_core::dist::{consumes_all_ranks, transfer, DistState};
use collopt_core::parser::Span;
use collopt_core::term::Program;

use crate::lint::{Diagnostic, Severity};

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

/// COL007 over one program. Appends to `diags`; the caller sorts.
pub fn distflow_pass(prog: &Program, spans: Option<&[Span]>, diags: &mut Vec<Diagnostic>) {
    let states = dist_trace(prog);
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
        distflow_pass(&prog, None, &mut diags);
        assert!(
            diags.iter().any(|d| d.code == "COL007" && d.stage == 1),
            "{diags:?}"
        );
    }

    #[test]
    fn bcast_repairs_the_mismatch() {
        let prog = Program::new().reduce(lib::add()).bcast().scan(lib::add());
        let mut diags = Vec::new();
        distflow_pass(&prog, None, &mut diags);
        assert!(diags.iter().all(|d| d.code != "COL007"), "{diags:?}");
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
