//! The abstract *distribution-state* domain.
//!
//! Every pipeline value lives in one of five abstract states describing
//! which processors hold a meaningful copy after a stage:
//!
//! * [`DistState::Blocked`] — every rank holds its own block (the
//!   paper's distributed list `[x1, …, xn]`); the initial state.
//! * [`DistState::Scanned`] — every rank holds a distinct, meaningful
//!   prefix-style value (the result of `scan`, `scan_balanced`, or the
//!   comcast pattern).
//! * [`DistState::Replicated`] — every rank holds the same value
//!   (`bcast`, `allreduce`, `allgather`).
//! * [`DistState::RootOnly`] — only processor 0 holds the collective's
//!   result; the other ranks keep their *stale* previous values (the
//!   paper's treatment of `reduce`'s undefined positions, eq. 5).
//! * [`DistState::Bottom`] — only processor 0 holds a defined value at
//!   all; every other rank's content is unspecified (the `*-Local`
//!   rules' targets, which skip the non-root computation entirely).
//!
//! [`transfer`] is the abstract interpreter's transfer function: given
//! the state *before* a stage it returns the state *after*. Stages that
//! combine values from **all** ranks (`scan`, `reduce`, `allreduce`,
//! `gather`, `allgather` and the balanced forms) consume stale data when
//! fed `RootOnly` (or undefined data when fed `Bottom`) — the linter's
//! `COL007` — which [`consumes_all_ranks`] exposes.
//!
//! Rewrite certificates record the canonical pre/post states of the rule
//! they justify ([`expected_pre`] / [`expected_post`]); the validator in
//! `collopt-analysis` re-derives both from the rule table alone, so a
//! certificate whose recorded transition disagrees is forged. A rank0-only
//! application (the Local rules on their `reduce` variants) *narrows* the
//! final state from `RootOnly` to `Bottom` — the `COL012` rule-soundness
//! hole the law auditor cannot see.

use collopt_cost::table1::Pat;

use crate::rules::Rule;
use crate::term::Stage;

/// Abstract distribution state of the pipeline value between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DistState {
    /// Only rank 0 is defined; other ranks hold unspecified garbage.
    Bottom,
    /// Every rank holds its own block (the initial state).
    Blocked,
    /// Rank 0 holds the result; other ranks hold stale values.
    RootOnly,
    /// Every rank holds an identical copy.
    Replicated,
    /// Every rank holds a distinct meaningful prefix-style value.
    Scanned,
}

impl DistState {
    /// Short lowercase name, used in diagnostics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DistState::Bottom => "⊥",
            DistState::Blocked => "blocked",
            DistState::RootOnly => "root-only",
            DistState::Replicated => "replicated",
            DistState::Scanned => "scanned",
        }
    }

    /// Whether every rank holds a meaningful (non-stale, defined) value.
    pub fn all_ranks_meaningful(self) -> bool {
        matches!(
            self,
            DistState::Blocked | DistState::Replicated | DistState::Scanned
        )
    }
}

impl std::fmt::Display for DistState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a stage combines contributions from **every** rank — the
/// stages for which a `RootOnly` (or `Bottom`) input means silently
/// folding stale or undefined non-root values into the result.
pub fn consumes_all_ranks(stage: &Stage) -> bool {
    matches!(
        stage,
        Stage::Scan(_)
            | Stage::Reduce(_)
            | Stage::AllReduce(_)
            | Stage::ReduceBalanced { .. }
            | Stage::ScanBalanced { .. }
            | Stage::Gather
            | Stage::AllGather
    )
}

/// The abstract transfer function: distribution state after `stage` given
/// the state before it.
pub fn transfer(state: DistState, stage: &Stage) -> DistState {
    match stage {
        // A pointwise local computation preserves the shape; a
        // rank-indexed one makes ranks diverge again.
        Stage::Map { .. } => state,
        Stage::MapIndexed { .. } => match state {
            DistState::Bottom => DistState::Bottom,
            DistState::RootOnly => DistState::RootOnly,
            _ => DistState::Blocked,
        },
        // Root-consuming collectives: any state with a defined rank 0
        // works, and they re-establish a well-defined global state.
        Stage::Bcast => DistState::Replicated,
        Stage::Scatter => DistState::Blocked,
        Stage::Comcast { .. } => DistState::Scanned,
        // All-rank-consuming collectives.
        Stage::Scan(_) | Stage::ScanBalanced { .. } => DistState::Scanned,
        Stage::Reduce(_) | Stage::Gather => DistState::RootOnly,
        Stage::AllReduce(_) | Stage::AllGather => DistState::Replicated,
        Stage::ReduceBalanced { all, .. } => {
            if *all {
                DistState::Replicated
            } else {
                DistState::RootOnly
            }
        }
        // The Local rules' target: rank 0 computes alone. The `all`
        // variant (CR-Alllocal) runs the same local iteration on every
        // rank, so all ranks end with the same value.
        Stage::IterLocal { all, .. } => {
            if *all {
                DistState::Replicated
            } else {
                DistState::Bottom
            }
        }
    }
}

/// Canonical distribution state a rule's LHS window assumes on entry.
/// Every Table-1 window starts from per-rank data (the leading `bcast`
/// of the `B*` rules consumes only rank 0's copy).
pub fn expected_pre(_rule: Rule) -> DistState {
    DistState::Blocked
}

/// Canonical distribution state after the rule's RHS, given whether the
/// application preserved only rank 0's value.
///
/// A `rank0_only` application always ends in [`DistState::Bottom`]: the
/// fused form never materializes the non-root values the LHS produced. A
/// full application ends where the LHS ends — `Scanned` after a `scan`,
/// `Replicated` after the (all)reduce variants.
pub fn expected_post(rule: Rule, rank0_only: bool) -> DistState {
    match rule.spec().last() {
        _ if rank0_only => DistState::Bottom,
        Pat::Scan(_) => DistState::Scanned,
        _ => DistState::Replicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::rewrite::Rewriter;
    use crate::term::Program;

    #[test]
    fn pipeline_states_follow_the_paper_semantics() {
        let prog = Program::new()
            .scan(lib::mul())
            .reduce(lib::add())
            .bcast()
            .scan(lib::add());
        let mut state = DistState::Blocked;
        let mut seen = Vec::new();
        for stage in prog.stages() {
            state = transfer(state, stage);
            seen.push(state);
        }
        assert_eq!(
            seen,
            vec![
                DistState::Scanned,
                DistState::RootOnly,
                DistState::Replicated,
                DistState::Scanned,
            ]
        );
    }

    #[test]
    fn every_applied_step_matches_the_canonical_transition() {
        for prog in [
            Program::new().scan(lib::mul()).reduce(lib::add()),
            Program::new().scan(lib::mul()).allreduce(lib::add()),
            Program::new().bcast().scan(lib::add()),
            Program::new().bcast().reduce(lib::add()),
            Program::new().bcast().scan(lib::mul()).reduce(lib::add()),
        ] {
            let res = Rewriter::exhaustive().optimize(&prog);
            for step in &res.steps {
                assert_eq!(step.certificate.dist_pre, expected_pre(step.rule));
                assert_eq!(
                    step.certificate.dist_post,
                    expected_post(step.rule, step.rank0_only),
                    "{}",
                    step.rule
                );
            }
        }
    }

    #[test]
    fn expected_post_is_pinned_for_all_22_instantiations() {
        use DistState::{Bottom, Replicated as R, Scanned as S};
        // `Rule::ALL` order; a full application ends where the LHS ends.
        let full = [R, R, S, S, S, S, S, R, R, R, R];
        for (rule, want) in Rule::ALL.into_iter().zip(full) {
            assert_eq!(expected_post(rule, false), want, "{rule}");
            assert_eq!(expected_post(rule, true), Bottom, "{rule}");
        }
    }

    #[test]
    fn rank0_application_narrows_to_bottom() {
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let res = Rewriter::exhaustive().optimize(&prog);
        assert!(res.steps[0].rank0_only);
        assert_eq!(res.steps[0].certificate.dist_post, DistState::Bottom);
        // The narrowing is visible against the LHS window's own post.
        let lhs_post = prog.stages().iter().fold(DistState::Blocked, transfer);
        assert_eq!(lhs_post, DistState::RootOnly);
        assert_ne!(res.steps[0].certificate.dist_post, lhs_post);
    }
}
