//! Mechanized rule derivations (Section 3.4's corollary remarks).
//!
//! The paper presents BSS2-Comcast as "a corollary of two previous rules,
//! SS2-Scan and BS-Comcast", and then observes: "It would be tempting to
//! obtain also a rule BSS-Comcast as a corollary of SS-Scan and
//! BS-Comcast. Interestingly enough, this does not work: the binary
//! operation used in the SS-Scan is not associative, so that BS-Comcast
//! cannot be applied afterwards."
//!
//! This suite replays both derivations mechanically through the rewrite
//! engine and checks each claim:
//!
//! 1. applying SS2-Scan inside `bcast; scan(⊗); scan(⊕)` and then
//!    BS-Comcast (after the normalizer commutes the auxiliary `map pair`
//!    out of the way) yields a program equivalent to the direct
//!    BSS2-Comcast result;
//! 2. the direct rule is *cheaper* than the derived composition (the
//!    fused `e`/`o` of BSS2 cost 3/5 operations versus 3/6 for
//!    BS-over-`op_sr2`), which is why the paper states it as its own rule;
//! 3. after SS-Scan, the window holds a `scan_balanced` with a
//!    non-associative paired operator, and BS-Comcast does **not** match —
//!    the paper's negative result, reproduced by the matcher.

use collopt::core::rules::{try_match, window_len, Rule};
use collopt::core::semantics::eval_program;
use collopt::prelude::*;

fn apply_at(prog: &Program, rule: Rule, at: usize) -> Program {
    let rw = try_match(rule, &prog.stages()[at..])
        .unwrap_or_else(|| panic!("{rule} must match {prog} at {at}"));
    prog.splice(at, window_len(rule), rw.stages)
}

#[test]
fn bss2_is_a_corollary_of_ss2_and_bs() {
    let original = Program::new().bcast().scan(ops::mul()).scan(ops::add());

    // Derivation path: SS2-Scan on the two scans …
    let after_ss2 = apply_at(&original, Rule::Ss2Scan, 1);
    assert!(after_ss2.to_string().contains("scan(op_sr2[mul,add])"));
    // … normalize so the auxiliary `map pair` moves before the bcast …
    let (normalized, log) = collopt::core::rules::enabling::normalize(&after_ss2);
    assert!(!log.is_empty(), "bcast/map commutation must fire");
    // … and BS-Comcast on the now-adjacent bcast; scan window.
    let bcast_at = normalized
        .stages()
        .iter()
        .position(|s| matches!(s, collopt::core::Stage::Bcast))
        .expect("bcast still present");
    let derived = apply_at(&normalized, Rule::BsComcast, bcast_at);
    assert_eq!(derived.collective_count(), 1);

    // The direct rule.
    let direct = apply_at(&original, Rule::Bss2Comcast, 0);
    assert_eq!(direct.collective_count(), 1);

    // Both equal the original, on all processors, for several sizes.
    for p in [1usize, 2, 5, 8, 11] {
        let mut input = vec![Value::Int(0); p];
        input[0] = Value::Int(2);
        let want = eval_program(&original, &input);
        assert_eq!(eval_program(&derived, &input), want, "derived p={p}");
        assert_eq!(eval_program(&direct, &input), want, "direct p={p}");
        let run_derived = execute(&derived, &input, ClockParams::free());
        let run_direct = execute(&direct, &input, ClockParams::free());
        assert_eq!(run_derived.outputs, want);
        assert_eq!(run_direct.outputs, want);
    }

    // … but the direct rule is cheaper: the derived comcast pays the full
    // op_sr2 `o` (6 ops/element) where BSS2's fused `o` pays 5.
    let params = MachineParams::parsytec_like(64);
    for m in [1.0, 32.0, 1024.0] {
        let c_direct = program_cost(&direct, &params, m);
        let c_derived = program_cost(&derived, &params, m);
        assert!(
            c_direct <= c_derived,
            "direct {c_direct} must not exceed derived {c_derived} at m={m}"
        );
        if m > 1.0 {
            assert!(
                c_direct < c_derived,
                "strictly cheaper for real blocks (m={m})"
            );
        }
    }

    // The optimal search agrees: it picks the direct rule.
    let best = Rewriter::exhaustive()
        .saturate(&original, &params, 32.0)
        .result;
    assert_eq!(best.steps.len(), 1);
    assert_eq!(best.steps[0].rule, Rule::Bss2Comcast);
}

#[test]
fn bss_cannot_be_derived_from_ss_and_bs() {
    let original = Program::new().bcast().scan(ops::add()).scan(ops::add());

    // SS-Scan applies to the scan pair …
    let after_ss = apply_at(&original, Rule::SsScan, 1);
    assert!(after_ss.to_string().contains("scan_balanced"));

    // … the normalizer commutes `map quadruple` before the bcast …
    let (normalized, _) = collopt::core::rules::enabling::normalize(&after_ss);
    let bcast_at = normalized
        .stages()
        .iter()
        .position(|s| matches!(s, collopt::core::Stage::Bcast))
        .expect("bcast still present");

    // … but BS-Comcast does NOT match: the next stage is a balanced scan
    // with a non-associative paired operator, not a `scan(⊕)`.
    assert!(
        try_match(Rule::BsComcast, &normalized.stages()[bcast_at..]).is_none(),
        "the paper's negative result: BS-Comcast must not apply after SS-Scan"
    );

    // The direct BSS-Comcast rule exists precisely for this reason.
    let direct = apply_at(&original, Rule::BssComcast, 0);
    for p in [1usize, 3, 6, 8] {
        let mut input = vec![Value::Int(9); p];
        input[0] = Value::Int(3);
        assert_eq!(
            eval_program(&direct, &input),
            eval_program(&original, &input),
            "p={p}"
        );
    }
}

#[test]
fn bsr2_local_is_a_corollary_of_sr2_and_br() {
    // The paper: "The next rule is derived as a corollary of two previous
    // rules, SR2-Reduction and BR-Local." Replay it.
    let original = Program::new().bcast().scan(ops::mul()).reduce(ops::add());

    let after_sr2 = apply_at(&original, Rule::Sr2Reduction, 1);
    let (normalized, _) = collopt::core::rules::enabling::normalize(&after_sr2);
    let bcast_at = normalized
        .stages()
        .iter()
        .position(|s| matches!(s, collopt::core::Stage::Bcast))
        .expect("bcast still present");
    let derived = apply_at(&normalized, Rule::BrLocal, bcast_at);
    assert_eq!(derived.collective_count(), 0);

    let direct = apply_at(&original, Rule::Bsr2Local, 0);
    for p in [1usize, 2, 4, 7, 9] {
        let mut input = vec![Value::Int(0); p];
        input[0] = Value::Int(2);
        let want = eval_program(&original, &input)[0].clone();
        assert_eq!(eval_program(&derived, &input)[0], want, "derived p={p}");
        assert_eq!(eval_program(&direct, &input)[0], want, "direct p={p}");
    }
}

#[test]
fn bsr_local_cannot_be_derived_from_sr_and_br() {
    // "Deriving rule BSR-Local as a corollary of SR-Reduction and
    // BR-Local does not work, because the binary operation used in the
    // result of SR-Reduction is not associative."
    let original = Program::new().bcast().scan(ops::add()).reduce(ops::add());
    let after_sr = apply_at(&original, Rule::SrReduction, 1);
    let (normalized, _) = collopt::core::rules::enabling::normalize(&after_sr);
    let bcast_at = normalized
        .stages()
        .iter()
        .position(|s| matches!(s, collopt::core::Stage::Bcast))
        .expect("bcast still present");
    // The stage after bcast is a ReduceBalanced, not a Reduce: BR-Local
    // must not match.
    assert!(try_match(Rule::BrLocal, &normalized.stages()[bcast_at..]).is_none());
}
