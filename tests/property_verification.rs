//! The rewriter's property-verification safety net.
//!
//! The rules are only sound if the declared operator algebra is true. A
//! user can declare anything; `Rewriter::audited` re-checks the
//! side condition on sample values before each application and skips
//! rules whose condition fails — turning a silent wrong-answer bug into a
//! skipped optimization.

use collopt::core::semantics::eval_program;
use collopt::prelude::*;

fn ints(vs: &[i64]) -> Vec<Value> {
    vs.iter().map(|&v| Value::Int(v)).collect()
}

fn int_samples() -> Vec<Value> {
    vec![
        Value::Int(-3),
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Int(5),
    ]
}

/// Subtraction, *falsely* declared associative and commutative.
fn lying_sub() -> BinOp {
    BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative()
}

/// Multiplication *falsely* declared to distribute over max
/// (fails for negative operands: -1·max(0,1) = -1 ≠ max(0,-1) = 0).
fn lying_mul() -> BinOp {
    BinOp::new("mul", |a, b| Value::Int(a.as_int() * b.as_int()))
        .commutative()
        .distributes_over_op("max")
}

#[test]
fn unverified_rewriter_trusts_lies_and_gets_wrong_answers() {
    let prog = Program::new().scan(lying_sub()).allreduce(lying_sub());
    let opt = Rewriter::exhaustive().optimize(&prog);
    assert_eq!(
        opt.steps.len(),
        1,
        "SR-Reduction fires on the (false) declaration"
    );
    let input = ints(&[10, 1, 2, 3]);
    // The fused program computes something different — the lie bites.
    assert_ne!(
        eval_program(&prog, &input),
        eval_program(&opt.program, &input)
    );
}

#[test]
fn verified_rewriter_skips_rules_with_false_conditions() {
    let prog = Program::new().scan(lying_sub()).allreduce(lying_sub());
    let opt = Rewriter::exhaustive()
        .audited(int_samples())
        .optimize(&prog);
    assert!(
        opt.steps.is_empty(),
        "verification must reject non-associative sub"
    );
}

#[test]
fn verified_rewriter_rejects_false_distributivity() {
    let prog = Program::new().scan(lying_mul()).allreduce(ops::max());
    // Without verification, SR2 fires on the declaration.
    let blind = Rewriter::exhaustive().optimize(&prog);
    assert_eq!(blind.steps.len(), 1);
    // With verification over samples containing negatives, it is skipped.
    let checked = Rewriter::exhaustive()
        .audited(int_samples())
        .optimize(&prog);
    assert!(checked.steps.is_empty());
    // And indeed the blind rewrite is wrong on a negative input — on the
    // *machine*, whose butterfly allreduce combines tree-shaped and so
    // actually exercises the (false) associativity of the fused operator.
    // (A sequential left-to-right fold of op_sr2 happens to stay correct,
    // which is exactly why declared-but-unverified algebra is insidious.)
    let input = ints(&[-1, 2, -3, 4]);
    let truth = execute(&prog, &input, ClockParams::free());
    let fused = execute(&blind.program, &input, ClockParams::free());
    assert_ne!(
        truth.outputs, fused.outputs,
        "the false distributivity produces a wrong answer under tree combining"
    );
    // max over prefix products of [-1,2,-3,4] = 24; the broken tree gives 6.
    assert_eq!(truth.outputs[0], Value::Int(24));
    assert_eq!(fused.outputs[0], Value::Int(6));
}

#[test]
fn verified_rewriter_still_applies_true_rules() {
    let prog = Program::new().scan(ops::mul()).allreduce(ops::add());
    let opt = Rewriter::exhaustive()
        .audited(int_samples())
        .optimize(&prog);
    assert_eq!(opt.steps.len(), 1);
    let input = ints(&[2, -1, 3, 2]);
    assert_eq!(
        eval_program(&prog, &input),
        eval_program(&opt.program, &input)
    );
}

#[test]
fn verification_accepts_true_commutativity_and_tropical_distributivity() {
    for prog in [
        Program::new().scan(ops::add()).scan(ops::add()),
        Program::new()
            .scan(ops::add_tropical())
            .allreduce(ops::max()),
        Program::new().bcast().scan(ops::add()).scan(ops::add()),
    ] {
        let opt = Rewriter::exhaustive()
            .audited(int_samples())
            .optimize(&prog);
        assert_eq!(opt.steps.len(), 1, "{prog}");
    }
}

#[test]
fn verification_composes_with_cost_guidance() {
    let params = MachineParams::parsytec_like(16);
    // True condition + profitable: fires.
    let good = Program::new().scan(ops::add()).allreduce(ops::add());
    let r = Rewriter::cost_guided(params, 1.0)
        .audited(int_samples())
        .optimize(&good);
    assert_eq!(r.steps.len(), 1);
    // False condition + (would-be) profitable: skipped.
    let bad = Program::new().scan(lying_sub()).allreduce(lying_sub());
    let r = Rewriter::cost_guided(params, 1.0)
        .audited(int_samples())
        .optimize(&bad);
    assert!(r.steps.is_empty());
}
