//! The planted-bug drill: an operator that lies about its algebra must be
//! caught by every layer of the analyzer.
//!
//! The planted operator is subtraction declared `.commutative()` — it is
//! neither associative nor commutative, so any scan/reduce fusion built on
//! it computes the wrong answer. Three independent defenses must all fire,
//! deterministically (the sample pools are seeded):
//!
//! 1. the **audited rewriter** refuses the fusion and reports a shrunk
//!    counterexample;
//! 2. the **certificate validator** refutes the certificate the trusting
//!    engine hands out;
//! 3. the **linter** reports the mis-declaration as a `COL002` error.
//!
//! The drill also runs in the *opposite* direction: an operator that
//! **withholds** a true law (min without `.commutative()`) must cost the
//! engine the fusion, be reported by the auditor as an under-claim and by
//! the linter as `COL005` — and declaring the law must unlock a fusion
//! every layer then approves. The [`collopt::fuzz`] defense oracle pins
//! the same unanimity contract on generated pipelines.

use collopt::analysis::{
    audit_operator, lint_program, samples_for_domain, validate_result, AuditConfig,
    CertificateIssue, Domain, LintConfig, Severity,
};
use collopt::prelude::*;

/// Subtraction, dishonestly declared commutative. Associativity is implied
/// by `BinOp::new`, so the declaration carries two lies.
fn lying_sub() -> BinOp {
    BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative()
}

fn planted_program() -> Program {
    Program::new().scan(lying_sub()).reduce(lying_sub())
}

#[test]
fn trusting_engine_fuses_the_planted_bug() {
    // Baseline: declaration-trusting rewriting applies SR-Reduction on the
    // lie. This is the hole the analyzer exists to close.
    let res = Rewriter::exhaustive().optimize(&planted_program());
    assert_eq!(res.steps.len(), 1);
    assert_eq!(res.steps[0].rule, Rule::SrReduction);
}

#[test]
fn audited_rewriter_refuses_with_shrunk_counterexample() {
    let samples = samples_for_domain(Domain::Int, &AuditConfig::default());
    let res = Rewriter::exhaustive()
        .audited(samples)
        .optimize(&planted_program());
    assert!(
        res.steps.is_empty(),
        "audited engine must not fuse: {res:?}"
    );
    assert!(!res.rejections.is_empty());
    let rej = &res.rejections[0];
    assert_eq!(rej.rule, Rule::SrReduction);
    assert!(rej.law.contains("of sub"), "law: {}", rej.law);
    assert!(
        rej.counterexample.distinct_values() <= 3,
        "counterexample not shrunk: {}",
        rej.counterexample
    );
    // Refusing the fusion leaves the program semantically intact.
    assert_eq!(res.program.to_string(), planted_program().to_string());
}

#[test]
fn certificate_validator_refutes_the_trusting_engines_certificate() {
    let res = Rewriter::exhaustive().optimize(&planted_program());
    let samples = samples_for_domain(Domain::Int, &AuditConfig::default());
    let issues = validate_result(&res, &samples, &AuditConfig::default());
    assert!(
        issues
            .iter()
            .any(|i| matches!(i, CertificateIssue::LawViolated { law, .. } if law.contains("sub"))),
        "{issues:?}"
    );
}

#[test]
fn linter_reports_the_mis_declaration_as_col002() {
    // `sub` is not a builtin; the fallback domain tells the auditor what
    // to enumerate.
    let cfg = LintConfig {
        fallback_domain: Some(Domain::Int),
        ..LintConfig::default()
    };
    let report = lint_program(&planted_program(), None, &cfg);
    let col002: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "COL002")
        .collect();
    assert!(!col002.is_empty(), "{:#?}", report.diagnostics);
    for d in &col002 {
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("sub"), "{}", d.message);
    }
    assert!(report.errors() > 0);
}

#[test]
fn auditor_witnesses_are_deterministic_across_runs() {
    let cfg = AuditConfig::default();
    let a = audit_operator(&lying_sub(), Domain::Int, &[], &cfg);
    let b = audit_operator(&lying_sub(), Domain::Int, &[], &cfg);
    assert!(!a.is_sound() && !b.is_sound());
    let render = |audit: &collopt::analysis::OpAudit| {
        audit
            .over_claims
            .iter()
            .map(|c| format!("{}: {}", c.law, c.counterexample))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(&a), render(&b));
}

/// Minimum, honestly implemented but *shy*: commutativity holds on all of
/// ℤ yet is never declared. The symmetric planted case to [`lying_sub`].
fn shy_min() -> BinOp {
    BinOp::new("shymin", |a, b| Value::Int(a.as_int().min(b.as_int())))
}

fn underclaimed_program() -> Program {
    Program::new().scan(shy_min()).reduce(shy_min())
}

#[test]
fn trusting_engine_misses_the_underclaimed_fusion() {
    // The declaration is the rewriter's only evidence: withholding a true
    // law forfeits SR-Reduction, silently — no wrong answer, just the
    // paper's speedup left on the table.
    let res = Rewriter::exhaustive().optimize(&underclaimed_program());
    assert!(res.steps.is_empty(), "{res:?}");
}

#[test]
fn auditor_reports_the_withheld_law_as_under_claim() {
    let audit = audit_operator(&shy_min(), Domain::Int, &[], &AuditConfig::default());
    // No over-claims: the operator never lies...
    assert!(audit.is_sound(), "{:?}", audit.over_claims);
    // ...but the auditor names the law it left unclaimed, and the exact
    // builder call that would claim it.
    let comm = audit
        .under_claims
        .iter()
        .find(|u| u.law.contains("commutativity of shymin"))
        .unwrap_or_else(|| panic!("{:?}", audit.under_claims));
    assert!(
        comm.declaration.contains("commutative"),
        "declaration hint: {}",
        comm.declaration
    );
}

#[test]
fn linter_reports_the_withheld_law_as_col005_not_col002() {
    let cfg = LintConfig {
        fallback_domain: Some(Domain::Int),
        ..LintConfig::default()
    };
    let report = lint_program(&underclaimed_program(), None, &cfg);
    assert!(
        !report.diagnostics.iter().any(|d| d.code == "COL002"),
        "an under-claim is not an error: {:#?}",
        report.diagnostics
    );
    let col005: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "COL005" && d.message.contains("commutativity of shymin"))
        .collect();
    assert!(!col005.is_empty(), "{:#?}", report.diagnostics);
    for d in &col005 {
        assert_eq!(d.severity, Severity::Note);
    }
    assert_eq!(report.errors(), 0);
}

#[test]
fn declaring_the_withheld_law_unlocks_a_fusion_every_layer_approves() {
    let honest = BinOp::new("shymin", |a, b| Value::Int(a.as_int().min(b.as_int()))).commutative();
    let prog = Program::new().scan(honest.clone()).reduce(honest.clone());
    let samples = samples_for_domain(Domain::Int, &AuditConfig::default());
    let res = Rewriter::exhaustive()
        .audited(samples.clone())
        .optimize(&prog);
    assert_eq!(res.steps.len(), 1);
    assert_eq!(res.steps[0].rule, Rule::SrReduction);
    assert!(res.rejections.is_empty(), "{:?}", res.rejections);
    assert!(validate_result(&res, &samples, &AuditConfig::default()).is_empty());
    let cfg = LintConfig {
        fallback_domain: Some(Domain::Int),
        ..LintConfig::default()
    };
    let report = lint_program(&prog, None, &cfg);
    assert_eq!(report.errors(), 0, "{:#?}", report.diagnostics);
}

#[test]
fn fuzz_defense_oracle_is_unanimous_in_both_directions() {
    // The same contract, enforced on generated table operators by the
    // fuzz stack's defense oracle: an over-claim must be flagged by every
    // layer, an under-claim by none of the error-level ones. Both specs
    // are corpus-style and replayable via `collopt fuzz --replay`.
    use collopt::fuzz::{run_case, CaseSpec, CoverageLedger};

    // Left projection declared commutative — a lie (over-claim).
    let lie = CaseSpec::parse(
        "v1|seed=103|p=2|m=1|domain=table|\
         prog=scan(t0) ; reduce(t0)|tables=t0:0000111122223333:c|plan=none|fuse=none",
    )
    .expect("over-claim spec parses");
    let mut ledger = CoverageLedger::new();
    let failures = run_case(&lie, &mut ledger);
    assert!(failures.is_empty(), "{}", failures[0]);
    assert_eq!(
        ledger.lies_caught, 1,
        "over-claim must be caught unanimously"
    );

    // Min without `.commutative()` — the truth, withheld (under-claim).
    let shy = CaseSpec::parse(
        "v1|seed=105|p=2|m=1|domain=table|\
         prog=scan(t0) ; allreduce(t0)|tables=t0:0000011101220123:-|plan=none|fuse=none",
    )
    .expect("under-claim spec parses");
    let mut ledger = CoverageLedger::new();
    let failures = run_case(&shy, &mut ledger);
    assert!(failures.is_empty(), "{}", failures[0]);
    assert_eq!(ledger.under_claim_cases, 1);
    assert_eq!(ledger.lies_caught, 0, "nothing to catch: no over-claims");
}

#[test]
fn honest_pipeline_passes_every_layer() {
    // Control: the same shape with a sound operator fuses, validates, and
    // lints without errors.
    let prog = Program::new().scan(ops::add()).reduce(ops::add());
    let samples = samples_for_domain(Domain::Int, &AuditConfig::default());
    let res = Rewriter::exhaustive()
        .audited(samples.clone())
        .optimize(&prog);
    assert_eq!(res.steps.len(), 1);
    assert!(res.rejections.is_empty());
    assert!(validate_result(&res, &samples, &AuditConfig::default()).is_empty());
    let report = lint_program(&prog, None, &LintConfig::default());
    assert_eq!(report.errors(), 0, "{:#?}", report.diagnostics);
}
