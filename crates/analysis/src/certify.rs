//! End-to-end validation of rewrite certificates.
//!
//! Every [`RewriteStep`] produced by the engine carries a
//! [`Certificate`]: the algebraic laws, bound to concrete operators, whose
//! truth the applied rule's correctness proof assumes. This module
//! re-checks a whole [`OptimizeResult`] after the fact:
//!
//! 1. **structure** — the certificate's rule matches the step's rule and
//!    carries every law *kind* that rule's side condition demands (a
//!    distributivity rule without a `DistributesOver` law is a forged
//!    certificate, whatever its laws say);
//! 2. **semantics** — every law is re-verified by counterexample search
//!    over a sample pool for the operators' domain.
//!
//! Validation is independent of the engine: it reconstructs nothing from
//! the programs, only judges what the certificates claim.

use collopt_core::dist::{expected_post, expected_pre, DistState};
use collopt_core::op::{Counterexample, RequiredLaw};
use collopt_core::rewrite::{Certificate, OptimizeResult, RewriteStep};
use collopt_core::rules::Rule;
use collopt_core::value::Value;
use collopt_cost::table1::Laws;

use crate::audit::{domain_of_builtin, exactness_of, samples_for_domain, AuditConfig, Exactness};

/// A defect found in a step's certificate.
#[derive(Debug, Clone)]
pub enum CertificateIssue {
    /// The certificate was issued for a different rule than the step
    /// applied.
    RuleMismatch {
        /// Index of the step in `OptimizeResult::steps`.
        step: usize,
        /// Rule the step applied.
        applied: Rule,
        /// Rule the certificate claims.
        certified: Rule,
    },
    /// The rule's side condition demands a law kind the certificate does
    /// not carry.
    MissingLaw {
        /// Index of the step in `OptimizeResult::steps`.
        step: usize,
        /// The rule in question.
        rule: Rule,
        /// The missing kind: `"associativity"`, `"commutativity"`, or
        /// `"distributivity"`.
        kind: &'static str,
    },
    /// The certificate's distribution pre/post-condition disagrees with
    /// what the rule (and the step's `rank0_only` instantiation)
    /// guarantees — a forged or stale condition.
    DistMismatch {
        /// Index of the step in `OptimizeResult::steps`.
        step: usize,
        /// The rule in question.
        rule: Rule,
        /// Which condition: `"pre"` or `"post"`.
        which: &'static str,
        /// The state the rule guarantees.
        expected: DistState,
        /// The state the certificate claims.
        certified: DistState,
    },
    /// A certified law fails on re-verification.
    LawViolated {
        /// Index of the step in `OptimizeResult::steps`.
        step: usize,
        /// The rule in question.
        rule: Rule,
        /// The violated law, e.g. `"commutativity of sub"`.
        law: String,
        /// Shrunk refuting witness.
        counterexample: Counterexample,
    },
}

impl std::fmt::Display for CertificateIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateIssue::RuleMismatch {
                step,
                applied,
                certified,
            } => write!(
                f,
                "step {step}: certificate issued for {certified} but step applied {applied}"
            ),
            CertificateIssue::MissingLaw { step, rule, kind } => {
                write!(
                    f,
                    "step {step}: {rule} requires a {kind} law, none certified"
                )
            }
            CertificateIssue::DistMismatch {
                step,
                rule,
                which,
                expected,
                certified,
            } => write!(
                f,
                "step {step}: {rule} guarantees {which}-distribution {} but the certificate \
                 claims {}",
                expected.name(),
                certified.name()
            ),
            CertificateIssue::LawViolated {
                step,
                rule,
                law,
                counterexample,
            } => write!(
                f,
                "step {step}: {rule} certified on {law}, which fails — {counterexample}"
            ),
        }
    }
}

/// The law kinds a rule's side condition demands: associativity, plus
/// its law class's commutativity or distributivity.
pub fn required_kinds(rule: Rule) -> &'static [&'static str] {
    match rule.spec().laws {
        Laws::Associative => &["associativity"],
        Laws::Commutative => &["associativity", "commutativity"],
        Laws::Distributive { .. } => &["associativity", "distributivity"],
    }
}

fn kind_of(law: &RequiredLaw) -> &'static str {
    match law {
        RequiredLaw::Associative(_) => "associativity",
        RequiredLaw::Commutative(_) => "commutativity",
        RequiredLaw::DistributesOver(..) => "distributivity",
    }
}

/// The sample pool to re-verify a certificate's laws on: the common
/// builtin domain of all the operators involved, or `None` when an
/// operator is unknown or the operators mix domains (the caller must then
/// supply samples explicitly).
pub fn samples_for_certificate(cert: &Certificate, cfg: &AuditConfig) -> Option<Vec<Value>> {
    let mut domain = None;
    for law in &cert.laws {
        for op in law.borrowed().operators() {
            let d = domain_of_builtin(op.name())?;
            match domain {
                None => domain = Some(d),
                Some(prev) if prev == d => {}
                Some(_) => return None,
            }
        }
    }
    domain.map(|d| samples_for_domain(d, cfg))
}

/// Validate one step's certificate on the given samples (`rtol` applies
/// to float comparisons; pass `0.0` for exact domains).
pub fn validate_step(
    index: usize,
    step: &RewriteStep,
    samples: &[Value],
    rtol: f64,
) -> Vec<CertificateIssue> {
    let mut issues = Vec::new();
    let cert = &step.certificate;
    if cert.rule != step.rule {
        issues.push(CertificateIssue::RuleMismatch {
            step: index,
            applied: step.rule,
            certified: cert.rule,
        });
    }
    for kind in required_kinds(step.rule) {
        if !cert.laws.iter().any(|l| kind_of(l) == *kind) {
            issues.push(CertificateIssue::MissingLaw {
                step: index,
                rule: step.rule,
                kind,
            });
        }
    }
    let want_pre = expected_pre(step.rule);
    if cert.dist_pre != want_pre {
        issues.push(CertificateIssue::DistMismatch {
            step: index,
            rule: step.rule,
            which: "pre",
            expected: want_pre,
            certified: cert.dist_pre,
        });
    }
    let want_post = expected_post(step.rule, step.rank0_only);
    if cert.dist_post != want_post {
        issues.push(CertificateIssue::DistMismatch {
            step: index,
            rule: step.rule,
            which: "post",
            expected: want_post,
            certified: cert.dist_post,
        });
    }
    for law in &cert.laws {
        // Only structural checks apply to a fused tuple operator's laws.
        if law.holds_by_construction() {
            continue;
        }
        if let Some(counterexample) = law.counterexample_with(samples, rtol) {
            issues.push(CertificateIssue::LawViolated {
                step: index,
                rule: step.rule,
                law: law.describe(),
                counterexample,
            });
        }
    }
    issues
}

/// Validate every certificate of an optimization run end-to-end. Sample
/// pools are chosen per certificate from the builtin operator domains;
/// certificates over unknown operators fall back to `fallback_samples`
/// (skipping semantic re-verification when that is empty).
pub fn validate_result(
    res: &OptimizeResult,
    fallback_samples: &[Value],
    cfg: &AuditConfig,
) -> Vec<CertificateIssue> {
    let mut issues = Vec::new();
    for (index, step) in res.steps.iter().enumerate() {
        let (samples, rtol) = match samples_for_certificate(&step.certificate, cfg) {
            Some(samples) => {
                let rtol = step
                    .certificate
                    .laws
                    .first()
                    .and_then(|l| domain_of_builtin(l.borrowed().operators().next()?.name()))
                    .map_or(0.0, |d| match exactness_of(d) {
                        Exactness::Approximate => cfg.tolerance,
                        Exactness::Exact => 0.0,
                    });
                (samples, rtol)
            }
            None => (fallback_samples.to_vec(), cfg.tolerance),
        };
        if samples.is_empty() {
            // Structural checks still run; semantic re-verification is
            // impossible without a domain.
            issues.extend(validate_step(index, step, &[], 0.0));
            continue;
        }
        issues.extend(validate_step(index, step, &samples, rtol));
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_core::op::lib;
    use collopt_core::rewrite::Rewriter;
    use collopt_core::term::Program;

    #[test]
    fn engine_output_validates_end_to_end() {
        let prog = Program::new()
            .map("f", 1.0, |v| v.clone())
            .scan(lib::mul())
            .reduce(lib::add())
            .bcast()
            .scan(lib::add());
        let res = Rewriter::exhaustive().optimize(&prog);
        assert!(!res.steps.is_empty());
        let issues = validate_result(&res, &[], &AuditConfig::default());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn float_pipeline_validates_at_tolerance() {
        let prog = Program::new().scan(lib::fmul()).allreduce(lib::fadd());
        let res = Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        let issues = validate_result(&res, &[], &AuditConfig::default());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn forged_certificate_is_rejected() {
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let mut res = Rewriter::exhaustive().optimize(&prog);
        // Strip the distributivity law off the SR2 certificate.
        res.steps[0]
            .certificate
            .laws
            .retain(|l| !matches!(l, RequiredLaw::DistributesOver(..)));
        let issues = validate_result(&res, &[], &AuditConfig::default());
        assert!(issues.iter().any(|i| matches!(
            i,
            CertificateIssue::MissingLaw {
                kind: "distributivity",
                ..
            }
        )));
    }

    #[test]
    fn forged_distribution_postcondition_is_rejected() {
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let mut res = Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        // `scan ; reduce` fuses rank0-only: the honest post-state is ⊥.
        assert!(res.steps[0].rank0_only);
        assert_eq!(res.steps[0].certificate.dist_post, DistState::Bottom);
        res.steps[0].certificate.dist_post = DistState::Replicated;
        let issues = validate_result(&res, &[], &AuditConfig::default());
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, CertificateIssue::DistMismatch { which: "post", .. })),
            "{issues:?}"
        );
    }

    fn lying_sub() -> collopt_core::op::BinOp {
        collopt_core::op::BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int()))
            .commutative()
    }

    #[test]
    fn lying_certificate_law_is_refuted() {
        let lying = lying_sub();
        let prog = Program::new().scan(lying.clone()).reduce(lying);
        let res = Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1, "declaration-trusting engine fuses");
        // `sub` is not a builtin: validation uses the fallback pool.
        let samples: Vec<Value> = [-3i64, 0, 1, 4].map(Value::Int).to_vec();
        let issues = validate_result(&res, &samples, &AuditConfig::default());
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, CertificateIssue::LawViolated { .. })),
            "{issues:?}"
        );
    }
}
