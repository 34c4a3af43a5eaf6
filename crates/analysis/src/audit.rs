//! The operator auditor: verify declared algebraic properties.
//!
//! The rewrite engine trusts `BinOp` *declarations* — an operator that
//! claims commutativity it does not have silently enables a wrong rule
//! (an **over-claim**, unsound), and one that omits a property it does
//! have silently forfeits a fusion (an **under-claim**, a missed
//! optimization). The auditor checks both directions for every operator:
//!
//! * **exhaustive enumeration** over a small fixed pool of domain values
//!   (every pair/triple — complete for booleans, a dense corner sweep for
//!   the numeric domains), plus
//! * **seeded randomized search** (via [`collopt_machine::rng::Rng`])
//!   over a wider bounded range,
//!
//! with counterexamples shrunk by [`RequiredLaw`]'s greedy minimizer.
//!
//! Floating-point operators are classified [`Exactness::Approximate`]:
//! their laws are checked up to the configured relative tolerance
//! (default [`collopt_core::op::FLOAT_RTOL`]) and are **never** reported
//! as exact — float associativity genuinely fails bit-for-bit, which is a
//! property of IEEE arithmetic, not a mis-declaration.
//!
//! Verification is over a *bounded* audit domain (small magnitudes; no
//! wrap-around). A law that holds on the audit domain may still fail at
//! the edges of machine arithmetic — under-claims are therefore
//! *candidates* for declaration, while over-claims (a concrete refuting
//! witness in hand) are definite bugs.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use collopt_core::op::{lib, BinOp, Counterexample, RequiredLaw, FLOAT_RTOL};
use collopt_core::value::Value;
use collopt_machine::Rng;

/// The value domain an operator is defined over; determines the sample
/// pool the auditor enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// `Value::Int` scalars.
    Int,
    /// `Value::Float` scalars (audited tolerance-approximately).
    Float,
    /// `Value::Bool` scalars (the pool is exhaustive: `{false, true}`).
    Bool,
    /// `(value, index)` integer pairs (maxloc/minloc).
    IntPair,
    /// 2×2 integer matrices as 4-tuples (mat2mul).
    IntQuad,
}

/// Whether an operator's laws are checked exactly or up to a tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// Integer/boolean domains: equality is exact.
    Exact,
    /// Floating-point domains: laws hold up to the configured relative
    /// tolerance only.
    Approximate,
}

/// Auditor configuration. Deterministic for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// Seed for the randomized sample search.
    pub seed: u64,
    /// Number of random samples appended to the exhaustive pool.
    pub random_trials: usize,
    /// Relative tolerance for floating-point domains (see
    /// [`collopt_core::op::FLOAT_RTOL`] for the comparison semantics).
    pub tolerance: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            seed: 0x0C01_1097,
            random_trials: 6,
            tolerance: FLOAT_RTOL,
        }
    }
}

/// The value domain of a *built-in* operator, by name. Returns `None` for
/// operators the analyzer does not know — those are audited only if the
/// caller supplies a domain explicitly.
pub fn domain_of_builtin(name: &str) -> Option<Domain> {
    match name {
        "add" | "mul" | "max" | "min" | "gcd" => Some(Domain::Int),
        n if n.starts_with("add_mod") => Some(Domain::Int),
        "fadd" | "fmul" => Some(Domain::Float),
        "and" | "or" => Some(Domain::Bool),
        "maxloc" | "minloc" => Some(Domain::IntPair),
        "mat2mul" => Some(Domain::IntQuad),
        _ => None,
    }
}

/// The exactness class of a domain.
pub fn exactness_of(domain: Domain) -> Exactness {
    match domain {
        Domain::Float => Exactness::Approximate,
        _ => Exactness::Exact,
    }
}

fn pair(v: i64, i: i64) -> Value {
    Value::Tuple(vec![Value::Int(v), Value::Int(i)])
}

fn quad(a: i64, b: i64, c: i64, d: i64) -> Value {
    Value::Tuple(vec![
        Value::Int(a),
        Value::Int(b),
        Value::Int(c),
        Value::Int(d),
    ])
}

/// The sample pool for a domain: a small exhaustive core (corner cases:
/// zero, units, negatives) plus `cfg.random_trials` seeded random values
/// of bounded magnitude. Deterministic for a fixed config.
pub fn samples_for_domain(domain: Domain, cfg: &AuditConfig) -> Vec<Value> {
    let mut rng = Rng::new(cfg.seed ^ (domain as u64).wrapping_mul(0x9E37_79B9));
    let mut pool = match domain {
        Domain::Int => [-2i64, -1, 0, 1, 2, 3].map(Value::Int).to_vec(),
        Domain::Float => [-2.5f64, -1.0, 0.0, 0.5, 1.0, 3.25]
            .map(Value::Float)
            .to_vec(),
        Domain::Bool => vec![Value::Bool(false), Value::Bool(true)],
        Domain::IntPair => vec![pair(0, 0), pair(0, 1), pair(1, 0), pair(-1, 2), pair(2, 2)],
        Domain::IntQuad => vec![
            quad(1, 0, 0, 1), // identity
            quad(0, 0, 0, 0),
            quad(1, 2, 3, 4),
            quad(-1, 0, 2, 1),
        ],
    };
    for _ in 0..cfg.random_trials {
        pool.push(match domain {
            Domain::Int => Value::Int(rng.range_i64(-1_000, 1_000)),
            Domain::Float => Value::Float((rng.unit_f64() - 0.5) * 200.0),
            // The boolean pool is already exhaustive.
            Domain::Bool => break,
            Domain::IntPair => pair(rng.range_i64(-50, 50), rng.range_i64(0, 64)),
            Domain::IntQuad => quad(
                rng.range_i64(-5, 5),
                rng.range_i64(-5, 5),
                rng.range_i64(-5, 5),
                rng.range_i64(-5, 5),
            ),
        });
    }
    pool
}

static LAW_FACTS: Mutex<BTreeMap<(Domain, String), Option<Counterexample>>> =
    Mutex::new(BTreeMap::new());

#[cfg(test)]
thread_local!(static PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

/// Search `domain`'s pool under `cfg` for a (shrunk) refutation of `law` —
/// the one place a law is probed. A fact about library operators under the
/// default config depends on nothing a caller can vary (the name identifies
/// the function, [`BinOp::is_library`]) and is probed once per process —
/// one generation, filled lazily, never evicted, library names × peers, a
/// few KB; every other operator or config is probed per call.
pub(crate) fn audit_law(
    law: &RequiredLaw,
    domain: Domain,
    cfg: &AuditConfig,
) -> Option<Counterexample> {
    let probe = || {
        #[cfg(test)]
        PROBES.with(|n| n.set(n.get() + 1));
        let rtol = match exactness_of(domain) {
            Exactness::Approximate => cfg.tolerance,
            Exactness::Exact => 0.0,
        };
        law.counterexample_with(&samples_for_domain(domain, cfg), rtol)
    };
    if !law.ops().iter().all(|op| op.is_library()) || *cfg != AuditConfig::default() {
        return probe();
    }
    // A probe that panics has inserted nothing, so a poisoned map is still valid.
    let mut facts = LAW_FACTS.lock().unwrap_or_else(PoisonError::into_inner);
    let fact = facts.entry((domain, law.describe())).or_insert_with(probe);
    fact.clone()
}

/// A declared property refuted by a concrete (shrunk) witness — unsound:
/// the engine would apply a wrong rule on its strength.
#[derive(Debug, Clone)]
pub struct OverClaim {
    /// Operator whose declaration is wrong.
    pub op: String,
    /// The refuted law, e.g. `"commutativity of sub"`.
    pub law: String,
    /// The shrunk refuting witness.
    pub counterexample: Counterexample,
}

/// A property that *holds on the audit domain* but is not declared —
/// the engine forfeits every fusion gated on it.
#[derive(Debug, Clone)]
pub struct UnderClaim {
    /// Operator missing the declaration.
    pub op: String,
    /// The law that held, e.g. `"max distributes over min"`.
    pub law: String,
    /// The declaration builder call that would add it, e.g.
    /// `".distributes_over_op(\"min\")"`.
    pub declaration: String,
}

/// The audit verdict for one operator.
#[derive(Debug, Clone)]
pub struct OpAudit {
    /// Operator name.
    pub op: String,
    /// Domain the audit ran over.
    pub domain: Domain,
    /// Exact or tolerance-approximate verification.
    pub exactness: Exactness,
    /// Declared laws that verified, e.g. `["associativity of add"]`.
    pub verified: Vec<String>,
    /// Declared laws refuted with a witness.
    pub over_claims: Vec<OverClaim>,
    /// Undeclared laws that held on the audit domain.
    pub under_claims: Vec<UnderClaim>,
}

impl OpAudit {
    /// No over-claims: every declared property checked out.
    pub fn is_sound(&self) -> bool {
        self.over_claims.is_empty()
    }
}

/// Audit one operator against its declarations. `peers` is the set of
/// same-domain operators distributivity is probed against (for
/// under-claim detection); pass `&[]` to check only the declared laws.
pub fn audit_operator(op: &BinOp, domain: Domain, peers: &[BinOp], cfg: &AuditConfig) -> OpAudit {
    let mut verified = Vec::new();
    let mut over_claims = Vec::new();
    let mut under_claims = Vec::new();

    let mut check = |law: RequiredLaw, declared: bool, declaration: &str| {
        match (declared, audit_law(&law, domain, cfg)) {
            (true, None) => verified.push(law.describe()),
            (true, Some(counterexample)) => over_claims.push(OverClaim {
                op: op.name().to_string(),
                law: law.describe(),
                counterexample,
            }),
            (false, None) => under_claims.push(UnderClaim {
                op: op.name().to_string(),
                law: law.describe(),
                declaration: declaration.to_string(),
            }),
            (false, Some(_)) => {} // correctly undeclared
        }
    };

    check(
        RequiredLaw::Associative(op.clone()),
        op.is_associative(),
        "(associativity is implied by BinOp::new)",
    );
    check(
        RequiredLaw::Commutative(op.clone()),
        op.is_commutative(),
        ".commutative()",
    );
    for peer in peers {
        check(
            RequiredLaw::DistributesOver(op.clone(), peer.clone()),
            op.distributes_over(peer),
            &format!(".distributes_over_op(\"{}\")", peer.name()),
        );
    }
    OpAudit {
        op: op.name().to_string(),
        domain,
        exactness: exactness_of(domain),
        verified,
        over_claims,
        under_claims,
    }
}

/// The built-in operator table (every `collopt_core::op::lib` operator)
/// with its audit domain.
pub fn builtin_table() -> Vec<(BinOp, Domain)> {
    vec![
        (lib::add(), Domain::Int),
        (lib::mul(), Domain::Int),
        (lib::max(), Domain::Int),
        (lib::min(), Domain::Int),
        (lib::add_tropical(), Domain::Int),
        (lib::add_mod(97), Domain::Int),
        (lib::gcd(), Domain::Int),
        (lib::and(), Domain::Bool),
        (lib::or(), Domain::Bool),
        (lib::fadd(), Domain::Float),
        (lib::fmul(), Domain::Float),
        (lib::maxloc(), Domain::IntPair),
        (lib::minloc(), Domain::IntPair),
        (lib::mat2mul(), Domain::IntQuad),
    ]
}

/// Audit every operator of the built-in table, probing distributivity
/// against all same-domain peers (including the operator itself).
pub fn audit_builtin_table(cfg: &AuditConfig) -> Vec<OpAudit> {
    let table = builtin_table();
    table
        .iter()
        .map(|(op, domain)| {
            // Dedupe peers by name: the table carries both `add` and the
            // tropical `add` (same function, richer declarations), and
            // distributivity is a property of the *name*.
            let mut seen = std::collections::HashSet::new();
            let peers: Vec<BinOp> = table
                .iter()
                .filter(|(p, d)| d == domain && seen.insert(p.name().to_string()))
                .map(|(p, _)| p.clone())
                .collect();
            audit_operator(op, *domain, &peers, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_operator_audits_clean() {
        let audit = audit_operator(&lib::add(), Domain::Int, &[], &AuditConfig::default());
        assert!(audit.is_sound());
        assert_eq!(audit.exactness, Exactness::Exact);
        assert!(audit
            .verified
            .iter()
            .any(|l| l.contains("associativity of add")));
        assert!(audit
            .verified
            .iter()
            .any(|l| l.contains("commutativity of add")));
    }

    #[test]
    fn lying_operator_is_caught_with_shrunk_witness() {
        let lying = BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative();
        let audit = audit_operator(&lying, Domain::Int, &[], &AuditConfig::default());
        assert!(!audit.is_sound());
        // Associativity (implied) and commutativity (declared) both fail.
        assert_eq!(audit.over_claims.len(), 2);
        for claim in &audit.over_claims {
            assert!(claim.counterexample.distinct_values() <= 3, "{claim:?}");
        }
    }

    #[test]
    fn under_claim_detected_for_missing_distributivity() {
        // mul without its distributes_over("add") declaration.
        let bare = BinOp::new("mul", |a, b| {
            Value::Int(a.as_int().wrapping_mul(b.as_int()))
        })
        .commutative();
        let audit = audit_operator(&bare, Domain::Int, &[lib::add()], &AuditConfig::default());
        assert!(audit.is_sound());
        assert!(
            audit
                .under_claims
                .iter()
                .any(|u| u.law.contains("mul distributes over add")),
            "{:?}",
            audit.under_claims
        );
    }

    #[test]
    fn float_ops_are_approximate_and_sound_at_tolerance() {
        let cfg = AuditConfig::default();
        for op in [lib::fadd(), lib::fmul()] {
            let audit = audit_operator(&op, Domain::Float, &[lib::fadd()], &cfg);
            assert_eq!(audit.exactness, Exactness::Approximate);
            assert!(audit.is_sound(), "{:?}", audit.over_claims);
        }
    }

    #[test]
    fn library_laws_are_probed_once_and_only_under_the_default_config() {
        // Probes are counted per thread, so concurrent tests (all on the
        // default config) can only warm the table, not move the counts.
        let run = |cfg: &AuditConfig| {
            PROBES.with(|n| n.set(0));
            let audits = audit_builtin_table(cfg);
            (format!("{audits:?}"), PROBES.with(|n| n.get()))
        };
        let default = AuditConfig::default();
        let (first, _) = run(&default);
        let (second, probes) = run(&default);
        assert_eq!(first, second);
        assert_eq!(probes, 0, "a warm table is not probed");

        // Another config is probed on every call — honoured, and never
        // added to the table — and leaves the default's facts in place.
        let seeded = AuditConfig {
            seed: 1,
            ..default.clone()
        };
        assert_ne!(
            format!("{:?}", samples_for_domain(Domain::Int, &seeded)),
            format!("{:?}", samples_for_domain(Domain::Int, &default))
        );
        let (_, probes) = run(&seeded);
        assert!(probes > 0);
        assert_eq!(run(&seeded).1, probes, "nothing was remembered");
        assert_eq!(run(&default).1, 0, "the default's facts survived");
    }

    #[test]
    fn audit_is_deterministic_for_a_seed() {
        let cfg = AuditConfig::default();
        let a = samples_for_domain(Domain::Int, &cfg);
        let b = samples_for_domain(Domain::Int, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
