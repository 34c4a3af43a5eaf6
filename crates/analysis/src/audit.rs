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

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// The library operators whose name identifies one function: the index
/// of the table of their law facts. (`add_mod{n}` is a family, and its
/// facts live in [`LAW_FACTS`].)
const LIBRARY: [&str; 12] = [
    "add", "mul", "max", "min", "and", "or", "fadd", "fmul", "maxloc", "minloc", "gcd", "mat2mul",
];

/// Facts about library operators under the default config, in each first
/// operator's own domain: one cell per law kind, first operator, and
/// second operator or none, filled on first use and read without a lock.
static KNOWN: [OnceLock<Option<Box<Counterexample>>>; 3 * LIBRARY.len() * (LIBRARY.len() + 1)] =
    [const { OnceLock::new() }; 3 * LIBRARY.len() * (LIBRARY.len() + 1)];

/// The other facts about library operators under the default config,
/// keyed so that a lookup borrows: `(domain, law kind)`, then the name of
/// the law's first operator, then that of its second (`""` for a
/// one-operator law).
type LawFacts = BTreeMap<(Domain, u8), BTreeMap<String, BTreeMap<String, Option<Counterexample>>>>;

static LAW_FACTS: Mutex<LawFacts> = Mutex::new(BTreeMap::new());

#[cfg(test)]
thread_local!(static PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

/// `op`'s index in [`LIBRARY`].
fn library_index(op: &BinOp) -> Option<usize> {
    LIBRARY.iter().position(|name| *name == op.name())
}

/// Search `domain`'s pool under `cfg` for a (shrunk) refutation of `law` —
/// the one place a law is probed. A fact about library operators under the
/// default config depends on nothing a caller can vary (the name identifies
/// the function, [`BinOp::is_library`]) and is probed once per process —
/// one generation, filled lazily, never evicted, library names × peers, a
/// few KB; every other operator or config is probed per call. Looking up a
/// known fact takes no lock and allocates nothing unless the fact is a
/// counterexample (its clone is the answer).
pub fn audit_law<O: Borrow<BinOp>>(
    law: &RequiredLaw<O>,
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
        law.borrowed()
            .map(|op| Borrow::<BinOp>::borrow(op).clone())
            .counterexample_with(&samples_for_domain(domain, cfg), rtol)
    };
    let (kind, first, second): (usize, &BinOp, Option<&BinOp>) = match law {
        RequiredLaw::Associative(op) => (0, op.borrow(), None),
        RequiredLaw::Commutative(op) => (1, op.borrow(), None),
        RequiredLaw::DistributesOver(ot, op) => (2, ot.borrow(), Some(op.borrow())),
    };
    if !first.is_library()
        || !second.is_none_or(BinOp::is_library)
        || *cfg != AuditConfig::default()
    {
        return probe();
    }
    let fixed = library_index(first).filter(|_| domain_of_builtin(first.name()) == Some(domain));
    let second_index = second.map_or(Some(0), |op| library_index(op).map(|i| i + 1));
    if let (Some(first), Some(second)) = (fixed, second_index) {
        let cell = (kind * LIBRARY.len() + first) * (LIBRARY.len() + 1) + second;
        return KNOWN[cell]
            .get_or_init(|| probe().map(Box::new))
            .as_deref()
            .cloned();
    }
    let second = second.map_or("", BinOp::name);
    // A probe that panics has inserted nothing, so a poisoned map is still valid.
    let mut facts = LAW_FACTS.lock().unwrap_or_else(PoisonError::into_inner);
    let known = facts
        .get(&(domain, kind as u8))
        .and_then(|by_first| by_first.get(first.name()))
        .and_then(|by_second| by_second.get(second));
    if let Some(fact) = known {
        return fact.clone();
    }
    let fact = probe();
    facts
        .entry((domain, kind as u8))
        .or_default()
        .entry(first.name().to_string())
        .or_default()
        .insert(second.to_string(), fact.clone());
    fact
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

/// What auditing one law of an operator found: declared and held,
/// declared and refuted by a witness, or held undeclared.
pub(crate) enum Claim {
    Verified,
    Over(Counterexample),
    Under,
}

/// Audit `op`'s associativity, commutativity and distributivity over each
/// peer, in that order, and hand each claim to `visit`. Nothing is spelled
/// here: a caller pays for the text of only the claims it keeps.
pub(crate) fn audit_claims(
    op: &BinOp,
    domain: Domain,
    peers: &[BinOp],
    cfg: &AuditConfig,
    mut visit: impl FnMut(&RequiredLaw, Claim),
) {
    let own = [
        (RequiredLaw::Associative(op.clone()), op.is_associative()),
        (RequiredLaw::Commutative(op.clone()), op.is_commutative()),
    ];
    let distributive = peers.iter().map(|peer| {
        let law = RequiredLaw::DistributesOver(op.clone(), peer.clone());
        (law, op.distributes_over(peer))
    });
    for (law, declared) in own.into_iter().chain(distributive) {
        match (declared, audit_law(&law, domain, cfg)) {
            (true, None) => visit(&law, Claim::Verified),
            (true, Some(counterexample)) => visit(&law, Claim::Over(counterexample)),
            (false, None) => visit(&law, Claim::Under),
            (false, Some(_)) => {} // correctly undeclared
        }
    }
}

/// The declaration builder call that would add an undeclared `law`.
pub(crate) fn declaration(law: &RequiredLaw) -> String {
    match law {
        RequiredLaw::Associative(_) => "(associativity is implied by BinOp::new)".into(),
        RequiredLaw::Commutative(_) => ".commutative()".into(),
        RequiredLaw::DistributesOver(_, peer) => {
            format!(".distributes_over_op(\"{}\")", peer.name())
        }
    }
}

/// Audit one operator against its declarations. `peers` is the set of
/// same-domain operators distributivity is probed against (for
/// under-claim detection); pass `&[]` to check only the declared laws.
pub fn audit_operator(op: &BinOp, domain: Domain, peers: &[BinOp], cfg: &AuditConfig) -> OpAudit {
    let (mut verified, mut over_claims, mut under_claims) = (Vec::new(), Vec::new(), Vec::new());
    audit_claims(op, domain, peers, cfg, |law, claim| match claim {
        Claim::Verified => verified.push(law.describe()),
        Claim::Over(counterexample) => over_claims.push(OverClaim {
            op: op.name().to_string(),
            law: law.describe(),
            counterexample,
        }),
        Claim::Under => under_claims.push(UnderClaim {
            op: op.name().to_string(),
            law: law.describe(),
            declaration: declaration(law),
        }),
    });
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
