//! The rewrite engine: where and whether to apply the optimization rules.
//!
//! The paper's design method (Sections 3–4) is: scan a program for
//! compositions of collective operations, and fuse them when the algebraic
//! side condition holds **and** the cost calculus predicts an improvement
//! on the target machine. [`Rewriter`] implements both regimes:
//!
//! * [`Rewriter::exhaustive`] applies every applicable rule — the pure
//!   semantics-preserving calculus;
//! * [`Rewriter::cost_guided`] applies a rule only when the program-level
//!   cost estimate ([`program_cost`]) strictly decreases for the given
//!   machine parameters and block size — Section 4's performance-directed
//!   programming.
//!
//! Longer windows are matched first (a `bcast; scan; scan` should become a
//! single comcast, not a comcast followed by a stray scan). Every
//! application strictly decreases the number of collective stages, so the
//! engine terminates structurally.

use collopt_cost::{collectives as ccost, MachineParams, PhaseCost};

use crate::op::{Counterexample, RequiredLaw};
use crate::rules::enabling::{self, Normalization};
use crate::rules::{self, Rule};
use crate::term::{ComcastVariant, Program, Stage};
use crate::value::Value;

/// Per-stage cost at block size `m` on machine `params`, in time units.
///
/// Collective stages follow the paper's butterfly estimates (multiplied by
/// `log p`); local `map` stages charge their declared per-element
/// operations once (no `log p` factor); `iter` stages charge `log p`
/// iterations (the power-of-two count — the balanced generalization adds
/// at most a constant factor).
pub fn stage_cost(stage: &Stage, params: &MachineParams, m: f64) -> f64 {
    match stage {
        Stage::Map { ops, .. } | Stage::MapIndexed { ops, .. } => ops * m,
        Stage::Bcast => ccost::bcast().eval(params, m),
        Stage::Scan(op) => ccost::scan(op.ops_per_word(), op.width()).eval(params, m),
        Stage::Reduce(op) | Stage::AllReduce(op) => {
            ccost::reduce(op.ops_per_word(), op.width()).eval(params, m)
        }
        Stage::ReduceBalanced {
            ops_combine,
            words_factor,
            ..
        } => ccost::reduce_balanced(*ops_combine, *words_factor as f64).eval(params, m),
        Stage::ScanBalanced {
            ops_upper,
            words_factor,
            ..
        } => ccost::scan_balanced(*ops_upper, *words_factor as f64).eval(params, m),
        Stage::Comcast {
            ops_e,
            ops_o,
            words_factor,
            variant,
            ..
        } => match variant {
            ComcastVariant::BcastRepeat => ccost::comcast_bcast_repeat(*ops_o).eval(params, m),
            ComcastVariant::CostOptimal => {
                ccost::comcast_cost_optimal(*ops_e, *ops_o, *words_factor as f64).eval(params, m)
            }
        },
        Stage::IterLocal {
            ops_combine, all, ..
        } => {
            let iter = ccost::local_iter(*ops_combine).eval(params, m);
            if *all {
                iter + ccost::bcast().eval(params, m)
            } else {
                iter
            }
        }
        // Gather/scatter move a total of (p-1)·m words through log p
        // rounds with doubling/halving message sizes; the exact cost does
        // not factor as (per-phase)·log p, so it is computed directly.
        Stage::Gather | Stage::Scatter => {
            params.log_p() * params.ts + (params.p.saturating_sub(1)) as f64 * m * params.tw
        }
        Stage::AllGather => {
            // Gather then broadcast of the p·m-word result.
            params.log_p() * params.ts
                + (params.p.saturating_sub(1)) as f64 * m * params.tw
                + ccost::bcast().eval(params, m * params.p as f64)
        }
    }
}

/// Total predicted cost of a program (sum of its stages).
pub fn program_cost(prog: &Program, params: &MachineParams, m: f64) -> f64 {
    prog.stages().iter().map(|s| stage_cost(s, params, m)).sum()
}

/// The symbolic per-phase cost of a stage, for reporting.
pub fn stage_phase_cost(stage: &Stage) -> PhaseCost {
    match stage {
        Stage::Map { ops, .. } | Stage::MapIndexed { ops, .. } => PhaseCost::new(0.0, 0.0, *ops),
        Stage::Bcast => ccost::bcast(),
        Stage::Scan(op) => ccost::scan(op.ops_per_word(), op.width()),
        Stage::Reduce(op) | Stage::AllReduce(op) => ccost::reduce(op.ops_per_word(), op.width()),
        Stage::ReduceBalanced {
            ops_combine,
            words_factor,
            ..
        } => ccost::reduce_balanced(*ops_combine, *words_factor as f64),
        Stage::ScanBalanced {
            ops_upper,
            words_factor,
            ..
        } => ccost::scan_balanced(*ops_upper, *words_factor as f64),
        Stage::Comcast {
            ops_e,
            ops_o,
            words_factor,
            variant,
            ..
        } => match variant {
            ComcastVariant::BcastRepeat => ccost::comcast_bcast_repeat(*ops_o),
            ComcastVariant::CostOptimal => {
                ccost::comcast_cost_optimal(*ops_e, *ops_o, *words_factor as f64)
            }
        },
        Stage::IterLocal {
            ops_combine, all, ..
        } => {
            let iter = ccost::local_iter(*ops_combine);
            if *all {
                iter + ccost::bcast()
            } else {
                iter
            }
        }
        // Approximation: the true gather/scatter cost has a (p-1)/log p
        // word coefficient; `stage_cost` computes it exactly.
        Stage::Gather | Stage::Scatter => PhaseCost::new(1.0, 1.0, 0.0),
        Stage::AllGather => PhaseCost::new(2.0, 2.0, 0.0),
    }
}

/// How a certificate's laws were established at rewrite time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Witness {
    /// The operators' *declared* properties were trusted without a
    /// runtime check (the default fast path).
    Declared,
    /// Every law was verified on `samples` sample values at application
    /// time ([`Rewriter::verify_properties`] / [`Rewriter::audited`]).
    Checked {
        /// Size of the sample pool the laws were checked over.
        samples: usize,
    },
}

/// A machine-checkable precondition certificate attached to every applied
/// rewrite: *which* algebraic laws of *which* operators justified the
/// rule, and how they were established. `collopt-analysis` re-validates
/// certificates end-to-end (each law carries its concrete operators, so a
/// validator can re-run the checks on any domain it likes).
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The rule the certificate justifies.
    pub rule: Rule,
    /// The side conditions, bound to the concrete operators.
    pub laws: Vec<RequiredLaw>,
    /// How the laws were established at application time.
    pub witness: Witness,
    /// Distribution state the rule's window assumes on entry (see
    /// [`crate::dist`]).
    pub dist_pre: crate::dist::DistState,
    /// Distribution state after the rewritten window; `⊥` for rank0-only
    /// applications, which discard the non-root values.
    pub dist_post: crate::dist::DistState,
}

impl Certificate {
    /// One-line summary, e.g.
    /// `"SR2-Reduction: associativity of mul, associativity of add, mul
    /// distributes over add (declared)"`.
    pub fn describe(&self) -> String {
        let laws: Vec<String> = self.laws.iter().map(RequiredLaw::describe).collect();
        let how = match self.witness {
            Witness::Declared => "declared".to_string(),
            Witness::Checked { samples } => format!("checked on {samples} samples"),
        };
        format!("{}: {} ({how})", self.rule, laws.join(", "))
    }

    /// Re-check every law on `samples`; the first violated law is
    /// returned with a shrunk counterexample.
    pub fn revalidate(&self, samples: &[Value]) -> Result<(), Counterexample> {
        for law in &self.laws {
            if let Some(cex) = law.counterexample(samples) {
                return Err(cex);
            }
        }
        Ok(())
    }
}

/// A rule application the audited engine refused because a required law
/// failed verification — the diagnostic that turns a silently-skipped
/// rewrite into an actionable report.
#[derive(Debug, Clone)]
pub struct RuleRejection {
    /// The rule that matched structurally.
    pub rule: Rule,
    /// Stage index the matched window started at (in the program as it
    /// was when the match was attempted).
    pub at: usize,
    /// The law that failed, e.g. `"commutativity of sub"`.
    pub law: String,
    /// Shrunk witness refuting the law.
    pub counterexample: Counterexample,
}

impl std::fmt::Display for RuleRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refused {} at stage {}: {} does not hold — {}",
            self.rule, self.at, self.law, self.counterexample
        )
    }
}

/// One applied rewrite, for the optimization log.
#[derive(Debug, Clone)]
pub struct RewriteStep {
    /// The rule applied.
    pub rule: Rule,
    /// Stage index the matched window started at.
    pub at: usize,
    /// Predicted saving in time units (cost-guided mode only).
    pub saving: Option<f64>,
    /// Human-readable `before → after` of the whole program.
    pub description: String,
    /// The precondition certificate justifying this application.
    pub certificate: Certificate,
    /// Whether this application only preserves the first processor's
    /// value (the Local rules; see [`crate::rules::Rewrite::rank0_only`]).
    /// Differential checkers use this to decide which ranks an
    /// optimized/unoptimized comparison may inspect.
    pub rank0_only: bool,
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The optimized program.
    pub program: Program,
    /// Every applied rewrite, in order.
    pub steps: Vec<RewriteStep>,
    /// Enabling transformations applied (map fusion, bcast/map
    /// commutation) interleaved with the rule applications.
    pub normalizations: Vec<Normalization>,
    /// Rule applications the engine refused because a required law failed
    /// verification (only populated by [`Rewriter::audited`]), deduped.
    pub rejections: Vec<RuleRejection>,
}

/// Optimization regime.
#[derive(Debug, Clone, Copy)]
enum Strategy {
    Exhaustive,
    CostGuided { params: MachineParams, block: f64 },
}

/// The rewrite engine.
#[derive(Debug, Clone)]
pub struct Rewriter {
    strategy: Strategy,
    allow_rank0_rules: bool,
    normalize: bool,
    verify_samples: Option<Vec<crate::value::Value>>,
    audited: bool,
}

/// Rules tried at each position, longest window first; within a length,
/// the more specific (distributivity) variants precede the commutative
/// ones, and Local rules precede Comcast ones (they eliminate strictly
/// more communication). Public so analysis passes (the pipeline linter)
/// report opportunities in the same order the engine would take them.
pub const RULE_PRIORITY: [Rule; 11] = [
    Rule::Bsr2Local,
    Rule::BsrLocal,
    Rule::Bss2Comcast,
    Rule::BssComcast,
    Rule::BrLocal,
    Rule::CrAlllocal,
    Rule::BsComcast,
    Rule::Sr2Reduction,
    Rule::SrReduction,
    Rule::Ss2Scan,
    Rule::SsScan,
];

impl Rewriter {
    /// Apply every applicable rule until none matches.
    pub fn exhaustive() -> Self {
        Rewriter {
            strategy: Strategy::Exhaustive,
            allow_rank0_rules: true,
            normalize: true,
            verify_samples: None,
            audited: false,
        }
    }

    /// Apply a rule only when the cost estimate for `params` at block size
    /// `block` strictly improves — the paper's performance-directed mode.
    pub fn cost_guided(params: MachineParams, block: f64) -> Self {
        Rewriter {
            strategy: Strategy::CostGuided { params, block },
            allow_rank0_rules: true,
            normalize: true,
            verify_samples: None,
            audited: false,
        }
    }

    /// Whether the engine may apply the Local rules that only preserve the
    /// first processor's value (BR-Local, BSR2-Local, BSR-Local; see
    /// [`crate::rules`] module docs). Default `true`; set `false` when the
    /// broadcast's side effect on the other processors is needed later.
    pub fn allow_rank0_rules(mut self, yes: bool) -> Self {
        self.allow_rank0_rules = yes;
        self
    }

    /// Before applying any rule, *verify* the algebraic properties its
    /// side condition relies on — associativity, commutativity,
    /// distributivity — on the given sample values (randomized checking
    /// per [`crate::rules::verify_conditions`]). A rule whose declared
    /// condition fails verification is skipped. This guards against
    /// user-defined operators with incorrect property declarations, at
    /// the cost of O(samples³) operator applications per candidate rule.
    pub fn verify_properties(mut self, samples: Vec<crate::value::Value>) -> Self {
        assert!(
            !samples.is_empty(),
            "verification needs at least one sample value"
        );
        self.verify_samples = Some(samples);
        self
    }

    /// Like [`Rewriter::verify_properties`], but *loud*: a rule whose
    /// required law fails on the samples is not silently skipped — the
    /// refusal is reported in [`OptimizeResult::rejections`] together with
    /// a shrunk counterexample, and every applied step's certificate
    /// carries a [`Witness::Checked`] witness. This is the mode the
    /// soundness analyzer (`collopt-analysis`) builds on.
    pub fn audited(mut self, samples: Vec<crate::value::Value>) -> Self {
        assert!(
            !samples.is_empty(),
            "auditing needs at least one sample value"
        );
        self.verify_samples = Some(samples);
        self.audited = true;
        self
    }

    /// Whether to apply the enabling transformations of
    /// [`crate::rules::enabling`] (map fusion, bcast/map commutation)
    /// before and between rule applications. Default `true`; they are
    /// cost-neutral and can expose fusible windows hidden behind local
    /// stages.
    pub fn with_normalization(mut self, yes: bool) -> Self {
        self.normalize = yes;
        self
    }

    /// Build the precondition certificate for applying `rule` to the
    /// window starting at `window` (which must have structurally matched).
    /// Returns `None` — refusing the application — when a required law
    /// fails verification on the configured samples, or when no laws can
    /// be extracted at all; in audited mode the refusal is recorded in
    /// `rejections` with a shrunk counterexample.
    fn certify(
        &self,
        rule: Rule,
        window: &[Stage],
        at: usize,
        rejections: &mut Vec<RuleRejection>,
    ) -> Option<Certificate> {
        let laws = rules::required_laws(rule, window)?;
        let witness = match &self.verify_samples {
            None => Witness::Declared,
            Some(samples) => {
                for law in &laws {
                    if let Some(cex) = law.counterexample(samples) {
                        if self.audited {
                            rejections.push(RuleRejection {
                                rule,
                                at,
                                law: law.describe(),
                                counterexample: cex,
                            });
                        }
                        return None;
                    }
                }
                Witness::Checked {
                    samples: samples.len(),
                }
            }
        };
        let rank0_only = rules::try_match(rule, window).is_some_and(|rw| rw.rank0_only);
        Some(Certificate {
            rule,
            laws,
            witness,
            dist_pre: crate::dist::expected_pre(rule),
            dist_post: crate::dist::expected_post(rule, rank0_only),
        })
    }

    #[allow(clippy::type_complexity)]
    fn find_step(
        &self,
        prog: &Program,
        rejections: &mut Vec<RuleRejection>,
    ) -> Option<(usize, Rule, Vec<Stage>, Option<f64>, Certificate, bool)> {
        for at in 0..prog.len() {
            for rule in RULE_PRIORITY {
                let Some(rw) = rules::try_match(rule, &prog.stages()[at..]) else {
                    continue;
                };
                if !self.allow_rank0_rules && rw.rank0_only {
                    continue;
                }
                let Some(cert) = self.certify(rule, &prog.stages()[at..], at, rejections) else {
                    continue;
                };
                let rank0_only = rw.rank0_only;
                let replacement = rw.stages;
                match self.strategy {
                    Strategy::Exhaustive => {
                        return Some((at, rule, replacement, None, cert, rank0_only))
                    }
                    Strategy::CostGuided { params, block } => {
                        let candidate =
                            prog.splice(at, rules::window_len(rule), replacement.clone());
                        let saving = program_cost(prog, &params, block)
                            - program_cost(&candidate, &params, block);
                        if saving > 0.0 {
                            return Some((at, rule, replacement, Some(saving), cert, rank0_only));
                        }
                    }
                }
            }
        }
        None
    }

    /// Globally optimal rewriting: the reachable program with the least
    /// predicted cost for `(params, m)`, found by equality saturation
    /// with cost-model extraction ([`crate::egraph`]). The optimization is
    /// the outcome's `result`; its `stats` carry the e-graph's effort
    /// counters — node/class/application counts, budget exhaustion.
    ///
    /// Greedy first-match rewriting is not always optimal: on
    /// `scan(⊕); scan(⊕); reduce(⊕)` it fuses the two scans first
    /// (SS-Scan), blocking the cheaper plan that leaves the first scan
    /// alone and fuses `scan; reduce` (SR-Reduction) — per-phase
    /// `2ts + 3m·tw + 6m` versus the greedy `2ts + 4m·tw + 9m`.
    ///
    /// Ties are broken deterministically "RHS never worse": at equal cost
    /// the extraction prefers fewer collectives, then fewer stages, then
    /// the lexicographically least normalized rendering. The returned
    /// steps replay the extracted program as a concrete certificate-
    /// carrying derivation; in audited mode refused laws appear in
    /// `rejections` with shrunk witnesses, deduped exactly like
    /// [`Rewriter::optimize`]. The historical brute-force enumeration is
    /// kept as [`Rewriter::optimize_brute_force`] — a test oracle this
    /// search is checked against on every fuzz-generated pipeline.
    pub fn saturate(
        &self,
        prog: &Program,
        params: &MachineParams,
        m: f64,
    ) -> crate::egraph::SaturationOutcome {
        let mut cfg = crate::egraph::SaturateConfig::new(*params, m)
            .allow_rank0_rules(self.allow_rank0_rules)
            .with_normalization(self.normalize);
        if let Some(samples) = &self.verify_samples {
            cfg = if self.audited {
                cfg.audited(samples.clone())
            } else {
                cfg.verify_properties(samples.clone())
            };
        }
        crate::egraph::saturate_program(prog, &cfg)
    }

    /// The pre-saturation exhaustive search: explore *every* order of rule
    /// applications (the rewrite relation is finitely branching and
    /// terminating, so the reachable set is finite) and return the
    /// reachable program minimizing the same deterministic key as the
    /// e-graph extraction — `(cost, collectives, stages, rendering)`.
    ///
    /// Exponential in the number of fusible windows; kept as the
    /// *optimality oracle* the saturation search is differentially tested
    /// against (`crates/fuzz`'s fourth oracle requires bit-identical
    /// programs and costs on every generated pipeline of ≤ 6 stages).
    pub fn optimize_brute_force(
        &self,
        prog: &Program,
        params: &MachineParams,
        m: f64,
    ) -> OptimizeResult {
        let (start, start_norms) = if self.normalize {
            enabling::normalize(prog)
        } else {
            (prog.clone(), Vec::new())
        };
        let mut best_prog = start.clone();
        let mut best_key = brute_key(&start, params, m);
        let mut best_steps: Vec<RewriteStep> = Vec::new();
        let mut best_norms: Vec<Normalization> = Vec::new();
        let mut rejections = Vec::new();
        let mut seen = std::collections::HashSet::new();
        seen.insert(start.to_string());
        type State = (Program, Vec<RewriteStep>, Vec<Normalization>);
        let mut stack: Vec<State> = vec![(start, Vec::new(), Vec::new())];
        while let Some((current, steps, norms)) = stack.pop() {
            for at in 0..current.len() {
                for rule in RULE_PRIORITY {
                    let Some(rw) = rules::try_match(rule, &current.stages()[at..]) else {
                        continue;
                    };
                    if !self.allow_rank0_rules && rw.rank0_only {
                        continue;
                    }
                    let Some(cert) =
                        self.certify(rule, &current.stages()[at..], at, &mut rejections)
                    else {
                        continue;
                    };
                    let rank0_only = rw.rank0_only;
                    let mut next = current.splice(at, rules::window_len(rule), rw.stages);
                    let mut next_norms = norms.clone();
                    if self.normalize {
                        let (p, log) = enabling::normalize(&next);
                        next = p;
                        next_norms.extend(log);
                    }
                    if !seen.insert(next.to_string()) {
                        continue;
                    }
                    let mut next_steps = steps.clone();
                    next_steps.push(RewriteStep {
                        rule,
                        at,
                        saving: Some(
                            program_cost(&current, params, m) - program_cost(&next, params, m),
                        ),
                        description: format!("{current}  →[{rule}]→  {next}"),
                        certificate: cert,
                        rank0_only,
                    });
                    let key = brute_key(&next, params, m);
                    if key < best_key {
                        best_key = key;
                        best_prog = next.clone();
                        best_steps = next_steps.clone();
                        best_norms = next_norms.clone();
                    }
                    stack.push((next, next_steps, next_norms));
                }
            }
        }
        let mut normalizations = start_norms;
        normalizations.extend(best_norms);
        OptimizeResult {
            program: best_prog,
            steps: best_steps,
            normalizations,
            rejections: dedupe_rejections(rejections),
        }
    }

    /// Run the engine to fixpoint.
    pub fn optimize(&self, prog: &Program) -> OptimizeResult {
        let mut normalizations = Vec::new();
        let mut current = if self.normalize {
            let (p, log) = enabling::normalize(prog);
            normalizations.extend(log);
            p
        } else {
            prog.clone()
        };
        let mut steps = Vec::new();
        let mut rejections = Vec::new();
        // Each application removes at least one collective stage, so
        // `collective_count` bounds the iteration; the explicit cap is a
        // belt-and-braces guard.
        let cap = prog.collective_count() + 1;
        for _ in 0..cap {
            let Some((at, rule, replacement, saving, cert, rank0_only)) =
                self.find_step(&current, &mut rejections)
            else {
                break;
            };
            let next = current.splice(at, rules::window_len(rule), replacement);
            steps.push(RewriteStep {
                rule,
                at,
                saving,
                description: format!("{current}  →[{rule}]→  {next}"),
                certificate: cert,
                rank0_only,
            });
            current = next;
            if self.normalize {
                let (p, log) = enabling::normalize(&current);
                normalizations.extend(log);
                current = p;
            }
        }
        OptimizeResult {
            program: current,
            steps,
            normalizations,
            rejections: dedupe_rejections(rejections),
        }
    }
}

/// The deterministic comparison key shared by the brute-force oracle and
/// the e-graph extraction: cost (summed tail-first, exactly as the
/// extraction fixpoint accumulates it, so float ties agree bit-for-bit),
/// then collective count, then stage count, then the rendering. Costs are
/// non-negative finite, so the bit pattern preserves their order.
fn brute_key(prog: &Program, params: &MachineParams, m: f64) -> (u64, usize, usize, String) {
    let cost = prog
        .stages()
        .iter()
        .rev()
        .fold(0.0, |acc: f64, s| acc + stage_cost(s, params, m));
    (
        cost.to_bits(),
        prog.collective_count(),
        prog.len(),
        prog.to_string(),
    )
}

/// Deduplicate rejections by (rule, failed law): the fixpoint loop and the
/// optimal search both revisit the same refused window many times.
pub(crate) fn dedupe_rejections(raw: Vec<RuleRejection>) -> Vec<RuleRejection> {
    let mut seen = std::collections::HashSet::new();
    raw.into_iter()
        .filter(|r| seen.insert(format!("{}|{}", r.rule, r.law)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::semantics::eval_program;
    use crate::term::Program;
    use crate::value::Value;

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    /// The paper's running Example (Section 2.1):
    /// `map f ; scan(⊗) ; reduce(⊕) ; map g ; bcast`.
    fn example_program() -> Program {
        Program::new()
            .map("f", 1.0, |v| Value::Int(v.as_int() + 1))
            .scan(lib::mul())
            .reduce(lib::add())
            .map("g", 1.0, |v| Value::Int(v.as_int() * 2))
            .bcast()
    }

    #[test]
    fn exhaustive_fuses_the_example_scan_reduce() {
        let prog = example_program();
        let res = Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        assert_eq!(res.steps[0].rule, Rule::Sr2Reduction);
        assert_eq!(res.program.collective_count(), 2); // fused reduce + bcast
        let xs = ints(&[0, 1, 2, 3]);
        assert_eq!(eval_program(&prog, &xs), eval_program(&res.program, &xs));
    }

    #[test]
    fn program_composition_exposes_bcast_scan_fusion() {
        // Example ; Next_Example (Figure 1): the trailing bcast meets the
        // next program's leading scan.
        let next = Program::new().scan(lib::add());
        let prog = example_program().then(next);
        let res = Rewriter::exhaustive().optimize(&prog);
        let rules_applied: Vec<Rule> = res.steps.iter().map(|s| s.rule).collect();
        assert!(rules_applied.contains(&Rule::Sr2Reduction));
        assert!(rules_applied.contains(&Rule::BsComcast));
        let xs = ints(&[1, 0, 2, 1, 3]);
        assert_eq!(eval_program(&prog, &xs), eval_program(&res.program, &xs));
    }

    #[test]
    fn triple_window_beats_two_pairwise_rules() {
        let prog = Program::new().bcast().scan(lib::add()).scan(lib::add());
        let res = Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        assert_eq!(res.steps[0].rule, Rule::BssComcast);
        assert_eq!(res.program.collective_count(), 1);
    }

    #[test]
    fn bsr2_window_collapses_to_local() {
        let prog = Program::new().bcast().scan(lib::mul()).reduce(lib::add());
        let res = Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        assert_eq!(res.steps[0].rule, Rule::Bsr2Local);
        assert_eq!(res.program.collective_count(), 0);
    }

    #[test]
    fn rank0_rules_can_be_disabled() {
        let prog = Program::new().bcast().reduce(lib::add());
        let res = Rewriter::exhaustive()
            .allow_rank0_rules(false)
            .optimize(&prog);
        assert!(res.steps.is_empty(), "BR-Local must be skipped");
        // CR-Alllocal stays available (it preserves all ranks).
        let prog2 = Program::new().bcast().allreduce(lib::add());
        let res2 = Rewriter::exhaustive()
            .allow_rank0_rules(false)
            .optimize(&prog2);
        assert_eq!(res2.steps.len(), 1);
        assert_eq!(res2.steps[0].rule, Rule::CrAlllocal);
    }

    #[test]
    fn cost_guided_applies_always_rules_everywhere() {
        // SR2 is an "always" rule: any machine, any block size.
        for (ts, tw, m) in [(200.0, 2.0, 1.0), (1.0, 0.1, 1e6), (0.5, 10.0, 64.0)] {
            let params = MachineParams::new(64, ts, tw);
            let prog = Program::new().scan(lib::mul()).reduce(lib::add());
            let res = Rewriter::cost_guided(params, m).optimize(&prog);
            assert_eq!(res.steps.len(), 1, "ts={ts} tw={tw} m={m}");
            assert!(res.steps[0].saving.unwrap() > 0.0);
        }
    }

    #[test]
    fn cost_guided_respects_ss2_condition() {
        // SS2-Scan pays off iff ts > 2m (§4.2).
        let prog = Program::new().scan(lib::mul()).scan(lib::add());
        let good = MachineParams::new(64, 100.0, 2.0); // ts=100 > 2m for m=10
        let res = Rewriter::cost_guided(good, 10.0).optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        let bad = MachineParams::new(64, 100.0, 2.0); // m=100: ts < 200
        let res = Rewriter::cost_guided(bad, 100.0).optimize(&prog);
        assert!(res.steps.is_empty());
    }

    #[test]
    fn cost_guided_saving_matches_cost_difference() {
        let params = MachineParams::new(16, 150.0, 1.0);
        let m = 4.0;
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let before = program_cost(&prog, &params, m);
        let res = Rewriter::cost_guided(params, m).optimize(&prog);
        let after = program_cost(&res.program, &params, m);
        let reported: f64 = res.steps.iter().filter_map(|s| s.saving).sum();
        assert!((before - after - reported).abs() < 1e-9);
    }

    #[test]
    fn stage_costs_match_table1_for_rule_sides() {
        // The stage-level cost of `scan(x1); reduce(x1)` must equal the
        // Table-1 "before" of SR2, and the fused side its "after".
        let params = MachineParams::new(64, 100.0, 2.0);
        let m = 8.0;
        let lhs = Program::new().scan(lib::mul()).reduce(lib::add());
        let est = Rule::Sr2Reduction.estimate();
        assert_eq!(program_cost(&lhs, &params, m), est.before.eval(&params, m));
        let res = Rewriter::exhaustive().optimize(&lhs);
        assert_eq!(
            program_cost(&res.program, &params, m),
            est.after.eval(&params, m)
        );
    }

    #[test]
    fn optimizer_is_idempotent() {
        let prog = example_program();
        let once = Rewriter::exhaustive().optimize(&prog);
        let twice = Rewriter::exhaustive().optimize(&once.program);
        assert!(twice.steps.is_empty());
        assert_eq!(twice.program.to_string(), once.program.to_string());
    }

    #[test]
    fn no_rules_on_unrelated_programs() {
        let prog = Program::new()
            .map("f", 1.0, |v| v.clone())
            .reduce(lib::add())
            .map("g", 1.0, |v| v.clone())
            .scan(lib::add());
        let res = Rewriter::exhaustive().optimize(&prog);
        assert!(
            res.steps.is_empty(),
            "reduce;map;scan has no fusible window"
        );
    }

    #[test]
    fn optimal_search_beats_greedy_on_scan_scan_reduce() {
        // Greedy fuses scan;scan first (SS-Scan) and gets stuck with
        // scan_balanced + reduce; the optimal plan keeps the first scan
        // and fuses scan;reduce (SR-Reduction).
        let params = MachineParams::new(64, 100.0, 2.0);
        let m = 8.0;
        let prog = Program::new()
            .scan(lib::add())
            .scan(lib::add())
            .reduce(lib::add());
        let greedy = Rewriter::exhaustive().optimize(&prog);
        let optimal = Rewriter::exhaustive().saturate(&prog, &params, m).result;
        let g = program_cost(&greedy.program, &params, m);
        let o = program_cost(&optimal.program, &params, m);
        assert!(o < g, "optimal {o} must beat greedy {g}");
        assert_eq!(optimal.steps.len(), 1);
        assert_eq!(optimal.steps[0].rule, Rule::SrReduction);
        // Semantics at rank 0 still agree with the original.
        let input: Vec<Value> = (0..6i64).map(Value::Int).collect();
        assert_eq!(
            crate::semantics::eval_program(&prog, &input)[0],
            crate::semantics::eval_program(&optimal.program, &input)[0]
        );
    }

    #[test]
    fn optimal_search_agrees_with_greedy_when_unambiguous() {
        let params = MachineParams::parsytec_like(64);
        for prog in [
            Program::new().scan(lib::mul()).reduce(lib::add()),
            Program::new().bcast().scan(lib::add()),
            Program::new().bcast().scan(lib::mul()).scan(lib::add()),
        ] {
            let greedy = Rewriter::exhaustive().optimize(&prog);
            let optimal = Rewriter::exhaustive().saturate(&prog, &params, 4.0).result;
            assert_eq!(
                program_cost(&greedy.program, &params, 4.0),
                program_cost(&optimal.program, &params, 4.0),
                "{prog}"
            );
        }
    }

    #[test]
    fn optimal_search_never_worsens_the_program() {
        let params = MachineParams::low_latency(64);
        // At huge m nothing pays off: the optimum is the original.
        let prog = Program::new().scan(lib::add()).scan(lib::add());
        let res = Rewriter::exhaustive().saturate(&prog, &params, 1e6).result;
        assert!(res.steps.is_empty());
        assert_eq!(res.program.to_string(), prog.to_string());
    }

    #[test]
    fn every_step_carries_a_revalidatable_certificate() {
        let prog = example_program();
        let res = Rewriter::exhaustive().optimize(&prog);
        assert!(!res.steps.is_empty());
        let samples = ints(&[-3, -1, 0, 1, 2, 5]);
        for step in &res.steps {
            assert_eq!(step.certificate.rule, step.rule);
            assert!(!step.certificate.laws.is_empty());
            assert_eq!(step.certificate.witness, Witness::Declared);
            step.certificate
                .revalidate(&samples)
                .expect("library operators satisfy their declared laws");
        }
    }

    #[test]
    fn audited_steps_record_checked_witness() {
        let samples = ints(&[-2, 0, 1, 3]);
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let res = Rewriter::exhaustive().audited(samples).optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        assert_eq!(
            res.steps[0].certificate.witness,
            Witness::Checked { samples: 4 }
        );
        assert!(res.rejections.is_empty());
        assert!(res.steps[0].certificate.describe().contains("checked on 4"));
    }

    #[test]
    fn audited_mode_rejects_lying_operator_with_shrunk_counterexample() {
        // `sub` is not commutative, but we *declare* it so: the audited
        // engine must refuse SR-Reduction and report why.
        let lying_sub =
            crate::op::BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative();
        let prog = Program::new().scan(lying_sub.clone()).reduce(lying_sub);
        let samples = ints(&[-5, -2, 0, 1, 3, 7]);
        let res = Rewriter::exhaustive()
            .audited(samples.clone())
            .optimize(&prog);
        assert!(res.steps.is_empty(), "the lying rule must not fire");
        assert_eq!(res.rejections.len(), 1);
        let rej = &res.rejections[0];
        assert_eq!(rej.rule, Rule::SrReduction);
        assert!(rej.law.contains("of sub"), "law: {}", rej.law);
        assert!(
            rej.counterexample.distinct_values() <= 3,
            "counterexample should be shrunk: {}",
            rej.counterexample
        );
        // verify_properties stays silent (pre-existing behavior).
        let quiet_sub =
            crate::op::BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative();
        let quiet = Rewriter::exhaustive()
            .verify_properties(samples)
            .optimize(&Program::new().scan(quiet_sub.clone()).reduce(quiet_sub));
        assert!(quiet.steps.is_empty());
        assert!(quiet.rejections.is_empty());
    }

    #[test]
    fn optimal_reports_normalizations_for_normalizable_inputs() {
        // Regression: the optimal search used to hard-code
        // `normalizations: Vec::new()`. Both the saturation path and the
        // brute-force oracle must report the bcast/map commutation this
        // input needs before any rule can fire.
        let params = MachineParams::new(64, 200.0, 2.0);
        let prog = Program::new()
            .bcast()
            .map("f", 1.0, |v| Value::Int(v.as_int() + 1))
            .scan(lib::add());
        for res in [
            Rewriter::exhaustive().saturate(&prog, &params, 4.0).result,
            Rewriter::exhaustive().optimize_brute_force(&prog, &params, 4.0),
        ] {
            assert!(
                res.normalizations
                    .iter()
                    .any(|n| matches!(n, Normalization::BcastMapCommute { .. })),
                "normalizations must be reported: {:?}",
                res.normalizations
            );
        }
    }

    #[test]
    fn saturation_agrees_with_the_brute_force_oracle() {
        let params = MachineParams::new(64, 100.0, 2.0);
        let programs = [
            Program::new()
                .scan(lib::add())
                .scan(lib::add())
                .reduce(lib::add()),
            Program::new()
                .bcast()
                .scan(lib::mul())
                .scan(lib::add())
                .reduce(lib::add()),
            Program::new().gather().scatter().reduce(lib::add()),
            example_program(),
        ];
        for m in [1.0, 8.0, 1e4] {
            for prog in &programs {
                let sat = Rewriter::exhaustive().saturate(prog, &params, m).result;
                let brute = Rewriter::exhaustive().optimize_brute_force(prog, &params, m);
                assert_eq!(
                    sat.program.to_string(),
                    brute.program.to_string(),
                    "m={m} on {prog}"
                );
                assert_eq!(
                    program_cost(&sat.program, &params, m).to_bits(),
                    program_cost(&brute.program, &params, m).to_bits(),
                    "m={m} on {prog}"
                );
            }
        }
    }

    #[test]
    fn optimal_audited_mode_rejects_like_the_greedy_path() {
        let lying_sub =
            crate::op::BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative();
        let prog = Program::new().scan(lying_sub.clone()).reduce(lying_sub);
        let params = MachineParams::new(64, 100.0, 2.0);
        let samples = ints(&[-5, -2, 0, 1, 3, 7]);
        let res = Rewriter::exhaustive()
            .audited(samples)
            .saturate(&prog, &params, 8.0)
            .result;
        assert!(res.steps.is_empty(), "the lying rule must not fire");
        assert_eq!(res.rejections.len(), 1, "rejections must be deduped");
        assert_eq!(res.rejections[0].rule, Rule::SrReduction);
        assert!(res.rejections[0].counterexample.distinct_values() <= 3);
    }

    #[test]
    fn log_describes_each_step() {
        let prog = Program::new().bcast().scan(lib::add());
        let res = Rewriter::exhaustive().optimize(&prog);
        assert_eq!(res.steps.len(), 1);
        assert!(res.steps[0].description.contains("BS-Comcast"));
        assert!(res.steps[0].description.contains("bcast ; scan(add)"));
    }
}
