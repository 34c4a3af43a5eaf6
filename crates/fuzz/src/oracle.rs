//! The five differential oracles.
//!
//! 1. **Rewrite** — a property-verified optimization of the generated
//!    pipeline must leave the mathematical semantics and the simulated
//!    execution outputs bit-identical on every rank (rank 0 only for the
//!    paper's Local rules, and only on pipelines where that comparison
//!    is sound).
//! 2. **EventOrder** — running the same program, inputs and fault plan
//!    with a seeded permutation of the event scheduler's same-time
//!    tie-break ([`FaultPlan::order`]) must produce identical outputs,
//!    makespan, compute and retry-time bits, message/retry counters and
//!    Chrome trace exports (identical [`MachineError`]s for unrecoverable
//!    plans) to the canonical order.
//! 3. **Defense** — the operator auditor, the audited rewriter, the
//!    certificate validator and the linter must be *unanimous* about
//!    planted law lies: a lie caught by one must be caught by all, and an
//!    honest table must pass all four. Under-claims (true-but-undeclared
//!    laws) must likewise surface in both the auditor and the linter.
//! 4. **Saturation** — on every pipeline short enough for the
//!    exponential search (≤ 6 stages), the equality-saturation extraction
//!    behind `Rewriter::saturate` must bit-match the brute-force optimum's
//!    program and cost, never exceed the greedy cost, and (on honest
//!    tables) carry certificates that revalidate.
//! 5. **StaticCheck** — the static schedule verifier must accept every
//!    shipped lowering at the case's `(p, m)` point and reject every
//!    planted-bug lowering with its expected lint code. Together with
//!    oracles 1 and 2 (which run the shipped lowerings cleanly, in two
//!    event orders) and the planted-deadlock drill tests (which pin the
//!    dynamic DES deadlock), this closes the loop: static accept ⟺
//!    clean dynamic run, static reject ⟺ dynamic deadlock.

use std::collections::BTreeSet;
use std::fmt;

use collopt_analysis::audit::{audit_operator, AuditConfig, Domain};
use collopt_analysis::certify::{validate_result, CertificateIssue};
use collopt_analysis::lint::{lint_program, LintConfig};
use collopt_core::exec::{
    execute, execute_faulted, execute_faulted_traced, execute_traced_with, ExecConfig,
    TracedExecOutcome,
};
use collopt_core::op::value_close_with;
use collopt_core::rewrite::{program_cost, Rewriter};
use collopt_core::semantics::eval_program;
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_cost::MachineParams;
use collopt_machine::{chrome_trace_json, ClockParams, FaultPlan, MachineError, Rng};

use crate::gen::{CaseDomain, CaseSpec, N};
use crate::ledger::CoverageLedger;

/// Float tolerance for output comparison; generated float inputs are
/// dyadic so runs are exact in practice — the tolerance only guards
/// against pathological future operators.
const OUT_RTOL: f64 = 1e-9;

/// Which oracle a failure came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Optimized vs. unoptimized divergence.
    Rewrite,
    /// Canonical vs. permuted same-time event order divergence.
    EventOrder,
    /// Defense-layer (auditor/rewriter/certifier/linter) disagreement.
    Defense,
    /// Equality-saturation extraction vs. the brute-force optimality
    /// oracle (or vs. the greedy cost floor).
    Saturation,
    /// Static schedule-verifier verdict vs. the registry's ground truth
    /// (shipped lowerings must verify, planted bugs must be rejected
    /// with their expected code).
    StaticCheck,
}

impl OracleKind {
    /// Short tag used in failure lines and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::Rewrite => "rewrite",
            OracleKind::EventOrder => "order",
            OracleKind::Defense => "defense",
            OracleKind::Saturation => "saturation",
            OracleKind::StaticCheck => "static",
        }
    }
}

/// One oracle violation, self-contained: the spec string reproduces the
/// case without any other state.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Seed of the generated case.
    pub seed: u64,
    /// Which oracle tripped.
    pub oracle: OracleKind,
    /// `CaseSpec::render()` of the failing case.
    pub spec: String,
    /// What diverged.
    pub what: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} [{}] {} [spec: {}]",
            self.seed,
            self.oracle.label(),
            self.what,
            self.spec
        )
    }
}

/// The shared clock every oracle executes under.
pub fn oracle_clock() -> ClockParams {
    ClockParams::new(100.0, 2.0)
}

/// Run all applicable oracles on one case, recording coverage.
pub fn run_case(case: &CaseSpec, ledger: &mut CoverageLedger) -> Vec<FuzzFailure> {
    let mut failures = Vec::new();
    ledger.cases += 1;
    *ledger.domains.entry(case.domain.label()).or_insert(0) += 1;
    *ledger.faults.entry(fault_kind(case)).or_insert(0) += 1;
    for stage in case.program().stages() {
        ledger.record_stage(stage_kind(&stage.describe()));
    }
    let over = case.over_claims();
    let under = case.under_claims();
    if over.is_empty() {
        ledger.honest += 1;
    } else {
        ledger.over_claim_cases += 1;
    }
    if !under.is_empty() {
        ledger.under_claim_cases += 1;
    }

    check_rewrite(case, ledger, &mut failures);
    check_event_order(case, &mut failures);
    if case.domain == CaseDomain::Table {
        let before = failures.len();
        check_defenses(case, &mut failures);
        if !over.is_empty() && failures.len() == before {
            ledger.lies_caught += 1;
        }
    }
    check_saturation(case, ledger, &mut failures);
    check_static(case, ledger, &mut failures);
    failures
}

// ---------------------------------------------------------------------
// Oracle 5: static schedule verdicts vs. the registry's ground truth
// ---------------------------------------------------------------------

fn check_static(case: &CaseSpec, ledger: &mut CoverageLedger, failures: &mut Vec<FuzzFailure>) {
    let (p, m) = (case.p, case.m as u64);
    for report in collopt_analysis::schedule::verify_registry(p, m) {
        ledger.static_checks += 1;
        if !report.ok() {
            let findings: Vec<String> = report
                .diagnostics
                .iter()
                .map(|d| format!("{}: {}", d.code, d.message))
                .collect();
            push(
                failures,
                case,
                OracleKind::StaticCheck,
                format!(
                    "shipped lowering {} fails static verification at p={p}, m={m}: {}",
                    report.variant,
                    findings.join("; ")
                ),
            );
        }
    }
    for (report, expected_code) in collopt_analysis::schedule::verify_planted(p, m) {
        ledger.static_checks += 1;
        if report.ok() {
            push(
                failures,
                case,
                OracleKind::StaticCheck,
                format!(
                    "planted lowering {} passes static verification at p={p}, m={m} — the \
                     verifier is blind to its defect",
                    report.variant
                ),
            );
        } else if !report.diagnostics.iter().any(|d| d.code == expected_code) {
            let got: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
            push(
                failures,
                case,
                OracleKind::StaticCheck,
                format!(
                    "planted lowering {} rejected with {:?} instead of {expected_code} at \
                     p={p}, m={m}",
                    report.variant, got
                ),
            );
        } else {
            ledger.static_rejects += 1;
        }
    }
}

/// Fault-kind bucket for the coverage ledger.
fn fault_kind(case: &CaseSpec) -> &'static str {
    match &case.plan {
        None => "none",
        Some(p) if p.crash.is_some() => "crash",
        Some(p) if p.is_lossy() => "lossy",
        Some(_) => "delay",
    }
}

/// Stage-kind bucket: the leading token of [`Stage::describe`]
/// (`"scan(t0)"` → `"scan"`, `"map id"` → `"map"`).
fn stage_kind(describe: &str) -> String {
    describe
        .split([' ', '('])
        .next()
        .unwrap_or(describe)
        .to_string()
}

/// Sample values for property verification: the *entire* table domain for
/// table cases (verification becomes exact), the analyzer's audit pool
/// otherwise.
fn verification_samples(case: &CaseSpec) -> Vec<Value> {
    let cfg = AuditConfig::default();
    match case.domain {
        CaseDomain::Table => (0..N).map(Value::Int).collect(),
        CaseDomain::Int => collopt_analysis::audit::samples_for_domain(Domain::Int, &cfg),
        CaseDomain::Bool => collopt_analysis::audit::samples_for_domain(Domain::Bool, &cfg),
        CaseDomain::Float => collopt_analysis::audit::samples_for_domain(Domain::Float, &cfg),
    }
}

fn values_eq(domain: CaseDomain, a: &Value, b: &Value) -> bool {
    match domain {
        CaseDomain::Float => value_close_with(a, b, OUT_RTOL),
        _ => a == b,
    }
}

fn push(failures: &mut Vec<FuzzFailure>, case: &CaseSpec, oracle: OracleKind, what: String) {
    failures.push(FuzzFailure {
        seed: case.seed,
        oracle,
        spec: case.render(),
        what,
    });
}

// ---------------------------------------------------------------------
// Oracle 1: optimized == unoptimized
// ---------------------------------------------------------------------

fn check_rewrite(case: &CaseSpec, ledger: &mut CoverageLedger, failures: &mut Vec<FuzzFailure>) {
    // The *base* (unfused) pipeline: fused stages carry tuple-typed
    // internal operators that scalar verification samples cannot probe;
    // pre-fused forms are exercised by the event-order oracle instead.
    let prog = case.base_program();
    let inputs = case.inputs();
    let samples = verification_samples(case);

    // Pass (a): full-rank-preserving rules only — every rank comparable.
    let full = Rewriter::exhaustive()
        .audited(samples.clone())
        .allow_rank0_rules(false)
        .optimize(&prog);
    for step in &full.steps {
        ledger.record_rule(step.rule);
    }
    compare_programs(case, &prog, &full.program, &inputs, None, failures);

    // Pass (b): with the Local (rank0-only) rules. Sound to compare only
    // when non-root ranks cannot feed back into rank 0 afterwards.
    let local = Rewriter::exhaustive().audited(samples).optimize(&prog);
    let applied_rank0 = local.steps.iter().any(|s| s.rank0_only);
    for step in &local.steps {
        ledger.record_rule(step.rule);
    }
    if applied_rank0 {
        if case.rank0_comparison_safe() {
            compare_programs(case, &prog, &local.program, &inputs, Some(0), failures);
        }
    } else if local.program.to_string() != full.program.to_string() {
        push(
            failures,
            case,
            OracleKind::Rewrite,
            format!(
                "rank0 pass applied no rank0-only step yet diverged: `{}` vs `{}`",
                local.program, full.program
            ),
        );
    }
}

/// Compare reference semantics and machine outputs of two programs;
/// `only_rank` restricts the comparison (rank0-only rewrites).
fn compare_programs(
    case: &CaseSpec,
    original: &Program,
    optimized: &Program,
    inputs: &[Value],
    only_rank: Option<usize>,
    failures: &mut Vec<FuzzFailure>,
) {
    let ranks: Vec<usize> = match only_rank {
        Some(r) => vec![r],
        None => (0..case.p).collect(),
    };

    let sem_a = eval_program(original, inputs);
    let sem_b = eval_program(optimized, inputs);
    for &r in &ranks {
        if !values_eq(case.domain, &sem_a[r], &sem_b[r]) {
            push(
                failures,
                case,
                OracleKind::Rewrite,
                format!(
                    "semantics diverge at rank {r}: {:?} vs {:?} (optimized: `{optimized}`)",
                    sem_a[r], sem_b[r]
                ),
            );
            return;
        }
    }

    let clock = oracle_clock();
    let run_a = execute(original, inputs, clock);
    let run_b = execute(optimized, inputs, clock);
    for &r in &ranks {
        if !values_eq(case.domain, &run_a.outputs[r], &run_b.outputs[r]) {
            push(
                failures,
                case,
                OracleKind::Rewrite,
                format!(
                    "machine outputs diverge at rank {r}: {:?} vs {:?} (optimized: `{optimized}`)",
                    run_a.outputs[r], run_b.outputs[r]
                ),
            );
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Oracle 2: canonical event order == permuted event order
// ---------------------------------------------------------------------

/// The tie-break oracle 2 compares against the canonical order: drawn from
/// the case seed, with bit 0 set so that every pair of ranks `(2k, 2k+1)`
/// due at the same time swaps whatever the draw.
fn permuted_order(case: &CaseSpec) -> u64 {
    Rng::new(case.seed).next_u64() | 1
}

fn check_event_order(case: &CaseSpec, failures: &mut Vec<FuzzFailure>) {
    let prog = case.program();
    let inputs = case.inputs();
    let clock = oracle_clock();
    let config = ExecConfig {
        profile: true,
        ..ExecConfig::default()
    };
    let order = permuted_order(case);
    let permuted = case.plan.clone().unwrap_or_default().with_order(order);
    let mut diverge = |what: String| {
        push(
            failures,
            case,
            OracleKind::EventOrder,
            format!("canonical vs order={order}: {what}"),
        );
    };

    let recoverable = case.plan.as_ref().is_none_or(FaultPlan::is_recoverable);
    if recoverable {
        // Completed traced runs: compare every observable bit-for-bit.
        let canonical = match &case.plan {
            None => Ok(execute_traced_with(&prog, &inputs, clock, config)),
            Some(plan) => execute_faulted_traced(&prog, &inputs, clock, config, plan),
        };
        let (a, b): (TracedExecOutcome, TracedExecOutcome) = match (
            canonical,
            execute_faulted_traced(&prog, &inputs, clock, config, &permuted),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) => return diverge(format!("canonical failed a recoverable plan: {e}")),
            (_, Err(e)) => return diverge(format!("permuted failed a recoverable plan: {e}")),
        };
        let what = if a.outputs != b.outputs {
            "outputs"
        } else if a.makespan.to_bits() != b.makespan.to_bits() {
            "makespan bits"
        } else if a.total_compute.to_bits() != b.total_compute.to_bits() {
            "compute-time bits"
        } else if a.total_messages != b.total_messages {
            "message counts"
        } else if a.total_retries != b.total_retries {
            "retry counts"
        } else if a.total_retry_time.to_bits() != b.total_retry_time.to_bits() {
            "retry-time bits"
        } else if chrome_trace_json(&[("fuzz", &a.trace)])
            != chrome_trace_json(&[("fuzz", &b.trace)])
        {
            "Chrome trace exports"
        } else {
            return;
        };
        diverge(format!("{what} differ"));
    } else {
        // Unrecoverable plan: both orders must share one fate, errors too.
        let plan = case.plan.as_ref().expect("unrecoverable implies a plan");
        let run = |plan| -> Result<_, MachineError> {
            execute_faulted(&prog, &inputs, clock, config, plan)
        };
        match (run(plan), run(&permuted)) {
            (Ok(a), Ok(b)) => {
                if a.outputs != b.outputs {
                    diverge("outputs differ".to_string());
                } else if a.makespan.to_bits() != b.makespan.to_bits() {
                    diverge("makespan bits differ".to_string());
                }
            }
            (Err(a), Err(b)) => {
                if a != b {
                    diverge(format!("errors differ ({a} vs {b})"));
                }
            }
            (a, b) => diverge(format!(
                "disagree on success ({} vs {})",
                if a.is_ok() { "ok" } else { "err" },
                if b.is_ok() { "ok" } else { "err" }
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Oracle 3: defense-layer unanimity
// ---------------------------------------------------------------------

fn check_defenses(case: &CaseSpec, failures: &mut Vec<FuzzFailure>) {
    // Analyzed on the *base* (unfused) pipeline: fused stages hide their
    // operators behind closures, which would blind the linter to tables
    // the brute-force expectation still counts.
    let prog = case.base_program();
    let cfg = AuditConfig::default();
    let full_domain: Vec<Value> = (0..N).map(Value::Int).collect();

    let expected_over: BTreeSet<String> = case.over_claims().into_iter().map(|c| c.law).collect();
    let expected_under: BTreeSet<String> = case.under_claims().into_iter().map(|c| c.law).collect();

    // Leg 1: the standalone auditor must find exactly the planted claim
    // gaps — set equality in both directions, no sampling slack (the
    // audit pool covers every residue class of the wrapped tables).
    let binops: Vec<_> = case
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| t.binop(i))
        .collect();
    let mut audit_over = BTreeSet::new();
    let mut audit_under = BTreeSet::new();
    for op in &binops {
        let audit = audit_operator(op, Domain::Int, &binops, &cfg);
        audit_over.extend(audit.over_claims.into_iter().map(|c| c.law));
        audit_under.extend(audit.under_claims.into_iter().map(|c| c.law));
    }
    if audit_over != expected_over {
        push(
            failures,
            case,
            OracleKind::Defense,
            format!("auditor over-claims {audit_over:?} != planted {expected_over:?}"),
        );
    }
    if audit_under != expected_under {
        push(
            failures,
            case,
            OracleKind::Defense,
            format!("auditor under-claims {audit_under:?} != planted {expected_under:?}"),
        );
    }

    // Leg 2: trusting vs audited rewriter + certificate validator.
    let trusting = Rewriter::exhaustive().optimize(&prog);
    let audited = Rewriter::exhaustive()
        .audited(full_domain.clone())
        .optimize(&prog);
    let trusting_issues = validate_result(&trusting, &full_domain, &cfg);
    let audited_issues = validate_result(&audited, &full_domain, &cfg);

    if !audited_issues.is_empty() {
        push(
            failures,
            case,
            OracleKind::Defense,
            format!(
                "audited rewriter produced a refutable certificate: {:?}",
                audited_issues.first()
            ),
        );
    }
    let rejected_laws: BTreeSet<String> =
        audited.rejections.iter().map(|r| r.law.clone()).collect();
    if let Some(bogus) = rejected_laws.difference(&expected_over).next() {
        push(
            failures,
            case,
            OracleKind::Defense,
            format!("audited rewriter rejected a *true* law: {bogus:?}"),
        );
    }

    if expected_over.is_empty() {
        // Honest table: nobody may cry wolf, and auditing must not cost
        // any rewrite the trusting engine found.
        if !audited.rejections.is_empty() {
            push(
                failures,
                case,
                OracleKind::Defense,
                format!(
                    "honest case, yet audited rewriter rejected: {}",
                    audited.rejections[0]
                ),
            );
        }
        if !trusting_issues.is_empty() {
            push(
                failures,
                case,
                OracleKind::Defense,
                format!(
                    "honest case, yet certifier flagged: {:?}",
                    trusting_issues[0]
                ),
            );
        }
        if audited.steps.len() != trusting.steps.len() {
            push(
                failures,
                case,
                OracleKind::Defense,
                format!(
                    "honest case, yet auditing changed the plan: {} vs {} steps",
                    audited.steps.len(),
                    trusting.steps.len()
                ),
            );
        }
    } else {
        // Planted lie: the generator guarantees the highest-priority
        // match needs the lying law, so the trusting engine fused on it —
        // the audited engine must reject it and the validator must refute
        // the trusting result, both naming a planted law.
        if trusting.steps.is_empty() {
            push(
                failures,
                case,
                OracleKind::Defense,
                "planted lie was not load-bearing: trusting engine applied nothing".to_string(),
            );
        }
        if !audited
            .rejections
            .iter()
            .any(|r| expected_over.contains(&r.law))
        {
            push(
                failures,
                case,
                OracleKind::Defense,
                format!(
                    "audited rewriter missed the lie: rejections {:?}, planted {expected_over:?}",
                    audited.rejections
                ),
            );
        }
        let validator_laws: Vec<&String> = trusting_issues
            .iter()
            .filter_map(|i| match i {
                CertificateIssue::LawViolated { law, .. } => Some(law),
                _ => None,
            })
            .collect();
        if !validator_laws.iter().any(|l| expected_over.contains(*l)) {
            push(
                failures,
                case,
                OracleKind::Defense,
                format!(
                    "certificate validator missed the lie: flagged {validator_laws:?}, planted {expected_over:?}"
                ),
            );
        }
    }

    // Leg 3: the linter. COL002 (unsound declaration) iff an over-claim
    // was planted; COL005 (under-declared property) iff one exists.
    let lint_cfg = LintConfig {
        fallback_domain: Some(Domain::Int),
        ..LintConfig::default()
    };
    let report = lint_program(&prog, None, &lint_cfg);
    let has = |code: &str| report.diagnostics.iter().any(|d| d.code == code);
    if has("COL002") == expected_over.is_empty() {
        push(
            failures,
            case,
            OracleKind::Defense,
            format!(
                "linter COL002 {} but planted over-claims are {expected_over:?}",
                if has("COL002") { "fired" } else { "silent" }
            ),
        );
    }
    if has("COL005") == expected_under.is_empty() {
        push(
            failures,
            case,
            OracleKind::Defense,
            format!(
                "linter COL005 {} but under-claims are {expected_under:?}",
                if has("COL005") { "fired" } else { "silent" }
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Oracle 4: saturation == brute-force optimum, ≤ greedy
// ---------------------------------------------------------------------

/// Stage-count ceiling for the brute-force oracle; above it the
/// exponential enumeration dominates the campaign's wall-clock.
const BRUTE_FORCE_MAX_STAGES: usize = 6;

/// Absolute slack for the greedy comparison. All costs come from the
/// same left-fold [`program_cost`], so agreements are bit-exact in
/// practice; the epsilon only guards hypothetical float-fold drift.
const COST_EPS: f64 = 1e-6;

fn check_saturation(case: &CaseSpec, ledger: &mut CoverageLedger, failures: &mut Vec<FuzzFailure>) {
    // The base (unfused) pipeline, like oracle 1: pre-fused stages are
    // reachable from it anyway when they pay off.
    let prog = case.base_program();
    if prog.len() > BRUTE_FORCE_MAX_STAGES {
        return;
    }
    ledger.saturation_cases += 1;
    let params = MachineParams::new(case.p, 100.0, 2.0); // = oracle_clock()
    let m = case.m as f64;
    let rewriter = Rewriter::exhaustive();
    let sat = rewriter.saturate(&prog, &params, m).result;
    let brute = rewriter.optimize_brute_force(&prog, &params, m);
    let greedy = Rewriter::cost_guided(params, m).optimize(&prog);

    let sat_cost = program_cost(&sat.program, &params, m);
    let brute_cost = program_cost(&brute.program, &params, m);
    if sat.program.to_string() != brute.program.to_string() {
        push(
            failures,
            case,
            OracleKind::Saturation,
            format!(
                "saturation extracted `{}` (cost {sat_cost}) but the brute-force optimum is `{}` (cost {brute_cost})",
                sat.program, brute.program
            ),
        );
    } else if sat_cost.to_bits() != brute_cost.to_bits() {
        push(
            failures,
            case,
            OracleKind::Saturation,
            format!("same extracted program, different cost bits: {sat_cost} vs {brute_cost}"),
        );
    }
    let greedy_cost = program_cost(&greedy.program, &params, m);
    if sat_cost > greedy_cost + COST_EPS {
        push(
            failures,
            case,
            OracleKind::Saturation,
            format!(
                "saturation cost {sat_cost} exceeds greedy cost {greedy_cost} (`{}` vs `{}`)",
                sat.program, greedy.program
            ),
        );
    }
    // Every step of the extracted plan carries a certificate; on honest
    // tables (where the declared laws genuinely hold on the full domain)
    // each one must revalidate.
    if case.domain == CaseDomain::Table && case.over_claims().is_empty() {
        let full_domain: Vec<Value> = (0..N).map(Value::Int).collect();
        let issues = validate_result(&sat, &full_domain, &AuditConfig::default());
        if let Some(issue) = issues.first() {
            push(
                failures,
                case,
                OracleKind::Saturation,
                format!("extracted plan's certificate failed revalidation: {issue:?}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{case_mode, generate_case, CaseMode, GenConfig};

    #[test]
    fn smoke_campaign_over_first_seeds_is_clean() {
        let cfg = GenConfig::default();
        let mut ledger = CoverageLedger::new();
        let mut failures = Vec::new();
        for seed in 0..60 {
            let case = generate_case(seed, &cfg);
            failures.extend(run_case(&case, &mut ledger));
        }
        assert!(
            failures.is_empty(),
            "oracle violations:\n{}",
            failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(ledger.cases, 60);
    }

    #[test]
    fn every_planted_lie_in_a_seed_window_is_caught() {
        let cfg = GenConfig::default();
        let mut ledger = CoverageLedger::new();
        let mut lies = 0;
        for seed in 0..120 {
            if matches!(case_mode(seed), CaseMode::OverClaim(_)) {
                let case = generate_case(seed, &cfg);
                let failures = run_case(&case, &mut ledger);
                assert!(failures.is_empty(), "seed {seed}: {}", failures[0]);
                lies += 1;
            }
        }
        assert!(lies >= 20);
        assert_eq!(
            ledger.lies_caught, lies,
            "a lie slipped past a defense layer"
        );
    }

    #[test]
    fn rule_coverage_saturates_within_110_consecutive_honest_seeds() {
        let cfg = GenConfig::default();
        let mut ledger = CoverageLedger::new();
        for seed in 0..220 {
            let case = generate_case(seed, &cfg);
            run_case(&case, &mut ledger);
        }
        assert!(
            ledger.missing_rules().is_empty(),
            "rules never fired: {:?}",
            ledger.missing_rules()
        );
    }
}
