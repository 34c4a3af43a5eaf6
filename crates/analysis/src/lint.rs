//! The pipeline linter: structured diagnostics over collective pipelines.
//!
//! Three families of findings, each with a stable code:
//!
//! | code     | severity | meaning                                               |
//! |----------|----------|-------------------------------------------------------|
//! | `COL001` | warning  | missed fusion: a rule applies and would save time     |
//! | `COL002` | error    | unsound declaration: a declared law fails, witness attached |
//! | `COL003` | warning  | cost regression: a rule applies but would *slow down* the pipeline on this machine |
//! | `COL004` | warning  | redundant collective (bcast after bcast/all-variant, gather;scatter round-trip) |
//! | `COL005` | note     | under-declared property: a law holds on the audit domain but is not declared |
//! | `COL006` | note     | floating-point operator: laws are tolerance-approximate |
//! | `COL007` | warning  | distribution mismatch: a stage consumes data on every rank but its producer leaves the result root-only or undefined |
//! | `COL008` | error    | schedule deadlock: a lowering's communication schedule has a wait-for cycle or barrier inconsistency (`collopt check`) |
//! | `COL009` | error    | unmatched message: an orphan receive or an unconsumed send in a schedule (`collopt check`) |
//! | `COL010` | error/note | round count above the cost model's promise (error) or above the `⌈log₂ p⌉` lower bound (note; `collopt check`) |
//! | `COL011` | —        | retired (a divisibility hazard of segmenting lowerings, which no stage runs); the number is not reused |
//! | `COL012` | warning  | a suggested rewrite narrows the final distribution to rank 0 |
//!
//! Diagnostics carry the stage index, the byte [`Span`] when the pipeline
//! came from source text ([`lint_source`] / `parse_pipeline_spanned`), and
//! a suggested rewrite where one exists. Output is available as a human
//! caret-annotated report ([`LintReport::render_human`]) and as
//! byte-stable hand-rolled JSON ([`LintReport::render_json`]), sorted by
//! `(stage, code, message)` in both forms.

use std::collections::BTreeSet;
use std::sync::Arc;

use collopt_core::egraph::{
    saturate_program, LawGate, PlanStep, RuleEvent, SaturateConfig, SaturationOutcome, StageId,
};
use collopt_core::op::{BinOp, RequiredLaw};
use collopt_core::parser::{parse_pipeline_spanned, ParseError, Span};
use collopt_core::rewrite::RULE_PRIORITY;
use collopt_core::rules;
use collopt_core::term::{Program, Stage};
use collopt_cost::MachineParams;
use collopt_machine::{write_json_display, write_json_num, write_json_str};

use crate::audit::{
    audit_claims, audit_law, declaration, domain_of_builtin, AuditConfig, Claim, Domain,
};

/// Diagnostic severity, ordered most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Soundness problem: acting on the pipeline as declared is wrong.
    Error,
    /// Performance or redundancy problem worth fixing.
    Warning,
    /// Informational finding.
    Note,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        })
    }
}

/// One structured finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code, `COL001`..`COL012`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description (machine-independent facts only live in
    /// the message; the span/stage fields carry the location).
    pub message: String,
    /// Index of the first stage the finding anchors on.
    pub stage: usize,
    /// Number of consecutive stages covered (≥ 1).
    pub len: usize,
    /// Byte span in the source text, when the pipeline was parsed.
    pub span: Option<Span>,
    /// A suggested replacement pipeline, where one exists.
    pub suggestion: Option<String>,
}

/// Linter configuration: the machine model the cost judgements use, plus
/// the audit settings for runtime law verification.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Machine parameters for cost judgements.
    pub params: MachineParams,
    /// Block size (words per processor) for cost judgements.
    pub block: f64,
    /// Operator-audit settings (seed, random trials, float tolerance).
    pub audit: AuditConfig,
    /// Domain assumed for operators the analyzer does not know by name;
    /// `None` (the default) skips runtime verification for them.
    pub fallback_domain: Option<Domain>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            params: MachineParams::new(64, 200.0, 2.0),
            block: 32.0,
            audit: AuditConfig::default(),
            fallback_domain: None,
        }
    }
}

/// The linter's result: diagnostics sorted by `(stage, code, message)`.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// The machine model the cost judgements used.
    pub params: MachineParams,
    /// Block size used.
    pub block: f64,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Render a human-readable report; with `src` available, findings are
    /// caret-annotated against the pipeline text.
    pub fn render_human(&self, src: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            match (src, d.span) {
                (Some(src), Some(span)) => {
                    let (line, col) = line_col(src, span.start);
                    let line_src = src.lines().nth(line - 1).unwrap_or("");
                    let caret_len = span.slice(src).chars().count().max(1);
                    out.push_str(&format!(" --> line {line}, column {col}\n"));
                    out.push_str("  |\n");
                    out.push_str(&format!("  | {line_src}\n"));
                    out.push_str(&format!(
                        "  | {}{}\n",
                        " ".repeat(col - 1),
                        "^".repeat(caret_len)
                    ));
                }
                _ => {
                    let range = if d.len > 1 {
                        format!("stages {}..{}", d.stage, d.stage + d.len)
                    } else {
                        format!("stage {}", d.stage)
                    };
                    out.push_str(&format!(" --> {range}\n"));
                }
            }
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("  = suggestion: {s}\n"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "summary: {} error(s), {} warning(s), {} note(s)\n",
            self.errors(),
            self.warnings(),
            self.notes()
        ));
        out
    }

    /// Render the report as compact JSON (hand-rolled, byte-stable for a
    /// fixed input and config): the text [`LintReport::write_json`] writes.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the report's JSON object to `out`, for embedding in a larger
    /// document; allocates nothing beyond `out`'s growth.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"version\":1,\"machine\":{\"p\":");
        write_json_num(out, self.params.p as f64);
        out.push_str(",\"ts\":");
        write_json_num(out, self.params.ts);
        out.push_str(",\"tw\":");
        write_json_num(out, self.params.tw);
        out.push_str(",\"m\":");
        write_json_num(out, self.block);
        out.push_str("},\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":");
            write_json_str(out, d.code);
            out.push_str(",\"severity\":");
            write_json_display(out, &d.severity);
            out.push_str(",\"stage\":");
            write_json_num(out, d.stage as f64);
            out.push_str(",\"len\":");
            write_json_num(out, d.len as f64);
            out.push_str(",\"span\":");
            match d.span {
                Some(span) => {
                    out.push_str("{\"start\":");
                    write_json_num(out, span.start as f64);
                    out.push_str(",\"end\":");
                    write_json_num(out, span.end as f64);
                    out.push('}');
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"message\":");
            write_json_str(out, &d.message);
            out.push_str(",\"suggestion\":");
            match &d.suggestion {
                Some(suggestion) => write_json_str(out, suggestion),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("],\"summary\":{\"errors\":");
        write_json_num(out, self.errors() as f64);
        out.push_str(",\"warnings\":");
        write_json_num(out, self.warnings() as f64);
        out.push_str(",\"notes\":");
        write_json_num(out, self.notes() as f64);
        out.push_str("}}");
    }
}

fn line_col(src: &str, at: usize) -> (usize, usize) {
    let prefix = &src[..at.min(src.len())];
    let line = prefix.matches('\n').count() + 1;
    let line_start = prefix.rfind('\n').map_or(0, |i| i + 1);
    (line, prefix[line_start..].chars().count() + 1)
}

fn stage_op(stage: &Stage) -> Option<&BinOp> {
    match stage {
        Stage::Scan(op) | Stage::Reduce(op) | Stage::AllReduce(op) => Some(op),
        _ => None,
    }
}

/// Span covering stages `[at, at+len)`, when stage spans are available.
fn window_span(spans: Option<&[Span]>, at: usize, len: usize) -> Option<Span> {
    let spans = spans?;
    let first = spans.get(at)?;
    let last = spans.get(at + len - 1)?;
    Some(Span::new(first.start, last.end))
}

/// Lint a parsed source pipeline: spans from the parser anchor every
/// diagnostic in the text.
pub fn lint_source(src: &str, cfg: &LintConfig) -> Result<LintReport, ParseError> {
    let (prog, spans) = parse_pipeline_spanned(src)?;
    Ok(lint_program(&prog, Some(&spans), cfg))
}

/// Lint a program term. `spans` (one per stage, as produced by
/// `parse_pipeline_spanned`) is optional; without it diagnostics anchor on
/// stage indices only.
pub fn lint_program(prog: &Program, spans: Option<&[Span]>, cfg: &LintConfig) -> LintReport {
    lint_with_plan(prog, spans, cfg, &lint_plan(prog, cfg))
}

/// The plan the linter measures `prog` against: equality saturation under
/// `cfg`'s machine model, rank-0 rules allowed, behind the linter's law gate
/// (a rule whose required laws fail on their operators' domain does not fire).
pub fn lint_plan(prog: &Program, cfg: &LintConfig) -> SaturationOutcome {
    let sat = SaturateConfig::new(cfg.params, cfg.block).law_gate(law_gate(prog, cfg));
    saturate_program(prog, &sat)
}

/// [`lint_program`] for a caller that already holds [`lint_plan`]'s
/// outcome for the same `prog` and `cfg` (the service serves that plan and
/// lints against it, saturating once).
pub fn lint_with_plan(
    prog: &Program,
    spans: Option<&[Span]>,
    cfg: &LintConfig,
    plan: &SaturationOutcome,
) -> LintReport {
    let mut diags = Vec::new();
    fusion_pass(prog, spans, plan, &mut diags);
    operator_pass(prog, spans, cfg, &mut diags);
    redundancy_pass(prog, spans, &mut diags);
    crate::distflow::distflow_pass(prog, spans, &mut diags);
    diags.sort_by(|a, b| (a.stage, a.code, &a.message).cmp(&(b.stage, b.code, &b.message)));
    LintReport {
        diagnostics: diags,
        params: cfg.params,
        block: cfg.block,
    }
}

/// The runtime check of a window's required laws, for `prog`'s windows:
/// `false` when a law fails on its operators' domain — the declaration
/// lies, the matching rule must not be suggested, and the operator pass
/// reports the lie; `true` when they hold or no one domain is known
/// (trust the declarations). The laws borrow the window's operators, so a
/// fact `audit` already knows (library operators, default config) is
/// answered without building anything.
///
/// `cfg.fallback_domain` applies only to the operators `prog` itself
/// declares. Operators a rewrite *derived* (the fused
/// `op_sr2[..]`/`op_ss[..]` families, which the exact pass encounters on
/// second-generation windows) work over tuples — probing them with scalar
/// fallback-domain samples would be ill-typed, and their laws hold by
/// construction when the sources' do, so they are trusted here and
/// re-checked by the certificate validator.
fn law_gate(prog: &Program, cfg: &LintConfig) -> LawGate {
    let audit = cfg.audit.clone();
    // The fallback domain covers the operators `prog` declares; their names
    // are needed only with one.
    let fallback = cfg.fallback_domain.map(|domain| {
        let names = prog.stages().iter().filter_map(stage_op);
        (
            domain,
            names
                .map(|op| op.name().to_string())
                .collect::<BTreeSet<_>>(),
        )
    });
    Arc::new(move |rule, window: &[&Stage]| {
        let Some(mut laws) = rules::required_laws(rule, window.iter().copied()) else {
            return true;
        };
        let declared = |name: &str| {
            let (domain, names) = fallback.as_ref()?;
            names.contains(name).then_some(*domain)
        };
        let mut domains = laws
            .clone()
            .flat_map(RequiredLaw::operators)
            .map(|op| domain_of_builtin(op.name()).or_else(|| declared(op.name())));
        // No domain, an unknown one or a second one: cannot sample.
        let Some(Some(domain)) = domains.next() else {
            return true;
        };
        domains.any(|d| d != Some(domain))
            || laws.all(|law| audit_law(&law, domain, &audit).is_none())
    })
}

/// COL012: the matched rewrite is a Local rule — its fused form keeps
/// only rank 0's value, so applying the suggestion changes the
/// pipeline's final distribution state from every-rank-meaningful to
/// rank-0-only. Legal exactly when nothing downstream consumes the other
/// ranks; the linter cannot see past the pipeline's end, so it warns.
fn dist_narrowing_diag(
    rule: rules::Rule,
    window_str: &str,
    stage: usize,
    len: usize,
    spans: Option<&[Span]>,
) -> Diagnostic {
    Diagnostic {
        code: "COL012",
        severity: Severity::Warning,
        message: format!(
            "distribution narrowing: fusing `{window_str}` via {rule} leaves the result on \
             rank 0 only, while the unfused pipeline ends with every rank holding its value — \
             safe only if downstream consumers read rank 0 exclusively"
        ),
        stage,
        len,
        span: window_span(spans, stage, len),
        suggestion: None,
    }
}

/// COL001 / COL003, exact, read off `plan`'s derivation ([`lint_plan`]):
/// the plan is the cost-optimal program under this machine model, and
/// every step of it becomes one COL001 anchored on the original stages it
/// rewrites. Windows the plan leaves alone are then swept in the engine's
/// priority order, looking up the rule events saturation recorded for the
/// input's windows: an event there can only regress cost (else extraction
/// would have used it), yielding COL003.
fn fusion_pass(
    prog: &Program,
    spans: Option<&[Span]>,
    plan: &SaturationOutcome,
    diags: &mut Vec<Diagnostic>,
) {
    let derivation = &plan.derivation;
    // Replacing `ids[at..at + len]`: the window's text and the saving, each
    // side summed in program order.
    let fuse = |ids: &[StageId], at: usize, len: usize, replacement: &[StageId]| {
        let saving = derivation.cost(ids.iter().copied())
            - derivation.cost(spliced(ids, at, len, replacement));
        let window = format!("{}", derivation.display(&ids[at..at + len]));
        (window, saving)
    };
    // COL001, and COL012 when the rule keeps only rank 0's value.
    let missed = |window: &str, event: &RuleEvent, saving: f64, stage, len, suggestion| {
        let rule = event.rule;
        let narrowing = event
            .rank0_only
            .then(|| dist_narrowing_diag(rule, window, stage, len, spans));
        let fusion = Diagnostic {
            code: "COL001",
            severity: Severity::Warning,
            message: format!(
                "missed fusion: `{window}` matches {rule}, fusing saves {saving:.1} time units"
            ),
            stage,
            len,
            span: window_span(spans, stage, len),
            suggestion: Some(suggestion),
        };
        std::iter::once(fusion).chain(narrowing)
    };

    // Each step anchors on the original stages its window descends from.
    for (k, step) in derivation.steps.iter().enumerate() {
        let event = &derivation.events[step.event];
        let (at, len) = (step.at, rules::window_len(event.rule));
        let (window, saving) = fuse(derivation.chain(k), at, len, &event.replacement);
        let (o_start, o_end) = step.origin;
        let o_len = (o_end - o_start).max(1);
        let child = format!("{}", derivation.display(derivation.chain(k + 1)));
        diags.extend(missed(&window, event, saving, o_start, o_len, child));
    }

    // Sweep the windows the plan did not touch, in the engine's matching
    // order. With the plan empty, an event here is *proof* of a regression:
    // saturation explored every ordering and still kept the original.
    let input = &derivation.input;
    let exhaustive = plan.result.steps.is_empty();
    let mut at = 0;
    while at < prog.len() {
        let hit = RULE_PRIORITY.into_iter().find_map(|rule| {
            let len = rules::window_len(rule);
            let event = derivation.event_for(rule, input.get(at..at + len)?)?;
            Some((rule, len, event))
        });
        let Some((rule, len, event)) = hit else {
            at += 1;
            continue;
        };
        let covered = |step: &PlanStep| at < step.origin.1 && at + len > step.origin.0;
        if !derivation.steps.iter().any(covered) {
            let (window, saving) = fuse(input, at, len, &event.replacement);
            if saving > 0.0 {
                // Reachable only when a node budget cut saturation short
                // and the plan is the best the built graph derives — keep
                // the windowed report so nothing is lost.
                let fused: Vec<StageId> = spliced(input, at, len, &event.replacement).collect();
                let suggestion = format!("{}", derivation.display(&fused));
                diags.extend(missed(&window, event, saving, at, len, suggestion));
            } else {
                let verdict = if exhaustive {
                    "exhaustive search confirms no rule ordering improves this pipeline"
                } else {
                    "apply rules cost-guided, not exhaustively"
                };
                diags.push(Diagnostic {
                    code: "COL003",
                    severity: Severity::Warning,
                    message: format!(
                        "cost regression: `{window}` matches {rule} but fusing costs {:.1} extra time units on this machine — {verdict}",
                        -saving
                    ),
                    stage: at,
                    len,
                    span: window_span(spans, at, len),
                    suggestion: None,
                });
            }
        }
        at += len;
    }
}

/// `ids` with `ids[at..at + len]` replaced.
fn spliced<'a>(
    ids: &'a [StageId],
    at: usize,
    len: usize,
    replacement: &'a [StageId],
) -> impl Iterator<Item = StageId> + 'a {
    ids[..at]
        .iter()
        .chain(replacement)
        .chain(&ids[at + len..])
        .copied()
}

/// COL002 / COL005 / COL006: audit every distinct operator used by the
/// pipeline against the other same-domain operators in it.
fn operator_pass(
    prog: &Program,
    spans: Option<&[Span]>,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    // The first stage of each distinct operator with a known domain,
    // grouped by domain: a group is its members' peer set.
    let mut seen = std::collections::HashSet::new();
    let mut distinct: Vec<(Domain, usize, &BinOp)> = Vec::new();
    for (i, stage) in prog.stages().iter().enumerate() {
        let Some(op) = stage_op(stage).filter(|op| seen.insert(op.name())) else {
            continue;
        };
        if let Some(domain) = domain_of_builtin(op.name()).or(cfg.fallback_domain) {
            distinct.push((domain, i, op));
        }
    }
    distinct.sort_by_key(|&(domain, i, _)| (domain, i));
    for group in distinct.chunk_by(|a, b| a.0 == b.0) {
        let peers: Vec<BinOp> = group.iter().map(|&(_, _, op)| op.clone()).collect();
        for &(domain, i, op) in group {
            let span = window_span(spans, i, 1);
            if domain == Domain::Float {
                diags.push(Diagnostic {
                code: "COL006",
                severity: Severity::Note,
                message: format!(
                    "`{}` is floating-point: its laws hold only up to relative tolerance {:e} (tolerance-approximate, not exact)",
                    op.name(),
                    cfg.audit.tolerance
                ),
                stage: i,
                len: 1,
                span,
                suggestion: None,
            });
            }
            audit_claims(op, domain, &peers, &cfg.audit, |law, claim| match claim {
                Claim::Verified => {}
                Claim::Over(counterexample) => diags.push(Diagnostic {
                    code: "COL002",
                    severity: Severity::Error,
                    message: format!(
                        "unsound declaration: `{}` declares {} but it fails — {counterexample}",
                        op.name(),
                        law.describe()
                    ),
                    stage: i,
                    len: 1,
                    span,
                    suggestion: Some(format!(
                        "remove the false property declaration from `{}`",
                        op.name()
                    )),
                }),
                Claim::Under => diags.push(Diagnostic {
                    code: "COL005",
                    severity: Severity::Note,
                    message: format!(
                        "under-declared property: {} holds on the audit domain but `{}` does not \
                         declare it; declaring `{}` could enable more fusions",
                        law.describe(),
                        op.name(),
                        declaration(law)
                    ),
                    stage: i,
                    len: 1,
                    span,
                    suggestion: None,
                }),
            });
        }
    }
}

/// COL004: collective compositions that move data for no effect.
fn redundancy_pass(prog: &Program, spans: Option<&[Span]>, diags: &mut Vec<Diagnostic>) {
    let stages = prog.stages();
    for i in 0..stages.len().saturating_sub(1) {
        let (message, at, len) = match (&stages[i], &stages[i + 1]) {
            (Stage::Bcast, Stage::Bcast) => (
                "redundant collective: bcast after bcast re-sends already-replicated data".to_string(),
                i + 1,
                1,
            ),
            (Stage::AllReduce(_), Stage::Bcast) | (Stage::AllGather, Stage::Bcast) => (
                "redundant collective: bcast after an all-variant collective (every rank already holds the value)"
                    .to_string(),
                i + 1,
                1,
            ),
            (Stage::Gather, Stage::Scatter) => (
                "redundant collective: gather immediately followed by scatter is the identity data movement"
                    .to_string(),
                i,
                2,
            ),
            _ => continue,
        };
        diags.push(Diagnostic {
            code: "COL004",
            severity: Severity::Warning,
            message,
            stage: at,
            len,
            span: window_span(spans, at, len),
            suggestion: Some("delete the redundant stage(s)".to_string()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_core::op::lib;
    use collopt_core::value::Value;

    fn cfg() -> LintConfig {
        LintConfig::default()
    }

    #[test]
    fn missed_fusion_is_reported_with_span_and_suggestion() {
        let src = "map f ; scan(mul) ; reduce(add) ; bcast";
        let report = lint_source(src, &cfg()).unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "COL001")
            .expect("scan(mul);reduce(add) is a missed SR2 fusion");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!((d.stage, d.len), (1, 2));
        assert_eq!(d.span.unwrap().slice(src), "scan(mul) ; reduce(add)");
        assert!(d.suggestion.is_some());
        assert!(d.message.contains("SR2-Reduction"));
    }

    #[test]
    fn unprofitable_fusion_is_a_cost_regression() {
        // SS-Scan pays off iff ts > m(tw+4): at m=200, 200 < 200*6.
        let mut c = cfg();
        c.block = 200.0;
        let report = lint_source("scan(add) ; scan(add)", &c).unwrap();
        assert_eq!(report.warnings(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "COL003");
        assert!(d.message.contains("cost regression"), "{}", d.message);
        // With an empty optimal plan the verdict is exact, not windowed.
        assert!(
            d.message.contains("exhaustive search confirms"),
            "{}",
            d.message
        );
    }

    #[test]
    fn exact_analysis_reports_the_optimal_plan_not_the_greedy_window() {
        // A first-match window walk would fuse scan;scan first (SS-Scan
        // at stage 0); the exact pass reports the globally optimal plan,
        // which keeps the first scan and fuses scan;reduce instead.
        let src = "scan(add) ; scan(add) ; reduce(add)";
        let mut c = cfg();
        c.params = MachineParams::new(64, 100.0, 2.0);
        c.block = 8.0;
        let report = lint_source(src, &c).unwrap();
        let fusions: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "COL001")
            .collect();
        assert_eq!(fusions.len(), 1, "{:#?}", report.diagnostics);
        let d = fusions[0];
        assert!(d.message.contains("SR-Reduction"), "{}", d.message);
        assert_eq!((d.stage, d.len), (1, 2));
        assert_eq!(d.span.unwrap().slice(src), "scan(add) ; reduce(add)");
        // The plan-covered region is not double-reported by the sweep.
        assert!(report.diagnostics.iter().all(|d| d.code != "COL003"));
    }

    #[test]
    fn plan_anchors_survive_normalization() {
        // bcast ; map f ; scan — the plan fires after bcast/map commute;
        // the COL001 must still anchor on the original bcast..scan text.
        let src = "bcast ; map f ; scan(add)";
        let mut c = cfg();
        c.params = MachineParams::new(64, 1000.0, 2.0);
        c.block = 4.0;
        let report = lint_source(src, &c).unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "COL001")
            .expect("bcast;scan fuses via BS-Comcast after commuting");
        assert!(d.message.contains("BS-Comcast"), "{}", d.message);
        assert_eq!(d.stage, 0);
        assert!(d.stage + d.len >= 3, "{:#?}", d);
        assert_eq!(d.span.unwrap().slice(src), src);
    }

    #[test]
    fn redundant_collectives_are_flagged() {
        let report = lint_source("allreduce(add) ; bcast", &cfg()).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "COL004"));
        let report = lint_source("gather ; scatter", &cfg()).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "COL004"));
        let report = lint_source("bcast ; bcast", &cfg()).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "COL004"));
    }

    #[test]
    fn lying_operator_yields_col002_error() {
        let lying = BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int())).commutative();
        let prog = Program::new().scan(lying.clone()).reduce(lying);
        let mut c = cfg();
        c.fallback_domain = Some(Domain::Int);
        let report = lint_program(&prog, None, &c);
        assert!(report.errors() >= 1);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "COL002")
            .unwrap();
        assert!(d.message.contains("unsound declaration"), "{}", d.message);
        // And no fusion is suggested on the strength of the lie.
        assert!(report.diagnostics.iter().all(|d| d.code != "COL001"));
    }

    #[test]
    fn float_ops_get_tolerance_note() {
        let report = lint_source("scan(fmul) ; reduce(fadd)", &cfg()).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "COL006"));
    }

    #[test]
    fn under_declaration_yields_note() {
        // add distributes over max on the audit domain, but lib::add()
        // does not declare it (only the tropical variant does).
        let report = lint_source("scan(add) ; reduce(max)", &cfg()).unwrap();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "COL005" && d.message.contains("add distributes over max")),
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn clean_pipeline_is_clean() {
        let report = lint_source("map f ; reduce(add) ; map g", &cfg()).unwrap();
        assert_eq!(
            report.errors() + report.warnings(),
            0,
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn json_is_stable_and_parses_back() {
        let report = lint_source("scan(mul) ; reduce(add)", &cfg()).unwrap();
        let a = report.render_json();
        let b = lint_source("scan(mul) ; reduce(add)", &cfg())
            .unwrap()
            .render_json();
        assert_eq!(a, b);
        collopt_machine::Json::parse(&a).expect("renderer emits valid JSON");
    }

    #[test]
    fn human_render_includes_carets_and_summary() {
        let src = "scan(mul) ; reduce(add)";
        let out = lint_source(src, &cfg()).unwrap().render_human(Some(src));
        assert!(out.contains("warning[COL001]"));
        assert!(out.contains("^^^"));
        assert!(out.contains("summary:"));
    }

    #[test]
    fn report_without_spans_anchors_on_stages() {
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        let out = lint_program(&prog, None, &cfg()).render_human(None);
        assert!(out.contains("--> stages 0..2"), "{out}");
    }
}
