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
//! | `COL011` | warning  | divisibility hazard: a segmenting lowering wins the cost comparison but `p ∤ m` |
//! | `COL012` | warning  | a suggested rewrite narrows the final distribution to rank 0 |
//!
//! Diagnostics carry the stage index, the byte [`Span`] when the pipeline
//! came from source text ([`lint_source`] / `parse_pipeline_spanned`), and
//! a suggested rewrite where one exists. Output is available as a human
//! caret-annotated report ([`LintReport::render_human`]) and as
//! byte-stable hand-rolled JSON ([`LintReport::render_json`]), sorted by
//! `(stage, code, message)` in both forms.

use std::sync::Arc;

use collopt_core::egraph::{saturate_program, LawGate, SaturateConfig};
use collopt_core::op::BinOp;
use collopt_core::parser::{parse_pipeline_spanned, ParseError, Span};
use collopt_core::rewrite::{program_cost, OptimizeResult, RULE_PRIORITY};
use collopt_core::rules;
use collopt_core::rules::enabling::{self, Normalization};
use collopt_core::term::{Program, Stage};
use collopt_cost::MachineParams;
use collopt_machine::Json;

use crate::audit::{audit_law, audit_operator, domain_of_builtin, AuditConfig, Domain};

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
    /// fixed input and config).
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }

    /// The report as a JSON value, for embedding in a larger document.
    pub fn to_json(&self) -> Json {
        let span_json = |span: Option<Span>| match span {
            Some(s) => Json::Obj(vec![
                ("start".into(), Json::Num(s.start as f64)),
                ("end".into(), Json::Num(s.end as f64)),
            ]),
            None => Json::Null,
        };
        let diags: Vec<Json> = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("code".into(), Json::Str(d.code.to_string())),
                    ("severity".into(), Json::Str(d.severity.to_string())),
                    ("stage".into(), Json::Num(d.stage as f64)),
                    ("len".into(), Json::Num(d.len as f64)),
                    ("span".into(), span_json(d.span)),
                    ("message".into(), Json::Str(d.message.clone())),
                    (
                        "suggestion".into(),
                        d.suggestion.clone().map_or(Json::Null, Json::Str),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            (
                "machine".into(),
                Json::Obj(vec![
                    ("p".into(), Json::Num(self.params.p as f64)),
                    ("ts".into(), Json::Num(self.params.ts)),
                    ("tw".into(), Json::Num(self.params.tw)),
                    ("m".into(), Json::Num(self.block)),
                ]),
            ),
            ("diagnostics".into(), Json::Arr(diags)),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("errors".into(), Json::Num(self.errors() as f64)),
                    ("warnings".into(), Json::Num(self.warnings() as f64)),
                    ("notes".into(), Json::Num(self.notes() as f64)),
                ]),
            ),
        ])
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
pub fn lint_plan(prog: &Program, cfg: &LintConfig) -> OptimizeResult {
    let sat = SaturateConfig::new(cfg.params, cfg.block).law_gate(law_gate(prog, cfg));
    saturate_program(prog, &sat).result
}

/// [`lint_program`] for a caller that already holds [`lint_plan`]'s result
/// for the same `prog` and `cfg` (the service serves that plan and lints
/// against it, saturating once).
pub fn lint_with_plan(
    prog: &Program,
    spans: Option<&[Span]>,
    cfg: &LintConfig,
    plan: &OptimizeResult,
) -> LintReport {
    let mut diags = Vec::new();
    fusion_pass(prog, spans, cfg, plan, &mut diags);
    operator_pass(prog, spans, cfg, &mut diags);
    redundancy_pass(prog, spans, &mut diags);
    crate::distflow::distflow_pass(prog, spans, cfg, &mut diags);
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
/// (trust the declarations).
///
/// `cfg.fallback_domain` applies only to the operators `prog` itself
/// declares. Operators a rewrite *derived* (the fused
/// `op_sr2[..]`/`op_ss[..]` families, which the exact pass encounters on
/// second-generation windows) work over tuples — probing them with scalar
/// fallback-domain samples would be ill-typed, and their laws hold by
/// construction when the sources' do, so they are trusted here and
/// re-checked by the certificate validator.
fn law_gate(prog: &Program, cfg: &LintConfig) -> LawGate {
    let (fallback, audit) = (cfg.fallback_domain, cfg.audit.clone());
    let source_ops: std::collections::BTreeSet<String> = prog
        .stages()
        .iter()
        .filter_map(stage_op)
        .map(|op| op.name().to_string())
        .collect();
    Arc::new(move |rule, window: &[Stage]| {
        let Some(laws) = rules::required_laws(rule, window) else {
            return true;
        };
        let mut domains = laws
            .iter()
            .flat_map(|law| law.op_names())
            .map(|name| domain_of_builtin(name).or(fallback.filter(|_| source_ops.contains(name))));
        // No domain, an unknown one or a second one: cannot sample.
        let Some(Some(domain)) = domains.next() else {
            return true;
        };
        domains.any(|d| d != Some(domain))
            || laws.iter().all(|l| audit_law(l, domain, &audit).is_none())
    })
}

/// Replay an [`enabling::normalize`] log onto the per-stage origin map
/// (`origins[i]` = half-open range of *original* stage indices the
/// current stage `i` descends from), so findings on the normalized
/// program anchor — and caret — on the source text.
fn apply_norm_log(origins: &mut Vec<(usize, usize)>, log: &[Normalization]) {
    for n in log {
        match n {
            Normalization::MapFuse { at, .. } => {
                let (a, b) = (origins[*at], origins[*at + 1]);
                origins[*at] = (a.0.min(b.0), a.1.max(b.1));
                origins.remove(*at + 1);
            }
            Normalization::GatherScatterElim { at } => {
                origins.drain(*at..*at + 2);
            }
            Normalization::BcastMapCommute { at, .. } => {
                origins.swap(*at, *at + 1);
            }
        }
    }
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

/// COL001 / COL003, exact: `plan` ([`lint_plan`]) is the cost-optimal
/// program under this machine model, and every step of it becomes one
/// COL001 anchored on the original stages it rewrites. Windows the plan
/// leaves alone are then swept in the engine's priority order: a matching
/// rule there can only regress cost (else extraction would have used it),
/// yielding COL003.
fn fusion_pass(
    prog: &Program,
    spans: Option<&[Span]>,
    cfg: &LintConfig,
    plan: &OptimizeResult,
    diags: &mut Vec<Diagnostic>,
) {
    if prog.is_empty() {
        return;
    }

    // Replay the plan over the original program, tracking which original
    // stages each current stage descends from.
    let mut covered: Vec<(usize, usize)> = Vec::new();
    let mut origins: Vec<(usize, usize)> = (0..prog.len()).map(|i| (i, i + 1)).collect();
    let (mut current, log) = enabling::normalize(prog);
    apply_norm_log(&mut origins, &log);
    for step in &plan.steps {
        let at = step.at;
        let len = rules::window_len(step.rule);
        let stages = current.stages();
        let Some(rw) = rules::try_match(step.rule, &stages[at..]) else {
            break; // replay diverged (saturation fell back): keep the sweep below
        };
        let window_str: Vec<String> = stages[at..at + len].iter().map(|s| s.describe()).collect();
        let window_str = window_str.join(" ; ");
        let candidate = current.splice(at, len, rw.stages.clone());
        let saving = program_cost(&current, &cfg.params, cfg.block)
            - program_cost(&candidate, &cfg.params, cfg.block);
        let (o_start, o_end) = origins[at..at + len]
            .iter()
            .fold((usize::MAX, 0), |(s, e), &(os, oe)| (s.min(os), e.max(oe)));
        origins.splice(
            at..at + len,
            std::iter::repeat_n((o_start, o_end), rw.stages.len()),
        );
        let (normed, log) = enabling::normalize(&candidate);
        apply_norm_log(&mut origins, &log);
        current = normed;
        let o_len = (o_end - o_start).max(1);
        diags.push(Diagnostic {
            code: "COL001",
            severity: Severity::Warning,
            message: format!(
                "missed fusion: `{window_str}` matches {}, fusing saves {saving:.1} time units",
                step.rule
            ),
            stage: o_start,
            len: o_len,
            span: window_span(spans, o_start, o_len),
            suggestion: Some(current.to_string()),
        });
        if rw.rank0_only {
            diags.push(dist_narrowing_diag(
                step.rule,
                &window_str,
                o_start,
                o_len,
                spans,
            ));
        }
        covered.push((o_start, o_end));
    }

    // Sweep the windows the plan did not touch, in the engine's matching
    // order. With the plan empty, a match here is *proof* of a regression:
    // saturation explored every ordering and still kept the original.
    let stages = prog.stages();
    let admits = law_gate(prog, cfg);
    let exhaustive = plan.steps.is_empty();
    let mut at = 0;
    while at < prog.len() {
        let mut advanced = false;
        for rule in RULE_PRIORITY {
            let Some(rw) = rules::try_match(rule, &stages[at..]) else {
                continue;
            };
            if !admits(rule, &stages[at..]) {
                continue;
            }
            let len = rules::window_len(rule);
            if covered.iter().any(|&(s, e)| at < e && at + len > s) {
                at += len;
                advanced = true;
                break;
            }
            let candidate = prog.splice(at, len, rw.stages.clone());
            let saving = program_cost(prog, &cfg.params, cfg.block)
                - program_cost(&candidate, &cfg.params, cfg.block);
            let window_str: Vec<String> =
                stages[at..at + len].iter().map(|s| s.describe()).collect();
            let window_str = window_str.join(" ; ");
            if saving > 0.0 {
                // Unreachable unless saturation hit its node budget and
                // fell back — keep the windowed report so nothing is lost.
                diags.push(Diagnostic {
                    code: "COL001",
                    severity: Severity::Warning,
                    message: format!(
                        "missed fusion: `{window_str}` matches {rule}, fusing saves {saving:.1} time units"
                    ),
                    stage: at,
                    len,
                    span: window_span(spans, at, len),
                    suggestion: Some(candidate.to_string()),
                });
                if rw.rank0_only {
                    diags.push(dist_narrowing_diag(rule, &window_str, at, len, spans));
                }
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
                        "cost regression: `{window_str}` matches {rule} but fusing costs {:.1} extra time units on this machine — {verdict}",
                        -saving
                    ),
                    stage: at,
                    len,
                    span: window_span(spans, at, len),
                    suggestion: None,
                });
            }
            at += len;
            advanced = true;
            break;
        }
        if !advanced {
            at += 1;
        }
    }
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
            let audit = audit_operator(op, domain, &peers, &cfg.audit);
            for claim in &audit.over_claims {
                diags.push(Diagnostic {
                    code: "COL002",
                    severity: Severity::Error,
                    message: format!(
                        "unsound declaration: `{}` declares {} but it fails — {}",
                        claim.op, claim.law, claim.counterexample
                    ),
                    stage: i,
                    len: 1,
                    span,
                    suggestion: Some(format!(
                        "remove the false property declaration from `{}`",
                        claim.op
                    )),
                });
            }
            for claim in &audit.under_claims {
                diags.push(Diagnostic {
                code: "COL005",
                severity: Severity::Note,
                message: format!(
                    "under-declared property: {} holds on the audit domain but `{}` does not declare it; declaring `{}` could enable more fusions",
                    claim.law, claim.op, claim.declaration
                ),
                stage: i,
                len: 1,
                span,
                suggestion: None,
            });
            }
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
        // The greedy window walk would fuse scan;scan first (SS-Scan at
        // stage 0); the exact pass reports the globally optimal plan,
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
        Json::parse(&a).expect("renderer emits valid JSON");
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
