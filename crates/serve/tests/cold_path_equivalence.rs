//! The cold path's bytes equal the recipe it replaced, byte for byte.
//!
//! `service::write_body` writes a response body member by member into one
//! buffer, after `service::solve` saturated once and linted against that
//! plan. The reference here is the recipe both replaced, from public
//! parts only: an ungated `Rewriter::saturate` for the plan, a
//! self-contained `lint_program` (its own gated saturation), the makespans
//! of an independent copy of the synthetic inputs, and the whole document
//! built as a `Json` tree — by the tree builders `core::report` and
//! `LintReport` had before their documents were written, kept below —
//! then rendered and wrapped the way `ok_response` once `format!`ted it.
//! The deck covers what the benchmark's traffic never sends: `all_ranks`
//! (where the linter keeps its own saturation), `lint: false` and
//! `simulate: true`.

use collopt_analysis::{lint_program, LintConfig, LintReport};
use collopt_core::exec::execute;
use collopt_core::rewrite::{program_cost, OptimizeResult, RewriteStep, Rewriter, Witness};
use collopt_core::rules::enabling::Normalization;
use collopt_core::term::{Program, Stage};
use collopt_core::value::Value;
use collopt_cost::MachineParams;
use collopt_machine::{ClockParams, Json};
use collopt_serve::{canonicalize, parse_request, Op, Request, Service};

fn program_json(prog: &Program, params: &MachineParams, m: f64) -> Json {
    Json::Obj(vec![
        ("program".into(), Json::Str(prog.to_string())),
        ("cost".into(), Json::Num(program_cost(prog, params, m))),
        ("stages".into(), Json::Num(prog.len() as f64)),
        (
            "collectives".into(),
            Json::Num(prog.collective_count() as f64),
        ),
    ])
}

fn step_json(step: &RewriteStep) -> Json {
    let witness = match step.certificate.witness {
        Witness::Declared => Json::Obj(vec![("kind".into(), Json::Str("declared".into()))]),
        Witness::Checked { samples } => Json::Obj(vec![
            ("kind".into(), Json::Str("checked".into())),
            ("samples".into(), Json::Num(samples as f64)),
        ]),
    };
    let laws = step
        .certificate
        .laws
        .iter()
        .map(|l| Json::Str(l.describe()))
        .collect();
    Json::Obj(vec![
        ("rule".into(), Json::Str(step.rule.to_string())),
        ("at".into(), Json::Num(step.at as f64)),
        ("saving".into(), step.saving.map_or(Json::Null, Json::Num)),
        ("description".into(), Json::Str(step.description.clone())),
        ("rank0_only".into(), Json::Bool(step.rank0_only)),
        (
            "certificate".into(),
            Json::Obj(vec![
                ("laws".into(), Json::Arr(laws)),
                ("witness".into(), witness),
            ]),
        ),
    ])
}

fn normalization_json(n: &Normalization) -> Json {
    match n {
        Normalization::MapFuse { at, label } => Json::Obj(vec![
            ("kind".into(), Json::Str("map-fuse".into())),
            ("at".into(), Json::Num(*at as f64)),
            ("label".into(), Json::Str(label.clone())),
        ]),
        Normalization::BcastMapCommute { at, label } => Json::Obj(vec![
            ("kind".into(), Json::Str("bcast-map-commute".into())),
            ("at".into(), Json::Num(*at as f64)),
            ("label".into(), Json::Str(label.clone())),
        ]),
        Normalization::GatherScatterElim { at } => Json::Obj(vec![
            ("kind".into(), Json::Str("gather-scatter-elim".into())),
            ("at".into(), Json::Num(*at as f64)),
        ]),
    }
}

fn optimize_result_tree(
    prog: &Program,
    result: &OptimizeResult,
    params: &MachineParams,
    m: f64,
) -> Vec<(String, Json)> {
    let before = program_cost(prog, params, m);
    let after = program_cost(&result.program, params, m);
    let percent = if before > 0.0 {
        100.0 * (before - after) / before
    } else {
        0.0
    };
    let rejections = result
        .rejections
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(r.rule.to_string())),
                ("at".into(), Json::Num(r.at as f64)),
                ("law".into(), Json::Str(r.law.clone())),
                (
                    "counterexample".into(),
                    Json::Str(r.counterexample.to_string()),
                ),
            ])
        })
        .collect();
    vec![
        ("version".into(), Json::Num(1.0)),
        (
            "machine".into(),
            Json::Obj(vec![
                ("p".into(), Json::Num(params.p as f64)),
                ("ts".into(), Json::Num(params.ts)),
                ("tw".into(), Json::Num(params.tw)),
                ("m".into(), Json::Num(m)),
            ]),
        ),
        ("original".into(), program_json(prog, params, m)),
        ("optimized".into(), program_json(&result.program, params, m)),
        (
            "cost".into(),
            Json::Obj(vec![
                ("before".into(), Json::Num(before)),
                ("after".into(), Json::Num(after)),
                ("saving".into(), Json::Num(before - after)),
                ("percent".into(), Json::Num(percent)),
            ]),
        ),
        (
            "steps".into(),
            Json::Arr(result.steps.iter().map(step_json).collect()),
        ),
        (
            "normalizations".into(),
            Json::Arr(
                result
                    .normalizations
                    .iter()
                    .map(normalization_json)
                    .collect(),
            ),
        ),
        ("rejections".into(), Json::Arr(rejections)),
    ]
}

fn lint_tree(report: &LintReport) -> Json {
    let span_json = |span: Option<collopt_core::parser::Span>| match span {
        Some(s) => Json::Obj(vec![
            ("start".into(), Json::Num(s.start as f64)),
            ("end".into(), Json::Num(s.end as f64)),
        ]),
        None => Json::Null,
    };
    let diags = report
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
                ("p".into(), Json::Num(report.params.p as f64)),
                ("ts".into(), Json::Num(report.params.ts)),
                ("tw".into(), Json::Num(report.params.tw)),
                ("m".into(), Json::Num(report.block)),
            ]),
        ),
        ("diagnostics".into(), Json::Arr(diags)),
        (
            "summary".into(),
            Json::Obj(vec![
                ("errors".into(), Json::Num(report.errors() as f64)),
                ("warnings".into(), Json::Num(report.warnings() as f64)),
                ("notes".into(), Json::Num(report.notes() as f64)),
            ]),
        ),
    ])
}

fn reference(line: &str) -> String {
    let Ok(Request {
        id,
        op: Op::Optimize(req),
    }) = parse_request(line)
    else {
        panic!("not an optimize request: {line}")
    };
    let (canonical, _) = canonicalize(&req.pipeline).expect("deck pipelines parse");
    let params = MachineParams::new(req.p, req.ts, req.tw);
    let result = Rewriter::cost_guided(params, req.m)
        .allow_rank0_rules(!req.all_ranks)
        .saturate(&canonical, &params, req.m)
        .result;
    let mut fields = optimize_result_tree(&canonical, &result, &params, req.m);
    let lint = if req.lint {
        let cfg = LintConfig {
            params,
            block: req.m,
            ..LintConfig::default()
        };
        lint_tree(&lint_program(&canonical, None, &cfg))
    } else {
        Json::Null
    };
    let simulation = if req.simulate {
        // The synthetic inputs are ints, which a boolean operator cannot
        // combine: the request is refused, with the first one named.
        let boolean = canonical.stages().iter().find_map(|stage| match stage {
            Stage::Scan(op) | Stage::Reduce(op) | Stage::AllReduce(op)
                if matches!(op.name(), "and" | "or") =>
            {
                Some(op.name())
            }
            _ => None,
        });
        if let Some(name) = boolean {
            let message = format!(
                "simulate: `{name}` combines booleans, and the simulated inputs are integers"
            );
            return format!(
                "{{\"id\":{},\"ok\":false,\"error\":{{\"code\":\"bad_request\",\"message\":{}}}}}",
                id.render(),
                Json::Str(message).render()
            );
        }
        let words = req.m.clamp(1.0, 1e6) as usize;
        let inputs: Vec<Value> = (0..req.p)
            .map(|r| Value::int_list((0..words).map(|j| ((r * 7 + j) % 5 + 1) as i64)))
            .collect();
        let clock = ClockParams::new(req.ts, req.tw);
        Json::Obj(vec![
            (
                "original_makespan".into(),
                Json::Num(execute(&canonical, &inputs, clock).makespan),
            ),
            (
                "optimized_makespan".into(),
                Json::Num(execute(&result.program, &inputs, clock).makespan),
            ),
        ])
    } else {
        Json::Null
    };
    fields.push(("lint".into(), lint));
    fields.push(("simulation".into(), simulation));
    format!(
        "{{\"id\":{},\"ok\":true,\"result\":{}}}",
        id.render(),
        Json::Obj(fields).render()
    )
}

/// Answer every line cold and hold each reply to the reference.
fn check_deck(lines: &[String]) {
    let service = Service::new(4);
    let mut refused = 0;
    for line in lines {
        let reply = service.handle_line(line).text;
        assert_eq!(reply, reference(line), "{line}");
        let doc = Json::parse(&reply).expect("replies are JSON");
        refused += usize::from(doc.get("ok") == Some(&Json::Bool(false)));
    }
    assert_eq!(
        service.cache_stats().misses as usize,
        lines.len() - refused,
        "every served line ran cold"
    );
}

#[test]
fn handle_line_equals_the_reference_recipe() {
    let pipelines = [
        // int, one step and several
        "scan(mul) ; reduce(add)",
        "map f ; scan(mul) ; reduce(add) ; map g ; bcast",
        "bcast ; scan(add) ; scan(add) ; reduce(add)",
        "scan(add) ; scan(add) ; reduce(add) ; bcast ; scan(max) ; reduce(min)",
        // rank-0 rules: what `all_ranks` forbids the served plan
        "bcast ; reduce(add)",
        "bcast ; scan(mul) ; reduce(add)",
        // float, tropical, boolean
        "scan(fmul) ; reduce(fadd)",
        "bcast ; scan(fadd) ; allreduce(fadd)",
        "scan(maxplus) ; allreduce(max)",
        "scan(and) ; reduce(or)",
        // an under-claim, a mixed-domain window
        "scan(add) ; reduce(max)",
        "scan(add) ; reduce(fadd)",
        // normalization and redundancy
        "gather ; scatter",
        "gather ; scatter ; scan(add) ; allreduce(add) ; bcast",
        // empty plans
        "map f ; reduce(add) ; map g",
        "scan(add)",
    ];
    // A machine where fusing pays and one where some fusions regress
    // (COL003), with a fractional block size in the report.
    let machines = [
        r#""p":64,"ts":200,"tw":2,"m":32"#,
        r#""p":13,"ts":10,"tw":2.5,"m":200.5"#,
    ];
    let options = [
        r#"{"all_ranks":false,"lint":true}"#,
        r#"{"all_ranks":true,"lint":true}"#,
        r#"{"all_ranks":false,"lint":false}"#,
        r#"{"all_ranks":true,"lint":false}"#,
        r#"{"simulate":true}"#,
    ];
    let mut lines = Vec::new();
    for pipeline in pipelines {
        for machine in machines {
            for options in options {
                let id = lines.len();
                lines.push(format!(
                    r#"{{"id":"{id}","pipeline":"{pipeline}",{machine},"options":{options}}}"#
                ));
            }
        }
    }
    check_deck(&lines);
}

/// SplitMix64, for a deck that is the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

#[test]
fn handle_line_equals_the_reference_recipe_on_a_generated_deck() {
    // The benchmark's request shape: depth 3–6 over five stage kinds and
    // four operators, a distinct machine per request. Every fourth line
    // asks for `all_ranks`, `lint: false` or a simulation (on a machine
    // small enough to simulate quickly).
    const OPERATORS: [&str; 4] = ["add", "mul", "max", "min"];
    let mut rng = Rng(0x5EED);
    let lines: Vec<String> = (0..320)
        .map(|i| {
            let stages: Vec<String> = (0..3 + i % 4)
                .map(|at| {
                    let op = OPERATORS[rng.below(4) as usize];
                    match rng.below(5) {
                        0 => format!("scan({op})"),
                        1 => format!("reduce({op})"),
                        2 => format!("allreduce({op})"),
                        3 => "bcast".to_string(),
                        _ => format!("map f{at}"),
                    }
                })
                .collect();
            let pipeline = stages.join(" ; ");
            let (options, p, m) = match i % 4 {
                0 => ("{}", 2 + rng.below(1023), 1 + rng.below(99_999)),
                1 => (r#"{"all_ranks":true}"#, 2 + rng.below(1023), 1 + rng.below(99_999)),
                2 => (r#"{"lint":false}"#, 2 + rng.below(1023), 1 + rng.below(99_999)),
                _ => (r#"{"simulate":true}"#, 2 + rng.below(15), 1 + rng.below(32)),
            };
            let ts = 10 + rng.below(990);
            format!(
                r#"{{"id":{i},"pipeline":"{pipeline}","p":{p},"ts":{ts},"m":{m},"options":{options}}}"#
            )
        })
        .collect();
    check_deck(&lines);
}
