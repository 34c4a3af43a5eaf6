//! Human-readable optimization reports.
//!
//! [`optimization_report`] runs the rewrite engine on a program and
//! renders a Markdown document: the original and optimized pipelines, the
//! applied rules with their predicted savings, the enabling
//! transformations, and a per-stage cost table for both versions — the
//! artifact a performance engineer would attach to a code review.

use collopt_cost::MachineParams;
use collopt_machine::{ClockParams, FaultPlan, Json};

use crate::exec::{execute, execute_faulted, execute_profiled, execute_traced_with, ExecConfig};
use crate::rewrite::{program_cost, stage_cost, OptimizeResult, RewriteStep, Rewriter, Witness};
use crate::rules::enabling::Normalization;
use crate::term::Program;
use crate::value::Value;

/// Render a per-stage cost table for one program.
fn stage_table(prog: &Program, params: &MachineParams, m: f64) -> String {
    let mut out = String::from("| # | stage | cost |\n|---|-------|-----:|\n");
    for (i, stage) in prog.stages().iter().enumerate() {
        out.push_str(&format!(
            "| {} | `{}` | {:.0} |\n",
            i,
            stage.describe(),
            stage_cost(stage, params, m)
        ));
    }
    out.push_str(&format!(
        "| | **total** | **{:.0}** |\n",
        program_cost(prog, params, m)
    ));
    out
}

/// Optimize `prog` with the given rewriter and render a Markdown report
/// for the design point `(params, m)`.
pub fn optimization_report(
    prog: &Program,
    rewriter: &Rewriter,
    params: &MachineParams,
    m: f64,
) -> (OptimizeResult, String) {
    let result = rewriter.optimize(prog);
    let before = program_cost(prog, params, m);
    let after = program_cost(&result.program, params, m);

    let mut out = String::new();
    out.push_str("# Collective-operation optimization report\n\n");
    out.push_str(&format!(
        "Machine: `p = {}`, `ts = {}`, `tw = {}`; block size `m = {}`.\n\n",
        params.p, params.ts, params.tw, m
    ));
    out.push_str(&format!("## Original\n\n`{prog}`\n\n"));
    out.push_str(&stage_table(prog, params, m));

    out.push_str("\n## Rewrites\n\n");
    if result.steps.is_empty() {
        out.push_str("No optimization rule pays off on this machine.\n");
    }
    for step in &result.steps {
        match step.saving {
            Some(s) => out.push_str(&format!(
                "* **{}** at stage {} — predicted saving {:.0} time units\n",
                step.rule, step.at, s
            )),
            None => out.push_str(&format!("* **{}** at stage {}\n", step.rule, step.at)),
        }
        out.push_str(&format!(
            "  * certificate: {}\n",
            step.certificate.describe()
        ));
    }
    for rej in &result.rejections {
        out.push_str(&format!("* **refused** — {rej}\n"));
    }
    for n in &result.normalizations {
        out.push_str(&format!("* normalization: `{n:?}`\n"));
    }

    out.push_str(&format!("\n## Optimized\n\n`{}`\n\n", result.program));
    out.push_str(&stage_table(&result.program, params, m));
    if before > 0.0 {
        out.push_str(&format!(
            "\n**Total: {before:.0} → {after:.0} time units ({:+.1}%).**\n",
            100.0 * (after - before) / before
        ));
    }
    (result, out)
}

/// One side of the before/after pair in [`optimize_result_json`].
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
    let laws: Vec<Json> = step
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

/// Serialize an optimization run through the shared hand-rolled
/// [`Json`] document model — the one machine-readable rendering of an
/// [`OptimizeResult`], used by `collopt --json`, the serve front end,
/// and the golden-pinned schema test. Byte-stable: the same
/// `(prog, result, params, m)` always renders the same string via
/// [`Json::render`] (object order is fixed, numbers use Rust's
/// shortest-roundtrip `f64` formatting).
///
/// `prog` is the program the rewriter was handed (for the serve path,
/// the *canonicalized* pipeline, so responses are independent of the
/// request's surface spelling).
pub fn optimize_result_json(
    prog: &Program,
    result: &OptimizeResult,
    params: &MachineParams,
    m: f64,
) -> Json {
    let before = program_cost(prog, params, m);
    let after = program_cost(&result.program, params, m);
    let percent = if before > 0.0 {
        100.0 * (before - after) / before
    } else {
        0.0
    };
    let rejections: Vec<Json> = result
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
    Json::Obj(vec![
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
    ])
}

/// Render a per-stage table with *measured* simulated times next to the
/// analytic predictions, by actually running the program on the machine.
pub fn measured_stage_table(prog: &Program, inputs: &[Value], params: &MachineParams) -> String {
    let m = inputs[0].block_len() as f64;
    let clock = ClockParams::new(params.ts, params.tw);
    let (outcome, finish) = execute_profiled(prog, inputs, clock);
    let mut out = String::from(
        "| # | stage | predicted | measured |
|---|-------|----------:|---------:|
",
    );
    let mut prev = 0.0;
    for (i, (stage, &t)) in prog.stages().iter().zip(&finish).enumerate() {
        out.push_str(&format!(
            "| {} | `{}` | {:.0} | {:.0} |
",
            i,
            stage.describe(),
            stage_cost(stage, params, m),
            t - prev
        ));
        prev = t;
    }
    out.push_str(&format!(
        "| | **total** | **{:.0}** | **{:.0}** |
",
        program_cost(prog, params, m),
        outcome.makespan
    ));
    out
}

/// Run `prog` with per-stage profiling and render where the time went:
/// the stage/rank busy–idle tables of
/// [`collopt_machine::ProfileReport`] plus a one-line summary of the
/// critical path — the exact chain of messages and computation steps the
/// makespan is attributable to.
pub fn profile_section(prog: &Program, inputs: &[Value], clock: ClockParams) -> String {
    let run = execute_traced_with(
        prog,
        inputs,
        clock,
        ExecConfig {
            profile: true,
            ..ExecConfig::default()
        },
    );
    let mut out = String::from("```text\n");
    out.push_str(&run.profile_report().render());
    out.push_str("```\n");
    match run.critical_path() {
        Ok(path) => out.push_str(&format!(
            "Critical path: {:.1} time units over {} steps \
             ({} messages, {} ranks; compute {:.1}, transfer {:.1}).\n",
            path.length(),
            path.steps.len(),
            path.messages(),
            path.ranks_touched(),
            path.compute_time(),
            path.comm_time(),
        )),
        Err(e) => out.push_str(&format!("Critical path: unavailable ({e}).\n")),
    }
    out
}

/// Run `prog` twice — clean and under `plan` — and render how gracefully
/// it degrades: makespan overhead, retry accounting, and whether the
/// results survived bit-identically. A failing run (crash, exhausted
/// retries) renders the error instead, with the plan's reproducible spec
/// string either way.
pub fn degradation_section(
    prog: &Program,
    inputs: &[Value],
    clock: ClockParams,
    plan: &FaultPlan,
) -> String {
    let clean = execute(prog, inputs, clock);
    let mut out = format!("fault plan : {}\n", plan.describe());
    match execute_faulted(prog, inputs, clock, ExecConfig::default(), plan) {
        Ok(faulted) => {
            let overhead = if clean.makespan > 0.0 {
                100.0 * (faulted.makespan - clean.makespan) / clean.makespan
            } else {
                0.0
            };
            out.push_str(&format!(
                "makespan   : {:.0} -> {:.0} time units ({overhead:+.1}%)\n",
                clean.makespan, faulted.makespan
            ));
            out.push_str(&format!(
                "retries    : {} failed attempts, {:.0} time units lost\n",
                faulted.total_retries, faulted.total_retry_time
            ));
            out.push_str(if faulted.outputs == clean.outputs {
                "results    : bit-identical to the fault-free run\n"
            } else {
                "results    : DIFFER from the fault-free run (fault model violation!)\n"
            });
        }
        Err(e) => {
            out.push_str(&format!("run failed : {e}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::value::Value;

    fn example() -> Program {
        Program::new()
            .map("f", 1.0, |v| v.clone())
            .scan(lib::mul())
            .reduce(lib::add())
            .map("g", 1.0, |v| Value::Int(v.as_int()))
            .bcast()
    }

    #[test]
    fn report_contains_both_pipelines_and_savings() {
        let params = MachineParams::parsytec_like(64);
        let (result, report) = optimization_report(
            &example(),
            &Rewriter::cost_guided(params, 8.0),
            &params,
            8.0,
        );
        assert_eq!(result.steps.len(), 1);
        assert!(report.contains("# Collective-operation optimization report"));
        assert!(report.contains("scan(mul) ; reduce(add)"));
        assert!(report.contains("SR2-Reduction"));
        assert!(report.contains("op_sr2[mul,add]"));
        assert!(report.contains("**total**"));
        assert!(report.contains('%'));
    }

    #[test]
    fn report_for_unoptimizable_program_says_so() {
        let params = MachineParams::low_latency(64);
        // SS-Scan at huge m on a fast network: no rule fires.
        let prog = Program::new().scan(lib::add()).scan(lib::add());
        let (result, report) =
            optimization_report(&prog, &Rewriter::cost_guided(params, 1e6), &params, 1e6);
        assert!(result.steps.is_empty());
        assert!(report.contains("No optimization rule pays off"));
    }

    #[test]
    fn measured_table_contains_both_columns() {
        let params = MachineParams::new(8, 100.0, 2.0);
        let prog = Program::new().scan(lib::add()).reduce(lib::add());
        let inputs: Vec<Value> = (0..8).map(|_| Value::int_list([1, 2, 3, 4])).collect();
        let table = measured_stage_table(&prog, &inputs, &params);
        assert!(table.contains("predicted"));
        assert!(table.contains("measured"));
        // On a power-of-two machine the two total columns agree exactly,
        // so the rendered strings coincide.
        let total_line = table.lines().last().unwrap();
        let nums: Vec<&str> = total_line
            .split("**")
            .filter(|s| s.trim().chars().next().is_some_and(|c| c.is_ascii_digit()))
            .collect();
        assert_eq!(nums.len(), 2);
        assert_eq!(nums[0], nums[1], "{table}");
    }

    #[test]
    fn profile_section_names_every_stage_and_the_critical_path() {
        let prog = Program::new().scan(lib::add()).reduce(lib::add());
        let inputs: Vec<Value> = (0..8).map(|_| Value::int_list([1, 2, 3, 4])).collect();
        let section = profile_section(&prog, &inputs, ClockParams::new(100.0, 2.0));
        assert!(section.contains("scan(add)"));
        assert!(section.contains("reduce(add)"));
        assert!(section.contains("Critical path:"));
        assert!(!section.contains("unavailable"));
    }

    #[test]
    fn degradation_section_reports_overhead_and_identical_results() {
        let prog = Program::new().scan(lib::add()).reduce(lib::add());
        let inputs: Vec<Value> = (0..8).map(|_| Value::int_list([1, 2, 3, 4])).collect();
        let clock = ClockParams::new(100.0, 2.0);

        // A pure-delay plan: results must survive bit-identically.
        let plan = FaultPlan::new(11)
            .with_straggler(2, 3.0)
            .with_slow_link(0, 1, 2.0, 50.0);
        let section = degradation_section(&prog, &inputs, clock, &plan);
        assert!(section.contains("fault plan : seed=11"));
        assert!(section.contains("bit-identical"));
        assert!(section.contains('%'));
        assert!(!section.contains("DIFFER"), "{section}");

        // A crash plan: the section renders the failure instead of hanging.
        let crash = FaultPlan::new(11).with_crash(3, 0);
        let section = degradation_section(&prog, &inputs, clock, &crash);
        assert!(section.contains("run failed"), "{section}");
        assert!(section.contains('3'), "{section}");
    }

    #[test]
    fn optimize_result_json_is_byte_stable_and_complete() {
        let params = MachineParams::parsytec_like(64);
        let prog = example();
        let result = Rewriter::cost_guided(params, 8.0)
            .saturate(&prog, &params, 8.0)
            .result;
        let a = optimize_result_json(&prog, &result, &params, 8.0).render();
        let b = optimize_result_json(&prog, &result, &params, 8.0).render();
        assert_eq!(a, b);
        // The document round-trips through the strict parser and carries
        // every section of the result.
        let doc = collopt_machine::Json::parse(&a).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            doc.get("machine")
                .and_then(|m| m.get("p"))
                .and_then(|p| p.as_f64()),
            Some(64.0)
        );
        let steps = doc.get("steps").and_then(|s| s.as_array()).unwrap();
        assert_eq!(steps.len(), result.steps.len());
        assert!(!steps.is_empty());
        let step0 = &steps[0];
        assert!(step0.get("certificate").is_some());
        let before = doc
            .get("cost")
            .and_then(|c| c.get("before"))
            .and_then(|x| x.as_f64())
            .unwrap();
        let after = doc
            .get("cost")
            .and_then(|c| c.get("after"))
            .and_then(|x| x.as_f64())
            .unwrap();
        assert!(after < before);
        assert_eq!(
            doc.get("optimized")
                .and_then(|o| o.get("program"))
                .and_then(|p| p.as_str()),
            Some(result.program.to_string().as_str())
        );
    }

    #[test]
    fn stage_costs_in_report_sum_to_total() {
        let params = MachineParams::new(16, 100.0, 2.0);
        let prog = example();
        let table = stage_table(&prog, &params, 4.0);
        // The table lists every stage plus the total row.
        assert_eq!(table.lines().count(), 2 + prog.len() + 1);
    }
}
