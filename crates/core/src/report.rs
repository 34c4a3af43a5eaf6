//! Human-readable optimization reports.
//!
//! [`optimization_report`] runs the rewrite engine on a program and
//! renders a Markdown document: the original and optimized pipelines, the
//! applied rules with their predicted savings, the enabling
//! transformations, and a per-stage cost table for both versions — the
//! artifact a performance engineer would attach to a code review.

use collopt_cost::MachineParams;
use collopt_machine::{
    write_json_display, write_json_num, write_json_str, ClockParams, FaultPlan, Json,
};

use crate::exec::{execute, execute_faulted, execute_traced_with, ExecConfig};
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

/// Write the members of the optimize-result document — everything between
/// its braces — into `out`. This is the one machine-readable rendering of
/// an [`OptimizeResult`]: `collopt --json` wraps it in braces, the serve
/// front end appends its `lint` and `simulation` members before closing
/// it, and the golden-pinned schema test holds its bytes. Byte-stable: the
/// same `(prog, result, params, m)` always writes the same bytes (member
/// order is fixed, numbers use Rust's shortest-roundtrip `f64`
/// formatting). Nothing is allocated but one `String` per certificate law.
///
/// `prog` is the program the rewriter was handed (for the serve path,
/// the *canonicalized* pipeline, so responses are independent of the
/// request's surface spelling).
pub fn write_optimize_result(
    out: &mut String,
    prog: &Program,
    result: &OptimizeResult,
    params: &MachineParams,
    m: f64,
) {
    let before = program_cost(prog, params, m);
    let after = program_cost(&result.program, params, m);
    let percent = if before > 0.0 {
        100.0 * (before - after) / before
    } else {
        0.0
    };
    out.push_str("\"version\":1,\"machine\":{\"p\":");
    write_json_num(out, params.p as f64);
    out.push_str(",\"ts\":");
    write_json_num(out, params.ts);
    out.push_str(",\"tw\":");
    write_json_num(out, params.tw);
    out.push_str(",\"m\":");
    write_json_num(out, m);
    out.push_str("},\"original\":");
    write_program(out, prog, before);
    out.push_str(",\"optimized\":");
    write_program(out, &result.program, after);
    out.push_str(",\"cost\":{\"before\":");
    write_json_num(out, before);
    out.push_str(",\"after\":");
    write_json_num(out, after);
    out.push_str(",\"saving\":");
    write_json_num(out, before - after);
    out.push_str(",\"percent\":");
    write_json_num(out, percent);
    out.push_str("},\"steps\":[");
    for (i, step) in result.steps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_step(out, step);
    }
    out.push_str("],\"normalizations\":[");
    for (i, n) in result.normalizations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_normalization(out, n);
    }
    out.push_str("],\"rejections\":[");
    for (i, r) in result.rejections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        write_json_str(out, r.rule.name());
        out.push_str(",\"at\":");
        write_json_num(out, r.at as f64);
        out.push_str(",\"law\":");
        write_json_str(out, &r.law);
        out.push_str(",\"counterexample\":");
        write_json_display(out, &r.counterexample);
        out.push('}');
    }
    out.push(']');
}

/// One side of the before/after pair in [`write_optimize_result`].
fn write_program(out: &mut String, prog: &Program, cost: f64) {
    out.push_str("{\"program\":");
    write_json_display(out, prog);
    out.push_str(",\"cost\":");
    write_json_num(out, cost);
    out.push_str(",\"stages\":");
    write_json_num(out, prog.len() as f64);
    out.push_str(",\"collectives\":");
    write_json_num(out, prog.collective_count() as f64);
    out.push('}');
}

fn write_step(out: &mut String, step: &RewriteStep) {
    out.push_str("{\"rule\":");
    write_json_str(out, step.rule.name());
    out.push_str(",\"at\":");
    write_json_num(out, step.at as f64);
    out.push_str(",\"saving\":");
    match step.saving {
        Some(saving) => write_json_num(out, saving),
        None => out.push_str("null"),
    }
    out.push_str(",\"description\":");
    write_json_str(out, &step.description);
    out.push_str(",\"rank0_only\":");
    out.push_str(if step.rank0_only { "true" } else { "false" });
    out.push_str(",\"certificate\":{\"laws\":[");
    for (i, law) in step.certificate.laws.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, &law.describe());
    }
    out.push_str("],\"witness\":");
    match step.certificate.witness {
        Witness::Declared => out.push_str("{\"kind\":\"declared\"}"),
        Witness::Checked { samples } => {
            out.push_str("{\"kind\":\"checked\",\"samples\":");
            write_json_num(out, samples as f64);
            out.push('}');
        }
    }
    out.push_str("}}");
}

fn write_normalization(out: &mut String, n: &Normalization) {
    let (kind, at, label) = match n {
        Normalization::MapFuse { at, label } => ("map-fuse", at, Some(label)),
        Normalization::BcastMapCommute { at, label } => ("bcast-map-commute", at, Some(label)),
        Normalization::GatherScatterElim { at } => ("gather-scatter-elim", at, None),
    };
    out.push_str("{\"kind\":");
    write_json_str(out, kind);
    out.push_str(",\"at\":");
    write_json_num(out, *at as f64);
    if let Some(label) = label {
        out.push_str(",\"label\":");
        write_json_str(out, label);
    }
    out.push('}');
}

/// The document [`write_optimize_result`] writes, parsed back into a
/// [`Json`] value for callers that inspect or extend it as a tree.
pub fn optimize_result_json(
    prog: &Program,
    result: &OptimizeResult,
    params: &MachineParams,
    m: f64,
) -> Json {
    let mut text = String::from("{");
    write_optimize_result(&mut text, prog, result, params, m);
    text.push('}');
    Json::parse(&text).expect("the written document is valid JSON")
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
