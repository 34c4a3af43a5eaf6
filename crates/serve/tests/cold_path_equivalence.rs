//! The cold path's parts equal its whole, byte for byte.
//!
//! `service::render_body` saturates once and lints against that plan,
//! and embeds the lint report as a JSON value. The reference here is the
//! recipe it replaced, from public parts only: an ungated
//! `Rewriter::saturate` for the plan, a self-contained `lint_program`
//! (its own gated saturation), and the report re-parsed from its rendered
//! text. The benchmark's traced run holds the same equation on its
//! traffic; this deck adds what that traffic never sends — `all_ranks`,
//! where the linter must keep its own saturation.

use collopt_analysis::{lint_program, LintConfig};
use collopt_core::report::optimize_result_json;
use collopt_core::rewrite::Rewriter;
use collopt_cost::MachineParams;
use collopt_machine::Json;
use collopt_serve::request::ok_response;
use collopt_serve::{canonicalize, parse_request, Op, Request, Service};

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
    let mut doc = optimize_result_json(&canonical, &result, &params, req.m);
    let lint = if req.lint {
        let cfg = LintConfig {
            params,
            block: req.m,
            ..LintConfig::default()
        };
        Json::parse(&lint_program(&canonical, None, &cfg).render_json()).expect("lint JSON parses")
    } else {
        Json::Null
    };
    let Json::Obj(ref mut fields) = doc else {
        panic!("optimize_result_json returns an object")
    };
    fields.push(("lint".into(), lint));
    fields.push(("simulation".into(), Json::Null));
    ok_response(&id, &doc.render())
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
    let service = Service::new(4);
    let mut lines = 0;
    for pipeline in pipelines {
        for machine in machines {
            for all_ranks in [false, true] {
                for lint in [true, false] {
                    let line = format!(
                        r#"{{"id":"{lines}","pipeline":"{pipeline}",{machine},"options":{{"all_ranks":{all_ranks},"lint":{lint}}}}}"#
                    );
                    assert_eq!(service.handle_line(&line).text, reference(&line), "{line}");
                    lines += 1;
                }
            }
        }
    }
    assert_eq!(service.cache_stats().misses, lines, "every line ran cold");
}
