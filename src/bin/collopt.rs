//! `collopt` — command-line pipeline optimizer.
//!
//! Parse a collective pipeline, optimize it for a machine, and report the
//! rewrite log and cost estimates:
//!
//! ```text
//! $ collopt "map f ; scan(mul) ; reduce(add) ; map g ; bcast" --p 64 --ts 200 --tw 2 --m 32
//! original : map f ; scan(mul) ; reduce(add) ; map g ; bcast
//! applied  : SR2-Reduction at stage 1 (saving 1200)
//! optimized: map f;pair ; reduce(op_sr2[mul,add]) ; map pi1;g ; bcast
//! cost     : 4296 -> 3096 time units (27.9% saved)
//! ```
//!
//! Options:
//!
//! * `--p N`    processors (default 64)
//! * `--ts X`   message start-up time (default 200)
//! * `--tw X`   per-word transfer time (default 2)
//! * `--m X`    block size in words (default 32)
//! * `--exhaustive`  ignore the cost model, fuse everything fusible
//! * `--optimal`     equality saturation over all rule orders: provably
//!   the cheapest reachable plan under the cost model (see `saturate`)
//! * `--all-ranks`   only apply rules preserving every processor's value
//! * `--report`      emit a full Markdown report instead of the summary
//! * `--profile`     run both pipelines on the simulated machine and show
//!   where the time goes (per-stage busy/idle tables + critical path)
//! * `--faults SPEC` run both pipelines under a deterministic fault plan
//!   and show how gracefully they degrade, e.g.
//!   `--faults "seed=42,straggler=3x2.5,link=0-1x2+50,drop=0.05/3"`
//! * `--engine E`    simulation engine for `--profile`/`--faults`:
//!   `des` (the default) is the single-threaded discrete-event scheduler
//!   whose `p` is bounded by memory only; `threads`, its reference, runs
//!   one OS thread per rank (p ≤ 4096).
//! * `--table1`      also print the analytic Table 1 and exit
//! * `--json`        emit the byte-stable optimization JSON (the core of
//!   the serve response schema) instead of the human summary
//!
//! Serve mode — the long-running optimization service and its client:
//!
//! ```text
//! $ collopt serve --addr 127.0.0.1:7071 &
//! $ collopt submit "scan(mul) ; reduce(add)" --p 64 --m 32
//! $ collopt submit --op stats
//! $ collopt submit --op shutdown
//! ```
//!
//! `serve` speaks JSON lines over TCP (one request object per line; see
//! `collopt_serve::request`) with a canonicalizing LRU optimization
//! cache and batched dispatch. `submit` builds one request from the
//! usual flags (`--p/--ts/--tw/--m`, `--all-ranks`, `--no-lint`,
//! `--simulate`, `--engine`), sends it, and prints the response line;
//! `--line '<json>'` submits a raw request verbatim.
//!
//! Lint mode — static soundness and performance diagnostics:
//!
//! ```text
//! $ collopt lint "map f ; scan(mul) ; reduce(add)" --p 64 --m 32
//! $ collopt lint --file examples/pipelines/lints/missed_fusion.pipeline --json
//! ```
//!
//! * `--json`            emit byte-stable JSON instead of the human report
//! * `--deny warnings`   exit nonzero on warnings too (CI gate)
//! * `--p/--ts/--tw/--m` machine model for the cost judgements (as above)
//! * `--file PATH`       read the pipeline from a file instead of argv
//!
//! Check mode — the static communication-schedule verifier:
//!
//! ```text
//! $ collopt check --p 16 --m 97            # verify every shipped lowering
//! $ collopt check --planted                # every planted bug must be caught
//! $ collopt check "scan(mul) ; reduce(add)" --deny warnings
//! ```
//!
//! With no pipeline, `check` symbolically extracts the per-rank schedule
//! of every shipped collective lowering at `(p, m)` and abstractly
//! executes it: deadlock-freedom (`COL008`), message-match completeness
//! (`COL009`), and round counts against the cost model's closed forms
//! and the `⌈log₂ p⌉` lower bounds (`COL010`). With a pipeline it runs
//! the full lint battery including the distribution-state dataflow
//! lints (`COL007`/`COL011`/`COL012`). Flags and the exit contract match
//! `lint`; `--planted` drills the verifier on known-bad lowerings.
//!
//! Saturate mode — equality-saturation search with the cost deltas:
//!
//! ```text
//! $ collopt saturate "scan(add) ; scan(add) ; reduce(add)" --p 64 --ts 100 --tw 2 --m 8
//! ```
//!
//! Builds the e-graph of every program reachable by the 11 rules plus
//! the enabling normalizations, extracts the cost-optimal one, and
//! prints it next to the greedy (priority-window) result with both cost
//! deltas and the e-graph statistics.
//!
//! * `--p/--ts/--tw/--m` machine model (as above)
//! * `--budget N`        e-graph node budget (default 10000)
//! * `--all-ranks`       only apply rules preserving every processor's value
//!
//! Fuzz mode — differential fuzzing of the whole stack:
//!
//! ```text
//! $ collopt fuzz --iters 500 --seed 42
//! $ collopt fuzz --replay "v1|seed=7|p=2|m=1|engine=des|domain=table|..."
//! ```
//!
//! * `--iters N`        cases to generate and check (default 500)
//! * `--seed N`         base seed (default 0xC0110)
//! * `--pmax N, --m N`  generator shape limits (defaults 9, 4)
//! * `--replay "SPEC"`  re-run one pinned case from its spec string
//!
//! Exit codes: 0 clean (notes allowed), 1 errors (or warnings under
//! `--deny warnings`), 2 usage or parse errors.

use std::sync::Arc;

use collopt::analysis::{lint_source, LintConfig, Severity};
use collopt::core::egraph::{saturate_program, SaturateConfig};
use collopt::core::exec::ExecConfig;
use collopt::core::parser::parse_pipeline;
use collopt::core::report::{
    degradation_section_with, optimization_report, optimize_result_json, profile_section_with,
};
use collopt::core::rewrite::{program_cost, Rewriter};
use collopt::core::value::Value;
use collopt::cost::table1::render_table1;
use collopt::cost::MachineParams;
use collopt::fuzz::{run_campaign, run_case, CampaignConfig, CaseSpec, CoverageLedger, GenConfig};
use collopt::machine::{ClockParams, ExecEngine, FaultPlan, Json};
use collopt::serve::{Server, ServerConfig, Service, DEFAULT_CACHE_CAPACITY};

/// Default address for `collopt serve` / `collopt submit`.
const DEFAULT_ADDR: &str = "127.0.0.1:7071";

/// `collopt serve` — run the optimization service until a `shutdown`
/// request arrives.
fn serve_main(args: Vec<String>) -> ! {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cache = DEFAULT_CACHE_CAPACITY;
    let mut config = ServerConfig::default();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = grab("--addr"),
            "--cache" => cache = grab("--cache").parse().expect("--cache expects an integer"),
            "--workers" => {
                config.workers = grab("--workers")
                    .parse()
                    .expect("--workers expects an integer")
            }
            "--batch" => {
                config.batch_limit = grab("--batch").parse().expect("--batch expects an integer")
            }
            other => {
                eprintln!("unknown serve option {other}");
                eprintln!(
                    "usage: collopt serve [--addr HOST:PORT] [--cache N] [--workers N] [--batch N]"
                );
                std::process::exit(2);
            }
        }
    }

    let service = Arc::new(Service::new(cache));
    let server = match Server::bind(&addr, service, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    match server.local_addr() {
        Ok(a) => eprintln!("collopt serve: listening on {a} (JSON lines; op=shutdown to stop)"),
        Err(e) => eprintln!("collopt serve: listening ({e})"),
    }
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("server error: {e}");
            std::process::exit(1);
        }
    }
}

/// `collopt submit` — send one request to a running server and print the
/// response line.
fn submit_main(args: Vec<String>) -> ! {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut pipeline: Option<String> = None;
    let mut raw: Option<String> = None;
    let mut op: Option<String> = None;
    let mut id: f64 = 0.0;
    let mut p = 64f64;
    let mut ts = 200.0f64;
    let mut tw = 2.0f64;
    let mut m = 32.0f64;
    let mut all_ranks = false;
    let mut lint = true;
    let mut simulate = false;
    let mut engine: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = grab("--addr"),
            "--line" => raw = Some(grab("--line")),
            "--op" => op = Some(grab("--op")),
            "--id" => id = grab("--id").parse().expect("--id expects a number"),
            "--p" => p = grab("--p").parse().expect("--p expects an integer"),
            "--ts" => ts = grab("--ts").parse().expect("--ts expects a number"),
            "--tw" => tw = grab("--tw").parse().expect("--tw expects a number"),
            "--m" => m = grab("--m").parse().expect("--m expects a number"),
            "--all-ranks" => all_ranks = true,
            "--no-lint" => lint = false,
            "--simulate" => simulate = true,
            "--engine" => engine = Some(grab("--engine")),
            other if other.starts_with("--") => {
                eprintln!("unknown submit option {other}");
                std::process::exit(2);
            }
            other => {
                if pipeline.replace(other.to_string()).is_some() {
                    eprintln!("multiple pipeline arguments");
                    std::process::exit(2);
                }
            }
        }
    }

    let line = if let Some(raw) = raw {
        raw
    } else if let Some(op) = op {
        Json::Obj(vec![
            ("id".into(), Json::Num(id)),
            ("op".into(), Json::Str(op)),
        ])
        .render()
    } else if let Some(pipeline) = pipeline {
        let mut options = vec![
            ("all_ranks".into(), Json::Bool(all_ranks)),
            ("lint".into(), Json::Bool(lint)),
            ("simulate".into(), Json::Bool(simulate)),
        ];
        if let Some(engine) = engine {
            options.push(("engine".into(), Json::Str(engine)));
        }
        Json::Obj(vec![
            ("id".into(), Json::Num(id)),
            ("pipeline".into(), Json::Str(pipeline)),
            ("p".into(), Json::Num(p)),
            ("ts".into(), Json::Num(ts)),
            ("tw".into(), Json::Num(tw)),
            ("m".into(), Json::Num(m)),
            ("options".into(), Json::Obj(options)),
        ])
        .render()
    } else {
        eprintln!(
            "usage: collopt submit \"<pipeline>\" [--addr HOST:PORT] [--id N] \
             [--p N] [--ts X] [--tw X] [--m X] [--all-ranks] [--no-lint] \
             [--simulate] [--engine E] | --op ping|stats|shutdown | --line '<json>'"
        );
        std::process::exit(2);
    };

    match collopt::serve::submit(&addr, &line) {
        Ok(response) => {
            println!("{response}");
            let ok = response.contains("\"ok\":true");
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("cannot reach {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// `collopt lint` — parse, analyze, report, and gate.
fn lint_main(args: Vec<String>) -> ! {
    let mut pipeline: Option<String> = None;
    let mut file: Option<String> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut p = 64usize;
    let mut ts = 200.0f64;
    let mut tw = 2.0f64;
    let mut m = 32.0f64;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--p" => p = grab("--p").parse().expect("--p expects an integer"),
            "--ts" => ts = grab("--ts").parse().expect("--ts expects a number"),
            "--tw" => tw = grab("--tw").parse().expect("--tw expects a number"),
            "--m" => m = grab("--m").parse().expect("--m expects a number"),
            "--json" => json = true,
            "--file" => file = Some(grab("--file")),
            "--deny" => {
                let what = grab("--deny");
                if what != "warnings" {
                    eprintln!("--deny only supports 'warnings', got '{what}'");
                    std::process::exit(2);
                }
                deny_warnings = true;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown lint option {other}");
                std::process::exit(2);
            }
            other => {
                if pipeline.replace(other.to_string()).is_some() {
                    eprintln!("multiple pipeline arguments");
                    std::process::exit(2);
                }
            }
        }
    }
    let src = match (pipeline, file) {
        (Some(_), Some(_)) => {
            eprintln!("give a pipeline argument or --file, not both");
            std::process::exit(2);
        }
        (Some(src), None) => src,
        (None, Some(path)) => match std::fs::read_to_string(&path) {
            Ok(text) => text.trim().to_string(),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        (None, None) => {
            eprintln!("usage: collopt lint \"<pipeline>\" | --file PATH [--json] [--deny warnings] [--p N] [--ts X] [--tw X] [--m X]");
            std::process::exit(2);
        }
    };

    let cfg = LintConfig {
        params: MachineParams::new(p, ts, tw),
        block: m,
        ..LintConfig::default()
    };
    let report = match lint_source(&src, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}", e.render(&src));
            std::process::exit(2);
        }
    };
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human(Some(&src)));
    }
    let gate = report.errors() > 0 || (deny_warnings && report.warnings() > 0);
    std::process::exit(if gate { 1 } else { 0 });
}

/// `collopt check` — static communication-schedule verification.
///
/// With no pipeline, verifies every shipped collective lowering's
/// symbolic schedule at `(p, m)`: deadlock-freedom, message-match
/// completeness, barrier consistency, and round counts against the cost
/// model's closed forms and the `⌈log₂ p⌉` lower bounds. With a pipeline
/// (or `--file`), runs the full lint analysis — the distribution-state
/// dataflow lints (COL007/COL011/COL012) included — under the same exit
/// contract as `collopt lint`. `--planted` instead checks that every
/// planted-bug lowering is rejected with its expected code (the CI
/// drill).
fn check_main(args: Vec<String>) -> ! {
    let mut pipeline: Option<String> = None;
    let mut file: Option<String> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut planted = false;
    let mut p = 64usize;
    let mut ts = 200.0f64;
    let mut tw = 2.0f64;
    let mut m = 32.0f64;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--p" => p = grab("--p").parse().expect("--p expects an integer"),
            "--ts" => ts = grab("--ts").parse().expect("--ts expects a number"),
            "--tw" => tw = grab("--tw").parse().expect("--tw expects a number"),
            "--m" => m = grab("--m").parse().expect("--m expects a number"),
            "--json" => json = true,
            "--file" => file = Some(grab("--file")),
            "--planted" => planted = true,
            "--deny" => {
                let what = grab("--deny");
                if what != "warnings" {
                    eprintln!("--deny only supports 'warnings', got '{what}'");
                    std::process::exit(2);
                }
                deny_warnings = true;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown check option {other}");
                eprintln!(
                    "usage: collopt check [\"<pipeline>\" | --file PATH] [--planted] [--json] \
                     [--deny warnings] [--p N] [--ts X] [--tw X] [--m X]"
                );
                std::process::exit(2);
            }
            other => {
                if pipeline.replace(other.to_string()).is_some() {
                    eprintln!("multiple pipeline arguments");
                    std::process::exit(2);
                }
            }
        }
    }

    let words = m.max(0.0) as u64;
    if planted {
        // Drill mode: every planted-bug lowering must be rejected with
        // its expected code — a verifier that goes blind fails loudly.
        let mut clean = true;
        for (report, expected) in collopt::analysis::verify_planted(p, words) {
            let caught = report.diagnostics.iter().any(|d| d.code == expected);
            let got: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
            println!(
                "  {}  {:<36} expects {expected}, got {got:?}",
                if caught { "ok  " } else { "FAIL" },
                report.variant
            );
            clean &= caught;
        }
        std::process::exit(if clean { 0 } else { 1 });
    }

    let src = match (pipeline, file) {
        (Some(_), Some(_)) => {
            eprintln!("give a pipeline argument or --file, not both");
            std::process::exit(2);
        }
        (Some(src), None) => Some(src),
        (None, Some(path)) => match std::fs::read_to_string(&path) {
            Ok(text) => Some(text.trim().to_string()),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        (None, None) => None,
    };

    let (errors, warnings) = if let Some(src) = src {
        // Pipeline mode: the whole lint battery, distribution-state
        // dataflow included, on one program.
        let cfg = LintConfig {
            params: MachineParams::new(p, ts, tw),
            block: m,
            ..LintConfig::default()
        };
        let report = match lint_source(&src, &cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{}", e.render(&src));
                std::process::exit(2);
            }
        };
        if json {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_human(Some(&src)));
        }
        (report.errors(), report.warnings())
    } else {
        // Registry mode: verify every shipped lowering at (p, m).
        let reports = collopt::analysis::verify_registry(p, words);
        if json {
            println!(
                "{}",
                collopt::analysis::render_reports_json(&reports, p, words)
            );
        } else {
            print!("{}", collopt::analysis::render_reports_human(&reports));
        }
        let count = |sev: Severity| {
            reports
                .iter()
                .flat_map(|r| &r.diagnostics)
                .filter(|d| d.severity == sev)
                .count()
        };
        (count(Severity::Error), count(Severity::Warning))
    };
    let gate = errors > 0 || (deny_warnings && warnings > 0);
    std::process::exit(if gate { 1 } else { 0 });
}

/// `collopt saturate` — equality-saturation search, greedy comparison,
/// and e-graph statistics for one pipeline.
fn saturate_main(args: Vec<String>) -> ! {
    let mut pipeline: Option<String> = None;
    let mut p = 64usize;
    let mut ts = 200.0f64;
    let mut tw = 2.0f64;
    let mut m = 32.0f64;
    let mut budget: Option<usize> = None;
    let mut all_ranks = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--p" => p = grab("--p").parse().expect("--p expects an integer"),
            "--ts" => ts = grab("--ts").parse().expect("--ts expects a number"),
            "--tw" => tw = grab("--tw").parse().expect("--tw expects a number"),
            "--m" => m = grab("--m").parse().expect("--m expects a number"),
            "--budget" => {
                budget = Some(
                    grab("--budget")
                        .parse()
                        .expect("--budget expects an integer"),
                )
            }
            "--all-ranks" => all_ranks = true,
            other if other.starts_with("--") => {
                eprintln!("unknown saturate option {other}");
                std::process::exit(2);
            }
            other => {
                if pipeline.replace(other.to_string()).is_some() {
                    eprintln!("multiple pipeline arguments");
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(src) = pipeline else {
        eprintln!(
            "usage: collopt saturate \"<pipeline>\" [--p N] [--ts X] [--tw X] [--m X] \
             [--budget N] [--all-ranks]"
        );
        std::process::exit(2);
    };
    let prog = match parse_pipeline(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", e.render(&src));
            std::process::exit(2);
        }
    };

    let params = MachineParams::new(p, ts, tw);
    let mut cfg = SaturateConfig::new(params, m).allow_rank0_rules(!all_ranks);
    if let Some(b) = budget {
        cfg = cfg.node_budget(b);
    }
    let outcome = saturate_program(&prog, &cfg);
    let greedy = Rewriter::cost_guided(params, m)
        .allow_rank0_rules(!all_ranks)
        .optimize(&prog);

    let before = program_cost(&prog, &params, m);
    let greedy_cost = program_cost(&greedy.program, &params, m);
    let optimal_cost = program_cost(&outcome.result.program, &params, m);
    println!("machine  : p={p}, ts={ts}, tw={tw}, block m={m}");
    println!("original : {prog}");
    println!(
        "greedy   : {}  (cost {before:.0} -> {greedy_cost:.0}, {} step(s))",
        greedy.program,
        greedy.steps.len()
    );
    println!(
        "optimal  : {}  (cost {before:.0} -> {optimal_cost:.0}, {} step(s))",
        outcome.result.program,
        outcome.result.steps.len()
    );
    for step in &outcome.result.steps {
        match step.saving {
            Some(s) => println!(
                "applied  : {} at stage {} (saving {s:.0})",
                step.rule, step.at
            ),
            None => println!("applied  : {} at stage {}", step.rule, step.at),
        }
    }
    for n in &outcome.result.normalizations {
        println!("normalize: {n:?}");
    }
    let stats = outcome.stats;
    println!(
        "e-graph  : {} nodes, {} classes, {} rule firings, {} unions{}",
        stats.nodes,
        stats.classes,
        stats.rule_applications,
        stats.unions,
        if stats.budget_exhausted {
            " (node budget exhausted)"
        } else {
            ""
        }
    );
    if optimal_cost < greedy_cost {
        println!(
            "delta    : saturation beats greedy by {:.0} time units ({:.1}%)",
            greedy_cost - optimal_cost,
            100.0 * (greedy_cost - optimal_cost) / greedy_cost
        );
    } else {
        println!("delta    : saturation matches greedy (greedy was already optimal)");
    }
    std::process::exit(0);
}

/// `collopt fuzz` — run a differential fuzz campaign or replay one case.
fn fuzz_main(args: Vec<String>) -> ! {
    let mut iters = 500u64;
    let mut seed = 0xC0110u64;
    let mut pmax = 9usize;
    let mut mmax = 4usize;
    let mut replay: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--iters" => iters = grab("--iters").parse().expect("--iters expects an integer"),
            "--seed" => seed = grab("--seed").parse().expect("--seed expects an integer"),
            "--pmax" => pmax = grab("--pmax").parse().expect("--pmax expects an integer"),
            "--m" => mmax = grab("--m").parse().expect("--m expects an integer"),
            "--replay" => replay = Some(grab("--replay")),
            other => {
                eprintln!("unknown fuzz option {other}");
                eprintln!(
                    "usage: collopt fuzz [--iters N] [--seed N] [--pmax N] [--m N] \
                     [--replay \"<spec>\"]"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(spec) = replay {
        let case = match CaseSpec::parse(&spec) {
            Ok(case) => case,
            Err(e) => {
                eprintln!("bad case spec: {e}");
                std::process::exit(2);
            }
        };
        println!("replaying: {}", case.render());
        let mut ledger = CoverageLedger::new();
        let failures = run_case(&case, &mut ledger);
        if failures.is_empty() {
            println!("OK: all oracles clean");
            std::process::exit(0);
        }
        for f in &failures {
            eprintln!("  [{}] {f}", f.oracle.label());
        }
        std::process::exit(1);
    }

    let result = run_campaign(&CampaignConfig {
        seed,
        iters,
        gen: GenConfig { pmax, mmax },
        workers: None,
    });
    println!("{}", result.ledger.summary());
    for f in &result.failures {
        eprintln!("  [{}] {f}", f.oracle.label());
    }
    let missing = result.ledger.missing_rules();
    if !missing.is_empty() {
        eprintln!("rules never fired: {missing:?}");
    }
    std::process::exit(if result.passed() { 0 } else { 1 });
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "lint") {
        lint_main(args.split_off(1));
    }
    if args.first().is_some_and(|a| a == "check") {
        check_main(args.split_off(1));
    }
    if args.first().is_some_and(|a| a == "fuzz") {
        fuzz_main(args.split_off(1));
    }
    if args.first().is_some_and(|a| a == "saturate") {
        saturate_main(args.split_off(1));
    }
    if args.first().is_some_and(|a| a == "serve") {
        serve_main(args.split_off(1));
    }
    if args.first().is_some_and(|a| a == "submit") {
        submit_main(args.split_off(1));
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: collopt \"<pipeline>\" [--p N] [--ts X] [--tw X] [--m X] \
             [--exhaustive] [--all-ranks] [--report] [--profile] \
             [--faults SPEC] [--engine threads|des] [--table1]"
        );
        eprintln!("  pipeline: e.g. \"map f ; scan(mul) ; reduce(add) ; bcast\"");
        eprintln!("  operators: add mul max min and or fadd fmul maxplus");
        eprintln!(
            "  engines : des (default) is the single-threaded discrete-event \
             scheduler\n            (p bounded by memory); threads runs p<={} rank threads",
            ExecEngine::THREAD_MAX_P
        );
        eprintln!("  lint mode: collopt lint \"<pipeline>\" [--json] [--deny warnings]");
        eprintln!(
            "  check    : collopt check [\"<pipeline>\" | --file PATH] [--planted] [--json] \
             [--deny warnings] [--p N] [--m X]"
        );
        eprintln!(
            "  saturate : collopt saturate \"<pipeline>\" [--p N] [--ts X] [--tw X] [--m X] \
             [--budget N]"
        );
        eprintln!(
            "  fuzz mode: collopt fuzz [--iters N] [--seed N] [--pmax N] [--m N] \
             [--replay \"<spec>\"]"
        );
        eprintln!("  serve    : collopt serve [--addr HOST:PORT] [--cache N] [--workers N]");
        eprintln!(
            "  submit   : collopt submit \"<pipeline>\" [--addr HOST:PORT] [--simulate] \
             | --op ping|stats|shutdown"
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--table1") {
        print!("{}", render_table1());
        return;
    }

    let mut pipeline = None;
    let mut p = 64usize;
    let mut ts = 200.0f64;
    let mut tw = 2.0f64;
    let mut m = 32.0f64;
    let mut exhaustive = false;
    let mut all_ranks = false;
    let mut report = false;
    let mut optimal = false;
    let mut profile = false;
    let mut json = false;
    let mut faults: Option<FaultPlan> = None;
    let mut engine = ExecEngine::Des;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--p" => p = grab("--p").parse().expect("--p expects an integer"),
            "--ts" => ts = grab("--ts").parse().expect("--ts expects a number"),
            "--tw" => tw = grab("--tw").parse().expect("--tw expects a number"),
            "--m" => m = grab("--m").parse().expect("--m expects a number"),
            "--exhaustive" => exhaustive = true,
            "--all-ranks" => all_ranks = true,
            "--report" => report = true,
            "--optimal" => optimal = true,
            "--profile" => profile = true,
            "--json" => json = true,
            "--faults" => {
                let spec = grab("--faults");
                match FaultPlan::parse(&spec) {
                    Ok(plan) => faults = Some(plan),
                    Err(e) => {
                        eprintln!("bad --faults spec: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--engine" => match grab("--engine").parse() {
                Ok(e) => engine = e,
                Err(e) => {
                    eprintln!("bad --engine: {e}");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
            other => {
                if pipeline.replace(other.to_string()).is_some() {
                    eprintln!("multiple pipeline arguments");
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(src) = pipeline else {
        eprintln!("no pipeline given");
        std::process::exit(2);
    };

    let prog = match parse_pipeline(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", e.render(&src));
            std::process::exit(1);
        }
    };

    let params = MachineParams::new(p, ts, tw);
    let rewriter = if exhaustive {
        Rewriter::exhaustive()
    } else {
        Rewriter::cost_guided(params, m)
    }
    .allow_rank0_rules(!all_ranks);

    // Simulation engine for --profile/--faults. The thread engine has a
    // hard rank ceiling — refuse oversized machines up front with a
    // pointer at the DES engine rather than failing mid-spawn.
    let engine_desc = match engine.max_p() {
        Some(cap) => format!("{} (p <= {cap})", engine.name()),
        None => format!("{} (p memory-bound)", engine.name()),
    };
    let simulating = profile || faults.is_some();
    if simulating {
        if let Some(cap) = engine.max_p().filter(|&cap| p > cap) {
            eprintln!(
                "p={p} exceeds the {} engine's {cap}-rank thread ceiling; \
                 rerun with --engine des (p bounded by memory only)",
                engine.name()
            );
            std::process::exit(2);
        }
    }
    let exec_config = ExecConfig {
        engine: Some(engine),
        ..ExecConfig::default()
    };

    // Deterministic synthetic input: `m` words per rank, small positive
    // ints (safe for every parser operator; floats coerce from ints).
    let profile_inputs = |p: usize, m: f64| -> Vec<Value> {
        let words = m.clamp(0.0, 1e6) as usize;
        (0..p)
            .map(|r| Value::int_list((0..words).map(|j| ((r * 7 + j) % 5 + 1) as i64)))
            .collect()
    };

    if report {
        let (result, md) = optimization_report(&prog, &rewriter, &params, m);
        print!("{md}");
        if profile {
            let inputs = profile_inputs(p, m);
            let clock = ClockParams::new(ts, tw);
            println!("\n## Where the time goes\n");
            println!("Simulated on the `{engine_desc}` engine.\n\n### Original\n");
            print!(
                "{}",
                profile_section_with(&prog, &inputs, clock, exec_config)
            );
            println!("\n### Optimized\n");
            print!(
                "{}",
                profile_section_with(&result.program, &inputs, clock, exec_config)
            );
        }
        if let Some(plan) = &faults {
            let inputs = profile_inputs(p, m);
            let clock = ClockParams::new(ts, tw);
            println!("\n## Degradation under faults\n");
            println!("Simulated on the `{engine_desc}` engine.\n\n### Original\n\n```text");
            print!(
                "{}",
                degradation_section_with(&prog, &inputs, clock, exec_config, plan)
            );
            println!("```\n\n### Optimized\n\n```text");
            print!(
                "{}",
                degradation_section_with(&result.program, &inputs, clock, exec_config, plan)
            );
            println!("```");
        }
        return;
    }

    if json {
        // The machine-readable path: the same byte-stable document the
        // serve front end returns (sans lint/simulation sections).
        let result = if optimal {
            rewriter.saturate(&prog, &params, m).result
        } else {
            rewriter.optimize(&prog)
        };
        println!(
            "{}",
            optimize_result_json(&prog, &result, &params, m).render()
        );
        return;
    }

    println!("machine  : p={p}, ts={ts}, tw={tw}, block m={m}");
    if simulating {
        println!("engine   : {engine_desc}");
    }
    println!("original : {prog}");
    let before = program_cost(&prog, &params, m);
    let result = if optimal {
        rewriter.saturate(&prog, &params, m).result
    } else {
        rewriter.optimize(&prog)
    };
    for step in &result.steps {
        match step.saving {
            Some(s) => println!(
                "applied  : {} at stage {} (predicted saving {s:.0})",
                step.rule, step.at
            ),
            None => println!("applied  : {} at stage {}", step.rule, step.at),
        }
    }
    for n in &result.normalizations {
        println!("normalize: {n:?}");
    }
    if result.steps.is_empty() {
        println!("applied  : (no rule pays off on this machine)");
    }
    println!("optimized: {}", result.program);
    let after = program_cost(&result.program, &params, m);
    if before > 0.0 {
        println!(
            "cost     : {before:.0} -> {after:.0} time units ({:+.1}%)",
            100.0 * (after - before) / before
        );
    }
    if profile {
        let inputs = profile_inputs(p, m);
        let clock = ClockParams::new(ts, tw);
        println!("\n-- original: where the time goes --");
        print!(
            "{}",
            profile_section_with(&prog, &inputs, clock, exec_config)
        );
        println!("\n-- optimized: where the time goes --");
        print!(
            "{}",
            profile_section_with(&result.program, &inputs, clock, exec_config)
        );
    }
    if let Some(plan) = &faults {
        let inputs = profile_inputs(p, m);
        let clock = ClockParams::new(ts, tw);
        println!("\n-- original: degradation under faults --");
        print!(
            "{}",
            degradation_section_with(&prog, &inputs, clock, exec_config, plan)
        );
        println!("\n-- optimized: degradation under faults --");
        print!(
            "{}",
            degradation_section_with(&result.program, &inputs, clock, exec_config, plan)
        );
    }
}
