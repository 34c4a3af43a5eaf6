//! `collopt` — command-line pipeline optimizer.
//!
//! Parse a collective pipeline, optimize it for a machine — equality
//! saturation over every rule order, extracting the cheapest reachable
//! plan (see `saturate`) — and report the rewrite log and cost estimates:
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
//! * `--exhaustive`  ignore the cost model: the fewest collectives, then
//!   the fewest stages
//! * `--all-ranks`   only apply rules preserving every processor's value
//! * `--report`      emit a full Markdown report instead of the summary
//! * `--profile`     run both pipelines on the simulated machine and show
//!   where the time goes (per-stage busy/idle tables + critical path)
//! * `--faults SPEC` run both pipelines under a deterministic fault plan
//!   and show how gracefully they degrade, e.g.
//!   `--faults "seed=42,straggler=3x2.5,link=0-1x2+50,drop=0.05/3"`
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
//! cache, one thread per connection and at most `--workers` requests
//! handled at once. `submit` builds one request from the
//! usual flags (`--p/--ts/--tw/--m`, `--all-ranks`, `--no-lint`,
//! `--simulate`), sends it, and prints the response line;
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
//! lints (`COL007`/`COL012`). Flags and the exit contract match
//! `lint`; `--planted` drills the verifier on known-bad lowerings.
//!
//! Saturate mode — the optimizer's search with its e-graph statistics:
//!
//! ```text
//! $ collopt saturate "scan(add) ; scan(add) ; reduce(add)" --p 64 --ts 100 --tw 2 --m 8
//! ```
//!
//! Builds the e-graph of every program reachable by the 11 rules plus
//! the enabling normalizations, extracts the cost-optimal one, and
//! prints it with its derivation and the e-graph statistics.
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
//! * `--seed N`         base seed (default 786704 = 0xC0110)
//! * `--pmax N, --m N`  generator shape limits (defaults 9, 4; each ≤ 64)
//! * `--pin DIR`        pin every shrunk failing case into DIR as a `.case`
//!   file (`tests/corpus` is the directory `tests/corpus_replay.rs` replays)
//! * `--out FILE`       write the verdict JSON — a pure function of the
//!   flags above; `results/BENCH_fuzz.json` is the committed one — and, on
//!   violations, the shrunk failing specs to `fuzz_failures.json` beside it
//! * `--replay "SPEC"`  re-run one pinned case from its spec string
//!
//! A campaign fails on any oracle violation *and* when one of the 11
//! Table-1 rules never fired. `SWEEP_WORKERS` sets the worker threads of
//! `fuzz` and `chaos` (default: all cores); it never changes a result.
//!
//! Chaos mode — the fault-injection sweep, scaled past `tests/chaos_dst.rs`:
//!
//! ```text
//! $ collopt chaos --seeds 256 --pmax 16
//! ```
//!
//! Sweeps the three fault families (delay, lossy, crash) over both sides
//! of every Table-1 rule and checks the differential oracle of
//! `collopt_bench::chaos`. Every violation prints its reproducing
//! `(seed, plan)` — paste the plan into `collopt --faults "<plan>"`.
//!
//! * `--seeds N`   seeds per family (default 96)
//! * `--pmax N`    largest machine size drawn per seed (default 9)
//! * `--m N`       words per block (default 4)
//! * `--out FILE`  on violations, write the failing records as JSON
//!
//! Repro mode — the paper's tables and figures (run from the repo root):
//!
//! ```text
//! $ collopt repro table1      # print one artifact (`collopt repro` lists them)
//! $ collopt repro --all       # rewrite every file under results/
//! $ collopt repro --check     # exit 1 naming any results/ file that drifted
//! ```
//!
//! Exit codes: 0 clean (notes allowed), 1 errors (or warnings under
//! `--deny warnings`, violations, drift), 2 usage or parse errors — one
//! line on stderr, never a panic.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use collopt::analysis::{lint_source, LintConfig, Severity};
use collopt::bench::chaos::{failures_json, sweep_parallel, ChaosKind};
use collopt::bench::repro::{self, ARTIFACTS};
use collopt::core::egraph::{saturate_program, SaturateConfig};
use collopt::core::parser::parse_pipeline;
use collopt::core::report::{
    degradation_section, optimization_report, profile_section, write_optimize_result,
};
use collopt::core::rewrite::{program_cost, Rewriter};
use collopt::core::value::Value;
use collopt::cost::params::MAX_INPUT;
use collopt::cost::table1::render_table1;
use collopt::cost::MachineParams;
use collopt::fuzz::{
    report_failures, run_campaign, run_case, verdict_json, CampaignConfig, CaseSpec,
    CoverageLedger, GenConfig,
};
use collopt::machine::{ClockParams, FaultPlan, Json};
use collopt::serve::{Server, ServerConfig, Service, DEFAULT_CACHE_CAPACITY};

/// Default address for `collopt serve` / `collopt submit`.
const DEFAULT_ADDR: &str = "127.0.0.1:7071";

/// What may follow `collopt` when no subcommand does.
const USAGE: &str = "\"<pipeline>\" [--p N] [--ts X] [--tw X] [--m X] [--exhaustive] \
     [--all-ranks] [--report] [--profile] [--faults SPEC] [--json] [--table1]";

/// A subcommand: its name, what may follow the name (stated once, for
/// errors and for `--help`), and its entry point.
struct Mode {
    name: &'static str,
    usage: &'static str,
    run: fn(Args) -> !,
}

const MODES: &[Mode] = &[
    Mode {
        name: "lint",
        usage: "\"<pipeline>\" | --file PATH [--json] [--deny warnings] [--p N] [--ts X] \
         [--tw X] [--m X]",
        run: lint_main,
    },
    Mode {
        name: "check",
        usage: "[\"<pipeline>\" | --file PATH] [--planted] [--json] [--deny warnings] \
         [--p N] [--ts X] [--tw X] [--m X]",
        run: lint_main,
    },
    Mode {
        name: "saturate",
        usage: "\"<pipeline>\" [--p N] [--ts X] [--tw X] [--m X] [--budget N] \
         [--all-ranks]",
        run: saturate_main,
    },
    Mode {
        name: "fuzz",
        usage: "[--iters N] [--seed N] [--pmax N] [--m N] [--pin DIR] [--out FILE] \
         | --replay \"<spec>\"",
        run: fuzz_main,
    },
    Mode {
        name: "chaos",
        usage: "[--seeds N] [--pmax N] [--m N] [--out FILE]",
        run: chaos_main,
    },
    Mode {
        name: "repro",
        usage: "<artifact> | --all | --check",
        run: repro_main,
    },
    Mode {
        name: "serve",
        usage: "[--addr HOST:PORT] [--cache N] [--workers N]",
        run: serve_main,
    },
    Mode {
        name: "submit",
        usage: "\"<pipeline>\" [--addr HOST:PORT] [--id N] [--p N] [--ts X] [--tw X] \
         [--m X] [--all-ranks] [--no-lint] [--simulate] \
         | --op ping|stats|shutdown | --line '<json>'",
        run: submit_main,
    },
];

/// Parse the value of flag `name` as a `T`.
fn parse_flag<T: FromStr>(name: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{name} '{value}': {e}"))
}

/// The arguments of one mode, consumed left to right. Everything a user
/// can get wrong ends in [`Args::fail`]: one line on stderr, exit code 2.
struct Args {
    mode: &'static str,
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// `collopt` or `collopt <mode>`.
    fn command(&self) -> String {
        format!("collopt {}", self.mode).trim_end().to_string()
    }

    fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.command());
        std::process::exit(2)
    }

    /// A usage error that the message alone does not explain.
    fn fail_with_usage(&self, msg: impl Display) -> ! {
        self.fail(format!("{msg} (usage: {} {})", self.command(), self.usage))
    }

    /// The value that follows flag `name`.
    fn value<T: FromStr>(&mut self, name: &str) -> T
    where
        T::Err: Display,
    {
        let Some(value) = self.rest.next() else {
            self.fail(format!("missing value for {name}"))
        };
        parse_flag(name, &value).unwrap_or_else(|e| self.fail(e))
    }

    /// `arg` is none of the mode's flags, and the mode takes no pipeline.
    fn unexpected(&self, arg: &str) -> ! {
        let what = if arg.starts_with("--") {
            "unknown option"
        } else {
            "unexpected argument"
        };
        self.fail_with_usage(format!("{what} {arg}"))
    }

    /// `arg` is none of the mode's flags: it is the pipeline, once.
    fn pipeline(&self, arg: String, slot: &mut Option<String>) {
        if arg.starts_with("--") {
            self.unexpected(&arg);
        }
        if slot.replace(arg).is_some() {
            self.fail("multiple pipeline arguments");
        }
    }
}

/// `--p/--ts/--tw/--m`, shared by every mode that prices a pipeline.
struct MachineFlags {
    p: usize,
    ts: f64,
    tw: f64,
    m: f64,
}

impl MachineFlags {
    /// The Parsytec-like machine of the paper's figures, 32-word blocks.
    fn new() -> MachineFlags {
        MachineFlags {
            p: 64,
            ts: 200.0,
            tw: 2.0,
            m: 32.0,
        }
    }

    /// Take `flag`'s value if it is one of the four; `false` leaves the
    /// flag to the mode.
    fn take(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--p" => self.p = args.value(flag),
            "--ts" => self.ts = args.value(flag),
            "--tw" => self.tw = args.value(flag),
            "--m" => self.m = args.value(flag),
            _ => return false,
        }
        true
    }

    /// The machine and the block size, inside the cost model's domain:
    /// `MachineParams::try_new`'s, and `m` in `0..=MAX_INPUT`.
    fn checked(&self, args: &Args) -> (MachineParams, f64) {
        let params =
            MachineParams::try_new(self.p, self.ts, self.tw).unwrap_or_else(|e| args.fail(e));
        if !(0.0..=MAX_INPUT).contains(&self.m) {
            args.fail(format!("m must be in 0..={MAX_INPUT:e}, got {:e}", self.m));
        }
        (params, self.m)
    }
}

/// Write `bytes` to `path`, creating its directory; an I/O error is a
/// failed run (exit 1), not a usage error.
fn write_file(path: &Path, bytes: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, bytes));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// `collopt serve` — run the optimization service until a `shutdown`
/// request arrives.
fn serve_main(mut args: Args) -> ! {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cache = DEFAULT_CACHE_CAPACITY;
    let mut config = ServerConfig::default();
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg),
            "--cache" => cache = args.value(&arg),
            "--workers" => config.workers = args.value(&arg),
            _ => args.unexpected(&arg),
        }
    }

    let service = Arc::new(Service::new(cache));
    let server = match Server::bind(&addr, service, config) {
        Ok(s) => s,
        Err(e) => args.fail(format!("cannot bind {addr}: {e}")),
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
fn submit_main(mut args: Args) -> ! {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut pipeline: Option<String> = None;
    let mut raw: Option<String> = None;
    let mut op: Option<String> = None;
    let mut id: f64 = 0.0;
    let mut machine = MachineFlags::new();
    let mut all_ranks = false;
    let mut lint = true;
    let mut simulate = false;
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg),
            "--line" => raw = Some(args.value(&arg)),
            "--op" => op = Some(args.value(&arg)),
            "--id" => id = args.value(&arg),
            "--all-ranks" => all_ranks = true,
            "--no-lint" => lint = false,
            "--simulate" => simulate = true,
            flag if machine.take(flag, &mut args) => {}
            _ => args.pipeline(arg, &mut pipeline),
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
        let (params, m) = machine.checked(&args);
        let options = Json::Obj(vec![
            ("all_ranks".into(), Json::Bool(all_ranks)),
            ("lint".into(), Json::Bool(lint)),
            ("simulate".into(), Json::Bool(simulate)),
        ]);
        Json::Obj(vec![
            ("id".into(), Json::Num(id)),
            ("pipeline".into(), Json::Str(pipeline)),
            ("p".into(), Json::Num(params.p as f64)),
            ("ts".into(), Json::Num(params.ts)),
            ("tw".into(), Json::Num(params.tw)),
            ("m".into(), Json::Num(m)),
            ("options".into(), options),
        ])
        .render()
    } else {
        args.fail_with_usage("nothing to submit")
    };

    match collopt::serve::submit(&addr, &line) {
        Ok(response) => {
            println!("{response}");
            let ok = response.contains("\"ok\":true");
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => args.fail(format!("cannot reach {addr}: {e}")),
    }
}

/// `collopt lint` and `collopt check` — parse, analyze, report, and gate.
///
/// `check` is `lint` plus the static communication-schedule verifier: with
/// no pipeline it verifies every shipped collective lowering's symbolic
/// schedule at `(p, m)` — deadlock-freedom, message-match completeness,
/// barrier consistency, and round counts against the cost model's closed
/// forms and the `⌈log₂ p⌉` lower bounds — and `--planted` instead checks
/// that every planted-bug lowering is rejected with its expected code (the
/// CI drill). With a pipeline (or `--file`) both run the full lint
/// analysis, the distribution-state dataflow lints (COL007/COL012)
/// included, under one exit contract.
fn lint_main(mut args: Args) -> ! {
    let check = args.mode == "check";
    let mut pipeline: Option<String> = None;
    let mut file: Option<String> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut planted = false;
    let mut machine = MachineFlags::new();
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--file" => file = Some(args.value(&arg)),
            "--planted" if check => planted = true,
            "--deny" => {
                let what: String = args.value(&arg);
                if what != "warnings" {
                    args.fail(format!("--deny only supports 'warnings', got '{what}'"));
                }
                deny_warnings = true;
            }
            flag if machine.take(flag, &mut args) => {}
            _ => args.pipeline(arg, &mut pipeline),
        }
    }
    let (params, m) = machine.checked(&args);
    let words = m as u64;

    if planted {
        // Drill mode: every planted-bug lowering must be rejected with
        // its expected code — a verifier that goes blind fails loudly.
        let mut clean = true;
        for (report, expected) in collopt::analysis::verify_planted(params.p, words) {
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
        (Some(_), Some(_)) => args.fail("give a pipeline argument or --file, not both"),
        (Some(src), None) => Some(src),
        (None, Some(path)) => match std::fs::read_to_string(&path) {
            Ok(text) => Some(text.trim().to_string()),
            Err(e) => args.fail(format!("cannot read {path}: {e}")),
        },
        (None, None) if check => None,
        (None, None) => args.fail_with_usage("no pipeline given"),
    };

    let (errors, warnings) = if let Some(src) = src {
        let cfg = LintConfig {
            params,
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
        let reports = collopt::analysis::verify_registry(params.p, words);
        if json {
            println!(
                "{}",
                collopt::analysis::render_reports_json(&reports, params.p, words)
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

/// `collopt saturate` — the optimizer's search and its e-graph statistics
/// for one pipeline, under an optional node budget.
fn saturate_main(mut args: Args) -> ! {
    let mut pipeline: Option<String> = None;
    let mut machine = MachineFlags::new();
    let mut budget: Option<usize> = None;
    let mut all_ranks = false;
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--budget" => budget = Some(args.value(&arg)),
            "--all-ranks" => all_ranks = true,
            flag if machine.take(flag, &mut args) => {}
            _ => args.pipeline(arg, &mut pipeline),
        }
    }
    let (params, m) = machine.checked(&args);
    let Some(src) = pipeline else {
        args.fail_with_usage("no pipeline given")
    };
    let prog = match parse_pipeline(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", e.render(&src));
            std::process::exit(2);
        }
    };

    let mut cfg = SaturateConfig::new(params, m).allow_rank0_rules(!all_ranks);
    if let Some(b) = budget {
        cfg = cfg.node_budget(b);
    }
    let outcome = saturate_program(&prog, &cfg);

    let before = program_cost(&prog, &params, m);
    let optimal_cost = program_cost(&outcome.result.program, &params, m);
    let MachineParams { p, ts, tw } = params;
    println!("machine  : p={p}, ts={ts}, tw={tw}, block m={m}");
    println!("original : {prog}");
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
    println!(
        "extract  : {} justification edges walked, extracted cost {:.0}",
        stats.replay_states, stats.extracted_cost
    );
    std::process::exit(0);
}

/// `collopt fuzz` — run a differential fuzz campaign or replay one case.
fn fuzz_main(mut args: Args) -> ! {
    let mut cfg = CampaignConfig::default();
    let mut replay: Option<String> = None;
    let mut pin: Option<String> = None;
    let mut out: Option<String> = None;
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--iters" => cfg.iters = args.value(&arg),
            "--seed" => cfg.seed = args.value(&arg),
            "--pmax" => cfg.gen.pmax = args.value(&arg),
            "--m" => cfg.gen.mmax = args.value(&arg),
            "--replay" => replay = Some(args.value(&arg)),
            "--pin" => pin = Some(args.value(&arg)),
            "--out" => out = Some(args.value(&arg)),
            _ => args.unexpected(&arg),
        }
    }
    let GenConfig { pmax, mmax } = cfg.gen;
    if !(2..=64).contains(&pmax) || !(1..=64).contains(&mmax) {
        args.fail(format!(
            "--pmax must be in 2..=64 and --m in 1..=64, got {pmax} and {mmax}"
        ));
    }

    if let Some(spec) = replay {
        let case = match CaseSpec::parse(&spec) {
            Ok(case) => case,
            Err(e) => args.fail(format!("bad case spec: {e}")),
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

    println!(
        "# fuzz campaign: iters={} seed={} pmax={pmax} m={mmax}",
        cfg.iters, cfg.seed
    );
    let result = run_campaign(&cfg);
    println!("{}", result.ledger.summary());
    if let Some(out) = &out {
        write_file(Path::new(out), &verdict_json(&cfg, &result));
    }
    if !result.failures.is_empty() {
        eprintln!("FUZZ FAILURES ({}):", result.failures.len());
        for f in &result.failures {
            eprintln!("  [{}] {f}", f.oracle.label());
        }
        let failing = report_failures(&result.failures, pin.as_deref().map(Path::new));
        if let Some(out) = &out {
            write_file(
                &Path::new(out).with_file_name("fuzz_failures.json"),
                &failing,
            );
        }
    }
    let missing = result.ledger.missing_rules();
    if !missing.is_empty() {
        eprintln!("COVERAGE GAP: rules never fired: {missing:?}");
    }
    if !result.passed() {
        std::process::exit(1);
    }
    println!(
        "# OK: {} cases, {}/11 rules, {}/{} planted lies caught, 0 failures",
        result.ledger.cases,
        result.ledger.rules_fired(),
        result.ledger.lies_caught,
        result.ledger.over_claim_cases
    );
    std::process::exit(0);
}

/// `collopt chaos` — sweep the three fault families over both sides of
/// every Table-1 rule against the oracle of `collopt_bench::chaos`.
fn chaos_main(mut args: Args) -> ! {
    let mut seeds = 96u64;
    let mut pmax = 9usize;
    let mut m = 4usize;
    let mut out: Option<String> = None;
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--seeds" => seeds = args.value(&arg),
            "--pmax" => pmax = args.value(&arg),
            "--m" => m = args.value(&arg),
            "--out" => out = Some(args.value(&arg)),
            _ => args.unexpected(&arg),
        }
    }
    if pmax < 2 {
        args.fail(format!("--pmax must be at least 2, got {pmax}"));
    }

    println!("# chaos sweep: {seeds} seeds/family, p in 2..={pmax}, m={m}");
    let mut all = Vec::new();
    for kind in ChaosKind::ALL {
        let failures = sweep_parallel(kind, 0..seeds, pmax, m);
        // 11 rules x 2 sides per seed.
        println!(
            "  {:5}: {} runs, {} violations",
            kind.label(),
            seeds * 22,
            failures.len()
        );
        all.extend(failures.into_iter().map(|f| (kind, f)));
    }
    if all.is_empty() {
        println!("# all invariants held");
        std::process::exit(0);
    }

    eprintln!(
        "# {} violations — each line reproduces with `collopt --faults`:",
        all.len()
    );
    for (kind, f) in &all {
        eprintln!("  [{}] {f}", kind.label());
    }
    if let Some(out) = &out {
        write_file(Path::new(out), &failures_json(&all));
    }
    std::process::exit(1);
}

fn artifact_names() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    format!("artifacts: {}", names.join(", "))
}

/// `collopt repro` — print one of the paper's artifacts, rewrite all of
/// `results/`, or check `results/` against what the code produces.
fn repro_main(mut args: Args) -> ! {
    let (Some(what), None) = (args.rest.next(), args.rest.next()) else {
        args.fail_with_usage(format!("expected one argument; {}", artifact_names()))
    };
    let results = Path::new("results");
    match what.as_str() {
        "--all" => {
            if let Err(e) = repro::write_all(results) {
                eprintln!("cannot write results/: {e}");
                std::process::exit(1);
            }
            println!("# rewrote results/ from {} artifacts", ARTIFACTS.len());
        }
        "--check" => {
            let problems = repro::check(results);
            for problem in &problems {
                eprintln!("results/{problem}");
            }
            if !problems.is_empty() {
                std::process::exit(1);
            }
            println!(
                "# results/ is what the {} artifacts produce, byte for byte",
                ARTIFACTS.len()
            );
        }
        name => {
            let Some(artifact) = ARTIFACTS.iter().find(|a| a.name == name) else {
                args.fail(format!("unknown artifact '{name}'; {}", artifact_names()))
            };
            // One file is printed as it is committed; the Chrome traces of
            // `profile` have no trailing newline and come out one per line.
            for (_, bytes) in (artifact.produce)() {
                print!("{bytes}");
                if !bytes.ends_with('\n') {
                    println!();
                }
            }
        }
    }
    std::process::exit(0);
}

fn print_help() {
    eprintln!("usage: collopt {USAGE}");
    eprintln!("  pipeline: e.g. \"map f ; scan(mul) ; reduce(add) ; bcast\"");
    eprintln!("  operators: add mul max min and or fadd fmul maxplus");
    for mode in MODES {
        eprintln!("  collopt {} {}", mode.name, mode.usage);
    }
    eprintln!("  {}", artifact_names());
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(mode) = MODES
        .iter()
        .find(|m| argv.first().is_some_and(|a| a == m.name))
    {
        (mode.run)(Args {
            mode: mode.name,
            usage: mode.usage,
            rest: argv.split_off(1).into_iter(),
        });
    }
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        std::process::exit(if argv.is_empty() { 2 } else { 0 });
    }
    let mut args = Args {
        mode: "",
        usage: USAGE,
        rest: argv.into_iter(),
    };

    let mut pipeline = None;
    let mut machine = MachineFlags::new();
    let mut exhaustive = false;
    let mut all_ranks = false;
    let mut report = false;
    let mut profile = false;
    let mut json = false;
    let mut faults: Option<FaultPlan> = None;
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--table1" => {
                print!("{}", render_table1());
                return;
            }
            "--exhaustive" => exhaustive = true,
            "--all-ranks" => all_ranks = true,
            "--report" => report = true,
            "--profile" => profile = true,
            "--json" => json = true,
            "--faults" => {
                let spec: String = args.value(&arg);
                match FaultPlan::parse(&spec) {
                    Ok(plan) => faults = Some(plan),
                    Err(e) => args.fail(format!("bad --faults spec: {e}")),
                }
            }
            flag if machine.take(flag, &mut args) => {}
            _ => args.pipeline(arg, &mut pipeline),
        }
    }
    let (params, m) = machine.checked(&args);
    let MachineParams { p, ts, tw } = params;
    let Some(src) = pipeline else {
        args.fail_with_usage("no pipeline given")
    };

    let prog = match parse_pipeline(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", e.render(&src));
            std::process::exit(2);
        }
    };

    let rewriter = if exhaustive {
        Rewriter::exhaustive()
    } else {
        Rewriter::cost_guided(params, m)
    }
    .allow_rank0_rules(!all_ranks);

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
            println!("\n## Where the time goes\n\n### Original\n");
            print!("{}", profile_section(&prog, &inputs, clock));
            println!("\n### Optimized\n");
            print!("{}", profile_section(&result.program, &inputs, clock));
        }
        if let Some(plan) = &faults {
            let inputs = profile_inputs(p, m);
            let clock = ClockParams::new(ts, tw);
            println!("\n## Degradation under faults\n\n### Original\n\n```text");
            print!("{}", degradation_section(&prog, &inputs, clock, plan));
            println!("```\n\n### Optimized\n\n```text");
            print!(
                "{}",
                degradation_section(&result.program, &inputs, clock, plan)
            );
            println!("```");
        }
        return;
    }

    if json {
        // The machine-readable path: the same byte-stable document the
        // serve front end returns (sans lint/simulation sections).
        let result = rewriter.optimize(&prog);
        let mut doc = String::from("{");
        write_optimize_result(&mut doc, &prog, &result, &params, m);
        doc.push('}');
        println!("{doc}");
        return;
    }

    println!("machine  : p={p}, ts={ts}, tw={tw}, block m={m}");
    println!("original : {prog}");
    let before = program_cost(&prog, &params, m);
    let result = rewriter.optimize(&prog);
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
        print!("{}", profile_section(&prog, &inputs, clock));
        println!("\n-- optimized: where the time goes --");
        print!("{}", profile_section(&result.program, &inputs, clock));
    }
    if let Some(plan) = &faults {
        let inputs = profile_inputs(p, m);
        let clock = ClockParams::new(ts, tw);
        println!("\n-- original: degradation under faults --");
        print!("{}", degradation_section(&prog, &inputs, clock, plan));
        println!("\n-- optimized: degradation under faults --");
        print!(
            "{}",
            degradation_section(&result.program, &inputs, clock, plan)
        );
    }
}
