//! The repo benchmark. See `README.md` beside this crate for what is
//! measured and why; `BENCHMARK.json` at the repository root names the
//! command, the workloads and the metrics.
//!
//! ```text
//! collopt-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--expected DIR] [--write-expected] [--selfcheck]
//! ```
//!
//! The last line of standard output is one JSON object per workload:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod alloc;
mod check;
mod clock;
mod expected;
mod gen;
mod metrics;
mod serve;
mod sim;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Output};

use crate::expected::Expected;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};
use crate::workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 5] = [
    "serve_cold",
    "serve_hot",
    "sim_scale",
    "sim_batch",
    "check_sweep",
];
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 18.0;
/// Timed rounds a run must pool at least.
const MIN_ROUNDS: u64 = 24;
/// Child processes per workload and run. Each sets up anew, so set-up is
/// sampled five times, every slice starts from a clean heap, and the luck
/// of one process (± 4 % on `sim_scale`) does not decide a run.
const SLICES: usize = 5;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    expected: PathBuf,
    write_expected: bool,
    selfcheck: bool,
    /// Internal: this is a child process; run slice number `n` (or the
    /// traced run) of `workloads[0]` here and print its report.
    slice: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        expected: Path::new(env!("CARGO_MANIFEST_DIR")).join("expected"),
        write_expected: false,
        selfcheck: false,
        slice: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                args.workloads = vec![known.ok_or(format!("unknown workload '{name}'"))?];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--expected" => args.expected = PathBuf::from(value()?),
            "--write-expected" => args.write_expected = true,
            "--selfcheck" => args.selfcheck = true,
            "--slice" => args.slice = Some(value()?.parse().map_err(|e| format!("--slice: {e}"))?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "serve_cold" => Box::new(serve::ServeCold::new(seed)),
        "serve_hot" => Box::new(serve::ServeHot::new(seed)),
        "sim_scale" => Box::new(sim::Sim::scale(seed)),
        "sim_batch" => Box::new(sim::Sim::batch(seed)),
        "check_sweep" => Box::new(check::CheckSweep::new(seed)),
        other => unreachable!("parse_args admits no workload '{other}'"),
    }
}

/// What one child process reported.
#[derive(Default)]
struct Slice {
    /// Seconds at reference clock speed.
    setup_s: f64,
    /// Timed rounds, then throughput in ops/s, p50 and p90 latency in
    /// seconds, at reference clock speed.
    rounds: u64,
    timing: [f64; 3],
    allocs: f64,
    bytes: f64,
    rss_kb: f64,
    ops: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn parse_slice(report: &str) -> Result<Slice, String> {
    let mut slice = Slice::default();
    for line in report.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        let numbers = |n: usize| -> Result<Vec<f64>, String> {
            let numbers: Vec<f64> = rest
                .split(' ')
                .map(|x| x.parse().map_err(|e| format!("'{line}': {e}")))
                .collect::<Result<_, _>>()?;
            if numbers.len() == n {
                Ok(numbers)
            } else {
                Err(format!("'{line}': expected {n} numbers"))
            }
        };
        match kind {
            "setup" => slice.setup_s = numbers(1)?[0],
            "timing" => {
                let n = numbers(4)?;
                slice.rounds = n[0] as u64;
                slice.timing = [n[1], n[2], n[3]];
            }
            "counted" => {
                let n = numbers(2)?;
                (slice.allocs, slice.bytes) = (n[0], n[1]);
            }
            "rss_kb" => slice.rss_kb = numbers(1)?[0],
            "ops" => {
                let n = numbers(3)?;
                (slice.ops, slice.attempted, slice.failed) = (n[0], n[1] as u64, n[2] as u64);
            }
            "error" => slice.errors.push(rest.to_string()),
            _ => return Err(format!("unknown record '{line}'")),
        }
    }
    if slice.ops == 0.0 {
        return Err("slice report is incomplete".into());
    }
    if slice.rounds == 0 {
        slice.errors.push("no op was answered correctly".into());
    }
    Ok(slice)
}

/// The value of one field of `/proc/self/status`, e.g. `"VmHWM:"`.
fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(field))?;
    Some(value.trim().to_string())
}

extern "C" {
    /// `sched_setaffinity(2)` of the C library the standard library links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process, and every thread it starts later, to one CPU: the
/// `turn`-th of those it may run on. The vCPUs of a shared host change
/// speed independently of each other, and a [`clock::Clock`] reading can
/// only speak for the CPU it ran on; pinned, the load generator, the
/// server's threads and the clock share that CPU, so every workload is a
/// single-core one. Taking turns keeps one CPU from deciding a whole run.
/// There is no unpinned mode: numbers from one would not be comparable.
fn pin_to_one_cpu(turn: usize) -> Result<(), String> {
    let allowed = proc_status("Cpus_allowed_list:").ok_or("no Cpus_allowed_list in /proc")?;
    let cpus: Vec<usize> = allowed
        .split(',')
        .filter_map(|range| {
            let (low, high) = range.split_once('-').unwrap_or((range, range));
            Some(low.parse::<usize>().ok()?..=high.parse().ok()?)
        })
        .flatten()
        .collect();
    let mut mask = [0_u64; 16];
    let cpu = *cpus
        .get(turn % cpus.len().max(1))
        .filter(|&&cpu| cpu < 64 * mask.len())
        .ok_or(format!("no usable CPU in '{allowed}'"))?;
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, which
    // the call only reads; pid 0 is the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Run this program again as a child process.
fn run_child(child_args: &[String]) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Command::new(&exe)
        .args(child_args)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))
}

/// Run slice number `slice` of `workload` in a child process.
fn run_slice_child(args: &Args, workload: &str, slice: usize) -> Result<Slice, String> {
    let mut child_args = vec![
        "--slice".to_string(),
        slice.to_string(),
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        (args.seconds / SLICES as f64).to_string(),
        "--expected".to_string(),
        args.expected.display().to_string(),
    ];
    if args.write_expected {
        child_args.push("--write-expected".to_string());
    }
    let output = run_child(&child_args)?;
    if !output.status.success() {
        return Err(format!(
            "a slice of {workload} ended with {}:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    parse_slice(&String::from_utf8_lossy(&output.stdout))
}

/// A workload's result: the JSON line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)`, in the order of the metric tables.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Pool a workload's slices into the end-to-end metrics: of each the median
/// over the slices, of set-up the fastest.
fn pool(workload: &str, slices: &[Slice]) -> Outcome {
    let of = |f: fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let ops = slices[0].ops;
    let allocs = of(|s| s.allocs);
    let bytes = of(|s| s.bytes);

    let mut errors: Vec<String> = slices.iter().flat_map(|s| s.errors.clone()).collect();
    // The op list fixes all the work of a counted round, so counts repeat
    // exactly. `serve_hot` alone keeps its server across rounds, whose
    // request queue allocates a block every 31 messages: where in a block
    // the counted round starts moves the count by one allocation in
    // 299 353. The issue allows it 1 %.
    let slack = if workload == "serve_hot" { 0.01 } else { 0.0 };
    for (what, counts) in [("allocations", &allocs), ("bytes", &bytes)] {
        let (low, high) = (quantile(counts, 0.0), quantile(counts, 1.0));
        if high - low > slack * low {
            errors.push(format!("{what} of the counted rounds disagree: {counts:?}"));
        }
    }
    let failed: u64 = slices.iter().map(|s| s.failed).sum();
    let rounds: u64 = slices.iter().map(|s| s.rounds).sum();
    if rounds < MIN_ROUNDS {
        errors.push(format!("{rounds} timed rounds, fewer than {MIN_ROUNDS}"));
    }
    println!(
        "# {workload}: {rounds} timed rounds of {ops} ops in {} slices",
        slices.len()
    );
    for error in &errors {
        println!("# {workload}: FAILED: {error}");
    }

    let values = [
        // Set-up is run once per slice and interference only adds to it.
        quantile(&of(|s| s.setup_s), 0.0),
        median(&of(|s| s.timing[0])),
        median(&of(|s| s.timing[1])) * 1e6,
        median(&of(|s| s.timing[2])) * 1e6,
        median(&allocs) / ops,
        median(&bytes) / ops / 1024.0,
        median(&of(|s| s.rss_kb)) / 1024.0,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name, m.unit, value))
        .collect();
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted: slices.iter().map(|s| s.attempted).sum(),
        failed,
        metrics,
    }
}

fn print_result(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        // `{:?}` prints every digit the f64 has.
        .map(|(name, unit, value)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}

/// Run `sets` copies of the measured run at once, their slices
/// interleaved: every workload's first slice, then every second one, …
/// so that each workload's rounds are spread over the whole run.
fn measure(args: &Args, sets: usize) -> Result<Vec<Vec<Outcome>>, String> {
    let mut slices: Vec<Vec<Vec<Slice>>> = (0..sets)
        .map(|_| args.workloads.iter().map(|_| Vec::new()).collect())
        .collect();
    for slice in 0..SLICES {
        for (w, workload) in args.workloads.iter().enumerate() {
            for (s, set) in slices.iter_mut().enumerate() {
                set[w].push(run_slice_child(args, workload, slice + s)?);
            }
        }
    }
    Ok(slices
        .iter()
        .map(|set| {
            set.iter()
                .zip(&args.workloads)
                .map(|(slices, workload)| pool(workload, slices))
                .collect()
        })
        .collect())
}

fn measured_run(args: &Args) -> Result<bool, String> {
    let outcomes = measure(args, 1)?.remove(0);
    for (workload, outcome) in args.workloads.iter().zip(&outcomes) {
        println!("# workload {workload}");
        print_result(outcome);
    }
    Ok(outcomes.iter().all(|o| o.correct))
}

/// Run everything twice, interleaved, and hold the two against each
/// other by the benchmark's own bounds. The output is `REPEATABILITY.md`.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let sets = measure(args, 2)?;
    let mut within = true;
    println!("| workload | metric | first | second | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (w, workload) in args.workloads.iter().enumerate() {
        for (i, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (sets[0][w].metrics[i].2, sets[1][w].metrics[i].2);
            // How much worse the worse of the two is, as a share of the other.
            let apart = (a - b).abs() / a.min(b);
            let ok = apart <= metric.bound && sets.iter().all(|s| s[w].correct);
            within &= ok;
            println!(
                "| {workload} | {} | {a:.6} | {b:.6} | {:.2} % | {:.0} % | {} |",
                metric.name,
                apart * 100.0,
                metric.bound * 100.0,
                if ok { "ok" } else { "FAILED" }
            );
        }
    }
    Ok(within)
}

/// The traced run, one pinned child per workload as in the measured run.
fn traced_run(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for (turn, workload) in args.workloads.iter().enumerate() {
        let (turn, seed) = (turn.to_string(), args.seed.to_string());
        let child_args = [
            "--slice",
            &turn,
            "--trace",
            "1",
            "--workload",
            workload,
            "--seed",
            &seed,
        ]
        .map(String::from);
        let output = run_child(&child_args)?;
        print!("{}", String::from_utf8_lossy(&output.stdout));
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_correct &= output.status.success();
    }
    Ok(all_correct)
}

/// One workload's traced run, in this process: a round under spans, the
/// spans written to `out/trace_<workload>.json`, every per-layer metric
/// printed.
fn traced_child(args: &Args) -> Result<bool, String> {
    let workload = args.workloads[0];
    let mut tracer = trace::Tracer::new(1 << 16);
    let found = match workload {
        "serve_cold" => serve::traced(false, args.seed, &mut tracer),
        "serve_hot" => serve::traced(true, args.seed, &mut tracer),
        "sim_scale" => sim::traced(false, args.seed, &mut tracer),
        "sim_batch" => sim::traced(true, args.seed, &mut tracer),
        _ => check::traced(args.seed, &mut tracer),
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{workload}.json"));
    tracer
        .write_json(workload, &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "# workload {workload}: {} spans in {}",
        tracer.len(),
        path.display()
    );
    let found = found.unwrap_or_else(|why| {
        println!("# {workload}: FAILED: {why}");
        Vec::new()
    });
    for (name, _) in &found {
        assert!(
            PER_LAYER.iter().any(|(listed, _, _)| listed == name),
            "layer metric {name} is not listed"
        );
    }
    // A layer the workload never entered reads 0.
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = found.iter().find(|(n, _)| n == name).map_or(0.0, |f| f.1);
            (*name, *unit, value)
        })
        .collect();
    let correct = !found.is_empty() && found.iter().all(|(_, value)| value.is_finite());
    let ops = tracer.ops();
    print_result(&Outcome {
        correct,
        attempted: ops,
        failed: if correct { 0 } else { ops },
        metrics,
    });
    Ok(correct)
}

fn slice_child(args: &Args) -> Result<bool, String> {
    let workload = args.workloads[0];
    let expected = Expected::load(
        &args.expected,
        workload,
        args.seed == DEFAULT_SEED,
        args.write_expected,
    )?;
    let report = workload::run_slice(|| build(workload, args.seed), args.seconds, &expected);
    print!("{report}");
    Ok(true)
}

fn main() -> ExitCode {
    // The server and the executor read these; the benchmark pins both.
    // No other thread exists yet.
    std::env::remove_var("SWEEP_WORKERS");
    std::env::remove_var("COLLOPT_ENGINE");
    let result = parse_args().and_then(|args| {
        if let Some(slice) = args.slice {
            pin_to_one_cpu(slice)?;
            if args.trace {
                traced_child(&args)
            } else {
                slice_child(&args)
            }
        } else if args.selfcheck {
            selfcheck(&args)
        } else if args.trace {
            traced_run(&args)
        } else {
            measured_run(&args)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("collopt-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
