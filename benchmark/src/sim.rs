//! The simulation path: programs in, makespans out, through `core::exec`
//! on the discrete-event engine. `sim_scale` runs large machines (the
//! per-event cost of `machine::des`), `sim_batch` many tiny ones (its
//! per-run cost and the dispatch of `core::exec`).

use std::sync::Arc;
use std::time::Instant;

use collopt_collectives::{allreduce_async, Combine};
use collopt_core::exec::{execute_traced_with, execute_with, ExecConfig, ExecOutcome};
use collopt_core::op::lib;
use collopt_core::parser::parse_pipeline;
use collopt_core::semantics::eval_program;
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_machine::{chrome_trace, ClockParams, ExecEngine, Machine};

use crate::alloc;
use crate::clock::Clock;
use crate::gen::Rng;
use crate::trace::Tracer;
use crate::workload::{Fact, Quietest, Tally, Verdict, Workload};

/// 10³, not 10⁴: at 10⁴ the simulation's 56 MB live in the shared L3, and
/// its time followed the neighbours' traffic over minutes (README).
const SCALE_P: usize = 1000;
/// Runs of each program per `sim_scale` round: 3 × 20 ops.
const SCALE_REPEATS: usize = 20;
const SCALE_PIPELINES: [&str; 3] = ["allreduce(add)", "reduce(add) ; bcast", "scan(add)"];

const BATCH_PS: [usize; 2] = [8, 13];
const BATCH_PIPELINES: [&str; 5] = [
    "map f ; scan(mul) ; reduce(add) ; map g ; bcast",
    "scan(add) ; reduce(add)",
    "bcast ; scan(add) ; scan(add) ; reduce(max)",
    "allreduce(add) ; bcast",
    "scan(max) ; reduce(min)",
];
/// Runs of each (pipeline, p) pair per `sim_batch` round: 10 × 1200 ops.
const BATCH_REPEATS: usize = 1200;

const TS: f64 = 200.0;
const TW: f64 = 2.0;

fn des() -> ExecConfig {
    ExecConfig {
        engine: Some(ExecEngine::Des),
        ..ExecConfig::default()
    }
}

/// One program on one machine size with its seeded inputs (`m = 1`).
struct Case {
    label: String,
    program: Program,
    inputs: Vec<Value>,
    /// What the first run returned; every later run must return the same.
    reference: Option<ExecOutcome>,
}

impl Case {
    fn new(pipeline: &str, p: usize, rng: &mut Rng) -> Case {
        Case {
            label: format!("{pipeline} @ p={p}"),
            program: parse_pipeline(pipeline).expect("benchmark pipelines parse"),
            // 1..=5 keeps `scan(mul)` over 13 ranks far inside an i64.
            inputs: (0..p)
                .map(|_| Value::int_list([rng.range(1, 6) as i64]))
                .collect(),
            reference: None,
        }
    }

    fn run(&self) -> ExecOutcome {
        execute_with(&self.program, &self.inputs, ClockParams::new(TS, TW), des())
    }
}

fn same(a: &ExecOutcome, b: &ExecOutcome) -> bool {
    a.makespan.to_bits() == b.makespan.to_bits()
        && a.total_messages == b.total_messages
        && a.outputs == b.outputs
}

pub struct Sim {
    cases: Vec<Case>,
    /// The op list: indices into `cases`, each case equally often.
    order: Vec<usize>,
    segment_ops: usize,
    tally: Tally,
}

impl Sim {
    pub fn scale(seed: u64) -> Sim {
        let mut rng = Rng::new(seed);
        let cases: Vec<Case> = SCALE_PIPELINES
            .iter()
            .map(|pipeline| Case::new(pipeline, SCALE_P, &mut rng))
            .collect();
        // An op takes 2-6 ms.
        Sim::over(cases, SCALE_REPEATS, 1, &mut rng)
    }

    pub fn batch(seed: u64) -> Sim {
        let mut rng = Rng::new(seed);
        let cases: Vec<Case> = BATCH_PIPELINES
            .iter()
            .flat_map(|pipeline| BATCH_PS.map(|p| (pipeline, p)))
            .map(|(pipeline, p)| Case::new(pipeline, p, &mut rng))
            .collect();
        // An op takes 20-40 us.
        Sim::over(cases, BATCH_REPEATS, 200, &mut rng)
    }

    fn over(cases: Vec<Case>, repeats: usize, segment_ops: usize, rng: &mut Rng) -> Sim {
        let mut order: Vec<usize> = (0..cases.len() * repeats)
            .map(|i| i % cases.len())
            .collect();
        rng.shuffle(&mut order);
        Sim {
            tally: Tally::new(order.len()),
            cases,
            order,
            segment_ops,
        }
    }
}

impl Workload for Sim {
    fn ops(&self) -> usize {
        self.order.len()
    }

    fn segment_ops(&self) -> usize {
        self.segment_ops
    }

    fn round(&mut self, quietest: &mut Quietest) {
        self.tally.begin_round();
        let mut clock = Clock::new();
        for (op, &index) in self.order.iter().enumerate() {
            let sent = Instant::now();
            let outcome = self.cases[index].run();
            let seconds = sent.elapsed().as_secs_f64();
            clock.tick();
            // Comparing allocates nothing, so the counted round counts
            // the program alone.
            let case = &mut self.cases[index];
            match &case.reference {
                Some(reference) if !same(reference, &outcome) => self.tally.mismatch(op),
                Some(_) => quietest.record(op, seconds * clock.scale()),
                None => {
                    case.reference = Some(outcome);
                    quietest.record(op, seconds * clock.scale());
                }
            }
        }
        quietest.end_replay();
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let mut wrong = Vec::new();
        for (index, case) in self.cases.iter().enumerate() {
            let reference = case.reference.as_ref().expect("a round ran every case");
            // The sequential reference evaluator knows nothing of ranks,
            // messages or the event queue.
            if reference.outputs != eval_program(&case.program, &case.inputs) {
                wrong.push(index);
            }
            verdict.facts.push(Fact {
                subject: index,
                key: case.label.clone(),
                value: format!(
                    "makespan_bits={:#018x} messages={}",
                    reference.makespan.to_bits(),
                    reference.total_messages
                ),
            });
        }
        for index in wrong {
            self.reject(index, "outputs differ from semantics::eval_program".into());
        }
        verdict
    }

    fn facts_depend_on_seed(&self) -> bool {
        // Makespan and message count depend on the program and the machine,
        // never on the values sent.
        false
    }

    fn reject(&mut self, case: usize, why: String) {
        for (op, _) in self.order.iter().enumerate().filter(|(_, &c)| c == case) {
            self.tally
                .reject(op, format!("{}: {why}", self.cases[case].label));
        }
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }
}

/// `allreduce(add)` lowered by hand, without `core::exec`: what the engine
/// costs when nothing dispatches stages around it.
fn bare_allreduce(p: usize, inputs: &Arc<Vec<Value>>) -> f64 {
    let machine = Machine::new(p, ClockParams::new(TS, TW));
    let add = lib::add();
    let run = machine.run_des(|ctx| {
        let inputs = Arc::clone(inputs);
        let add = add.clone();
        Box::pin(async move {
            let value = inputs[ctx.rank()].clone();
            let words = value.words().max(1);
            let ops_per_word = add.ops_per_word();
            let apply = move |a: &Value, b: &Value| add.apply(a, b);
            let combine = Combine::with_cost(&apply, ops_per_word).assume_commutative();
            allreduce_async(ctx, value, words, &combine).await
        })
    });
    run.makespan
}

/// The traced run of a simulation workload.
pub fn traced(batch: bool, seed: u64, t: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
    let mut workload = if batch {
        Sim::batch(seed)
    } else {
        Sim::scale(seed)
    };
    // Untraced: a round that sets the references, then the op list once
    // more for the overhead.
    workload.round(&mut Quietest::new(workload.ops(), workload.segment_ops()));
    let started = Instant::now();
    for &case in &workload.order {
        std::hint::black_box(workload.cases[case].run());
    }
    let plain_us = started.elapsed().as_secs_f64() * 1e6;

    let (mut messages, mut makespans) = (0_u64, 0.0_f64);
    alloc::set_enabled(true);
    for &case in &workload.order {
        t.next_op();
        let case = &workload.cases[case];
        let outcome = t.span("core.exec.execute", |_| case.run());
        let agrees = same(case.reference.as_ref().expect("set above"), &outcome);
        messages += outcome.total_messages;
        makespans += outcome.makespan;
        if !agrees {
            alloc::set_enabled(false);
            return Err(format!("{}: the traced run's outcome differs", case.label));
        }
    }

    // The engine without `core::exec`, and without any work at all, at the
    // machine size of this workload's first case.
    let p = workload.cases[0].inputs.len();
    let inputs = Arc::new(workload.cases[0].inputs.clone());
    let allreduce = parse_pipeline("allreduce(add)").expect("parses");
    let repeats = if batch { 200 } else { 3 };
    for _ in 0..repeats {
        t.next_op();
        let whole = t.span("core.exec.execute_allreduce", |_| {
            execute_with(&allreduce, &inputs, ClockParams::new(TS, TW), des()).makespan
        });
        let bare = t.span("machine.des.bare_run", |_| bare_allreduce(p, &inputs));
        if whole.to_bits() != bare.to_bits() {
            alloc::set_enabled(false);
            return Err("the hand-lowered allreduce has another makespan".into());
        }
        t.span("machine.des.empty_run", |_| {
            Machine::new(p, ClockParams::new(TS, TW)).run_des(|_| Box::pin(async {}))
        });
    }
    alloc::set_enabled(false);

    // The `--profile` path: event tracing, critical path, Chrome export.
    // Small machines only; it is what `collopt --profile` is used on.
    let mut profiled_us = 0.0;
    let mut unprofiled_us = 0.0;
    if batch {
        let profiled = ExecConfig {
            profile: true,
            ..des()
        };
        for case in &workload.cases {
            // Each kind of run in a loop of its own: interleaved, the plain
            // run would start on the caches the Chrome export left behind.
            for _ in 0..50 {
                let started = Instant::now();
                std::hint::black_box(case.run());
                unprofiled_us += started.elapsed().as_secs_f64() * 1e6;
            }
            for _ in 0..50 {
                t.next_op();
                let run = t.span("machine.trace.execute_traced", |_| {
                    execute_traced_with(
                        &case.program,
                        &case.inputs,
                        ClockParams::new(TS, TW),
                        profiled,
                    )
                });
                let path = t.span("machine.profile.critical_path", |_| run.critical_path());
                match path {
                    Ok(path) if path.length() == run.makespan => {}
                    _ => return Err(format!("{}: critical path is not the makespan", case.label)),
                }
                t.span("machine.chrome.export", |_| {
                    chrome_trace(&[(case.label.as_str(), &run.trace)])
                });
            }
        }
        profiled_us = t.total_us("machine.trace.execute_traced");
    }

    let ops = workload.ops() as f64;
    let execute_us = t.total_us("core.exec.execute");
    let execute_allocs = t.mean_allocs("core.exec.execute");
    let whole = t.median_us("core.exec.execute_allreduce");
    Ok(vec![
        ("core.exec.execute_us", t.median_us("core.exec.execute")),
        ("core.exec.allocs_per_run", execute_allocs),
        (
            "core.exec.overhead_share",
            1.0 - t.median_us("machine.des.bare_run") / whole,
        ),
        (
            "machine.des.bare_run_us",
            t.median_us("machine.des.bare_run"),
        ),
        (
            "machine.des.empty_run_us",
            t.median_us("machine.des.empty_run"),
        ),
        ("machine.des.ns_per_msg", execute_us * 1e3 / messages as f64),
        (
            "machine.des.msgs_per_s",
            messages as f64 / (execute_us / 1e6),
        ),
        (
            "machine.des.allocs_per_msg",
            execute_allocs * ops / messages as f64,
        ),
        (
            "machine.trace.traced_overhead_share",
            if batch {
                profiled_us / unprofiled_us - 1.0
            } else {
                0.0
            },
        ),
        (
            "machine.profile.critical_path_us",
            t.median_us("machine.profile.critical_path"),
        ),
        (
            "machine.chrome.export_us",
            t.median_us("machine.chrome.export"),
        ),
        ("machine.sim.messages_per_op", messages as f64 / ops),
        ("machine.sim.makespan_sum", makespans),
        ("trace.overhead_share", execute_us / plain_us - 1.0),
    ])
}
