//! The request path: `serve_cold` (every key distinct, the optimizer does
//! the work) and `serve_hot` (a pre-filled working set, the cache and the
//! transport do the work), both closed loops over loopback TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use collopt_analysis::{lint_program, LintConfig};
use collopt_core::parser::parse_pipeline;
use collopt_core::report::optimize_result_json;
use collopt_core::rewrite::{program_cost, Rewriter};
use collopt_core::rules::enabling;
use collopt_core::term::Program;
use collopt_cost::MachineParams;
use collopt_machine::Json;
use collopt_serve::request::ok_response;
use collopt_serve::{
    cache_key, parse_request, submit, Cache, CacheStats, Op, OptimizeRequest,
    Request as ParsedRequest, Server, ServerConfig, Service, DEFAULT_CACHE_CAPACITY,
};

use crate::alloc;
use crate::clock::Clock;
use crate::gen::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Fact, Quietest, Tally, Verdict, Workload};

/// Requests in one `serve_cold` round and the cache they overflow: 300
/// distinct keys through 128 entries insert 300 times and evict 172.
const COLD_REQUESTS: usize = 300;
const COLD_CACHE: usize = 128;
/// `serve_hot`: 256 keys in the default 1024-entry cache, each asked twenty
/// times a round, in seeded order.
const HOT_KEYS: usize = 256;
const HOT_REPEATS: usize = 20;

/// The pipeline shapes are one fixed deck, not a draw per seed: over
/// i.i.d. shapes the mean cold request varied by ±5 % in allocations from
/// seed to seed, which would drown a 1 % bound; over the deck it varies by
/// 0.02 %. The seed draws each request's machine, the order of the list
/// and the hot draws.
const DECK_SEED: u64 = 0xDEC4;
const OPERATORS: [&str; 4] = ["add", "mul", "max", "min"];

fn deck(n: usize) -> Vec<String> {
    let mut rng = Rng::new(DECK_SEED);
    (0..n)
        .map(|i| {
            let depth = 3 + i % 4;
            let stages: Vec<String> = (0..depth)
                .map(|at| {
                    let op = OPERATORS[rng.range(0, 4) as usize];
                    match rng.range(0, 5) {
                        0 => format!("scan({op})"),
                        1 => format!("reduce({op})"),
                        2 => format!("allreduce({op})"),
                        3 => "bcast".to_string(),
                        _ => format!("map f{at}"),
                    }
                })
                .collect();
            stages.join(" ; ")
        })
        .collect()
}

/// One optimize request: the line as sent (newline included) and the
/// fields the oracle needs.
struct Request {
    line: String,
    pipeline: String,
    p: usize,
    ts: f64,
    m: f64,
}

/// `n` requests over the first `n` deck shapes, in seeded order. Every
/// `m` is distinct, so every cache key is.
fn requests(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut shapes = deck(n);
    rng.shuffle(&mut shapes);
    let mut used = std::collections::HashSet::new();
    shapes
        .into_iter()
        .enumerate()
        .map(|(id, pipeline)| {
            let p = rng.range(2, 1025) as usize;
            let ts = rng.range(10, 1000) as f64;
            let m = loop {
                let m = rng.range(1, 100_000);
                if used.insert(m) {
                    break m as f64;
                }
            };
            Request {
                line: format!(
                    "{{\"id\":{id},\"pipeline\":\"{pipeline}\",\"p\":{p},\"ts\":{ts},\"m\":{m}}}\n"
                ),
                pipeline,
                p,
                ts,
                m,
            }
        })
        .collect()
}

/// A server running in this process on an ephemeral loopback port.
struct Running {
    addr: SocketAddr,
    service: Arc<Service>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Running {
    fn start(cache_capacity: usize) -> Running {
        let service = Arc::new(Service::new(cache_capacity));
        let config = ServerConfig {
            workers: 2,
            batch_limit: 64,
        };
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind loopback");
        let addr = server.local_addr().expect("local address");
        Running {
            addr,
            service,
            thread: Some(std::thread::spawn(move || server.run())),
        }
    }

    fn stats(&self) -> CacheStats {
        self.service.cache_stats()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // Errors are ignored: a panic here would abort a failing run
        // before it reports why it failed.
        let _ = submit(self.addr, "{\"op\":\"shutdown\"}");
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What one client saw: `(position, seconds at reference clock speed)` per
/// answered op, the positions whose response was missing or differed from
/// the reference, and the responses themselves when there was no reference
/// yet.
struct ClientRun {
    latencies: Vec<(usize, f64)>,
    bad: Vec<usize>,
    responses: Vec<String>,
}

/// Send `order` (indices into `requests`) over one connection, each
/// request after the previous response. The calling thread's allocations
/// stay out of the counts.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    order: &[usize],
    reference: Option<&[String]>,
) -> ClientRun {
    alloc::exclude_this_thread(true);
    let mut run = ClientRun {
        latencies: Vec::with_capacity(order.len()),
        bad: Vec::new(),
        responses: Vec::new(),
    };
    let connection = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        Ok((BufReader::new(stream.try_clone()?), stream))
    });
    let mut clock = Clock::new();
    match connection {
        Err(_) => run.bad.extend(0..order.len()),
        Ok((mut reader, mut writer)) => {
            let mut response = String::new();
            for (at, &index) in order.iter().enumerate() {
                let sent = Instant::now();
                response.clear();
                let answered = writer
                    .write_all(requests[index].line.as_bytes())
                    .and_then(|()| reader.read_line(&mut response));
                let latency = sent.elapsed().as_secs_f64();
                clock.tick();
                let latency = (at, latency * clock.scale());
                let text = response.trim_end();
                match (answered, reference) {
                    (Ok(n), Some(reference)) if n > 0 && reference[index] == text => {
                        run.latencies.push(latency);
                    }
                    (Ok(n), None) if n > 0 => {
                        run.latencies.push(latency);
                        run.responses.push(text.to_string());
                    }
                    _ => {
                        run.bad.push(at);
                        if reference.is_none() {
                            run.responses.push(String::new());
                        }
                    }
                }
            }
        }
    }
    alloc::exclude_this_thread(false);
    run
}

/// Hold one reference response against the structure a client relies on
/// and against the brute-force enumerator; returns `(before, after)`.
fn check_response(request: &Request, id: usize, response: &str) -> Result<(f64, f64), String> {
    let head = format!("{{\"id\":{id},\"ok\":true,\"result\":");
    if !response.starts_with(&head) {
        let shown: String = response.chars().take(60).collect();
        return Err(format!("response does not begin with {head} but '{shown}'"));
    }
    let number_after = |marker: &str| -> Option<f64> {
        let rest = &response[response.find(marker)? + marker.len()..];
        rest[..rest.find([',', '}'])?].parse().ok()
    };
    let before = number_after("\"cost\":{\"before\":").ok_or("no cost.before")?;
    let after = number_after(",\"after\":").ok_or("no cost.after")?;
    if after > before {
        return Err(format!("cost.after {after} exceeds cost.before {before}"));
    }
    // The independent enumerator: every order of rule applications, no
    // e-graph. All deck pipelines have at most six stages.
    let program = parse_pipeline(&request.pipeline).map_err(|e| e.to_string())?;
    let params = MachineParams::new(request.p, request.ts, 2.0);
    let brute = Rewriter::cost_guided(params, request.m)
        .allow_rank0_rules(true)
        .optimize_brute_force(&program, &params, request.m);
    let optimal = program_cost(&brute.program, &params, request.m);
    if after != optimal {
        return Err(format!(
            "cost.after {after} is not the brute-force optimum {optimal}"
        ));
    }
    Ok((before, after))
}

/// Check every reference response: the costs of the sound ones become
/// facts, the others come back as `(request, why)` to be rejected.
fn verify_references(
    requests: &[Request],
    reference: &[String],
) -> (Vec<Fact>, Vec<(usize, String)>) {
    let (mut facts, mut unsound) = (Vec::new(), Vec::new());
    for (id, (request, response)) in requests.iter().zip(reference).enumerate() {
        match check_response(request, id, response) {
            Ok((before, after)) => facts.push(Fact {
                subject: id,
                key: format!("request {id:03}"),
                value: format!("before={before:?} after={after:?}"),
            }),
            Err(why) => unsound.push((id, why)),
        }
    }
    (facts, unsound)
}

pub struct ServeCold {
    requests: Vec<Request>,
    order: Vec<usize>,
    reference: Vec<String>,
    tally: Tally,
    errors: Vec<String>,
}

impl ServeCold {
    pub fn new(seed: u64) -> ServeCold {
        ServeCold {
            requests: requests(COLD_REQUESTS, seed),
            order: (0..COLD_REQUESTS).collect(),
            reference: Vec::new(),
            tally: Tally::new(COLD_REQUESTS),
            errors: Vec::new(),
        }
    }
}

impl Workload for ServeCold {
    fn ops(&self) -> usize {
        COLD_REQUESTS
    }

    fn segment_ops(&self) -> usize {
        // A cold request takes ≈ 1 ms.
        5
    }

    fn round(&mut self, quietest: &mut Quietest) {
        let first = self.tally.begin_round();
        let server = Running::start(COLD_CACHE);
        let reference = (!first).then_some(self.reference.as_slice());
        let run = closed_loop(server.addr, &self.requests, &self.order, reference);
        let stats = server.stats();
        drop(server);
        if first {
            self.reference = run.responses;
        }
        for at in run.bad {
            self.tally.mismatch(at);
        }
        let evictions = (COLD_REQUESTS - COLD_CACHE) as u64;
        if (stats.hits, stats.misses, stats.evictions) != (0, COLD_REQUESTS as u64, evictions)
            && self.errors.is_empty()
        {
            self.errors.push(format!(
                "cold round saw {} hits, {} misses, {} evictions; want 0, {COLD_REQUESTS}, {evictions}",
                stats.hits, stats.misses, stats.evictions
            ));
        }
        for (at, seconds) in run.latencies {
            quietest.record(at, seconds);
        }
        quietest.end_replay();
    }

    fn verify(&mut self) -> Verdict {
        let (facts, unsound) = verify_references(&self.requests, &self.reference);
        for (request, why) in unsound {
            self.reject(request, why);
        }
        Verdict {
            facts,
            errors: std::mem::take(&mut self.errors),
        }
    }

    fn facts_depend_on_seed(&self) -> bool {
        true
    }

    fn reject(&mut self, request: usize, why: String) {
        self.tally.reject(request, why);
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }
}

pub struct ServeHot {
    requests: Vec<Request>,
    /// The op list: indices into `requests`.
    order: Vec<usize>,
    /// The cold responses of set-up: hot bytes must equal them.
    reference: Vec<String>,
    server: Running,
    tally: Tally,
}

/// Every key `HOT_REPEATS` times, shuffled.
fn hot_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..HOT_KEYS * HOT_REPEATS).map(|i| i % HOT_KEYS).collect();
    Rng::new(seed ^ 0x0D2A_55EE_D0F5).shuffle(&mut order);
    order
}

impl ServeHot {
    pub fn new(seed: u64) -> ServeHot {
        let requests = requests(HOT_KEYS, seed);
        let server = Running::start(DEFAULT_CACHE_CAPACITY);
        let all: Vec<usize> = (0..HOT_KEYS).collect();
        let fill = closed_loop(server.addr, &requests, &all, None);
        ServeHot {
            requests,
            order: hot_order(seed),
            reference: fill.responses,
            server,
            tally: Tally::new(HOT_KEYS * HOT_REPEATS),
        }
    }
}

impl Workload for ServeHot {
    fn ops(&self) -> usize {
        HOT_KEYS * HOT_REPEATS
    }

    fn segment_ops(&self) -> usize {
        // A hot request takes ≈ 13 us.
        320
    }

    fn round(&mut self, quietest: &mut Quietest) {
        self.tally.begin_round();
        let run = closed_loop(
            self.server.addr,
            &self.requests,
            &self.order,
            Some(&self.reference),
        );
        for at in run.bad {
            self.tally.mismatch(at);
        }
        for (at, seconds) in run.latencies {
            quietest.record(at, seconds);
        }
        quietest.end_replay();
    }

    fn verify(&mut self) -> Verdict {
        let (facts, unsound) = verify_references(&self.requests, &self.reference);
        for (key, why) in unsound {
            self.reject(key, why);
        }
        let stats = self.server.stats();
        let mut errors = Vec::new();
        if stats.hit_rate() < 0.99 || stats.evictions != 0 {
            errors.push(format!(
                "hot run: hit rate {} (want >= 0.99), {} evictions (want 0)",
                stats.hit_rate(),
                stats.evictions
            ));
        }
        Verdict { facts, errors }
    }

    fn facts_depend_on_seed(&self) -> bool {
        true
    }

    /// A key whose cold response is wrong fails every op that asked it.
    fn reject(&mut self, key: usize, why: String) {
        for (op, _) in self.order.iter().enumerate().filter(|(_, &k)| k == key) {
            self.tally.reject(op, format!("key {key}: {why}"));
        }
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }
}

/// The e-graph's own effort counters, summed over the saturations of a
/// traced round.
#[derive(Default)]
struct Effort {
    saturations: u64,
    nodes: u64,
    classes: u64,
    rule_applications: u64,
    replay_states: u64,
    budget_exhausted: u64,
    diagnostics: u64,
}

/// `Service::handle_line` for an optimize request, rebuilt from the public
/// functions it calls so that each layer gets a span of its own. Returns
/// the response, which must equal the real function's.
fn handle_line_in_spans(t: &mut Tracer, cache: &Cache, line: &str, effort: &mut Effort) -> String {
    let parsed = t.span("serve.request.parse", |_| parse_request(line));
    let Ok(ParsedRequest {
        id,
        op: Op::Optimize(request),
    }) = parsed
    else {
        panic!("the benchmark sends optimize requests only");
    };
    let key = t
        .span("serve.service.cache_key", |_| cache_key(&request))
        .expect("deck pipelines parse");
    // `cache_key` parses and normalizes inside and returns the key only,
    // so both run once more here, under spans of their own, to get the
    // canonical program. Their time is subtracted from `cache_key`'s.
    let program = t
        .span("core.parser.parse", |_| parse_pipeline(&request.pipeline))
        .expect("deck pipelines parse");
    let (canonical, _) = t.span("core.enabling.normalize", |_| enabling::normalize(&program));
    let body = t.span("serve.cache.get_or_insert_with", |t| {
        cache.get_or_insert_with(&key, || {
            render_body_in_spans(t, &canonical, &request, effort)
        })
    });
    t.span("serve.request.ok_response", |_| ok_response(&id, &body))
}

/// The cold path of `serve::service` (private there) from its public parts.
fn render_body_in_spans(
    t: &mut Tracer,
    canonical: &Program,
    request: &OptimizeRequest,
    effort: &mut Effort,
) -> String {
    let params = MachineParams::new(request.p, request.ts, request.tw);
    let outcome = t.span("core.egraph.saturate", |_| {
        Rewriter::cost_guided(params, request.m)
            .allow_rank0_rules(!request.all_ranks)
            .saturate(canonical, &params, request.m)
    });
    effort.saturations += 1;
    effort.nodes += outcome.stats.nodes as u64;
    effort.classes += outcome.stats.classes as u64;
    effort.rule_applications += outcome.stats.rule_applications as u64;
    effort.replay_states += outcome.stats.replay_states as u64;
    effort.budget_exhausted += u64::from(outcome.stats.budget_exhausted);
    let mut document = t.span("core.report.result_json", |_| {
        optimize_result_json(canonical, &outcome.result, &params, request.m)
    });
    let config = LintConfig {
        params,
        block: request.m,
        ..LintConfig::default()
    };
    let report = t.span("analysis.lint.lint_program", |_| {
        lint_program(canonical, None, &config)
    });
    effort.diagnostics += report.diagnostics.len() as u64;
    let lint_text = t.span("analysis.lint.render_json", |_| report.render_json());
    let lint = t
        .span("machine.json.parse", |_| Json::parse(&lint_text))
        .expect("lint JSON parses");
    let Json::Obj(fields) = &mut document else {
        panic!("optimize_result_json returns an object");
    };
    fields.push(("lint".into(), lint));
    fields.push(("simulation".into(), Json::Null));
    t.span("machine.json.render", |_| document.render())
}

/// The traced run of a serve workload: one round in process on this
/// thread under spans, the same round untraced for the overhead, and one
/// round over TCP for the transport's share.
pub fn traced(hot: bool, seed: u64, t: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
    let (requests, order, capacity) = if hot {
        (
            requests(HOT_KEYS, seed),
            hot_order(seed),
            DEFAULT_CACHE_CAPACITY,
        )
    } else {
        (
            requests(COLD_REQUESTS, seed),
            (0..COLD_REQUESTS).collect(),
            COLD_CACHE,
        )
    };
    let line = |index: usize| requests[index].line.trim_end();
    let prefilled = || {
        let service = Service::new(capacity);
        if hot {
            for index in 0..requests.len() {
                service.handle_line(line(index));
            }
        }
        service
    };

    // Untraced, for the overhead and the in-process latency; the first
    // pass only faults pages in and fills lazily built tables. Latencies
    // are at reference clock speed, as in the measured run.
    let mut plain = Vec::with_capacity(order.len());
    let mut plain_total_us = 0.0;
    let mut clock = Clock::new();
    for pass in 0..2 {
        let service = prefilled();
        for &index in &order[..if pass == 0 {
            order.len().min(300)
        } else {
            order.len()
        }] {
            let started = Instant::now();
            std::hint::black_box(service.handle_line(line(index)));
            let seconds = started.elapsed().as_secs_f64();
            clock.tick();
            if pass == 1 {
                plain.push(seconds * clock.scale());
                plain_total_us += seconds * 1e6;
            }
        }
    }

    // Traced: the real function whole, then its parts.
    let service = prefilled();
    let parts_cache = Cache::new(capacity);
    let mut effort = Effort::default();
    if hot {
        let mut unrecorded = Tracer::new(requests.len() * 16);
        for index in 0..requests.len() {
            handle_line_in_spans(
                &mut unrecorded,
                &parts_cache,
                line(index),
                &mut Effort::default(),
            );
        }
    }
    let mut response_bytes = 0;
    alloc::set_enabled(true);
    for &index in &order {
        t.next_op();
        let whole = t.span("serve.service.handle_line", |_| {
            service.handle_line(line(index))
        });
        let parts = handle_line_in_spans(t, &parts_cache, line(index), &mut effort);
        if whole.text != parts {
            alloc::set_enabled(false);
            return Err(format!(
                "request {index}: the parts render different bytes than Service::handle_line"
            ));
        }
        response_bytes += whole.text.len();
    }
    alloc::set_enabled(false);
    let stats = service.cache_stats();

    // Over TCP, untraced, as the measured run does it.
    let mut workload: Box<dyn Workload> = if hot {
        Box::new(ServeHot::new(seed))
    } else {
        Box::new(ServeCold::new(seed))
    };
    let mut tcp = Quietest::new(workload.ops(), workload.segment_ops());
    workload.round(&mut tcp);
    tcp = Quietest::new(workload.ops(), workload.segment_ops());
    workload.round(&mut tcp);
    drop(workload);

    let ops = order.len() as f64;
    let whole_us = t.total_us("serve.service.handle_line");
    let parts_us = t.total_us("serve.request.parse")
        + t.total_us("serve.service.cache_key")
        + t.total_us("serve.cache.get_or_insert_with")
        + t.total_us("serve.request.ok_response");
    let saturations = effort.saturations.max(1) as f64;
    Ok(vec![
        ("serve.request.parse_us", t.median_us("serve.request.parse")),
        (
            "serve.request.ok_response_us",
            t.median_us("serve.request.ok_response"),
        ),
        ("core.parser.parse_us", t.median_us("core.parser.parse")),
        (
            "core.enabling.normalize_us",
            t.median_us("core.enabling.normalize"),
        ),
        (
            "serve.service.key_render_us",
            t.median_us("serve.service.cache_key")
                - t.median_us("core.parser.parse")
                - t.median_us("core.enabling.normalize"),
        ),
        (
            "serve.cache.lookup_us",
            t.median_self_us("serve.cache.get_or_insert_with", false),
        ),
        (
            "serve.cache.insert_evict_us",
            t.median_self_us("serve.cache.get_or_insert_with", true),
        ),
        // Of the traced round's ops; the pre-fill is not one of them.
        ("serve.cache.hit_rate", stats.hits as f64 / ops),
        ("serve.cache.evictions_per_op", stats.evictions as f64 / ops),
        (
            "core.egraph.saturate_us",
            t.median_us("core.egraph.saturate"),
        ),
        (
            "core.egraph.saturate_allocs",
            t.mean_allocs("core.egraph.saturate"),
        ),
        (
            "core.egraph.nodes_per_op",
            effort.nodes as f64 / saturations,
        ),
        (
            "core.egraph.classes_per_op",
            effort.classes as f64 / saturations,
        ),
        (
            "core.egraph.rule_applications_per_op",
            effort.rule_applications as f64 / saturations,
        ),
        (
            "core.egraph.replay_states_per_op",
            effort.replay_states as f64 / saturations,
        ),
        (
            "core.egraph.budget_exhausted_share",
            effort.budget_exhausted as f64 / saturations,
        ),
        (
            "core.report.result_json_us",
            t.median_us("core.report.result_json"),
        ),
        (
            "core.report.result_json_allocs",
            t.mean_allocs("core.report.result_json"),
        ),
        (
            "analysis.lint.lint_program_us",
            t.median_us("analysis.lint.lint_program"),
        ),
        (
            "analysis.lint.lint_program_allocs",
            t.mean_allocs("analysis.lint.lint_program"),
        ),
        (
            "analysis.lint.render_json_us",
            t.median_us("analysis.lint.render_json"),
        ),
        (
            "analysis.lint.diagnostics_per_op",
            effort.diagnostics as f64 / saturations,
        ),
        ("machine.json.parse_us", t.median_us("machine.json.parse")),
        ("machine.json.render_us", t.median_us("machine.json.render")),
        (
            "machine.json.allocs",
            t.mean_allocs("machine.json.parse") + t.mean_allocs("machine.json.render"),
        ),
        (
            "serve.service.handle_line_us",
            t.median_us("serve.service.handle_line"),
        ),
        (
            "serve.service.handle_line_allocs",
            t.mean_allocs("serve.service.handle_line"),
        ),
        (
            "serve.service.unattributed_share",
            1.0 - parts_us / whole_us,
        ),
        (
            "serve.server.transport_us",
            (median(&tcp.latencies()) - median(&plain)) * 1e6,
        ),
        (
            "serve.server.response_bytes_per_op",
            response_bytes as f64 / ops,
        ),
        ("trace.overhead_share", whole_us / plain_total_us - 1.0),
    ])
}
