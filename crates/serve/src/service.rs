//! Request processing: canonicalize, consult the cache, optimize,
//! render.
//!
//! [`Service::handle_line`] is a *pure function of the request line*
//! (stats aside): the same line always produces the same response
//! bytes, regardless of which connection sent it, worker count, or
//! cache state. That invariant is what makes both caching and
//! concurrent connections safe; `tests/replay_invariance.rs` and the
//! integration tests hold it.
//!
//! ## Cache key derivation
//!
//! The pipeline is parsed and then *canonicalized* through
//! [`enabling::normalize`] — the same replayable enabling-transformation
//! fixpoint the rewriter itself applies (map fusion, bcast/map
//! commutation, gather;scatter elimination). Specs that differ only in
//! whitespace or spelling parse to the same term; specs that differ by
//! normalization order reach the same fixpoint; both land on the same
//! key. The key appends every field that changes the response —
//! machine parameters (floats by IEEE bit pattern, so `2` and `2.0`
//! and `-0.0`-vs-`0.0` cannot alias) and the option flags. The request
//! `id` is deliberately *not* part of the key: it is spliced around
//! the cached body at reply time.
//!
//! The response body is computed from the canonical program only — the
//! raw source never appears in it — so every spec in an equivalence
//! class shares one cache entry *and* one byte-exact body.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use collopt_analysis::audit::{domain_of_builtin, Domain};
use collopt_analysis::lint::{lint_plan, lint_program, lint_with_plan, LintConfig, LintReport};
use collopt_core::exec::execute;
use collopt_core::parser::parse_pipeline;
use collopt_core::report::write_optimize_result;
use collopt_core::rewrite::{OptimizeResult, Rewriter};
use collopt_core::rules::enabling;
use collopt_core::term::{Program, Stage};
use collopt_core::value::Value;
use collopt_cost::MachineParams;
use collopt_machine::{write_json_num, ClockParams};

use crate::cache::{Cache, CacheStats};
use crate::request::{
    error_response, ok_response, parse_request, ErrorCode, Op, OptimizeRequest, Request,
    RequestError,
};

/// Default LRU bound: ~1k distinct (pipeline, machine, options) points.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// One response line plus the shutdown signal for the server loop.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The rendered response (no trailing newline).
    pub text: String,
    /// True when the request was a `shutdown` op.
    pub shutdown: bool,
}

/// The optimization service: cache + counters. Shared across the
/// server's connection threads behind an [`Arc`]; all methods take
/// `&self`.
pub struct Service {
    cache: Cache,
    requests: AtomicU64,
}

/// Canonicalize a pipeline spec: parse it and run the enabling
/// normalization to its fixpoint. Returns the canonical program and its
/// rendering (the cache-key prefix). The rendering may not re-parse —
/// fused map labels contain `;` — which is why everything downstream
/// works on the [`Program`], never on its string.
pub fn canonicalize(pipeline: &str) -> Result<(Program, String), String> {
    let prog = parse_pipeline(pipeline).map_err(|e| e.render(pipeline))?;
    let (canonical, _log) = enabling::normalize(&prog);
    let rendered = canonical.to_string();
    Ok((canonical, rendered))
}

/// The full cache key for an optimize request. Public so the
/// key-equality tests can pin the canonicalization guarantees.
pub fn cache_key(req: &OptimizeRequest) -> Result<String, String> {
    let (_, rendered) = canonicalize(&req.pipeline)?;
    Ok(key_for(&rendered, req))
}

fn key_for(canonical: &str, req: &OptimizeRequest) -> String {
    // Sized for the longest suffix (an 8-digit `p`, `false` flags), so a
    // key costs one allocation however long its pipeline.
    let mut key = String::with_capacity(canonical.len() + 103);
    write!(
        key,
        "{canonical}|p={}|ts={:016x}|tw={:016x}|m={:016x}|ranks={}|lint={}|sim={}",
        req.p,
        req.ts.to_bits(),
        req.tw.to_bits(),
        req.m.to_bits(),
        req.all_ranks,
        req.lint,
        req.simulate,
    )
    .expect("writing to a String cannot fail");
    key
}

/// Deterministic synthetic input for simulation: `m` words per rank,
/// small positive ints (floats coerce from ints; a pipeline whose
/// operators cannot take them is refused by [`simulation_refusal`]).
/// Mirrors the `collopt --profile` input generator.
fn synthetic_inputs(p: usize, m: f64) -> Vec<Value> {
    let words = m.clamp(1.0, 1e6) as usize;
    (0..p)
        .map(|r| Value::int_list((0..words).map(|j| ((r * 7 + j) % 5 + 1) as i64)))
        .collect()
}

/// Why `req` cannot be simulated on the [`synthetic_inputs`], if it asks
/// to be and its pipeline parses. The inputs are integers; an integer
/// operator takes only integers, a float one integers or floats (and
/// makes floats), a boolean one only booleans — so a boolean operator, or
/// an integer one after a float one, would panic the simulation.
/// Normalizing and rewriting combine the same values with the same
/// operators, so checking the parsed pipeline covers the programs that
/// are simulated.
fn simulation_refusal(req: &OptimizeRequest) -> Option<String> {
    if !req.simulate {
        return None;
    }
    let program = parse_pipeline(&req.pipeline).ok()?;
    let mut floats: Option<&str> = None;
    for stage in program.stages() {
        let (Stage::Scan(op) | Stage::Reduce(op) | Stage::AllReduce(op)) = stage else {
            continue;
        };
        match domain_of_builtin(op.name()) {
            Some(Domain::Bool) => {
                return Some(format!(
                    "simulate: `{}` combines booleans, and the simulated inputs are integers",
                    op.name()
                ))
            }
            Some(Domain::Float) => floats = floats.or(Some(op.name())),
            _ => {
                if let Some(float_op) = floats {
                    return Some(format!(
                        "simulate: `{}` combines integers, and `{float_op}` before it makes floats",
                        op.name()
                    ));
                }
            }
        }
    }
    None
}

impl Service {
    /// A service with the given cache capacity.
    pub fn new(cache_capacity: usize) -> Service {
        Service {
            cache: Cache::new(cache_capacity),
            requests: AtomicU64::new(0),
        }
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Total request lines handled (including errors and control ops).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Handle one request line and render the response. Never panics on
    /// malformed input — bad lines become error responses.
    pub fn handle_line(&self, line: &str) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                return Reply {
                    text: error_response(&e),
                    shutdown: false,
                }
            }
        };
        let Request { id, op } = req;
        match op {
            Op::Ping => Reply {
                text: ok_response(&id, "{\"pong\":true}"),
                shutdown: false,
            },
            Op::Stats => Reply {
                text: ok_response(&id, &self.stats_body()),
                shutdown: false,
            },
            Op::Shutdown => Reply {
                text: ok_response(&id, "{\"bye\":true}"),
                shutdown: true,
            },
            Op::Optimize(opt) => {
                if let Some(message) = simulation_refusal(&opt) {
                    return Reply {
                        text: error_response(&RequestError {
                            id,
                            code: ErrorCode::BadRequest,
                            message,
                        }),
                        shutdown: false,
                    };
                }
                match self.optimize_body(&opt) {
                    Ok(body) => Reply {
                        text: ok_response(&id, &body),
                        shutdown: false,
                    },
                    Err(message) => Reply {
                        text: error_response(&RequestError {
                            id,
                            code: ErrorCode::ParseError,
                            message,
                        }),
                        shutdown: false,
                    },
                }
            }
        }
    }

    /// The `result` body for an optimize request, from the cache when
    /// possible. `Err` carries the pipeline parse diagnostic.
    pub fn optimize_body(&self, req: &OptimizeRequest) -> Result<Arc<String>, String> {
        let (canonical, rendered) = canonicalize(&req.pipeline)?;
        let key = key_for(&rendered, req);
        Ok(self.cache.get_or_insert_with(&key, || {
            write_body(&canonical, req, &solve(&canonical, req))
        }))
    }

    fn stats_body(&self) -> String {
        let s = self.cache.stats();
        let mut out = String::with_capacity(192);
        out.push_str("{\"requests\":");
        write_json_num(&mut out, self.requests() as f64);
        out.push_str(",\"cache\":{\"hits\":");
        write_json_num(&mut out, s.hits as f64);
        out.push_str(",\"misses\":");
        write_json_num(&mut out, s.misses as f64);
        out.push_str(",\"evictions\":");
        write_json_num(&mut out, s.evictions as f64);
        out.push_str(",\"entries\":");
        write_json_num(&mut out, s.entries as f64);
        out.push_str(",\"capacity\":");
        write_json_num(&mut out, s.capacity as f64);
        out.push_str(",\"hit_rate\":");
        write_json_num(&mut out, s.hit_rate());
        out.push_str("}}");
        out
    }
}

/// What the cold path computes for an optimize request, before a byte
/// of its body is written.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The served plan.
    pub result: OptimizeResult,
    /// The linter's report, when the request asks for it.
    pub lint: Option<LintReport>,
    /// The original and the optimized pipeline's simulated makespans,
    /// when the request asks for them.
    pub simulation: Option<(f64, f64)>,
}

/// The cold path's work: saturate once, lint against that plan,
/// simulate. Pure — run at most once per cache key (modulo benign
/// same-key races).
pub fn solve(canonical: &Program, req: &OptimizeRequest) -> Solution {
    let params = MachineParams::new(req.p, req.ts, req.tw);
    let lint_cfg = LintConfig {
        params,
        block: req.m,
        ..LintConfig::default()
    };
    // The linter's plan is the served plan unless `all_ranks`: the same
    // saturation, behind a law gate that refuses nothing the parser can
    // name (`analysis/tests/table_audit.rs`). With `all_ranks` the served
    // plan lacks the rank-0 rules whose COL001/COL012 findings the linter
    // still owes, so the linter saturates on its own.
    let (result, lint) = if req.lint && !req.all_ranks {
        let outcome = lint_plan(canonical, &lint_cfg);
        let lint = lint_with_plan(canonical, None, &lint_cfg, &outcome);
        (outcome.result, Some(lint))
    } else {
        let rewriter = Rewriter::cost_guided(params, req.m).allow_rank0_rules(!req.all_ranks);
        let result = rewriter.saturate(canonical, &params, req.m).result;
        (
            result,
            req.lint.then(|| lint_program(canonical, None, &lint_cfg)),
        )
    };
    let simulation = req.simulate.then(|| {
        let inputs = synthetic_inputs(req.p, req.m);
        let clock = ClockParams::new(req.ts, req.tw);
        let original = execute(canonical, &inputs, clock);
        let optimized = execute(&result.program, &inputs, clock);
        (original.makespan, optimized.makespan)
    });
    Solution {
        result,
        lint,
        simulation,
    }
}

/// Write the `result` body of an optimize response: the optimize-result
/// members, then `lint` and `simulation` (`null` when not asked for), in
/// one buffer sized once.
pub fn write_body(canonical: &Program, req: &OptimizeRequest, solution: &Solution) -> String {
    let params = MachineParams::new(req.p, req.ts, req.tw);
    let mut out = String::with_capacity(body_capacity(canonical, solution));
    out.push('{');
    write_optimize_result(&mut out, canonical, &solution.result, &params, req.m);
    out.push_str(",\"lint\":");
    match &solution.lint {
        Some(report) => report.write_json(&mut out),
        None => out.push_str("null"),
    }
    out.push_str(",\"simulation\":");
    match solution.simulation {
        Some((original, optimized)) => {
            out.push_str("{\"original_makespan\":");
            write_json_num(&mut out, original);
            out.push_str(",\"optimized_makespan\":");
            write_json_num(&mut out, optimized);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// An upper estimate of a body's length: the strings it copies, counted
/// (the two programs by a dry `Display` run that allocates nothing), plus
/// room for the fixed members and their numbers. An eighth on top covers
/// escapes; a body that still outgrows it costs a reallocation, never a
/// wrong byte.
fn body_capacity(canonical: &Program, solution: &Solution) -> usize {
    let result = &solution.result;
    let programs = display_len(canonical) + display_len(&result.program);
    let steps: usize = result
        .steps
        .iter()
        .map(|step| 144 + step.description.len() + 40 * step.certificate.laws.len())
        .sum();
    let normalizations = 64 * result.normalizations.len();
    let rejections: usize = result.rejections.iter().map(|r| 320 + r.law.len()).sum();
    let lint = solution.lint.as_ref().map_or(0, |report| {
        let diagnostics: usize = report
            .diagnostics
            .iter()
            .map(|d| 112 + d.message.len() + d.suggestion.as_ref().map_or(0, String::len))
            .sum();
        144 + diagnostics
    });
    let total = 384 + programs + steps + normalizations + rejections + lint;
    total + total / 8
}

/// The length of `value`'s `Display` output.
fn display_len(value: &impl std::fmt::Display) -> usize {
    struct Len(usize);
    impl std::fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    write!(len, "{value}").expect("counting cannot fail");
    len.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_machine::Json;

    fn opt_req(pipeline: &str) -> OptimizeRequest {
        OptimizeRequest {
            pipeline: pipeline.into(),
            p: 64,
            ts: 200.0,
            tw: 2.0,
            m: 32.0,
            all_ranks: false,
            lint: true,
            simulate: false,
        }
    }

    #[test]
    fn hot_responses_are_byte_identical_to_cold() {
        let service = Service::new(16);
        let line = r#"{"id":1,"pipeline":"map f ; scan(mul) ; reduce(add) ; map g ; bcast"}"#;
        let cold = service.handle_line(line);
        let hot = service.handle_line(line);
        assert_eq!(cold.text, hot.text);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn ids_differ_but_share_one_cache_entry() {
        let service = Service::new(16);
        let a = service.handle_line(r#"{"id":1,"pipeline":"scan(add) ; reduce(add)"}"#);
        let b = service.handle_line(r#"{"id":2,"pipeline":"scan(add) ; reduce(add)"}"#);
        assert_ne!(a.text, b.text);
        assert!(a.text.starts_with("{\"id\":1,"));
        assert!(b.text.starts_with("{\"id\":2,"));
        // Same body after the id.
        assert_eq!(
            a.text.split_once(',').unwrap().1,
            b.text.split_once(',').unwrap().1
        );
        assert_eq!(service.cache_stats().misses, 1);
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn parse_errors_carry_the_caret_diagnostic() {
        let service = Service::new(16);
        let reply = service.handle_line(r#"{"id":9,"pipeline":"scan(add) ;; reduce(add)"}"#);
        assert!(reply.text.contains("\"ok\":false"));
        assert!(reply.text.contains("parse_error"));
        assert!(reply.text.starts_with("{\"id\":9,"));
    }

    #[test]
    fn simulation_attaches_makespans() {
        let service = Service::new(16);
        let line =
            r#"{"pipeline":"scan(add) ; reduce(add)","p":8,"m":4,"options":{"simulate":true}}"#;
        let reply = service.handle_line(line);
        let doc = Json::parse(&reply.text).unwrap();
        let sim = doc.get("result").and_then(|r| r.get("simulation")).unwrap();
        assert!(
            sim.get("original_makespan")
                .and_then(|x| x.as_f64())
                .unwrap()
                > 0.0
        );
    }

    /// What the integer inputs cannot run is refused before simulating;
    /// what they can run, floats included, is simulated. Refusals are not
    /// cached.
    #[test]
    fn simulate_refuses_what_its_integer_inputs_cannot_run() {
        let service = Service::new(16);
        let simulate = |pipeline: &str| {
            let line = format!(
                r#"{{"id":3,"pipeline":"{pipeline}","p":8,"m":4,"options":{{"simulate":true}}}}"#
            );
            Json::parse(&service.handle_line(&line).text).unwrap()
        };
        for (pipeline, culprit) in [
            ("scan(and)", "`and`"),
            ("scan(add) ; allreduce(or)", "`or`"),
            ("scan(fadd) ; reduce(add)", "`fadd`"),
        ] {
            let doc = simulate(pipeline);
            assert_eq!(doc.get("id"), Some(&Json::Num(3.0)), "{pipeline}");
            let error = doc.get("error").unwrap();
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("bad_request")
            );
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(culprit), "{pipeline}: {message}");
        }
        for pipeline in ["scan(add) ; reduce(fadd)", "scan(fmul) ; reduce(fadd)"] {
            let doc = simulate(pipeline);
            let sim = doc.get("result").and_then(|r| r.get("simulation"));
            assert!(matches!(sim, Some(Json::Obj(_))), "{pipeline}");
        }
        assert_eq!(service.cache_stats().misses, 2);
        // Without `simulate` a boolean pipeline is optimized as before.
        let reply = service.handle_line(r#"{"id":4,"pipeline":"scan(and) ; reduce(or)"}"#);
        assert!(
            reply.text.starts_with(r#"{"id":4,"ok":true,"#),
            "{}",
            reply.text
        );
    }

    #[test]
    fn lint_can_be_disabled() {
        let service = Service::new(16);
        let on = service.handle_line(r#"{"pipeline":"gather ; scatter ; scan(add)"}"#);
        let off = service
            .handle_line(r#"{"pipeline":"gather ; scatter ; scan(add)","options":{"lint":false}}"#);
        let on_doc = Json::parse(&on.text).unwrap();
        let off_doc = Json::parse(&off.text).unwrap();
        assert!(matches!(
            on_doc.get("result").and_then(|r| r.get("lint")),
            Some(Json::Obj(_))
        ));
        assert_eq!(
            off_doc.get("result").and_then(|r| r.get("lint")),
            Some(&Json::Null)
        );
        // Different option sets are different cache entries.
        assert_eq!(service.cache_stats().misses, 2);
    }

    #[test]
    fn cache_key_ignores_id_but_not_machine_params() {
        let base = cache_key(&opt_req("scan(add) ; reduce(add)")).unwrap();
        let same = cache_key(&opt_req("  scan( add )   ;   reduce( add )  ")).unwrap();
        assert_eq!(base, same);
        let mut other = opt_req("scan(add) ; reduce(add)");
        other.p = 128;
        assert_ne!(base, cache_key(&other).unwrap());
    }
}
