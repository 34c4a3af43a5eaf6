//! Request processing: canonicalize, consult the cache, optimize,
//! render.
//!
//! [`Service::handle_line`] is a *pure function of the request line*
//! (stats aside): the same line always produces the same response
//! bytes, regardless of batch composition, worker count, or cache
//! state. That invariant is what makes both caching and batched
//! dispatch safe; `tests/replay_invariance.rs` and the integration
//! tests hold it.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use collopt_analysis::lint::{lint_plan, lint_program, lint_with_plan, LintConfig};
use collopt_core::exec::{execute_with, ExecConfig};
use collopt_core::parser::parse_pipeline;
use collopt_core::report::optimize_result_json;
use collopt_core::rewrite::Rewriter;
use collopt_core::rules::enabling;
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_cost::MachineParams;
use collopt_machine::{ClockParams, Json};

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
/// server's dispatch pool behind an [`Arc`]; all methods take `&self`.
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
    format!(
        "{canonical}|p={}|ts={:016x}|tw={:016x}|m={:016x}|ranks={}|lint={}|sim={}|engine={}",
        req.p,
        req.ts.to_bits(),
        req.tw.to_bits(),
        req.m.to_bits(),
        req.all_ranks,
        req.lint,
        req.simulate,
        req.engine.name(),
    )
}

/// Deterministic synthetic input for simulation: `m` words per rank,
/// small positive ints (safe for every parser operator; floats coerce
/// from ints). Mirrors the `collopt --profile` input generator.
fn synthetic_inputs(p: usize, m: f64) -> Vec<Value> {
    let words = m.clamp(1.0, 1e6) as usize;
    (0..p)
        .map(|r| Value::int_list((0..words).map(|j| ((r * 7 + j) % 5 + 1) as i64)))
        .collect()
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
            Op::Optimize(opt) => match self.optimize_body(&opt) {
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
            },
        }
    }

    /// The `result` body for an optimize request, from the cache when
    /// possible. `Err` carries the pipeline parse diagnostic.
    pub fn optimize_body(&self, req: &OptimizeRequest) -> Result<Arc<String>, String> {
        let (canonical, rendered) = canonicalize(&req.pipeline)?;
        let key = key_for(&rendered, req);
        Ok(self
            .cache
            .get_or_insert_with(&key, || render_body(&canonical, req)))
    }

    fn stats_body(&self) -> String {
        let s = self.cache.stats();
        Json::Obj(vec![
            ("requests".into(), Json::Num(self.requests() as f64)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::Num(s.hits as f64)),
                    ("misses".into(), Json::Num(s.misses as f64)),
                    ("evictions".into(), Json::Num(s.evictions as f64)),
                    ("entries".into(), Json::Num(s.entries as f64)),
                    ("capacity".into(), Json::Num(s.capacity as f64)),
                    ("hit_rate".into(), Json::Num(s.hit_rate())),
                ]),
            ),
        ])
        .render()
    }
}

/// The cold path: saturate once, lint against that plan, simulate,
/// render. Pure — called at most once per cache key (modulo benign
/// same-key races).
fn render_body(canonical: &Program, req: &OptimizeRequest) -> String {
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
    let shared_plan = req.lint && !req.all_ranks;
    let result = if shared_plan {
        lint_plan(canonical, &lint_cfg)
    } else {
        let rewriter = Rewriter::cost_guided(params, req.m).allow_rank0_rules(!req.all_ranks);
        rewriter.saturate(canonical, &params, req.m).result
    };

    let mut doc = optimize_result_json(canonical, &result, &params, req.m);
    let lint = if shared_plan {
        lint_with_plan(canonical, None, &lint_cfg, &result).to_json()
    } else if req.lint {
        lint_program(canonical, None, &lint_cfg).to_json()
    } else {
        Json::Null
    };
    let simulation = if req.simulate {
        let inputs = synthetic_inputs(req.p, req.m);
        let clock = ClockParams::new(req.ts, req.tw);
        let config = ExecConfig {
            engine: Some(req.engine),
            ..ExecConfig::default()
        };
        let original = execute_with(canonical, &inputs, clock, config);
        let optimized = execute_with(&result.program, &inputs, clock, config);
        Json::Obj(vec![
            ("engine".into(), Json::Str(req.engine.name().into())),
            ("original_makespan".into(), Json::Num(original.makespan)),
            ("optimized_makespan".into(), Json::Num(optimized.makespan)),
        ])
    } else {
        Json::Null
    };
    let Json::Obj(ref mut fields) = doc else {
        unreachable!("optimize_result_json returns an object")
    };
    fields.push(("lint".into(), lint));
    fields.push(("simulation".into(), simulation));
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

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
            engine: collopt_machine::ExecEngine::Des,
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
        assert_eq!(sim.get("engine").and_then(|e| e.as_str()), Some("des"));
        assert!(
            sim.get("original_makespan")
                .and_then(|x| x.as_f64())
                .unwrap()
                > 0.0
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
