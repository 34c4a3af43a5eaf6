//! The JSON-lines request protocol.
//!
//! One request per line, one response per line, over any byte stream
//! (the server speaks it over TCP; tests and the benchmark also drive it
//! in-process). A request is a JSON object:
//!
//! ```json
//! {"id": 7, "op": "optimize", "pipeline": "scan(mul) ; reduce(add)",
//!  "p": 64, "ts": 200, "tw": 2, "m": 32,
//!  "options": {"all_ranks": false, "lint": true, "simulate": false}}
//! ```
//!
//! `op` defaults to `"optimize"`; `"ping"`, `"stats"` and `"shutdown"`
//! are control operations. Machine parameters default to the CLI's
//! (`p=64, ts=200, tw=2, m=32`); `simulate` runs both pipelines on the
//! discrete-event engine, whose memory bounds `p`. Keys this protocol
//! does not name are ignored. The `id` is echoed verbatim in the
//! response and is the caller's correlation handle — it never enters
//! the cache key.
//!
//! Responses are `{"id":…,"ok":true,"result":…}` or
//! `{"id":…,"ok":false,"error":{"code":…,"message":…}}` with error
//! codes `bad_json` (the line is not UTF-8, not a JSON object, or nests
//! deeper than [`Json::MAX_DEPTH`] arrays and objects),
//! `bad_request` (a field is missing, mistyped, or out of range),
//! `parse_error` (the pipeline spec does not parse; the message carries
//! the caret diagnostic) and `too_large` (the line is longer than
//! [`MAX_LINE`](crate::server::MAX_LINE) bytes; the server then closes
//! the connection).

use collopt_cost::params::MAX_INPUT;
use collopt_machine::{write_json_str, Json};

/// Default processor count, matching `collopt`'s `--p`.
pub const DEFAULT_P: usize = 64;
/// Default start-up time, matching `--ts`.
pub const DEFAULT_TS: f64 = 200.0;
/// Default per-word transfer time, matching `--tw`.
pub const DEFAULT_TW: f64 = 2.0;
/// Default block size, matching `--m`.
pub const DEFAULT_M: f64 = 32.0;

/// A fully validated optimize request — everything that determines the
/// response body (and therefore the cache key).
#[derive(Debug, Clone)]
pub struct OptimizeRequest {
    /// The pipeline source text.
    pub pipeline: String,
    /// Processor count.
    pub p: usize,
    /// Message start-up time.
    pub ts: f64,
    /// Per-word transfer time.
    pub tw: f64,
    /// Block size in words.
    pub m: f64,
    /// Restrict to rules preserving every rank's value (`--all-ranks`).
    pub all_ranks: bool,
    /// Attach the linter's diagnostics to the response.
    pub lint: bool,
    /// Run both pipelines on the simulated machine and attach makespans.
    pub simulate: bool,
}

/// The operation a request asks for.
#[derive(Debug, Clone)]
pub enum Op {
    /// Optimize a pipeline (the default).
    Optimize(OptimizeRequest),
    /// Liveness probe.
    Ping,
    /// Cache/throughput counters.
    Stats,
    /// Drain in-flight requests and stop the server.
    Shutdown,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim in the response (`null` when absent).
    pub id: Json,
    /// What to do.
    pub op: Op,
}

/// Machine-readable error category, the `error.code` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not a JSON object.
    BadJson,
    /// A field is missing, mistyped, or out of range.
    BadRequest,
    /// The pipeline spec does not parse.
    ParseError,
    /// The line is longer than [`MAX_LINE`](crate::server::MAX_LINE).
    TooLarge,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::TooLarge => "too_large",
        }
    }
}

/// Why a request line was refused.
#[derive(Debug, Clone)]
pub struct RequestError {
    /// The echoed id (null when the line didn't even parse).
    pub id: Json,
    /// Category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Render a success response line (no trailing newline). `body` must be
/// a rendered JSON value; it is spliced in verbatim, which is what lets
/// cache hits reuse the cold path's bytes without re-rendering. The line
/// is written into one allocation.
pub fn ok_response(id: &Json, body: &str) -> String {
    let mut out = String::with_capacity(27 + id_capacity(id) + body.len());
    out.push_str("{\"id\":");
    id.write(&mut out);
    out.push_str(",\"ok\":true,\"result\":");
    out.push_str(body);
    out.push('}');
    out
}

/// Render an error response line (no trailing newline).
pub fn error_response(err: &RequestError) -> String {
    let mut out = String::with_capacity(64 + id_capacity(&err.id) + err.message.len());
    out.push_str("{\"id\":");
    err.id.write(&mut out);
    out.push_str(",\"ok\":false,\"error\":{\"code\":");
    write_json_str(&mut out, err.code.as_str());
    out.push_str(",\"message\":");
    write_json_str(&mut out, &err.message);
    out.push_str("}}");
    out
}

/// Room for an echoed id: a string's text, 24 bytes for anything else. An
/// id that needs more costs a reallocation, never a wrong byte.
fn id_capacity(id: &Json) -> usize {
    match id {
        Json::Str(s) => s.len() + 2,
        _ => 24,
    }
}

fn bad(id: &Json, code: ErrorCode, message: impl Into<String>) -> RequestError {
    RequestError {
        id: id.clone(),
        code,
        message: message.into(),
    }
}

fn get_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("'{key}' must be a boolean")),
    }
}

fn get_f64(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("'{key}' must be a finite number")),
    }
}

/// `ts`, `tw` or `m`: a number in `0..=`[`MAX_INPUT`], where every stage
/// cost is finite.
fn get_input(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    let x = get_f64(obj, key, default)?;
    if (0.0..=MAX_INPUT).contains(&x) {
        Ok(x)
    } else {
        Err(format!("'{key}' must be in 0..={MAX_INPUT:e}"))
    }
}

/// Parse and validate one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let null = Json::Null;
    let doc = Json::parse(line.trim())
        .map_err(|e| bad(&null, ErrorCode::BadJson, format!("invalid JSON: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(bad(
            &null,
            ErrorCode::BadJson,
            "request must be a JSON object",
        ));
    }
    let id = doc.get("id").cloned().unwrap_or(Json::Null);

    let op = match doc.get("op") {
        None | Some(Json::Null) => "optimize",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err(bad(&id, ErrorCode::BadRequest, "'op' must be a string")),
    };
    match op {
        "ping" => return Ok(Request { id, op: Op::Ping }),
        "stats" => return Ok(Request { id, op: Op::Stats }),
        "shutdown" => {
            return Ok(Request {
                id,
                op: Op::Shutdown,
            })
        }
        "optimize" => {}
        other => {
            return Err(bad(
                &id,
                ErrorCode::BadRequest,
                format!("unknown op '{other}' (expected optimize, ping, stats, shutdown)"),
            ))
        }
    }

    let pipeline = match doc.get("pipeline") {
        Some(Json::Str(s)) => s.clone(),
        Some(_) => {
            return Err(bad(
                &id,
                ErrorCode::BadRequest,
                "'pipeline' must be a string",
            ))
        }
        None => return Err(bad(&id, ErrorCode::BadRequest, "missing 'pipeline'")),
    };

    let p = get_f64(&doc, "p", DEFAULT_P as f64).map_err(|m| bad(&id, ErrorCode::BadRequest, m))?;
    if !(1.0..=16_777_216.0).contains(&p) || p.fract() != 0.0 {
        return Err(bad(
            &id,
            ErrorCode::BadRequest,
            "'p' must be an integer in 1..=16777216",
        ));
    }
    let ts = get_input(&doc, "ts", DEFAULT_TS).map_err(|m| bad(&id, ErrorCode::BadRequest, m))?;
    let tw = get_input(&doc, "tw", DEFAULT_TW).map_err(|m| bad(&id, ErrorCode::BadRequest, m))?;
    let m = get_input(&doc, "m", DEFAULT_M).map_err(|m| bad(&id, ErrorCode::BadRequest, m))?;

    // Absent options read as an empty object: `get` on `null` finds no key.
    let options = match doc.get("options") {
        None => &Json::Null,
        Some(options @ Json::Obj(_)) => options,
        Some(_) => {
            return Err(bad(
                &id,
                ErrorCode::BadRequest,
                "'options' must be an object",
            ))
        }
    };
    let all_ranks =
        get_bool(options, "all_ranks", false).map_err(|m| bad(&id, ErrorCode::BadRequest, m))?;
    let lint = get_bool(options, "lint", true).map_err(|m| bad(&id, ErrorCode::BadRequest, m))?;
    let simulate =
        get_bool(options, "simulate", false).map_err(|m| bad(&id, ErrorCode::BadRequest, m))?;

    Ok(Request {
        id,
        op: Op::Optimize(OptimizeRequest {
            pipeline,
            p: p as usize,
            ts,
            tw,
            m,
            all_ranks,
            lint,
            simulate,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_cli() {
        let req = parse_request(r#"{"pipeline":"scan(add) ; reduce(add)"}"#).unwrap();
        let Op::Optimize(opt) = req.op else {
            panic!("optimize is the default op")
        };
        assert_eq!(opt.p, DEFAULT_P);
        assert_eq!(opt.ts, DEFAULT_TS);
        assert_eq!(opt.tw, DEFAULT_TW);
        assert_eq!(opt.m, DEFAULT_M);
        assert!(!opt.all_ranks);
        assert!(opt.lint);
        assert!(!opt.simulate);
        assert_eq!(req.id, Json::Null);
    }

    #[test]
    fn error_codes_cover_the_three_failure_classes() {
        let e = parse_request("not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadJson);
        let e = parse_request("[1,2]").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadJson);
        let e = parse_request(r#"{"id":3,"op":"fly"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert_eq!(e.id, Json::Num(3.0));
        let e = parse_request(r#"{"op":"optimize"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = parse_request(r#"{"pipeline":"map f","p":-1}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn a_machine_too_large_to_price_is_a_bad_request() {
        // At `tw = 1e308` every program costs `inf`, and a plan would be a
        // choice between two infinite costs.
        for machine in [
            r#""tw":1e308,"m":1e9"#,
            r#""ts":1e308"#,
            r#""ts":-1"#,
            r#""tw":1000000001"#,
            r#""m":1e10"#,
        ] {
            let line = format!(r#"{{"id":2,"pipeline":"scan(add) ; reduce(add)",{machine}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{line}");
            assert!(e.message.ends_with("must be in 0..=1e9"), "{}", e.message);
        }
        let at_the_bound = r#"{"pipeline":"scan(add) ; reduce(add)","ts":1e9,"tw":1e9,"m":1e9}"#;
        assert!(parse_request(at_the_bound).is_ok());
    }

    #[test]
    fn unknown_option_keys_are_ignored() {
        for engine in ["threads", "warp"] {
            let line = format!(
                r#"{{"pipeline":"map f","p":100000,"options":{{"engine":"{engine}","simulate":true}}}}"#
            );
            let req = parse_request(&line).unwrap_or_else(|e| panic!("engine={engine}: {e:?}"));
            let Op::Optimize(opt) = req.op else {
                panic!("optimize is the default op")
            };
            assert!(opt.simulate);
        }
    }

    #[test]
    fn responses_render_compactly() {
        assert_eq!(
            ok_response(&Json::Num(1.0), "{\"pong\":true}"),
            r#"{"id":1,"ok":true,"result":{"pong":true}}"#
        );
        let err = RequestError {
            id: Json::Str("a".into()),
            code: ErrorCode::ParseError,
            message: "nope".into(),
        };
        assert_eq!(
            error_response(&err),
            r#"{"id":"a","ok":false,"error":{"code":"parse_error","message":"nope"}}"#
        );
    }
}
