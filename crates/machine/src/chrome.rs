//! Chrome-trace (Perfetto / `chrome://tracing`) export.
//!
//! A recorded [`Trace`] becomes a JSON object in the Trace Event Format:
//! one *process* per labelled trace (so a rule's LHS and RHS programs sit
//! side by side in the viewer), one *thread* per rank, complete (`"X"`)
//! events for every span and instant (`"i"`) events for annotations.
//! Open the output at <https://ui.perfetto.dev> to scrub through a run.
//!
//! The workspace is intentionally dependency-free, so the JSON layer is
//! hand-rolled, in two halves. [`Json`] is the parsed-document model —
//! what [`Json::parse`] returns and what request handling and tests read —
//! with a renderer for documents that are built as trees (this module's
//! trace export, round-trip tests). Responses are *written*, not built:
//! [`write_json_num`], [`write_json_str`] and [`write_json_display`]
//! append a number, a string or a `Display` value to the caller's buffer
//! with no intermediate `String`, and the serve path writes its documents
//! member by member with them. [`Json::render`] uses the same functions,
//! so a written document and a rendered tree agree byte for byte.

use std::fmt::{self, Write as _};

use crate::trace::{EventKind, Trace};

/// A minimal JSON document: just what the exporter and its tests need.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialise to a compact string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_json_num(out, *n),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
    /// parser recurses once per level, so the bound is what keeps a line of
    /// `[`s from overflowing the stack of whoever parses it.
    pub const MAX_DEPTH: usize = 128;

    /// Parse a JSON document. Strict enough for round-trip testing:
    /// rejects trailing garbage, unterminated strings, malformed numbers,
    /// and nesting deeper than [`Json::MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Append a number as [`Json::Num`] renders it: Rust's shortest
/// round-trip `f64` formatting (the bytes of `format!("{n}")`), or `null`
/// when `n` is not finite — JSON has no Inf/NaN. An integral `n` with
/// `|n| < 2⁵³`, bar `-0.0` (`-0`), has those bytes as an `i64` too.
pub fn write_json_num(out: &mut String, n: f64) {
    let exact = n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0;
    let written = if exact && n.to_bits() != (-0.0f64).to_bits() {
        write!(out, "{}", n as i64)
    } else if n.is_finite() {
        write!(out, "{n}")
    } else {
        return out.push_str("null");
    };
    written.expect("writing to a String cannot fail");
}

/// Append `s` as a quoted, escaped JSON string literal.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append a [`Display`](fmt::Display) value as a quoted, escaped JSON
/// string literal, formatting it straight into `out`.
pub fn write_json_display(out: &mut String, value: &impl fmt::Display) {
    out.push('"');
    write!(Escaped(out), "{value}").expect("writing to a String cannot fail");
    out.push('"');
}

/// A [`fmt::Write`] sink that escapes what it is given into a JSON string
/// body.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Escape `s` into `out`, copying runs of bytes that need no escape whole.
/// Only ASCII bytes are ever escaped, so every run boundary is a `char`
/// boundary.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, pos))
    }
}

/// Parse one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == Json::MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {} levels at byte {pos}",
            Json::MAX_DEPTH
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash whole: one UTF-8
        // check per run keeps a string linear in its length.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        out.push_str(std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn event_name(kind: &EventKind) -> String {
    match kind {
        EventKind::Send { to, .. } => format!("send -> P{to}"),
        EventKind::Recv { from, .. } => format!("recv <- P{from}"),
        EventKind::Exchange { partner, .. } => format!("exchange <-> P{partner}"),
        EventKind::Retry { to, attempt, .. } => format!("retry #{attempt} -> P{to}"),
        EventKind::Compute { label, .. } => label.clone(),
        EventKind::Barrier => "barrier".to_string(),
        EventKind::Mark { note } => format!("mark {note}"),
        EventKind::Stage { index, label } => format!("stage {index}: {label}"),
    }
}

fn event_cat(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Send { .. }
        | EventKind::Recv { .. }
        | EventKind::Exchange { .. }
        | EventKind::Retry { .. } => "comm",
        EventKind::Compute { .. } => "compute",
        EventKind::Barrier => "sync",
        EventKind::Mark { .. } | EventKind::Stage { .. } => "annotation",
    }
}

fn event_args(kind: &EventKind) -> Json {
    let mut fields: Vec<(&str, Json)> = Vec::new();
    match kind {
        EventKind::Send { words, .. } => fields.push(("words", Json::Num(*words as f64))),
        EventKind::Recv { words, sent_at, .. } => {
            fields.push(("words", Json::Num(*words as f64)));
            fields.push(("sent_at", Json::Num(*sent_at)));
        }
        EventKind::Exchange { words, sent_at, .. } => {
            fields.push(("words", Json::Num(*words as f64)));
            fields.push(("sent_at", Json::Num(*sent_at)));
        }
        EventKind::Retry { words, attempt, .. } => {
            fields.push(("words", Json::Num(*words as f64)));
            fields.push(("attempt", Json::Num(*attempt as f64)));
        }
        EventKind::Compute { ops, .. } => fields.push(("ops", Json::Num(*ops))),
        EventKind::Mark { note } => fields.push(("note", Json::Str(note.clone()))),
        EventKind::Stage { index, .. } => fields.push(("index", Json::Num(*index as f64))),
        EventKind::Barrier => {}
    }
    obj(fields)
}

/// Build the Chrome-trace document for one or more labelled traces.
/// Each `(label, trace)` pair becomes one process (`pid` = its position),
/// so e.g. a rule's LHS and RHS programs land side by side in the viewer.
pub fn chrome_trace(processes: &[(&str, &Trace)]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for (pid, (label, _)) in processes.iter().enumerate() {
        events.push(obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(pid as f64)),
            ("tid", Json::Num(0.0)),
            ("args", obj(vec![("name", Json::Str((*label).to_string()))])),
        ]));
    }
    for (pid, (_, trace)) in processes.iter().enumerate() {
        // Sort by start so timestamps are monotone per (pid, tid) lane.
        let mut ordered: Vec<&crate::trace::Event> = trace.events().iter().collect();
        ordered.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.rank.cmp(&b.rank)));
        for e in ordered {
            let mut fields = vec![
                ("name", Json::Str(event_name(&e.kind))),
                ("cat", Json::Str(event_cat(&e.kind).into())),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(e.rank as f64)),
                ("ts", Json::Num(e.start)),
            ];
            if e.kind.is_annotation() {
                fields.push(("ph", Json::Str("i".into())));
                fields.push(("s", Json::Str("t".into())));
            } else {
                fields.push(("ph", Json::Str("X".into())));
                fields.push(("dur", Json::Num(e.duration())));
            }
            fields.push(("args", event_args(&e.kind)));
            events.push(obj(fields));
        }
    }
    obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// [`chrome_trace`] rendered to a compact JSON string.
pub fn chrome_trace_json(processes: &[(&str, &Trace)]) -> String {
    chrome_trace(processes).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockParams;
    use crate::machine::Machine;

    fn sample_trace() -> Trace {
        let m = Machine::new(2, ClockParams::new(10.0, 1.0)).with_tracing();
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                ctx.charge(4.0, "warm-up");
                if ctx.rank() == 0 {
                    ctx.send(1, 7u64, 3);
                } else {
                    ctx.recv_async::<u64>(0).await;
                }
                ctx.end_stage(0, "stage-label");
                ctx.barrier_async().await;
            })
        });
        run.trace
    }

    #[test]
    fn json_round_trips_through_parse_and_render() {
        let doc = chrome_trace(&[("lhs", &sample_trace())]);
        let text = doc.render();
        let reparsed = Json::parse(&text).expect("export parses");
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.render(), text);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(Json::MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(Json::MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(Json::MAX_DEPTH + 1);
        assert!(Json::parse(&objects).unwrap_err().contains("deeper than"));
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = Json::parse(r#"{"a":"x\n\"yA","b":[-1.5e2,0,3]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str().unwrap(), "x\n\"yA");
        let nums: Vec<f64> = v
            .get("b")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|n| n.as_f64().unwrap())
            .collect();
        assert_eq!(nums, vec![-150.0, 0.0, 3.0]);
    }

    /// The per-`char` escaper `write_json_str` replaced, kept as its
    /// reference.
    fn escaped_per_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn written_strings_equal_the_per_char_escaper() {
        let ascii: String = (0u8..0x80).map(char::from).collect();
        let mut cases = vec![
            String::new(),
            ascii.clone(),
            ascii.chars().rev().collect(),
            "map f ; scan(mul)  →[SR2-Reduction]→  reduce(op_sr2[mul,add])".to_string(),
            "\"quoted\" \\ back\tslash\n".to_string(),
            "é→😀\u{1}x\u{7f}\u{1f}".to_string(),
        ];
        // Every code point below 0x80 alone and between multi-byte text.
        cases.extend((0u8..0x80).map(|b| char::from(b).to_string()));
        cases.extend((0u8..0x80).map(|b| format!("→{}é", char::from(b))));
        for case in &cases {
            let mut out = String::from("prefix");
            write_json_str(&mut out, case);
            assert_eq!(out, format!("prefix{}", escaped_per_char(case)), "{case:?}");
            let mut shown = String::new();
            write_json_display(&mut shown, case);
            assert_eq!(shown, escaped_per_char(case), "{case:?}");
            assert_eq!(Json::parse(&shown).unwrap(), Json::Str(case.clone()));
        }
    }

    #[test]
    fn written_numbers_equal_format() {
        let finite = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            1e21,
            1e-7,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_993.0,
            64.0,
            -3.0,
            0.1,
            22.255192878338278,
            f64::MAX,
        ];
        // Every small integer; ±2^k and ±10^k up to 2^64 with their ±1
        // neighbours (past 2^53 the neighbour rounds onto the power, which
        // is the point); seeded random bit patterns of every exponent.
        let small = (-10_000..=10_000).map(f64::from);
        let powers = (0..=64)
            .map(|k| 2f64.powi(k))
            .chain((0..=19).map(|k| 10f64.powi(k)))
            .flat_map(|x| [x - 1.0, x, x + 1.0])
            .flat_map(|x| [x, -x]);
        let mut rng = crate::Rng::new(0x5EED);
        let random = (0..10_000).map(|_| f64::from_bits(rng.next_u64()));
        let all = finite.into_iter().chain(small).chain(powers).chain(random);
        for n in all.filter(|n| n.is_finite()) {
            let mut out = String::new();
            write_json_num(&mut out, n);
            assert_eq!(out, format!("{n}"));
            assert_eq!(Json::Num(n).render(), out);
        }
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            write_json_num(&mut out, n);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn parser_reads_a_long_string_in_linear_time() {
        // 256 KiB with a multi-byte char and an escape every 64 bytes: a
        // parser that re-checks the rest of the line per char takes
        // seconds here.
        let chunk = format!("{}é\\n", "x".repeat(60));
        let body = chunk.repeat(256 * 1024 / chunk.len());
        let line = format!("{{\"pipeline\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let doc = Json::parse(&line).expect("parses");
        let elapsed = start.elapsed();
        let text = doc.get("pipeline").and_then(Json::as_str).unwrap();
        assert_eq!(text.len(), body.len() - body.matches("\\n").count());
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn export_has_stable_envelope_and_per_lane_monotone_timestamps() {
        let trace = sample_trace();
        let doc = chrome_trace(&[("a", &trace), ("b", &trace)]);
        assert!(doc.get("displayTimeUnit").is_some());
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Two metadata records, then the payload from both processes.
        let metadata: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(metadata.len(), 2);
        assert_eq!(
            metadata[0]
                .get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str(),
            Some("a")
        );
        let mut last: std::collections::HashMap<(u64, u64), f64> = Default::default();
        for e in events {
            if e.get("ph").unwrap().as_str() == Some("M") {
                continue;
            }
            for key in ["name", "cat", "pid", "tid", "ts", "args"] {
                assert!(e.get(key).is_some(), "missing field {key}");
            }
            let lane = (
                e.get("pid").unwrap().as_f64().unwrap() as u64,
                e.get("tid").unwrap().as_f64().unwrap() as u64,
            );
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let prev = last.insert(lane, ts).unwrap_or(f64::NEG_INFINITY);
            assert!(ts >= prev, "timestamps regress in lane {lane:?}");
            if e.get("ph").unwrap().as_str() == Some("X") {
                assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
    }
}
