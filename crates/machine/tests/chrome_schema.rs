//! Schema stability for the Chrome-trace export.
//!
//! The export is a public artifact (users load it into Perfetto and
//! scripts post-process it), so its shape is pinned three ways:
//!
//! * a committed **golden file** (`tests/golden/chrome_trace.json`) that
//!   a fixed deterministic run must reproduce byte for byte;
//! * **schema checks**: required field names, valid phase codes, and
//!   per-`(pid, tid)` monotone timestamps;
//! * a **parse/render round-trip** through the in-repo JSON layer.

use collopt_machine::{chrome_trace, chrome_trace_json, drive, ClockParams, Json, Machine};

/// The fixed run behind the golden file: 4 ranks, a compute+butterfly
/// exchange round with stage markers, a barrier, and a mark.
fn golden_trace() -> collopt_machine::Trace {
    let m = Machine::new(4, ClockParams::new(10.0, 1.0)).with_tracing();
    let run = m.run(|ctx| {
        ctx.charge(3.0, "setup");
        ctx.end_stage(0, "setup");
        let mut v = ctx.rank() as u64 + 1;
        for round in 0..2 {
            let partner = ctx.rank() ^ (1 << round);
            v += drive(ctx.exchange_async(partner, v, 2));
            ctx.charge(1.0, "combine");
        }
        ctx.end_stage(1, "butterfly");
        if ctx.rank() == 0 {
            ctx.mark(format!("sum={v}"));
        }
        drive(ctx.barrier_async());
        v
    });
    assert_eq!(run.results, vec![10; 4], "golden workload must be stable");
    run.trace
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json")
}

#[test]
fn export_matches_the_committed_golden_file() {
    let trace = golden_trace();
    let rendered = chrome_trace_json(&[("golden", &trace)]);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), format!("{rendered}\n")).expect("update golden file");
        return;
    }
    let committed = std::fs::read_to_string(golden_path())
        .expect("tests/golden/chrome_trace.json is committed");
    assert_eq!(
        rendered,
        committed.trim_end(),
        "Chrome-trace export drifted from the golden file; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn export_satisfies_the_trace_event_schema() {
    let trace = golden_trace();
    let doc = chrome_trace(&[("lhs", &trace), ("rhs", &trace)]);

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts: std::collections::HashMap<(u64, u64), f64> = Default::default();
    let mut seen_metadata = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph field");
        match ph {
            "M" => {
                seen_metadata += 1;
                assert_eq!(e.get("name").and_then(Json::as_str), Some("process_name"));
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" | "i" => {
                for key in ["name", "cat", "pid", "tid", "ts", "args"] {
                    assert!(e.get(key).is_some(), "event missing field {key}: {e:?}");
                }
                let cat = e.get("cat").and_then(Json::as_str).unwrap();
                assert!(
                    matches!(cat, "comm" | "compute" | "sync" | "annotation"),
                    "unknown category {cat}"
                );
                let ts = e.get("ts").and_then(Json::as_f64).unwrap();
                assert!(ts >= 0.0);
                let lane = (
                    e.get("pid").and_then(Json::as_f64).unwrap() as u64,
                    e.get("tid").and_then(Json::as_f64).unwrap() as u64,
                );
                let prev = last_ts.insert(lane, ts).unwrap_or(f64::NEG_INFINITY);
                assert!(ts >= prev, "timestamps regress in lane {lane:?}");
                if ph == "X" {
                    assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
                } else {
                    assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
                }
            }
            other => panic!("unexpected phase code {other}"),
        }
    }
    assert_eq!(seen_metadata, 2, "one process_name record per process");
}

#[test]
fn export_round_trips_through_the_json_layer() {
    let trace = golden_trace();
    let doc = chrome_trace(&[("roundtrip", &trace)]);
    let text = doc.render();
    let reparsed = Json::parse(&text).expect("export must parse");
    assert_eq!(reparsed, doc, "parse(render(doc)) must be doc");
    assert_eq!(reparsed.render(), text, "render must be a fixed point");
}
