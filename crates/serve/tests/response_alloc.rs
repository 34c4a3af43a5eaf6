//! A response is written, not built: the body of an optimize response
//! goes into one buffer sized once, and a reply line into one more.
//! Counted by this binary's own allocator, on this thread only. The only
//! other allocation writing a body makes is one `String` per certificate
//! law (`RequiredLaw::describe`).

use collopt_machine::Json;
use collopt_serve::request::{error_response, ok_response};
use collopt_serve::service::{solve, write_body};
use collopt_serve::{canonicalize, parse_request, ErrorCode, Op, Request, RequestError};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// The request `tests/golden/serve_response.json` answers.
const GOLDEN: &str = r#"{"id":1,"pipeline":"map f ; scan(mul) ; reduce(add) ; map g ; bcast","p":64,"ts":200,"tw":2,"m":32,"options":{"lint":true,"simulate":false}}"#;

/// Write `line`'s body under the counter; returns the id, the body, the
/// allocations and the number of certificate laws the body spells out.
fn counted_body(line: &str) -> (Json, String, usize, usize) {
    let Ok(Request {
        id,
        op: Op::Optimize(req),
    }) = parse_request(line)
    else {
        panic!("not an optimize request: {line}")
    };
    let (canonical, _) = canonicalize(&req.pipeline).expect("pipeline parses");
    let solution = solve(&canonical, &req);
    let laws = solution
        .result
        .steps
        .iter()
        .map(|step| step.certificate.laws.len())
        .sum();
    let (body, allocs) = allocations(|| write_body(&canonical, &req, &solution));
    (id, body, allocs, laws)
}

#[test]
fn the_golden_body_is_written_into_one_buffer() {
    let (id, body, allocs, laws) = counted_body(GOLDEN);
    assert_eq!(laws, 3, "the golden plan's SR2 step certifies three laws");
    assert!(allocs <= 1 + laws, "{allocs} allocations for {laws} laws");
    let golden = include_str!("../../../tests/golden/serve_response.json");
    let (line, allocs) = allocations(|| ok_response(&id, &body));
    assert_eq!(allocs, 1, "ok_response");
    assert_eq!(format!("{line}\n"), golden);
}

#[test]
fn every_body_of_a_varied_deck_is_sized_once() {
    let pipelines = [
        "scan(mul) ; reduce(add)",
        "bcast ; scan(add) ; scan(add) ; reduce(add)",
        "scan(add) ; scan(add) ; reduce(add) ; bcast ; scan(max) ; reduce(min)",
        "bcast ; scan(mul) ; reduce(add)",
        "bcast ; scan(fadd) ; allreduce(fadd)",
        "scan(maxplus) ; allreduce(max)",
        "scan(add) ; reduce(fadd)",
        "gather ; scatter ; scan(add) ; allreduce(add) ; bcast",
        "map f ; reduce(add) ; map g",
        "scan(add)",
    ];
    let options = [
        r#"{"lint":true}"#,
        r#"{"all_ranks":true}"#,
        r#"{"lint":false}"#,
        r#"{"simulate":true}"#,
    ];
    for (i, pipeline) in pipelines.iter().enumerate() {
        for (j, options) in options.iter().enumerate() {
            let line = format!(
                r#"{{"id":"{i}.{j}","pipeline":"{pipeline}","p":{},"m":{},"options":{options}}}"#,
                [64, 13][(i + j) % 2],
                [32.0, 200.5][(i + j) % 2],
            );
            let (id, body, allocs, laws) = counted_body(&line);
            assert!(
                allocs <= 1 + laws,
                "{allocs} allocations, {laws} laws: {line}"
            );
            assert_eq!(allocations(|| ok_response(&id, &body)).1, 1, "{line}");
        }
    }
}

#[test]
fn an_error_reply_is_one_allocation() {
    let err = RequestError {
        id: Json::Str("client-7".into()),
        code: ErrorCode::ParseError,
        message: "unexpected `;`\n  | scan(add) ;; reduce(add)\n  |            ^".into(),
    };
    let (line, allocs) = allocations(|| error_response(&err));
    assert_eq!(allocs, 1);
    assert!(line.starts_with(r#"{"id":"client-7","ok":false,"error":{"code":"parse_error""#));
}
