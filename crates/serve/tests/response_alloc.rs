//! A response is written, not built: the body of an optimize response
//! goes into one buffer sized once, and a reply line into one more.
//! Counted by this binary's own allocator, on this thread only. The only
//! other allocation writing a body makes is one `String` per certificate
//! law (`RequiredLaw::describe`). The cold path's work before the body,
//! `solve`, is held to an exact mean count over a varied deck.

use collopt_core::term::Program;
use collopt_machine::Json;
use collopt_serve::request::{error_response, ok_response};
use collopt_serve::service::{solve, write_body};
use collopt_serve::{
    canonicalize, parse_request, ErrorCode, Op, OptimizeRequest, Request, RequestError,
};

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

/// Ten pipelines under four option sets, on two machines.
fn varied_deck() -> Vec<String> {
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
    let mut deck = Vec::new();
    for (i, pipeline) in pipelines.iter().enumerate() {
        for (j, options) in options.iter().enumerate() {
            deck.push(format!(
                r#"{{"id":"{i}.{j}","pipeline":"{pipeline}","p":{},"m":{},"options":{options}}}"#,
                [64, 13][(i + j) % 2],
                [32.0, 200.5][(i + j) % 2],
            ));
        }
    }
    deck
}

#[test]
fn every_body_of_a_varied_deck_is_sized_once() {
    for line in varied_deck() {
        let (id, body, allocs, laws) = counted_body(&line);
        assert!(
            allocs <= 1 + laws,
            "{allocs} allocations, {laws} laws: {line}"
        );
        assert_eq!(allocations(|| ok_response(&id, &body)).1, 1, "{line}");
    }
}

/// Mean allocations of `solve` over [`varied_deck`] — saturation, lint
/// and simulation together; exact, since each request's count is
/// deterministic. Lower it when a change lowers the count.
const SOLVE_ALLOCS_BOUND: f64 = 2213.9;

#[test]
fn solving_the_varied_deck_stays_within_its_allocation_budget() {
    let deck: Vec<(Program, OptimizeRequest)> = varied_deck()
        .iter()
        .map(|line| {
            let Ok(Request {
                op: Op::Optimize(req),
                ..
            }) = parse_request(line)
            else {
                panic!("not an optimize request: {line}")
            };
            (canonicalize(&req.pipeline).expect("pipeline parses").0, req)
        })
        .collect();
    // A first pass fills the process-wide law facts (`audit_law`), which
    // another test's thread may or may not have filled already.
    for (canonical, req) in &deck {
        solve(canonical, req);
    }
    let total: usize = deck
        .iter()
        .map(|(canonical, req)| allocations(|| solve(canonical, req)).1)
        .sum();
    let mean = total as f64 / deck.len() as f64;
    assert!(
        mean <= SOLVE_ALLOCS_BOUND,
        "solve made {mean} allocations a request, more than {SOLVE_ALLOCS_BOUND}"
    );
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
