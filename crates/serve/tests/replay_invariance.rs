//! A reply is a function of its request line and nothing else.
//!
//! The server dispatches batches through `sweep_driver::par_map_with`, so
//! which worker renders a body, in which order misses race to fill the
//! cache, and whether a line arrives over TCP or in process must not show
//! in the bytes. A mixed 64-line log (8 pipelines × 4 machine sizes, hits
//! and misses interleaved) replayed on fresh services with 1 and with 4
//! workers pins the first two; one TCP round trip pins the third.

use std::sync::Arc;

use collopt_bench::sweep_driver::par_map_with;
use collopt_machine::Rng;
use collopt_serve::{submit, Server, ServerConfig, Service, DEFAULT_CACHE_CAPACITY};

/// The pipelines a compiler workload would resubmit: the examples corpus
/// plus the paper's running examples.
const PIPELINES: &[&str] = &[
    "map f ; scan(mul) ; reduce(add) ; map g ; bcast",
    "scan(add) ; reduce(add)",
    "scan(mul) ; reduce(add)",
    "bcast ; scan(add) ; scan(add) ; reduce(max)",
    "scatter ; map work ; gather",
    "allreduce(add) ; bcast",
    "map prep ; reduce(add) ; map post",
    "scan(max) ; reduce(min)",
];

fn optimize_line(id: u64, pipeline: &str, p: usize) -> String {
    format!("{{\"id\":{id},\"pipeline\":\"{pipeline}\",\"p\":{p}}}")
}

#[test]
fn replies_do_not_depend_on_the_worker_count() {
    let mut rng = Rng::new(0x5E12E ^ 0xD15);
    let log: Vec<String> = (0..64u64)
        .map(|id| {
            let pipeline = PIPELINES[rng.below(PIPELINES.len() as u64) as usize];
            let p = [8usize, 64, 64, 256][rng.below(4) as usize];
            optimize_line(id, pipeline, p)
        })
        .collect();
    let replay = |workers: usize| -> Vec<String> {
        let fresh = Service::new(DEFAULT_CACHE_CAPACITY);
        par_map_with(log.clone(), workers, |line| fresh.handle_line(&line).text)
    };
    let serial = replay(1);
    assert!(
        serial.iter().all(|r| r.contains("\"ok\":true")),
        "{serial:?}"
    );
    assert_eq!(serial, replay(4), "replies depend on the dispatch workers");
}

#[test]
fn a_tcp_reply_equals_the_in_process_reply() {
    let service = Arc::new(Service::new(DEFAULT_CACHE_CAPACITY));
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let running = std::thread::spawn(move || server.run());

    let line = optimize_line(7777, PIPELINES[0], 64);
    let via_tcp = submit(addr, &line).expect("reply over TCP");
    assert_eq!(via_tcp, Service::new(4).handle_line(&line).text);

    let bye = submit(addr, "{\"id\":0,\"op\":\"shutdown\"}").expect("shutdown");
    assert!(bye.contains("bye"), "unexpected shutdown reply: {bye}");
    running.join().expect("server thread").expect("server run");
}
