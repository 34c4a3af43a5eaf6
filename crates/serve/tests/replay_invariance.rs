//! A reply is a function of its request line and nothing else.
//!
//! The server answers each connection on its own thread, under one of
//! `workers` permits, so which connection asks first, in which order
//! misses race to fill the cache, how many requests run at once, and
//! whether a line arrives over TCP or in process must not show in the
//! bytes. A mixed 64-line log (8 pipelines × 4 machine sizes, hits and
//! misses interleaved) sent, rotated, over 4 concurrent connections to
//! servers with 1 and with 4 workers pins the first three; one TCP round
//! trip pins the last.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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

/// Send every line of `log` over one connection, then read one reply per
/// line.
fn replay_over_tcp(addr: SocketAddr, log: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all((log.join("\n") + "\n").as_bytes())
        .expect("send");
    (0..log.len())
        .map(|_| {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            reply.trim_end().to_string()
        })
        .collect()
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
    let fresh = Service::new(DEFAULT_CACHE_CAPACITY);
    let serial: Vec<String> = log
        .iter()
        .map(|line| fresh.handle_line(line).text)
        .collect();
    assert!(
        serial.iter().all(|r| r.contains("\"ok\":true")),
        "{serial:?}"
    );
    // Connection `c` sends the log rotated by 16c lines, so each key is
    // first asked, and its miss filled, by a different line of the log.
    let rotated = |lines: &[String], c: usize| [&lines[16 * c..], &lines[..16 * c]].concat();
    for workers in [1, 4] {
        let service = Arc::new(Service::new(DEFAULT_CACHE_CAPACITY));
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", service, config).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let running = thread::spawn(move || server.run());
        thread::scope(|scope| {
            let connections: Vec<_> = (0..4)
                .map(|c| {
                    let lines = rotated(&log, c);
                    scope.spawn(move || replay_over_tcp(addr, &lines))
                })
                .collect();
            for (c, connection) in connections.into_iter().enumerate() {
                assert_eq!(
                    connection.join().expect("client"),
                    rotated(&serial, c),
                    "connection {c} under {workers} workers differs from the serial replay"
                );
            }
        });
        submit(addr, "{\"op\":\"shutdown\"}").expect("shutdown");
        running.join().expect("server thread").expect("server run");
    }
}

#[test]
fn a_tcp_reply_equals_the_in_process_reply() {
    let service = Arc::new(Service::new(DEFAULT_CACHE_CAPACITY));
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let running = thread::spawn(move || server.run());

    let line = optimize_line(7777, PIPELINES[0], 64);
    let via_tcp = submit(addr, &line).expect("reply over TCP");
    assert_eq!(via_tcp, Service::new(4).handle_line(&line).text);

    let bye = submit(addr, "{\"id\":0,\"op\":\"shutdown\"}").expect("shutdown");
    assert!(bye.contains("bye"), "unexpected shutdown reply: {bye}");
    running.join().expect("server thread").expect("server run");
}
