//! End-to-end tests of `collopt serve` over loopback TCP: concurrent
//! clients, cold-vs-hot byte identity, malformed-request error codes,
//! the line and nesting bounds, descriptors of closed connections, and
//! graceful shutdown that drains in-flight requests.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use collopt::machine::Json;
use collopt::serve::{submit, Server, ServerConfig, Service, MAX_LINE};

/// Spawn a server on an ephemeral port; returns its address and the
/// run-thread handle (joined after a shutdown op).
fn spawn_server() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    spawn_server_with(ServerConfig::default())
}

fn spawn_server_with(config: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let service = Arc::new(Service::new(64));
    let server = Server::bind("127.0.0.1:0", service, config).expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, thread::spawn(move || server.run()))
}

/// A line-oriented client with a read timeout so a server bug fails the
/// test instead of hanging it.
struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        Client {
            writer: BufWriter::new(stream.try_clone().expect("clone")),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "server closed the connection early");
        line.trim_end().to_string()
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let bye = submit(addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"bye\":true"), "unexpected: {bye}");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn cold_and_hot_responses_are_byte_identical_over_tcp() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);
    let line = r#"{"id":1,"pipeline":"map f ; scan(mul) ; reduce(add) ; map g ; bcast"}"#;
    let cold = client.round_trip(line);
    let hot = client.round_trip(line);
    let hot2 = client.round_trip(line);
    assert_eq!(cold, hot);
    assert_eq!(cold, hot2);
    assert!(cold.starts_with("{\"id\":1,\"ok\":true,"));
    // A second connection sees the same bytes for the same request.
    let other = submit(addr, line).expect("second connection");
    assert_eq!(cold, other);
    shutdown(addr, handle);
}

#[test]
fn concurrent_clients_each_get_ordered_correct_responses() {
    // Under the default permit count, and with all 8 connections sharing
    // one permit: no deadlock, and each connection's order holds.
    let one_permit = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    for config in [ServerConfig::default(), one_permit] {
        let (addr, handle) = spawn_server_with(config);
        let start = Arc::new(Barrier::new(8));
        let mut workers = Vec::new();
        for c in 0..8u64 {
            let start = Arc::clone(&start);
            workers.push(thread::spawn(move || {
                let mut client = Client::connect(addr);
                start.wait(); // every connection is open before any sends
                for i in 0..12u64 {
                    let id = c * 100 + i;
                    // Even lines share one key across connections; odd
                    // lines are misses of their own, which hold a permit
                    // long enough for the other connections to wait.
                    let line = if i % 2 == 0 {
                        format!("{{\"id\":{id},\"pipeline\":\"scan(add) ; reduce(add)\"}}")
                    } else {
                        format!(
                            "{{\"id\":{id},\"pipeline\":\"scan(mul) ; reduce(add)\",\"p\":{}}}",
                            id + 2
                        )
                    };
                    let response = client.round_trip(&line);
                    // Responses come back in request order: the id matches.
                    assert!(
                        response.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
                        "bad response for id {id}: {response}"
                    );
                }
            }));
        }
        for w in workers {
            w.join().expect("client");
        }
        shutdown(addr, handle);
    }
}

#[test]
fn malformed_requests_get_typed_error_codes() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);

    let cases = [
        ("this is not json", "bad_json"),
        ("[1,2,3]", "bad_json"),
        (r#"{"id":1,"op":"dance"}"#, "bad_request"),
        (r#"{"id":2,"op":"optimize"}"#, "bad_request"),
        (r#"{"id":3,"pipeline":"scan(add)","p":0}"#, "bad_request"),
        (
            r#"{"id":4,"pipeline":"scan(add)","options":{"lint":"yes"}}"#,
            "bad_request",
        ),
        (
            r#"{"id":5,"pipeline":"scan(wat) ; reduce(add)"}"#,
            "parse_error",
        ),
        (
            r#"{"id":6,"pipeline":"scan(add) ;; reduce(add)"}"#,
            "parse_error",
        ),
    ];
    for (line, want_code) in cases {
        let response = client.round_trip(line);
        let doc = Json::parse(&response).expect("error responses are valid JSON");
        assert_eq!(
            doc.get("ok"),
            Some(&Json::Bool(false)),
            "expected failure for {line}: {response}"
        );
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str());
        assert_eq!(code, Some(want_code), "wrong code for {line}: {response}");
    }
    // The connection survives every error and still serves good requests.
    let response = client.round_trip(r#"{"id":7,"pipeline":"scan(add) ; reduce(add)"}"#);
    assert!(response.starts_with("{\"id\":7,\"ok\":true,"));
    shutdown(addr, handle);
}

/// The `error.code` of a reply that must be a refusal with a null id.
fn refusal_code(response: &str) -> String {
    let doc = Json::parse(response).expect("error responses are valid JSON");
    assert_eq!(doc.get("id"), Some(&Json::Null), "{response}");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
    let code = doc.get("error").and_then(|e| e.get("code"));
    code.and_then(|c| c.as_str()).expect("code").to_string()
}

#[test]
fn an_over_long_line_gets_too_large_and_closes_only_its_connection() {
    let (addr, handle) = spawn_server();
    let mut bystander = Client::connect(addr);
    let mut client = Client::connect(addr);
    // One byte over the bound and no newline: the server must answer
    // without waiting for the rest of the line.
    client.send_bytes(&vec![b'x'; MAX_LINE + 1]);
    assert_eq!(refusal_code(&client.recv()), "too_large");
    let mut rest = String::new();
    let closed = client.reader.read_line(&mut rest);
    assert!(
        matches!(closed, Ok(0)) || closed.is_err(),
        "the connection stays open after too_large: {rest:?}"
    );
    // Everyone else is still served.
    let pong = bystander.round_trip(r#"{"id":1,"op":"ping"}"#);
    assert_eq!(pong, r#"{"id":1,"ok":true,"result":{"pong":true}}"#);
    assert!(submit(addr, r#"{"op":"ping"}"#)
        .expect("fresh connection")
        .contains("pong"));
    shutdown(addr, handle);
}

#[test]
fn a_non_utf8_line_gets_bad_json_and_the_connection_keeps_serving() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);
    client.send_bytes(b"{\"id\":1,\"pipeline\":\"scan(\xff\xfe)\"}\n");
    assert_eq!(refusal_code(&client.recv()), "bad_json");
    let response = client.round_trip(r#"{"id":2,"pipeline":"scan(add) ; reduce(add)"}"#);
    assert!(response.starts_with("{\"id\":2,\"ok\":true,"), "{response}");
    assert!(submit(addr, r#"{"op":"ping"}"#)
        .expect("fresh connection")
        .contains("pong"));
    shutdown(addr, handle);
}

/// A `collopt serve` child process, killed and reaped on drop.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Run the `collopt serve` binary as a child on an ephemeral port, which
/// it names on its first line of stderr. Requests that could take the
/// whole process down (a stack overflow aborts it) are sent to a child.
fn spawn_child_server() -> (Reaped, SocketAddr) {
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_collopt"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn collopt serve"),
    );
    let mut stderr = BufReader::new(child.0.stderr.take().expect("stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("banner");
    let addr: SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    (child, addr)
}

#[test]
fn a_nesting_bomb_gets_bad_json_and_the_process_keeps_serving() {
    let (mut child, addr) = spawn_child_server();

    // 10 KB of `[`: 1 % of MAX_LINE, far deeper than the parser's bound.
    let mut client = Client::connect(addr);
    client.send(&"[".repeat(10_000));
    let mut reply = String::new();
    let read = client.reader.read_line(&mut reply);
    let status = if matches!(read, Ok(0)) || read.is_err() {
        child.0.wait().ok()
    } else {
        None
    };
    assert!(status.is_none(), "the server died: {status:?}");
    assert_eq!(refusal_code(&reply), "bad_json", "{reply}");
    assert!(reply.contains(&Json::MAX_DEPTH.to_string()), "{reply}");
    assert!(submit(addr, r#"{"op":"ping"}"#)
        .expect("fresh connection")
        .contains("pong"));
    submit(addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(child.0.wait().expect("exit").success());
}

#[test]
fn a_megabyte_pipeline_string_is_refused_in_linear_time() {
    // Scanning a JSON string must not re-check the rest of the line per
    // character: at ~1 MB (just under MAX_LINE) that took the server
    // seconds per request. The pipeline names no operator the parser
    // knows, so the answer is a typed parse_error.
    let (mut child, addr) = spawn_child_server();
    let pipeline = format!("scan({})", "x".repeat(999_990));
    let line = format!(r#"{{"id":1,"pipeline":"{pipeline}"}}"#);
    assert!(line.len() < MAX_LINE);
    let mut client = Client::connect(addr);
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client.send(&line);
    let reply = client.recv();
    let doc = Json::parse(&reply).expect("the reply is valid JSON");
    assert_eq!(doc.get("id"), Some(&Json::Num(1.0)));
    let code = doc.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Json::as_str), Some("parse_error"));
    let pong = client.round_trip(r#"{"id":2,"op":"ping"}"#);
    assert_eq!(pong, r#"{"id":2,"ok":true,"result":{"pong":true}}"#);
    submit(addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(child.0.wait().expect("exit").success());
}

#[test]
fn a_long_chain_is_answered_within_a_second_and_the_connection_keeps_serving() {
    // 64 × scan(add), where every adjacent pair fuses profitably: the plan
    // is read off saturation's record, so the request cannot hold its
    // connection thread (or a permit) for the seconds a search over every
    // tiling of the chain took.
    let (mut child, addr) = spawn_child_server();
    let pipeline = vec!["scan(add)"; 64].join(" ; ");
    let mut client = Client::connect(addr);
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let started = Instant::now();
    client.send(&format!(
        r#"{{"id":1,"pipeline":"{pipeline}","p":64,"ts":200,"tw":2,"m":32}}"#
    ));
    let mut reply = String::new();
    let read = client.reader.read_line(&mut reply);
    let elapsed = started.elapsed();
    assert!(
        matches!(read, Ok(n) if n > 0),
        "no reply within 1 s ({elapsed:?}): {read:?}"
    );
    assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
    let doc = Json::parse(&reply).unwrap_or_else(|e| panic!("no JSON reply ({e}): {reply:?}"));
    let steps = doc.get("result").and_then(|r| r.get("steps"));
    assert_eq!(
        steps.and_then(Json::as_array).map(<[Json]>::len),
        Some(32),
        "{reply}"
    );
    let pong = client.round_trip(r#"{"id":2,"op":"ping"}"#);
    assert_eq!(pong, r#"{"id":2,"ok":true,"result":{"pong":true}}"#);
    submit(addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(child.0.wait().expect("exit").success());
}

#[test]
fn simulating_a_boolean_pipeline_gets_bad_request_and_the_connection_keeps_serving() {
    // The simulated inputs are integers, which `and` cannot combine: the
    // request gets a typed reply before anything runs, and the connection
    // thread lives on to answer the next line.
    let (mut child, addr) = spawn_child_server();
    let mut client = Client::connect(addr);
    client.send(r#"{"id":1,"op":"optimize","pipeline":"scan(and)","options":{"simulate":true}}"#);
    let reply = client.recv();
    let doc = Json::parse(&reply).unwrap_or_else(|e| panic!("no JSON reply ({e}): {reply:?}"));
    assert_eq!(doc.get("id"), Some(&Json::Num(1.0)));
    let error = doc.get("error");
    let code = error.and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("bad_request"), "{reply}");
    let message = error.and_then(|e| e.get("message")).and_then(Json::as_str);
    assert!(message.is_some_and(|m| m.contains("`and`")), "{reply}");
    let pong = client.round_trip(r#"{"id":2,"op":"ping"}"#);
    assert_eq!(pong, r#"{"id":2,"ok":true,"result":{"pong":true}}"#);
    submit(addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(child.0.wait().expect("exit").success());
}

#[cfg(target_os = "linux")]
#[test]
fn connections_do_not_leak_descriptors() {
    let open_fds = || std::fs::read_dir("/proc/self/fd").expect("fd dir").count();
    let (addr, handle) = spawn_server();
    submit(addr, r#"{"op":"ping"}"#).expect("warm-up ping");
    let before = open_fds();
    for id in 0..200 {
        let pong = submit(addr, &format!("{{\"id\":{id},\"op\":\"ping\"}}")).expect("ping");
        assert!(pong.contains("pong"), "{pong}");
    }
    // A connection thread lets go of its descriptors just after the
    // client hangs up; other tests of this binary open connections too.
    // So wait for the count to settle, and fail only if it never does.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut after = open_fds();
    while after >= before + 10 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after < before + 10,
        "200 closed connections left {} descriptors open ({before} -> {after})",
        after - before
    );
    shutdown(addr, handle);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);
    // Queue a burst of work and the shutdown behind it on one
    // connection: FIFO enqueue order guarantees every request is
    // in flight when the shutdown is processed.
    let n = 20;
    for id in 0..n {
        client.send(&format!(
            "{{\"id\":{id},\"pipeline\":\"bcast ; scan(add) ; scan(add) ; reduce(max)\",\"p\":{}}}",
            8 << (id % 5) // vary the machine so several are cache-cold
        ));
    }
    client.send(r#"{"id":99,"op":"shutdown"}"#);
    for id in 0..n {
        let response = client.recv();
        assert!(
            response.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
            "in-flight request {id} was dropped or reordered: {response}"
        );
    }
    let bye = client.recv();
    assert!(bye.contains("\"bye\":true"), "unexpected: {bye}");
    handle.join().expect("server thread").expect("server run");
    // The listener is gone: a fresh request cannot be served.
    assert!(submit(addr, r#"{"op":"ping"}"#).is_err());
}

#[test]
fn control_ops_report_cache_and_liveness() {
    let (addr, handle) = spawn_server();
    let pong = submit(addr, r#"{"id":1,"op":"ping"}"#).expect("ping");
    assert_eq!(pong, r#"{"id":1,"ok":true,"result":{"pong":true}}"#);

    let line = r#"{"pipeline":"scan(add) ; reduce(add)"}"#;
    submit(addr, line).expect("cold");
    submit(addr, line).expect("hot");
    let stats = submit(addr, r#"{"op":"stats"}"#).expect("stats");
    let doc = Json::parse(&stats).expect("stats JSON");
    let cache = doc
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache");
    assert_eq!(cache.get("hits").and_then(|x| x.as_f64()), Some(1.0));
    assert_eq!(cache.get("misses").and_then(|x| x.as_f64()), Some(1.0));
    shutdown(addr, handle);
}
