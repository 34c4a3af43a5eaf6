//! The JSON-lines-over-TCP server and the matching one-shot client.
//!
//! ## Architecture
//!
//! ```text
//! accept loop ──► reader thread per connection ──► job queue (mpsc)
//!                                                      │
//!                                  dispatcher thread ◄─┘
//!                        drain queue into a batch, then
//!                        par_map_with(batch, SWEEP_WORKERS) over
//!                        Service::handle_line, reply in batch order
//! ```
//!
//! A single dispatcher owns the receive side of the queue: it blocks
//! for the first job, opportunistically drains up to
//! [`ServerConfig::batch_limit`] more, and runs the whole batch
//! through the bench crate's deterministic worker pool
//! ([`par_map_with`]). Because [`Service::handle_line`] is a pure
//! function of the line, batch composition and worker count can only
//! change *latency*, never bytes. Replies are written in batch order
//! by the dispatcher alone, so each connection sees its responses in
//! the order it sent requests (the queue is FIFO per sender).
//!
//! Batches of size one — the common case under low concurrency — run
//! inline on the dispatcher thread; only larger batches pay for worker
//! threads.
//!
//! ## Graceful shutdown
//!
//! A `shutdown` op answers `{"bye":true}`, then: the stop flag is set,
//! every registered connection's read half is closed (readers see EOF
//! and hang up), and a self-connection wakes the blocking accept loop.
//! The mpsc channel delivers already-queued jobs before reporting
//! disconnection, so every request enqueued before the shutdown is
//! processed and answered — nothing in flight is dropped.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use collopt_bench::sweep_driver::{default_workers, par_map_with};

use crate::service::{Reply, Service};

/// Tunables for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads for batch dispatch; defaults to `SWEEP_WORKERS`
    /// or the CPU count (see [`default_workers`]).
    pub workers: usize,
    /// Most jobs drained into one batch.
    pub batch_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: default_workers(),
            batch_limit: 64,
        }
    }
}

/// One queued request: the line and where to write the response.
struct Job {
    line: String,
    out: Arc<Mutex<BufWriter<TcpStream>>>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    config: ServerConfig,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            config,
        })
    }

    /// The bound address — read it before [`run`](Server::run) to know
    /// the ephemeral port.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request arrives; drains in-flight
    /// requests before returning.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = mpsc::channel::<Job>();

        let dispatcher = {
            let service = Arc::clone(&self.service);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let config = self.config.clone();
            thread::spawn(move || dispatch_loop(job_rx, service, config, stop, conns, addr))
        };

        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if stop.load(Ordering::SeqCst) {
                break; // the shutdown wake-up connection
            }
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            conns.lock().unwrap().push(read_half);
            let out = Arc::new(Mutex::new(BufWriter::new(stream.try_clone()?)));
            let tx = job_tx.clone();
            thread::spawn(move || read_loop(stream, out, tx));
        }
        drop(job_tx);
        let _ = dispatcher.join();
        Ok(())
    }
}

/// Per-connection reader: one job per non-empty line, until EOF.
fn read_loop(stream: TcpStream, out: Arc<Mutex<BufWriter<TcpStream>>>, tx: Sender<Job>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let job = Job {
                    line: trimmed.to_string(),
                    out: Arc::clone(&out),
                };
                if tx.send(job).is_err() {
                    break;
                }
            }
        }
    }
}

fn dispatch_loop(
    rx: Receiver<Job>,
    service: Arc<Service>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    addr: SocketAddr,
) {
    // Runs until every Sender is gone *and* the queue is drained — mpsc
    // delivers all buffered jobs before reporting disconnection, which
    // is exactly the no-dropped-in-flight-requests guarantee.
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < config.batch_limit.max(1) {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        let lines: Vec<String> = batch.iter().map(|j| j.line.clone()).collect();
        let replies: Vec<Reply> =
            par_map_with(lines, config.workers, |line| service.handle_line(&line));
        let mut shutdown = false;
        for (job, reply) in batch.iter().zip(&replies) {
            shutdown |= reply.shutdown;
            let mut out = job.out.lock().unwrap();
            // A hung-up client is its own problem; keep serving others.
            let _ = writeln!(out, "{}", reply.text);
            let _ = out.flush();
        }
        if shutdown && !stop.swap(true, Ordering::SeqCst) {
            // Close every read half so readers hang up and release their
            // queue senders, then poke the accept loop awake.
            for conn in conns.lock().unwrap().iter() {
                let _ = conn.shutdown(Shutdown::Read);
            }
            let _ = TcpStream::connect(addr);
        }
    }
}

/// One-shot client: connect, send one request line, read one response
/// line. The transport behind `collopt submit`.
pub fn submit(addr: impl ToSocketAddrs, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    writeln!(writer, "{}", line.trim())?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}
