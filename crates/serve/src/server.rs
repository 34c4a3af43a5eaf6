//! The JSON-lines-over-TCP server and the matching one-shot client.
//!
//! Each accepted connection runs on a thread of its own: read one line
//! of at most [`MAX_LINE`] bytes, run [`Service::handle_line`] under one
//! of [`ServerConfig::workers`] permits, write the reply, flush, repeat.
//! So a connection's replies come in request order, backpressure is
//! TCP's own, and as `handle_line` is a pure function of the line, the
//! worker count changes latency, never bytes. A longer line is answered
//! `too_large` and closes the connection; a line that is not UTF-8 is
//! answered `bad_json` and the connection keeps serving.
//!
//! A `shutdown` op answers `{"bye":true}`, then the server stops
//! registering connections, closes every open one's read half (its thread
//! answers what it has already read, then sees EOF) and wakes the accept
//! loop; [`Server::run`] returns once every connection thread has ended.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use collopt_bench::sweep_driver::default_workers;
use collopt_machine::Json;

use crate::request::{error_response, ErrorCode, RequestError};
use crate::service::Service;

/// The longest request line the server reads, newline excluded.
pub const MAX_LINE: usize = 1 << 20;

/// Tunables for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How many connections may run [`Service::handle_line`] at once;
    /// defaults to `SWEEP_WORKERS` or the CPU count (see
    /// [`default_workers`]).
    pub workers: usize,
    /// Read by nothing. Kept only because the standalone `benchmark/`
    /// crate spells `ServerConfig { workers: 2, batch_limit: 64 }`;
    /// ROADMAP item 4's follow-up `benchmark` issue deletes it.
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

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    config: ServerConfig,
}

/// What the connection threads share.
struct Shared {
    service: Arc<Service>,
    /// Free permits to run `handle_line`; `freed` signals a returned one.
    permits: Mutex<usize>,
    freed: Condvar,
    /// Every open connection by id; `None` once stopped.
    open: Mutex<Option<HashMap<u64, Arc<TcpStream>>>>,
    addr: SocketAddr,
}

/// Lock a server mutex. Every update under one leaves its data valid, so a
/// poisoned guard is still good — and the drop guards must not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs its closure when dropped, unwinding included.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
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

    /// Serve until a `shutdown` request arrives; returns once every
    /// connection has hung up.
    pub fn run(self) -> std::io::Result<()> {
        let shared = Arc::new(Shared {
            service: self.service,
            permits: Mutex::new(self.config.workers.max(1)),
            freed: Condvar::new(),
            open: Mutex::new(Some(HashMap::new())),
            addr: self.listener.local_addr()?,
        });
        let mut threads: Vec<thread::JoinHandle<()>> = Vec::new();
        for (id, stream) in (0u64..).zip(self.listener.incoming().flatten()) {
            let stream = Arc::new(stream);
            match lock(&shared.open).as_mut() {
                Some(open) => open.insert(id, Arc::clone(&stream)),
                None => break, // stopped: the wake-up connection, or a late one
            };
            threads.retain(|thread| !thread.is_finished());
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || {
                let _registered = OnDrop(|| {
                    if let Some(open) = lock(&shared.open).as_mut() {
                        open.remove(&id);
                    }
                });
                let _ = answer(&shared, &stream);
            }));
        }
        for thread in threads {
            let _ = thread.join();
        }
        Ok(())
    }
}

/// Answer one connection's lines in order until EOF, an over-long line
/// or a `shutdown`.
fn answer(shared: &Shared, stream: &TcpStream) -> std::io::Result<()> {
    let mut out = BufWriter::new(stream);
    let mut reader = BufReader::new(stream).take(0);
    let mut line = Vec::new();
    loop {
        line.clear();
        reader.set_limit(MAX_LINE as u64 + 1);
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let too_large = line.len() > MAX_LINE && line.last() != Some(&b'\n');
        let refusal = |code, message: &str| {
            let id = Json::Null;
            let message = message.to_string();
            (error_response(&RequestError { id, code, message }), false)
        };
        let (text, shutdown) = match std::str::from_utf8(&line).map(str::trim) {
            _ if too_large => refusal(ErrorCode::TooLarge, "request line exceeds 1 MiB"),
            Err(_) => refusal(ErrorCode::BadJson, "request line is not UTF-8"),
            Ok("") => continue,
            Ok(text) => {
                let _permit = shared.permit();
                let reply = shared.service.handle_line(text);
                (reply.text, reply.shutdown)
            }
        };
        let written = writeln!(out, "{text}").and_then(|()| out.flush());
        if shutdown {
            shared.stop();
        }
        if written.is_err() || too_large || shutdown {
            return written;
        }
    }
}

impl Shared {
    /// Wait for a free permit; it is returned when the guard drops.
    fn permit(&self) -> OnDrop<impl FnMut() + '_> {
        let free = self.freed.wait_while(lock(&self.permits), |n| *n == 0);
        *free.unwrap_or_else(PoisonError::into_inner) -= 1;
        OnDrop(|| {
            *lock(&self.permits) += 1;
            self.freed.notify_one();
        })
    }

    /// Stop registering connections, close every read half, then poke
    /// the accept loop awake.
    fn stop(&self) {
        let open = lock(&self.open).take();
        for conn in open.iter().flat_map(HashMap::values) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect(self.addr);
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
