//! The wire protocol: line-delimited JSON over localhost TCP.
//!
//! Requests are one compact JSON object per line:
//!
//! ```text
//! {"type": "ping"}
//! {"type": "stats"}
//! {"type": "submit", "jobs": [<spec>, <spec>, ...]}
//! {"type": "shutdown"}
//! ```
//!
//! A `submit` streams one `{"type": "job", ...}` event per result in
//! *completion* order (each tagged with its batch index); successful
//! events are followed by the result document **verbatim on its own
//! line**. Documents are compact canonical JSON, so one line always holds
//! one whole document — and shipping it verbatim (never re-encoded from a
//! parsed value) is what keeps cache hits byte-identical end to end. The
//! stream ends with a `{"type": "done", ...}` summary line.
//!
//! `shutdown` drains the service queue, stops the accept loop, and ends
//! the process-level `serve` command.
//!
//! Input is bounded: a request line holds at most [`MAX_REQUEST_BYTES`]
//! bytes and a submit at most [`MAX_SUBMIT_JOBS`] jobs. An over-cap request
//! gets one `{"type": "error", ...}` line, and the server closes that
//! connection.
//!
//! Both ends set `TCP_NODELAY` and send each protocol message with one
//! write. A message written in two pieces (its text, then its newline)
//! would otherwise hold the second piece under Nagle's algorithm until the
//! peer's delayed ACK, about 40 ms per direction on loopback.

use crate::job::{JobSpec, CODE_VERSION};
use crate::service::{JobStatus, Service, ServiceSnapshot};
use platoon_sim::harness::json::{self, Value};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most bytes a request line may hold before its newline. The largest full
/// experiment grid (Table IV, 66 jobs) submits in about 6.5 KB.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Most jobs one submit may carry: 4096 spelled specs still fit in
/// [`MAX_REQUEST_BYTES`].
pub const MAX_SUBMIT_JOBS: usize = 4096;

/// A listening protocol server wrapped around a [`Service`].
pub struct NetServer {
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop on its own thread. Each connection is served by a
    /// dedicated thread; the loop exits after a `shutdown` request.
    pub fn spawn(service: Arc<Service>, addr: &str) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = std::thread::Builder::new()
            .name("platoon-server-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let service = Arc::clone(&service);
                    let stop = Arc::clone(&stop);
                    let spawned = std::thread::Builder::new()
                        .name("platoon-server-conn".into())
                        .spawn(move || {
                            if let Err(e) = handle_connection(stream, &service, &stop, addr) {
                                eprintln!("connection error: {e}");
                            }
                        });
                    if let Err(e) = spawned {
                        eprintln!("cannot serve a connection: thread spawn failed: {e}");
                    }
                }
            })?;
        Ok(NetServer {
            addr,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (i.e. a client sent `shutdown`).
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// What the connection does after a request has been answered.
enum After {
    /// Read the next request.
    Serve,
    /// Stop the server.
    Shutdown,
    /// Send this error as the last line and close the connection.
    Reject(String),
}

fn handle_connection(
    stream: TcpStream,
    service: &Service,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        if (&mut reader).take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if !line.ends_with(b"\n") && line.len() > MAX_REQUEST_BYTES {
            let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
            return reject(&mut out, &message);
        }
        let after = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => handle_request(text.trim_end_matches(['\r', '\n']), service, &mut out)?,
            Err(_) => {
                writeln!(out, "{}", error_line("request is not UTF-8"))?;
                After::Serve
            }
        };
        out.flush()?;
        match after {
            After::Serve => {}
            After::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                service.shutdown();
                // The accept loop is blocked in `incoming()`; poke it awake
                // so it observes the stop flag and exits.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
            After::Reject(message) => return reject(&mut out, &message),
        }
    }
}

/// Sends `message` as the connection's last line and ends the stream. The
/// caller then closes the socket, which resets the connection when client
/// input is still unread; ending the stream first makes the client read the
/// line and then end-of-file rather than a reset.
fn reject(out: &mut BufWriter<TcpStream>, message: &str) -> io::Result<()> {
    writeln!(out, "{}", error_line(message))?;
    out.flush()?;
    out.get_ref().shutdown(Shutdown::Write)
}

/// Serves one request line.
fn handle_request(
    line: &str,
    service: &Service,
    out: &mut BufWriter<TcpStream>,
) -> io::Result<After> {
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            writeln!(out, "{}", error_line(&format!("bad request JSON: {e}")))?;
            return Ok(After::Serve);
        }
    };
    let kind = match parsed.get("type") {
        Some(Value::Str(s)) => s.clone(),
        _ => {
            writeln!(out, "{}", error_line("request needs a \"type\" field"))?;
            return Ok(After::Serve);
        }
    };
    match kind.as_str() {
        "ping" => {
            let mut w = json::Writer::compact();
            w.obj(|w| {
                w.field_str("type", "pong");
                w.field_str("code_version", CODE_VERSION);
            });
            writeln!(out, "{}", w.finish())?;
            Ok(After::Serve)
        }
        "stats" => {
            writeln!(out, "{}", stats_line(&service.snapshot()))?;
            Ok(After::Serve)
        }
        "shutdown" => {
            let mut w = json::Writer::compact();
            w.obj(|w| w.field_str("type", "ok"));
            writeln!(out, "{}", w.finish())?;
            Ok(After::Shutdown)
        }
        "submit" => {
            let specs = match parse_jobs(&parsed) {
                Ok(specs) if specs.len() > MAX_SUBMIT_JOBS => {
                    return Ok(After::Reject(format!(
                        "submit holds {} jobs, more than {MAX_SUBMIT_JOBS}",
                        specs.len()
                    )));
                }
                Ok(specs) => specs,
                Err(e) => {
                    writeln!(out, "{}", error_line(&e))?;
                    return Ok(After::Serve);
                }
            };
            let n = specs.len();
            let rx = service.submit_batch(specs);
            let (mut hits, mut executed, mut failed) = (0u64, 0u64, 0u64);
            for result in rx.into_iter().take(n) {
                match result.status {
                    JobStatus::Hit => hits += 1,
                    JobStatus::Executed => executed += 1,
                    JobStatus::Failed => failed += 1,
                }
                let mut w = json::Writer::compact();
                w.obj(|w| {
                    w.field_str("type", "job");
                    w.field_u64("index", result.index as u64);
                    w.field_str("label", &result.label);
                    w.field_str("key", &format!("{:016x}", result.key));
                    w.field_str(
                        "status",
                        match result.status {
                            JobStatus::Hit => "hit",
                            JobStatus::Executed => "done",
                            JobStatus::Failed => "failed",
                        },
                    );
                    if let Some(error) = &result.error {
                        w.field_str("error", error);
                    }
                    w.field_f64("queue_ms", result.timing.queue_wait.as_secs_f64() * 1e3);
                    w.field_f64("exec_ms", result.timing.execution.as_secs_f64() * 1e3);
                });
                writeln!(out, "{}", w.finish())?;
                if let Some(document) = &result.document {
                    writeln!(out, "{document}")?;
                }
                // Stream each result as it completes.
                out.flush()?;
            }
            let mut w = json::Writer::compact();
            w.obj(|w| {
                w.field_str("type", "done");
                w.field_u64("jobs", n as u64);
                w.field_u64("hits", hits);
                w.field_u64("executed", executed);
                w.field_u64("failed", failed);
            });
            writeln!(out, "{}", w.finish())?;
            Ok(After::Serve)
        }
        other => {
            writeln!(
                out,
                "{}",
                error_line(&format!("unknown request type {other:?}"))
            )?;
            Ok(After::Serve)
        }
    }
}

fn parse_jobs(request: &Value) -> Result<Vec<JobSpec>, String> {
    let jobs = match request.get("jobs") {
        Some(Value::Arr(jobs)) => jobs,
        _ => return Err("submit needs a \"jobs\" array".into()),
    };
    jobs.iter()
        .enumerate()
        .map(|(i, v)| JobSpec::from_json(v).map_err(|e| format!("jobs[{i}]: {e}")))
        .collect()
}

fn error_line(message: &str) -> String {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_str("type", "error");
        w.field_str("error", message);
    });
    w.finish()
}

/// The canonical stats document (one line): also the body of `submit`'s
/// stats document.
pub fn stats_line(snapshot: &ServiceSnapshot) -> String {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_str("type", "stats");
        w.field_str("code_version", CODE_VERSION);
        w.field_u64("submitted", snapshot.service.submitted);
        w.field_u64("hits", snapshot.service.hits);
        w.field_u64("coalesced", snapshot.service.coalesced);
        w.field_u64("executed", snapshot.service.executed);
        w.field_u64("failed", snapshot.service.failed);
        w.field_u64("cache_hits", snapshot.cache.hits);
        w.field_u64("cache_misses", snapshot.cache.misses);
        w.field_u64("cache_insertions", snapshot.cache.insertions);
        w.field_u64("cache_evictions", snapshot.cache.evictions);
        w.field_u64("cache_loaded", snapshot.cache.loaded);
        w.field_u64("cache_write_failures", snapshot.cache.write_failures);
        w.field_u64("cache_entries", snapshot.cache_entries as u64);
        w.field_u64("cache_bytes", snapshot.cache_bytes as u64);
    });
    w.finish()
}

/// One job result as seen by a protocol client. The document is the
/// verbatim line the server streamed — bytes preserved, never re-encoded.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientJobResult {
    /// Position in the submitted batch.
    pub index: usize,
    /// The spec's display label.
    pub label: String,
    /// The content-address key, as 16 hex digits.
    pub key: String,
    /// `hit`, `done`, or `failed`.
    pub status: String,
    /// The result document (`None` on failure).
    pub document: Option<String>,
    /// The failure reason (`None` on success).
    pub error: Option<String>,
}

impl ClientJobResult {
    /// Whether this result was served from the cache.
    pub fn is_hit(&self) -> bool {
        self.status == "hit"
    }
}

/// The submit request for `specs`. It only has to parse, not be canonical,
/// so it is built directly around the specs' canonical spellings.
fn submit_line(specs: &[JobSpec]) -> String {
    let mut line = String::from("{\"type\": \"submit\", \"jobs\": [");
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&spec.to_canonical_json());
    }
    line.push_str("]}");
    line
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`, retrying for up to `retry_for` (covering the
    /// serve-then-submit race in scripts that background the server).
    pub fn connect(addr: &str, retry_for: Option<Duration>) -> std::io::Result<Client> {
        let deadline = retry_for.map(|d| Instant::now() + d);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) => match deadline {
                    Some(deadline) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    _ => return Err(e),
                },
            }
        }
    }

    /// Sends `line` and its newline in one write.
    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut message = String::with_capacity(line.len() + 1);
        message.push_str(line);
        message.push('\n');
        self.writer
            .write_all(message.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Round-trips a ping, returning the server's code version.
    pub fn ping(&mut self) -> Result<String, String> {
        self.send("{\"type\": \"ping\"}")?;
        let reply = self.recv()?;
        let v = json::parse(&reply)?;
        match (v.get("type"), v.get("code_version")) {
            (Some(Value::Str(t)), Some(Value::Str(cv))) if t == "pong" => Ok(cv.clone()),
            _ => Err(format!("unexpected ping reply: {reply}")),
        }
    }

    /// Fetches the stats document line.
    pub fn stats(&mut self) -> Result<String, String> {
        self.send("{\"type\": \"stats\"}")?;
        let reply = self.recv()?;
        match json::parse(&reply)?.get("type") {
            Some(Value::Str(t)) if t == "stats" => Ok(reply),
            _ => Err(format!("unexpected stats reply: {reply}")),
        }
    }

    /// Submits a batch and collects every result, returned in submission
    /// order.
    pub fn submit(&mut self, specs: &[JobSpec]) -> Result<Vec<ClientJobResult>, String> {
        self.send(&submit_line(specs))?;

        let mut results = Vec::with_capacity(specs.len());
        loop {
            let event_line = self.recv()?;
            let event = json::parse(&event_line)?;
            let kind = match event.get("type") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("untyped event: {event_line}")),
            };
            match kind.as_str() {
                "job" => {
                    let status = match event.get("status") {
                        Some(Value::Str(s)) => s.clone(),
                        _ => return Err(format!("job event without status: {event_line}")),
                    };
                    let document = if status == "failed" {
                        None
                    } else {
                        Some(self.recv()?)
                    };
                    results.push(ClientJobResult {
                        index: event
                            .get("index")
                            .and_then(Value::as_f64)
                            .ok_or("job event without index")?
                            as usize,
                        label: match event.get("label") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => String::new(),
                        },
                        key: match event.get("key") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => String::new(),
                        },
                        status,
                        document,
                        error: match event.get("error") {
                            Some(Value::Str(s)) => Some(s.clone()),
                            _ => None,
                        },
                    });
                }
                "done" => break,
                "error" => {
                    return Err(match event.get("error") {
                        Some(Value::Str(e)) => e.clone(),
                        _ => event_line,
                    })
                }
                other => return Err(format!("unexpected event type {other:?}")),
            }
        }
        results.sort_by_key(|r| r.index);
        Ok(results)
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send("{\"type\": \"shutdown\"}")?;
        let reply = self.recv()?;
        match json::parse(&reply)?.get("type") {
            Some(Value::Str(t)) if t == "ok" => Ok(()),
            _ => Err(format!("unexpected shutdown reply: {reply}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::{experiment_grid, EXPERIMENTS};

    #[test]
    fn every_full_grid_fits_the_request_caps() {
        for name in EXPERIMENTS {
            let specs = experiment_grid(name, false).expect("a named grid");
            let line = submit_line(&specs);
            assert!(
                specs.len() <= MAX_SUBMIT_JOBS,
                "{name}: {} jobs",
                specs.len()
            );
            assert!(
                line.len() <= MAX_REQUEST_BYTES,
                "{name}: {} bytes",
                line.len()
            );
        }
    }
}
