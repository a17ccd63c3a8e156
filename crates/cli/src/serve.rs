//! `cfq repl` and `cfq serve` — long-lived front ends over one shared
//! session [`Engine`].
//!
//! Both speak the same line protocol, one request per line, and neither
//! knows what a line says: each hands it to a [`Dispatcher`] (the
//! protocol lives in `cfq_engine::dispatch`) and delivers the reply.
//! Because every connection and every REPL line goes through the same
//! engine, lattices and plans mined for one request serve the next — the
//! second identical query answers without touching the database, and
//! `:append` upgrades the cache in place via FUP instead of discarding it.
//!
//! What is here is what only a server needs:
//!
//! * **bounded worker model** — at most `--max-clients` concurrent
//!   connections, each on its own reaped thread; arrivals beyond the cap
//!   get a polite `busy:` reply instead of a hang, and finished handles
//!   are collected continuously so memory stays O(active connections);
//! * **accept resilience** — transient `accept()` errors (EMFILE,
//!   aborted handshakes) are logged and retried with a capped backoff
//!   instead of killing the listener;
//! * **framing** — a request is one line of at most [`MAX_REQUEST_LINE`]
//!   bytes of UTF-8; a longer or undecodable one is consumed to its
//!   newline and answered with a typed error, so the stream stays in step;
//! * **read timeouts** — a client idle past `--read-timeout` is told so
//!   and disconnected, freeing its worker;
//! * **graceful shutdown** — SIGINT (or the shutdown flag in
//!   [`ServeOptions`]) stops accepting, unblocks idle readers, and
//!   drains in-flight requests before the listener returns;
//! * **observability** — every request runs under `serve.conn` /
//!   `serve.request` tracing spans, and the server's [`ServerMetrics`]
//!   registry is exported in Prometheus text format through the
//!   `--metrics-addr` HTTP scrape listener as well as in band.

use crate::args::Args;
use crate::args::MiningArgs;
use crate::commands::{load, wants_help};
use cfq_engine::dispatch::PROTOCOL_HELP;
use cfq_engine::{Dispatcher, Engine, EngineConfig, ServerMetrics, SessionPool};
use cfq_obs::{self as obs, SlowLog};
use cfq_types::{CfqError, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the non-blocking accept loop polls for shutdown/reaping.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// First backoff after an accept error; doubles up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Ceiling for the accept-error backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(1000);

/// Longest request line a connection may send. The largest legitimate
/// request — two 1,000-item universes — is about 10 KB; without a cap a
/// client that never sends a newline grows the line buffer until the
/// process dies.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Bytes of reply a connection buffers before handing them to the socket.
/// Nearly every reply fits and goes out as one write; a larger one streams
/// through in chunks of this size, so no reply is ever held whole and a
/// connection's memory does not depend on what it asked for.
const REPLY_CHUNK: usize = 64 << 10;

/// Set by the SIGINT handler; checked by every accept/scrape loop.
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        SIGINT_SEEN.store(true, Ordering::SeqCst);
    }
    // `signal` comes from the libc Rust already links; declaring it
    // directly keeps the crate dependency-free (same spirit as the
    // vendored rand/proptest stubs).
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal(2)` with these arguments is the documented libc
    // call: SIGINT is a valid signal number and the handler is an
    // `extern "C" fn(i32)` that only performs an async-signal-safe
    // atomic store. The cast to `usize` matches the declaration above.
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Keeps glibc malloc to its one main arena. By default every thread gets
/// an arena of its own, and a connection's worker is a thread: what a
/// query's mining frees then sits at the top of that worker's arena until
/// a later free happens to exceed the (dynamic) trim threshold, and stays
/// there for good once the connection is gone, so the same server under
/// the same six requests held 14 to 20 MB depending on their order. The
/// main arena gives freed memory back the same way every time. The price
/// is one malloc lock for all connections: small blocks come from
/// per-thread caches and never take it, the filter and pair vectors of a
/// cache-served query do (a tenth of its throughput at two busy
/// connections).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn use_one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt(3)` takes two integers and sets a limit malloc
    // reads when a thread first allocates; called before any other thread
    // exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn use_one_malloc_arena() {}

/// Backoff after `consecutive` failed `accept()` calls in a row: 10ms
/// doubling to a 1s ceiling. Never gives up — only a failed `bind` is
/// fatal to the server; EMFILE and friends heal when load drops.
fn accept_backoff(consecutive: u32) -> Duration {
    let ms = ACCEPT_BACKOFF_MIN
        .as_millis()
        .saturating_mul(1u128 << consecutive.min(10))
        .min(ACCEPT_BACKOFF_MAX.as_millis());
    Duration::from_millis(ms as u64)
}

/// Drives the line protocol over arbitrary reader/writer pairs — the REPL
/// over stdin/stdout, or a test's in-memory buffers. (TCP connections go
/// through the timeout-aware worker loop in [`serve_connections`].)
pub fn repl_loop<R: BufRead, W: Write>(
    state: &mut Dispatcher,
    reader: R,
    mut writer: W,
    prompt: bool,
) -> Result<()> {
    if prompt {
        write!(writer, "cfq> ")?;
        writer.flush()?;
    }
    for line in reader.lines() {
        if !state.handle(&line?, &mut writer)? {
            break;
        }
        if prompt {
            write!(writer, "cfq> ")?;
        }
        writer.flush()?;
    }
    Ok(())
}

/// The options [`build_engine`] and [`install_tracing`] read besides
/// [`MiningArgs::OPTIONS`] — with those, all that `cfq repl` takes.
const ENGINE_OPTIONS: &[&str] = &[
    "data", "catalog", "trace", "max-inflight", "queue-depth", "wal-dir", "snapshot-every",
];
/// What `cfq serve` reads besides.
const SERVE_OPTIONS: &[&str] =
    &["listen", "metrics-addr", "max-clients", "read-timeout", "slow-ms"];

fn build_engine(a: &Args) -> Result<Arc<Engine>> {
    let (db, catalog) = load(a)?;
    let defaults = EngineConfig::default();
    let mining = MiningArgs::from_args(a, defaults.counting_threads)?;
    let mut builder = mining.apply_to(
        EngineConfig::builder()
            .max_inflight_queries(a.num("max-inflight", defaults.max_inflight_queries)?)
            .max_queued_queries(a.num("queue-depth", defaults.max_queued_queries)?),
    );
    if let Some(dir) = a.get("wal-dir") {
        builder = builder
            .wal_dir(dir)
            .snapshot_every(a.num("snapshot-every", defaults.snapshot_every)?);
    }
    let engine = Engine::with_config(db, catalog, builder.build())?;
    let d = engine.durability_stats();
    let mode = if d.enabled { "durable" } else { "ephemeral" };
    println!(
        "engine up ({mode}): {} transactions over {} items, epoch {}",
        engine.db().len(),
        engine.db().n_items(),
        engine.epoch(),
    );
    if d.replayed_records > 0 || d.last_snapshot_epoch > 0 {
        println!(
            "recovered from snapshot epoch {} + {} WAL records",
            d.last_snapshot_epoch, d.replayed_records
        );
    }
    Ok(engine)
}

/// Installs the tracing subscriber requested by `--trace LEVEL` (or the
/// `CFQ_TRACE` environment variable): a line-oriented formatter on
/// stderr.
fn install_tracing(a: &Args) -> Result<()> {
    let requested = a
        .get("trace")
        .map(str::to_string)
        .or_else(|| std::env::var("CFQ_TRACE").ok());
    let Some(name) = requested else { return Ok(()) };
    match obs::Level::parse(&name) {
        Some(Some(level)) => {
            obs::set_subscriber(Some(Arc::new(obs::FmtSubscriber::stderr(level))), Some(level));
            Ok(())
        }
        Some(None) => {
            obs::set_subscriber(None, None);
            Ok(())
        }
        None => Err(CfqError::Config(format!(
            "bad --trace level `{name}` (use error|warn|info|debug|trace|off)"
        ))),
    }
}

/// `cfq repl` — interactive session over stdin/stdout.
pub fn repl(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "cfq repl --data FILE [--catalog FILE] [--trace LEVEL]\n\n{PROTOCOL_HELP}"
        );
        return Ok(());
    }
    let a = Args::parse_known(argv, &[], &[ENGINE_OPTIONS, MiningArgs::OPTIONS].concat())?;
    install_tracing(&a)?;
    let engine = build_engine(&a)?;
    let defaults = ServeOptions::default();
    let pool = Arc::new(SessionPool::new(&engine, 1));
    let mut state = Dispatcher::new(pool, defaults.metrics, defaults.slow);
    let stdin = std::io::stdin();
    repl_loop(&mut state, stdin.lock(), std::io::stdout(), true)
}

/// Knobs of [`serve_connections`]; [`ServeOptions::default`] matches the
/// `cfq serve` CLI defaults.
pub struct ServeOptions {
    /// Stop after accepting this many connections (`None` = forever);
    /// used by tests and by drain-after-N workloads.
    pub max_conns: Option<usize>,
    /// Concurrent connection cap; arrivals beyond it get a `busy:` reply.
    pub max_clients: usize,
    /// Idle read (and write-stall) timeout per connection; `None` = no
    /// timeout.
    pub read_timeout: Option<Duration>,
    /// Cooperative shutdown flag — set it (or send SIGINT) to stop
    /// accepting and drain in-flight requests.
    pub shutdown: Arc<AtomicBool>,
    /// The server's metrics registry.
    pub metrics: Arc<ServerMetrics>,
    /// The server's slow-query log.
    pub slow: Arc<SlowLog>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_conns: None,
            max_clients: 64,
            read_timeout: Some(Duration::from_secs(300)),
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: ServerMetrics::new(),
            slow: Arc::new(SlowLog::new(Duration::from_millis(500), 64)),
        }
    }
}

impl ServeOptions {
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGINT_SEEN.load(Ordering::SeqCst)
    }
}

/// Why a connection's worker loop ended.
enum ConnEnd {
    /// The client said `:quit`.
    Quit,
    /// The client went away (EOF or I/O error) without `:quit`.
    Gone,
    /// The client idled past the read timeout.
    IdleTimeout,
}

/// Reads one request line of at most [`MAX_REQUEST_LINE`] bytes into
/// `line`, newline included, and returns the bytes consumed (0 at end of
/// input). A longer line is consumed to its newline and dropped, leaving
/// `line` empty, so the connection is back in step for the next request.
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<usize> {
    line.clear();
    let mut consumed = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', line)?;
    if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
        line.clear();
        loop {
            let chunk = reader.fill_buf()?;
            let (used, done) = match chunk.iter().position(|&b| b == b'\n') {
                Some(at) => (at + 1, true),
                None => (chunk.len(), chunk.is_empty()),
            };
            reader.consume(used);
            consumed += used;
            if done {
                break;
            }
        }
    }
    Ok(consumed)
}

/// A socket that counts what it is handed, under the reply buffer: the
/// count is bytes on the wire, whatever chunks they left in.
struct Counted {
    stream: TcpStream,
    bytes: u64,
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Serves one accepted connection until it quits, vanishes, or idles out.
/// Replies are encoded into one [`REPLY_CHUNK`]-byte buffer allocated
/// here, before the first request, and flushed at the end of each: one
/// socket write per reply, unless the reply is larger than the buffer.
fn serve_client(
    state: &mut Dispatcher,
    metrics: &ServerMetrics,
    stream: TcpStream,
    conn_id: u64,
) -> ConnEnd {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return ConnEnd::Gone,
    });
    let mut writer = BufWriter::with_capacity(REPLY_CHUNK, Counted { stream, bytes: 0 });
    let mut line = Vec::new();
    loop {
        match read_request_line(&mut reader, &mut line) {
            Ok(0) => return ConnEnd::Gone,
            Ok(n) => {
                metrics.bytes_in_total.add(n as u64);
                let _req = obs::span(obs::Level::Info, "serve.request").u64("conn", conn_id);
                // Either kind of bad line was consumed to its newline, so
                // the stream is in step and the connection stays.
                let replied = if line.is_empty() {
                    // Over the cap: `read_request_line` dropped it unread.
                    let why = format!(
                        "request line of {n} bytes exceeds the {MAX_REQUEST_LINE}-byte limit"
                    );
                    state.reject(why, &mut writer)
                } else {
                    match std::str::from_utf8(&line) {
                        Ok(text) => state.handle(text, &mut writer),
                        Err(e) => {
                            state.reject(format!("request line is not UTF-8: {e}"), &mut writer)
                        }
                    }
                };
                let start = Instant::now();
                match replied.and_then(|more| writer.flush().map(|()| more)) {
                    Ok(true) => {}
                    Ok(false) => return ConnEnd::Quit,
                    Err(_) => return ConnEnd::Gone,
                }
                let sent = std::mem::take(&mut writer.get_mut().bytes);
                if sent > 0 {
                    metrics.stage_seconds.write.observe(start.elapsed().as_secs_f64());
                    metrics.bytes_out_total.add(sent);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let _ = writeln!(writer, "idle timeout: closing connection");
                let _ = writer.flush();
                return ConnEnd::IdleTimeout;
            }
            Err(_) => return ConnEnd::Gone,
        }
    }
}

/// Accepts connections until shutdown (or `max_conns`), each served by
/// its own thread and [`Dispatcher`] over the shared engine. Worker
/// handles are reaped continuously; on shutdown, idle readers are
/// unblocked and in-flight requests drained before returning.
pub fn serve_connections(
    listener: TcpListener,
    engine: Arc<Engine>,
    opts: ServeOptions,
) -> Result<()> {
    listener.set_nonblocking(true)?;
    // One engine-wide session pool: every request from every connection
    // contends at the same scheduler gate, so admission order, single-flight
    // and overload are per-request, not per-connection.
    let pool = Arc::new(SessionPool::new(&engine, opts.max_clients));
    // Streams of live connections, so shutdown can unblock their readers.
    let live: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>> =
        Arc::new(Mutex::new(std::collections::HashMap::new()));
    let next_conn_id = AtomicU64::new(1);
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut accepted = 0usize;
    let mut accept_failures = 0u32;

    loop {
        if opts.shutdown_requested() {
            break;
        }
        // Reap finished workers so `handles` stays O(active connections)
        // even on a server that accepts forever.
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }

        match listener.accept() {
            Ok((stream, peer)) => {
                accept_failures = 0;
                accepted += 1;
                opts.metrics.connections_total.inc();
                obs::event(
                    obs::Level::Info,
                    "serve.accept",
                    &[("peer", obs::FieldValue::Str(peer.to_string()))],
                );
                if handles.len() >= opts.max_clients {
                    opts.metrics.connections_rejected_total.inc();
                    let mut s = stream;
                    let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = writeln!(
                        s,
                        "busy: connection limit {} reached, try again later",
                        opts.max_clients
                    );
                    // Dropping `s` closes the connection politely.
                } else {
                    // Accepted sockets must block again (some platforms
                    // inherit the listener's non-blocking flag) and honor
                    // the idle timeout both ways so a stalled client
                    // cannot pin a worker on read *or* write. Nagle is
                    // off: replies are single short lines, and letting
                    // them sit out a delayed ACK puts a ~40ms floor
                    // under every request-reply round trip.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(opts.read_timeout);
                    let _ = stream.set_write_timeout(opts.read_timeout);
                    let conn_id = next_conn_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        live.lock().unwrap_or_else(|e| e.into_inner()).insert(conn_id, clone);
                    }
                    opts.metrics.connections_open.add(1);
                    let pool = Arc::clone(&pool);
                    let metrics = Arc::clone(&opts.metrics);
                    let slow = Arc::clone(&opts.slow);
                    let live = Arc::clone(&live);
                    handles.push(std::thread::spawn(move || {
                        let _conn = obs::span(obs::Level::Info, "serve.conn").u64("id", conn_id);
                        let mut state = Dispatcher::new(pool, Arc::clone(&metrics), slow);
                        let end = serve_client(&mut state, &metrics, stream, conn_id);
                        live.lock().unwrap_or_else(|e| e.into_inner()).remove(&conn_id);
                        metrics.connections_open.add(-1);
                        match end {
                            ConnEnd::Quit => {}
                            ConnEnd::Gone => metrics.disconnects_total.inc(),
                            ConnEnd::IdleTimeout => metrics.read_timeouts_total.inc(),
                        }
                    }));
                }
                if let Some(cap) = opts.max_conns {
                    if accepted >= cap {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => {
                // Transient failure (EMFILE under load, aborted
                // handshake): log, back off, keep listening. Bind-level
                // errors already failed before this loop.
                opts.metrics.accept_errors_total.inc();
                let backoff = accept_backoff(accept_failures);
                accept_failures = accept_failures.saturating_add(1);
                obs::event(
                    obs::Level::Warn,
                    "serve.accept_error",
                    &[
                        ("error", obs::FieldValue::Str(e.to_string())),
                        ("backoff_ms", obs::FieldValue::U64(backoff.as_millis() as u64)),
                    ],
                );
                eprintln!("accept error (retrying in {}ms): {e}", backoff.as_millis());
                std::thread::sleep(backoff);
            }
        }
    }

    // Graceful drain: stop idle readers (their current request, if any,
    // still completes and its reply still flushes — only the read side
    // closes), then wait for every worker.
    if opts.shutdown_requested() {
        for (_, s) in live.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = s.shutdown(Shutdown::Read);
        }
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

/// Serves `GET /metrics`-style scrapes over plain HTTP on `listener`:
/// any request gets a `200 text/plain` with the current registry
/// rendering. Runs until shutdown.
fn metrics_listener(
    listener: TcpListener,
    engine: Arc<Engine>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = listener.set_nonblocking(true);
    loop {
        if shutdown.load(Ordering::SeqCst) || SIGINT_SEEN.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = s.set_write_timeout(Some(Duration::from_secs(2)));
                // Read (and discard) the request head; the reply is the
                // same for every path.
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                let body = metrics.render(&engine);
                let _ = write!(
                    s,
                    "HTTP/1.1 200 OK\r\n\
                     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     Content-Length: {}\r\n\
                     Connection: close\r\n\r\n{body}",
                    body.len(),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// `cfq serve` — the line protocol over TCP; all connections share one
/// engine, so one client's mining warms every client's cache.
pub fn serve(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "cfq serve --data FILE [--catalog FILE] [--listen ADDR (default 127.0.0.1:7878)]\n\
             [--metrics-addr ADDR]   export Prometheus metrics over HTTP\n\
             [--max-clients N]       concurrent connection cap (default 64)\n\
             [--max-inflight N]      concurrently executing queries (default 256, 0 = unlimited)\n\
             [--queue-depth N]       admission queue beyond the in-flight cap (default 1024, 0 = unlimited)\n\
             [--read-timeout SECS]   idle client timeout (default 300, 0 = none)\n\
             [--threads N]           default support-counting threads (0 = all cores; default 1)\n\
             [--trim on|off]         default per-level database reduction (default on)\n\
             [--backend NAME]        default counting backend (horizontal|tidset|bitmap|auto)\n\
             [--wal-dir DIR]         durable mode: WAL + snapshots in DIR, warm restart on boot\n\
             [--snapshot-every N]    snapshot cadence in appends (default 8, 0 = manual :snapshot only)\n\
             [--slow-ms MS]          slow-query log threshold (default 500)\n\
             [--trace LEVEL]         stderr tracing (error|warn|info|debug|trace)\n\n\
             protocol: one request per line\n{PROTOCOL_HELP}\n\n\
             SIGINT drains in-flight requests before exiting."
        );
        return Ok(());
    }
    let options = [ENGINE_OPTIONS, MiningArgs::OPTIONS, SERVE_OPTIONS].concat();
    let a = Args::parse_known(argv, &[], &options)?;
    use_one_malloc_arena();
    install_tracing(&a)?;
    let engine = build_engine(&a)?;
    let addr = a.get("listen").unwrap_or("127.0.0.1:7878");
    let listener = TcpListener::bind(addr)?;
    println!("listening on {}", listener.local_addr()?);

    let read_timeout_secs: f64 = a.num("read-timeout", 300.0f64)?;
    if read_timeout_secs < 0.0 {
        return Err(CfqError::Config("--read-timeout must be >= 0".into()));
    }
    let opts = ServeOptions {
        max_clients: a.num("max-clients", 64usize)?.max(1),
        read_timeout: (read_timeout_secs > 0.0)
            .then(|| Duration::from_secs_f64(read_timeout_secs)),
        slow: Arc::new(SlowLog::new(
            Duration::from_millis(a.num("slow-ms", 500u64)?),
            64,
        )),
        ..ServeOptions::default()
    };

    install_sigint_handler();

    let mut metrics_thread = None;
    if let Some(maddr) = a.get("metrics-addr") {
        let mlistener = TcpListener::bind(maddr)?;
        println!("metrics on http://{}", mlistener.local_addr()?);
        let engine = Arc::clone(&engine);
        let metrics = Arc::clone(&opts.metrics);
        let shutdown = Arc::clone(&opts.shutdown);
        metrics_thread = Some(std::thread::spawn(move || {
            metrics_listener(mlistener, engine, metrics, shutdown)
        }));
    }

    let result = serve_connections(listener, engine, opts);
    if let Some(h) = metrics_thread {
        let _ = h.join();
    }
    println!("shut down cleanly");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_engine::json;
    use cfq_types::{CatalogBuilder, TransactionDb};
    use std::io::Cursor;

    fn engine() -> Arc<Engine> {
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        let db = TransactionDb::from_u32(
            6,
            &[
                &[0, 1, 2, 3],
                &[0, 1, 2],
                &[1, 2, 3, 4],
                &[0, 2, 4],
                &[0, 1, 3, 5],
                &[2, 3, 4, 5],
                &[0, 1, 2, 3, 4],
                &[1, 3, 5],
            ],
        );
        Engine::new(db, b.build()).unwrap()
    }

    const Q: &str = "max(S.Price) <= 30 & min(T.Price) >= 40";

    #[test]
    fn repl_loop_runs_queries_and_commands() {
        let pool = Arc::new(SessionPool::new(&engine(), 1));
        let mut state = Dispatcher::new(pool, ServerMetrics::new(), ServeOptions::default().slow);
        let input = format!(":support 0.25\n{Q}\n{Q}\n:stats\n:quit\nnever reached\n");
        let mut out = Vec::new();
        repl_loop(&mut state, Cursor::new(input), &mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("min support fraction set to 0.25"), "{text}");
        assert!(text.contains("valid pairs"), "{text}");
        // The second identical query is served from the cache.
        assert!(text.contains("cache hit (reused mined lattice)"), "{text}");
        assert!(text.contains("| 0 db scans |"), "{text}");
        assert!(text.contains("lattice cache: 2 entries"), "{text}");
        assert!(!text.contains("never reached"), "{text}");
    }

    #[test]
    fn serve_answers_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let eng = engine();
        let opts = ServeOptions { max_conns: Some(1), ..ServeOptions::default() };
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));

        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, ":support 0.25\n{Q}\n:quit\n").unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        let mut text = String::new();
        BufReader::new(conn).read_to_string(&mut text).unwrap();
        assert!(text.contains("valid pairs"), "{text}");

        server.join().unwrap().unwrap();
    }

    /// Sends one line and reads one reply line.
    fn ask(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &[u8]) -> String {
        conn.write_all(line).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    }

    fn error_kind_of(reply: &str) -> String {
        let v = json::parse(reply).unwrap_or_else(|e| panic!("non-JSON reply: {reply} ({e})"));
        v.get("error").and_then(|e| e.get("kind")).and_then(json::Json::as_str).unwrap().to_string()
    }

    /// Two lines that used to take the whole server down — 200,000 open
    /// brackets (stack overflow in the recursive JSON parser) and a line
    /// with no end in sight (unbounded `read_line`) — and one that used to
    /// lose the client its connection without a word (bytes that are not
    /// UTF-8) each get a typed `protocol` error, and the same connection
    /// then gets a good answer.
    #[test]
    fn nesting_bomb_and_overlong_line_get_typed_errors_and_the_server_lives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics = ServerMetrics::new();
        let opts = ServeOptions {
            max_conns: Some(1),
            metrics: Arc::clone(&metrics),
            ..ServeOptions::default()
        };
        let eng = engine();
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        let bomb = format!("{{\"v\":1,\"cmd\":\"query\",\"req\":{}", "[".repeat(200_000));
        let reply = ask(&mut conn, &mut reader, bomb.as_bytes());
        assert_eq!(error_kind_of(&reply), "protocol", "{reply}");
        assert!(reply.contains("nesting deeper than"), "{reply}");

        // Over the cap by a few bytes, and split UTF-8 at the cap for
        // good measure: the line is dropped unread, not decoded.
        let mut long = vec![b'a'; MAX_REQUEST_LINE];
        long.extend_from_slice("ééé".as_bytes());
        let reply = ask(&mut conn, &mut reader, &long);
        assert_eq!(error_kind_of(&reply), "protocol", "{reply}");
        assert!(reply.contains("exceeds the 1048576-byte limit"), "{reply}");

        // A line of exactly the cap is still read (and is a bad query).
        let reply = ask(&mut conn, &mut reader, &vec![b'a'; MAX_REQUEST_LINE]);
        assert!(reply.starts_with("error:"), "{}", &reply[..reply.len().min(200)]);

        let reply = ask(&mut conn, &mut reader, b"\xff\xfe");
        assert_eq!(error_kind_of(&reply), "protocol", "{reply}");
        assert!(reply.contains("not UTF-8"), "{reply}");

        let reply = ask(&mut conn, &mut reader, b"{\"v\":1,\"cmd\":\"status\"}");
        let v = json::parse(&reply).unwrap();
        assert_eq!(v.get("result").unwrap().get("epoch").unwrap().as_u64(), Some(0), "{reply}");
        assert_eq!(metrics.query_errors_total.get(), 4);

        ask(&mut conn, &mut reader, b":quit");
        server.join().unwrap().unwrap();
    }

    /// A reply over a megabyte arrives as exactly one newline-terminated
    /// line, the byte counter equals what was on the wire, and the stage
    /// histograms saw the request.
    #[test]
    fn megabyte_reply_is_one_line_and_every_byte_is_counted() {
        // Ten items in every row: 1,023 frequent sets a side, a million
        // valid pairs, 120,000 of them materialised.
        let rows: Vec<Vec<u32>> = vec![(0..10).collect(); 4];
        let rows: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        let eng = Engine::new(
            TransactionDb::from_u32(10, &rows),
            cfq_types::Catalog::empty(10),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServeOptions { max_conns: Some(1), ..ServeOptions::default() };
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        let big = ask(
            &mut conn,
            &mut reader,
            b"{\"v\":1,\"cmd\":\"query\",\"req\":{\"query\":\"count(S) >= 1\",\
              \"support\":{\"abs\":1},\"max_pairs\":120000}}",
        );
        assert!(big.len() > 1_000_000, "only {} bytes", big.len());
        assert!(big.ends_with("}}\n") && big.matches('\n').count() == 1);
        let v = json::parse(&big).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(result.get("pair_count").unwrap().as_u64(), Some(1023 * 1023));
        assert_eq!(result.get("pairs").unwrap().as_arr().unwrap().len(), 120_000);
        assert_eq!(result.get("s_sets").unwrap().as_arr().unwrap().len(), 1023);

        // The scrape is rendered before its own reply is written, so it
        // counts exactly the one big line.
        let scrape = ask(&mut conn, &mut reader, b"{\"v\":1,\"cmd\":\"metrics\"}");
        let scrape = json::parse(&scrape).unwrap();
        let text = scrape.get("result").unwrap().get("text").unwrap().as_str().unwrap();
        for needle in [
            format!("cfq_bytes_out_total {}", big.len()),
            "cfq_request_stage_seconds_count{stage=\"plan\"} 1".to_string(),
            "cfq_request_stage_seconds_count{stage=\"s_lattice\"} 1".to_string(),
            "cfq_request_stage_seconds_count{stage=\"t_lattice\"} 1".to_string(),
            "cfq_request_stage_seconds_count{stage=\"pairs\"} 1".to_string(),
            "cfq_request_stage_seconds_count{stage=\"encode\"} 1".to_string(),
            "cfq_request_stage_seconds_count{stage=\"write\"} 1".to_string(),
        ] {
            assert!(text.contains(&needle), "missing `{needle}` in:\n{text}");
        }

        ask(&mut conn, &mut reader, b":quit");
        server.join().unwrap().unwrap();
    }

    /// Sends one query on the healthy connection and asserts it answers.
    fn pump(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
        writeln!(conn, "{Q}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("valid pairs"), "healthy client broken: {reply}");
    }

    /// Polls `cond` (pumping the healthy connection so it never idles out)
    /// until it holds or a deadline passes.
    fn pump_until(
        conn: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        what: &str,
        cond: impl Fn() -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            pump(conn, reader);
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// The four failure modes of ISSUE 4, all against one server, while a
    /// healthy connection keeps getting answers: a client that sends a
    /// malformed query, one that idles past the read timeout, one that
    /// arrives at the connection cap, and one that disconnects mid-line.
    #[test]
    fn concurrent_misbehaving_clients_do_not_starve_a_healthy_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics = ServerMetrics::new();
        let opts = ServeOptions {
            max_conns: Some(5),
            max_clients: 2,
            read_timeout: Some(Duration::from_millis(400)),
            metrics: Arc::clone(&metrics),
            ..ServeOptions::default()
        };
        let eng = engine();
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));

        // Healthy client: holds its connection through all the chaos.
        let mut healthy = TcpStream::connect(addr).unwrap();
        let mut healthy_rd = BufReader::new(healthy.try_clone().unwrap());
        writeln!(healthy, ":support 0.25").unwrap();
        let mut reply = String::new();
        healthy_rd.read_line(&mut reply).unwrap();
        assert!(reply.contains("set to 0.25"), "{reply}");
        pump(&mut healthy, &mut healthy_rd);

        // Malformed query: gets an error reply, not a dropped server.
        {
            let mut bad = TcpStream::connect(addr).unwrap();
            let mut bad_rd = BufReader::new(bad.try_clone().unwrap());
            writeln!(bad, "max(S.Price <= oops").unwrap();
            let mut reply = String::new();
            bad_rd.read_line(&mut reply).unwrap();
            assert!(reply.contains("error:"), "{reply}");
            writeln!(bad, ":quit").unwrap();
        }
        pump_until(&mut healthy, &mut healthy_rd, "malformed client to drain", || {
            metrics.connections_open.get() == 1
        });
        // Give the accept loop a beat to reap the finished worker so the
        // cap below counts live connections only.
        std::thread::sleep(Duration::from_millis(100));

        // Idle client: connects, says nothing.
        let idler = TcpStream::connect(addr).unwrap();
        pump_until(&mut healthy, &mut healthy_rd, "idler to be accepted", || {
            metrics.connections_open.get() == 2
        });

        // At the cap (healthy + idler): the next arrival is told "busy".
        {
            let capped = TcpStream::connect(addr).unwrap();
            let mut reply = String::new();
            BufReader::new(capped).read_line(&mut reply).unwrap();
            assert!(reply.contains("busy: connection limit 2"), "{reply}");
        }

        // The idler times out and is told why; the healthy client keeps
        // getting answers the whole time.
        pump_until(&mut healthy, &mut healthy_rd, "idler to time out", || {
            metrics.read_timeouts_total.get() == 1
        });
        let mut idle_reply = String::new();
        let mut idler_rd = BufReader::new(idler);
        idler_rd.read_to_string(&mut idle_reply).unwrap();
        assert!(idle_reply.contains("idle timeout"), "{idle_reply}");

        // Mid-line disconnect: half a query, no newline, gone.
        {
            let mut gone = TcpStream::connect(addr).unwrap();
            write!(gone, "max(S.Pr").unwrap();
            gone.shutdown(Shutdown::Write).unwrap();
        }
        pump_until(&mut healthy, &mut healthy_rd, "mid-line disconnect", || {
            metrics.disconnects_total.get() == 1
        });

        // The healthy client still works and the scrape reflects all four
        // outcomes.
        pump(&mut healthy, &mut healthy_rd);
        write!(healthy, "{{\"v\":1,\"cmd\":\"metrics\"}}\n:quit\n").unwrap();
        let mut scrape = String::new();
        healthy_rd.read_to_string(&mut scrape).unwrap();
        for needle in [
            "cfq_connections_total 5",
            "cfq_connections_rejected_total 1",
            "cfq_read_timeouts_total 1",
            "cfq_disconnects_total 1",
            // The malformed line and the mid-line fragment both errored.
            "cfq_query_errors_total 2",
        ] {
            assert!(scrape.contains(needle), "missing `{needle}` in:\n{scrape}");
        }
        let healthy_queries = metrics.queries_total.get();
        assert!(scrape.contains(&format!("cfq_queries_total {healthy_queries}")), "{scrape}");
        assert!(healthy_queries >= 3, "healthy client answered throughout");

        server.join().unwrap().unwrap();
    }

    /// Envelope clients pushed past `--max-inflight` must see *only*
    /// well-formed v1 envelopes back: a result, or a typed error object
    /// with kind `overloaded` and the `"overloaded":true` back-off flag.
    /// No prose, no half-written lines, no unknown kinds.
    #[test]
    fn overload_rejections_over_tcp_are_typed_envelopes() {
        // Ten items in every row: each side's lattice is the 1,023
        // non-empty subsets, and every query counts a million pairs
        // (materializing none). One query executes at a time and one may
        // queue, so clients released together pile up past the gate.
        let all: Vec<u32> = (0..10).collect();
        let mut b = CatalogBuilder::new(10);
        b.num_attr("Price", (0..10).map(f64::from).collect()).unwrap();
        let config = EngineConfig::builder().max_inflight_queries(1).max_queued_queries(1).build();
        let eng =
            Engine::with_config(TransactionDb::from_u32(10, &[&all, &all]), b.build(), config)
                .unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        const CLIENTS: usize = 6;
        let opts = ServeOptions { max_conns: Some(CLIENTS), ..ServeOptions::default() };
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));

        let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let mut rd = BufReader::new(conn.try_clone().unwrap());
                    let mut replies = Vec::new();
                    barrier.wait();
                    for _ in 0..3 {
                        writeln!(
                            conn,
                            "{{\"v\":1,\"cmd\":\"query\",\"req\":{{\"query\":\
                             \"max(S.Price) <= min(T.Price)\",\"support\":{{\"abs\":1}},\
                             \"max_pairs\":0}}}}"
                        )
                        .unwrap();
                        let mut reply = String::new();
                        rd.read_line(&mut reply).unwrap();
                        replies.push(reply);
                    }
                    writeln!(conn, ":quit").unwrap();
                    replies
                })
            })
            .collect();
        let replies: Vec<String> =
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        server.join().unwrap().unwrap();

        let mut ok = 0usize;
        let mut overloaded = 0usize;
        for reply in &replies {
            let v = json::parse(reply)
                .unwrap_or_else(|e| panic!("non-JSON reply: {reply} ({e})"));
            assert_eq!(v.get("v").unwrap().as_u64(), Some(1), "{reply}");
            match (v.get("result"), v.get("error")) {
                (Some(result), None) => {
                    assert!(result.get("pair_count").unwrap().as_u64().is_some(), "{reply}");
                    ok += 1;
                }
                (None, Some(err)) => {
                    // The *only* acceptable error under pure overload.
                    assert_eq!(
                        err.get("kind").unwrap().as_str(),
                        Some("overloaded"),
                        "{reply}"
                    );
                    assert_eq!(err.get("overloaded").unwrap().as_bool(), Some(true), "{reply}");
                    assert!(
                        err.get("message").unwrap().as_str().unwrap().starts_with("overloaded:"),
                        "{reply}"
                    );
                    overloaded += 1;
                }
                _ => panic!("reply is neither result nor error envelope: {reply}"),
            }
        }
        assert_eq!(ok + overloaded, CLIENTS * 3);
        assert!(ok >= 1, "at least the first leader must answer");
        assert!(overloaded >= 1, "the gate must have rejected someone");
    }

    #[test]
    fn shutdown_flag_drains_and_returns() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions { shutdown: Arc::clone(&shutdown), ..ServeOptions::default() };
        let eng = engine();
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));

        // A client blocked in read: shutdown must unblock it, not hang.
        let mut conn = TcpStream::connect(addr).unwrap();
        writeln!(conn, ":support 0.25").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("set to 0.25"), "{reply}");

        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn options_neither_command_reads_are_rejected_before_anything_runs() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for (run, args, name) in [
            (serve as fn(_) -> _, &["--data", "d.txt", "--max-client", "4"][..], "max-client"),
            (repl, &["--data", "d.txt", "--listen", ":0"][..], "listen"),
            // A removed option is refused by name, never read.
            (serve, &["--data", "d.txt", "--follow", "wal"][..], "follow"),
            (repl, &["--data", "d.txt", "--follow", "wal"][..], "follow"),
        ] {
            match run(argv(args)) {
                Err(CfqError::Config(msg)) => assert_eq!(msg, format!("unknown option --{name}")),
                other => panic!("{args:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn accept_backoff_is_capped_and_monotonic() {
        assert_eq!(accept_backoff(0), Duration::from_millis(10));
        assert_eq!(accept_backoff(1), Duration::from_millis(20));
        for i in 1..20 {
            assert!(accept_backoff(i) >= accept_backoff(i - 1));
            assert!(accept_backoff(i) <= ACCEPT_BACKOFF_MAX);
        }
        assert_eq!(accept_backoff(30), ACCEPT_BACKOFF_MAX, "ceiling holds for huge streaks");
        // u32::MAX must not overflow the shift.
        assert_eq!(accept_backoff(u32::MAX), ACCEPT_BACKOFF_MAX);
    }

}
