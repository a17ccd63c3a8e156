//! `cfq repl` and `cfq serve` — long-lived front ends over one shared
//! session [`Engine`].
//!
//! Both speak the same line protocol (one request per line, handled by
//! [`handle_line`]): a CFQ conjunction runs as a query, `:`-prefixed
//! lines are control commands. Because every connection and every REPL
//! line goes through the same engine, lattices and plans mined for one
//! request serve the next — the second identical query answers without
//! touching the database, and `:append` upgrades the cache in place via
//! FUP instead of discarding it.
//!
//! The server side is built for unattended operation:
//!
//! * **bounded worker model** — at most `--max-clients` concurrent
//!   connections, each on its own reaped thread; arrivals beyond the cap
//!   get a polite `busy:` reply instead of a hang, and finished handles
//!   are collected continuously so memory stays O(active connections);
//! * **accept resilience** — transient `accept()` errors (EMFILE,
//!   aborted handshakes) are logged and retried with a capped backoff
//!   instead of killing the listener;
//! * **read timeouts** — a client idle past `--read-timeout` is told so
//!   and disconnected, freeing its worker;
//! * **graceful shutdown** — SIGINT (or the shutdown flag in
//!   [`ServeOptions`]) stops accepting, unblocks idle readers, and
//!   drains in-flight requests before the listener returns;
//! * **observability** — every request runs under `serve.conn` /
//!   `serve.request` tracing spans, a [`ServerMetrics`] registry is
//!   exported in Prometheus text format through the `:metrics` command
//!   and the `--metrics-addr` HTTP scrape listener, and queries slower
//!   than `--slow-ms` land in the `:slowlog` ring with plan fingerprint,
//!   provenance, and level-by-level timings.

use crate::args::Args;
use crate::args::MiningArgs;
use crate::commands::{load, parse_strategy, wants_help};
use cfq_core::Optimizer;
use cfq_datagen::io;
use cfq_engine::wal::WalTailer;
use cfq_engine::{
    json, wire, Engine, EngineConfig, QueryOutcome, QueryRequest, QueryResponse, SessionPool,
};
use cfq_obs::{self as obs, Counter, Gauge, Histogram, Registry, SlowLevel, SlowLog, SlowQuery};
use cfq_types::{CfqError, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PROTOCOL_HELP: &str = "\
the machine protocol is the v1 JSON envelope: one JSON object per line,
one JSON reply per line. A CFQ conjunction typed bare still runs as a
query, and `:`-prefixed operator commands remain for humans.
v1 envelope:
  {\"v\":1,\"cmd\":\"query\",\"req\":{...}}   run a QueryRequest
  {\"v\":1,\"cmd\":\"metrics\"}             Prometheus text dump
  {\"v\":1,\"cmd\":\"slowlog\"}             recent slow queries
  {\"v\":1,\"cmd\":\"status\"}              engine + durability status object
  {\"v\":1,\"cmd\":\"snapshot\"}            write a snapshot now, rotate the WAL
  replies are {\"v\":1,\"result\":...} or
  {\"v\":1,\"error\":{\"kind\":\"...\",\"message\":\"...\"}}; unknown versions
  are rejected with kind \"unsupported_version\".
operator commands:
  :explain QUERY     show the plan and predicted cache provenance
  :append FILE       append a transaction file as a new epoch (FUP upgrade;
                     WAL-logged and fsynced before the ack under --wal-dir)
  :support FRAC      set the minimum support fraction in (0, 1] (default 0.01)
  :strategy NAME     set the planning strategy (full|cap1|apriori+)
  :stats             show cache counters and epoch
  :wal-status        one-line durability status (mode, WAL/snapshot counters)
  :snapshot          write a snapshot now and rotate the WAL
  :help              this message
  :quit              leave
legacy commands (answered only under `cfq serve --legacy-protocol`, and
in `cfq repl`; otherwise rejected with kind \"unsupported_command\"):
  :json REQUEST      run a JSON QueryRequest (use the envelope `query` cmd)
  :metrics           dump the metrics registry (use the envelope `metrics` cmd)
  :slowlog           show recent slow queries (use the envelope `slowlog` cmd)
replies: a saturated engine answers `overloaded: ...` (plain queries) or
a JSON error object with \"overloaded\":true (envelope and :json); back
off and retry.";

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

/// The server's metric families over one [`Registry`], plus handles for
/// the hot counters. Engine-owned counters (cache hits, epoch) are
/// synced from [`Engine::cache_stats`] at render time so a scrape is
/// always exact.
pub struct ServerMetrics {
    registry: Registry,
    /// Queries answered successfully.
    pub queries_total: Arc<Counter>,
    /// Queries that failed (parse error, bad config, execution error).
    pub query_errors_total: Arc<Counter>,
    /// End-to-end query latency in seconds.
    pub query_seconds: Arc<Histogram>,
    /// Queries recorded by the slow-query log.
    pub slow_queries_total: Arc<Counter>,
    /// Database scans performed by queries.
    pub db_scans_total: Arc<Counter>,
    /// `:append` epochs installed.
    pub appends_total: Arc<Counter>,
    /// Connections accepted (including ones rejected at the cap).
    pub connections_total: Arc<Counter>,
    /// Connections currently being served.
    pub connections_open: Arc<Gauge>,
    /// Connections turned away with a `busy:` reply at the cap.
    pub connections_rejected_total: Arc<Counter>,
    /// Connections closed for idling past the read timeout.
    pub read_timeouts_total: Arc<Counter>,
    /// Connections that ended without `:quit` (client vanished).
    pub disconnects_total: Arc<Counter>,
    /// Transient `accept()` failures survived.
    pub accept_errors_total: Arc<Counter>,
    /// Request bytes read from clients.
    pub bytes_in_total: Arc<Counter>,
    /// Reply bytes written to clients.
    pub bytes_out_total: Arc<Counter>,
    /// Time queries spent waiting at the scheduler's admission gate.
    pub scheduler_wait_seconds: Arc<Histogram>,
    /// Where a request's time went, `cfq_request_stage_seconds{stage=…}`.
    pub stage_seconds: StageSeconds,
    // Synced from the engine at render time:
    mining_passes: Arc<Counter>,
    sched_coalesced: Arc<Counter>,
    sched_batched: Arc<Counter>,
    sched_overloaded: Arc<Counter>,
    sched_queue_depth: Arc<Gauge>,
    sched_inflight: Arc<Gauge>,
    lattice_hits: Arc<Counter>,
    lattice_misses: Arc<Counter>,
    scans_saved: Arc<Counter>,
    plan_hits: Arc<Counter>,
    plan_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_oversize: Arc<Counter>,
    cache_stale_drops: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    cache_budget_bytes: Arc<Gauge>,
    epoch: Arc<Gauge>,
    transactions: Arc<Gauge>,
    wal_records: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    wal_replayed: Arc<Counter>,
    snapshot_writes: Arc<Counter>,
    snapshot_bytes: Arc<Counter>,
    snapshot_last_epoch: Arc<Gauge>,
}

/// One histogram per stage of a request, in path order. The first four
/// are [`cfq_engine::StageMicros`] as the engine measured them; `encode`
/// and `write` are the server's own. Together with the admission wait
/// they add up to what a client sees, less the socket's transit.
pub struct StageSeconds {
    /// Snapshot, parse, bind, plan.
    pub plan: Arc<Histogram>,
    /// S lattice: cache lookup or mining, then this query's filter.
    pub s_lattice: Arc<Histogram>,
    /// T lattice.
    pub t_lattice: Arc<Histogram>,
    /// Pair formation and compaction.
    pub pairs: Arc<Histogram>,
    /// Outcome to reply bytes (envelope queries) — including, for a reply
    /// larger than the connection's buffer, the chunks that went to the
    /// socket on the way.
    pub encode: Arc<Histogram>,
    /// Flushing what is left of a reply to the socket (every reply on a
    /// served connection).
    pub write: Arc<Histogram>,
}

impl ServerMetrics {
    /// Creates the family set over a fresh registry. Each server (and
    /// each test) gets its own so parallel instances do not bleed into
    /// each other's scrapes.
    pub fn new() -> Arc<ServerMetrics> {
        let r = Registry::new();
        let stage = |stage: &str| {
            r.histogram_with(
                "cfq_request_stage_seconds",
                "Time per stage of a request: plan, s_lattice, t_lattice, pairs, encode, write.",
                &[("stage", stage)],
                &obs::wait_buckets(),
            )
        };
        let stage_seconds = StageSeconds {
            plan: stage("plan"),
            s_lattice: stage("s_lattice"),
            t_lattice: stage("t_lattice"),
            pairs: stage("pairs"),
            encode: stage("encode"),
            write: stage("write"),
        };
        Arc::new(ServerMetrics {
            stage_seconds,
            queries_total: r.counter("cfq_queries_total", "Queries answered successfully."),
            query_errors_total: r.counter(
                "cfq_query_errors_total",
                "Queries that failed to parse, plan, or execute.",
            ),
            query_seconds: r.histogram(
                "cfq_query_seconds",
                "End-to-end query latency in seconds.",
                &obs::latency_buckets(),
            ),
            slow_queries_total: r
                .counter("cfq_slow_queries_total", "Queries recorded by the slow-query log."),
            db_scans_total: r
                .counter("cfq_db_scans_total", "Database scans performed by queries."),
            appends_total: r.counter("cfq_appends_total", ":append epochs installed."),
            connections_total: r.counter("cfq_connections_total", "Connections accepted."),
            connections_open: r
                .gauge("cfq_connections_open", "Connections currently being served."),
            connections_rejected_total: r.counter(
                "cfq_connections_rejected_total",
                "Connections turned away at the --max-clients cap.",
            ),
            read_timeouts_total: r.counter(
                "cfq_read_timeouts_total",
                "Connections closed for idling past --read-timeout.",
            ),
            disconnects_total: r.counter(
                "cfq_disconnects_total",
                "Connections that ended without :quit.",
            ),
            accept_errors_total: r
                .counter("cfq_accept_errors_total", "Transient accept() failures survived."),
            bytes_in_total: r.counter("cfq_bytes_in_total", "Request bytes read from clients."),
            bytes_out_total: r.counter("cfq_bytes_out_total", "Reply bytes written to clients."),
            scheduler_wait_seconds: r.histogram(
                "cfq_scheduler_wait_seconds",
                "Time queries spent waiting at the scheduler's admission gate.",
                &obs::wait_buckets(),
            ),
            mining_passes: r.counter(
                "cfq_mining_passes_total",
                "Lattice mining passes the engine actually executed.",
            ),
            sched_coalesced: r.counter(
                "cfq_scheduler_coalesced_total",
                "Queries that joined another query's in-flight mining.",
            ),
            sched_batched: r.counter(
                "cfq_scheduler_batched_total",
                "Joiners whose support differed from the group's (true batches).",
            ),
            sched_overloaded: r.counter(
                "cfq_scheduler_overloaded_total",
                "Queries rejected at admission with `overloaded`.",
            ),
            sched_queue_depth: r.gauge(
                "cfq_scheduler_queue_depth",
                "Queries waiting for an execution slot right now.",
            ),
            sched_inflight: r.gauge(
                "cfq_scheduler_inflight",
                "Queries executing right now.",
            ),
            lattice_hits: r
                .counter("cfq_lattice_hits_total", "Queries whose lattice came from the cache."),
            lattice_misses: r
                .counter("cfq_lattice_misses_total", "Queries that had to mine a lattice."),
            scans_saved: r
                .counter("cfq_scans_saved_total", "Database scans avoided by lattice cache hits."),
            plan_hits: r.counter("cfq_plan_hits_total", "Plans served from the plan cache."),
            plan_misses: r.counter("cfq_plan_misses_total", "Plans built fresh."),
            cache_evictions: r
                .counter("cfq_cache_evictions_total", "Lattice entries evicted under the byte budget."),
            cache_oversize: r.counter(
                "cfq_cache_oversize_rejections_total",
                "Lattices larger than the whole budget, rejected at insert.",
            ),
            cache_stale_drops: r.counter(
                "cfq_cache_stale_drops_total",
                "Fresh minings dropped because an append moved the epoch mid-query.",
            ),
            cache_entries: r.gauge("cfq_cache_entries", "Live lattice cache entries."),
            cache_bytes: r.gauge("cfq_cache_bytes", "Bytes held by lattice cache entries."),
            cache_budget_bytes: r
                .gauge("cfq_cache_budget_bytes", "Configured lattice cache byte budget."),
            epoch: r.gauge("cfq_epoch", "Current engine epoch."),
            transactions: r.gauge("cfq_transactions", "Transactions in the current epoch."),
            wal_records: r
                .counter("cfq_wal_records_total", "WAL records written by this process."),
            wal_bytes: r
                .counter("cfq_wal_bytes_total", "WAL payload bytes written by this process."),
            wal_fsyncs: r.counter("cfq_wal_fsyncs_total", "WAL fsyncs issued by this process."),
            wal_replayed: r.counter(
                "cfq_wal_replayed_records_total",
                "WAL records replayed (boot recovery plus replica tailing).",
            ),
            snapshot_writes: r
                .counter("cfq_snapshot_writes_total", "Snapshots written by this process."),
            snapshot_bytes: r
                .counter("cfq_snapshot_bytes_total", "Snapshot bytes written by this process."),
            snapshot_last_epoch: r.gauge(
                "cfq_snapshot_last_epoch",
                "Epoch of the newest snapshot written or recovered from.",
            ),
            registry: r,
        })
    }

    /// The per-strategy query counter (`cfq_queries_by_strategy_total`).
    pub fn strategy_counter(&self, strategy: &str) -> Arc<Counter> {
        self.registry.counter_with(
            "cfq_queries_by_strategy_total",
            "Queries answered successfully, by planning strategy.",
            &[("strategy", strategy)],
        )
    }

    /// Syncs the engine-owned counters and renders every family in
    /// Prometheus text format, followed by the process-global registry
    /// (mining backend counters like `cfq_mining_backend_selected_total`
    /// live there — they are recorded deep inside the counting loops,
    /// not per-server).
    pub fn render(&self, engine: &Engine) -> String {
        let s = engine.cache_stats();
        self.lattice_hits.store(s.lattice_hits);
        self.lattice_misses.store(s.lattice_misses);
        self.scans_saved.store(s.scans_saved);
        self.plan_hits.store(s.plan_hits);
        self.plan_misses.store(s.plan_misses);
        self.cache_evictions.store(s.evictions);
        self.cache_oversize.store(s.oversize_rejections);
        self.cache_stale_drops.store(s.stale_drops);
        self.cache_entries.set(s.entries as i64);
        self.cache_bytes.set(s.bytes_used as i64);
        self.cache_budget_bytes.set(s.budget_bytes as i64);
        self.epoch.set(engine.epoch() as i64);
        self.transactions.set(engine.db().len() as i64);
        let sched = engine.scheduler_stats();
        self.mining_passes.store(sched.mining_passes);
        self.sched_coalesced.store(sched.coalesced);
        self.sched_batched.store(sched.batched);
        self.sched_overloaded.store(sched.overloaded);
        self.sched_queue_depth.set(sched.queued as i64);
        self.sched_inflight.set(sched.inflight as i64);
        let d = engine.durability_stats();
        self.wal_records.store(d.wal_records);
        self.wal_bytes.store(d.wal_bytes);
        self.wal_fsyncs.store(d.wal_fsyncs);
        self.wal_replayed.store(d.replayed_records);
        self.snapshot_writes.store(d.snapshot_writes);
        self.snapshot_bytes.store(d.snapshot_bytes);
        self.snapshot_last_epoch.set(d.last_snapshot_epoch as i64);
        let mut out = self.registry.render();
        out.push_str(&obs::metrics::global().render());
        out
    }
}

/// Per-connection (or per-REPL) mutable state over the shared engine.
/// Queries run through a [`SessionPool`] — server-wide when constructed
/// with [`ReplState::with_pool`] — so scheduler fairness is
/// per-*request*, not per-connection.
pub struct ReplState {
    engine: Arc<Engine>,
    pool: Arc<SessionPool>,
    support_frac: f64,
    strategy: Optimizer,
    strategy_name: String,
    metrics: Arc<ServerMetrics>,
    slow: Arc<SlowLog>,
    /// Whether the deprecated `:json`/`:metrics`/`:slowlog` line commands
    /// are answered. Off for served connections unless the server was
    /// started with `--legacy-protocol`; the interactive REPL keeps them.
    legacy_protocol: bool,
}

impl ReplState {
    /// Fresh state with the CLI defaults (1% support, full optimizer)
    /// and its own metrics registry / slow log — what the interactive
    /// REPL uses. Legacy line commands stay available here: deprecation
    /// targets wire clients, not a human at a prompt.
    pub fn new(engine: Arc<Engine>) -> ReplState {
        ReplState::with_observability(
            engine,
            ServerMetrics::new(),
            Arc::new(SlowLog::new(Duration::from_millis(500), 64)),
        )
        .with_legacy_protocol(true)
    }

    /// Sets whether the deprecated `:json`/`:metrics`/`:slowlog` line
    /// commands are answered (versus a typed `unsupported_command`
    /// rejection pointing at the v1 envelope).
    pub fn with_legacy_protocol(mut self, on: bool) -> ReplState {
        self.legacy_protocol = on;
        self
    }

    /// State sharing a server-wide metrics registry and slow log, with
    /// its own single-session pool (one REPL = one client).
    pub fn with_observability(
        engine: Arc<Engine>,
        metrics: Arc<ServerMetrics>,
        slow: Arc<SlowLog>,
    ) -> ReplState {
        let pool = Arc::new(SessionPool::new(&engine, 1));
        ReplState::with_pool(pool, metrics, slow)
    }

    /// State over a shared server-wide [`SessionPool`] — what
    /// [`serve_connections`] hands every connection so all requests
    /// contend at one scheduler gate.
    pub fn with_pool(
        pool: Arc<SessionPool>,
        metrics: Arc<ServerMetrics>,
        slow: Arc<SlowLog>,
    ) -> ReplState {
        ReplState {
            engine: Arc::clone(pool.engine()),
            pool,
            support_frac: 0.01,
            strategy: Optimizer::default(),
            strategy_name: "full".to_string(),
            metrics,
            slow,
            legacy_protocol: false,
        }
    }
}

/// Whether a line is addressed to the v1 JSON envelope rather than the
/// CFQ parser. A JSON object continues `{` with a quoted key (or closes
/// immediately); a CFQ set literal (`{Snacks} subseteq S.Type`)
/// continues with a bare ident or number, so the two never collide.
fn looks_like_envelope(line: &str) -> bool {
    let mut chars = line.trim_start().chars();
    chars.next() == Some('{')
        && matches!(chars.find(|c| !c.is_whitespace()), Some('"') | Some('}'))
}

/// Writes `reply` and its newline to `out` — nothing for an empty reply,
/// so a blank request line stays unanswered.
fn push_line(out: &mut impl Write, reply: &str) -> std::io::Result<()> {
    if reply.is_empty() {
        return Ok(());
    }
    out.write_all(reply.as_bytes())?;
    out.write_all(b"\n")
}

/// Handles one protocol line: writes the reply line, newline included,
/// to `out`, and returns `false` on `:quit`. The only error is `out`'s.
/// Query and command errors are rendered into the reply — a bad query
/// must not kill a shared server loop. JSON-object lines go to the v1
/// envelope and *always* reply with one JSON object, never prose.
fn write_reply(state: &mut ReplState, line: &str, out: &mut impl Write) -> std::io::Result<bool> {
    let line = line.trim();
    if line == ":quit" || line == ":q" {
        return Ok(false);
    }
    if looks_like_envelope(line) {
        run_envelope(state, line, out)?;
    } else if !line.is_empty() {
        let reply = dispatch(state, line).unwrap_or_else(|e| match e {
            // Overload is back-pressure, not a malfunction: the Display
            // form already starts with `overloaded:`, which clients key off.
            CfqError::Overloaded(_) => e.to_string(),
            _ => format!("error: {e}"),
        });
        push_line(out, &reply)?;
    }
    Ok(true)
}

/// The typed rejection a gated legacy command gets: one JSON object with
/// `"kind":"unsupported_command"` pointing the client at the envelope
/// form (and at `--legacy-protocol` for the transition period). JSON
/// even for the text commands, so wire clients never parse prose.
fn legacy_gated(cmd: &str, envelope_cmd: &str) -> String {
    let mut out = String::from("{\"error\":");
    json::write_escaped(
        &mut out,
        &format!(
            ":{cmd} is a legacy command; send {{\"v\":1,\"cmd\":\"{envelope_cmd}\"{}}} \
             instead, or start the server with --legacy-protocol",
            if envelope_cmd == "query" { ",\"req\":{...}" } else { "" },
        ),
    );
    out.push_str(",\"kind\":\"unsupported_command\"}");
    out
}

fn dispatch(state: &mut ReplState, line: &str) -> Result<String> {
    if let Some(rest) = line.strip_prefix(':') {
        let (cmd, arg) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        // The deprecated pre-envelope commands are answered only when
        // legacy mode is on; everything else (`:stats`, `:append`, ...)
        // is operator surface, not a machine protocol, and stays.
        if !state.legacy_protocol {
            if let Some(envelope_cmd) = match cmd {
                "json" => Some("query"),
                "metrics" => Some("metrics"),
                "slowlog" => Some("slowlog"),
                _ => None,
            } {
                return Ok(legacy_gated(cmd, envelope_cmd));
            }
        }
        return match cmd {
            "help" => Ok(PROTOCOL_HELP.to_string()),
            "json" => Ok(run_json(state, arg)),
            "stats" => {
                let s = state.engine.cache_stats();
                Ok(format!(
                    "epoch {} | {} transactions | lattice cache: {} entries, {}/{} KiB, \
                     {} hits / {} misses, {} scans saved, {} evictions | plan cache: {} hits / {} misses",
                    state.engine.epoch(),
                    state.engine.db().len(),
                    s.entries,
                    s.bytes_used / 1024,
                    s.budget_bytes / 1024,
                    s.lattice_hits,
                    s.lattice_misses,
                    s.scans_saved,
                    s.evictions,
                    s.plan_hits,
                    s.plan_misses,
                ))
            }
            "metrics" => Ok(state.metrics.render(&state.engine)),
            "slowlog" => Ok(state.slow.render()),
            "wal-status" => {
                let d = state.engine.durability_stats();
                if !d.enabled {
                    return Ok("durability off (ephemeral engine; start with --wal-dir)".into());
                }
                Ok(format!(
                    "{} | epoch {} | wal: {} records, {} bytes, {} fsyncs, {} replayed | \
                     snapshots: {} written ({} bytes), last at epoch {}",
                    if d.follow { "replica (--follow)" } else { "primary" },
                    state.engine.epoch(),
                    d.wal_records,
                    d.wal_bytes,
                    d.wal_fsyncs,
                    d.replayed_records,
                    d.snapshot_writes,
                    d.snapshot_bytes,
                    d.last_snapshot_epoch,
                ))
            }
            "snapshot" => {
                let info = state.engine.snapshot_now()?;
                Ok(format!(
                    "snapshot written: epoch {} ({} bytes) at {}",
                    info.epoch,
                    info.bytes,
                    info.path.display(),
                ))
            }
            "support" => {
                let f: f64 = arg
                    .parse()
                    .map_err(|_| CfqError::Config(format!("bad support fraction `{arg}`")))?;
                // Mirror `Session::min_support_frac`: zero is rejected,
                // not silently treated as "support 1 transaction".
                if !(f > 0.0 && f <= 1.0) {
                    return Err(CfqError::Config(format!(
                        "support fraction {f} is outside (0, 1]"
                    )));
                }
                state.support_frac = f;
                Ok(format!("min support fraction set to {f}"))
            }
            "strategy" => {
                state.strategy = parse_strategy(Some(arg))?;
                state.strategy_name = arg.to_string();
                Ok(format!("strategy set to {arg}"))
            }
            "explain" => {
                if arg.is_empty() {
                    return Err(CfqError::Config(":explain needs a query".into()));
                }
                state
                    .pool
                    .session()
                    .query(arg)
                    .min_support_frac(state.support_frac)
                    .strategy(state.strategy)
                    .explain()
            }
            "append" => {
                if arg.is_empty() {
                    return Err(CfqError::Config(":append needs a transaction file".into()));
                }
                let delta = io::load_transactions(arg)?;
                let rows = delta.len();
                let info = state.engine.append(delta)?;
                state.metrics.appends_total.inc();
                Ok(format!(
                    "appended {rows} transactions: now epoch {} with {} transactions; \
                     {} cached lattice(s) FUP-upgraded ({} old-db recounts)",
                    info.epoch, info.transactions, info.upgraded_lattices, info.old_db_recounts,
                ))
            }
            other => Err(CfqError::Config(format!("unknown command `:{other}` (try :help)"))),
        };
    }

    // Anything else is a query.
    run_query(state, line)
}

/// Runs one query line, recording latency, outcome metrics, and (when
/// slow enough) a slow-query log entry.
fn run_query(state: &mut ReplState, line: &str) -> Result<String> {
    let start = Instant::now();
    let result = state
        .pool
        .session()
        .query(line)
        .min_support_frac(state.support_frac)
        .strategy(state.strategy)
        .run();
    let elapsed = start.elapsed();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            state.metrics.query_errors_total.inc();
            return Err(e);
        }
    };

    state.metrics.queries_total.inc();
    state.metrics.strategy_counter(&state.strategy_name).inc();
    state.metrics.query_seconds.observe(elapsed.as_secs_f64());
    state.metrics.scheduler_wait_seconds.observe(out.admission_wait.as_secs_f64());
    state.metrics.db_scans_total.add(out.outcome.db_scans);

    let p = &out.outcome.provenance;
    let slow = SlowQuery {
        query: line.to_string(),
        fingerprint: out.plan_fingerprint(),
        provenance: format!("[S] {} [T] {}", p.s_lattice.describe(), p.t_lattice.describe()),
        total: elapsed,
        db_scans: out.outcome.db_scans,
        levels: out
            .outcome
            .s_stats
            .levels
            .iter()
            .chain(out.outcome.t_stats.levels.iter())
            .map(|l| SlowLevel {
                level: l.level,
                candidates: l.candidates,
                frequent: l.frequent,
                micros: l.micros,
            })
            .collect(),
    };
    if state.slow.maybe_record(slow) {
        state.metrics.slow_queries_total.inc();
        obs::event(
            obs::Level::Warn,
            "serve.slow_query",
            &[
                ("seconds", obs::FieldValue::F64(elapsed.as_secs_f64())),
                ("query", obs::FieldValue::Str(line.to_string())),
            ],
        );
    }

    Ok(format!(
        "{} valid pairs ({} S-sets x {} T-sets) | epoch {} | {} db scans | [S] {} [T] {} | {:.3}s",
        out.pair_count(),
        out.outcome.s_sets.len(),
        out.outcome.t_sets.len(),
        out.epoch,
        out.outcome.db_scans,
        p.s_lattice.describe(),
        p.t_lattice.describe(),
        elapsed.as_secs_f64(),
    ))
}

/// Renders an error as the one-line JSON object `:json` clients expect.
/// Every error carries a machine-dispatchable `"kind"` field; overload
/// rejections additionally carry `"overloaded":true` so a machine client
/// can back off without string-matching the message. (The v1 envelope
/// wraps the same kinds in `{"v":1,"error":{...}}` — see
/// [`cfq_engine::wire`].)
fn json_error(e: &CfqError) -> String {
    let mut out = String::from("{\"error\":");
    json::write_escaped(&mut out, &e.to_string());
    out.push_str(",\"kind\":");
    json::write_escaped(&mut out, wire::error_kind(e));
    if matches!(e, CfqError::Overloaded(_)) {
        out.push_str(",\"overloaded\":true");
    }
    out.push('}');
    out
}

/// Executes one [`QueryRequest`], recording latency, outcome metrics
/// and (when slow enough) a slow-query log entry — the shared engine
/// room behind both the legacy `:json` command and the v1 envelope,
/// which each encode the outcome their own way.
fn run_request(state: &mut ReplState, req: &QueryRequest) -> Result<QueryOutcome> {
    let start = Instant::now();
    let result = state.pool.session().execute(req);
    let elapsed = start.elapsed();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            state.metrics.query_errors_total.inc();
            return Err(e);
        }
    };

    state.metrics.queries_total.inc();
    state.metrics.strategy_counter(req.strategy.name().unwrap_or("custom")).inc();
    state.metrics.query_seconds.observe(elapsed.as_secs_f64());
    state.metrics.scheduler_wait_seconds.observe(out.admission_wait.as_secs_f64());
    state.metrics.db_scans_total.add(out.outcome.db_scans);
    let stages = &state.metrics.stage_seconds;
    for (histogram, micros) in [
        (&stages.plan, out.stage_us.plan),
        (&stages.s_lattice, out.stage_us.s_lattice),
        (&stages.t_lattice, out.stage_us.t_lattice),
        (&stages.pairs, out.stage_us.pairs),
    ] {
        histogram.observe(micros as f64 / 1e6);
    }

    let p = &out.outcome.provenance;
    let slow = SlowQuery {
        query: req.query.clone(),
        fingerprint: out.plan_fingerprint(),
        provenance: format!("[S] {} [T] {}", p.s_lattice.describe(), p.t_lattice.describe()),
        total: elapsed,
        db_scans: out.outcome.db_scans,
        levels: out
            .outcome
            .s_stats
            .levels
            .iter()
            .chain(out.outcome.t_stats.levels.iter())
            .map(|l| SlowLevel {
                level: l.level,
                candidates: l.candidates,
                frequent: l.frequent,
                micros: l.micros,
            })
            .collect(),
    };
    if state.slow.maybe_record(slow) {
        state.metrics.slow_queries_total.inc();
    }

    Ok(out)
}

/// Runs one `:json REQUEST` line (the deprecated pre-envelope form).
/// Always replies with exactly one JSON line — a [`QueryResponse`] on
/// success, an error object otherwise — so wire clients never parse
/// prose.
fn run_json(state: &mut ReplState, arg: &str) -> String {
    if arg.is_empty() {
        return json_error(&CfqError::Config(":json needs a request object (try :help)".into()));
    }
    let req = match QueryRequest::from_json(arg) {
        Ok(req) => req,
        Err(e) => {
            state.metrics.query_errors_total.inc();
            return json_error(&e);
        }
    };
    match run_request(state, &req) {
        Ok(out) => QueryResponse::from_outcome(&out).to_json(),
        Err(e) => json_error(&e),
    }
}

/// The `status` command's result object: serving mode plus the epoch,
/// cache, and durability counters a control plane watches.
fn status_json(state: &ReplState) -> String {
    use std::fmt::Write as _;
    let d = state.engine.durability_stats();
    let mode = if !d.enabled {
        "ephemeral"
    } else if d.follow {
        "replica"
    } else {
        "primary"
    };
    let c = state.engine.cache_stats();
    let mut out = String::from("{\"mode\":\"");
    out.push_str(mode);
    let _ = write!(
        out,
        "\",\"epoch\":{},\"transactions\":{},\"cache_entries\":{},\"cache_bytes\":{},\
         \"wal_records\":{},\"wal_bytes\":{},\"replayed_records\":{},\
         \"snapshot_writes\":{},\"last_snapshot_epoch\":{}}}",
        state.engine.epoch(),
        state.engine.db().len(),
        c.entries,
        c.bytes_used,
        d.wal_records,
        d.wal_bytes,
        d.replayed_records,
        d.snapshot_writes,
        d.last_snapshot_epoch,
    );
    out
}

/// Handles one v1 envelope line. Always writes exactly one JSON envelope
/// line to `out` — `{"v":1,"result":...}` or a typed error object. An
/// answered query is encoded from its outcome straight into `out`;
/// every other reply is small and goes through a `String`.
fn run_envelope(state: &mut ReplState, line: &str, out: &mut impl Write) -> std::io::Result<()> {
    let cmd = match wire::parse_envelope(line) {
        Ok(cmd) => cmd,
        Err(e) => {
            state.metrics.query_errors_total.inc();
            return push_line(out, &e.render());
        }
    };
    let reply = match cmd {
        wire::WireCmd::Query(req) => match run_request(state, &req) {
            Ok(outcome) => {
                let start = Instant::now();
                wire::write_query_reply(out, &outcome)?;
                state.metrics.stage_seconds.encode.observe(start.elapsed().as_secs_f64());
                return Ok(());
            }
            Err(e) => wire::error_from(&e),
        },
        wire::WireCmd::Metrics => wire::text_result(&state.metrics.render(&state.engine)),
        wire::WireCmd::Slowlog => wire::text_result(&state.slow.render()),
        wire::WireCmd::Status => wire::result_object(&status_json(state)),
        wire::WireCmd::Snapshot => match state.engine.snapshot_now() {
            Ok(info) => {
                let mut body = format!("{{\"epoch\":{},\"bytes\":{},\"path\":", info.epoch, info.bytes);
                json::write_escaped(&mut body, &info.path.display().to_string());
                body.push('}');
                wire::result_object(&body)
            }
            Err(e) => wire::error_from(&e),
        },
    };
    push_line(out, &reply)
}

/// Drives the line protocol over arbitrary reader/writer pairs — the REPL
/// over stdin/stdout, or a test's in-memory buffers. (TCP connections go
/// through the timeout-aware worker loop in [`serve_connections`].)
pub fn repl_loop<R: BufRead, W: Write>(
    state: &mut ReplState,
    reader: R,
    mut writer: W,
    prompt: bool,
) -> Result<()> {
    if prompt {
        write!(writer, "cfq> ")?;
        writer.flush()?;
    }
    for line in reader.lines() {
        if !write_reply(state, &line?, &mut writer)? {
            break;
        }
        if prompt {
            write!(writer, "cfq> ")?;
        }
        writer.flush()?;
    }
    Ok(())
}

fn build_engine(a: &Args) -> Result<Arc<Engine>> {
    let (db, catalog) = load(a)?;
    let defaults = EngineConfig::default();
    let mining = MiningArgs::from_args(a, defaults.counting_threads)?;
    let mut builder = mining.apply_to(
        EngineConfig::builder()
            .max_inflight_queries(a.num("max-inflight", defaults.max_inflight_queries)?)
            .max_queued_queries(a.num("queue-depth", defaults.max_queued_queries)?)
            .batch_window_ms(a.num("batch-window-ms", defaults.batch_window.as_millis() as u64)?),
    );
    match (a.get("wal-dir"), a.get("follow")) {
        (Some(_), Some(_)) => {
            return Err(CfqError::Config(
                "--wal-dir and --follow are mutually exclusive: a primary owns its WAL \
                 directory, a replica only tails one"
                    .into(),
            ));
        }
        (Some(dir), None) => {
            builder = builder
                .wal_dir(dir)
                .snapshot_every(a.num("snapshot-every", defaults.snapshot_every)?);
        }
        (None, Some(dir)) => {
            builder = builder.wal_dir(dir).follow(true);
        }
        (None, None) => {}
    }
    let engine = Engine::with_config(db, catalog, builder.build())?;
    let d = engine.durability_stats();
    let mode = if !d.enabled {
        "ephemeral"
    } else if d.follow {
        "replica"
    } else {
        "durable"
    };
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

/// Tails the primary's WAL directory on a `--follow` replica: polls for
/// new fsynced records and replays them, keeping the replica's epoch
/// (and FUP-maintained caches) converged with the writer. Runs until
/// shutdown; transient read errors back off and retry, since the
/// primary may be mid-rotation.
fn follow_wal(engine: Arc<Engine>, dir: PathBuf, shutdown: Arc<AtomicBool>) {
    let mut tailer = WalTailer::new(&dir, engine.epoch() + 1);
    loop {
        if shutdown.load(Ordering::SeqCst) || SIGINT_SEEN.load(Ordering::SeqCst) {
            return;
        }
        match tailer.poll() {
            Ok(records) => {
                let caught_up = records.is_empty();
                for rec in records {
                    if let Err(e) = engine.replay_append(rec.delta) {
                        eprintln!("replica replay failed at epoch {}: {e}", rec.epoch);
                        return;
                    }
                }
                if caught_up {
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            Err(e) => {
                eprintln!("replica WAL poll error (will retry): {e}");
                std::thread::sleep(Duration::from_millis(500));
            }
        }
    }
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
    let a = Args::parse(argv, &[])?;
    install_tracing(&a)?;
    let engine = build_engine(&a)?;
    let mut state = ReplState::new(engine);
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
    /// Answer the deprecated `:json`/`:metrics`/`:slowlog` line commands
    /// (`--legacy-protocol`). Off by default: the v1 envelope is the
    /// wire protocol.
    pub legacy_protocol: bool,
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
            legacy_protocol: false,
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
fn serve_client(state: &mut ReplState, stream: TcpStream, conn_id: u64) -> ConnEnd {
    let metrics = Arc::clone(&state.metrics);
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
                let replied = if line.is_empty() {
                    // Over the cap: `read_request_line` dropped it unread.
                    metrics.query_errors_total.inc();
                    let e = wire::WireError {
                        kind: "protocol",
                        message: format!(
                            "request line of {n} bytes exceeds the {MAX_REQUEST_LINE}-byte limit"
                        ),
                    };
                    push_line(&mut writer, &e.render()).map(|()| true)
                } else {
                    // Not UTF-8: not a protocol this server speaks.
                    let Ok(text) = std::str::from_utf8(&line) else { return ConnEnd::Gone };
                    write_reply(state, text, &mut writer)
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
/// its own thread and [`ReplState`] over the shared engine. Worker
/// handles are reaped continuously; on shutdown, idle readers are
/// unblocked and in-flight requests drained before returning.
pub fn serve_connections(
    listener: TcpListener,
    engine: Arc<Engine>,
    opts: ServeOptions,
) -> Result<()> {
    listener.set_nonblocking(true)?;
    // One engine-wide session pool: every request from every connection
    // contends at the same scheduler gate, so admission order, batching
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
                    let legacy = opts.legacy_protocol;
                    handles.push(std::thread::spawn(move || {
                        let _conn = obs::span(obs::Level::Info, "serve.conn").u64("id", conn_id);
                        let mut state = ReplState::with_pool(pool, Arc::clone(&metrics), slow)
                            .with_legacy_protocol(legacy);
                        let end = serve_client(&mut state, stream, conn_id);
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
             [--batch-window-ms MS]  cold-mining batch window (default 2, 0 = single-flight only)\n\
             [--read-timeout SECS]   idle client timeout (default 300, 0 = none)\n\
             [--legacy-protocol]     answer the deprecated :json/:metrics/:slowlog line commands\n\
             [--threads N]           default support-counting threads (0 = all cores; default 1)\n\
             [--trim on|off]         default per-level database reduction (default on)\n\
             [--backend NAME]        default counting backend (horizontal|tidset|bitmap|auto)\n\
             [--shards N]            default horizontal shard count for counting (default 1)\n\
             [--wal-dir DIR]         durable mode: WAL + snapshots in DIR, warm restart on boot\n\
             [--snapshot-every N]    snapshot cadence in appends (default 8, 0 = manual :snapshot only)\n\
             [--follow DIR]          read replica: tail the primary's WAL DIR (read-only)\n\
             [--slow-ms MS]          slow-query log threshold (default 500)\n\
             [--trace LEVEL]         stderr tracing (error|warn|info|debug|trace)\n\n\
             protocol: one request per line\n{PROTOCOL_HELP}\n\n\
             SIGINT drains in-flight requests before exiting."
        );
        return Ok(());
    }
    use_one_malloc_arena();
    let a = Args::parse(argv, &["legacy-protocol"])?;
    install_tracing(&a)?;
    let engine = build_engine(&a)?;
    let addr = a.get("listen").unwrap_or("127.0.0.1:7878");
    let listener = TcpListener::bind(addr)?;
    println!("listening on {}", listener.local_addr()?);
    let legacy_protocol = a.flag("legacy-protocol");
    if legacy_protocol {
        println!("protocol: v1 envelope + legacy line commands (--legacy-protocol)");
    } else {
        println!("protocol: v1 envelope (legacy :json/:metrics/:slowlog disabled)");
    }

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
        legacy_protocol,
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

    let mut follow_thread = None;
    if engine.config().follow {
        if let Some(dir) = engine.config().wal_dir.clone() {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&opts.shutdown);
            follow_thread = Some(std::thread::spawn(move || follow_wal(engine, dir, shutdown)));
        }
    }

    let result = serve_connections(listener, engine, opts);
    if let Some(h) = follow_thread {
        let _ = h.join();
    }
    if let Some(h) = metrics_thread {
        let _ = h.join();
    }
    println!("shut down cleanly");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// One line in, the reply text out (`None` on `:quit`): what a
    /// connection would have been sent, less the newline.
    fn handle_line(state: &mut ReplState, line: &str) -> Option<String> {
        let mut out = Vec::new();
        if !write_reply(state, line, &mut out).unwrap() {
            return None;
        }
        assert!(out.is_empty() || out.pop() == Some(b'\n'), "a reply is one terminated line");
        Some(String::from_utf8(out).unwrap())
    }

    #[test]
    fn repl_loop_runs_queries_and_commands() {
        let mut state = ReplState::new(engine());
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
    fn bad_lines_reply_with_errors_not_death() {
        let mut state = ReplState::new(engine());
        for (line, needle) in [
            ("max(S.Price <= 30", "error:"),
            (":support nope", "bad support fraction"),
            (":wat", "unknown command"),
            (":explain", ":explain needs a query"),
        ] {
            let reply = handle_line(&mut state, line).unwrap();
            assert!(reply.contains(needle), "{line} -> {reply}");
        }
        assert!(handle_line(&mut state, ":quit").is_none());
    }

    #[test]
    fn zero_support_is_rejected_with_a_clear_error() {
        // Regression: `:support 0` used to pass the `[0, 1]` range check
        // and silently mean "support 1 transaction".
        let mut state = ReplState::new(engine());
        let reply = handle_line(&mut state, ":support 0").unwrap();
        assert_eq!(
            reply,
            "error: configuration error: support fraction 0 is outside (0, 1]"
        );
        let reply = handle_line(&mut state, ":support -0.5").unwrap();
        assert!(reply.contains("outside (0, 1]"), "{reply}");
        // The stored fraction is untouched and valid values still work.
        let reply = handle_line(&mut state, ":support 0.25").unwrap();
        assert!(reply.contains("set to 0.25"), "{reply}");
    }

    #[test]
    fn append_command_bumps_epoch_and_keeps_cache_warm() {
        let mut state = ReplState::new(engine());
        assert!(handle_line(&mut state, ":support 0.25").is_some());
        handle_line(&mut state, Q).unwrap();

        let path = std::env::temp_dir().join("cfq_serve_append_test.txt");
        let delta = TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5]]);
        io::save_transactions(&delta, &path).unwrap();
        let reply = handle_line(&mut state, &format!(":append {}", path.display())).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(reply.contains("now epoch 1"), "{reply}");
        assert!(reply.contains("FUP-upgraded"), "{reply}");

        let warm = handle_line(&mut state, Q).unwrap();
        assert!(warm.contains("epoch 1"), "{warm}");
        assert!(warm.contains("| 0 db scans |"), "{warm}");
        assert!(warm.contains("FUP-upgraded at epoch swap"), "{warm}");
    }

    #[test]
    fn metrics_command_renders_prometheus_text() {
        let mut state = ReplState::new(engine());
        handle_line(&mut state, ":support 0.25").unwrap();
        handle_line(&mut state, Q).unwrap();
        handle_line(&mut state, Q).unwrap();
        handle_line(&mut state, "max(S.Price <= oops").unwrap();
        let text = handle_line(&mut state, ":metrics").unwrap();
        for needle in [
            "# TYPE cfq_queries_total counter",
            "cfq_queries_total 2",
            "cfq_query_errors_total 1",
            "cfq_queries_by_strategy_total{strategy=\"full\"} 2",
            "cfq_query_seconds_count 2",
            "cfq_query_seconds_p50",
            "cfq_query_seconds_p95",
            "cfq_query_seconds_p99",
            "cfq_epoch 0",
            "cfq_transactions 8",
            "cfq_cache_entries 2",
            // One cold query mined both sides; the warm re-run mined
            // nothing and nobody waited at the admission gate.
            "cfq_mining_passes_total 2",
            "cfq_scheduler_coalesced_total 0",
            "cfq_scheduler_batched_total 0",
            "cfq_scheduler_overloaded_total 0",
            "cfq_scheduler_queue_depth 0",
            "cfq_scheduler_inflight 0",
            "cfq_scheduler_wait_seconds_count 2",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // The warm re-run hit both lattice caches.
        let hits: u64 = text
            .lines()
            .find(|l| l.starts_with("cfq_lattice_hits_total"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(hits >= 2, "{text}");
    }

    #[test]
    fn backend_metrics_surface_in_scrapes() {
        let mut state = ReplState::new(engine());
        let line = format!(
            ":json {{\"query\": \"{Q}\", \"support\": {{\"frac\": 0.25}}, \
             \"backend\": \"bitmap\", \"bypass_cache\": true}}"
        );
        let reply = handle_line(&mut state, &line).unwrap();
        let v = json::parse(&reply).unwrap();
        assert!(v.get("error").is_none(), "{reply}");
        let text = handle_line(&mut state, ":metrics").unwrap();
        for needle in [
            "cfq_mining_backend_selected_total{backend=\"bitmap\"}",
            "cfq_mining_backend_level_micros_total{backend=\"bitmap\"}",
            "cfq_mining_backend_words_anded_total",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn shard_metrics_surface_in_scrapes() {
        let mut state = ReplState::new(engine());
        let line = format!(
            ":json {{\"query\": \"{Q}\", \"support\": {{\"frac\": 0.25}}, \
             \"shards\": 2, \"bypass_cache\": true}}"
        );
        let reply = handle_line(&mut state, &line).unwrap();
        let v = json::parse(&reply).unwrap();
        assert!(v.get("error").is_none(), "{reply}");
        let text = handle_line(&mut state, ":metrics").unwrap();
        for needle in [
            "cfq_mining_shard_levels_total{shards=\"2\"}",
            "cfq_mining_shard_merges_total",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn json_command_speaks_queryresponse_both_ways() {
        let mut state = ReplState::new(engine());
        let line = format!(
            ":json {{\"query\": \"{Q}\", \"support\": {{\"frac\": 0.25}}}}"
        );

        // Cold: one JSON line out, parseable, with real work recorded.
        let reply = handle_line(&mut state, &line).unwrap();
        let v = json::parse(&reply).unwrap();
        assert!(v.get("error").is_none(), "{reply}");
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(0));
        assert!(v.get("pair_count").unwrap().as_u64().unwrap() > 0, "{reply}");
        assert!(v.get("db_scans").unwrap().as_u64().unwrap() > 0, "{reply}");
        assert_eq!(
            v.get("s_lattice").unwrap().as_str().unwrap(),
            "freshly mined (cold)"
        );

        // Warm: same answer, zero scans, cache provenance.
        let warm = handle_line(&mut state, &line).unwrap();
        let w = json::parse(&warm).unwrap();
        assert_eq!(w.get("db_scans").unwrap().as_u64(), Some(0));
        assert_eq!(
            w.get("pair_count").unwrap().as_u64(),
            v.get("pair_count").unwrap().as_u64()
        );
        assert_eq!(
            w.get("s_lattice").unwrap().as_str().unwrap(),
            "cache hit (reused mined lattice)"
        );

        // The wire response of a builder-equivalent query matches.
        let built = state
            .pool
            .session()
            .query(Q)
            .min_support_frac(0.25)
            .run()
            .unwrap();
        assert_eq!(QueryResponse::from_outcome(&built).to_json(), warm);
        assert_eq!(state.metrics.queries_total.get(), 2);
    }

    #[test]
    fn json_command_errors_are_json_objects() {
        let mut state = ReplState::new(engine());
        for (line, needle) in [
            (":json", ":json needs a request object"),
            (":json {nope}", "parse error"),
            (":json {\"quary\": \"q\"}", "unknown request field"),
            (":json {\"query\": \"max(S.Price <= 30\"}", "error"),
            (":json {\"query\": \"count(S) >= 1\", \"support\": 0.0}", "outside (0, 1]"),
        ] {
            let reply = handle_line(&mut state, line).unwrap();
            let v = json::parse(&reply)
                .unwrap_or_else(|e| panic!("non-JSON reply to `{line}`: {reply} ({e})"));
            let msg = v.get("error").and_then(json::Json::as_str).unwrap().to_string();
            assert!(msg.contains(needle), "`{line}` -> {reply}");
        }
        assert_eq!(state.metrics.queries_total.get(), 0);
        assert!(state.metrics.query_errors_total.get() >= 4);
    }

    #[test]
    fn overload_replies_are_machine_readable() {
        let e = CfqError::Overloaded("3 queries in flight and 2 queued".into());
        // The JSON form carries a flag clients can branch on...
        let obj = json_error(&e);
        assert!(obj.contains("\"overloaded\":true"), "{obj}");
        let v = json::parse(&obj).unwrap();
        assert!(v.get("error").unwrap().as_str().unwrap().starts_with("overloaded:"));
        // ...while ordinary errors carry none.
        assert!(!json_error(&CfqError::Parse("x".into())).contains("overloaded"));
    }

    #[test]
    fn slowlog_with_zero_threshold_records_everything() {
        let mut state = ReplState::with_observability(
            engine(),
            ServerMetrics::new(),
            Arc::new(SlowLog::new(Duration::ZERO, 8)),
        )
        .with_legacy_protocol(true);
        handle_line(&mut state, ":support 0.25").unwrap();
        handle_line(&mut state, Q).unwrap();
        let text = handle_line(&mut state, ":slowlog").unwrap();
        assert!(text.contains(Q), "{text}");
        assert!(text.contains("plan="), "{text}");
        assert!(text.contains("L1:"), "{text}");
        assert!(text.contains("[S] freshly mined (cold)"), "{text}");
        assert_eq!(state.metrics.slow_queries_total.get(), 1);
        // A 500ms-threshold log would not have recorded this tiny query.
        let quiet = ReplState::new(engine());
        assert!(quiet.slow.render().contains("slow-query log empty"));
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
    /// with no end in sight (unbounded `read_line`) — each get a typed
    /// `protocol` error, and the same connection then gets a good answer.
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

        let reply = ask(&mut conn, &mut reader, b"{\"v\":1,\"cmd\":\"status\"}");
        let v = json::parse(&reply).unwrap();
        assert_eq!(v.get("result").unwrap().get("epoch").unwrap().as_u64(), Some(0), "{reply}");
        assert_eq!(metrics.query_errors_total.get(), 3);

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
        // outcomes. Served connections speak the envelope (no legacy
        // `:metrics` without --legacy-protocol).
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
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        let db = TransactionDb::from_u32(
            6,
            &[&[0, 1, 2, 3], &[0, 1, 2], &[1, 2, 3, 4], &[0, 2, 4], &[0, 1, 3, 5], &[2, 3, 4, 5]],
        );
        // One query executes at a time, one may queue, and a cold leader
        // holds its admission slot for the whole 150ms batch window — so
        // concurrent cold queries (distinct supports = distinct cache
        // keys) are guaranteed to pile up past the gate.
        let config = EngineConfig::builder()
            .max_inflight_queries(1)
            .max_queued_queries(1)
            .batch_window_ms(150)
            .build();
        let eng = Engine::with_config(db, b.build(), config).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        const CLIENTS: usize = 6;
        let opts = ServeOptions { max_conns: Some(CLIENTS), ..ServeOptions::default() };
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));

        let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let mut rd = BufReader::new(conn.try_clone().unwrap());
                    let mut replies = Vec::new();
                    barrier.wait();
                    for i in 0..3 {
                        // Unique support per request: every query is a
                        // cold cache miss that really mines.
                        let frac = 0.02 + 0.01 * (c * 3 + i) as f64;
                        writeln!(
                            conn,
                            "{{\"v\":1,\"cmd\":\"query\",\"req\":{{\"query\":\"{Q}\",\
                             \"support\":{{\"frac\":{frac}}}}}}}"
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

    /// Fresh per-test directory without `Date`/randomness: pid + counter.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("cfq-serve-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_engine(dir: &std::path::Path) -> Arc<Engine> {
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        let db = TransactionDb::from_u32(
            6,
            &[&[0, 1, 2, 3], &[0, 1, 2], &[1, 2, 3, 4], &[0, 2, 4], &[0, 1, 3, 5], &[2, 3, 4, 5]],
        );
        let config = EngineConfig::builder().wal_dir(dir).snapshot_every(0).build();
        Engine::with_config(db, b.build(), config).unwrap()
    }

    #[test]
    fn envelope_lines_are_told_apart_from_set_literal_queries() {
        // CFQ set literals legitimately start a line with `{`; only a
        // JSON object (`{` then `"` or `}`) is a v1 envelope.
        assert!(looks_like_envelope("{\"v\":1,\"cmd\":\"status\"}"));
        assert!(looks_like_envelope("  { \"v\": 1 }"));
        assert!(looks_like_envelope("{}"));
        assert!(!looks_like_envelope("{Snacks} subseteq S.Type"));
        assert!(!looks_like_envelope("{ Snacks, Beers } = S.Type"));
        assert!(!looks_like_envelope("max(S.Price) <= 30"));
        assert!(!looks_like_envelope(":json {\"query\": \"q\"}"));
    }

    #[test]
    fn envelope_query_round_trips_and_matches_legacy_json() {
        let mut state = ReplState::new(engine());
        let line = format!(
            "{{\"v\": 1, \"cmd\": \"query\", \"req\": {{\"query\": \"{Q}\", \
             \"support\": {{\"frac\": 0.25}}}}}}"
        );
        let reply = handle_line(&mut state, &line).unwrap();
        let v = json::parse(&reply).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(1), "{reply}");
        let result = v.get("result").unwrap();
        assert!(result.get("pair_count").unwrap().as_u64().unwrap() > 0, "{reply}");
        assert!(result.get("db_scans").unwrap().as_u64().unwrap() > 0, "{reply}");

        // The envelope result body is byte-identical to the deprecated
        // `:json` reply for the same request (warm, so both hit cache).
        let legacy = handle_line(
            &mut state,
            &format!(":json {{\"query\": \"{Q}\", \"support\": {{\"frac\": 0.25}}}}"),
        )
        .unwrap();
        let warm = handle_line(&mut state, &line).unwrap();
        assert_eq!(warm, wire::result_object(&legacy));
        assert_eq!(state.metrics.queries_total.get(), 3);
    }

    #[test]
    fn envelope_errors_are_typed_objects() {
        let mut state = ReplState::new(engine());
        for (line, kind, needle) in [
            ("{\"v\": 1", "protocol", "error"),
            ("{\"cmd\": \"metrics\"}", "protocol", "numeric `v` field"),
            ("{\"v\": 2, \"cmd\": \"metrics\"}", "unsupported_version", "this server speaks v1"),
            ("{\"v\": 1, \"cmd\": \"wat\"}", "unknown_command", "unknown command"),
            ("{\"v\": 1, \"cmd\": \"query\"}", "protocol", "needs a `req`"),
            ("{\"v\": 1, \"cmd\": \"metrics\", \"extra\": 1}", "protocol", "unknown envelope field"),
            (
                "{\"v\": 1, \"cmd\": \"query\", \"req\": {\"query\": \"max(S.Price <= 30\"}}",
                "parse",
                "error",
            ),
        ] {
            let reply = handle_line(&mut state, line).unwrap();
            let v = json::parse(&reply)
                .unwrap_or_else(|e| panic!("non-JSON reply to `{line}`: {reply} ({e})"));
            assert_eq!(v.get("v").unwrap().as_u64(), Some(1), "{reply}");
            let err = v.get("error").unwrap();
            assert_eq!(err.get("kind").unwrap().as_str(), Some(kind), "`{line}` -> {reply}");
            assert!(
                err.get("message").unwrap().as_str().unwrap().contains(needle),
                "`{line}` -> {reply}"
            );
        }
        assert_eq!(state.metrics.queries_total.get(), 0);
    }

    #[test]
    fn legacy_json_errors_carry_a_kind_field() {
        let mut state = ReplState::new(engine());
        for (line, kind) in [
            (":json {nope}", "parse"),
            (":json {\"quary\": \"q\"}", "parse"),
            (":json {\"query\": \"count(S) >= 1\", \"support\": 0.0}", "config"),
        ] {
            let reply = handle_line(&mut state, line).unwrap();
            let v = json::parse(&reply).unwrap();
            assert_eq!(v.get("kind").unwrap().as_str(), Some(kind), "`{line}` -> {reply}");
        }
        let obj = json_error(&CfqError::Overloaded("busy".into()));
        let v = json::parse(&obj).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(v.get("overloaded").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn legacy_commands_are_gated_behind_the_flag() {
        // Default served-connection state: envelope only. Every gated
        // command answers with one typed JSON object, never prose, and
        // names both the envelope replacement and the escape hatch.
        let mut state = ReplState::new(engine()).with_legacy_protocol(false);
        for (line, replacement) in [
            (":json {\"query\": \"count(S) >= 1\"}", "\"cmd\":\"query\""),
            (":metrics", "\"cmd\":\"metrics\""),
            (":slowlog", "\"cmd\":\"slowlog\""),
        ] {
            let reply = handle_line(&mut state, line).unwrap();
            let v = json::parse(&reply)
                .unwrap_or_else(|e| panic!("non-JSON rejection for `{line}`: {reply} ({e})"));
            assert_eq!(
                v.get("kind").unwrap().as_str(),
                Some("unsupported_command"),
                "`{line}` -> {reply}"
            );
            let msg = v.get("error").unwrap().as_str().unwrap();
            assert!(msg.contains(replacement), "`{line}` -> {reply}");
            assert!(msg.contains("--legacy-protocol"), "`{line}` -> {reply}");
        }
        // Everything else still answers: operator commands, bare
        // queries, and the whole envelope surface.
        assert!(handle_line(&mut state, ":stats").unwrap().contains("epoch 0"));
        let scrape = handle_line(&mut state, "{\"v\":1,\"cmd\":\"metrics\"}").unwrap();
        assert!(scrape.contains("cfq_queries_total"), "{scrape}");

        // The flag restores the old surface.
        let mut state = ReplState::new(engine()).with_legacy_protocol(true);
        let text = handle_line(&mut state, ":metrics").unwrap();
        assert!(text.starts_with("# "), "{text}");
    }

    #[test]
    fn status_and_snapshot_commands_on_an_ephemeral_engine() {
        let mut state = ReplState::new(engine());
        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"status\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(result.get("mode").unwrap().as_str(), Some("ephemeral"), "{reply}");
        assert_eq!(result.get("epoch").unwrap().as_u64(), Some(0));
        assert_eq!(result.get("transactions").unwrap().as_u64(), Some(8));

        // Snapshots need a WAL directory; the rejection is typed.
        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"snapshot\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("config"),
            "{reply}"
        );
        let reply = handle_line(&mut state, ":wal-status").unwrap();
        assert!(reply.contains("durability off"), "{reply}");
        let reply = handle_line(&mut state, ":snapshot").unwrap();
        assert!(reply.contains("--wal-dir"), "{reply}");
    }

    #[test]
    fn status_snapshot_and_wal_status_on_a_durable_engine() {
        let dir = temp_dir("durable");
        let mut state = ReplState::new(durable_engine(&dir));

        let reply = handle_line(&mut state, ":wal-status").unwrap();
        assert!(reply.contains("primary"), "{reply}");

        // An append is WAL-logged; the status counters show it.
        let path = dir.join("delta.txt");
        let delta = TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5]]);
        io::save_transactions(&delta, &path).unwrap();
        let reply = handle_line(&mut state, &format!(":append {}", path.display())).unwrap();
        assert!(reply.contains("now epoch 1"), "{reply}");

        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"status\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(result.get("mode").unwrap().as_str(), Some("primary"), "{reply}");
        assert_eq!(result.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(result.get("wal_records").unwrap().as_u64(), Some(1));

        // Manual snapshot over the envelope, visible in :wal-status.
        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"snapshot\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(result.get("epoch").unwrap().as_u64(), Some(1), "{reply}");
        assert!(result.get("bytes").unwrap().as_u64().unwrap() > 0, "{reply}");
        let reply = handle_line(&mut state, ":wal-status").unwrap();
        assert!(reply.contains("1 written"), "{reply}");

        // The scrape surfaces the new wal/snapshot families.
        let text = handle_line(&mut state, ":metrics").unwrap();
        for needle in [
            "cfq_wal_records_total 1",
            "cfq_wal_fsyncs_total",
            "cfq_snapshot_writes_total 1",
            "cfq_snapshot_last_epoch 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_metrics_and_slowlog_wrap_text() {
        let mut state = ReplState::new(engine());
        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"metrics\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        let text = v.get("result").unwrap().get("text").unwrap().as_str().unwrap();
        assert!(text.contains("cfq_queries_total"), "{reply}");
        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"slowlog\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        let text = v.get("result").unwrap().get("text").unwrap().as_str().unwrap();
        assert!(text.contains("slow-query log empty"), "{reply}");
    }
}
