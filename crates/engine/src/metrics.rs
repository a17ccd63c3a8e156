//! The serving metric families: what `cfq serve` exports and the
//! dispatcher records into.

use crate::engine::Engine;
use cfq_obs::{self as obs, Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

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
/// are [`StageMicros`](crate::StageMicros) as the engine measured them;
/// `encode` and `write` are the server's own. Together with the admission
/// wait they add up to what a client sees, less the socket's transit.
pub struct StageSeconds {
    /// Snapshot, parse, bind, plan, and on the cached path both sides'
    /// Reduction step (Figs. 2–3), which needs no lattice.
    pub plan: Arc<Histogram>,
    /// S lattice: cache lookup or mining, then this query's filter.
    pub s_lattice: Arc<Histogram>,
    /// T lattice.
    pub t_lattice: Arc<Histogram>,
    /// Pair formation and compaction.
    pub pairs: Arc<Histogram>,
    /// Outcome to reply bytes (envelope queries), less the time a reply
    /// larger than the connection's buffer waits on the socket while it
    /// is being encoded.
    pub encode: Arc<Histogram>,
    /// Handing a reply to the socket (every reply on a served
    /// connection): the chunks of a large one that leave while it is
    /// encoded, and the final flush.
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
                "WAL records replayed at boot recovery.",
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
