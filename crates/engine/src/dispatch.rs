//! The protocol dispatcher: one [`Dispatcher::handle`] behind `cfq repl`,
//! every `cfq serve` connection, and the protocol tests.
//!
//! A request is one line, and the one command set is addressed two ways.
//! A line that opens a JSON object is a v1 envelope ([`crate::wire`]) and
//! is *always* answered with one JSON line; any other line is for a human
//! operator — a `:command`, or a bare CFQ conjunction, which runs as the
//! connection's [`QueryRequest`] template with that text — and is
//! answered in prose. Both addressings reach the same handlers: a query
//! of either kind goes through the one execute-and-record function, and
//! `:metrics` prints the `text` the envelope `metrics` command wraps.

use crate::engine::Engine;
use crate::metrics::ServerMetrics;
use crate::request::{QueryRequest, SupportSpec};
use crate::session::{QueryOutcome, SessionPool};
use crate::{json, wire};
use cfq_core::Strategy;
use cfq_datagen::io::load_transactions;
use cfq_obs::{self as obs, SlowLevel, SlowLog, SlowQuery, SlowStages};
use cfq_types::{CfqError, Result};
use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The protocol as `:help` (and `cfq serve --help`) prints it.
pub const PROTOCOL_HELP: &str = "\
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
  :metrics           dump the metrics registry (Prometheus text)
  :slowlog           show recent slow queries
  :wal-status        one-line durability status (mode, WAL/snapshot counters)
  :snapshot          write a snapshot now and rotate the WAL
  :help              this message
  :quit              leave
replies: a saturated engine answers `overloaded: ...` (plain queries) or
a JSON error object with \"overloaded\":true (envelope); back off and
retry.";

/// One client's view of the protocol — a REPL, or one served connection —
/// over a shared [`SessionPool`]. Queries take the pool's next session,
/// so scheduler fairness is per-*request*, not per-connection.
pub struct Dispatcher {
    pool: Arc<SessionPool>,
    /// What a bare query line runs as, its text aside: `:support` and
    /// `:strategy` edit it.
    template: QueryRequest,
    metrics: Arc<ServerMetrics>,
    slow: Arc<SlowLog>,
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

impl Dispatcher {
    /// A dispatcher with the CLI defaults (1% support, full optimizer). A
    /// server hands every connection the same three; a REPL makes its own.
    pub fn new(
        pool: Arc<SessionPool>,
        metrics: Arc<ServerMetrics>,
        slow: Arc<SlowLog>,
    ) -> Dispatcher {
        Dispatcher { pool, template: QueryRequest::new(""), metrics, slow }
    }

    /// Handles one protocol line: writes the reply, newline included, to
    /// `out` — whatever it is; a served connection passes its socket
    /// buffer — and returns `false` on `:quit`. The only error is `out`'s:
    /// query and command errors are rendered into the reply, because a
    /// bad query must not kill a shared server loop.
    pub fn handle(&mut self, line: &str, out: &mut impl Write) -> io::Result<bool> {
        let line = line.trim();
        if line == ":quit" || line == ":q" {
            return Ok(false);
        }
        if looks_like_envelope(line) {
            self.envelope(line, out)?;
        } else if !line.is_empty() {
            match self.operator(line) {
                Ok(reply) => writeln!(out, "{reply}")?,
                // Overload is back-pressure, not a malfunction: the Display
                // form already starts with `overloaded:`, which clients key off.
                Err(e @ CfqError::Overloaded(_)) => writeln!(out, "{e}")?,
                Err(e) => writeln!(out, "error: {e}")?,
            }
        }
        Ok(true)
    }

    /// Answers a line that cannot be [`handle`](Dispatcher::handle)d —
    /// over the server's length cap, not UTF-8 — with a typed `protocol`
    /// error, counted as a failed query. Returns what `handle` would: the
    /// session goes on.
    pub fn reject(&self, message: String, out: &mut impl Write) -> io::Result<bool> {
        self.metrics.query_errors_total.inc();
        writeln!(out, "{}", wire::WireError { kind: "protocol", message }.render())?;
        Ok(true)
    }

    /// The operator addressing: a `:command`, or a bare query.
    fn operator(&mut self, line: &str) -> Result<String> {
        let Some(rest) = line.strip_prefix(':') else {
            let req = QueryRequest { query: line.to_string(), ..self.template.clone() };
            let (out, elapsed) = self.run_request(&req)?;
            let p = &out.outcome.provenance;
            return Ok(format!(
                "{} valid pairs ({} S-sets x {} T-sets) | epoch {} | {} db scans | [S] {} [T] {} | {:.3}s",
                out.pair_count(),
                out.outcome.s_sets.len(),
                out.outcome.t_sets.len(),
                out.epoch,
                out.outcome.db_scans,
                p.s_lattice.describe(),
                p.t_lattice.describe(),
                elapsed.as_secs_f64(),
            ));
        };
        let (cmd, arg) =
            rest.split_once(char::is_whitespace).map_or((rest, ""), |(c, a)| (c, a.trim()));
        let engine = self.pool.engine();
        match cmd {
            "help" => Ok(PROTOCOL_HELP.to_string()),
            "stats" => {
                let s = engine.cache_stats();
                Ok(format!(
                    "epoch {} | {} transactions | lattice cache: {} entries, {}/{} KiB, \
                     {} hits / {} misses, {} scans saved, {} evictions | plan cache: {} hits / {} misses",
                    engine.epoch(),
                    engine.db().len(),
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
            "metrics" => Ok(self.metrics.render(engine)),
            "slowlog" => Ok(self.slow.render()),
            "wal-status" => {
                let d = engine.durability_stats();
                if !d.enabled {
                    return Ok("durability off (ephemeral engine; start with --wal-dir)".into());
                }
                Ok(format!(
                    "primary | epoch {} | wal: {} records, {} bytes, {} fsyncs, {} replayed | \
                     snapshots: {} written ({} bytes), last at epoch {}",
                    engine.epoch(),
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
                let info = engine.snapshot_now()?;
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
                // Rejected here (the range check is `resolve`'s), not stored
                // to fail every query after it.
                let support = SupportSpec::Frac(f);
                support.resolve(1)?;
                self.template.support = support;
                Ok(format!("min support fraction set to {f}"))
            }
            "strategy" => {
                self.template.strategy = Strategy::from_name(arg)
                    .ok_or_else(|| CfqError::Config(format!("unknown strategy `{arg}`")))?;
                Ok(format!("strategy set to {arg}"))
            }
            "explain" => {
                if arg.is_empty() {
                    return Err(CfqError::Config(":explain needs a query".into()));
                }
                let req = QueryRequest { query: arg.to_string(), ..self.template.clone() };
                self.pool.session().explain(&req)
            }
            "append" => {
                if arg.is_empty() {
                    return Err(CfqError::Config(":append needs a transaction file".into()));
                }
                let delta = load_transactions(arg)?;
                let rows = delta.len();
                let info = engine.append(delta)?;
                self.metrics.appends_total.inc();
                Ok(format!(
                    "appended {rows} transactions: now epoch {} with {} transactions; \
                     {} cached lattice(s) FUP-upgraded ({} old-db recounts)",
                    info.epoch, info.transactions, info.upgraded_lattices, info.old_db_recounts,
                ))
            }
            other => Err(CfqError::Config(format!("unknown command `:{other}` (try :help)"))),
        }
    }

    /// The envelope addressing. Always writes exactly one JSON envelope
    /// line to `out` — `{"v":1,"result":...}` or a typed error object. An
    /// answered query is encoded from its outcome straight into `out`;
    /// every other reply is small and goes through a `String`.
    fn envelope(&mut self, line: &str, out: &mut impl Write) -> io::Result<()> {
        let engine = self.pool.engine();
        let reply = match wire::parse_envelope(line) {
            Err(e) => {
                self.metrics.query_errors_total.inc();
                e.render()
            }
            Ok(wire::WireCmd::Query(req)) => match self.run_request(&req) {
                Ok((outcome, _)) => {
                    let start = Instant::now();
                    wire::write_query_reply(out, &outcome)?;
                    self.metrics.stage_seconds.encode.observe(start.elapsed().as_secs_f64());
                    return Ok(());
                }
                Err(e) => wire::error_from(&e),
            },
            Ok(wire::WireCmd::Metrics) => wire::text_result(&self.metrics.render(engine)),
            Ok(wire::WireCmd::Slowlog) => wire::text_result(&self.slow.render()),
            Ok(wire::WireCmd::Status) => wire::result_object(&status_json(engine)),
            Ok(wire::WireCmd::Snapshot) => match engine.snapshot_now() {
                Ok(info) => {
                    let mut body =
                        format!("{{\"epoch\":{},\"bytes\":{},\"path\":", info.epoch, info.bytes);
                    json::write_escaped(&mut body, &info.path.display().to_string());
                    body.push('}');
                    wire::result_object(&body)
                }
                Err(e) => wire::error_from(&e),
            },
        };
        writeln!(out, "{reply}")
    }

    /// Executes one [`QueryRequest`] and returns its outcome with the time
    /// it took, recording latency, outcome metrics and (when slow enough) a
    /// slow-query log entry — the one place the serving path runs a query,
    /// whichever way it was addressed.
    fn run_request(&self, req: &QueryRequest) -> Result<(QueryOutcome, Duration)> {
        let m = &self.metrics;
        let start = Instant::now();
        let result = self.pool.session().execute(req);
        let elapsed = start.elapsed();
        let out = result.inspect_err(|_| m.query_errors_total.inc())?;

        m.queries_total.inc();
        m.strategy_counter(req.strategy.name().unwrap_or("custom")).inc();
        m.query_seconds.observe(elapsed.as_secs_f64());
        m.scheduler_wait_seconds.observe(out.admission_wait.as_secs_f64());
        m.db_scans_total.add(out.outcome.db_scans);
        for (histogram, micros) in [
            (&m.stage_seconds.plan, out.stage_us.plan),
            (&m.stage_seconds.s_lattice, out.stage_us.s_lattice),
            (&m.stage_seconds.t_lattice, out.stage_us.t_lattice),
            (&m.stage_seconds.pairs, out.stage_us.pairs),
        ] {
            histogram.observe(micros as f64 / 1e6);
        }

        let entry = || {
            let p = &out.outcome.provenance;
            let levels = out.outcome.s_stats.levels.iter().chain(&out.outcome.t_stats.levels);
            SlowQuery {
                query: req.query.clone(),
                fingerprint: out.plan_fingerprint(),
                provenance: format!(
                    "[S] {} [T] {}",
                    p.s_lattice.describe(),
                    p.t_lattice.describe()
                ),
                total: elapsed,
                db_scans: out.outcome.db_scans,
                stages: SlowStages {
                    plan: out.stage_us.plan,
                    s_lattice: out.stage_us.s_lattice,
                    t_lattice: out.stage_us.t_lattice,
                    pairs: out.stage_us.pairs,
                },
                levels: levels
                    .map(|l| SlowLevel {
                        level: l.level,
                        candidates: l.candidates,
                        frequent: l.frequent,
                        micros: l.micros,
                        counted_by: l.counted_by,
                    })
                    .collect(),
            }
        };
        if self.slow.maybe_record_with(elapsed, entry) {
            m.slow_queries_total.inc();
            obs::event(
                obs::Level::Warn,
                "serve.slow_query",
                &[
                    ("seconds", obs::FieldValue::F64(elapsed.as_secs_f64())),
                    ("query", obs::FieldValue::Str(req.query.clone())),
                ],
            );
        }
        Ok((out, elapsed))
    }
}

/// The `status` command's result object: serving mode plus the epoch,
/// cache, and durability counters a control plane watches.
fn status_json(engine: &Engine) -> String {
    let d = engine.durability_stats();
    let mode = if d.enabled { "primary" } else { "ephemeral" };
    let c = engine.cache_stats();
    format!(
        "{{\"mode\":\"{mode}\",\"epoch\":{},\"transactions\":{},\
         \"cache_entries\":{},\"cache_bytes\":{},\
         \"wal_records\":{},\"wal_bytes\":{},\"replayed_records\":{},\
         \"snapshot_writes\":{},\"last_snapshot_epoch\":{}}}",
        engine.epoch(),
        engine.db().len(),
        c.entries,
        c.bytes_used,
        d.wal_records,
        d.wal_bytes,
        d.replayed_records,
        d.snapshot_writes,
        d.last_snapshot_epoch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::json;
    use cfq_types::{CatalogBuilder, TransactionDb};

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

    /// A REPL's dispatcher: a pool of one, its own registry, and a slow
    /// log with the given threshold.
    fn dispatcher_slower_than(engine: Arc<Engine>, threshold: Duration) -> Dispatcher {
        let pool = Arc::new(SessionPool::new(&engine, 1));
        Dispatcher::new(pool, ServerMetrics::new(), Arc::new(SlowLog::new(threshold, 8)))
    }

    fn dispatcher(engine: Arc<Engine>) -> Dispatcher {
        dispatcher_slower_than(engine, Duration::from_millis(500))
    }

    /// One line in, the reply text out (`None` on `:quit`): what a
    /// connection would have been sent, less the newline.
    fn handle_line(state: &mut Dispatcher, line: &str) -> Option<String> {
        let mut out = Vec::new();
        if !state.handle(line, &mut out).unwrap() {
            return None;
        }
        assert!(out.is_empty() || out.pop() == Some(b'\n'), "a reply is one terminated line");
        Some(String::from_utf8(out).unwrap())
    }

    /// The envelope `query` line for `Q` at 25% support plus `extra` fields.
    fn query_envelope(extra: &str) -> String {
        format!(
            "{{\"v\": 1, \"cmd\": \"query\", \"req\": {{\"query\": \"{Q}\", \
             \"support\": {{\"frac\": 0.25}}{extra}}}}}"
        )
    }

    #[test]
    fn bad_lines_reply_with_errors_not_death() {
        let mut state = dispatcher(engine());
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
        let mut state = dispatcher(engine());
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
        let mut state = dispatcher(engine());
        assert!(handle_line(&mut state, ":support 0.25").is_some());
        handle_line(&mut state, Q).unwrap();

        let path = std::env::temp_dir().join("cfq_serve_append_test.txt");
        let delta = TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5]]);
        cfq_datagen::io::save_transactions(&delta, &path).unwrap();
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
        let mut state = dispatcher(engine());
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
    fn envelope_errors_are_typed_objects() {
        let mut state = dispatcher(engine());
        // A removed request field is an unknown one, not a swallowed one.
        let removed = query_envelope(", \"shards\": 2");
        for (line, kind, needle) in [
            ("{\"v\": 1", "protocol", "error"),
            (removed.as_str(), "parse", "unknown request field `shards`"),
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
    fn status_and_snapshot_commands_on_an_ephemeral_engine() {
        let mut state = dispatcher(engine());
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
        let dir = std::env::temp_dir().join(format!("cfq-dispatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = dispatcher(durable_engine(&dir));

        let reply = handle_line(&mut state, ":wal-status").unwrap();
        assert!(reply.contains("primary"), "{reply}");

        // An append is WAL-logged; the status counters show it.
        let path = dir.join("delta.txt");
        let delta = TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5]]);
        cfq_datagen::io::save_transactions(&delta, &path).unwrap();
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

        // The scrape surfaces the wal/snapshot families.
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
        let mut state = dispatcher(engine());
        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"metrics\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        let text = v.get("result").unwrap().get("text").unwrap().as_str().unwrap();
        assert!(text.contains("cfq_queries_total"), "{reply}");
        let reply = handle_line(&mut state, "{\"v\": 1, \"cmd\": \"slowlog\"}").unwrap();
        let v = json::parse(&reply).unwrap();
        let text = v.get("result").unwrap().get("text").unwrap().as_str().unwrap();
        assert!(text.contains("slow-query log empty"), "{reply}");
    }

    #[test]
    fn backend_metrics_surface_in_scrapes() {
        let mut state = dispatcher(engine());
        let reply = handle_line(&mut state, &query_envelope(", \"backend\": \"bitmap\"")).unwrap();
        assert!(json::parse(&reply).unwrap().get("result").is_some(), "{reply}");
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
    fn slowlog_with_zero_threshold_records_everything() {
        let mut state = dispatcher_slower_than(engine(), Duration::ZERO);
        handle_line(&mut state, ":support 0.25").unwrap();
        handle_line(&mut state, Q).unwrap();
        let text = handle_line(&mut state, ":slowlog").unwrap();
        assert!(text.contains(Q), "{text}");
        assert!(text.contains("plan="), "{text}");
        assert!(text.contains("L1:"), "{text}");
        assert!(text.contains(" ms, column"), "{text}");
        assert!(text.contains("[S] freshly mined (cold)"), "{text}");
        assert!(text.contains("stages: plan "), "{text}");
        // Either addressing of a query lands in the same log.
        handle_line(&mut state, &query_envelope("")).unwrap();
        assert_eq!(state.metrics.slow_queries_total.get(), 2);
        // A 500ms-threshold log would not have recorded this tiny query.
        let quiet = dispatcher(engine());
        assert!(quiet.slow.render().contains("slow-query log empty"));
    }

    /// A saturated gate answers each addressing in its own form: prose
    /// that starts `overloaded:` (not `error:`), and a typed envelope
    /// carrying the back-off flag.
    #[test]
    fn overload_replies_are_machine_readable() {
        let config = EngineConfig::builder().max_inflight_queries(1).max_queued_queries(1).build();
        let b = CatalogBuilder::new(2);
        let db = TransactionDb::from_u32(2, &[&[0, 1]]);
        let eng = Engine::with_config(db, b.build(), config).unwrap();
        let mut state = dispatcher(Arc::clone(&eng));

        // One query executing, one queued behind it: the gate is full.
        let running = eng.admit().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| drop(eng.admit().unwrap()));
            while eng.scheduler_stats().queued == 0 {
                std::thread::yield_now();
            }
            let prose = handle_line(&mut state, "count(S) >= 1").unwrap();
            assert!(prose.starts_with("overloaded:"), "{prose}");
            let reply = handle_line(
                &mut state,
                "{\"v\":1,\"cmd\":\"query\",\"req\":{\"query\":\"count(S) >= 1\"}}",
            )
            .unwrap();
            let v = json::parse(&reply).unwrap();
            let err = v.get("error").unwrap();
            assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"), "{reply}");
            assert_eq!(err.get("overloaded").unwrap().as_bool(), Some(true), "{reply}");
            drop(running);
        });
        assert_eq!(state.metrics.query_errors_total.get(), 2);
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
        assert!(!looks_like_envelope(":explain {Snacks} subseteq S.Type"));
    }

    #[test]
    fn envelope_query_round_trips_cold_then_warm_and_matches_the_builder() {
        let mut state = dispatcher(engine());
        let line = query_envelope("");

        // Cold: one envelope line out, parseable, with real work recorded.
        let reply = handle_line(&mut state, &line).unwrap();
        let v = json::parse(&reply).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(1), "{reply}");
        let cold = v.get("result").unwrap();
        assert_eq!(cold.get("epoch").unwrap().as_u64(), Some(0));
        assert!(cold.get("pair_count").unwrap().as_u64().unwrap() > 0, "{reply}");
        assert!(cold.get("db_scans").unwrap().as_u64().unwrap() > 0, "{reply}");
        assert_eq!(cold.get("s_lattice").unwrap().as_str(), Some("freshly mined (cold)"));

        // Warm: same answer, zero scans, cache provenance.
        let warm = handle_line(&mut state, &line).unwrap();
        let w = json::parse(&warm).unwrap();
        let w = w.get("result").unwrap();
        assert_eq!(w.get("db_scans").unwrap().as_u64(), Some(0));
        assert_eq!(w.get("pair_count").unwrap().as_u64(), cold.get("pair_count").unwrap().as_u64());
        assert_eq!(w.get("s_lattice").unwrap().as_str(), Some("cache hit (reused mined lattice)"));

        // The wire response of a builder-equivalent query matches.
        let built = state.pool.session().query(Q).min_support_frac(0.25).run().unwrap();
        let built = crate::QueryResponse::from_outcome(&built).to_json();
        assert_eq!(warm, wire::result_object(&built));
        assert_eq!(state.metrics.queries_total.get(), 2);
    }
}
