//! One benchmark run: the end-to-end run (`--trace 0`) or the traced run
//! (`--trace 1`) of one workload, and the metrics each reports.

use crate::inputs::{Workload, SHAPES};
use crate::layers;
use crate::stats::{highest_resolved_percentile, median, percentile};
use crate::verify::{verify, Verdict};
use crate::workloads::{measure, set_up, Config, Pass};
use std::collections::BTreeMap;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `server_rss_mb` is the lower quartile of the `VmRSS` samples: what the
/// server holds through three quarters of the phase or more. On
/// `append_churn` the allocator steps the resident set up at moments that
/// differ run to run (three runs of one seed: mean 39.6-45.2 MB, peak
/// 47.9-58.2 MB, lower quartile 37 MB each time); where the resident set
/// is flat the quartile is the mean.
const RSS_PERCENTILE: u32 = 25;

/// `(name, unit, better, bound)` of every end-to-end metric. Each is
/// reported by every workload and is never zero. `bound` is the share of
/// the parent's median by which the metric may get worse.
///
/// The timing bounds are the acceptance contract's cap of a quarter, not
/// the tenth the issue asked for, because this host does not hold a tenth
/// (README, "Bounds"): over four ten-seed sets of one commit, each 45
/// minutes of 20 s runs, the quartile spread inside a set reached 16 % and
/// the medians of consecutive sets moved by up to 23 %. Memory does not
/// follow the host's speed; its largest spread was 7.6 %.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_tail_ms", "ms", "lower", 0.25),
    ("server_cpu_ms_per_op", "ms", "lower", 0.25),
    ("server_rss_mb", "MB", "lower", 0.2),
];

/// `(name, unit, better)` of every per-layer metric, in report order. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 70] = [
    // wire.rs / json.rs / request.rs — µs per request, traced pass
    ("wire.decode_us", "us", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.reply_bytes", "B", "lower"),
    // constraints
    ("constraints.parse_bind_us", "us", "lower"),
    // core: optimizer.rs / cap.rs / jkmax.rs
    ("optimizer.plan_us", "us", "lower"),
    ("optimizer.execute_us", "us", "lower"),
    ("optimizer.candidates_counted", "count", "lower"),
    ("optimizer.constraint_checks", "count", "lower"),
    ("optimizer.pruned_candidates", "count", "higher"),
    ("optimizer.db_scans", "count", "lower"),
    // mining, as the request path used it
    ("mining.cold_mine_us", "us", "lower"),
    ("mining.level_candidates", "count", "lower"),
    ("mining.frequent_per_candidate", "ratio", "higher"),
    ("mining.rows_scanned", "count", "lower"),
    ("mining.items_scanned", "count", "lower"),
    ("mining.trim_rows_dropped", "count", "higher"),
    // mining, stand-alone on the workload's universe
    ("mining.apriori_us.horizontal", "us", "lower"),
    ("mining.apriori_us.tidset", "us", "lower"),
    ("mining.apriori_us.bitmap", "us", "lower"),
    ("mining.apriori_us.auto", "us", "lower"),
    ("mining.candgen_us", "us", "lower"),
    ("mining.count_us", "us", "lower"),
    ("mining.trim_us", "us", "lower"),
    ("mining.index_build_us.tidset", "us", "lower"),
    ("mining.index_build_us.bitmap", "us", "lower"),
    ("mining.fup_us", "us", "lower"),
    // core: pairs.rs
    ("pairs.form_us", "us", "lower"),
    ("pairs.checks", "count", "lower"),
    ("pairs.valid_per_check", "ratio", "higher"),
    // engine: session.rs / engine.rs
    ("session.request_us", "us", "lower"),
    ("session.execute_us.cold", "us", "lower"),
    ("session.execute_us.warm", "us", "lower"),
    ("session.residual_us", "us", "lower"),
    ("engine.append_us", "us", "lower"),
    // engine: cache.rs
    ("cache.lattice_hits", "count", "higher"),
    ("cache.lattice_misses", "count", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.plan_hit_rate", "ratio", "higher"),
    ("cache.entries", "count", "lower"),
    ("cache.bytes_used", "B", "lower"),
    ("cache.evictions", "count", "lower"),
    // engine: scheduler.rs
    ("scheduler.wait_us", "us", "lower"),
    ("scheduler.mining_passes", "count", "lower"),
    ("scheduler.coalesced", "count", "lower"),
    // engine: wal.rs / snapshot.rs
    ("wal.append_us", "us", "lower"),
    ("wal.bytes_per_record", "B", "lower"),
    ("wal.replay_us", "us", "lower"),
    ("wal.durable_bytes_per_user_byte", "ratio", "lower"),
    ("snapshot.write_us", "us", "lower"),
    ("snapshot.load_us", "us", "lower"),
    ("snapshot.bytes", "B", "lower"),
    ("append.ack_p50_ms", "ms", "lower"),
    ("append.acked", "count", "higher"),
    ("restart_s", "s", "lower"),
    // cli: serve.rs + sockets
    ("serve.overhead_us", "us", "lower"),
    ("serve.boot_s", "s", "lower"),
    ("serve.peak_rss_mb", "MB", "lower"),
    // datagen
    ("datagen.quest_s", "s", "lower"),
    ("datagen.write_s", "s", "lower"),
    // the TCP reference pass of the traced run, and the instrument itself
    ("tcp.query_p50_ms", "ms", "lower"),
    ("tcp.samples", "count", "higher"),
    ("shape.a.p50_ms", "ms", "lower"),
    ("shape.b.p50_ms", "ms", "lower"),
    ("shape.c.p50_ms", "ms", "lower"),
    ("shape.d.p50_ms", "ms", "lower"),
    ("shape.e.p50_ms", "ms", "lower"),
    ("shape.f.p50_ms", "ms", "lower"),
    ("trace.layer_cover", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("verify.apriori_plus_over_optimizer", "ratio", "higher"),
];

/// What one run reports.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable remarks for stderr: failure reasons, sample counts,
    /// the percentile rule, the load average.
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one JSON object the driver reads from the last stdout line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits measured.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn timed_ms(pass: &Pass) -> Vec<f64> {
    pass.samples
        .iter()
        .filter(|s| s.meta.is_ok())
        .map(|s| s.ms)
        .collect()
}

/// Queries answered OK ÷ the wall time of the measured phase, per client
/// (each runs whole rounds, so they end a moment apart) and summed. Every
/// stall of a client counts against it: a query that waits is time in
/// which no other query of that client completes.
fn throughput_qps(pass: &Pass) -> f64 {
    pass.client_wall_s
        .iter()
        .enumerate()
        .map(|(client, wall_s)| {
            let ok = pass
                .samples
                .iter()
                .filter(|s| s.client == client && s.meta.is_ok());
            ok.count() as f64 / wall_s.max(1e-9)
        })
        .sum()
}

/// `serve.overhead_us`: what the server, the sockets and (with two
/// connections) the contention add to a request served from the cache.
/// Per request class the median over TCP minus the median of the untraced
/// in-process replay of the same class, weighted by the class's share of
/// the TCP samples — a difference of medians *within* a class, because the
/// median of a mixed-class stream sits in a gap between classes and moves
/// with the mix. Requests that scanned the database are left out on both
/// sides: they take 10^5 us, the two passes run minutes apart, and their
/// difference is the host's drift (+14.0 and -7.8 ms on `optimizer_cold`
/// in two runs of one commit).
fn serve_overhead_us(pass: &Pass, inproc_class_us: &BTreeMap<String, Vec<f64>>) -> f64 {
    let mut tcp_class_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &pass.samples {
        if s.meta.as_ref().is_ok_and(|m| m.db_scans == 0) {
            tcp_class_ms
                .entry(&pass.requests[s.req].class)
                .or_default()
                .push(s.ms);
        }
    }
    let (mut sum, mut weight) = (0.0, 0.0);
    for (class, ms) in &tcp_class_ms {
        if let Some(us) = inproc_class_us.get(*class) {
            sum += ms.len() as f64 * (median(ms) * 1e3 - median(us));
            weight += ms.len() as f64;
        }
    }
    sum / f64::max(weight, 1.0)
}

/// The 1-minute load average, 0 where `/proc/loadavg` is unreadable.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn common_notes(cfg: &Config, pass: &Pass, verdict: &Verdict, notes: &mut Vec<String>) {
    let n = timed_ms(pass).len();
    let p = cfg.workload.tail_percentile();
    notes.push(format!(
        "{}: {n} timed queries, tail = p{p} (this run resolves p{}), {} replies checked against the oracle in {:.2} s, load average {:.2}",
        cfg.workload.name(),
        highest_resolved_percentile(n),
        verdict.oracle_checked,
        verdict.verify_s,
        load_average(),
    ));
    let ms = timed_ms(pass);
    notes.push(format!(
        "{}: latency ms p50 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        cfg.workload.name(),
        median(&ms),
        percentile(&ms, 75),
        percentile(&ms, 90),
        percentile(&ms, 95),
        percentile(&ms, 99),
        percentile(&ms, 100)
    ));
    for reason in &verdict.reasons {
        notes.push(format!("FAILED {reason}"));
    }
    if cfg.workload == Workload::AppendChurn {
        notes.push(format!(
            "append_churn: {} appends acknowledged (median {:.0} ms), restart recovered epoch {} in {:.3} s",
            pass.append_ms.len(),
            median(&pass.append_ms),
            pass.restart_epoch,
            pass.restart_s
        ));
    }
    if cfg.workload == Workload::ExploreSession {
        let (mut cold_open, mut warm_refine, mut opens) = (0, 0, 0);
        for s in pass.samples.iter().filter(|s| s.meta.is_ok()) {
            let scans = s.meta.as_ref().map_or(0, |m| m.db_scans);
            let open = pass.requests[s.req].key.ends_with(".open");
            opens += open as u64;
            cold_open += (open && scans > 0) as u64;
            warm_refine += (!open && scans == 0) as u64;
        }
        notes.push(format!(
            "explore_session: {cold_open}/{opens} openings mined cold, {warm_refine}/{} refinements served from the cache",
            n as u64 - opens
        ));
    }
}

/// The end-to-end run: set up [`SETUP_REPS`] times, measure over TCP for
/// `cfg.seconds` with tracing off, verify.
pub fn end_to_end(cfg: &Config) -> Result<RunOutput, String> {
    let mut setup_s = Vec::new();
    let mut up = None;
    for rep in 0..SETUP_REPS {
        drop(up.take()); // kills the previous server before the next starts
        let fresh = set_up(cfg, rep)?;
        setup_s.push(fresh.setup_s);
        up = Some(fresh);
    }
    let mut up = up.expect("SETUP_REPS is at least 1");
    let pass = measure(cfg, &mut up, cfg.seconds)?;
    up.server.kill();
    let verdict = verify(cfg.workload, &up.data, &pass);

    let ms = timed_ms(&pass);
    let ops = (ms.len() + pass.append_ms.len()).max(1) as f64;
    let values = [
        median(&setup_s),
        throughput_qps(&pass),
        median(&ms),
        percentile(&ms, cfg.workload.tail_percentile()),
        pass.cpu_s * 1e3 / ops,
        percentile(&pass.rss_mb, RSS_PERCENTILE),
    ];
    let mut notes = Vec::new();
    common_notes(cfg, &pass, &verdict, &mut notes);
    Ok(RunOutput {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _, _), v)| (*name, v, *unit))
            .collect(),
        notes,
    })
}

/// The traced run: one set-up, a TCP reference pass over half of
/// `cfg.seconds`, then the in-process traced pass of a fixed stream. Writes the spans to
/// `trace_file`.
pub fn traced(cfg: &Config, trace_file: &std::path::Path) -> Result<RunOutput, String> {
    let mut up = set_up(cfg, 0)?;
    let boot_s = up.server.boot_s;
    let pass = measure(cfg, &mut up, cfg.seconds / 2.0)?;
    up.server.kill();
    let verdict = verify(cfg.workload, &up.data, &pass);
    let layers = layers::traced_pass(cfg, &up.data, &cfg.work)?;
    std::fs::write(trace_file, &layers.trace_json)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let mut v: BTreeMap<&'static str, f64> = layers.values;
    let ms = timed_ms(&pass);
    v.insert("tcp.query_p50_ms", median(&ms));
    v.insert("tcp.samples", ms.len() as f64);
    let shape_names = [
        "shape.a.p50_ms",
        "shape.b.p50_ms",
        "shape.c.p50_ms",
        "shape.d.p50_ms",
        "shape.e.p50_ms",
        "shape.f.p50_ms",
    ];
    for (shape, name) in SHAPES.into_iter().zip(shape_names) {
        let of_shape: Vec<f64> = pass
            .samples
            .iter()
            .filter(|s| s.meta.is_ok() && pass.requests[s.req].shape == shape)
            .map(|s| s.ms)
            .collect();
        v.insert(name, median(&of_shape));
    }
    let waits: Vec<f64> = pass
        .samples
        .iter()
        .filter_map(|s| s.meta.as_ref().ok())
        .map(|m| m.wait_us as f64)
        .collect();
    v.insert(
        "scheduler.wait_us",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    );
    for (name, counter) in [
        ("scheduler.mining_passes", "cfq_mining_passes_total"),
        ("scheduler.coalesced", "cfq_scheduler_coalesced_total"),
    ] {
        v.insert(name, pass.counters.get(counter).copied().unwrap_or(0.0));
    }
    v.insert(
        "serve.overhead_us",
        serve_overhead_us(&pass, &layers.inproc_class_us),
    );
    v.insert("serve.boot_s", boot_s);
    v.insert("serve.peak_rss_mb", pass.peak_rss_mb);
    v.insert("datagen.quest_s", up.data.quest_s);
    v.insert("datagen.write_s", up.files.write_s);
    let mut notes = layers.notes;
    if cfg.workload == Workload::AppendChurn {
        let acked = pass.append_ms.len();
        v.insert("append.ack_p50_ms", median(&pass.append_ms));
        v.insert("append.acked", acked as f64);
        v.insert("restart_s", pass.restart_s);
        v.insert(
            "wal.durable_bytes_per_user_byte",
            pass.durable_bytes as f64 / up.files.user_bytes(acked).max(1) as f64,
        );
    }
    common_notes(cfg, &pass, &verdict, &mut notes);
    notes.push(format!(
        "status at the end of the TCP pass: {}",
        pass.status
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(RunOutput {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, v.get(name).copied().unwrap_or(0.0), *unit))
            .collect(),
        notes,
    })
}
