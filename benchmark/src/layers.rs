//! The traced pass: the request streams replayed in-process through each
//! layer's public functions, every call wrapped in a span of the
//! benchmark's own recorder, plus stand-alone timings of the mining and
//! durability primitives on the workload's inputs.
//!
//! The replay is a *fixed* number of rounds, not a duration, so every
//! count it reports repeats exactly for one seed.
//!
//! `Session::execute` is one opaque call, so each request is replayed
//! twice: once as the server runs it (`request` = decode → execute →
//! encode) and once as a `replica` that walks the same steps through the
//! layers' own entry points (parse/bind, plan, optimizer or `apriori`, pair
//! formation). What `session.execute` takes beyond its replica is the
//! session's own work — the lattice filter, cache lookups, admission —
//! reported as `session.residual_us`.

use crate::inputs::{self, Data, Request, Workload, SUPPORT};
use crate::stats::mean;
use crate::trace::Recorder;
use crate::workloads::Config;
use cfq_constraints::{bind_query, parse_query, OneVar, SuccinctForm, Var};
use cfq_core::{compact_used, form_pairs, LatticeSource, QueryEnv, Strategy};
use cfq_engine::snapshot::{self, LatticeView};
use cfq_engine::wal::{self, WalRecord, WalWriter};
use cfq_engine::wire::{self, WireCmd};
use cfq_engine::{Engine, EngineConfig, QueryResponse};
use cfq_mining::{
    apriori, count_supports_with, fup_update_abs, generate_candidates, trim_db, AprioriConfig,
    BitmapIndex, CountingBackend, FrequentSets, LiveSet, TidsetIndex, WorkStats,
};
use cfq_types::{ItemId, Itemset};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rounds replayed: palette cycles, explore sessions, or appends (each
/// followed by [`READS_PER_APPEND`] palette cycles). The smoke mode
/// replays a tenth, at least one.
fn rounds(cfg: &Config) -> usize {
    let full = match cfg.workload {
        Workload::OptimizerCold => 2,
        Workload::WarmRefine => 60,
        Workload::ExploreSession => 12,
        Workload::AppendChurn => 4,
    };
    if cfg.smoke {
        (full / 10).max(1)
    } else {
        full
    }
}

/// Reader palette cycles replayed after each append: about the ratio of
/// reads to appends the TCP pass sees.
const READS_PER_APPEND: usize = 25;

/// Cache budget of the eviction replay. `cfq serve` has no budget flag, so
/// eviction is reachable only in-process.
const SMALL_CACHE_BYTES: usize = 1 << 18;

enum Op {
    Query(Box<Request>),
    Append(usize),
}

fn query(r: Request) -> Op {
    Op::Query(Box::new(r))
}

fn stream(cfg: &Config) -> Vec<Op> {
    let rounds = rounds(cfg);
    let cycle = |palette: &[Request], order: &[usize]| -> Vec<Op> {
        order.iter().map(|&i| query(palette[i].clone())).collect()
    };
    match cfg.workload {
        Workload::OptimizerCold => (0..rounds)
            .flat_map(|_| inputs::optimizer_cold(cfg.seed))
            .map(query)
            .collect(),
        Workload::WarmRefine => {
            let palette = inputs::warm_palette(cfg.seed);
            let order = inputs::client_order(cfg.seed, 0, palette.len());
            (0..rounds).flat_map(|_| cycle(&palette, &order)).collect()
        }
        Workload::ExploreSession => (0..rounds as u64)
            .flat_map(|i| inputs::explore_session(cfg.seed, i))
            .map(query)
            .collect(),
        Workload::AppendChurn => {
            let palette = inputs::append_palette();
            let order = inputs::client_order(cfg.seed, 0, palette.len());
            (0..rounds)
                .flat_map(|i| {
                    std::iter::once(Op::Append(i))
                        .chain((0..READS_PER_APPEND).flat_map(|_| cycle(&palette, &order)))
                        .collect::<Vec<_>>()
                })
                .collect()
        }
    }
}

fn warm_up(cfg: &Config) -> Vec<Request> {
    match cfg.workload {
        Workload::WarmRefine => vec![inputs::warm_up_request()],
        Workload::AppendChurn => inputs::append_palette(),
        _ => Vec::new(),
    }
}

/// Sums over the requests of one replay.
#[derive(Default)]
struct Sums {
    requests: u64,
    appends: u64,
    reply_bytes: u64,
    candidates_counted: u64,
    constraint_checks: u64,
    pruned_candidates: u64,
    db_scans: u64,
    level_candidates: u64,
    level_frequent: u64,
    rows_scanned: u64,
    items_scanned: u64,
    trim_rows_dropped: u64,
    pair_checks: u64,
    pair_candidates: u64,
    pair_valid: u64,
    /// Per request: its class, decode + execute + encode in µs, and
    /// whether it scanned the database.
    request_us: Vec<(String, f64, bool)>,
    execute_cold_us: Vec<f64>,
    execute_warm_us: Vec<f64>,
}

impl Sums {
    fn absorb_work(&mut self, w: &WorkStats) {
        self.candidates_counted += w.support_counted;
        self.constraint_checks += w.constraint_checks;
        self.pruned_candidates += w.pruned_candidates;
        for l in &w.levels {
            self.level_candidates += l.candidates;
            self.level_frequent += l.frequent;
        }
    }

    fn absorb_scan(&mut self, scan: &cfq_mining::ScanStats) {
        self.rows_scanned += scan.rows_scanned;
        self.items_scanned += scan.items_scanned;
        self.trim_rows_dropped += scan.trim_rows_dropped;
    }
}

struct Replayed {
    rec: Recorder,
    sums: Sums,
    engine: Arc<Engine>,
}

/// Replays `ops` on a fresh in-process engine. With `traced` every layer
/// call is a span and each request is followed by its replica; without,
/// only the per-request total is timed — the difference between the two
/// totals is what the tracing costs.
fn replay(
    cfg: &Config,
    data: &Data,
    ops: &[Op],
    traced: bool,
    config: EngineConfig,
) -> Result<Replayed, String> {
    let engine = Engine::with_config(data.db.clone(), inputs::catalog(cfg.data_seed()), config)
        .map_err(|e| format!("in-process engine: {e}"))?;
    let session = engine.session();
    for r in warm_up(cfg) {
        session
            .execute(&r.req)
            .map_err(|e| format!("warm-up {}: {e}", r.key))?;
    }
    let mut rec = Recorder::new(traced);
    let mut sums = Sums::default();
    for (id, op) in ops.iter().enumerate() {
        let id = id as u64;
        let r = match op {
            Op::Append(i) => {
                let delta = data.deltas[*i].clone();
                rec.span("engine.append", id, |_| engine.append(delta))
                    .map_err(|e| format!("append {i}: {e}"))?;
                sums.appends += 1;
                continue;
            }
            Op::Query(r) => r,
        };
        let t0 = Instant::now();
        let (out, reply_len) = rec.span("request", id, |rec| -> Result<_, String> {
            let req = match rec.span("wire.decode", id, |_| wire::parse_envelope(&r.line)) {
                Ok(WireCmd::Query(req)) => req,
                other => return Err(format!("{}: not a query envelope: {other:?}", r.key)),
            };
            let out = rec
                .span("session.execute", id, |_| session.execute(&req))
                .map_err(|e| format!("{}: {e}", r.key))?;
            let reply = rec.span("wire.encode", id, |_| {
                wire::result_object(&QueryResponse::from_outcome(&out).to_json())
            });
            Ok((out, std::hint::black_box(reply).len() + 1))
        })?;
        let request_us = t0.elapsed().as_secs_f64() * 1e6;
        sums.requests += 1;
        sums.reply_bytes += reply_len as u64;
        let cold = out.outcome.db_scans > 0;
        sums.request_us.push((r.class.clone(), request_us, cold));
        if !traced {
            continue;
        }
        let execute_us = rec
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "session.execute")
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e3);
        if cold {
            &mut sums.execute_cold_us
        } else {
            &mut sums.execute_warm_us
        }
        .push(execute_us);

        // The replica: the same request, step by step through the layers.
        let snap_db = engine.db();
        let catalog = engine.catalog();
        rec.span("replica", id, |rec| -> Result<(), String> {
            let bound = rec
                .span("constraints.parse_bind", id, |_| {
                    parse_query(&r.req.query).and_then(|q| bind_query(&q, &catalog))
                })
                .map_err(|e| format!("{}: {e}", r.key))?;
            let plan = rec.span("optimizer.plan", id, |_| {
                r.req.strategy.build_plan(&bound, &catalog)
            });
            let two_var = &plan.trace().final_two;
            let (s_sup, t_sup) = r
                .req
                .support
                .resolve(snap_db.len())
                .map_err(|e| e.to_string())?;
            let (s_sets, t_sets) = if r.req.bypass_cache {
                let env = QueryEnv::new(&snap_db, &catalog, s_sup)
                    .with_supports(s_sup, t_sup)
                    .with_s_universe(r.req.s_universe.clone())
                    .with_t_universe(r.req.t_universe.clone())
                    .without_pair_formation();
                let raw = rec
                    .span("optimizer.execute", id, |_| {
                        r.req.strategy.execute_plan(&plan, &env)
                    })
                    .map_err(|e| format!("{}: {e}", r.key))?;
                sums.absorb_work(&raw.s_stats);
                sums.absorb_work(&raw.t_stats);
                sums.absorb_scan(&raw.scan);
                sums.db_scans += raw.db_scans;
                (raw.s_sets, raw.t_sets)
            } else {
                // The engine path mines a side that misses the cache with
                // plain `apriori` over its effective universe.
                let p = &out.outcome.provenance;
                for (var, source, universe, sup) in [
                    (Var::S, p.s_lattice, &r.req.s_universe, s_sup),
                    (Var::T, p.t_lattice, &r.req.t_universe, t_sup),
                ] {
                    if !cold || source != LatticeSource::MinedCold {
                        continue;
                    }
                    let one: Vec<OneVar> = bound.one_var_for(var).cloned().collect();
                    let full: Vec<ItemId> = if universe.is_empty() {
                        (0..snap_db.n_items() as u32).map(ItemId).collect()
                    } else {
                        universe.clone()
                    };
                    let eff = SuccinctForm::compile(&one, &catalog).filter_universe(&full);
                    let mut work = WorkStats::new();
                    rec.span("mining.apriori", id, |_| {
                        apriori(
                            &snap_db,
                            &AprioriConfig::new(sup).with_universe(eff),
                            &mut work,
                        )
                    });
                    sums.absorb_work(&work);
                    sums.absorb_scan(&work.scan);
                    sums.db_scans += work.db_scans;
                }
                // Only the compacted sets leave the session, so pair
                // formation here sees fewer sets than the session's did.
                (out.outcome.s_sets.clone(), out.outcome.t_sets.clone())
            };
            // The session compacts the sets it owns; the copies it would
            // not have made are made here, outside the span.
            let (s_owned, t_owned) = (s_sets.clone(), t_sets.clone());
            let pairs = rec.span("pairs.form", id, |_| {
                let pairs = form_pairs(&s_sets, &t_sets, two_var, &catalog, r.req.max_pairs);
                let s = compact_used(s_owned, &pairs.s_used);
                let t = compact_used(t_owned, &pairs.t_used);
                std::hint::black_box((s, t));
                pairs
            });
            sums.pair_checks += pairs.checks;
            sums.pair_candidates += (s_sets.len() * t_sets.len()) as u64;
            sums.pair_valid += pairs.count;
            Ok(())
        })?;
    }
    Ok(Replayed { rec, sums, engine })
}

/// The values of the traced pass, by per-layer metric name.
pub struct LayerValues {
    pub values: BTreeMap<&'static str, f64>,
    /// Untraced in-process times of the requests that did not scan the
    /// database, by request class, µs: what `serve.overhead_us` is
    /// measured against.
    pub inproc_class_us: BTreeMap<String, Vec<f64>>,
    /// Remarks for the log.
    pub notes: Vec<String>,
    /// The recorder's spans as JSON, for `trace-<workload>.json`.
    pub trace_json: String,
}

/// Runs the traced pass of `cfg.workload` on `data`, using `scratch` for
/// the durable engine and the WAL/snapshot timings.
pub fn traced_pass(cfg: &Config, data: &Data, scratch: &Path) -> Result<LayerValues, String> {
    let ops = stream(cfg);
    // `append_churn` runs durable, as its server does; each replay gets a
    // WAL directory of its own.
    let config = |name: &str| -> Result<EngineConfig, String> {
        if cfg.workload != Workload::AppendChurn {
            return Ok(EngineConfig::default());
        }
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(EngineConfig::builder().wal_dir(dir).build())
    };
    let plain = replay(cfg, data, &ops, false, config("wal-untraced")?)?;
    let traced = replay(cfg, data, &ops, true, config("wal-traced")?)?;

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let sums = &traced.sums;
    let n = sums.requests.max(1) as f64;
    let totals = traced.rec.totals();
    let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    let per_request = |name: &str| self_us(name) / n;

    v.insert("wire.decode_us", per_request("wire.decode"));
    v.insert("wire.encode_us", per_request("wire.encode"));
    v.insert("wire.reply_bytes", sums.reply_bytes as f64 / n);
    v.insert(
        "constraints.parse_bind_us",
        per_request("constraints.parse_bind"),
    );
    v.insert("optimizer.plan_us", per_request("optimizer.plan"));
    v.insert("optimizer.execute_us", per_request("optimizer.execute"));
    v.insert(
        "optimizer.candidates_counted",
        sums.candidates_counted as f64 / n,
    );
    v.insert(
        "optimizer.constraint_checks",
        sums.constraint_checks as f64 / n,
    );
    v.insert(
        "optimizer.pruned_candidates",
        sums.pruned_candidates as f64 / n,
    );
    v.insert("optimizer.db_scans", sums.db_scans as f64 / n);
    v.insert("mining.cold_mine_us", per_request("mining.apriori"));
    v.insert("mining.level_candidates", sums.level_candidates as f64 / n);
    v.insert(
        "mining.frequent_per_candidate",
        sums.level_frequent as f64 / (sums.level_candidates.max(1)) as f64,
    );
    v.insert("mining.rows_scanned", sums.rows_scanned as f64 / n);
    v.insert("mining.items_scanned", sums.items_scanned as f64 / n);
    v.insert(
        "mining.trim_rows_dropped",
        sums.trim_rows_dropped as f64 / n,
    );
    v.insert("pairs.form_us", per_request("pairs.form"));
    v.insert("pairs.checks", sums.pair_checks as f64 / n);
    v.insert(
        "pairs.valid_per_check",
        sums.pair_valid as f64 / sums.pair_candidates.max(1) as f64,
    );
    v.insert("session.execute_us.cold", mean(&sums.execute_cold_us));
    v.insert("session.execute_us.warm", mean(&sums.execute_warm_us));
    v.insert(
        "engine.append_us",
        self_us("engine.append") / sums.appends.max(1) as f64,
    );

    // Where the time of a request went: the replica's layers against the
    // whole in-process request.
    let request_us = totals
        .get("request")
        .map_or(0.0, |t| t.total_ns as f64 / 1e3)
        / n;
    let execute_us = totals
        .get("session.execute")
        .map_or(0.0, |t| t.total_ns as f64 / 1e3)
        / n;
    let replica_us: f64 = [
        "constraints.parse_bind",
        "optimizer.plan",
        "optimizer.execute",
        "mining.apriori",
        "pairs.form",
    ]
    .into_iter()
    .map(per_request)
    .sum();
    v.insert("session.request_us", request_us);
    v.insert("session.residual_us", (execute_us - replica_us).max(0.0));
    let accounted =
        per_request("wire.decode") + per_request("wire.encode") + replica_us.min(execute_us);
    v.insert("trace.layer_cover", accounted / request_us.max(1e-9));
    let mean_us = |of: &Sums| {
        mean(
            &of.request_us
                .iter()
                .map(|(_, us, _)| *us)
                .collect::<Vec<_>>(),
        )
    };
    let untraced_us = mean_us(&plain.sums);
    v.insert(
        "trace.overhead_share",
        (mean_us(sums) - untraced_us) / untraced_us.max(1e-9),
    );
    let mut inproc_class_us: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (class, us, _) in plain.sums.request_us.iter().filter(|(_, _, cold)| !cold) {
        inproc_class_us.entry(class.clone()).or_default().push(*us);
    }

    let cache = traced.engine.cache_stats();
    let lookups = (cache.lattice_hits + cache.lattice_misses).max(1) as f64;
    v.insert("cache.lattice_hits", cache.lattice_hits as f64);
    v.insert("cache.lattice_misses", cache.lattice_misses as f64);
    v.insert("cache.hit_rate", cache.lattice_hits as f64 / lookups);
    v.insert(
        "cache.plan_hit_rate",
        cache.plan_hits as f64 / (cache.plan_hits + cache.plan_misses).max(1) as f64,
    );
    v.insert("cache.entries", cache.entries as f64);
    v.insert("cache.bytes_used", cache.bytes_used as f64);

    if cfg.workload == Workload::ExploreSession {
        // Eviction end to end: the same sessions against a cache too small
        // to keep them.
        let small = EngineConfig::builder()
            .cache_budget_bytes(SMALL_CACHE_BYTES)
            .build();
        let evicting = replay(cfg, data, &ops, false, small)?;
        v.insert(
            "cache.evictions",
            evicting.engine.cache_stats().evictions as f64,
        );
    }

    let mut notes = Vec::new();
    if cfg.workload == Workload::OptimizerCold {
        headline(cfg, data, &mut v, &mut notes)?;
    }
    standalone(cfg, data, scratch, &mut v)?;
    Ok(LayerValues {
        values: v,
        inproc_class_us,
        notes,
        trace_json: traced.rec.to_json(),
    })
}

/// The paper's headline inside the instrument: each `optimizer_cold`
/// request run one-shot by the full optimizer and by the Apriori⁺ strategy
/// (`Optimizer::apriori_plus()`), same engine defaults, same answers.
fn headline(
    cfg: &Config,
    data: &Data,
    v: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let engine = Engine::new(data.db.clone(), inputs::catalog(cfg.data_seed()))
        .map_err(|e| e.to_string())?;
    let session = engine.session();
    let (mut full_us, mut plus_us) = (0.0, 0.0);
    for r in inputs::optimizer_cold(cfg.seed) {
        let mut baseline = r.req.clone();
        baseline.strategy = Strategy::apriori_plus();
        let (full, us) = timed_us(|| session.execute(&r.req));
        let (plus, us_plus) = timed_us(|| session.execute(&baseline));
        let (full, plus) = (
            full.map_err(|e| e.to_string())?.outcome,
            plus.map_err(|e| e.to_string())?.outcome,
        );
        if (
            full.pair_result.count,
            &full.pair_result.pairs,
            &full.s_sets,
            &full.t_sets,
        ) != (
            plus.pair_result.count,
            &plus.pair_result.pairs,
            &plus.s_sets,
            &plus.t_sets,
        ) {
            return Err(format!("{}: the optimizer and Apriori+ disagree", r.key));
        }
        notes.push(format!(
            "shape {}: Apriori+ {:.0} ms / optimizer {:.0} ms = {:.1}x, identical answers ({} pairs)",
            r.shape,
            us_plus / 1e3,
            us / 1e3,
            us_plus / us,
            full.pair_result.count
        ));
        full_us += us;
        plus_us += us_plus;
    }
    v.insert("verify.apriori_plus_over_optimizer", plus_us / full_us);
    Ok(())
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// Stand-alone timings of the mining primitives on the workload's own
/// universe (every item, or the first explore session's 400), and for
/// `append_churn` of FUP, the WAL and snapshots.
fn standalone(
    cfg: &Config,
    data: &Data,
    scratch: &Path,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let db = &data.db;
    let universe: Vec<ItemId> = match cfg.workload {
        Workload::ExploreSession => inputs::explore_session(cfg.seed, 0)[0]
            .req
            .s_universe
            .clone(),
        _ => (0..db.n_items() as u32).map(ItemId).collect(),
    };
    let min_support = ((SUPPORT * db.len() as f64).ceil() as u64).max(1);
    let mut lattice = FrequentSets::new();
    for (name, backend) in [
        ("mining.apriori_us.horizontal", CountingBackend::Horizontal),
        ("mining.apriori_us.tidset", CountingBackend::Tidset),
        ("mining.apriori_us.bitmap", CountingBackend::Bitmap),
        ("mining.apriori_us.auto", CountingBackend::Auto),
    ] {
        let cfg = AprioriConfig::new(min_support)
            .with_universe(universe.clone())
            .with_backend(backend);
        let (mined, us) = timed_us(|| apriori(db, &cfg, &mut WorkStats::new()));
        if lattice.total() != 0 && mined.total() != lattice.total() {
            return Err(format!(
                "backend {} mined {} sets, not {}",
                backend.name(),
                mined.total(),
                lattice.total()
            ));
        }
        lattice = mined;
        v.insert(name, us);
    }
    // The level-2 pass is the widest of a run: time its three steps.
    let singles: Vec<Itemset> = lattice.level_sets(1);
    let (level2, us) = timed_us(|| generate_candidates(&singles, |_| true));
    v.insert("mining.candgen_us", us);
    let (_, us) = timed_us(|| count_supports_with(db, &[&level2], 1));
    v.insert("mining.count_us", us);
    let live = LiveSet::from_items(db.n_items(), singles.iter().flat_map(|s| s.iter()));
    let (_, us) = timed_us(|| trim_db(db, &live, 2));
    v.insert("mining.trim_us", us);
    let (_, us) = timed_us(|| TidsetIndex::build(db));
    v.insert("mining.index_build_us.tidset", us);
    let (_, us) = timed_us(|| BitmapIndex::build(db));
    v.insert("mining.index_build_us.bitmap", us);

    if cfg.workload != Workload::AppendChurn {
        return Ok(());
    }
    let delta = &data.deltas[0];
    let (fup, us) = timed_us(|| {
        fup_update_abs(
            &lattice,
            db,
            delta,
            &universe,
            min_support,
            min_support,
            &mut WorkStats::new(),
        )
    });
    fup.map_err(|e| format!("fup_update_abs: {e}"))?;
    v.insert("mining.fup_us", us);

    let dir = scratch.join("wal-standalone");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let io = |e: cfq_types::CfqError| e.to_string();
    let mut writer = WalWriter::create(&dir, 1).map_err(io)?;
    let records = data.deltas.len().min(4);
    let mut append_us = Vec::new();
    for (i, delta) in data.deltas[..records].iter().enumerate() {
        let record = WalRecord {
            epoch: i as u64 + 1,
            delta: delta.clone(),
        };
        let (written, us) = timed_us(|| writer.append(&record));
        written.map_err(io)?;
        append_us.push(us);
    }
    v.insert("wal.append_us", mean(&append_us));
    v.insert(
        "wal.bytes_per_record",
        writer.bytes as f64 / records.max(1) as f64,
    );
    drop(writer);
    let (replayed, us) = timed_us(|| wal::replay(&dir, 0, |_| Ok(())));
    if replayed.map_err(io)?.records != records as u64 {
        return Err("WAL replay lost a record".into());
    }
    v.insert("wal.replay_us", us);
    let view = LatticeView {
        universe: &universe,
        min_support,
        scans_cost: 1,
        lattice: &lattice,
    };
    let (written, us) = timed_us(|| snapshot::write(&dir, records as u64, db, &[view]));
    v.insert("snapshot.write_us", us);
    v.insert("snapshot.bytes", written.map_err(io)?.1 as f64);
    let (loaded, us) = timed_us(|| snapshot::load_latest(&dir));
    if loaded.map_err(io)?.is_none() {
        return Err("the snapshot just written did not load".into());
    }
    v.insert("snapshot.load_us", us);
    Ok(())
}
