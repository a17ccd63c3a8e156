//! The long-lived engine: an epoch-versioned database plus the caches.
//!
//! An [`Engine`] owns one immutable [`TransactionDb`] snapshot per *epoch*
//! together with the catalog, and serves any number of concurrent
//! [`Session`] handles. Queries snapshot the current epoch
//! under a brief lock, mine (or reuse) lattices entirely outside the lock,
//! and re-acquire it only to install results — so readers never block on
//! each other's mining, and an [`Engine::append`] never blocks readers:
//! they keep serving the old epoch until the swap is a single pointer
//! store.
//!
//! `append` is the paper's maintenance story wired into the cache layer:
//! the new epoch's database is the old one plus the delta, and every
//! cached lattice is upgraded **in place** with FUP
//! ([`fup_update_abs`]) instead of being invalidated — the cache stays
//! warm across updates, which is what makes the Fig. 8 workloads re-run
//! with zero database scans after an append.

use crate::cache::{CacheHit, CacheStats, LatticeCache, LatticeEntry, PlanCache, StoredLattice};
use crate::scheduler::{AdmissionPermit, GroupRole, Resolved, Scheduler, SchedulerStats};
use crate::session::Session;
use crate::snapshot::{self, LatticeView};
use crate::wal::{self, WalRecord, WalWriter};
use cfq_core::{CfqPlan, LatticeSource, Optimizer};
use cfq_obs as obs;
use cfq_mining::{apriori, fup_update_abs, AprioriConfig, CountingBackend, WorkStats};
use cfq_types::{Catalog, CfqError, ItemId, Result, TransactionDb};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tuning knobs of an [`Engine`]. Construct with
/// [`EngineConfig::builder`] — the builder is the one canonical surface
/// for every knob the CLI flags and wire requests expose.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Byte budget of the lattice cache (default 64 MiB). Must be
    /// positive; construction fails with [`CfqError::CacheBudget`]
    /// otherwise.
    pub cache_budget_bytes: usize,
    /// Entry cap of the plan cache (default 128; 0 disables it).
    pub plan_cache_entries: usize,
    /// Default support-counting threads for sessions (1 = sequential,
    /// 0 = one per core); overridable per query.
    pub counting_threads: usize,
    /// Default per-level database reduction for cold mining; overridable
    /// per query. Cached lattices are identical either way, so entries
    /// are shared across queries regardless of their trim setting.
    pub trim: bool,
    /// Default support-counting backend for cold mining; overridable per
    /// query. All backends produce bit-identical lattices, so cache
    /// entries are shared across queries regardless of backend.
    pub backend: CountingBackend,
    /// Maximum concurrently executing queries (0 = unlimited;
    /// default 256).
    pub max_inflight_queries: usize,
    /// Maximum queries waiting for an execution slot beyond the in-flight
    /// cap before new arrivals are rejected with
    /// [`CfqError::Overloaded`] (0 = unlimited; default 1024).
    pub max_queued_queries: usize,
    /// Durability directory (default `None` = ephemeral engine). When
    /// set, construction recovers from the newest snapshot plus WAL
    /// replay, and every [`Engine::append`] is written to the WAL and
    /// fsynced before it is acknowledged.
    pub wal_dir: Option<PathBuf>,
    /// Write a snapshot and rotate the WAL every N durable appends
    /// (default 8; 0 = snapshots only via [`Engine::snapshot_now`]).
    pub snapshot_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_budget_bytes: 64 << 20,
            plan_cache_entries: 128,
            counting_threads: 1,
            trim: true,
            backend: CountingBackend::Horizontal,
            max_inflight_queries: 256,
            max_queued_queries: 1024,
            wal_dir: None,
            snapshot_every: 8,
        }
    }
}

impl EngineConfig {
    /// Starts a builder over the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { config: EngineConfig::default() }
    }
}

/// Fluent builder for [`EngineConfig`] — one method per knob, mirroring
/// the `cfq serve` flags (`--backend`, `--max-inflight`, `--queue-depth`,
/// `--wal-dir`, `--snapshot-every`).
#[derive(Clone, Debug)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Byte budget of the lattice cache.
    pub fn cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.config.cache_budget_bytes = bytes;
        self
    }

    /// Entry cap of the plan cache (0 disables it).
    pub fn plan_cache_entries(mut self, entries: usize) -> Self {
        self.config.plan_cache_entries = entries;
        self
    }

    /// Default support-counting threads (1 = sequential, 0 = per core).
    pub fn counting_threads(mut self, threads: usize) -> Self {
        self.config.counting_threads = threads;
        self
    }

    /// Default per-level database reduction for cold mining.
    pub fn trim(mut self, trim: bool) -> Self {
        self.config.trim = trim;
        self
    }

    /// Default support-counting backend.
    pub fn backend(mut self, backend: CountingBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Maximum concurrently executing queries (0 = unlimited).
    pub fn max_inflight_queries(mut self, n: usize) -> Self {
        self.config.max_inflight_queries = n;
        self
    }

    /// Maximum queued queries beyond the in-flight cap (0 = unlimited).
    pub fn max_queued_queries(mut self, n: usize) -> Self {
        self.config.max_queued_queries = n;
        self
    }

    /// Durability directory: WAL + snapshots + boot-time recovery.
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.wal_dir = Some(dir.into());
        self
    }

    /// Snapshot-and-rotate cadence in durable appends (0 = manual only).
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.config.snapshot_every = every;
        self
    }

    /// Finishes the builder. Validation (the cache budget) happens in
    /// [`Engine::with_config`].
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// A counter snapshot of the durability subsystem
/// ([`Engine::durability_stats`]). All zeros on an ephemeral engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityStats {
    /// Whether a WAL directory is configured.
    pub enabled: bool,
    /// WAL records written by this process.
    pub wal_records: u64,
    /// WAL payload bytes written by this process.
    pub wal_bytes: u64,
    /// WAL fsyncs issued by this process.
    pub wal_fsyncs: u64,
    /// WAL records replayed at boot recovery.
    pub replayed_records: u64,
    /// Snapshots written by this process.
    pub snapshot_writes: u64,
    /// Snapshot bytes written by this process.
    pub snapshot_bytes: u64,
    /// Snapshot attempts that failed (the append itself still
    /// succeeded; the WAL covers the gap until the next attempt).
    pub snapshot_failures: u64,
    /// Epoch of the newest snapshot written or recovered from.
    pub last_snapshot_epoch: u64,
}

/// What [`Engine::snapshot_now`] wrote.
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// The epoch the snapshot captures.
    pub epoch: u64,
    /// Final snapshot file path.
    pub path: PathBuf,
    /// Snapshot file size in bytes.
    pub bytes: u64,
}

/// Mutable durability state, locked after `append_lock` and before the
/// engine state lock.
struct DurabilityState {
    dir: PathBuf,
    writer: WalWriter,
    snapshot_every: u64,
    appends_since_snapshot: u64,
    replayed_records: u64,
    snapshot_writes: u64,
    snapshot_bytes: u64,
    snapshot_failures: u64,
    last_snapshot_epoch: u64,
    /// Counters carried over from writers retired by WAL rotation, so
    /// the process totals survive segment changes.
    retired_records: u64,
    retired_bytes: u64,
    retired_fsyncs: u64,
}

/// What an [`Engine::append`] did: the new epoch and the FUP work.
#[derive(Clone, Copy, Debug)]
pub struct EpochInfo {
    /// The epoch now current.
    pub epoch: u64,
    /// Transactions in the new epoch's database.
    pub transactions: usize,
    /// Cached lattices upgraded in place with FUP.
    pub upgraded_lattices: usize,
    /// Candidate sets FUP had to re-count against the old database across
    /// all upgrades (its cost driver; 0 when the delta resembles the
    /// past).
    pub old_db_recounts: u64,
}

/// One epoch's immutable view of the data: queries hold an `Arc` to this
/// and are unaffected by later appends.
pub(crate) struct EpochState {
    pub epoch: u64,
    pub db: Arc<TransactionDb>,
    pub catalog: Arc<Catalog>,
}

struct EngineState {
    current: Arc<EpochState>,
    lattices: LatticeCache,
    plans: PlanCache,
}

/// The session engine. Construct with [`Engine::new`], hand out
/// [`Session`]s with [`Engine::session`], grow the data with
/// [`Engine::append`].
pub struct Engine {
    state: Mutex<EngineState>,
    /// Serializes appends with each other (never with queries).
    append_lock: Mutex<()>,
    /// Lock order: `append_lock` → `durability` → `state`. Attached once
    /// recovery has replayed the WAL; `None` on an ephemeral engine.
    durability: Option<Mutex<DurabilityState>>,
    scheduler: Scheduler,
    config: EngineConfig,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.locked();
        f.debug_struct("Engine")
            .field("epoch", &st.current.epoch)
            .field("transactions", &st.current.db.len())
            .field("cached_lattices", &st.lattices.entries())
            .finish()
    }
}

impl Engine {
    /// Creates an engine over `db` and `catalog` with default
    /// configuration.
    pub fn new(db: TransactionDb, catalog: Catalog) -> Result<Arc<Engine>> {
        Engine::with_config(db, catalog, EngineConfig::default())
    }

    /// Creates an engine with explicit configuration. Fails with
    /// [`CfqError::Engine`] when the catalog covers fewer items than the
    /// database references, and with [`CfqError::CacheBudget`] on a zero
    /// cache budget.
    ///
    /// With `wal_dir` set, `db` is the *seed* for a fresh directory: when
    /// the directory already holds a snapshot or WAL, construction
    /// recovers — install the newest valid snapshot (database plus cached
    /// lattices, every image gated by `TransactionDb::validate` and the
    /// lattice shape checks), then replay every WAL record above its
    /// epoch — and serves warm from the recovered state.
    pub fn with_config(
        db: TransactionDb,
        catalog: Catalog,
        config: EngineConfig,
    ) -> Result<Arc<Engine>> {
        if catalog.n_items() < db.n_items() {
            return Err(CfqError::Engine(format!(
                "catalog covers {} items but the database references up to {}",
                catalog.n_items(),
                db.n_items()
            )));
        }
        if config.cache_budget_bytes == 0 {
            return Err(CfqError::CacheBudget(
                "the lattice cache budget must be positive".into(),
            ));
        }
        let current = Arc::new(EpochState {
            epoch: 0,
            db: Arc::new(db),
            catalog: Arc::new(catalog),
        });
        let mut engine = Engine {
            state: Mutex::new(EngineState {
                current,
                lattices: LatticeCache::new(config.cache_budget_bytes),
                plans: PlanCache::new(config.plan_cache_entries),
            }),
            append_lock: Mutex::new(()),
            durability: None,
            scheduler: Scheduler::new(config.max_inflight_queries, config.max_queued_queries),
            config,
        };
        if let Some(dir) = engine.config.wal_dir.clone() {
            engine.durability = Some(Mutex::new(engine.recover(&dir)?));
        }
        Ok(Arc::new(engine))
    }

    /// Boot-time recovery: newest valid snapshot, then WAL replay, then
    /// reopen or create the tail WAL segment. Returns the durability state
    /// for the caller to attach: replay runs before it is attached, so
    /// [`Engine::append`] does not log the records it replays again.
    fn recover(&self, dir: &Path) -> Result<DurabilityState> {
        std::fs::create_dir_all(dir)?;
        let mut span = obs::span(obs::Level::Info, "engine.recover")
            .str("dir", dir.display().to_string());
        let mut snapshot_epoch = 0u64;
        if let Some(image) = snapshot::load_latest(dir)? {
            let mut st = self.locked();
            if image.db.n_items() > st.current.catalog.n_items() {
                return Err(CfqError::Engine(format!(
                    "snapshot references {} items but the catalog covers {}",
                    image.db.n_items(),
                    st.current.catalog.n_items()
                )));
            }
            snapshot_epoch = image.epoch;
            st.current = Arc::new(EpochState {
                epoch: image.epoch,
                db: Arc::new(image.db),
                catalog: Arc::clone(&st.current.catalog),
            });
            for l in image.lattices {
                // Oversize images just don't re-enter the cache; the
                // budget may have shrunk since the snapshot was taken.
                let _ = st.lattices.insert(LatticeEntry::new(
                    image.epoch,
                    Arc::new(l.universe),
                    l.min_support,
                    Arc::new(l.lattice),
                    LatticeSource::Cached,
                    l.scans_cost,
                ));
            }
        }
        let after_epoch = self.epoch();
        let summary = wal::replay(dir, after_epoch, |rec| self.append(rec.delta).map(|_| ()))?;
        span.record_u64("snapshot_epoch", snapshot_epoch);
        span.record_u64("replayed_records", summary.records);
        span.record_u64("epoch", self.epoch());
        let writer = match summary.tail {
            Some((path, valid_end)) => WalWriter::reopen(&path, valid_end)?,
            None => WalWriter::create(dir, self.epoch() + 1)?,
        };
        Ok(DurabilityState {
            dir: dir.to_path_buf(),
            writer,
            snapshot_every: self.config.snapshot_every,
            appends_since_snapshot: summary.records,
            replayed_records: summary.records,
            snapshot_writes: 0,
            snapshot_bytes: 0,
            snapshot_failures: 0,
            last_snapshot_epoch: snapshot_epoch,
            retired_records: 0,
            retired_bytes: 0,
            retired_fsyncs: 0,
        })
    }

    fn locked(&self) -> MutexGuard<'_, EngineState> {
        // A panic while holding the lock can only happen between plain
        // field updates; the state is still consistent, so recover it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a session on this engine. Sessions are cheap handles; open
    /// one per thread of work.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current epoch (0 at construction, +1 per append).
    pub fn epoch(&self) -> u64 {
        self.locked().current.epoch
    }

    /// The current epoch's database snapshot.
    pub fn db(&self) -> Arc<TransactionDb> {
        Arc::clone(&self.locked().current.db)
    }

    /// The catalog (immutable over the engine's lifetime).
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.locked().current.catalog)
    }

    /// A counter snapshot of the scheduler: mining passes, coalesced
    /// queries, admission-control activity.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Takes a query execution slot, queueing at the scheduler's
    /// admission gate and failing fast with [`CfqError::Overloaded`]
    /// when both the in-flight and queue limits are exhausted.
    pub(crate) fn admit(&self) -> Result<AdmissionPermit<'_>> {
        self.scheduler.admit()
    }

    /// A counter snapshot of both caches.
    pub fn cache_stats(&self) -> CacheStats {
        let st = self.locked();
        CacheStats {
            lattice_hits: st.lattices.hits,
            lattice_misses: st.lattices.misses,
            scans_saved: st.lattices.scans_saved,
            plan_hits: st.plans.hits,
            plan_misses: st.plans.misses,
            evictions: st.lattices.evictions,
            oversize_rejections: st.lattices.oversize_rejections,
            stale_drops: st.lattices.stale_drops,
            entries: st.lattices.entries(),
            bytes_used: st.lattices.bytes_used(),
            budget_bytes: st.lattices.budget(),
        }
    }

    pub(crate) fn snapshot(&self) -> Arc<EpochState> {
        Arc::clone(&self.locked().current)
    }

    /// Serves the plan for `fingerprint` from the plan cache, building it
    /// with `build` on a miss. Returns `(plan, was_cached)`.
    pub(crate) fn plan_for(
        &self,
        fingerprint: u64,
        build: impl FnOnce() -> CfqPlan,
    ) -> (Arc<CfqPlan>, bool) {
        let mut span = obs::span(obs::Level::Debug, "engine.plan")
            .str("fingerprint", format!("{fingerprint:016x}"));
        if let Some(plan) = self.locked().plans.get(fingerprint) {
            span.record_str("source", "plan_cache_hit");
            return (plan, true);
        }
        // Build outside the lock; losing a race just builds twice.
        let plan = Arc::new(build());
        self.locked().plans.insert(fingerprint, Arc::clone(&plan));
        span.record_str("source", "built");
        (plan, false)
    }

    /// Serves a lattice holding every set of `universe` frequent at
    /// `min_support` in `snap`'s database, in its stored form (levels ≥ 2;
    /// level 1 is `snap.db`'s column): from the cache when a compatible
    /// entry exists, through the scheduler's single-flight groups on a
    /// miss. Cache work is recorded both in the engine's counters and in
    /// `stats` (hit/miss/scans-saved). Only unbounded minings
    /// (`max_level == 0`) may lead a group and be inserted — a level-capped
    /// family is not complete, so it cannot serve other queries or be
    /// FUP-upgraded; capped requests may still *join* a group, since the
    /// complete result it produces serves them by filtering.
    ///
    /// The key is split. `probe` — the items of `universe` frequent at
    /// `min_support` — is what the cache is searched with: every frequent
    /// set of `universe` lies inside it, so any entry complete over a
    /// superset of `probe` at a threshold no higher serves. A miss mines,
    /// single-flights and inserts under the whole `universe`, so an item of
    /// it that an append makes frequent is in the entry FUP upgrades.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lattice_for(
        &self,
        snap: &EpochState,
        universe: &[ItemId],
        probe: &[ItemId],
        min_support: u64,
        max_level: usize,
        threads: usize,
        trim: bool,
        backend: CountingBackend,
        stats: &mut WorkStats,
    ) -> (Arc<StoredLattice>, LatticeSource) {
        if universe.is_empty() {
            // An unsatisfiable side mines nothing and caches nothing.
            return (Arc::default(), LatticeSource::MinedCold);
        }
        let mut span = obs::span(obs::Level::Debug, "engine.lattice")
            .u64("universe", universe.len() as u64)
            .u64("min_support", min_support)
            .u64("epoch", snap.epoch);
        if let Some(CacheHit { lattice, source, scans_cost }) =
            self.locked().lattices.lookup(snap.epoch, probe, min_support)
        {
            stats.record_cache_hit(scans_cost);
            span.record_str("source", source.describe());
            span.record_u64("scans_saved", scans_cost);
            return (lattice, source);
        }

        // Miss: resolve through the scheduler so concurrent misses share
        // one mining pass. A joined group may have mined at a lower
        // support than requested; the caller filters by its own
        // threshold, so the superset is sound.
        let mut led_work: Option<WorkStats> = None;
        let mut found: Option<LatticeSource> = None;
        let role = self.scheduler.mine_or_join(
            snap.epoch,
            universe,
            min_support,
            max_level == 0,
            || {
                // A group that finished between the lookup above and this
                // group's publication has already inserted its entry:
                // serve that rather than mine the same lattice again.
                if let Some(hit) =
                    self.locked().lattices.relookup(snap.epoch, probe, min_support)
                {
                    found = Some(hit.source);
                    return Resolved { lattice: hit.lattice, scans_cost: hit.scans_cost, mined: false };
                }
                let mut mine = WorkStats::new();
                let cfg = AprioriConfig::new(min_support)
                    .with_universe(universe.to_vec())
                    .with_trim(trim)
                    .with_backend(backend)
                    .with_counting_threads(threads);
                let lattice = Arc::new(StoredLattice::new(apriori(&snap.db, &cfg, &mut mine)));
                let scans_cost = mine.db_scans;
                led_work = Some(mine);
                let entry = LatticeEntry::new(
                    snap.epoch,
                    Arc::new(universe.to_vec()),
                    min_support,
                    Arc::clone(&lattice),
                    LatticeSource::Cached,
                    scans_cost,
                );
                let mut st = self.locked();
                if st.current.epoch == snap.epoch {
                    // Oversize rejection is counted inside the cache; the
                    // query itself already has its lattice.
                    let _ = st.lattices.insert(entry);
                } else {
                    st.lattices.record_stale_drop();
                }
                Resolved { lattice, scans_cost, mined: true }
            },
        );
        match (role, found) {
            (Some(GroupRole::Led { lattice, scans_cost }), Some(source)) => {
                stats.record_cache_hit(scans_cost);
                span.record_str("source", source.describe());
                span.record_u64("scans_saved", scans_cost);
                (lattice, source)
            }
            (Some(GroupRole::Led { lattice, scans_cost }), None) => {
                stats.record_cache_miss();
                stats.absorb(&led_work.expect("leader ran the mine closure"));
                span.record_str("source", "mined_cold");
                span.record_u64("db_scans", scans_cost);
                (lattice, LatticeSource::MinedCold)
            }
            (Some(GroupRole::Joined { lattice, scans_cost }), _) => {
                stats.record_cache_hit(scans_cost);
                self.locked().lattices.credit_saved(scans_cost);
                span.record_str("source", LatticeSource::Coalesced.describe());
                span.record_u64("scans_saved", scans_cost);
                (lattice, LatticeSource::Coalesced)
            }
            (None, _) => {
                // Level-capped with nothing to join: mine directly, at
                // the requested cap, without caching.
                stats.record_cache_miss();
                span.record_str("source", "mined_cold");
                let mut mine = WorkStats::new();
                let cfg = AprioriConfig::new(min_support)
                    .with_universe(universe.to_vec())
                    .with_max_level(max_level)
                    .with_trim(trim)
                    .with_backend(backend)
                    .with_counting_threads(threads);
                let lattice = Arc::new(StoredLattice::new(apriori(&snap.db, &cfg, &mut mine)));
                self.scheduler.note_direct_mining();
                span.record_u64("db_scans", mine.db_scans);
                stats.absorb(&mine);
                (lattice, LatticeSource::MinedCold)
            }
        }
    }

    /// Predicted provenance of [`Engine::lattice_for`] on the same keys,
    /// without perturbing counters or LRU order (for `explain`).
    pub(crate) fn peek_source(
        &self,
        snap: &EpochState,
        universe: &[ItemId],
        probe: &[ItemId],
        min_support: u64,
    ) -> LatticeSource {
        if universe.is_empty() {
            return LatticeSource::MinedCold;
        }
        self.locked()
            .lattices
            .peek(snap.epoch, probe, min_support)
            .unwrap_or(LatticeSource::MinedCold)
    }

    /// Appends `delta` as a new epoch.
    ///
    /// The new epoch's database is the concatenation of the current one
    /// and `delta` (same item universe required). Every cached lattice of
    /// the outgoing epoch is upgraded in place with FUP at its own
    /// threshold — complete universe-restricted families are downward
    /// closed, exactly what [`fup_update_abs`] maintains — so sessions
    /// keep their cache warmth across the swap. Queries running during
    /// the append finish against their snapshot; results they try to
    /// cache afterwards are dropped as stale.
    ///
    /// With a WAL configured, the delta is written and fsynced *before*
    /// the epoch swap makes it visible, so an acknowledged append
    /// survives `kill -9`; a crash between the WAL write and the
    /// acknowledgment may replay an unacknowledged delta at recovery
    /// (at-least-once, never lossy).
    pub fn append(&self, delta: TransactionDb) -> Result<EpochInfo> {
        let _serialize =
            self.append_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut span = obs::span(obs::Level::Info, "engine.fup_append")
            .u64("delta_rows", delta.len() as u64);
        let snap = self.snapshot();
        let combined = snap.db.concat(&delta)?;
        let old_entries = self.locked().lattices.snapshot_epoch(snap.epoch);
        let mut upgraded = Vec::with_capacity(old_entries.len());
        let mut old_db_recounts = 0u64;
        for e in old_entries {
            let mut stats = WorkStats::new();
            let out = fup_update_abs(
                &e.lattice.complete(&snap.db, &e.universe, e.min_support),
                &snap.db,
                &delta,
                &e.universe,
                e.min_support,
                e.min_support,
                &mut stats,
            )?;
            old_db_recounts += out.old_db_recounts;
            upgraded.push(LatticeEntry {
                last_used: e.last_used,
                ..LatticeEntry::new(
                    snap.epoch + 1,
                    e.universe,
                    e.min_support,
                    Arc::new(StoredLattice::new(out.frequent)),
                    LatticeSource::FupUpgraded,
                    // Keep crediting what a cold re-mine would have cost;
                    // the combined database is at least as expensive to
                    // scan.
                    e.scans_cost,
                )
            });
        }
        // Durable-before-visible: the record is on disk (fsynced) before
        // the swap below acknowledges the epoch. A failure here leaves
        // the in-memory state untouched.
        if let Some(d) = &self.durability {
            let record = WalRecord { epoch: snap.epoch + 1, delta };
            let bytes = d.lock().unwrap_or_else(|e| e.into_inner()).writer.append(&record)?;
            span.record_u64("wal_bytes", bytes);
        }
        let upgraded_lattices = upgraded.len();
        let info = {
            let mut st = self.locked();
            st.current = Arc::new(EpochState {
                epoch: snap.epoch + 1,
                db: Arc::new(combined),
                catalog: Arc::clone(&snap.catalog),
            });
            st.lattices.replace_all(upgraded);
            EpochInfo {
                epoch: st.current.epoch,
                transactions: st.current.db.len(),
                upgraded_lattices,
                old_db_recounts,
            }
        };
        if let Some(d) = &self.durability {
            let mut d = d.lock().unwrap_or_else(|e| e.into_inner());
            if d.snapshot_every > 0 {
                d.appends_since_snapshot += 1;
                if d.appends_since_snapshot >= d.snapshot_every {
                    // The append already succeeded and its record is on
                    // the WAL; a failed snapshot only defers compaction to
                    // the next attempt.
                    if let Err(e) = self.write_snapshot(&mut d) {
                        d.snapshot_failures += 1;
                        span.record_str("snapshot_error", e.to_string());
                    }
                }
            }
        }
        span.record_u64("epoch", info.epoch);
        span.record_u64("upgraded_lattices", info.upgraded_lattices as u64);
        span.record_u64("old_db_recounts", info.old_db_recounts);
        Ok(info)
    }

    /// Writes a snapshot of the current epoch (database plus every cached
    /// lattice of that epoch) and rotates the WAL. Fails with
    /// [`CfqError::Config`] on an ephemeral engine.
    pub fn snapshot_now(&self) -> Result<SnapshotInfo> {
        let d = self.durability.as_ref().ok_or_else(|| {
            CfqError::Config("snapshots need a durability directory (--wal-dir)".into())
        })?;
        let _serialize =
            self.append_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut d = d.lock().unwrap_or_else(|e| e.into_inner());
        self.write_snapshot(&mut d)
    }

    /// Snapshot + WAL rotation. Caller holds `append_lock` and the
    /// durability lock.
    fn write_snapshot(&self, d: &mut DurabilityState) -> Result<SnapshotInfo> {
        let mut span = obs::span(obs::Level::Info, "engine.snapshot");
        let (epoch, db, entries) = {
            let st = self.locked();
            let epoch = st.current.epoch;
            (epoch, Arc::clone(&st.current.db), st.lattices.snapshot_epoch(epoch))
        };
        let views: Vec<LatticeView<'_>> = entries
            .iter()
            .map(|e| LatticeView {
                universe: &e.universe,
                min_support: e.min_support,
                scans_cost: e.scans_cost,
                lattice: e.lattice.upper_levels(),
            })
            .collect();
        let (path, bytes) = snapshot::write(&d.dir, epoch, &db, &views)?;
        span.record_u64("epoch", epoch);
        span.record_u64("bytes", bytes);
        span.record_u64("lattices", views.len() as u64);
        // Rotate: later appends go to a fresh segment so generations at
        // or below the snapshot can be pruned. Skip when no epoch has
        // passed since the last rotation (back-to-back manual
        // snapshots) — the segment already starts past the snapshot.
        if d.writer.path() != wal::wal_path(&d.dir, epoch + 1) {
            let fresh = WalWriter::create(&d.dir, epoch + 1)?;
            let old = std::mem::replace(&mut d.writer, fresh);
            d.retired_records += old.records;
            d.retired_bytes += old.bytes;
            d.retired_fsyncs += old.fsyncs;
            let _pruned = wal::prune(&d.dir, epoch)?;
        }
        d.snapshot_writes += 1;
        d.snapshot_bytes += bytes;
        d.last_snapshot_epoch = epoch;
        d.appends_since_snapshot = 0;
        Ok(SnapshotInfo { epoch, path, bytes })
    }

    /// A counter snapshot of the durability subsystem.
    pub fn durability_stats(&self) -> DurabilityStats {
        let Some(d) = &self.durability else {
            return DurabilityStats::default();
        };
        let d = d.lock().unwrap_or_else(|e| e.into_inner());
        DurabilityStats {
            enabled: true,
            wal_records: d.retired_records + d.writer.records,
            wal_bytes: d.retired_bytes + d.writer.bytes,
            wal_fsyncs: d.retired_fsyncs + d.writer.fsyncs,
            replayed_records: d.replayed_records,
            snapshot_writes: d.snapshot_writes,
            snapshot_bytes: d.snapshot_bytes,
            snapshot_failures: d.snapshot_failures,
            last_snapshot_epoch: d.last_snapshot_epoch,
        }
    }
}

/// Fingerprint helper shared by `Session` and tests: hashes the strategy
/// flags and the bound constraints' display forms (which include every
/// resolved id and literal).
pub(crate) fn plan_fingerprint(
    strategy: &Optimizer,
    bound: &cfq_constraints::BoundQuery,
    catalog: &Catalog,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = cfq_types::FxHasher::default();
    (strategy.push_one_var, strategy.push_two_var, strategy.use_jkmax, strategy.dovetail)
        .hash(&mut h);
    for c in &bound.one_var {
        c.display(catalog).to_string().hash(&mut h);
    }
    for c in &bound.two_var {
        c.display(catalog).to_string().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(n: usize) -> Catalog {
        let mut b = cfq_types::CatalogBuilder::new(n);
        b.num_attr("Price", (0..n).map(|i| 10.0 * (i + 1) as f64).collect())
            .unwrap();
        b.build()
    }

    fn db() -> TransactionDb {
        TransactionDb::from_u32(
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
        )
    }

    #[test]
    fn construction_validates_catalog_and_budget() {
        let err = Engine::new(db(), catalog(2)).unwrap_err();
        assert!(matches!(err, CfqError::Engine(_)), "{err}");
        assert!(err.to_string().contains("catalog covers 2 items"));

        let cfg = EngineConfig { cache_budget_bytes: 0, ..EngineConfig::default() };
        let err = Engine::with_config(db(), catalog(6), cfg).unwrap_err();
        assert!(matches!(err, CfqError::CacheBudget(_)), "{err}");
    }

    #[test]
    fn append_concatenates_and_bumps_epoch() {
        let engine = Engine::new(db(), catalog(6)).unwrap();
        assert_eq!(engine.epoch(), 0);
        let delta = TransactionDb::from_u32(6, &[&[0, 1], &[2, 3, 4]]);
        let info = engine.append(delta).unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(info.transactions, 10);
        assert_eq!(info.upgraded_lattices, 0, "nothing cached yet");
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.db().len(), 10);
    }

    #[test]
    fn append_rejects_mismatched_universe() {
        let engine = Engine::new(db(), catalog(6)).unwrap();
        let delta = TransactionDb::from_u32(4, &[&[0, 1]]);
        let err = engine.append(delta).unwrap_err();
        assert!(matches!(err, CfqError::Engine(_)), "{err}");
    }

    #[test]
    fn lattice_for_caches_and_reuses() {
        let engine = Engine::new(db(), catalog(6)).unwrap();
        let snap = engine.snapshot();
        let universe: Vec<ItemId> = (0..6u32).map(ItemId).collect();
        let mut stats = WorkStats::new();
        let (cold, src) = engine.lattice_for(&snap, &universe, &universe, 2, 0, 1, true, CountingBackend::Horizontal, &mut stats);
        assert_eq!(src, LatticeSource::MinedCold);
        assert!(stats.db_scans > 0);
        assert_eq!(stats.cache_misses, 1);

        let mut warm_stats = WorkStats::new();
        let (warm, src) = engine.lattice_for(&snap, &universe, &universe, 2, 0, 1, true, CountingBackend::Horizontal, &mut warm_stats);
        assert_eq!(src, LatticeSource::Cached);
        assert_eq!(warm_stats.db_scans, 0);
        assert_eq!(warm_stats.cache_hits, 1);
        assert_eq!(warm_stats.scans_saved, stats.db_scans);
        assert!(Arc::ptr_eq(&warm, &cold), "the hit hands out the entry the miss inserted");

        // A subset universe at a higher threshold also hits.
        let sub: Vec<ItemId> = vec![ItemId(1), ItemId(2)];
        let mut sub_stats = WorkStats::new();
        let (_, src) = engine.lattice_for(&snap, &sub, &sub, 3, 0, 1, true, CountingBackend::Horizontal, &mut sub_stats);
        assert_eq!(src, LatticeSource::Cached);
        assert_eq!(sub_stats.db_scans, 0);
    }

    /// Twenty items priced 0, 50, …, 950 over forty rows, each item in
    /// about two rows of five — except every fourth from item 2 (prices
    /// 100, 300, 500, 700, 900), which is in at most three.
    fn priced_engine() -> Arc<Engine> {
        let rows: Vec<Vec<ItemId>> = (0..40u32)
            .map(|r| {
                let held = |i: &u32| (r * 31 + i * 17) % 5 < 2 && (i % 4 != 2 || r < 3);
                (0..20u32).filter(held).map(ItemId).collect()
            })
            .collect();
        let mut b = cfq_types::CatalogBuilder::new(20);
        b.num_attr("Price", (0..20).map(|i| 50.0 * i as f64).collect()).unwrap();
        Engine::new(TransactionDb::new(20, rows).unwrap(), b.build()).unwrap()
    }

    /// Figs. 2–3 on the cached path: `max(S.Price) <= min(T.Price)` narrows
    /// S to prices up to T's dearest frequent item (650) and T to prices
    /// from S's cheapest (350), so both sides' frequent items lie in the one
    /// universe S mines — T hits the entry S just inserted, by its frequent
    /// items alone: its universe still holds the infrequent item priced 700
    /// — and a refinement that narrows the constants is served from it
    /// without a scan.
    #[test]
    fn reduced_sides_share_one_mining_and_refinements_hit_it() {
        let engine = priced_engine();
        let session = engine.session();
        let ask = |s: u32, t: u32, support: u64| {
            let text = format!(
                "min(S.Price) >= {s} & max(T.Price) <= {t} & max(S.Price) <= min(T.Price)"
            );
            let cached = session.query(&text).min_support(support).run().unwrap();
            let bypass = session.query(&text).min_support(support).bypass_cache().run().unwrap();
            let (c, b) = (&cached.outcome, &bypass.outcome);
            assert_eq!((&c.s_sets, &c.t_sets), (&b.s_sets, &b.t_sets), "`{text}`");
            assert_eq!(c.pair_result.pairs, b.pair_result.pairs, "`{text}`");
            assert!(c.pair_result.count > 0, "`{text}` pairs nothing");
            cached
        };

        let cold = ask(300, 700, 8);
        let p = cold.outcome.provenance;
        assert_eq!((p.s_lattice, p.t_lattice), (LatticeSource::MinedCold, LatticeSource::Cached));
        assert_eq!(p.universes, Some([(14, 8), (15, 8)]));
        assert_eq!(engine.scheduler_stats().mining_passes, 1);
        assert_eq!(engine.cache_stats().entries, 1);

        let refined = ask(400, 600, 9);
        assert_eq!(refined.outcome.db_scans, 0);
        let p = refined.outcome.provenance;
        assert_eq!((p.s_lattice, p.t_lattice), (LatticeSource::Cached, LatticeSource::Cached));
        assert_eq!(engine.scheduler_stats().mining_passes, 1);
        assert_eq!(engine.cache_stats().lattice_hits, 3);
    }

    #[test]
    fn level_capped_minings_are_not_cached() {
        let engine = Engine::new(db(), catalog(6)).unwrap();
        let snap = engine.snapshot();
        let universe: Vec<ItemId> = (0..6u32).map(ItemId).collect();
        let mut stats = WorkStats::new();
        let (_, src) = engine.lattice_for(&snap, &universe, &universe, 2, 1, 1, true, CountingBackend::Horizontal, &mut stats);
        assert_eq!(src, LatticeSource::MinedCold);
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn append_upgrades_cached_lattices_with_fup() {
        let engine = Engine::new(db(), catalog(6)).unwrap();
        let snap = engine.snapshot();
        let universe: Vec<ItemId> = (0..6u32).map(ItemId).collect();
        let mut stats = WorkStats::new();
        engine.lattice_for(&snap, &universe, &universe, 2, 0, 1, true, CountingBackend::Horizontal, &mut stats);

        let delta = TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5], &[0, 3]]);
        let info = engine.append(delta.clone()).unwrap();
        assert_eq!(info.upgraded_lattices, 1);

        // The upgraded entry serves the new epoch without a scan and
        // matches a cold re-mine of the combined database.
        let snap2 = engine.snapshot();
        let mut warm = WorkStats::new();
        let (lattice, src) = engine.lattice_for(&snap2, &universe, &universe, 2, 0, 1, true, CountingBackend::Horizontal, &mut warm);
        assert_eq!(src, LatticeSource::FupUpgraded);
        assert_eq!(warm.db_scans, 0);

        let combined = db().concat(&delta).unwrap();
        let mut remine = WorkStats::new();
        let cfg = AprioriConfig::new(2).with_universe(universe.clone());
        let expected = apriori(&combined, &cfg, &mut remine);
        // The stored levels plus the new epoch's column are that re-mine.
        let upgraded = lattice.complete(&snap2.db, &universe, 2);
        let sets = |f: &cfq_mining::FrequentSets| -> Vec<_> {
            f.iter().map(|(s, n)| (s.clone(), n)).collect()
        };
        assert_eq!(sets(&upgraded), sets(&expected));
    }
}
