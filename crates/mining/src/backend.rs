//! The counting-backend axis: horizontal scans vs vertical indices.
//!
//! Every levelwise executor (Apriori, the CAP/dovetail executors in
//! `cfq-core`, Partition's local mining) counts candidate supports
//! against the database. *How* is a first-class choice, selected the same
//! way `--trim` already is:
//!
//! * [`CountingBackend::Horizontal`] — per-level row scans (optionally
//!   trimmed and sharded; the default): dense histogram and pair-triangle
//!   kernels at levels 1–2, the trie counter below them.
//! * [`CountingBackend::Tidset`] — invert once into sorted-u32 tid lists
//!   ([`crate::vertical`]) and count by merge intersection.
//! * [`CountingBackend::Bitmap`] — invert once into u64 tid-bitmaps
//!   ([`crate::bitmap`]): AND + popcount, diffsets at deep levels.
//! * [`CountingBackend::Auto`] — per-level crossover: horizontal at
//!   levels 1–2 (the dense kernels), then bitmaps where the word volume
//!   beats the (trimmed) horizontal scan volume, horizontal scans where
//!   trim has made rows cheaper than words.
//!
//! [`CountingRun`] owns the per-run state: lazily built indices (whose
//! one inversion pass is accounted as a database scan) and the per-level
//! resolution. Backend selections, AND volume and per-backend level
//! micros are published to the process-global `cfq-obs` registry as
//! `cfq_mining_backend_*` so `cfq serve --metrics-addr` scrapes expose
//! them.

use crate::bitmap::{BitmapCounter, BitmapIndex};
use crate::counter::SupportCounter;
use crate::stats::{ScanStats, WorkStats};
use crate::vertical::{TidsetIndex, VerticalCounter};
use cfq_obs as obs;
use cfq_types::{Itemset, TransactionDb};

/// Which support-counting substrate a mining run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CountingBackend {
    /// Horizontal row scans (dense kernels, then the trie counter), one
    /// scan per level.
    #[default]
    Horizontal,
    /// Vertical sorted-u32 tidset intersection (Eclat lists).
    Tidset,
    /// Vertical u64 tid-bitmaps: AND + popcount, diffsets deep down.
    Bitmap,
    /// `Horizontal` at levels 1–2, then a per-level crossover between
    /// `Bitmap` and `Horizontal`.
    Auto,
}

impl CountingBackend {
    /// Canonical lowercase name (CLI/JSON value).
    pub fn name(&self) -> &'static str {
        match self {
            CountingBackend::Horizontal => "horizontal",
            CountingBackend::Tidset => "tidset",
            CountingBackend::Bitmap => "bitmap",
            CountingBackend::Auto => "auto",
        }
    }

    /// Parses a CLI/JSON backend name.
    pub fn parse(s: &str) -> Option<CountingBackend> {
        match s {
            "horizontal" => Some(CountingBackend::Horizontal),
            "tidset" => Some(CountingBackend::Tidset),
            "bitmap" => Some(CountingBackend::Bitmap),
            "auto" => Some(CountingBackend::Auto),
            _ => None,
        }
    }

    /// All selectable backends, in CLI help order.
    pub fn all() -> [CountingBackend; 4] {
        [
            CountingBackend::Horizontal,
            CountingBackend::Tidset,
            CountingBackend::Bitmap,
            CountingBackend::Auto,
        ]
    }
}

impl std::fmt::Display for CountingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a level actually counts with after `Auto` resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Horizontal row scan — the caller keeps its trim + row-counting path.
    Horizontal,
    /// Sorted-u32 tidset intersection against the lazily built index.
    Tidset,
    /// Bitmap AND + popcount against the lazily built index.
    Bitmap,
}

impl ResolvedBackend {
    /// Canonical lowercase name (metric label value).
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedBackend::Horizontal => "horizontal",
            ResolvedBackend::Tidset => "tidset",
            ResolvedBackend::Bitmap => "bitmap",
        }
    }

    /// Does this level count through a vertical index?
    pub fn is_vertical(&self) -> bool {
        !matches!(self, ResolvedBackend::Horizontal)
    }
}

/// Per-run backend state: the configured axis plus lazily built vertical
/// indices over the *untrimmed* database.
pub struct CountingRun<'a> {
    db: &'a TransactionDb,
    backend: CountingBackend,
    bitmap: Option<BitmapIndex>,
    tidset: Option<TidsetIndex>,
}

impl<'a> CountingRun<'a> {
    /// Creates the run state for one mining run over `db`.
    pub fn new(db: &'a TransactionDb, backend: CountingBackend) -> Self {
        CountingRun { db, backend, bitmap: None, tidset: None }
    }

    /// The configured (unresolved) backend axis.
    pub fn backend(&self) -> CountingBackend {
        self.backend
    }

    /// Decides how to count level `level`'s `n_candidates` candidates.
    ///
    /// `Auto` counts levels 1–2 horizontally; from level 3 on its
    /// crossover compares the level's vertical word volume
    /// (`n_candidates × words-per-item`, plus the index build while that
    /// is still owed) against what the trie would do on the database the
    /// last scan saw — the last [`ScanStats`] extent, i.e. the per-level
    /// density the stats layer already tracks.
    pub fn resolve(&self, level: usize, n_candidates: usize, scan: &ScanStats) -> ResolvedBackend {
        match self.backend {
            CountingBackend::Horizontal => ResolvedBackend::Horizontal,
            CountingBackend::Tidset => ResolvedBackend::Tidset,
            CountingBackend::Bitmap => ResolvedBackend::Bitmap,
            CountingBackend::Auto => {
                let basis = AutoBasis {
                    rows: self.db.len() as u64,
                    items: self.db.total_items() as u64,
                    n_items: self.db.n_items(),
                    index_built: self.bitmap.is_some(),
                };
                resolve_auto(&basis, level, n_candidates, scan)
            }
        }
    }

    /// Counts `candidates` through a vertical index, recording work in
    /// `stats`: the first index use charges one database scan (the
    /// inversion pass reads every row once); later levels are scan-free.
    ///
    /// The caller records the level itself (`record_level_timed`), same
    /// as on the horizontal path.
    pub fn count_vertical(
        &mut self,
        resolved: ResolvedBackend,
        candidates: &[Itemset],
        level: usize,
        stats: &mut WorkStats,
    ) -> Vec<u64> {
        match resolved {
            ResolvedBackend::Horizontal => {
                unreachable!("count_vertical called with a horizontal resolution")
            }
            ResolvedBackend::Tidset => {
                if self.tidset.is_none() {
                    self.tidset = Some(TidsetIndex::build(self.db));
                    stats.record_scan();
                    stats.scan.record_extent(
                        level,
                        self.db.len() as u64,
                        self.db.total_items() as u64,
                    );
                }
                VerticalCounter::new(self.tidset.as_ref().unwrap()).count(self.db, candidates)
            }
            ResolvedBackend::Bitmap => {
                if self.bitmap.is_none() {
                    self.bitmap = Some(BitmapIndex::build(self.db));
                    stats.record_scan();
                    stats.scan.record_extent(
                        level,
                        self.db.len() as u64,
                        self.db.total_items() as u64,
                    );
                }
                let counter = BitmapCounter::new(self.bitmap.as_ref().unwrap());
                let counts = counter.count(self.db, candidates);
                metric_words_anded(counter.words_anded());
                counts
            }
        }
    }
}

/// The database side of `Auto`'s crossover: the untrimmed database's
/// shape and whether the bitmap index over it has been paid for yet.
pub(crate) struct AutoBasis {
    pub rows: u64,
    pub items: u64,
    pub n_items: usize,
    pub index_built: bool,
}

/// Cost of one bitmap word (AND + popcount, with the prefix bookkeeping
/// around it), of inverting one item occurrence into the index, and of
/// passing one item occurrence through a trim pass — each in trie merge
/// steps, the unit of `Auto`'s crossover. Fitted to per-level timings of
/// the §7.2 database over 100- to 1,000-item universes (EXPERIMENTS E18).
const WORD_STEPS: u64 = 12;
const INVERT_STEPS: u64 = 8;
const TRIM_STEPS: u64 = 12;

/// `Auto`'s per-level choice, shared by [`CountingRun::resolve`] and the
/// sharded run (whose basis is the *global* database, so a sharded run
/// resolves each level exactly like its unsharded twin).
///
/// Levels 1–2 are horizontal: the dense histogram and pair-triangle
/// kernels of [`crate::counter::count_supports_with`] cost one pass over
/// the rows however many candidates there are, where bitmaps pay one AND
/// per candidate — and level 2 is the candidate flood. From level 3 on two
/// estimates are compared. Vertical: one word per 64 rows per candidate,
/// plus the inversion pass over every item occurrence while the index is
/// still unbuilt. Horizontal: on the database the last scan saw, a trim
/// pass over its item occurrences, then the trie merging its root list —
/// at most one root per candidate and per item — against every row.
pub(crate) fn resolve_auto(
    basis: &AutoBasis,
    level: usize,
    n_candidates: usize,
    scan: &ScanStats,
) -> ResolvedBackend {
    if level <= 2 {
        return ResolvedBackend::Horizontal;
    }
    let n_candidates = n_candidates as u64;
    let build = if basis.index_built { 0 } else { INVERT_STEPS.saturating_mul(basis.items) };
    let vertical = WORD_STEPS
        .saturating_mul(n_candidates)
        .saturating_mul(basis.rows.div_ceil(64))
        .saturating_add(build);
    let (live_rows, live_items) =
        scan.extents.last().map_or((basis.rows, basis.items), |e| (e.rows, e.items));
    let roots = n_candidates.min(basis.n_items as u64);
    let horizontal =
        live_rows.saturating_mul(roots).saturating_add(TRIM_STEPS.saturating_mul(live_items));
    if vertical <= horizontal {
        ResolvedBackend::Bitmap
    } else {
        ResolvedBackend::Horizontal
    }
}

/// Bumps `cfq_mining_backend_selected_total{backend=...}` — one increment
/// per counted level.
pub fn metric_selected(backend: &'static str) {
    obs::metrics::global()
        .counter_with(
            "cfq_mining_backend_selected_total",
            "Counted levels per resolved counting backend.",
            &[("backend", backend)],
        )
        .inc();
}

/// Adds to `cfq_mining_backend_level_micros_total{backend=...}` — wall
/// micros spent generating + counting levels, per resolved backend.
pub fn metric_level_micros(backend: &'static str, micros: u64) {
    obs::metrics::global()
        .counter_with(
            "cfq_mining_backend_level_micros_total",
            "Wall-clock microseconds spent on counted levels, per resolved counting backend.",
            &[("backend", backend)],
        )
        .add(micros);
}

/// Adds to `cfq_mining_backend_words_anded_total` — u64 word operations
/// performed by bitmap AND/popcount loops.
pub fn metric_words_anded(n: u64) {
    obs::metrics::global()
        .counter_with(
            "cfq_mining_backend_words_anded_total",
            "u64 word operations performed by bitmap AND/popcount loops.",
            &[],
        )
        .add(n);
}

/// Bumps `cfq_mining_shard_levels_total{shards=...}` — one increment per
/// level counted through the sharded substrate, labeled by shard count.
pub fn metric_shard_levels(n_shards: usize) {
    let shards = n_shards.to_string();
    obs::metrics::global()
        .counter_with(
            "cfq_mining_shard_levels_total",
            "Levels counted through the sharded substrate, per shard count.",
            &[("shards", shards.as_str())],
        )
        .inc();
}

/// Adds to `cfq_mining_shard_merges_total` — per-shard partial count
/// vectors merged at level barriers (one per shard per counted level).
pub fn metric_shard_merges(n: u64) {
    obs::metrics::global()
        .counter_with(
            "cfq_mining_shard_merges_total",
            "Per-shard partial count vectors merged at level barriers.",
            &[],
        )
        .add(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in CountingBackend::all() {
            assert_eq!(CountingBackend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(CountingBackend::parse("eclat"), None);
        assert_eq!(CountingBackend::default(), CountingBackend::Horizontal);
    }

    #[test]
    fn fixed_backends_resolve_to_themselves() {
        let db = TransactionDb::from_u32(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        let scan = ScanStats::default();
        for (b, want) in [
            (CountingBackend::Horizontal, ResolvedBackend::Horizontal),
            (CountingBackend::Tidset, ResolvedBackend::Tidset),
            (CountingBackend::Bitmap, ResolvedBackend::Bitmap),
        ] {
            let run = CountingRun::new(&db, b);
            for level in 1..5 {
                assert_eq!(run.resolve(level, 100, &scan), want);
            }
        }
    }

    #[test]
    fn auto_crosses_over_by_level_density() {
        // 640 rows → 10 words per item.
        let rows: Vec<Vec<cfq_types::ItemId>> = (0..640)
            .map(|i| vec![cfq_types::ItemId(i as u32 % 4), cfq_types::ItemId(4 + i as u32 % 3)])
            .collect();
        let db = TransactionDb::new(7, rows).unwrap();
        let run = CountingRun::new(&db, CountingBackend::Auto);
        let mut scan = ScanStats::default();
        // Levels 1–2: always the dense horizontal kernels.
        assert_eq!(run.resolve(1, 7, &scan), ResolvedBackend::Horizontal);
        assert_eq!(run.resolve(2, 21, &scan), ResolvedBackend::Horizontal);
        // Level 3, 5 candidates, the level-2 scan saw the whole database.
        // Vertical: 12·5·10 words + 8·1280 to build = 10,840 steps;
        // horizontal: 640·5 root merges + 12·1280 to trim = 18,560.
        scan.record_extent(2, 640, 1280);
        assert_eq!(run.resolve(3, 5, &scan), ResolvedBackend::Bitmap);
        // Trim has halved the rows (1,500 + 7,200 = 8,700 steps): not
        // worth building an index for …
        scan.record_extent(3, 300, 600);
        assert_eq!(run.resolve(4, 5, &scan), ResolvedBackend::Horizontal);
        // … but worth using one that is already paid for (600 steps).
        let mut built = CountingRun::new(&db, CountingBackend::Auto);
        built.count_vertical(ResolvedBackend::Bitmap, &[], 3, &mut WorkStats::new());
        assert_eq!(built.resolve(4, 5, &scan), ResolvedBackend::Bitmap);
        // Once trim has collapsed the live rows (15·5 + 12·30 = 435), even
        // a built index loses.
        scan.record_extent(4, 15, 30);
        assert_eq!(built.resolve(5, 5, &scan), ResolvedBackend::Horizontal);
    }

    #[test]
    fn vertical_counting_charges_one_scan_total() {
        let db = TransactionDb::from_u32(
            4,
            &[&[0, 1, 2], &[0, 1, 3], &[1, 2, 3], &[0, 2], &[0, 1, 2, 3]],
        );
        for backend in [CountingBackend::Tidset, CountingBackend::Bitmap] {
            let mut run = CountingRun::new(&db, backend);
            let mut stats = WorkStats::new();
            let resolved = run.resolve(1, 4, &stats.scan);
            let singles: Vec<Itemset> = (0..4u32).map(|i| [i].into()).collect();
            let c1 = run.count_vertical(resolved, &singles, 1, &mut stats);
            assert_eq!(c1, vec![4, 4, 4, 3]);
            assert_eq!(stats.db_scans, 1, "{backend}: index build is the only scan");
            let pairs: Vec<Itemset> = vec![[0u32, 1].into(), [1u32, 2].into()];
            let c2 = run.count_vertical(run.resolve(2, 2, &stats.scan), &pairs, 2, &mut stats);
            assert_eq!(c2, vec![3, 3]);
            assert_eq!(stats.db_scans, 1, "{backend}: later levels are scan-free");
            assert_eq!(stats.scan.extents.len(), 1);
        }
    }
}
