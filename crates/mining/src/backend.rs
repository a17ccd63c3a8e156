//! The counting-backend axis: horizontal scans vs vertical indices.
//!
//! Every levelwise executor (Apriori, the CAP/dovetail executors in
//! `cfq-core`) counts candidate supports against the database. *How* is a
//! first-class choice, selected the same way `--trim` already is:
//!
//! * [`CountingBackend::Horizontal`] — row scans (the default): the
//!   rank-space working database of [`crate::projection`] — pair triangles
//!   at level 2, tid-bitmaps over the shrinking projection below.
//!   Untrimmed or very wide runs count per-level scans with the dense
//!   pair kernel and the trie instead.
//! * [`CountingBackend::Tidset`] — invert once into sorted-u32 tid lists
//!   ([`crate::vertical`]) and count by merge intersection.
//! * [`CountingBackend::Bitmap`] — invert once into u64 tid-bitmaps
//!   ([`crate::bitmap`]): AND + popcount, diffsets at deep levels.
//! * [`CountingBackend::Auto`] — the default path under its old name: once
//!   deep levels count on the projection there is no crossover to decide.
//!
//! Level 1 is outside the axis: under every backend it is a read of the
//! database's item-support column ([`crate::substrate`]). So is level 2 of
//! the default path on a database that carries its pair-support column.
//!
//! [`CountingRun`] owns the per-run state of the vertical backends: lazily
//! built indices (whose one inversion pass is accounted as a database
//! scan). Backend selections, AND volume and per-backend level
//! micros are published to the process-global `cfq-obs` registry as
//! `cfq_mining_backend_*` so `cfq serve --metrics-addr` scrapes expose
//! them.

use crate::bitmap::{BitmapCounter, BitmapIndex};
use crate::counter::SupportCounter;
use crate::stats::ScanStats;
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
    /// Resolves to `Horizontal`.
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

    /// What every level of a run with this backend counts with.
    pub fn resolved(self) -> ResolvedBackend {
        match self {
            CountingBackend::Horizontal | CountingBackend::Auto => ResolvedBackend::Horizontal,
            CountingBackend::Tidset => ResolvedBackend::Tidset,
            CountingBackend::Bitmap => ResolvedBackend::Bitmap,
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

/// What a run actually counts with after `Auto` resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Horizontal row scans — the caller keeps its trim + row-counting path.
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

    /// What counts `level` of a run on this backend, for
    /// [`crate::stats::LevelStats::counted_by`]: a column of the database
    /// at level 1 (item supports) and at a level 2 read off the pair
    /// supports, the kernel on the default path (`triangle` for the
    /// level-2 pass that writes the rank-space projection, `projection`
    /// below it), the backend's own name elsewhere.
    pub(crate) fn kernel(&self, level: usize, on: CountedOn) -> &'static str {
        match (self, level, on) {
            (_, 1, _) | (_, _, CountedOn::Column) => "column",
            (ResolvedBackend::Horizontal, 2, CountedOn::Projection) => "triangle",
            (ResolvedBackend::Horizontal, _, CountedOn::Projection) => "projection",
            _ => self.name(),
        }
    }
}

/// What a counted level read, for [`ResolvedBackend::kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CountedOn {
    /// A column of the database: no row was read.
    Column,
    /// The rank-space projection, or the pass that wrote it.
    Projection,
    /// The rows of the database or of a trimmed copy, or a vertical index.
    Rows,
}

/// Per-run state of the vertical backends: lazily built indices over the
/// *untrimmed* database.
pub struct CountingRun<'a> {
    db: &'a TransactionDb,
    bitmap: Option<BitmapIndex>,
    tidset: Option<TidsetIndex>,
}

impl<'a> CountingRun<'a> {
    /// Creates the run state for one mining run over `db`.
    pub fn new(db: &'a TransactionDb) -> Self {
        CountingRun { db, bitmap: None, tidset: None }
    }

    /// Counts `candidates` through a vertical index: the first index use
    /// charges one database scan to `db_scans`/`scan` (the inversion pass
    /// reads every row once); later levels are scan-free.
    pub fn count_vertical(
        &mut self,
        resolved: ResolvedBackend,
        candidates: &[Itemset],
        level: usize,
        db_scans: &mut u64,
        scan: &mut ScanStats,
    ) -> Vec<u64> {
        match resolved {
            ResolvedBackend::Horizontal => {
                unreachable!("count_vertical called with a horizontal resolution")
            }
            ResolvedBackend::Tidset => {
                if self.tidset.is_none() {
                    self.tidset = Some(TidsetIndex::build(self.db));
                    *db_scans += 1;
                    scan.record_extent(level, self.db.len() as u64, self.db.total_items() as u64);
                }
                VerticalCounter::new(self.tidset.as_ref().unwrap()).count(self.db, candidates)
            }
            ResolvedBackend::Bitmap => {
                if self.bitmap.is_none() {
                    self.bitmap = Some(BitmapIndex::build(self.db));
                    *db_scans += 1;
                    scan.record_extent(level, self.db.len() as u64, self.db.total_items() as u64);
                }
                BitmapCounter::new(self.bitmap.as_ref().unwrap()).count(self.db, candidates)
            }
        }
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
    fn auto_resolves_to_the_default_path() {
        for (b, want) in [
            (CountingBackend::Horizontal, ResolvedBackend::Horizontal),
            (CountingBackend::Tidset, ResolvedBackend::Tidset),
            (CountingBackend::Bitmap, ResolvedBackend::Bitmap),
            (CountingBackend::Auto, ResolvedBackend::Horizontal),
        ] {
            assert_eq!(b.resolved(), want);
        }
    }

    #[test]
    fn vertical_counting_charges_one_scan_total() {
        let db = TransactionDb::from_u32(
            4,
            &[&[0, 1, 2], &[0, 1, 3], &[1, 2, 3], &[0, 2], &[0, 1, 2, 3]],
        );
        for backend in [CountingBackend::Tidset, CountingBackend::Bitmap] {
            let mut run = CountingRun::new(&db);
            let (mut db_scans, mut scan) = (0u64, ScanStats::default());
            let resolved = backend.resolved();
            let singles: Vec<Itemset> = (0..4u32).map(|i| [i].into()).collect();
            let c1 = run.count_vertical(resolved, &singles, 1, &mut db_scans, &mut scan);
            assert_eq!(c1, vec![4, 4, 4, 3]);
            assert_eq!(db_scans, 1, "{backend}: index build is the only scan");
            let pairs: Vec<Itemset> = vec![[0u32, 1].into(), [1u32, 2].into()];
            let c2 = run.count_vertical(resolved, &pairs, 2, &mut db_scans, &mut scan);
            assert_eq!(c2, vec![3, 3]);
            assert_eq!(db_scans, 1, "{backend}: later levels are scan-free");
            assert_eq!(scan.extents.len(), 1);
        }
    }
}
