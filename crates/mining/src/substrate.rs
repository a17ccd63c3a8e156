//! The counting substrate of one levelwise run: the one place that decides
//! which working database a level is counted on.
//!
//! Level 1 is counted on none: whatever the configuration, the supports
//! of singletons are read off the database's item-support column
//! ([`TransactionDb::item_supports`]) and no scan is recorded, so the
//! first pass a run makes over rows is its level-2 pass.
//! The default configuration (backend resolving to `horizontal`, trim on,
//! sides that [`Projection::fits`]) counts level 2 straight off L1
//! ([`Substrate::count_pairs`]) in one of two ways:
//!
//! * on a database that carries its pair-support column
//!   ([`TransactionDb::pair_supports`] — a serving engine's epochs do,
//!   one-shot runs do not), each side's pair supports are read off the
//!   column's cells and no row is touched. The first deeper level then
//!   makes the run's one projecting pass, onto the items of its
//!   candidates only ([`Projection::project`]); a side with no level-3
//!   candidate reads no row at all;
//! * otherwise, by the pass that writes the rank-space [`Projection`]
//!   ([`Projection::pairs`]).
//!
//! Every deeper level is counted on that projection, shrinking in place.
//! That leaves two other outcomes: an explicit `tidset`/`bitmap` counts on
//! the vertical indices of a [`CountingRun`], and per-level scans — of a
//! `trim_db` copy per level when the sides are too wide to fit (the only
//! fallback the input selects), of the database itself with trim off.
//!
//! The ledger is the same whichever way level 2 goes: `db_scans` counts the
//! levels ≥ 2 counted against the data, so a column read books its level's
//! scan with a zero-row extent. Only the scan volume and the trim passes
//! tell the two apart.
//!
//! Both callers — [`crate::apriori`](mod@crate::apriori) and the optimizer's
//! dovetailed executor in `cfq-core` — hand their candidates (or, at level
//! 2, their L1 items) to a [`Substrate`] and read the scan ledger back
//! from it.

use crate::backend::{self, CountedOn, CountingBackend, CountingRun, ResolvedBackend};
use crate::counter::{count_supports_with, singleton_supports, PairCounts};
use crate::projection::Projection;
use crate::stats::ScanStats;
use crate::trim::{trim_db_recorded, LiveSet};
use cfq_types::{ItemId, Itemset, TransactionDb};

/// The database of one run, whatever working copy of it the levels so far
/// have left, and the scan ledger.
pub struct Substrate<'a> {
    db: &'a TransactionDb,
    trim: bool,
    threads: usize,
    resolved: ResolvedBackend,
    /// Vertical indices: inverted once, by the first level below level 1
    /// (accounted as one database scan), then serving every batch
    /// scan-free.
    crun: CountingRun<'a>,
    /// The default configuration's working database below level 2: what
    /// the level-2 pass (or, after a column read, the level-3 pass) wrote,
    /// shrinking in place level by level.
    projection: Option<Projection>,
    /// Level 2 was read off the pair-support column: the next level
    /// projects the database afresh.
    columned: bool,
    /// The per-level-scan path's working database: the last level's
    /// trimmed copy.
    trimmed: Option<TransactionDb>,
    /// Full passes over a working database so far.
    pub db_scans: u64,
    /// Scan volume and trim accounting so far.
    pub scan: ScanStats,
}

impl<'a> Substrate<'a> {
    /// The substrate of one run over `db`: `backend` and `trim` as
    /// configured, `threads` counting workers (0 = all cores).
    pub fn new(db: &'a TransactionDb, backend: CountingBackend, trim: bool, threads: usize) -> Self {
        Substrate {
            db,
            trim,
            threads,
            resolved: backend.resolved(),
            crun: CountingRun::new(db),
            projection: None,
            columned: false,
            trimmed: None,
            db_scans: 0,
            scan: ScanStats::default(),
        }
    }

    /// The name of the backend every level of this run resolves to.
    pub fn backend_name(&self) -> &'static str {
        self.resolved.name()
    }

    /// Forgets the working database: the next level trims from the full
    /// database again. Vertical indices (already charged) are kept.
    pub fn restart_trim(&mut self) {
        self.projection = None;
        self.columned = false;
        self.trimmed = None;
    }

    /// Whether `level` is counted by [`Substrate::count_pairs`] rather
    /// than from a candidate list: level 2 of the default configuration is
    /// implicit in L1, as long as lattices with `l1_sizes` frequent items
    /// each fit one projection.
    pub fn counts_pairs(&self, level: usize, l1_sizes: &[usize]) -> bool {
        level == 2
            && self.resolved == ResolvedBackend::Horizontal
            && self.trim
            && Projection::fits(l1_sizes)
    }

    /// Level 2 straight off L1: per side of `sides` (the live items of the
    /// lattices sharing the level, each ascending), the support of every
    /// pair of its items. Read off the database's pair-support column when
    /// it has one — a scan of zero rows — and otherwise counted by one pass
    /// that projects the database onto the union of `sides`, the working
    /// database of every level below.
    pub fn count_pairs(&mut self, sides: &[&[ItemId]]) -> Vec<PairCounts> {
        if let Some(column) = self.db.pair_supports() {
            self.projection = None;
            self.columned = true;
            self.record_scan(2, 0, 0);
            return sides.iter().map(|side| PairCounts::gather(column, side)).collect();
        }
        let (projection, pairs) = Projection::pairs(self.db, sides, self.threads, &mut self.scan);
        self.record_scan(2, projection.len(), projection.total_items());
        self.projection = Some(projection);
        pairs
    }

    /// The supports of every batch of level-`level` candidates (an empty
    /// batch is a lattice with nothing to count): level 1 off the
    /// item-support column, any other level in one shared scan of the
    /// working database.
    pub fn count(&mut self, level: usize, batches: &[&[Itemset]]) -> Vec<Vec<u64>> {
        if level == 1 {
            return batches.iter().map(|b| singleton_supports(self.db, b)).collect();
        }
        if self.resolved.is_vertical() {
            // Vertical levels count off the shared index: no scan, no trim.
            return batches
                .iter()
                .map(|b| if b.is_empty() { Vec::new() } else { self.count_vertical(b, level) })
                .collect();
        }
        // Per-level database reduction: only items inside the upcoming
        // candidates can still produce a count, and only rows keeping at
        // least the smallest candidate's length can contain one. A shared
        // scan serves every batch, so the *union* of their items stays
        // live. Candidates only ever draw from earlier frequent sets, so
        // the live set shrinks monotonically and re-trimming the already
        // trimmed database stays exact.
        let min_len = batches.iter().filter_map(|b| b.first()).map(Itemset::len).min().unwrap_or(1);
        if std::mem::take(&mut self.columned) {
            // The run's first pass over rows, onto what this level needs.
            let mut items: Vec<ItemId> =
                batches.iter().flat_map(|b| b.iter()).flat_map(|c| c.iter()).collect();
            items.sort_unstable();
            items.dedup();
            self.projection =
                Some(Projection::project(self.db, items, min_len, self.threads, &mut self.scan));
        } else if let Some(p) = &mut self.projection {
            p.retain(batches, min_len, &mut self.scan);
        }
        if let Some(p) = &self.projection {
            let (rows, items) = (p.len(), p.total_items());
            let counts = p.count(batches);
            self.record_scan(level, rows, items);
            return counts;
        }
        if self.trim {
            let items = batches.iter().flat_map(|b| b.iter()).flat_map(|c| c.iter());
            let live = LiveSet::from_items(self.db.n_items(), items);
            let cur = self.trimmed.as_ref().unwrap_or(self.db);
            self.trimmed = Some(trim_db_recorded(cur, &live, min_len, &mut self.scan).db);
        }
        let cur = self.trimmed.as_ref().unwrap_or(self.db);
        let counts = count_supports_with(cur, batches, self.threads);
        let (rows, items) = (cur.len(), cur.total_items());
        self.record_scan(level, rows, items);
        counts
    }

    /// Publishes one counted level — whichever lattices it served — to the
    /// `cfq_mining_backend_*` metrics and returns what counted it, for
    /// [`crate::stats::LevelStats::counted_by`].
    pub fn publish_level(&self, level: usize, micros: u64) -> &'static str {
        backend::metric_selected(self.resolved.name());
        backend::metric_level_micros(self.resolved.name(), micros);
        let on = if self.columned {
            CountedOn::Column
        } else if self.projection.is_some() {
            CountedOn::Projection
        } else {
            CountedOn::Rows
        };
        self.resolved.kernel(level, on)
    }

    fn count_vertical(&mut self, cands: &[Itemset], level: usize) -> Vec<u64> {
        self.crun.count_vertical(self.resolved, cands, level, &mut self.db_scans, &mut self.scan)
    }

    /// One scan of a working database of `rows` rows / `items` occurrences
    /// (none for a level read off a column).
    fn record_scan(&mut self, level: usize, rows: usize, items: usize) {
        self.db_scans += 1;
        self.scan.record_extent(level, rows as u64, items as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_candidates;
    use crate::counter::{NaiveCounter, SupportCounter};
    use crate::stats::ScanExtent;
    use cfq_datagen::{generate_transactions, io, QuestConfig};

    #[test]
    fn level_one_is_a_column_read_under_every_configuration() {
        let db = TransactionDb::from_u32(
            6,
            &[&[0, 1, 2, 3], &[1, 2, 3], &[0, 2, 4], &[1, 5], &[2, 3, 4, 5], &[5], &[0, 5]],
        );
        let sets = |v: &[u32]| -> Vec<Itemset> { v.iter().map(|&i| [i].into()).collect() };
        // Two lattices whose universes overlap, one with nothing to count,
        // and one asking for an item past the universe.
        let batches = [sets(&[0, 1, 2, 3]), sets(&[2, 3, 4, 5]), Vec::new(), sets(&[5, 6, u32::MAX])];
        let refs: Vec<&[Itemset]> = batches.iter().map(|b| b.as_slice()).collect();
        let want: Vec<Vec<u64>> = batches.iter().map(|b| NaiveCounter.count(&db, b)).collect();
        for backend in CountingBackend::all() {
            for trim in [true, false] {
                let mut sub = Substrate::new(&db, backend, trim, 2);
                let tag = format!("{backend} trim={trim}");
                assert_eq!(sub.count(1, &refs), want, "{tag}");
                assert_eq!(sub.db_scans, 0, "{tag}: level 1 scans nothing");
                assert!(sub.scan.extents.is_empty() && sub.scan.trim_passes == 0, "{tag}");
                assert_eq!(sub.publish_level(1, 0), "column", "{tag}");
                // The rows are first read by level 2, and counted right.
                let pairs: Vec<Itemset> = vec![[1u32, 2].into(), [2u32, 3].into()];
                assert_eq!(sub.count(2, &[&pairs]), vec![NaiveCounter.count(&db, &pairs)], "{tag}");
                assert_eq!((sub.db_scans, sub.scan.extents[0].level), (1, 2), "{tag}");
            }
        }
    }

    /// Scans, their extents, trim passes and what they dropped, so far.
    fn ledger(sub: &Substrate) -> (u64, Vec<ScanExtent>, [u64; 3]) {
        let s = &sub.scan;
        (sub.db_scans, s.extents.clone(), [s.trim_passes, s.trim_rows_dropped, s.trim_items_dropped])
    }

    /// Sides too wide to [`Projection::fits`] are handed to `count` as
    /// candidate lists from level 2 on and counted on a `trim_db` copy per
    /// level. No test can cheaply build 2,897 frequent items, so whole runs
    /// take that route by never calling `count_pairs`, beside the route
    /// `apriori` takes, and must account like it level for level. A third
    /// run on the same rows with the pair-support column reads level 2 off
    /// it and must find the same sets, scan count and deeper extents.
    #[test]
    fn per_level_scans_account_like_the_projection() {
        let matrix = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/ledger/matrix.tx");
        let matrix = io::load_transactions(matrix).unwrap();
        let quest = QuestConfig { n_transactions: 2000, n_patterns: 150, ..QuestConfig::default() };
        let quest = generate_transactions(&quest).unwrap();
        for (db, min_support) in [(&matrix, 2), (&matrix, 4), (&quest, 20)] {
            let keep = |cands: &[Itemset], counts: Vec<u64>| -> Vec<(Itemset, u64)> {
                cands.iter().cloned().zip(counts).filter(|&(_, n)| n >= min_support).collect()
            };
            let mut columned_db = db.clone();
            assert!(columned_db.fill_pair_supports());
            let mut projected = Substrate::new(db, CountingBackend::Horizontal, true, 1);
            let mut scanned = Substrate::new(db, CountingBackend::Horizontal, true, 1);
            let mut columned = Substrate::new(&columned_db, CountingBackend::Horizontal, true, 1);
            let singles: Vec<Itemset> = (0..db.n_items() as u32).map(|i| [i].into()).collect();
            let l1 = keep(&singles, projected.count(1, &[&singles]).remove(0));
            let mut sets: Vec<Itemset> = l1.into_iter().map(|(s, _)| s).collect();
            let items: Vec<ItemId> = sets.iter().map(|s| s.as_slice()[0]).collect();
            let mut deepest = 1;
            for level in 2.. {
                let cands = generate_candidates(&sets, |_| true);
                if cands.is_empty() {
                    break;
                }
                let tag = format!("{} rows, support {min_support}, level {level}", db.len());
                let listed = keep(&cands, scanned.count(level, &[&cands]).remove(0));
                let by_pairs = |sub: &mut Substrate| {
                    if sub.counts_pairs(level, &[items.len()]) {
                        sub.count_pairs(&[&items])[0].frequent(&items, min_support)
                    } else {
                        keep(&cands, sub.count(level, &[&cands]).remove(0))
                    }
                };
                let frequent = by_pairs(&mut projected);
                assert_eq!(listed, frequent, "{tag}");
                assert_eq!(by_pairs(&mut columned), frequent, "{tag}");
                assert_eq!(ledger(&scanned), ledger(&projected), "{tag}");
                // Read off the column, level 2 books a scan of no row and
                // trims nothing; level 3's pass projects straight onto what
                // the projection's level-2 pass and level-3 trim keep.
                let (scans, mut extents, [passes, rows, occurrences]) = ledger(&projected);
                extents[0] = ScanExtent { level: 2, rows: 0, items: 0 };
                let trimmed = if level == 2 { [0; 3] } else { [passes - 1, rows, occurrences] };
                assert_eq!(ledger(&columned), (scans, extents, trimmed), "{tag}");
                let kernel = if level == 2 { "triangle" } else { "projection" };
                assert_eq!(projected.publish_level(level, 0), kernel, "{tag}");
                let kernel = if level == 2 { "column" } else { "projection" };
                assert_eq!(columned.publish_level(level, 0), kernel, "{tag}");
                assert_eq!(scanned.publish_level(level, 0), "horizontal", "{tag}");
                sets = frequent.into_iter().map(|(s, _)| s).collect();
                deepest = level;
            }
            assert!(deepest >= 3, "support {min_support}: the run must reach past the triangle");
            assert_eq!(scanned.db_scans as usize, deepest - 1);
        }
    }
}
