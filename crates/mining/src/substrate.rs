//! The counting substrate of one levelwise run: the one place that decides
//! which working database a level is counted on.
//!
//! Level 1 is counted on none: whatever the configuration, the supports
//! of singletons are read off the database's item-support column
//! ([`TransactionDb::item_supports`]) and no scan is recorded, so the
//! first pass a run makes over rows is its level-2 pass.
//! The default configuration (backend resolving to `horizontal`, trim on,
//! unsharded, sides that [`Projection::fits`]) counts level 2 straight off
//! L1 with the pass that writes the rank-space [`Projection`]
//! ([`Substrate::count_pairs`]) and every deeper level on that projection.
//! The knobs keep per-level scans: a `trim_db` copy per level, the
//! [`ShardedRun`], or the vertical indices of a [`CountingRun`]. Both
//! callers — [`crate::apriori`](mod@crate::apriori) and the optimizer's
//! dovetailed executor in `cfq-core` — hand their candidates (or, at level
//! 2, their L1 items) to a [`Substrate`] and read the scan ledger back
//! from it.

use crate::backend::{self, CountingBackend, CountingRun, ResolvedBackend};
use crate::counter::{count_supports_with, singleton_supports, PairCounts};
use crate::projection::Projection;
use crate::shard::ShardedRun;
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
    /// Sharded counting (`shards > 1`): partial counts per row range,
    /// merged at each level. Accounting is shard-transparent (one
    /// scan/extent/trim record per level with summed volumes).
    sharded: Option<ShardedRun>,
    /// The default configuration's working database below level 2: what
    /// the level-2 pass wrote, shrinking in place level by level.
    projection: Option<Projection>,
    /// The knobs' working database: the last level's trimmed copy.
    trimmed: Option<TransactionDb>,
    /// Full passes over a working database so far.
    pub db_scans: u64,
    /// Scan volume and trim accounting so far.
    pub scan: ScanStats,
}

impl<'a> Substrate<'a> {
    /// The substrate of one run over `db`: `backend` and `trim` as
    /// configured, `threads` counting workers (0 = all cores), `shards`
    /// horizontal shards (0 or 1 = unsharded).
    pub fn new(
        db: &'a TransactionDb,
        backend: CountingBackend,
        trim: bool,
        threads: usize,
        shards: usize,
    ) -> Self {
        Substrate {
            db,
            trim,
            threads,
            resolved: backend.resolved(),
            crun: CountingRun::new(db),
            sharded: (shards > 1).then(|| ShardedRun::new(db, shards)),
            projection: None,
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
        self.trimmed = None;
        if let Some(s) = &mut self.sharded {
            s.reset_trim();
        }
    }

    /// Whether `level` is counted by [`Substrate::count_pairs`] rather
    /// than from a candidate list: level 2 of the default configuration is
    /// implicit in L1, as long as lattices with `l1_sizes` frequent items
    /// each fit one projection.
    pub fn counts_pairs(&self, level: usize, l1_sizes: &[usize]) -> bool {
        level == 2
            && self.resolved == ResolvedBackend::Horizontal
            && self.trim
            && self.sharded.is_none()
            && Projection::fits(l1_sizes)
    }

    /// Level 2 straight off L1: one pass projects the database onto the
    /// union of `sides` (the live items of the lattices sharing the scan,
    /// each ascending) — the working database of every level below — and
    /// returns, per side, the support of every pair of its items.
    pub fn count_pairs(&mut self, sides: &[&[ItemId]]) -> Vec<PairCounts> {
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
        if let Some(p) = &mut self.projection {
            p.retain(batches, min_len, &mut self.scan);
            let (rows, items) = (p.len(), p.total_items());
            let counts = p.count(batches);
            self.record_scan(level, rows, items);
            return counts;
        }
        // The live set is built from the global candidates, which is what
        // keeps per-shard trimming lossless — see the shard module docs.
        let live = self.trim.then(|| {
            let items = batches.iter().flat_map(|b| b.iter()).flat_map(|c| c.iter());
            LiveSet::from_items(self.db.n_items(), items)
        });
        if let Some(s) = &mut self.sharded {
            let trim_to = live.as_ref().map(|l| (l, min_len));
            return s.count_batches(batches, level, trim_to, &mut self.db_scans, &mut self.scan);
        }
        if let Some(live) = &live {
            let cur = self.trimmed.as_ref().unwrap_or(self.db);
            self.trimmed = Some(trim_db_recorded(cur, live, min_len, &mut self.scan).db);
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
        self.resolved.kernel(level, self.projection.is_some())
    }

    fn count_vertical(&mut self, cands: &[Itemset], level: usize) -> Vec<u64> {
        if let Some(s) = &mut self.sharded {
            return s.count_vertical(self.resolved, cands, level, &mut self.db_scans, &mut self.scan);
        }
        self.crun.count_vertical(self.resolved, cands, level, &mut self.db_scans, &mut self.scan)
    }

    /// One scan of a working database of `rows` rows / `items` occurrences.
    fn record_scan(&mut self, level: usize, rows: usize, items: usize) {
        self.db_scans += 1;
        self.scan.record_extent(level, rows as u64, items as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{NaiveCounter, SupportCounter};

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
            for (trim, shards) in [(true, 1), (false, 1), (true, 2)] {
                let mut sub = Substrate::new(&db, backend, trim, 2, shards);
                let tag = format!("{backend} trim={trim} shards={shards}");
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
}
