//! Work accounting for mining runs.
//!
//! The paper's ccc-optimality (Definition 6) measures a strategy by the
//! number of sets counted for support and the number of constraint-checking
//! invocations; §7's tables additionally report per-level candidate and
//! frequent counts. [`WorkStats`] records all of these, plus database scans
//! (the I/O-sharing argument for dovetailing in §5.2).

/// Per-level candidate/frequent counts — one row of the §7.1 `a/b` table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Level (itemset cardinality), 1-based.
    pub level: usize,
    /// Candidates counted for support at this level.
    pub candidates: u64,
    /// Candidates found frequent at this level.
    pub frequent: u64,
    /// Wall-clock microseconds spent generating and counting this level
    /// (0 on FUP, which does not time levels). Where two lattices share a
    /// scan, each one's row includes that scan.
    pub micros: u64,
    /// What counted the level: `column` at level 1 (the database's
    /// item-support column, whatever the backend), `triangle` or
    /// `projection` below it on the default path, the resolved backend's
    /// name elsewhere (empty on FUP, which does not say).
    pub counted_by: &'static str,
}

/// The size of the database one scan actually touched — with per-level
/// trimming, later scans see far fewer rows/items than the full database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanExtent {
    /// Level (itemset cardinality) the scan counted, 1-based.
    pub level: usize,
    /// Transactions live in the scanned database.
    pub rows: u64,
    /// Item occurrences live in the scanned database (CSR arena length).
    pub items: u64,
}

/// Scan-volume and trim accounting for one mining run.
#[derive(Clone, Debug, Default)]
pub struct ScanStats {
    /// Transactions touched, summed over all scans.
    pub rows_scanned: u64,
    /// Item occurrences touched, summed over all scans — the substrate's
    /// "bytes scanned" (multiply by `size_of::<ItemId>()` for bytes).
    pub items_scanned: u64,
    /// Trim passes executed between levels.
    pub trim_passes: u64,
    /// Transactions dropped by trim passes.
    pub trim_rows_dropped: u64,
    /// Item occurrences dropped by trim passes.
    pub trim_items_dropped: u64,
    /// Per-scan extents, in scan order. A levelwise run's start at level
    /// 2: level 1 is read off the item-support column and scans nothing.
    pub extents: Vec<ScanExtent>,
}

impl ScanStats {
    /// Records one scan over a database of `rows` rows / `items` item
    /// occurrences, counting level `level`.
    pub fn record_extent(&mut self, level: usize, rows: u64, items: u64) {
        self.rows_scanned += rows;
        self.items_scanned += items;
        self.extents.push(ScanExtent { level, rows, items });
    }

    /// Records one trim pass and what it removed.
    pub fn record_trim(&mut self, rows_dropped: u64, items_dropped: u64) {
        self.trim_passes += 1;
        self.trim_rows_dropped += rows_dropped;
        self.trim_items_dropped += items_dropped;
    }

    /// Scan volume in bytes (item occurrences × the item id width).
    pub fn bytes_scanned(&self) -> u64 {
        self.items_scanned * std::mem::size_of::<cfq_types::ItemId>() as u64
    }

    /// Merges another scan accounting into this one.
    pub fn absorb(&mut self, other: &ScanStats) {
        self.rows_scanned += other.rows_scanned;
        self.items_scanned += other.items_scanned;
        self.trim_passes += other.trim_passes;
        self.trim_rows_dropped += other.trim_rows_dropped;
        self.trim_items_dropped += other.trim_items_dropped;
        self.extents.extend(other.extents.iter().cloned());
    }
}

/// Aggregate work counters for one mining run (or one lattice of a
/// dovetailed run).
#[derive(Clone, Debug, Default)]
pub struct WorkStats {
    /// Full passes over a working database — the source rows or a reduced
    /// copy of them — made by this run. Level 1 makes none.
    pub db_scans: u64,
    /// Total sets counted for support (ccc condition 1's currency).
    pub support_counted: u64,
    /// Constraint-checking invocations (ccc condition 2's currency).
    pub constraint_checks: u64,
    /// Candidates discarded before counting by pushed constraints.
    pub pruned_candidates: u64,
    /// Per-level breakdown.
    pub levels: Vec<LevelStats>,
    /// Scan volume and trim accounting (how much data the scans touched).
    pub scan: ScanStats,
    /// Lattice/plan cache hits served by a long-lived engine (0 for
    /// one-shot runs).
    pub cache_hits: u64,
    /// Lattice/plan cache misses recorded by a long-lived engine.
    pub cache_misses: u64,
    /// Database scans a cache hit avoided: the scan cost the cached
    /// lattice's cold mining run paid, credited on each reuse.
    pub scans_saved: u64,
    /// Counting backends this run actually resolved to, in first-use
    /// order, deduplicated — `Auto` never appears here, only what it
    /// resolved to. Lets callers assert which backend did the work.
    pub backends_used: Vec<&'static str>,
}

impl WorkStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        WorkStats::default()
    }

    /// Records a counted level.
    pub fn record_level(&mut self, level: usize, candidates: u64, frequent: u64) {
        self.record_level_timed(level, candidates, frequent, 0);
    }

    /// Records a counted level together with the wall-clock microseconds
    /// it took — the per-level timings the slow-query log reports.
    pub fn record_level_timed(&mut self, level: usize, candidates: u64, frequent: u64, micros: u64) {
        self.support_counted += candidates;
        self.levels.push(LevelStats { level, candidates, frequent, micros, counted_by: "" });
    }

    /// Names what counted the level recorded last.
    pub fn label_level(&mut self, counted_by: &'static str) {
        if let Some(last) = self.levels.last_mut() {
            last.counted_by = counted_by;
        }
    }

    /// Records one database scan.
    pub fn record_scan(&mut self) {
        self.db_scans += 1;
    }

    /// Records `n` constraint-check invocations.
    pub fn record_checks(&mut self, n: u64) {
        self.constraint_checks += n;
    }

    /// Records `n` candidates pruned before counting.
    pub fn record_pruned(&mut self, n: u64) {
        self.pruned_candidates += n;
    }

    /// Records a cache hit that avoided `scans_saved` database scans.
    pub fn record_cache_hit(&mut self, scans_saved: u64) {
        self.cache_hits += 1;
        self.scans_saved += scans_saved;
    }

    /// Records a cache miss (the work that followed is accounted normally).
    pub fn record_cache_miss(&mut self) {
        self.cache_misses += 1;
    }

    /// Records that counting resolved to `backend` (a concrete backend
    /// name, never `"auto"`). Idempotent per name.
    pub fn record_backend(&mut self, backend: &'static str) {
        if !self.backends_used.contains(&backend) {
            self.backends_used.push(backend);
        }
    }

    /// Merges another stats object into this one (used when combining the
    /// S- and T-lattice halves of a run). Levels are concatenated.
    pub fn absorb(&mut self, other: &WorkStats) {
        self.db_scans += other.db_scans;
        self.support_counted += other.support_counted;
        self.constraint_checks += other.constraint_checks;
        self.pruned_candidates += other.pruned_candidates;
        self.levels.extend(other.levels.iter().cloned());
        self.scan.absorb(&other.scan);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.scans_saved += other.scans_saved;
        for b in &other.backends_used {
            self.record_backend(b);
        }
    }

    /// Total frequent sets found across levels.
    pub fn total_frequent(&self) -> u64 {
        self.levels.iter().map(|l| l.frequent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = WorkStats::new();
        s.record_scan();
        s.record_level(1, 100, 40);
        s.record_scan();
        s.record_level(2, 300, 120);
        s.record_checks(100);
        s.record_pruned(7);
        assert_eq!(s.db_scans, 2);
        assert_eq!(s.support_counted, 400);
        assert_eq!(s.constraint_checks, 100);
        assert_eq!(s.pruned_candidates, 7);
        assert_eq!(s.total_frequent(), 160);
        assert_eq!(s.levels.len(), 2);
        s.label_level("triangle");
        assert_eq!(
            s.levels[1],
            LevelStats { level: 2, candidates: 300, frequent: 120, micros: 0, counted_by: "triangle" }
        );
        assert_eq!(s.levels[0].counted_by, "");
    }

    #[test]
    fn timed_levels_carry_micros() {
        let mut s = WorkStats::new();
        s.record_level_timed(1, 50, 20, 1234);
        assert_eq!(s.levels[0].micros, 1234);
        assert_eq!(s.support_counted, 50);
        // Untimed recording defaults to zero micros.
        s.record_level(2, 10, 5);
        assert_eq!(s.levels[1].micros, 0);
    }

    #[test]
    fn scan_accounting() {
        let mut s = ScanStats::default();
        s.record_extent(1, 100, 1000);
        s.record_trim(40, 600);
        s.record_extent(2, 60, 400);
        assert_eq!(s.rows_scanned, 160);
        assert_eq!(s.items_scanned, 1400);
        assert_eq!(s.trim_passes, 1);
        assert_eq!(s.trim_rows_dropped, 40);
        assert_eq!(s.trim_items_dropped, 600);
        assert_eq!(s.bytes_scanned(), 1400 * 4);
        assert_eq!(s.extents[1], ScanExtent { level: 2, rows: 60, items: 400 });

        let mut t = ScanStats::default();
        t.record_extent(1, 10, 20);
        s.absorb(&t);
        assert_eq!(s.items_scanned, 1420);
        assert_eq!(s.extents.len(), 3);
    }

    #[test]
    fn absorb_merges() {
        let mut a = WorkStats::new();
        a.record_scan();
        a.record_level(1, 10, 5);
        let mut b = WorkStats::new();
        b.record_level(1, 20, 9);
        b.record_checks(3);
        b.record_cache_hit(4);
        b.record_cache_miss();
        a.absorb(&b);
        assert_eq!(a.support_counted, 30);
        assert_eq!(a.constraint_checks, 3);
        assert_eq!(a.levels.len(), 2);
        assert_eq!(a.total_frequent(), 14);
        assert_eq!(a.cache_hits, 1);
        assert_eq!(a.cache_misses, 1);
        assert_eq!(a.scans_saved, 4);
    }

    #[test]
    fn backends_used_dedups_and_absorbs() {
        let mut a = WorkStats::new();
        a.record_backend("bitmap");
        a.record_backend("bitmap");
        assert_eq!(a.backends_used, vec!["bitmap"]);
        let mut b = WorkStats::new();
        b.record_backend("horizontal");
        b.record_backend("bitmap");
        a.absorb(&b);
        assert_eq!(a.backends_used, vec!["bitmap", "horizontal"]);
    }
}
