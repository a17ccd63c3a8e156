//! Per-level database reduction (AprioriTid-style transaction trimming).
//!
//! Between levels, a levelwise miner knows exactly which items can still
//! matter: level-`k+1` candidates are built from level-`k` frequent sets,
//! so any item outside their union can never appear in another candidate,
//! and any transaction left with fewer than `k+1` live items cannot
//! contain a level-`k+1` candidate. [`trim_db`] rewrites the CSR database
//! dropping both, so later scans touch only data that can still produce a
//! count. Trimming is *support-preserving* for every candidate whose items
//! are all live and whose length is at least the `min_len` used: a dropped
//! item is in no candidate, and a dropped row contains no candidate of
//! that length — so counts on the trimmed database equal counts on the
//! original (property-tested in `tests/trim_props.rs`).
//!
//! Live sets shrink monotonically across levels, so the pass composes:
//! trimming an already-trimmed database with a subset of its live items is
//! still exact.

use crate::stats::ScanStats;
use cfq_types::{ItemId, TransactionDb};

/// A dense membership bitset over the item universe, the "live item"
/// filter a trim pass keeps.
#[derive(Clone, Debug)]
pub struct LiveSet {
    bits: Vec<u64>,
    len: usize,
}

impl LiveSet {
    /// An empty set over a universe of `n_items` ids.
    pub fn empty(n_items: usize) -> Self {
        LiveSet { bits: vec![0u64; n_items.div_ceil(64)], len: 0 }
    }

    /// Builds from any iterator of item ids (duplicates are fine).
    pub fn from_items(n_items: usize, items: impl IntoIterator<Item = ItemId>) -> Self {
        let mut s = LiveSet::empty(n_items);
        for i in items {
            s.insert(i);
        }
        s
    }

    /// Inserts an id.
    #[inline]
    pub fn insert(&mut self, i: ItemId) {
        let (w, b) = (i.index() / 64, i.index() % 64);
        if self.bits[w] & (1 << b) == 0 {
            self.bits[w] |= 1 << b;
            self.len += 1;
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: ItemId) -> bool {
        let (w, b) = (i.index() / 64, i.index() % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of live items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no item is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Outcome of one [`trim_db`] pass.
pub struct TrimResult {
    /// The reduced database (same item-id space as the input).
    pub db: TransactionDb,
    /// For each surviving row, its row index in the *input* database.
    /// Composable: map through the previous pass's provenance to reach the
    /// original TIDs (FUP/incremental paths need original row identity).
    pub provenance: Vec<u32>,
    /// Rows removed (fewer than `min_len` live items remained).
    pub rows_dropped: u64,
    /// Item occurrences removed from surviving *and* dropped rows.
    pub items_dropped: u64,
}

impl TrimResult {
    /// Checks every structural invariant a trim pass must preserve against
    /// the database it was produced from, returning the first violation:
    ///
    /// * the output is itself a valid CSR database;
    /// * `provenance` is strictly increasing (an order-preserving injection
    ///   into the input's row space — i.e. a permutation-free selection),
    ///   in bounds, and one entry per surviving row;
    /// * `rows_dropped` / `items_dropped` account exactly for the
    ///   input/output size difference;
    /// * every surviving row is a subset of its source row.
    ///
    /// [`trim_db`] runs this in debug builds; the CLI `--audit` gate and
    /// the trim property tests run it explicitly.
    pub fn check_invariants(&self, input: &TransactionDb) -> Result<(), String> {
        self.db.validate().map_err(|e| e.to_string())?;
        if self.provenance.len() != self.db.len() {
            return Err(format!(
                "provenance has {} entries for {} surviving rows",
                self.provenance.len(),
                self.db.len()
            ));
        }
        if !self.provenance.windows(2).all(|w| w[0] < w[1]) {
            return Err("provenance is not strictly increasing".into());
        }
        if self.provenance.last().is_some_and(|&t| t as usize >= input.len()) {
            return Err(format!(
                "provenance references row {} of a {}-row input",
                self.provenance.last().unwrap(),
                input.len()
            ));
        }
        if self.rows_dropped != (input.len() - self.db.len()) as u64 {
            return Err(format!(
                "rows_dropped = {} but {} of {} rows survived",
                self.rows_dropped,
                self.db.len(),
                input.len()
            ));
        }
        if self.items_dropped != (input.total_items() - self.db.total_items()) as u64 {
            return Err(format!(
                "items_dropped = {} but the arena shrank by {}",
                self.items_dropped,
                input.total_items() - self.db.total_items()
            ));
        }
        for (row, &src) in self.provenance.iter().enumerate() {
            let out = self.db.transaction(row);
            let source = input.transaction(src as usize);
            if !cfq_types::contains_sorted(source, out) {
                return Err(format!(
                    "surviving row {row} is not a subset of input row {src}"
                ));
            }
        }
        Ok(())
    }

    /// Checks that this pass is the *exact* trim of `input` under
    /// (`live`, `min_len`) — not merely structurally consistent:
    ///
    /// * **completeness** — every input row with at least `min_len` live
    ///   items survives (an over-eager trim that drops such a row can
    ///   lose candidate support);
    /// * **exactness** — each surviving row equals the live-filter of its
    ///   source row (no item kept that is dead, none dropped that is
    ///   live).
    ///
    /// Together with [`TrimResult::check_invariants`] this is what lets a
    /// pass be split by rows: a row partition of the database trimmed part
    /// by part against the *same* `live` set is row-for-row the global
    /// trim — [`crate::projection::Projection::pairs`] relies on it when it
    /// splits its pass across counting threads.
    pub fn check_exactness(
        &self,
        input: &TransactionDb,
        live: &LiveSet,
        min_len: usize,
    ) -> Result<(), String> {
        let min_len = min_len.max(1);
        let mut next = 0usize; // cursor into provenance
        for (tid, row) in input.iter().enumerate() {
            let live_len = row.iter().filter(|&&i| live.contains(i)).count();
            let survived = self.provenance.get(next) == Some(&(tid as u32));
            if live_len >= min_len && !survived {
                return Err(format!(
                    "input row {tid} has {live_len} live items (>= {min_len}) but was dropped"
                ));
            }
            if survived {
                let out = self.db.transaction(next);
                let expect: Vec<ItemId> =
                    row.iter().copied().filter(|&i| live.contains(i)).collect();
                if out != expect.as_slice() {
                    return Err(format!(
                        "surviving row {next} (input row {tid}) is not the live-filter of its source"
                    ));
                }
                next += 1;
            }
        }
        Ok(())
    }
}

/// Rewrites `db`, keeping only items in `live` and only transactions
/// retaining at least `min_len` items. Pass `min_len = k` before counting
/// level `k`. Single linear sweep of the CSR arena.
pub fn trim_db(db: &TransactionDb, live: &LiveSet, min_len: usize) -> TrimResult {
    let min_len = min_len.max(1);
    let mut items: Vec<ItemId> = Vec::with_capacity(db.total_items());
    let mut offsets: Vec<u32> = Vec::with_capacity(db.len() + 1);
    offsets.push(0);
    let mut provenance: Vec<u32> = Vec::with_capacity(db.len());
    let mut rows_dropped = 0u64;
    for (tid, t) in db.iter().enumerate() {
        let row_start = items.len();
        items.extend(t.iter().copied().filter(|&i| live.contains(i)));
        if items.len() - row_start >= min_len {
            offsets.push(items.len() as u32);
            provenance.push(tid as u32);
        } else {
            items.truncate(row_start);
            rows_dropped += 1;
        }
    }
    items.shrink_to_fit();
    let items_dropped = (db.total_items() - items.len()) as u64;
    let result = TrimResult {
        db: TransactionDb::from_parts(db.n_items(), items, offsets),
        provenance,
        rows_dropped,
        items_dropped,
    };
    debug_assert!(
        result.check_invariants(db).is_ok(),
        "trim pass broke an invariant: {}",
        result.check_invariants(db).unwrap_err()
    );
    result
}

/// [`trim_db`] plus bookkeeping: records the pass in `scan` stats.
pub fn trim_db_recorded(
    db: &TransactionDb,
    live: &LiveSet,
    min_len: usize,
    scan: &mut ScanStats,
) -> TrimResult {
    let r = trim_db(db, live, min_len);
    scan.record_trim(r.rows_dropped, r.items_dropped);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_types::Itemset;

    fn db() -> TransactionDb {
        TransactionDb::from_u32(
            6,
            &[
                &[0, 1, 2, 3],
                &[1, 2, 3],
                &[0, 2, 4],
                &[1, 5],
                &[2, 3, 4, 5],
                &[5],
            ],
        )
    }

    #[test]
    fn live_set_basics() {
        let mut s = LiveSet::empty(130);
        assert!(s.is_empty());
        s.insert(ItemId(0));
        s.insert(ItemId(64));
        s.insert(ItemId(129));
        s.insert(ItemId(129));
        assert_eq!(s.len(), 3);
        assert!(s.contains(ItemId(64)));
        assert!(!s.contains(ItemId(63)));
    }

    #[test]
    fn trims_items_and_short_rows() {
        let d = db();
        let live = LiveSet::from_items(6, [1, 2, 3].map(ItemId));
        let r = trim_db(&d, &live, 2);
        // Row 0 → {1,2,3}; row 1 → {1,2,3}; row 2 → {2} dropped; row 3 →
        // {1} dropped; row 4 → {2,3}; row 5 → {} dropped.
        assert_eq!(r.db.len(), 3);
        assert_eq!(r.provenance, vec![0, 1, 4]);
        assert_eq!(r.rows_dropped, 3);
        assert_eq!(r.db.total_items(), 8);
        assert_eq!(r.items_dropped, (d.total_items() - 8) as u64);
        assert_eq!(r.db.transaction(2), &[ItemId(2), ItemId(3)]);
    }

    #[test]
    fn supports_preserved_for_live_candidates() {
        let d = db();
        let live = LiveSet::from_items(6, [1, 2, 3].map(ItemId));
        let r = trim_db(&d, &live, 2);
        for cand in [
            Itemset::from([1u32, 2]),
            Itemset::from([2u32, 3]),
            Itemset::from([1u32, 2, 3]),
        ] {
            assert_eq!(r.db.support(&cand), d.support(&cand), "support of {cand}");
        }
    }

    #[test]
    fn composes_with_shrinking_live_sets() {
        let d = db();
        let live1 = LiveSet::from_items(6, [1, 2, 3, 4].map(ItemId));
        let r1 = trim_db(&d, &live1, 2);
        let live2 = LiveSet::from_items(6, [2, 3].map(ItemId));
        let r2 = trim_db(&r1.db, &live2, 2);
        let direct = trim_db(&d, &live2, 2);
        assert_eq!(r2.db.len(), direct.db.len());
        for i in 0..r2.db.len() {
            assert_eq!(r2.db.transaction(i), direct.db.transaction(i));
        }
        // Chained provenance reaches the original TIDs.
        let chained: Vec<u32> =
            r2.provenance.iter().map(|&i| r1.provenance[i as usize]).collect();
        assert_eq!(chained, direct.provenance);
    }

    #[test]
    fn check_invariants_accepts_real_passes_and_rejects_doctored_ones() {
        let d = db();
        let live = LiveSet::from_items(6, [1, 2, 3].map(ItemId));
        let mut r = trim_db(&d, &live, 2);
        assert!(r.check_invariants(&d).is_ok());
        // Doctored provenance: out of order.
        let orig = r.provenance.clone();
        r.provenance.swap(0, 1);
        assert!(r.check_invariants(&d).unwrap_err().contains("increasing"));
        r.provenance = orig.clone();
        // Doctored provenance: points past the input.
        *r.provenance.last_mut().unwrap() = d.len() as u32;
        assert!(r.check_invariants(&d).is_err());
        r.provenance = orig.clone();
        // Doctored accounting.
        r.rows_dropped += 1;
        assert!(r.check_invariants(&d).unwrap_err().contains("rows_dropped"));
        r.rows_dropped -= 1;
        r.items_dropped += 1;
        assert!(r.check_invariants(&d).unwrap_err().contains("items_dropped"));
        r.items_dropped -= 1;
        // Doctored provenance: maps a surviving row to a disjoint source row.
        r.provenance[2] = 3; // row {2,3} is not a subset of input row 3 = {1,5}
        r.rows_dropped = (d.len() - r.db.len()) as u64;
        assert!(r.check_invariants(&d).unwrap_err().contains("subset"));
    }

    #[test]
    fn check_exactness_accepts_real_passes_and_rejects_lossy_ones() {
        let d = db();
        let live = LiveSet::from_items(6, [1, 2, 3].map(ItemId));
        let r = trim_db(&d, &live, 2);
        assert!(r.check_exactness(&d, &live, 2).is_ok());
        // A lossy trim (dropped a row that had enough live items) passes
        // the structural invariants but fails exactness.
        let lossy = TrimResult {
            db: TransactionDb::from_u32(6, &[&[1, 2, 3], &[2, 3]]),
            provenance: vec![1, 4],
            rows_dropped: 4,
            items_dropped: (d.total_items() - 5) as u64,
        };
        assert!(lossy.check_invariants(&d).is_ok());
        let err = lossy.check_exactness(&d, &live, 2).unwrap_err();
        assert!(err.contains("was dropped"), "{err}");
        // A trim that kept a dead item fails exactness too.
        let sloppy = trim_db(&d, &LiveSet::from_items(6, [0, 1, 2, 3].map(ItemId)), 2);
        assert!(sloppy.check_exactness(&d, &live, 2).is_err());
    }

    #[test]
    fn row_partition_trim_equals_global_trim() {
        // What `Projection::pairs` relies on across `counting_threads`:
        // trimming each half of a row partition against the same live set
        // concatenates to the global trim.
        let d = db();
        let live = LiveSet::from_items(6, [1, 2, 3].map(ItemId));
        let global = trim_db(&d, &live, 2);
        let rows = |lo: usize, hi: usize| -> TransactionDb {
            let rows: Vec<Vec<ItemId>> = (lo..hi).map(|i| d.transaction(i).to_vec()).collect();
            TransactionDb::new(d.n_items(), rows).unwrap()
        };
        let (a, b) = (rows(0, 3), rows(3, d.len()));
        let (ta, tb) = (trim_db(&a, &live, 2), trim_db(&b, &live, 2));
        ta.check_exactness(&a, &live, 2).unwrap();
        tb.check_exactness(&b, &live, 2).unwrap();
        assert_eq!(ta.db.len() + tb.db.len(), global.db.len());
        let merged: Vec<&[ItemId]> = ta.db.iter().chain(tb.db.iter()).collect();
        let globals: Vec<&[ItemId]> = global.db.iter().collect();
        assert_eq!(merged, globals);
        assert_eq!(
            ta.rows_dropped + tb.rows_dropped + ta.items_dropped + tb.items_dropped,
            global.rows_dropped + global.items_dropped
        );
    }

    #[test]
    fn empty_live_set_drops_everything() {
        let d = db();
        let r = trim_db(&d, &LiveSet::empty(6), 1);
        assert!(r.db.is_empty());
        assert_eq!(r.rows_dropped, d.len() as u64);
        assert_eq!(r.items_dropped, d.total_items() as u64);
        assert!(r.provenance.is_empty());
    }
}
