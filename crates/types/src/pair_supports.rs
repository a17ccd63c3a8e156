//! The pair-support column of a transaction database: the support of every
//! pair of items of the universe, kept beside the rows the way the
//! item-support column is.
//!
//! Level 2 of a levelwise run counts pairs of frequent items, and which
//! pairs occur together depends on the rows alone, not on the query. A
//! database that carries this triangle
//! ([`TransactionDb::fill_pair_supports`]) lets every run read its level 2
//! off the cells instead of making a pass over the rows for it. The
//! triangle is `n·(n−1)/2` `u32` cells over an `n`-item universe — 1.91 MiB
//! at 1,000 items — so it is filled only up to [`MAX_TRIANGLE_CELLS`]
//! cells; [`TransactionDb::concat`] folds a delta's rows into a copy.

use crate::item::ItemId;
use crate::transaction::TransactionDb;

/// Largest pair triangle anything in the workspace allocates, in `u32`
/// cells: 16 MiB, reached just under 2,900 distinct items.
pub const MAX_TRIANGLE_CELLS: usize = 1 << 22;

/// Cells of the upper triangle over `m` ranks: one per unordered pair.
pub fn triangle_cells(m: usize) -> usize {
    m * m.saturating_sub(1) / 2
}

/// The support of every pair of items of an `n`-item universe: the upper
/// triangle laid out row by row — the cell of items `a < b` sits at
/// `a·(2n − a − 1)/2 + (b − a − 1)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairSupports {
    n_items: usize,
    cells: Vec<u32>,
}

impl PairSupports {
    /// The pair supports of `db`, counted in one pass over its rows; `None`
    /// when its universe is wider than [`MAX_TRIANGLE_CELLS`] allows.
    pub fn of(db: &TransactionDb) -> Option<PairSupports> {
        let n_items = db.n_items();
        if triangle_cells(n_items) > MAX_TRIANGLE_CELLS {
            return None;
        }
        let mut pairs = PairSupports { n_items, cells: vec![0; triangle_cells(n_items)] };
        pairs.add_rows(db);
        Some(pairs)
    }

    /// These supports with `delta`'s rows counted in: the supports of the
    /// database this one's rows followed by `delta`'s.
    pub(crate) fn folded(&self, delta: &TransactionDb) -> PairSupports {
        debug_assert_eq!(delta.n_items(), self.n_items);
        let mut pairs = self.clone();
        pairs.add_rows(delta);
        pairs
    }

    /// Increments the cell of every pair of items of every row of `db`.
    fn add_rows(&mut self, db: &TransactionDb) {
        for t in db.iter() {
            for (k, &a) in t.iter().enumerate() {
                let start = self.row_start(a.index());
                let row = &mut self.cells[start..];
                for &b in &t[k + 1..] {
                    row[b.index() - a.index() - 1] += 1;
                }
            }
        }
    }

    fn row_start(&self, a: usize) -> usize {
        a * (2 * self.n_items - a - 1) / 2
    }

    /// The supports of item `a` paired with each of items `a + 1..n`, in
    /// id order — the pair `a < b` at position `b − a − 1`; empty for an
    /// item past the universe.
    pub fn row(&self, a: ItemId) -> &[u32] {
        let a = a.index();
        if a >= self.n_items {
            return &[];
        }
        let start = self.row_start(a);
        &self.cells[start..start + self.n_items - a - 1]
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Itemset;

    fn db() -> TransactionDb {
        TransactionDb::from_u32(5, &[&[0, 1, 2], &[1, 2, 4], &[0, 4], &[2], &[0, 1, 2, 3, 4]])
    }

    fn assert_supports(pairs: &PairSupports, db: &TransactionDb) {
        assert_eq!(pairs.n_items, db.n_items());
        for a in 0..db.n_items() as u32 {
            let row = pairs.row(ItemId(a));
            assert_eq!(row.len(), db.n_items() - a as usize - 1);
            for (b, &n) in (a + 1..).zip(row) {
                let want = db.support(&Itemset::from_items([ItemId(a), ItemId(b)]));
                assert_eq!(u64::from(n), want, "({a}, {b})");
            }
        }
    }

    #[test]
    fn cells_are_the_pair_supports() {
        let d = db();
        let pairs = PairSupports::of(&d).unwrap();
        assert_supports(&pairs, &d);
        assert_eq!(pairs.cells.len(), 10);
        assert_eq!(pairs.row(ItemId(1)), &[3, 1, 2]);
        assert!(pairs.row(ItemId(4)).is_empty() && pairs.row(ItemId(u32::MAX)).is_empty());
    }

    #[test]
    fn folding_a_delta_counts_its_rows_in() {
        let d = db();
        let delta = TransactionDb::from_u32(5, &[&[3, 4], &[0, 3], &[], &[0, 1, 2, 3]]);
        let folded = PairSupports::of(&d).unwrap().folded(&delta);
        assert_supports(&folded, &d.concat(&delta).unwrap());
    }

    #[test]
    fn degenerate_universes() {
        for n in [0, 1] {
            let d = TransactionDb::new(n, vec![Vec::new(); 3]).unwrap();
            let pairs = PairSupports::of(&d).unwrap();
            assert!(pairs.cells.is_empty());
            assert!(pairs.row(ItemId(0)).is_empty());
        }
    }

    #[test]
    fn wide_universes_get_no_triangle() {
        assert_eq!(triangle_cells(2896), 4_191_960);
        assert!(triangle_cells(2896) <= MAX_TRIANGLE_CELLS);
        assert!(triangle_cells(2897) > MAX_TRIANGLE_CELLS);
        let wide = TransactionDb::new(2897, Vec::new()).unwrap();
        assert!(PairSupports::of(&wide).is_none());
    }
}
