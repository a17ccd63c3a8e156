//! The transaction database `trans(TID, Itemset)` and derived-domain
//! projections.

use crate::catalog::{AttrId, Catalog};
use crate::item::ItemId;
use crate::itemset::Itemset;
use crate::pair_supports::PairSupports;
use crate::{CfqError, Result};
use std::sync::Arc;

/// A horizontal transaction database in flat CSR layout.
///
/// All items live in one contiguous arena; row `i` is the slice
/// `items[offsets[i] .. offsets[i + 1]]`. Each transaction is a sorted,
/// duplicate-free item list. TIDs are implicit (the row index), matching
/// the paper's `trans(TID, Itemset)`.
///
/// The CSR layout makes a full scan a single linear sweep of memory and
/// lets parallel counters shard the database by slicing offsets instead
/// of cloning rows (see [`TransactionDb::chunks`]).
///
/// Beside the rows the database carries one derived column, the support
/// of every item ([`TransactionDb::item_supports`]): every constructor
/// fills it while it has the rows in hand, so level 1 of any mining run is
/// a read of this column and never a pass over the rows.
///
/// A database may carry a second column, the support of every pair of
/// items ([`TransactionDb::pair_supports`]). No constructor fills it: one
/// explicit call ([`TransactionDb::fill_pair_supports`]) does, for a
/// database that serves many runs, and [`TransactionDb::concat`] carries it
/// into the next epoch.
///
/// ```
/// use cfq_types::TransactionDb;
/// let db = TransactionDb::from_u32(4, &[&[0, 1], &[1, 2, 3], &[1]]);
/// assert_eq!(db.len(), 3);
/// assert_eq!(db.support(&[1u32].into()), 3);
/// assert_eq!(db.support(&[1u32, 2].into()), 1);
/// assert_eq!(db.item_supports(), &[1, 3, 1, 1]);
/// ```
#[derive(Clone)]
pub struct TransactionDb {
    /// Concatenated sorted rows.
    items: Vec<ItemId>,
    /// Row boundaries: `offsets.len() == len() + 1`, `offsets[0] == 0`.
    offsets: Vec<u32>,
    n_items: usize,
    /// `supports[i]` is the number of rows holding item `i`; one entry per
    /// item of the universe.
    supports: Vec<u32>,
    /// The support of every pair of items, once filled; shared by clones.
    pairs: Option<Arc<PairSupports>>,
}

impl Default for TransactionDb {
    fn default() -> Self {
        TransactionDb {
            items: Vec::new(),
            offsets: vec![0],
            n_items: 0,
            supports: Vec::new(),
            pairs: None,
        }
    }
}

/// The item-support column of an arena of duplicate-free rows: an item
/// occurs once per row that holds it, so its support is its occurrence
/// count. Ids outside the universe are left for
/// [`TransactionDb::validate`] to report.
fn item_supports_of(n_items: usize, items: &[ItemId]) -> Vec<u32> {
    let mut supports = vec![0u32; n_items];
    for i in items {
        if let Some(n) = supports.get_mut(i.index()) {
            *n += 1;
        }
    }
    supports
}

impl TransactionDb {
    /// Builds a database from raw transactions; each row is sorted and
    /// deduplicated. `n_items` bounds the item universe (ids must be below).
    pub fn new(n_items: usize, transactions: Vec<Vec<ItemId>>) -> Result<Self> {
        let mut items = Vec::with_capacity(transactions.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(transactions.len() + 1);
        offsets.push(0u32);
        for mut t in transactions {
            t.sort_unstable();
            t.dedup();
            if let Some(&max) = t.last() {
                if max.index() >= n_items {
                    return Err(CfqError::Config(format!(
                        "transaction references item {} but universe has {} items",
                        max, n_items
                    )));
                }
            }
            items.extend_from_slice(&t);
            if items.len() > u32::MAX as usize {
                return Err(CfqError::Config(format!(
                    "transaction database exceeds the CSR arena limit of {} items",
                    u32::MAX
                )));
            }
            offsets.push(items.len() as u32);
        }
        let supports = item_supports_of(n_items, &items);
        Ok(TransactionDb { items, offsets, n_items, supports, pairs: None })
    }

    /// Builds directly from CSR parts. Rows must already be sorted and
    /// duplicate-free with ids below `n_items`, and `offsets` must be a
    /// monotone boundary array starting at 0 and ending at `items.len()`
    /// — this is the fast path for derived databases (trim passes,
    /// projections) whose rows are reduced from an already-valid db.
    pub fn from_parts(n_items: usize, items: Vec<ItemId>, offsets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty() && offsets[0] == 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            items.len(),
            "offsets must end at the arena length"
        );
        let supports = item_supports_of(n_items, &items);
        let db = TransactionDb { items, offsets, n_items, supports, pairs: None };
        debug_assert!(db.validate().is_ok(), "{}", db.validate().unwrap_err());
        db
    }

    /// Checks every CSR structural invariant and returns the first
    /// violation found:
    ///
    /// * offsets start at 0, end at the arena length, and are monotone
    ///   (every row is an in-bounds arena slice);
    /// * every row is strictly sorted (sorted and duplicate-free);
    /// * every item id is below the universe size;
    /// * the item-support column equals a recount of the rows;
    /// * the pair-support column, when filled, equals a recount of the rows.
    ///
    /// [`TransactionDb::from_parts`] runs this in debug builds; the CLI's
    /// `--audit` gate and the trim-pass invariant checks run it explicitly.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(CfqError::Config(format!("invalid CSR database: {msg}")));
        if self.offsets.is_empty() || self.offsets[0] != 0 {
            return fail("offsets must start at 0".into());
        }
        if *self.offsets.last().unwrap() as usize != self.items.len() {
            return fail(format!(
                "offsets end at {} but the arena has {} items",
                self.offsets.last().unwrap(),
                self.items.len()
            ));
        }
        for (i, w) in self.offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                return fail(format!("offsets not monotone at row {i}: {} > {}", w[0], w[1]));
            }
            let row = &self.items[w[0] as usize..w[1] as usize];
            if !row.windows(2).all(|p| p[0] < p[1]) {
                return fail(format!("row {i} is not strictly sorted"));
            }
            if row.last().is_some_and(|last| last.index() >= self.n_items) {
                return fail(format!(
                    "row {i} references item {} outside the {}-item universe",
                    row.last().unwrap(),
                    self.n_items
                ));
            }
        }
        let recount = item_supports_of(self.n_items, &self.items);
        if self.supports.len() != recount.len() {
            return fail(format!(
                "item-support column has {} entries for a {}-item universe",
                self.supports.len(),
                self.n_items
            ));
        }
        if let Some(i) = (0..recount.len()).find(|&i| self.supports[i] != recount[i]) {
            return fail(format!(
                "item-support column says item {i} is in {} rows but {} hold it",
                self.supports[i], recount[i]
            ));
        }
        if self.pairs.as_deref().is_some_and(|p| Some(p) != PairSupports::of(self).as_ref()) {
            return fail("pair-support column differs from a recount of the rows".into());
        }
        Ok(())
    }

    /// Builds from `u32` item ids (test convenience).
    pub fn from_u32(n_items: usize, transactions: &[&[u32]]) -> Self {
        let rows = transactions
            .iter()
            .map(|t| t.iter().map(|&i| ItemId(i)).collect())
            .collect();
        TransactionDb::new(n_items, rows).expect("valid test transactions")
    }

    /// Number of transactions.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the database has no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Size of the item universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total number of item occurrences across all transactions — the CSR
    /// arena length, i.e. the amount of data one full scan touches.
    #[inline]
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// The support of every item: entry `i` is the number of transactions
    /// holding item `i`, one entry per item of the universe. Filled by
    /// every constructor (and summed by [`TransactionDb::concat`]), so
    /// reading it touches no row.
    #[inline]
    pub fn item_supports(&self) -> &[u32] {
        &self.supports
    }

    /// The support of `item`, read off [`TransactionDb::item_supports`]
    /// (0 for an item past the universe: it occurs in no row).
    #[inline]
    pub fn item_support(&self, item: ItemId) -> u64 {
        self.supports.get(item.index()).map_or(0, |&n| u64::from(n))
    }

    /// Fills the pair-support column ([`TransactionDb::pair_supports`]) in
    /// one pass over the rows, unless it is filled already or the universe
    /// is wider than [`crate::MAX_TRIANGLE_CELLS`] allows. Returns whether
    /// the column is there.
    pub fn fill_pair_supports(&mut self) -> bool {
        if self.pairs.is_none() {
            self.pairs = PairSupports::of(self).map(Arc::new);
        }
        self.pairs.is_some()
    }

    /// The support of every pair of items, when
    /// [`TransactionDb::fill_pair_supports`] filled it (or the database it
    /// was [`concat`](TransactionDb::concat)enated from had it).
    #[inline]
    pub fn pair_supports(&self) -> Option<&PairSupports> {
        self.pairs.as_deref()
    }

    /// The `i`-th transaction as a sorted item slice.
    #[inline]
    pub fn transaction(&self, i: usize) -> &[ItemId] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates transactions as sorted item slices.
    pub fn iter(&self) -> impl Iterator<Item = &[ItemId]> {
        self.offsets
            .windows(2)
            .map(|w| &self.items[w[0] as usize..w[1] as usize])
    }

    /// Splits the database into at most `n` contiguous row-range views,
    /// balanced by *item count* (not row count) so threads scanning skewed
    /// databases get equal work. Views borrow the CSR arrays — sharding is
    /// offset slicing, never row cloning. Returns fewer than `n` chunks
    /// when the database is small; at least one chunk unless empty.
    pub fn chunks(&self, n: usize) -> Vec<DbChunk<'_>> {
        let n = n.max(1);
        let rows = self.len();
        if rows == 0 {
            return Vec::new();
        }
        let per_chunk = (self.items.len() / n).max(1) as u64;
        let mut out = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < rows {
            let mut end = start + 1;
            // Greedily extend until the chunk holds ~its share of items.
            let target = self.offsets[start] as u64 + per_chunk;
            while end < rows
                && out.len() + 1 < n
                && (self.offsets[end] as u64) < target
            {
                end += 1;
            }
            if out.len() + 1 == n {
                end = rows;
            }
            out.push(DbChunk {
                first_row: start,
                offsets: &self.offsets[start..=end],
                items: &self.items[self.offsets[start] as usize..self.offsets[end] as usize],
            });
            start = end;
        }
        out
    }

    /// Average transaction length (0 for an empty database).
    pub fn avg_transaction_len(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.items.len() as f64 / self.len() as f64
    }

    /// Absolute support of an itemset: the number of transactions containing
    /// every item of `set`. Linear scan — this is the reference oracle used
    /// by tests; the mining crate has the fast counters.
    pub fn support(&self, set: &Itemset) -> u64 {
        self.iter()
            .filter(|t| contains_sorted(t, set.as_slice()))
            .count() as u64
    }

    /// Concatenates `delta`'s rows after this database's rows, returning a
    /// new CSR database over the same item universe. This is the epoch
    /// transition `DB ∪ db⁺` of FUP-style incremental maintenance: the old
    /// arena is memcpy'd, the delta arena is appended, the delta's offsets
    /// are rebased and the two item-support columns are added — no row is
    /// re-sorted, re-validated beyond the universe check, or recounted.
    /// When this database carries the pair-support column, the result
    /// carries a copy with `delta`'s rows counted in.
    ///
    /// Fails with [`CfqError::Engine`] when the universes differ and with
    /// [`CfqError::Config`] when the combined arena would overflow the
    /// `u32` CSR offset limit.
    pub fn concat(&self, delta: &TransactionDb) -> Result<TransactionDb> {
        if delta.n_items != self.n_items {
            return Err(CfqError::Engine(format!(
                "append delta has a {}-item universe but the database has {}",
                delta.n_items, self.n_items
            )));
        }
        let total = self.items.len() + delta.items.len();
        if total > u32::MAX as usize {
            return Err(CfqError::Config(format!(
                "appended database exceeds the CSR arena limit of {} items",
                u32::MAX
            )));
        }
        let mut items = Vec::with_capacity(total);
        items.extend_from_slice(&self.items);
        items.extend_from_slice(&delta.items);
        let base = *self.offsets.last().unwrap();
        let mut offsets = Vec::with_capacity(self.offsets.len() + delta.len());
        offsets.extend_from_slice(&self.offsets);
        offsets.extend(delta.offsets[1..].iter().map(|&o| o + base));
        // No entry can overflow: each is at most the combined arena length.
        let supports = self.supports.iter().zip(&delta.supports).map(|(a, b)| a + b).collect();
        let pairs = self.pairs.as_ref().map(|p| Arc::new(p.folded(delta)));
        Ok(TransactionDb { items, offsets, n_items: self.n_items, supports, pairs })
    }

    /// Projects the database onto a *derived domain*: transactions become
    /// the set of `attr` value keys of their items. This implements the
    /// paper's §3 setting where `T` ranges over a domain `Dom ≠ Item` (e.g.
    /// the `Type` domain): mining the projected database finds frequent
    /// *value sets*.
    ///
    /// Returns the projected database (item ids are dense indices into the
    /// returned key vector) and the sorted distinct value keys.
    pub fn project(&self, catalog: &Catalog, attr: AttrId) -> (TransactionDb, Vec<u64>) {
        let mut keys: Vec<u64> = (0..self.n_items as u32)
            .map(|i| catalog.value_key(attr, ItemId(i)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut items = Vec::with_capacity(self.items.len());
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0u32);
        let mut row: Vec<ItemId> = Vec::new();
        for t in self.iter() {
            row.clear();
            row.extend(t.iter().map(|&i| {
                let k = catalog.value_key(attr, i);
                let idx = keys.binary_search(&k).expect("key interned above");
                ItemId(idx as u32)
            }));
            row.sort_unstable();
            row.dedup();
            items.extend_from_slice(&row);
            offsets.push(items.len() as u32);
        }
        let supports = item_supports_of(keys.len(), &items);
        (TransactionDb { items, offsets, n_items: keys.len(), supports, pairs: None }, keys)
    }
}

/// A contiguous row-range view over a [`TransactionDb`]'s CSR arrays.
///
/// `offsets` keeps the parent's absolute values (length `len() + 1`);
/// `items` is the matching sub-arena, so row `i` of the chunk is
/// `items[offsets[i] - offsets[0] .. offsets[i + 1] - offsets[0]]`.
#[derive(Clone, Copy)]
pub struct DbChunk<'a> {
    first_row: usize,
    offsets: &'a [u32],
    items: &'a [ItemId],
}

impl<'a> DbChunk<'a> {
    /// Number of rows in this chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the chunk covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// The parent-database row index of this chunk's first row.
    #[inline]
    pub fn first_row(&self) -> usize {
        self.first_row
    }

    /// Total item occurrences in this chunk.
    #[inline]
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Row `i` of the chunk (chunk-relative index).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [ItemId] {
        let base = self.offsets[0];
        &self.items[(self.offsets[i] - base) as usize..(self.offsets[i + 1] - base) as usize]
    }

    /// Iterates the chunk's rows as sorted item slices.
    pub fn iter(&self) -> impl Iterator<Item = &'a [ItemId]> + '_ {
        let base = self.offsets[0];
        self.offsets
            .windows(2)
            .map(move |w| &self.items[(w[0] - base) as usize..(w[1] - base) as usize])
    }
}

/// `needle ⊆ haystack` for sorted slices.
#[inline]
pub fn contains_sorted(haystack: &[ItemId], needle: &[ItemId]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut hi = 0;
    'outer: for &n in needle {
        while hi < haystack.len() {
            match haystack[hi].cmp(&n) {
                std::cmp::Ordering::Less => hi += 1,
                std::cmp::Ordering::Equal => {
                    hi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogBuilder;

    fn db() -> TransactionDb {
        TransactionDb::from_u32(
            5,
            &[&[0, 1, 2], &[1, 2, 3], &[0, 2, 4], &[1, 2], &[2]],
        )
    }

    #[test]
    fn construction_and_access() {
        let d = db();
        assert_eq!(d.len(), 5);
        assert_eq!(d.n_items(), 5);
        assert_eq!(d.total_items(), 12);
        assert_eq!(d.transaction(0), &[ItemId(0), ItemId(1), ItemId(2)]);
        assert!(!d.is_empty());
        assert!((d.avg_transaction_len() - 12.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn rows_sorted_and_deduped() {
        let d = TransactionDb::from_u32(4, &[&[3, 1, 1, 2]]);
        assert_eq!(d.transaction(0), &[ItemId(1), ItemId(2), ItemId(3)]);
    }

    #[test]
    fn rejects_out_of_universe_items() {
        let r = TransactionDb::new(2, vec![vec![ItemId(5)]]);
        assert!(r.is_err());
    }

    #[test]
    fn default_is_empty() {
        let d = TransactionDb::default();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.total_items(), 0);
        assert!(d.chunks(4).is_empty());
    }

    #[test]
    fn from_parts_round_trips() {
        let d = db();
        let rebuilt = TransactionDb::from_parts(
            d.n_items(),
            d.iter().flatten().copied().collect(),
            (0..=d.len())
                .map(|i| d.iter().take(i).map(<[ItemId]>::len).sum::<usize>() as u32)
                .collect(),
        );
        assert_eq!(rebuilt.len(), d.len());
        for i in 0..d.len() {
            assert_eq!(rebuilt.transaction(i), d.transaction(i));
        }
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad_csr() {
        assert!(db().validate().is_ok());
        assert!(TransactionDb::default().validate().is_ok());
        let raw = |items: &[u32], offsets: &[u32], supports: &[u32]| TransactionDb {
            items: items.iter().map(|&i| ItemId(i)).collect(),
            offsets: offsets.to_vec(),
            n_items: 2,
            supports: supports.to_vec(),
            pairs: None,
        };
        // Non-monotone offsets.
        let bad = raw(&[0, 1], &[0, 2, 1, 2], &[1, 1]);
        assert!(bad.validate().unwrap_err().to_string().contains("monotone"));
        // Unsorted row.
        let bad = raw(&[1, 0], &[0, 2], &[1, 1]);
        assert!(bad.validate().unwrap_err().to_string().contains("sorted"));
        // Duplicate within a row (also "not strictly sorted").
        assert!(raw(&[1, 1], &[0, 2], &[0, 2]).validate().is_err());
        // Out-of-universe id.
        let bad = raw(&[7], &[0, 1], &[0, 0]);
        assert!(bad.validate().unwrap_err().to_string().contains("universe"));
        // Arena length mismatch.
        assert!(raw(&[0], &[0, 2], &[1, 0]).validate().is_err());
        // A column that is not a recount of the rows: a wrong entry, and
        // the wrong number of entries.
        assert!(raw(&[0, 1, 1], &[0, 2, 3], &[1, 2]).validate().is_ok());
        let bad = raw(&[0, 1, 1], &[0, 2, 3], &[1, 1]);
        assert!(bad.validate().unwrap_err().to_string().contains("item 1 is in 1 rows but 2"));
        let bad = raw(&[0, 1, 1], &[0, 2, 3], &[1, 2, 0]);
        assert!(bad.validate().unwrap_err().to_string().contains("3 entries"));
    }

    #[test]
    fn every_constructor_fills_the_item_support_column() {
        let d = db();
        assert_eq!(d.item_supports(), &[2, 3, 5, 1, 1]);
        // Duplicates within a raw row count once.
        assert_eq!(TransactionDb::from_u32(4, &[&[3, 1, 1, 2], &[1]]).item_supports(), &[0, 2, 1, 1]);
        assert!(TransactionDb::default().item_supports().is_empty());
        assert_eq!(TransactionDb::new(3, Vec::new()).unwrap().item_supports(), &[0, 0, 0]);
        let parts = TransactionDb::from_parts(
            5,
            d.iter().flatten().copied().collect(),
            d.offsets.clone(),
        );
        assert_eq!(parts.item_supports(), d.item_supports());
        // `concat` adds the columns; the sum is the recount.
        let delta = TransactionDb::from_u32(5, &[&[0, 4], &[3]]);
        let both = d.concat(&delta).unwrap();
        assert_eq!(both.item_supports(), &[3, 3, 5, 2, 2]);
        both.validate().unwrap();
    }

    #[test]
    fn concat_appends_rows_and_rebases_offsets() {
        let d = db();
        let delta = TransactionDb::from_u32(5, &[&[0, 4], &[3]]);
        let both = d.concat(&delta).unwrap();
        assert_eq!(both.len(), d.len() + delta.len());
        assert_eq!(both.total_items(), d.total_items() + delta.total_items());
        for i in 0..d.len() {
            assert_eq!(both.transaction(i), d.transaction(i));
        }
        assert_eq!(both.transaction(d.len()), &[ItemId(0), ItemId(4)]);
        assert_eq!(both.transaction(d.len() + 1), &[ItemId(3)]);
        assert!(both.validate().is_ok());
        // An empty delta over the same universe is the identity.
        let empty = TransactionDb::new(5, vec![]).unwrap();
        let same = d.concat(&empty).unwrap();
        assert_eq!(same.len(), d.len());
        assert_eq!(same.total_items(), d.total_items());
        // Universe mismatch is an engine error.
        let wrong = TransactionDb::from_u32(3, &[&[1]]);
        assert!(matches!(d.concat(&wrong), Err(CfqError::Engine(_))));
    }

    #[test]
    fn the_pair_column_is_filled_on_request_and_carried_by_concat() {
        let mut d = db();
        let delta = TransactionDb::from_u32(5, &[&[0, 4], &[3, 4]]);
        assert!(d.pair_supports().is_none(), "no constructor fills it");
        assert!(d.concat(&delta).unwrap().pair_supports().is_none());
        assert!(d.fill_pair_supports());
        assert_eq!(d.pair_supports(), PairSupports::of(&db()).as_ref());
        let both = d.concat(&delta).unwrap();
        assert_eq!(both.pair_supports(), PairSupports::of(&both).as_ref());
        assert!(both.validate().is_ok());
        // A column that disagrees with the rows is caught.
        let mut stale = both.clone();
        stale.pairs = d.pairs.clone();
        assert!(stale.validate().unwrap_err().to_string().contains("pair-support"));
        let mut wide = TransactionDb::new(3000, vec![vec![ItemId(1), ItemId(2999)]]).unwrap();
        assert!(!wide.fill_pair_supports() && wide.pair_supports().is_none());
    }

    #[test]
    fn support_oracle() {
        let d = db();
        assert_eq!(d.support(&[2u32].into()), 5);
        assert_eq!(d.support(&[1u32, 2].into()), 3);
        assert_eq!(d.support(&[0u32, 1, 2].into()), 1);
        assert_eq!(d.support(&[0u32, 3].into()), 0);
        assert_eq!(d.support(&Itemset::empty()), 5);
    }

    #[test]
    fn chunks_cover_all_rows_in_order() {
        let d = db();
        for n in 1..=8 {
            let chunks = d.chunks(n);
            assert!(chunks.len() <= n.max(1));
            let mut row = 0usize;
            for c in &chunks {
                assert_eq!(c.first_row(), row);
                for (i, r) in c.iter().enumerate() {
                    assert_eq!(r, d.transaction(row + i), "chunks({n}) row {row}");
                    assert_eq!(r, c.row(i));
                }
                row += c.len();
            }
            assert_eq!(row, d.len(), "chunks({n}) must cover every row");
            assert_eq!(
                chunks.iter().map(DbChunk::total_items).sum::<usize>(),
                d.total_items()
            );
        }
    }

    #[test]
    fn chunks_balance_by_items() {
        // One huge row then many tiny ones: row-count splitting would give
        // chunk 0 nearly all items; item balancing must not.
        let big: Vec<u32> = (0..64).collect();
        let mut rows: Vec<&[u32]> = vec![&big];
        let tiny = [0u32];
        for _ in 0..64 {
            rows.push(&tiny);
        }
        let d = TransactionDb::from_u32(64, &rows);
        let chunks = d.chunks(2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 1, "big row should fill the first chunk");
        assert_eq!(chunks[1].len(), 64);
    }

    #[test]
    fn contains_sorted_edges() {
        let hay = [ItemId(1), ItemId(3), ItemId(5)];
        assert!(contains_sorted(&hay, &[]));
        assert!(contains_sorted(&hay, &[ItemId(1), ItemId(5)]));
        assert!(!contains_sorted(&hay, &[ItemId(2)]));
        assert!(!contains_sorted(&hay, &[ItemId(1), ItemId(3), ItemId(5), ItemId(7)]));
    }

    #[test]
    fn projection_onto_type_domain() {
        // Items 0,1 are type A; items 2,3 type B; item 4 type C.
        let mut b = CatalogBuilder::new(5);
        b.cat_attr("Type", &["A", "A", "B", "B", "C"]).unwrap();
        let c = b.build();
        let ty = c.attr("Type").unwrap();
        let d = db();
        let (p, keys) = d.project(&c, ty);
        assert_eq!(keys.len(), 3);
        assert_eq!(p.n_items(), 3);
        // Transaction {0,1,2} → types {A, B} → projected ids {0,1}.
        assert_eq!(p.transaction(0).len(), 2);
        // Transaction {2} → {B} → one projected id.
        assert_eq!(p.transaction(4).len(), 1);
        // Frequencies transfer: type B (from items 2 or 3) occurs everywhere.
        let b_id = keys
            .binary_search(&(c.symbol("B").unwrap().0 as u64))
            .unwrap() as u32;
        assert_eq!(p.support(&Itemset::singleton(ItemId(b_id))), 5);
        assert_eq!(p.item_supports()[b_id as usize], 5);
        p.validate().unwrap();
    }
}
