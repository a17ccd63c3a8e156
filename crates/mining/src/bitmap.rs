//! Vertical *bitmap* support counting: u64 tid-bitmaps and diffsets.
//!
//! Where [`crate::vertical`] stores each item's transactions as a sorted
//! u32 list, this module packs them into bit vectors — one bit per
//! transaction, 64 per word, all items laid out in one contiguous arena so
//! a level's AND loops stream linearly through memory. Support is then
//! word-wide: `AND` + [`u64::count_ones`].
//!
//! Two refinements keep deep levels cheap on correlated data:
//!
//! * **Dense/sparse hybrid.** Items appearing in fewer than one
//!   transaction per word (density < 1/64) keep their sorted tid list
//!   instead of a mostly-zero bitmap; probing a handful of bits beats
//!   ANDing kilobytes of zeros.
//! * **Diffsets.** For a candidate `P ∪ {i}` at level ≥ 3 whose cached
//!   prefix `P` is itself sparse, support is computed by the diffset
//!   recurrence `support(P∪{i}) = support(P) − |d(P∪{i})|` where
//!   `d(P∪{i}) = t(P) \ t(i)`: the prefix's few surviving tids are probed
//!   against item `i`'s bitmap instead of re-ANDing full rows. The dense
//!   per-word loop uses the same identity (`prefix & !item`).
//!
//! The batch counter reuses the Eclat prefix-cache recurrence from
//! [`crate::vertical`]: consecutive candidates of a sorted level batch
//! share a (k-1)-prefix, whose bitmap (and, lazily, tid list) is computed
//! once per group. Counting agreement with the horizontal counters is
//! property-tested in `tests/backend_props.rs`.

use crate::counter::SupportCounter;
use cfq_types::{ItemId, Itemset, TransactionDb};

/// Words ANDed per cache chunk: 512 × 8 B = 4 KiB, so a prefix chunk and
/// an item chunk sit together comfortably inside L1 while the inner loop
/// sweeps the candidates of a group.
const CHUNK_WORDS: usize = 512;

/// Per-item transaction-id bits: a slot into the dense arena, or a sorted
/// tid list for items too sparse to be worth a full-width bitmap.
#[derive(Clone, Debug)]
enum ItemBits {
    /// Word offset of this item's row in the dense arena.
    Dense(usize),
    /// Sorted transaction ids (density < 1/64).
    Sparse(Vec<u32>),
}

/// Inverted bitmap index: per item, the set of transactions containing it,
/// packed 64 tids per `u64`. Build once, reuse across levels.
pub struct BitmapIndex {
    n_transactions: usize,
    /// Words per dense item row (`⌈n_transactions / 64⌉`).
    words: usize,
    /// Contiguous arena of all dense item rows.
    dense: Vec<u64>,
    items: Vec<ItemBits>,
    /// Singleton supports, precomputed at build time.
    supports: Vec<u64>,
}

impl BitmapIndex {
    /// Inverts the database (one pass) into per-item bitmaps, keeping
    /// items with density below 1/64 as sorted tid lists.
    pub fn build(db: &TransactionDb) -> BitmapIndex {
        BitmapIndex::from_rows(db.n_items(), db.len(), db.iter().map(|t| t.iter().copied()))
    }

    /// [`BitmapIndex::build`] over any `n_rows` rows of items below
    /// `n_items` — the rows need not be stored as a [`TransactionDb`].
    pub(crate) fn from_rows<R: Iterator<Item = ItemId>>(
        n_items: usize,
        n_rows: usize,
        rows: impl Iterator<Item = R>,
    ) -> BitmapIndex {
        let words = n_rows.div_ceil(64);
        let mut tids: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        for (tid, t) in rows.enumerate() {
            for i in t {
                tids[i.index()].push(tid as u32);
            }
        }
        let mut dense = Vec::new();
        let mut items = Vec::with_capacity(tids.len());
        let mut supports = Vec::with_capacity(tids.len());
        for list in tids {
            supports.push(list.len() as u64);
            if list.len() < words {
                items.push(ItemBits::Sparse(list));
            } else {
                let slot = dense.len();
                dense.resize(slot + words, 0u64);
                for tid in list {
                    dense[slot + (tid as usize >> 6)] |= 1u64 << (tid & 63);
                }
                items.push(ItemBits::Dense(slot));
            }
        }
        BitmapIndex { n_transactions: n_rows, words, dense, items, supports }
    }

    /// Number of transactions in the indexed database.
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Words per dense item row.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Support of a single item (free: precomputed at build time).
    pub fn item_support(&self, item: ItemId) -> u64 {
        self.supports[item.index()]
    }

    /// The item's dense word row, if it has one.
    fn item_words(&self, item: ItemId) -> Option<&[u64]> {
        match self.items[item.index()] {
            ItemBits::Dense(slot) => Some(&self.dense[slot..slot + self.words]),
            ItemBits::Sparse(_) => None,
        }
    }

    /// Is transaction `tid` in item `i`'s tidset?
    fn contains(&self, item: ItemId, tid: u32) -> bool {
        match &self.items[item.index()] {
            ItemBits::Dense(slot) => {
                self.dense[slot + (tid as usize >> 6)] >> (tid & 63) & 1 == 1
            }
            ItemBits::Sparse(list) => list.binary_search(&tid).is_ok(),
        }
    }

    /// Writes item `i`'s bits into `out` (an all-`words` buffer).
    fn write_item(&self, item: ItemId, out: &mut [u64]) {
        match &self.items[item.index()] {
            ItemBits::Dense(slot) => out.copy_from_slice(&self.dense[*slot..slot + self.words]),
            ItemBits::Sparse(list) => {
                out.fill(0);
                for &tid in list {
                    out[tid as usize >> 6] |= 1u64 << (tid & 63);
                }
            }
        }
    }

    /// `acc ← acc ∩ t(item)`; returns words touched (for AND accounting).
    fn and_into(&self, acc: &mut [u64], item: ItemId) -> u64 {
        match &self.items[item.index()] {
            ItemBits::Dense(slot) => {
                for (a, w) in acc.iter_mut().zip(&self.dense[*slot..slot + self.words]) {
                    *a &= w;
                }
                self.words as u64
            }
            ItemBits::Sparse(list) => {
                // Keep only the accumulator bits at the item's few tids:
                // cheaper than materializing the sparse row.
                let survivors: Vec<u32> = list
                    .iter()
                    .copied()
                    .filter(|&tid| acc[tid as usize >> 6] >> (tid & 63) & 1 == 1)
                    .collect();
                acc.fill(0);
                for tid in survivors {
                    acc[tid as usize >> 6] |= 1u64 << (tid & 63);
                }
                (list.len() as u64).max(1)
            }
        }
    }

    /// The bitmap of an itemset (left-deep AND), plus its popcount.
    pub fn bitmap(&self, set: &Itemset) -> (Vec<u64>, u64) {
        let mut acc = vec![0u64; self.words];
        let items: Vec<ItemId> = set.iter().collect();
        if items.is_empty() {
            // The empty set's tidset is every transaction.
            acc.fill(!0u64);
            if self.words > 0 {
                let tail = self.n_transactions & 63;
                if tail != 0 {
                    acc[self.words - 1] = (1u64 << tail) - 1;
                }
            }
            return (acc, self.n_transactions as u64);
        }
        self.write_item(items[0], &mut acc);
        for &i in &items[1..] {
            self.and_into(&mut acc, i);
        }
        let support = acc.iter().map(|w| w.count_ones() as u64).sum();
        (acc, support)
    }

    /// Support of an itemset.
    pub fn support(&self, set: &Itemset) -> u64 {
        self.bitmap(set).1
    }
}

/// Extracts the set tids of a bitmap as a sorted u32 list.
fn bits_to_tids(words: &[u64], capacity: u64) -> Vec<u32> {
    let mut out = Vec::with_capacity(capacity as usize);
    for (wi, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros();
            out.push((wi as u32) << 6 | b);
            w &= w - 1;
        }
    }
    out
}

/// A [`SupportCounter`] backed by a [`BitmapIndex`].
///
/// Candidates of a sorted batch are grouped by shared (k-1)-prefix; each
/// group's prefix bitmap is ANDed once (the Eclat recurrence), then the
/// group is counted either by cache-chunked dense word loops or — when
/// the prefix has gone sparse at level ≥ 3 — by the diffset probe path.
pub struct BitmapCounter<'a> {
    index: &'a BitmapIndex,
}

impl<'a> BitmapCounter<'a> {
    /// Wraps an index.
    pub fn new(index: &'a BitmapIndex) -> Self {
        BitmapCounter { index }
    }

    /// Counts one prefix group: candidates `prefix ∪ {last}` for each
    /// `last` in `lasts`, writing supports into `out`.
    fn count_group(&self, prefix: &[ItemId], lasts: &[ItemId], out: &mut Vec<u64>) {
        let idx = self.index;
        let words = idx.words;
        // Level 1: singleton supports are precomputed.
        if prefix.is_empty() {
            out.extend(lasts.iter().map(|&i| idx.item_support(i)));
            return;
        }
        let prefix_set: Itemset = prefix.iter().copied().collect();
        let (prefix_words, prefix_support) = idx.bitmap(&prefix_set);
        if prefix_support == 0 {
            out.extend(std::iter::repeat_n(0, lasts.len()));
            return;
        }

        // Diffset path: at level ≥ 3 a correlated prefix usually survives
        // in far fewer tids than it has words; probing those tids against
        // each item (support = prefix_support − |t(P) \ t(i)|) replaces
        // whole-row ANDs with |t(P)| bit probes per candidate.
        if prefix.len() >= 2 && prefix_support < words as u64 {
            let prefix_tids = bits_to_tids(&prefix_words, prefix_support);
            for &last in lasts {
                let diff = prefix_tids.iter().filter(|&&t| !idx.contains(last, t)).count() as u64;
                out.push(prefix_support - diff);
            }
            return;
        }

        // Dense path: chunk the word range so the prefix chunk stays
        // L1-resident while the inner loop sweeps the group's items.
        let base = out.len();
        out.extend(std::iter::repeat_n(0, lasts.len()));
        let mut sparse_pending = false;
        for chunk_start in (0..words).step_by(CHUNK_WORDS) {
            let chunk_end = (chunk_start + CHUNK_WORDS).min(words);
            let p = &prefix_words[chunk_start..chunk_end];
            for (ci, &last) in lasts.iter().enumerate() {
                let Some(item_words) = idx.item_words(last) else {
                    sparse_pending = true;
                    continue;
                };
                let w = &item_words[chunk_start..chunk_end];
                // Level 2 accumulates the intersection popcount directly;
                // deeper levels accumulate the diffset |t(P) \ t(i)| and
                // convert to support once per candidate below.
                out[base + ci] += if prefix.len() >= 2 {
                    p.iter().zip(w).map(|(&a, &b)| (a & !b).count_ones() as u64).sum::<u64>()
                } else {
                    p.iter().zip(w).map(|(&a, &b)| (a & b).count_ones() as u64).sum::<u64>()
                };
            }
        }
        for (ci, &last) in lasts.iter().enumerate() {
            if idx.item_words(last).is_some() && prefix.len() >= 2 {
                out[base + ci] = prefix_support - out[base + ci];
            }
        }
        // Sparse last items: probe their few tids against the prefix.
        if sparse_pending {
            for (ci, &last) in lasts.iter().enumerate() {
                if idx.item_words(last).is_some() {
                    continue;
                }
                let ItemBits::Sparse(list) = &idx.items[last.index()] else { unreachable!() };
                let sup = list
                    .iter()
                    .filter(|&&t| prefix_words[t as usize >> 6] >> (t & 63) & 1 == 1)
                    .count() as u64;
                out[base + ci] = sup;
            }
        }
    }
}

impl BitmapCounter<'_> {
    /// The supports of a sorted batch in the indexed rows, in input order.
    pub fn count_sets(&self, candidates: &[Itemset]) -> Vec<u64> {
        let mut counts = Vec::with_capacity(candidates.len());
        // Group consecutive candidates sharing a (k-1)-prefix.
        let mut i = 0usize;
        while i < candidates.len() {
            let items = candidates[i].as_slice();
            if items.is_empty() {
                counts.push(self.index.n_transactions as u64);
                i += 1;
                continue;
            }
            let (prefix, _) = items.split_at(items.len() - 1);
            let mut lasts: Vec<ItemId> = Vec::new();
            let mut j = i;
            while j < candidates.len() {
                let c = candidates[j].as_slice();
                if c.len() != items.len() || &c[..c.len() - 1] != prefix {
                    break;
                }
                lasts.push(c[c.len() - 1]);
                j += 1;
            }
            self.count_group(prefix, &lasts, &mut counts);
            i = j;
        }
        counts
    }
}

impl SupportCounter for BitmapCounter<'_> {
    fn count(&self, db: &TransactionDb, candidates: &[Itemset]) -> Vec<u64> {
        debug_assert_eq!(db.len(), self.index.n_transactions, "index/db mismatch");
        self.count_sets(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::NaiveCounter;

    fn db() -> TransactionDb {
        TransactionDb::from_u32(
            6,
            &[
                &[0, 1, 2, 3],
                &[1, 2, 3],
                &[0, 2, 4],
                &[1, 2],
                &[2, 3, 4, 5],
                &[0, 1, 2, 3, 4, 5],
            ],
        )
    }

    #[test]
    fn index_build_supports_and_bitmaps() {
        let d = db();
        let idx = BitmapIndex::build(&d);
        assert_eq!(idx.n_transactions(), 6);
        assert_eq!(idx.words(), 1);
        assert_eq!(idx.item_support(ItemId(2)), 6);
        assert_eq!(idx.item_support(ItemId(5)), 2);
        assert_eq!(idx.support(&[1u32, 3].into()), 3);
        assert_eq!(idx.support(&[0u32, 5].into()), 1);
        // Empty set: all transactions, with the tail word masked.
        let (bits, sup) = idx.bitmap(&Itemset::empty());
        assert_eq!(sup, 6);
        assert_eq!(bits, vec![0b111111u64]);
    }

    #[test]
    fn matches_naive_counter() {
        let d = db();
        let idx = BitmapIndex::build(&d);
        let cands: Vec<Itemset> = vec![
            [0u32].into(),
            [0u32, 1].into(),
            [0u32, 2].into(),
            [1u32, 2, 3].into(),
            [3u32, 4, 5].into(),
        ];
        let c = BitmapCounter::new(&idx);
        let v = c.count(&d, &cands);
        let n = NaiveCounter.count(&d, &cands);
        assert_eq!(v, n);
    }

    #[test]
    fn prefix_groups_handle_batches() {
        let d = db();
        let idx = BitmapIndex::build(&d);
        let cands: Vec<Itemset> = vec![
            [0u32, 1, 2].into(),
            [0u32, 1, 3].into(),
            [0u32, 1, 4].into(),
            [0u32, 2, 3].into(),
            [1u32, 2, 3].into(),
        ];
        let v = BitmapCounter::new(&idx).count(&d, &cands);
        let n = NaiveCounter.count(&d, &cands);
        assert_eq!(v, n);
    }

    #[test]
    fn sparse_items_probe_correctly() {
        // 130 transactions → 3 words; items 1/2 appear twice (sparse),
        // item 0 everywhere (dense).
        let mut rows: Vec<Vec<u32>> = (0..130).map(|_| vec![0u32]).collect();
        rows[7].push(1);
        rows[127].push(1);
        rows[64].push(2);
        rows[129].push(2);
        let rows: Vec<Vec<ItemId>> =
            rows.into_iter().map(|r| r.into_iter().map(ItemId).collect()).collect();
        let d = TransactionDb::new(3, rows).unwrap();
        let idx = BitmapIndex::build(&d);
        assert!(idx.item_words(ItemId(1)).is_none(), "item 1 should be sparse");
        assert!(idx.item_words(ItemId(0)).is_some(), "item 0 should be dense");
        let cands: Vec<Itemset> = vec![
            [0u32].into(),
            [1u32].into(),
            [0u32, 1].into(),
            [0u32, 2].into(),
            [1u32, 2].into(),
            [0u32, 1, 2].into(),
        ];
        let v = BitmapCounter::new(&idx).count(&d, &cands);
        let n = NaiveCounter.count(&d, &cands);
        assert_eq!(v, n);
    }

    #[test]
    fn deep_levels_take_the_diffset_path() {
        // 100 rows, a 4-item pattern in only 3 of them: any 2-prefix
        // survives in < words tids, forcing the sparse-prefix diffset
        // probes at level 3+.
        let mut rows: Vec<Vec<u32>> = (0..100).map(|i| vec![i % 7 + 10]).collect();
        for i in [11, 47, 93] {
            rows[i] = vec![0, 1, 2, 3];
        }
        let rows: Vec<Vec<ItemId>> = rows
            .into_iter()
            .map(|r| {
                let mut r: Vec<ItemId> = r.into_iter().map(ItemId).collect();
                r.sort();
                r
            })
            .collect();
        let d = TransactionDb::new(17, rows).unwrap();
        let idx = BitmapIndex::build(&d);
        let cands: Vec<Itemset> =
            vec![[0u32, 1, 2].into(), [0u32, 1, 3].into(), [0u32, 1, 2, 3].into()];
        let v = BitmapCounter::new(&idx).count(&d, &cands);
        let n = NaiveCounter.count(&d, &cands);
        assert_eq!(v, n);
    }

    #[test]
    fn randomized_agreement_with_naive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1999);
        for round in 0..25 {
            let n_items = rng.gen_range(3..10);
            // Mix tiny and >64-row databases so both word counts occur.
            let n_rows = if round % 2 == 0 { rng.gen_range(1..30) } else { rng.gen_range(65..200) };
            let txs: Vec<Vec<ItemId>> = (0..n_rows)
                .map(|_| {
                    (0..rng.gen_range(1..=n_items))
                        .map(|_| ItemId(rng.gen_range(0..n_items as u32)))
                        .collect()
                })
                .collect();
            let d = TransactionDb::new(n_items, txs).unwrap();
            let idx = BitmapIndex::build(&d);
            let k = rng.gen_range(1..5usize);
            let mut cands: Vec<Itemset> = (0..rng.gen_range(1..25))
                .map(|_| (0..k).map(|_| rng.gen_range(0..n_items as u32)).collect())
                .collect();
            cands.sort();
            cands.dedup();
            cands.retain(|c: &Itemset| !c.is_empty());
            let v = BitmapCounter::new(&idx).count(&d, &cands);
            let n = NaiveCounter.count(&d, &cands);
            assert_eq!(v, n, "round {round}");
        }
    }

    #[test]
    fn empty_database_counts_zero() {
        let d = TransactionDb::new(4, Vec::<Vec<ItemId>>::new()).unwrap();
        let idx = BitmapIndex::build(&d);
        assert_eq!(idx.words(), 0);
        let cands: Vec<Itemset> = vec![[0u32].into(), [0u32, 1].into()];
        assert_eq!(BitmapCounter::new(&idx).count(&d, &cands), vec![0, 0]);
    }
}
