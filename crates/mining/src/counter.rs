//! Support counting.
//!
//! [`count_supports_with`] is the production entry point: it counts any
//! number of candidate batches in one pass over the rows — sorted batches
//! of pairs through a rank-indexed triangle, everything else through a
//! prefix trie — except batches of singletons, which it reads off the
//! database's item-support column ([`singleton_supports`]) without
//! touching a row.
//! [`TrieCounter`] is the plain trie on its own (the reference the dense
//! kernels are tested against, and what FUP counts with);
//! [`NaiveCounter`] is the obviously-correct oracle for tests and tiny
//! instances.

use cfq_types::transaction::contains_sorted;
use cfq_types::{
    triangle_cells, DbChunk, ItemId, Itemset, PairSupports, TransactionDb, MAX_TRIANGLE_CELLS,
};

/// A strategy for counting the supports of a candidate batch in one pass.
pub trait SupportCounter {
    /// Returns the absolute support of each candidate, in input order.
    /// Implementations must make exactly one pass over `db`.
    fn count(&self, db: &TransactionDb, candidates: &[Itemset]) -> Vec<u64>;
}

/// Reference counter: per transaction, test each candidate by sorted-slice
/// inclusion. `O(|D| × |C| × |t|)` — correct and slow.
#[derive(Default, Clone, Copy, Debug)]
pub struct NaiveCounter;

impl SupportCounter for NaiveCounter {
    fn count(&self, db: &TransactionDb, candidates: &[Itemset]) -> Vec<u64> {
        let mut counts = vec![0u64; candidates.len()];
        for t in db.iter() {
            for (ci, c) in candidates.iter().enumerate() {
                if contains_sorted(t, c.as_slice()) {
                    counts[ci] += 1;
                }
            }
        }
        counts
    }
}

/// Prefix-trie counter (the hash-tree of Apriori in trie form).
///
/// The trie is rebuilt per call: construction is `O(Σ|c|)` over sorted
/// candidates, and counting walks each transaction against the trie,
/// visiting a node only when its prefix is contained in the transaction.
#[derive(Default, Clone, Copy, Debug)]
pub struct TrieCounter;

struct Trie {
    nodes: Vec<TrieNode>,
}

struct TrieNode {
    item: ItemId,
    /// Index range of children in `nodes` (children are contiguous and
    /// sorted by item because candidates arrive lexicographically sorted).
    children: std::ops::Range<u32>,
    /// Candidate index if a candidate ends at this node.
    candidate: Option<u32>,
}

impl Trie {
    /// Builds the trie from lexicographically sorted, distinct candidates of
    /// uniform positive length.
    fn build(candidates: &[Itemset]) -> Trie {
        let mut trie = Trie { nodes: Vec::new() };
        if candidates.is_empty() {
            return trie;
        }
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "candidates must be sorted");
        // Breadth-first construction so each node's children are contiguous.
        // Frontier entries: (candidate range, depth, node index or root).
        struct Frame {
            lo: usize,
            hi: usize,
            depth: usize,
            node: Option<usize>,
        }
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(Frame { lo: 0, hi: candidates.len(), depth: 0, node: None });
        while let Some(f) = queue.pop_front() {
            let child_start = trie.nodes.len() as u32;
            let mut i = f.lo;
            while i < f.hi {
                let c = &candidates[i];
                debug_assert!(
                    c.len() > f.depth,
                    "candidate ending at this depth was consumed by its parent frame"
                );
                let item = c.as_slice()[f.depth];
                let mut j = i + 1;
                while j < f.hi && candidates[j].len() > f.depth
                    && candidates[j].as_slice()[f.depth] == item
                {
                    j += 1;
                }
                let ends_here = candidates[i].len() == f.depth + 1;
                let candidate = if ends_here { Some(i as u32) } else { None };
                trie.nodes.push(TrieNode { item, children: 0..0, candidate });
                let node_idx = trie.nodes.len() - 1;
                let lo = if ends_here { i + 1 } else { i };
                if lo < j {
                    queue.push_back(Frame { lo, hi: j, depth: f.depth + 1, node: Some(node_idx) });
                }
                i = j;
            }
            let child_end = trie.nodes.len() as u32;
            match f.node {
                Some(n) => trie.nodes[n].children = child_start..child_end,
                None => {
                    // Root children occupy the prefix of `nodes`; remember
                    // by convention: they are nodes[0..child_end] from the
                    // first frame. Store in a sentinel handled by count().
                }
            }
        }
        trie
    }

    /// Number of root children: the first frame's nodes are emitted first
    /// and contiguously, so they span `0..n_roots`.
    fn n_roots(&self, candidates: &[Itemset]) -> u32 {
        if candidates.is_empty() {
            return 0;
        }
        let mut n = 0u32;
        let mut last: Option<ItemId> = None;
        for c in candidates {
            let first = c.as_slice()[0];
            if last != Some(first) {
                n += 1;
                last = Some(first);
            }
        }
        n
    }

    fn count_transaction(
        &self,
        roots: std::ops::Range<u32>,
        t: &[ItemId],
        counts: &mut [u64],
    ) {
        self.walk(roots, t, counts);
    }

    fn walk(&self, children: std::ops::Range<u32>, t: &[ItemId], counts: &mut [u64]) {
        if children.is_empty() || t.is_empty() {
            return;
        }
        let (mut ci, mut ti) = (children.start as usize, 0usize);
        let end = children.end as usize;
        while ci < end && ti < t.len() {
            let node = &self.nodes[ci];
            match node.item.cmp(&t[ti]) {
                std::cmp::Ordering::Less => ci += 1,
                std::cmp::Ordering::Greater => ti += 1,
                std::cmp::Ordering::Equal => {
                    if let Some(cand) = node.candidate {
                        counts[cand as usize] += 1;
                    }
                    let rest = &t[ti + 1..];
                    if !node.children.is_empty() && !rest.is_empty() {
                        self.walk(node.children.clone(), rest, counts);
                    }
                    ci += 1;
                    ti += 1;
                }
            }
        }
    }
}

impl SupportCounter for TrieCounter {
    fn count(&self, db: &TransactionDb, candidates: &[Itemset]) -> Vec<u64> {
        let mut counts = vec![0u64; candidates.len()];
        if candidates.is_empty() {
            return counts;
        }
        // The trie builder requires sorted input; sort indices if needed.
        let sorted = candidates.windows(2).all(|w| w[0] < w[1]);
        if sorted {
            let trie = Trie::build(candidates);
            let roots = 0..trie.n_roots(candidates);
            for t in db.iter() {
                trie.count_transaction(roots.clone(), t, &mut counts);
            }
            counts
        } else {
            let mut order: Vec<u32> = (0..candidates.len() as u32).collect();
            order.sort_by(|&a, &b| candidates[a as usize].cmp(&candidates[b as usize]));
            order.dedup_by(|a, b| candidates[*a as usize] == candidates[*b as usize]);
            let sorted_c: Vec<Itemset> =
                order.iter().map(|&i| candidates[i as usize].clone()).collect();
            let inner = self.count(db, &sorted_c);
            // Scatter back (duplicates get recounted via a map).
            let mut by_set: std::collections::HashMap<&Itemset, u64> =
                std::collections::HashMap::with_capacity(sorted_c.len());
            for (c, n) in sorted_c.iter().zip(inner.iter()) {
                by_set.insert(c, *n);
            }
            for (i, c) in candidates.iter().enumerate() {
                counts[i] = by_set[c];
            }
            counts
        }
    }
}

/// Counts several independent candidate batches in a *single* database scan
/// (the scan-sharing primitive behind the paper's dovetailing argument,
/// §5.2). Returns per-batch support vectors.
pub fn count_supports(db: &TransactionDb, batches: &[&[Itemset]]) -> Vec<Vec<u64>> {
    count_supports_with(db, batches, 1)
}

/// The supports of `singletons` (one-item sets, in any order), read off
/// the database's item-support column: no row is touched. An item outside
/// the universe occurs in no row.
pub fn singleton_supports(db: &TransactionDb, singletons: &[Itemset]) -> Vec<u64> {
    singletons
        .iter()
        .map(|c| {
            debug_assert_eq!(c.len(), 1, "{c} is not a singleton");
            db.item_support(c.as_slice()[0])
        })
        .collect()
}

/// [`count_supports`] with `threads` workers sharding the transactions
/// (still one logical scan). `threads == 0` uses all available cores.
///
/// Batches of singletons are read off the item-support column; sorted
/// batches of pairs are counted by the dense kernel below (a rank-indexed
/// pair triangle); every other batch goes through the trie. The choice is
/// made per batch from the batch and the database alone, so callers see the
/// same counts either way. A call with nothing but singletons reads no row.
pub fn count_supports_with(
    db: &TransactionDb,
    batches: &[&[Itemset]],
    threads: usize,
) -> Vec<Vec<u64>> {
    let plans: Vec<BatchPlan> = batches.iter().map(|b| BatchPlan::choose(db, b)).collect();
    let threads = resolve_threads(threads);
    let zeros = || -> Vec<Vec<u64>> { batches.iter().map(|b| vec![0u64; b.len()]).collect() };
    let count_chunk = |chunk: DbChunk<'_>| -> Vec<Vec<u64>> {
        let mut counts = zeros();
        let mut triangles: Vec<PairCounts> = plans
            .iter()
            .map(|p| PairCounts::new(if let BatchPlan::Pairs(ranks) = p { ranks.m } else { 0 }))
            .collect();
        let mut row_ranks: Vec<u16> = Vec::new();
        for t in chunk.iter() {
            for (bi, plan) in plans.iter().enumerate() {
                match plan {
                    BatchPlan::Pairs(ranks) => {
                        ranks.add_row(t, &mut row_ranks, &mut triangles[bi])
                    }
                    BatchPlan::Trie(trie, roots) => {
                        trie.count_transaction(roots.clone(), t, &mut counts[bi])
                    }
                    BatchPlan::Singles | BatchPlan::Reference => {}
                }
            }
        }
        for (bi, plan) in plans.iter().enumerate() {
            if let BatchPlan::Pairs(ranks) = plan {
                for (n, c) in counts[bi].iter_mut().zip(batches[bi]) {
                    *n = ranks.pair_of(c).map_or(0, |(a, b)| triangles[bi].get(a, b));
                }
            }
        }
        counts
    };
    let reads_rows = plans.iter().any(|p| matches!(p, BatchPlan::Pairs(_) | BatchPlan::Trie(..)));
    let mut counts: Vec<Vec<u64>> = if !reads_rows {
        zeros()
    } else if threads <= 1 || db.len() < 4 * threads {
        match db.chunks(1).pop() {
            Some(whole) => count_chunk(whole),
            None => zeros(),
        }
    } else {
        // Shard by CSR chunks: each worker gets an offset-sliced view
        // balanced by item count — no row indirection or cloning on the
        // hot path.
        let partials: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = db
                .chunks(threads)
                .into_iter()
                .map(|chunk| {
                    let count_chunk = &count_chunk;
                    scope.spawn(move || count_chunk(chunk))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let mut counts = zeros();
        for p in partials {
            for (bi, batch) in p.into_iter().enumerate() {
                for (acc, x) in counts[bi].iter_mut().zip(batch) {
                    *acc += x;
                }
            }
        }
        counts
    };
    for (bi, plan) in plans.iter().enumerate() {
        match plan {
            BatchPlan::Singles => counts[bi] = singleton_supports(db, batches[bi]),
            BatchPlan::Reference => counts[bi] = TrieCounter.count(db, batches[bi]),
            BatchPlan::Pairs(_) | BatchPlan::Trie(..) => {}
        }
    }
    counts
}

/// How [`count_supports_with`] counts one batch.
enum BatchPlan {
    /// Singletons, in any order: read off the item-support column.
    Singles,
    /// Sorted pairs over few enough items for a dense triangle.
    Pairs(PairRanks),
    /// Any other sorted batch (deeper levels, mixed lengths, pairs whose
    /// triangle would not pay for itself).
    Trie(Trie, std::ops::Range<u32>),
    /// Unsorted or duplicated input: [`TrieCounter`] reorders it and
    /// scatters the counts back, in a pass of its own.
    Reference,
}

impl BatchPlan {
    fn choose(db: &TransactionDb, batch: &[Itemset]) -> BatchPlan {
        let k = batch.first().map_or(0, Itemset::len);
        let uniform = batch.iter().all(|c| c.len() == k);
        if k == 1 && uniform {
            return BatchPlan::Singles;
        }
        if !batch.windows(2).all(|w| w[0] < w[1]) {
            return BatchPlan::Reference;
        }
        if k == 2 && uniform {
            if let Some(ranks) = PairRanks::build(db, batch) {
                return BatchPlan::Pairs(ranks);
            }
        }
        let trie = Trie::build(batch);
        let roots = 0..trie.n_roots(batch);
        BatchPlan::Trie(trie, roots)
    }
}

/// Triangle cells one unit of trie work pays for: zeroing a cell costs
/// about an eighth of a trie merge step.
const CELLS_PER_TRIE_STEP: usize = 8;

/// Whether a batch of `n_candidates` pairs over `n_items` distinct items,
/// counted on `rows` rows, gets a dense triangle. The triangle's
/// `n_items·(n_items−1)/2` cells are allocated and zeroed up front whatever
/// the rows hold; the trie instead builds a node per candidate and merges
/// its roots (up to one per item) against every row. The triangle is worth
/// it unless it dwarfs that work — many items, few candidates, few rows —
/// or would simply be too big to hold per worker.
fn dense_pairs_fit(n_candidates: usize, n_items: usize, rows: usize) -> bool {
    let cells = triangle_cells(n_items);
    let trie_steps = n_candidates.saturating_add(rows.saturating_mul(n_items));
    cells <= MAX_TRIANGLE_CELLS && cells <= CELLS_PER_TRIE_STEP.saturating_mul(trie_steps)
}

/// Marks an item without a rank in a `u16` rank table.
pub(crate) const NO_RANK: u16 = u16::MAX;

/// Pair supports over `m` dense ranks: the upper triangle laid out row by
/// row — cell `(a, b)`, `a < b`, sits at `row_start[a] + (b − a − 1)`.
#[derive(Clone, Debug)]
pub struct PairCounts {
    row_start: Vec<usize>,
    cells: Vec<u32>,
}

impl PairCounts {
    /// An all-zero triangle over ranks `0..m`.
    pub fn new(m: usize) -> PairCounts {
        let row_start = (0..m).map(|a| a * (2 * m - a - 1) / 2).collect();
        PairCounts { row_start, cells: vec![0u32; triangle_cells(m)] }
    }

    /// The supports of every pair of `items` (ascending), ranked by
    /// position in that list, read off a database's pair-support column:
    /// no row is touched. An item past the column's universe occurs in no
    /// row.
    pub fn gather(column: &PairSupports, items: &[ItemId]) -> PairCounts {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        let mut counts = PairCounts::new(items.len());
        for (a, &first) in items.iter().enumerate() {
            let start = counts.row_start[a];
            let cells = &mut counts.cells[start..start + items.len() - a - 1];
            let row = column.row(first);
            for (cell, second) in cells.iter_mut().zip(&items[a + 1..]) {
                *cell = row.get(second.index() - first.index() - 1).copied().unwrap_or(0);
            }
        }
        counts
    }

    /// Number of ranks the triangle ranges over.
    pub fn ranks(&self) -> usize {
        self.row_start.len()
    }

    /// Increments the cell of every pair of `ranks`, one row's ranks in
    /// ascending order.
    #[inline]
    pub fn add_row(&mut self, ranks: &[u16]) {
        for (i, &a) in ranks.iter().enumerate() {
            let row = &mut self.cells[self.row_start[a as usize]..];
            for &b in &ranks[i + 1..] {
                row[(b - a - 1) as usize] += 1;
            }
        }
    }

    /// The supports of rank `a` paired with each of ranks `a + 1..m`.
    pub fn row(&self, a: usize) -> &[u32] {
        let start = self.row_start[a];
        &self.cells[start..start + self.ranks() - a - 1]
    }

    /// The support of the pair of ranks `a < b`.
    pub fn get(&self, a: usize, b: usize) -> u64 {
        u64::from(self.row(a)[b - a - 1])
    }

    /// The pairs of `items` — the triangle's ranks, ascending — that reach
    /// `min_support`, sorted, with their supports.
    pub fn frequent(&self, items: &[ItemId], min_support: u64) -> Vec<(Itemset, u64)> {
        debug_assert_eq!(items.len(), self.ranks());
        let mut out = Vec::new();
        for (a, &first) in items.iter().enumerate() {
            for (&n, &second) in self.row(a).iter().zip(&items[a + 1..]) {
                if u64::from(n) >= min_support {
                    out.push((Itemset::singleton(first).with_item(second), u64::from(n)));
                }
            }
        }
        out
    }

    /// Adds the counts of another triangle over the same ranks (a worker's
    /// share of the rows).
    pub(crate) fn merge(&mut self, other: &PairCounts) {
        debug_assert_eq!(self.ranks(), other.ranks());
        for (acc, x) in self.cells.iter_mut().zip(&other.cells) {
            *acc += x;
        }
    }
}

/// The level-2 kernel's index: the items of one pair batch mapped to dense
/// ranks `0..m`, ascending with item id so a sorted row maps to ascending
/// ranks; the counts go into one [`PairCounts`] per worker.
struct PairRanks {
    rank_of: Vec<u16>,
    m: usize,
}

impl PairRanks {
    /// `None` when [`dense_pairs_fit`] says the trie is the better counter.
    fn build(db: &TransactionDb, batch: &[Itemset]) -> Option<PairRanks> {
        // Only items of the database's universe get a rank: no row holds
        // any other, and the map's size must not follow candidate ids.
        let mut in_batch = vec![false; db.n_items()];
        for c in batch {
            for &i in c.as_slice() {
                if let Some(seen) = in_batch.get_mut(i.index()) {
                    *seen = true;
                }
            }
        }
        let m = in_batch.iter().filter(|&&seen| seen).count();
        // The fit bounds `m` far below `NO_RANK` (2²² cells ⇒ m ≤ 2,896).
        if !dense_pairs_fit(batch.len(), m, db.len()) {
            return None;
        }
        let mut next = 0u16;
        let rank_of = in_batch
            .iter()
            .map(|&seen| {
                if seen {
                    next += 1;
                    next - 1
                } else {
                    NO_RANK
                }
            })
            .collect();
        Some(PairRanks { rank_of, m })
    }

    /// Increments the cell of every pair of batch items in row `t`.
    /// `row_ranks` is scratch space reused across rows.
    fn add_row(&self, t: &[ItemId], row_ranks: &mut Vec<u16>, triangle: &mut PairCounts) {
        row_ranks.clear();
        row_ranks.extend(t.iter().map(|i| self.rank_of[i.index()]).filter(|&r| r != NO_RANK));
        triangle.add_row(row_ranks);
    }

    /// The ranks of candidate pair `c`; `None` when one of its items lies
    /// outside the database's universe (it occurs in no row).
    fn pair_of(&self, c: &Itemset) -> Option<(usize, usize)> {
        let a = *self.rank_of.get(c.as_slice()[0].index())?;
        let b = *self.rank_of.get(c.as_slice()[1].index())?;
        Some((a as usize, b as usize))
    }
}

/// Resolves a thread-count knob: `0` means one worker per available core.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// [`count_supports_with`] for a single batch, as a [`SupportCounter`]:
/// transactions are sharded across scoped threads, each counting into local
/// state, reduced at the end. Still one logical database scan.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelTrieCounter {
    /// Worker thread count (0 = one per available core).
    pub threads: usize,
}

impl SupportCounter for ParallelTrieCounter {
    fn count(&self, db: &TransactionDb, candidates: &[Itemset]) -> Vec<u64> {
        count_supports_with(db, &[candidates], self.threads).remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sets(v: &[&[u32]]) -> Vec<Itemset> {
        v.iter().map(|s| s.iter().copied().collect()).collect()
    }

    #[test]
    fn trie_matches_naive_on_fixed_case() {
        let d = db();
        let cands = sets(&[&[0, 1], &[0, 2], &[1, 2], &[2, 3], &[3, 4], &[4, 5]]);
        let naive = NaiveCounter.count(&d, &cands);
        let trie = TrieCounter.count(&d, &cands);
        assert_eq!(naive, trie);
        assert_eq!(naive, vec![2, 3, 4, 4, 2, 2]);
    }

    #[test]
    fn singleton_level() {
        let d = db();
        let cands = sets(&[&[0], &[1], &[2], &[5]]);
        assert_eq!(TrieCounter.count(&d, &cands), vec![3, 4, 6, 2]);
    }

    #[test]
    fn empty_candidates() {
        let d = db();
        assert!(TrieCounter.count(&d, &[]).is_empty());
        assert!(NaiveCounter.count(&d, &[]).is_empty());
    }

    #[test]
    fn deep_candidates() {
        let d = db();
        let cands = sets(&[&[0, 1, 2, 3], &[1, 2, 3], &[2, 3, 4], &[0, 1, 2, 3, 4, 5]]);
        // Mixed lengths exercised one batch at a time (engine always counts
        // uniform levels, but the counter tolerates mixtures).
        for c in &cands {
            let single = vec![c.clone()];
            assert_eq!(
                TrieCounter.count(&d, &single)[0],
                d.support(c),
                "support mismatch for {c}"
            );
        }
    }

    #[test]
    fn unsorted_input_is_handled() {
        let d = db();
        let cands = sets(&[&[2, 3], &[0, 1], &[1, 2]]);
        let trie = TrieCounter.count(&d, &cands);
        let naive = NaiveCounter.count(&d, &cands);
        assert_eq!(trie, naive);
    }

    #[test]
    fn shared_scan_counts_match_individual() {
        let d = db();
        let a = sets(&[&[0, 1], &[1, 2]]);
        let b = sets(&[&[2], &[3], &[4]]);
        let shared = count_supports(&d, &[&a, &b]);
        assert_eq!(shared[0], TrieCounter.count(&d, &a));
        assert_eq!(shared[1], TrieCounter.count(&d, &b));
    }

    #[test]
    fn randomized_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..25 {
            let n_items = rng.gen_range(4..12);
            let n_tx = rng.gen_range(1..40);
            let txs: Vec<Vec<cfq_types::ItemId>> = (0..n_tx)
                .map(|_| {
                    let len = rng.gen_range(1..=n_items);
                    (0..len).map(|_| cfq_types::ItemId(rng.gen_range(0..n_items as u32))).collect()
                })
                .collect();
            let d = TransactionDb::new(n_items, txs).unwrap();
            let k = rng.gen_range(1..4usize);
            let mut cands: Vec<Itemset> = (0..rng.gen_range(1..30))
                .map(|_| {
                    (0..k).map(|_| rng.gen_range(0..n_items as u32)).collect::<Itemset>()
                })
                .filter(|c: &Itemset| !c.is_empty())
                .collect();
            cands.sort();
            cands.dedup();
            let naive = NaiveCounter.count(&d, &cands);
            let trie = TrieCounter.count(&d, &cands);
            assert_eq!(naive, trie, "trial {trial} diverged");
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let n_items = 30usize;
        let txs: Vec<Vec<ItemId>> = (0..500)
            .map(|_| {
                (0..rng.gen_range(2..12))
                    .map(|_| ItemId(rng.gen_range(0..n_items as u32)))
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(n_items, txs).unwrap();
        let mut cands: Vec<Itemset> = (0..200)
            .map(|_| {
                (0..rng.gen_range(1..4))
                    .map(|_| rng.gen_range(0..n_items as u32))
                    .collect()
            })
            .collect();
        cands.sort();
        cands.dedup();
        for threads in [0usize, 1, 2, 5] {
            let par = ParallelTrieCounter { threads }.count(&db, &cands);
            let seq = TrieCounter.count(&db, &cands);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn tiny_database_falls_back() {
        let db = TransactionDb::from_u32(3, &[&[0, 1], &[1, 2]]);
        let cands: Vec<Itemset> = vec![[0u32].into(), [1u32].into(), [1u32, 2].into()];
        assert_eq!(
            ParallelTrieCounter::default().count(&db, &cands),
            vec![1, 2, 1]
        );
    }
}

#[cfg(test)]
mod dense_tests {
    use super::*;

    fn sets(v: &[&[u32]]) -> Vec<Itemset> {
        v.iter().map(|s| s.iter().copied().collect()).collect()
    }

    fn plan_name(db: &TransactionDb, batch: &[Itemset]) -> &'static str {
        match BatchPlan::choose(db, batch) {
            BatchPlan::Singles => "singles",
            BatchPlan::Pairs(_) => "pairs",
            BatchPlan::Trie(..) => "trie",
            BatchPlan::Reference => "reference",
        }
    }

    /// 30 rows over 40 items: row `r` holds items `r`, `r + 1`, `r + 5`,
    /// `r + 10` (mod 40).
    fn db() -> TransactionDb {
        let rows: Vec<Vec<ItemId>> = (0..30u32)
            .map(|r| [0, 1, 5, 10].iter().map(|d| ItemId((r + d) % 40)).collect())
            .collect();
        TransactionDb::new(40, rows).unwrap()
    }

    fn all_pairs(items: std::ops::Range<u32>) -> Vec<Itemset> {
        let mut out = Vec::new();
        for a in items.clone() {
            for b in a + 1..items.end {
                out.push(Itemset::from([a, b]));
            }
        }
        out
    }

    #[test]
    fn plans_follow_the_batch_shape() {
        let d = db();
        assert_eq!(plan_name(&d, &sets(&[&[0], &[3], &[39]])), "singles");
        assert_eq!(plan_name(&d, &all_pairs(0..40)), "pairs");
        assert_eq!(plan_name(&d, &sets(&[&[0, 1, 5], &[1, 2, 6]])), "trie");
        assert_eq!(plan_name(&d, &sets(&[&[0, 1], &[0, 1, 5], &[2]])), "trie");
        assert_eq!(plan_name(&d, &[]), "trie");
        // Out of order, or the same set twice: only the reference counter
        // reorders and scatters back — but a column read needs no order.
        assert_eq!(plan_name(&d, &sets(&[&[3], &[0], &[3]])), "singles");
        assert_eq!(plan_name(&d, &sets(&[&[1, 2], &[0, 1]])), "reference");
        assert_eq!(plan_name(&d, &sets(&[&[0, 1], &[0, 1]])), "reference");
    }

    #[test]
    fn every_plan_matches_the_naive_counts() {
        let d = db();
        let batches = [
            sets(&[&[0], &[3], &[39]]),
            all_pairs(0..40),
            sets(&[&[0, 1, 5], &[1, 2, 6]]),
            sets(&[&[0, 1], &[0, 1, 5], &[2]]),
            Vec::new(),
            sets(&[&[3], &[0], &[3]]),
            sets(&[&[1, 2], &[0, 1], &[0, 1]]),
        ];
        let refs: Vec<&[Itemset]> = batches.iter().map(|b| b.as_slice()).collect();
        let expected: Vec<Vec<u64>> = batches.iter().map(|b| NaiveCounter.count(&d, b)).collect();
        for threads in [0usize, 1, 2, 3] {
            assert_eq!(count_supports_with(&d, &refs, threads), expected, "threads={threads}");
        }
    }

    #[test]
    fn pair_threshold_has_two_sides() {
        // 3 rows, 2 candidates: 8·(2 + 3·m) trie steps against m·(m−1)/2
        // cells — the triangle fits up to m = 49 and not from m = 50.
        assert!(dense_pairs_fit(2, 49, 3));
        assert!(!dense_pairs_fit(2, 50, 3));
        // More rows or more candidates buy a bigger triangle.
        assert!(dense_pairs_fit(2, 50, 4));
        assert!(dense_pairs_fit(200, 50, 3));
        // The memory cap holds whatever the work.
        assert!(dense_pairs_fit(usize::MAX, 2896, usize::MAX));
        assert!(!dense_pairs_fit(usize::MAX, 2897, usize::MAX));

        // The same line through `choose`, with identical counts either side.
        let rows: Vec<Vec<ItemId>> =
            (0..3u32).map(|r| (0..65).step_by(r as usize + 1).map(ItemId).collect()).collect();
        let d = TransactionDb::new(65, rows).unwrap();
        // A chain {0,1}, {1,2}, … has one candidate fewer than items:
        // 8·(63 + 3·64) = 2040 ≥ 2016 cells, 8·(64 + 3·65) = 2072 < 2080.
        let chain =
            |m: u32| -> Vec<Itemset> { (0..m - 1).map(|a| Itemset::from([a, a + 1])).collect() };
        assert_eq!(plan_name(&d, &chain(64)), "pairs");
        assert_eq!(plan_name(&d, &chain(65)), "trie");
        for m in [64, 65] {
            let c = chain(m);
            assert_eq!(count_supports(&d, &[&c])[0], NaiveCounter.count(&d, &c), "m={m}");
        }
    }

    #[test]
    fn items_outside_the_data_count_zero() {
        let d = db();
        // Item 40 is past the database's universe, 39 inside it; neither
        // kernel may index out of its arrays or size them by candidate ids.
        let singles = sets(&[&[39], &[40], &[u32::MAX]]);
        assert_eq!(plan_name(&d, &singles), "singles");
        assert_eq!(count_supports(&d, &[&singles])[0], NaiveCounter.count(&d, &singles));
        let pairs = sets(&[&[0, 1], &[0, 40], &[39, u32::MAX], &[40, u32::MAX]]);
        assert_eq!(plan_name(&d, &pairs), "pairs");
        assert_eq!(count_supports(&d, &[&pairs])[0], vec![1, 0, 0, 0]);
        // An empty database counts nothing, through every plan.
        let empty = TransactionDb::new(40, Vec::new()).unwrap();
        let got = count_supports_with(&empty, &[&singles, &pairs], 2);
        assert_eq!(got, vec![vec![0; 3], vec![0; 4]]);
    }
}
