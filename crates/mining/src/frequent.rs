//! The levelled collection of frequent sets produced by a lattice run.

use cfq_types::{ItemId, Itemset};

/// Frequent sets organized by level (cardinality), with support lookup.
///
/// Levels are 1-based: `level(1)` holds the frequent singletons (`L1` in the
/// paper, whose elements feed quasi-succinct reduction), `level(k)` the
/// frequent k-sets (whose element summary `L_k` feeds `J^k_max` pruning).
/// Each level is sorted, so a lookup is a binary search in the level of the
/// set's cardinality — the levels are the only copy of the sets.
#[derive(Clone, Default)]
pub struct FrequentSets {
    levels: Vec<Vec<(Itemset, u64)>>,
}

/// What a heap block costs beyond its payload: the allocator's header plus
/// rounding up to its block granularity.
const ALLOC_SLACK: usize = 32;

impl FrequentSets {
    /// An empty collection.
    pub fn new() -> Self {
        FrequentSets::default()
    }

    /// Appends the next level. `sets` must be the frequent sets of level
    /// `n_levels() + 1`, sorted, with their supports. A level is kept for
    /// as long as its lattice is — in a cache, for good — so spare
    /// capacity (a level collected through a filter can carry as much
    /// again) is given back here, where [`FrequentSets::approx_bytes`]
    /// stops seeing it.
    pub fn push_level(&mut self, mut sets: Vec<(Itemset, u64)>) {
        let expected = self.levels.len() + 1;
        debug_assert!(sets.iter().all(|(s, _)| s.len() == expected));
        debug_assert!(sets.windows(2).all(|w| w[0].0 < w[1].0));
        sets.shrink_to_fit();
        self.levels.push(sets);
    }

    /// Number of levels stored (the size of the largest frequent set).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// The frequent k-sets with supports (empty slice when k is out of
    /// range; `k` is 1-based).
    pub fn level(&self, k: usize) -> &[(Itemset, u64)] {
        if k == 0 || k > self.levels.len() {
            &[]
        } else {
            &self.levels[k - 1]
        }
    }

    /// Just the itemsets of level k.
    pub fn level_sets(&self, k: usize) -> Vec<Itemset> {
        self.level(k).iter().map(|(s, _)| s.clone()).collect()
    }

    /// Approximate heap footprint in bytes — the accounting unit of the
    /// engine's LRU cache budget. Counts each stored set once: its level
    /// entry and, for a set too large to live inside the entry, its heap
    /// block with an allocator header's slack; deliberately a slight
    /// over-estimate so the budget errs towards evicting.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        for level in &self.levels {
            bytes += std::mem::size_of::<Vec<(Itemset, u64)>>() + ALLOC_SLACK;
            bytes += level.len() * std::mem::size_of::<(Itemset, u64)>();
            bytes += level
                .iter()
                .map(|(s, _)| s.heap_bytes())
                .filter(|&heap| heap > 0)
                .map(|heap| heap + ALLOC_SLACK)
                .sum::<usize>();
        }
        bytes
    }

    /// Whether `set` is frequent.
    pub fn contains(&self, set: &Itemset) -> bool {
        self.support(set).is_some()
    }

    /// The support of `set`, if frequent (binary search in its level).
    pub fn support(&self, set: &Itemset) -> Option<u64> {
        let level = self.level(set.len());
        level.binary_search_by(|(s, _)| s.cmp(set)).ok().map(|i| level[i].1)
    }

    /// Iterates all frequent sets across levels (ascending level, then
    /// lexicographic).
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, u64)> {
        self.levels.iter().flatten().map(|(s, n)| (s, *n))
    }

    /// Total number of frequent sets.
    pub fn total(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// `L_k` as the paper uses it: the set of all *elements* contained in
    /// any frequent set of size k, ascending. `elements(1)` is `L1`.
    pub fn elements(&self, k: usize) -> Vec<ItemId> {
        let mut v: Vec<ItemId> =
            self.level(k).iter().flat_map(|(s, _)| s.iter()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Empties level `k` and returns its sets; the levels above it keep
    /// their numbers (empty when `k` is out of range).
    pub fn take_level(&mut self, k: usize) -> Vec<(Itemset, u64)> {
        match k.checked_sub(1).and_then(|i| self.levels.get_mut(i)) {
            Some(level) => std::mem::take(level),
            None => Vec::new(),
        }
    }

    /// Drops all levels above `k` (used by tests constructing partial
    /// lattices).
    pub fn truncate(&mut self, k: usize) {
        self.levels.truncate(k);
    }
}

impl std::fmt::Debug for FrequentSets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrequentSets[")?;
        for (k, lvl) in self.levels.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "L{}:{}", k + 1, lvl.len())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FrequentSets {
        let mut fs = FrequentSets::new();
        fs.push_level(vec![
            ([1u32].into(), 5),
            ([2u32].into(), 4),
            ([3u32].into(), 3),
        ]);
        fs.push_level(vec![([1u32, 2].into(), 3), ([2u32, 3].into(), 2)]);
        fs
    }

    #[test]
    fn levels_and_lookup() {
        let fs = sample();
        assert_eq!(fs.n_levels(), 2);
        assert_eq!(fs.level(1).len(), 3);
        assert_eq!(fs.level(2).len(), 2);
        assert!(fs.level(3).is_empty());
        assert!(fs.level(0).is_empty());
        assert!(fs.contains(&[1u32, 2].into()));
        assert!(!fs.contains(&[1u32, 3].into()));
        assert_eq!(fs.support(&[2u32].into()), Some(4));
        assert_eq!(fs.support(&[9u32].into()), None);
        assert_eq!(fs.total(), 5);
    }

    #[test]
    fn elements_summary() {
        let fs = sample();
        assert_eq!(fs.elements(1), vec![ItemId(1), ItemId(2), ItemId(3)]);
        assert_eq!(fs.elements(2), vec![ItemId(1), ItemId(2), ItemId(3)]);
        assert!(fs.elements(5).is_empty());
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let empty = FrequentSets::new();
        let fs = sample();
        assert!(fs.approx_bytes() > empty.approx_bytes());
        let mut bigger = sample();
        bigger.push_level(vec![([1u32, 2, 3].into(), 2)]);
        assert!(bigger.approx_bytes() > fs.approx_bytes());
    }

    #[test]
    fn push_level_gives_back_spare_capacity() {
        // A level collected the way the miners collect theirs: through a
        // filter, into a vector that grew by doubling.
        let level: Vec<(Itemset, u64)> =
            (0..100u32).filter(|i| i % 3 != 0).map(|i| ([i].into(), 7)).collect();
        assert!(level.capacity() > level.len(), "the test needs slack to give back");
        let mut exact = level.clone();
        exact.shrink_to_fit();
        let (mut fs, mut reference) = (FrequentSets::new(), FrequentSets::new());
        fs.push_level(level);
        reference.push_level(exact);
        assert_eq!(fs.levels[0].capacity(), fs.levels[0].len());
        assert_eq!(fs.approx_bytes(), reference.approx_bytes());
    }

    #[test]
    fn iteration_order() {
        let fs = sample();
        let all: Vec<_> = fs.iter().map(|(s, n)| (s.clone(), n)).collect();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0], ([1u32].into(), 5));
        assert_eq!(all[3], ([1u32, 2].into(), 3));
    }

    #[test]
    fn lookup_searches_the_level_of_the_sets_length() {
        let fs = sample();
        // Every stored set is found with its own support, first and last
        // of each level included.
        for (s, n) in fs.iter() {
            assert_eq!(fs.support(s), Some(n), "{s}");
            assert!(fs.contains(s), "{s}");
        }
        // Absent: between two stored sets, before the first, past the
        // last, longer than any level, and the empty set.
        for absent in [
            Itemset::from([1u32, 3]),
            Itemset::from([0u32]),
            Itemset::from([4u32]),
            Itemset::from([3u32, 4]),
            Itemset::from([1u32, 2, 3]),
            Itemset::empty(),
        ] {
            assert_eq!(fs.support(&absent), None, "{absent}");
            assert!(!fs.contains(&absent), "{absent}");
        }
        assert_eq!(FrequentSets::new().support(&[1u32].into()), None);
    }

    #[test]
    fn truncate_drops_lookups_too() {
        let mut fs = sample();
        let full = fs.approx_bytes();
        fs.truncate(1);
        assert_eq!(fs.n_levels(), 1);
        assert!(!fs.contains(&[1u32, 2].into()));
        assert_eq!(fs.support(&[1u32].into()), Some(5));
        assert_eq!(fs.total(), 3);
        assert!(fs.approx_bytes() < full);
        // Truncating above the top level is a no-op; to zero empties it.
        fs.truncate(5);
        assert_eq!(fs.n_levels(), 1);
        fs.truncate(0);
        assert_eq!(fs.total(), 0);
        assert_eq!(fs.approx_bytes(), FrequentSets::new().approx_bytes());
    }

    #[test]
    fn take_level_keeps_the_levels_above_in_place() {
        let mut fs = sample();
        assert_eq!(fs.take_level(1).len(), 3);
        assert_eq!((fs.n_levels(), fs.total()), (2, 2));
        assert!(fs.level(1).is_empty());
        assert_eq!(fs.support(&[1u32, 2].into()), Some(3));
        assert!(fs.take_level(0).is_empty() && fs.take_level(3).is_empty());
    }

    #[test]
    fn approx_bytes_charges_each_set_once() {
        // Small sets live inside their level entry: the charge is the
        // entries plus one allocation per level, nothing per set.
        let fs = sample();
        let entry = std::mem::size_of::<(Itemset, u64)>();
        let per_level = std::mem::size_of::<Vec<(Itemset, u64)>>() + ALLOC_SLACK;
        let charged = fs.approx_bytes() - FrequentSets::new().approx_bytes();
        assert_eq!(charged, fs.total() * entry + fs.n_levels() * per_level);
        // A set past the inline capacity adds its own heap block.
        let mut deep = FrequentSets::new();
        for k in 1..=6u32 {
            deep.push_level(vec![((0..k).collect(), 1)]);
        }
        let charged = deep.approx_bytes() - FrequentSets::new().approx_bytes();
        assert_eq!(charged, 6 * (entry + per_level) + 6 * 4 + ALLOC_SLACK);
    }
}

impl FrequentSets {
    /// The *maximal* frequent sets: those with no frequent proper superset
    /// (Bayardo's long-pattern representation, the paper's citation \[3\]).
    /// The downward closure of the maximal sets regenerates the full
    /// collection (without supports).
    pub fn maximal(&self) -> Vec<Itemset> {
        let mut out = Vec::new();
        for k in 1..=self.n_levels() {
            let next: &[(Itemset, u64)] = self.level(k + 1);
            for (s, _) in self.level(k) {
                let has_super = next.iter().any(|(sup, _)| s.is_subset_of(sup));
                if !has_super {
                    out.push(s.clone());
                }
            }
        }
        out
    }

    /// The *closed* frequent sets: those with no frequent proper superset of
    /// the **same support** (Pasquier et al.'s lossless condensation — the
    /// closed sets plus their supports determine every frequent set's
    /// support).
    pub fn closed(&self) -> Vec<(Itemset, u64)> {
        let mut out = Vec::new();
        for k in 1..=self.n_levels() {
            let next: &[(Itemset, u64)] = self.level(k + 1);
            for (s, sup) in self.level(k) {
                let absorbed = next
                    .iter()
                    .any(|(bigger, bsup)| bsup == sup && s.is_subset_of(bigger));
                if !absorbed {
                    out.push((s.clone(), *sup));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod condensation_tests {
    use super::*;

    /// L1: {1}:5 {2}:4 {3}:3 — L2: {1,2}:4 {2,3}:2.
    fn sample() -> FrequentSets {
        let mut fs = FrequentSets::new();
        fs.push_level(vec![
            ([1u32].into(), 5),
            ([2u32].into(), 4),
            ([3u32].into(), 3),
        ]);
        fs.push_level(vec![([1u32, 2].into(), 4), ([2u32, 3].into(), 2)]);
        fs
    }

    #[test]
    fn maximal_sets() {
        let fs = sample();
        let max = fs.maximal();
        // {3} is maximal? No: {2,3} ⊇ {3} is frequent. {1},{2} absorbed by
        // {1,2}. Maximal = {1,2}, {2,3}.
        assert_eq!(max, vec![Itemset::from([1u32, 2]), Itemset::from([2u32, 3])]);
    }

    #[test]
    fn closed_sets() {
        let fs = sample();
        let closed = fs.closed();
        // {2} (sup 4) is absorbed by {1,2} (sup 4); {1} (5) and {3} (3)
        // survive; both 2-sets survive.
        let names: Vec<Itemset> = closed.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(
            names,
            vec![
                Itemset::from([1u32]),
                Itemset::from([3u32]),
                Itemset::from([1u32, 2]),
                Itemset::from([2u32, 3]),
            ]
        );
    }

    #[test]
    fn downward_closure_of_maximal_covers_everything() {
        let fs = sample();
        let max = fs.maximal();
        for (s, _) in fs.iter() {
            assert!(
                max.iter().any(|m| s.is_subset_of(m)),
                "{s} not covered by any maximal set"
            );
        }
    }

    #[test]
    fn closed_preserve_support_information() {
        // Every frequent set's support equals the max support among closed
        // supersets... (min support among closed supersets is the set's
        // support; actually it is the MAX support of closed sets containing
        // it). Verify the reconstruction property.
        let fs = sample();
        let closed = fs.closed();
        for (s, sup) in fs.iter() {
            let reconstructed = closed
                .iter()
                .filter(|(c, _)| s.is_subset_of(c))
                .map(|&(_, csup)| csup)
                .max()
                .expect("every frequent set has a closed superset");
            assert_eq!(reconstructed, sup, "support reconstruction failed for {s}");
        }
    }
}
