//! Iterative pruning with `J^k_max` (§5.2, Figures 5–6).
//!
//! For constraints like `sum(S.A) ≤ sum(T.B)` no quasi-succinct reduction
//! exists. Instead, from the frequent T-sets of each size `k` we derive a
//! shrinking series of upper bounds `V²
//! ≥ V³ ≥ …` on `max { sum(T.B) | T frequent }`, and prune candidate
//! S-sets with `sum(CS.A) > V^k` — an anti-monotone condition on
//! non-negative domains, so it composes with Apriori-style generation.
//!
//! * **Figure 5**: for each element `t_i` of `L_k` (the elements of the
//!   frequent k-sets), `N_i^k` counts the frequent k-sets containing `t_i`.
//!   For `t_i` to appear in *some* frequent set of size `k + j`, it must
//!   appear in at least `C(k+j-1, k-1)` frequent k-sets; `J_i^k` is the
//!   largest `j` passing that test, and `J^k_max = max_i J_i^k` bounds how
//!   much any frequent set can still grow.
//! * **Figure 6**: `Sum_i^k` is the best `sum(T.B)` among frequent k-sets
//!   containing `t_i`; adding the `J^k_max` largest co-occurring other
//!   elements bounds any frequent superset's sum; `V^k` is the max over
//!   `i`.

use cfq_types::{Catalog, FxHashMap, Itemset};
use cfq_types::{AttrId, ItemId};

/// Binomial coefficient with saturation (the comparison only needs
/// "≥ N_i^k", so saturating at `u64::MAX` is safe).
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        // result *= (n - i); result /= (i + 1)  — keep exact by dividing
        // the running product (always divisible).
        match result.checked_mul(n - i) {
            Some(r) => result = r / (i + 1),
            None => return u64::MAX,
        }
    }
    result
}

/// The per-level `J` statistics of Figure 5.
#[derive(Clone, Debug)]
pub struct JStats {
    /// The level the statistics were computed from.
    pub k: usize,
    /// `J^k_max`: no frequent set of size > `k + j_max` exists.
    pub j_max: u64,
    /// Per-element `(t_i, N_i^k, J_i^k)`, ascending by item.
    pub per_element: Vec<(ItemId, u64, u64)>,
}

/// Computes Figure 5 from the frequent k-sets. Returns `None` when the
/// level is empty (no bound derivable).
pub fn j_stats(level_sets: &[Itemset], k: usize) -> Option<JStats> {
    if level_sets.is_empty() {
        return None;
    }
    debug_assert!(level_sets.iter().all(|s| s.len() == k));
    let mut counts: FxHashMap<ItemId, u64> = FxHashMap::default();
    for s in level_sets {
        for i in s.iter() {
            *counts.entry(i).or_insert(0) += 1;
        }
    }
    let mut per_element: Vec<(ItemId, u64, u64)> = counts
        .into_iter()
        .map(|(item, n)| (item, n, largest_j(n, k as u64)))
        .collect();
    per_element.sort_unstable_by_key(|&(i, _, _)| i);
    let j_max = per_element.iter().map(|&(_, _, j)| j).max().unwrap_or(0);
    Some(JStats { k, j_max, per_element })
}

/// Largest `j ≥ 0` with `n ≥ C(k+j-1, k-1)` (Equation 1). `j = 0` always
/// qualifies because `C(k-1, k-1) = 1 ≤ n`.
fn largest_j(n: u64, k: u64) -> u64 {
    let mut j = 0u64;
    while binomial(k + j, k - 1) <= n {
        j += 1;
    }
    j
}

/// Computes `V^k` (Figure 6): an upper bound on `sum(T.B)` over all
/// frequent T-sets of size ≥ k, derivable from the frequent k-sets alone.
///
/// Requires a non-negative attribute domain (checked by the caller /
/// optimizer; the bound is meaningless otherwise).
pub fn v_bound(level_sets: &[Itemset], k: usize, attr: AttrId, catalog: &Catalog) -> Option<f64> {
    let stats = j_stats(level_sets, k)?;
    let j_max = stats.j_max as usize;

    // For each element: best sum among frequent k-sets containing it, plus
    // the co-occurring element universe.
    let mut best_sum: FxHashMap<ItemId, f64> = FxHashMap::default();
    let mut co: FxHashMap<ItemId, Vec<ItemId>> = FxHashMap::default();
    let mut best_set: FxHashMap<ItemId, usize> = FxHashMap::default();
    for (si, s) in level_sets.iter().enumerate() {
        let sum = catalog.sum_num(attr, s);
        for i in s.iter() {
            let cur = best_sum.entry(i).or_insert(f64::NEG_INFINITY);
            if sum > *cur {
                *cur = sum;
                best_set.insert(i, si);
            }
            co.entry(i).or_default().extend(s.iter().filter(|&x| x != i));
        }
    }

    let mut v = f64::NEG_INFINITY;
    for (i, sum) in &best_sum {
        let t_best = &level_sets[best_set[i]];
        // E_i^k: co-occurring elements not in the best set, deduplicated.
        let mut e: Vec<ItemId> = co[i].iter().copied().filter(|&x| !t_best.contains(x)).collect();
        e.sort_unstable();
        e.dedup();
        // Descending by attribute value; take the top J^k_max.
        e.sort_by(|&a, &b| {
            catalog.num(attr, b).total_cmp(&catalog.num(attr, a))
        });
        let extra: f64 = e.iter().take(j_max).map(|&x| catalog.num(attr, x)).sum();
        v = v.max(sum + extra);
    }
    (v > f64::NEG_INFINITY).then_some(v)
}

/// What a bound series measures over the source lattice's frequent sets —
/// and with it which bound covers the sets still to come.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Measure {
    /// `sum(T.B)`, bounded by [`v_bound`] (Figure 6). Needs a non-negative
    /// domain for `B`.
    Sum(AttrId),
    /// `count(distinct T.B)` (`count(T)` for `None`), bounded by
    /// [`count_bound`] — the 2-var count extension.
    Count(Option<AttrId>),
}

impl Measure {
    fn of(self, set: &Itemset, catalog: &Catalog) -> f64 {
        match self {
            Measure::Sum(attr) => catalog.sum_num(attr, set),
            Measure::Count(attr) => catalog.count_distinct(attr, set) as f64,
        }
    }

    /// The bound over frequent sets of size ≥ k, from the frequent k-sets.
    fn bound(self, level_sets: &[Itemset], k: usize, catalog: &Catalog) -> Option<f64> {
        match self {
            Measure::Sum(attr) => v_bound(level_sets, k, attr, catalog),
            Measure::Count(attr) => count_bound(level_sets, k, attr, catalog).map(|b| b as f64),
        }
    }
}

/// The evolving bound state the executor keeps per `J^k_max` task: an upper
/// bound on a [`Measure`] over every frequent set of the source lattice.
///
/// One subtlety the paper's Lemma 6 glosses over: `V^k` (Figure 6) bounds
/// `sum(T.B)` only over frequent sets **of size ≥ k** — a small frequent
/// set that never extends to size `k` (its elements may not even appear in
/// `L_k`) can out-sum every deep set, and a naive running minimum of the
/// `V^k` series would undercut it, wrongly pruning its valid S partners.
/// The series therefore tracks two components and reports their maximum:
///
/// * `materialized_max` — the *exact* maximum over frequent sets already
///   absorbed (levels 1..k), which needs no bounding;
/// * `future` — the latest bound, covering every frequent set of size > k
///   still to come.
///
/// The combined bound is clamped to be non-increasing (each previous value
/// was itself a sound bound on everything, seen and unseen — Lemma 7's
/// monotonicity, made robust). Counts are small integers, exact in `f64`,
/// so one series drives `sum(..) ≤ v` and `count(..) ≤ c` conditions alike.
#[derive(Clone, Debug)]
pub struct BoundSeries {
    measure: Measure,
    materialized_max: f64,
    future: f64,
    current: f64,
    history: Vec<(usize, f64)>,
}

impl BoundSeries {
    /// Initializes from the level-1 frequent items of the source lattice:
    /// every frequent set is a subset of `L1`, so the measure of `L1`
    /// itself bounds them all (`V¹ = Σ_{t ∈ L1} t.B`; the distinct values
    /// of `L1.B`).
    pub fn from_l1(l1: &[ItemId], measure: Measure, catalog: &Catalog) -> BoundSeries {
        let all: Itemset = l1.iter().copied().collect();
        let v1 = measure.of(&all, catalog);
        let materialized_max = l1
            .iter()
            .map(|&i| measure.of(&Itemset::singleton(i), catalog))
            .fold(0.0f64, f64::max);
        BoundSeries { measure, materialized_max, future: v1, current: v1, history: vec![(1, v1)] }
    }

    /// Absorbs the frequent k-sets of the source lattice: records their
    /// exact measures as materialized and refreshes the future bound.
    pub fn update(&mut self, level_sets: &[Itemset], k: usize, catalog: &Catalog) {
        for s in level_sets {
            self.materialized_max = self.materialized_max.max(self.measure.of(s, catalog));
        }
        if let Some(v) = self.measure.bound(level_sets, k, catalog) {
            self.future = v;
        } else if level_sets.is_empty() {
            // The source lattice produced nothing at this level: no
            // frequent set of size ≥ k exists, the future is empty.
            self.future = self.materialized_max;
        }
        self.current = self.materialized_max.max(self.future).min(self.current);
        self.history.push((k, self.current));
    }

    /// The current upper bound over *all* frequent source sets
    /// (materialized and future).
    pub fn current(&self) -> f64 {
        self.current
    }

    /// `(k, bound)` pairs recorded so far (non-increasing).
    pub fn history(&self) -> &[(usize, f64)] {
        &self.history
    }
}

/// A refinement of Figure 6 the paper leaves on the table: instead of the
/// *global* `J^k_max`, use each element's own `J_i^k` when bounding the
/// frequent supersets containing `t_i` — a frequent set containing `t_i`
/// has size at most `k + J_i^k`, so only `J_i^k` extra elements can join.
/// Always ≤ [`v_bound`] and sound by the same argument (ablation:
/// `repro ablations`).
pub fn v_bound_per_element(
    level_sets: &[Itemset],
    k: usize,
    attr: AttrId,
    catalog: &Catalog,
) -> Option<f64> {
    let stats = j_stats(level_sets, k)?;
    let j_of: FxHashMap<ItemId, u64> =
        stats.per_element.iter().map(|&(i, _, j)| (i, j)).collect();

    let mut best_sum: FxHashMap<ItemId, f64> = FxHashMap::default();
    let mut co: FxHashMap<ItemId, Vec<ItemId>> = FxHashMap::default();
    let mut best_set: FxHashMap<ItemId, usize> = FxHashMap::default();
    for (si, s) in level_sets.iter().enumerate() {
        let sum = catalog.sum_num(attr, s);
        for i in s.iter() {
            let cur = best_sum.entry(i).or_insert(f64::NEG_INFINITY);
            if sum > *cur {
                *cur = sum;
                best_set.insert(i, si);
            }
            co.entry(i).or_default().extend(s.iter().filter(|&x| x != i));
        }
    }
    let mut v = f64::NEG_INFINITY;
    for (i, sum) in &best_sum {
        let t_best = &level_sets[best_set[i]];
        let mut e: Vec<ItemId> =
            co[i].iter().copied().filter(|&x| !t_best.contains(x)).collect();
        e.sort_unstable();
        e.dedup();
        e.sort_by(|&a, &b| catalog.num(attr, b).total_cmp(&catalog.num(attr, a)));
        let j_i = j_of[i] as usize;
        let extra: f64 = e.iter().take(j_i).map(|&x| catalog.num(attr, x)).sum();
        v = v.max(sum + extra);
    }
    (v > f64::NEG_INFINITY).then_some(v)
}

/// The count analogue of [`v_bound`], for the 2-var class-constraint
/// extension `count(S.A) ≤ count(T.B)`: an upper bound on
/// `count(distinct T.B)` over frequent T-sets of size ≥ k. Every element
/// beyond size k adds at most one distinct value, so
/// `max_k count + J^k_max` bounds all frequent supersets.
pub fn count_bound(
    level_sets: &[Itemset],
    k: usize,
    attr: Option<AttrId>,
    catalog: &Catalog,
) -> Option<u64> {
    let stats = j_stats(level_sets, k)?;
    let max_count = level_sets
        .iter()
        .map(|s| catalog.count_distinct(attr, s) as u64)
        .max()?;
    Some(max_count + stats.j_max)
}

#[cfg(test)]
mod count_bound_tests {
    use super::*;
    use cfq_types::CatalogBuilder;

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(6);
        b.cat_attr("Type", &["a", "a", "b", "b", "c", "c"]).unwrap();
        b.build()
    }

    #[test]
    fn count_bound_covers_true_max() {
        let cat = catalog();
        let ty = cat.attr("Type");
        // Downward-closed family: subsets of {0,2,4} (types a,b,c) and of
        // {1,3} (types a,b).
        let fam1: Itemset = [0u32, 2, 4].into();
        let fam2: Itemset = [1u32, 3].into();
        let mut frequent = fam1.all_nonempty_subsets();
        frequent.extend(fam2.all_nonempty_subsets());
        for k in 2..=3usize {
            let level: Vec<Itemset> =
                frequent.iter().filter(|s| s.len() == k).cloned().collect();
            if level.is_empty() {
                continue;
            }
            let b = count_bound(&level, k, ty, &cat).unwrap();
            let true_max = frequent
                .iter()
                .filter(|s| s.len() >= k)
                .map(|s| cat.count_distinct(ty, s) as u64)
                .max()
                .unwrap();
            assert!(b >= true_max, "count bound {b} below true max {true_max} at k={k}");
        }
    }

    #[test]
    fn bare_variable_counts_items() {
        let cat = catalog();
        let fam: Itemset = [0u32, 1, 2].into();
        let frequent = fam.all_nonempty_subsets();
        let level: Vec<Itemset> = frequent.iter().filter(|s| s.len() == 2).cloned().collect();
        let b = count_bound(&level, 2, None, &cat).unwrap();
        assert!(b >= 3, "must allow the size-3 maximal set, got {b}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_types::CatalogBuilder;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(4, 7), 0);
        assert_eq!(binomial(100, 50), u64::MAX); // saturates
    }

    /// The paper's worked example: N₁⁴ = 17 frequent 4-sets containing t₁.
    /// C(6,3) = 20 > 17, so no frequent 7-set: J₁⁴ = 2.
    #[test]
    fn paper_equation1_example() {
        assert_eq!(largest_j(17, 4), 2);
        // 20 sets would allow size 7 (J = 3): C(6,3) = 20 ≤ 20, C(7,3) = 35 > 20.
        assert_eq!(largest_j(20, 4), 3);
        // A single set: J = ... C(k+j-1, k-1) ≤ 1 only for j = 0 (k ≥ 2).
        assert_eq!(largest_j(1, 4), 0);
    }

    #[test]
    fn j_stats_counts_membership() {
        // Frequent 2-sets: {1,2}, {1,3}, {2,3}, {1,4}.
        let sets: Vec<Itemset> = vec![
            [1u32, 2].into(),
            [1u32, 3].into(),
            [2u32, 3].into(),
            [1u32, 4].into(),
        ];
        let s = j_stats(&sets, 2).unwrap();
        let n_of = |i: u32| s.per_element.iter().find(|&&(x, _, _)| x == ItemId(i)).unwrap().1;
        assert_eq!(n_of(1), 3);
        assert_eq!(n_of(2), 2);
        assert_eq!(n_of(4), 1);
        // N=3, k=2: C(2,1)=2 ≤ 3, C(3,1)=3 ≤ 3, C(4,1)=4 > 3 → J=2.
        assert_eq!(s.j_max, 2);
        assert!(j_stats(&[], 2).is_none());
    }

    /// Lemma 5 (spirit): as k grows on an actual lattice, J^k_max does not
    /// allow larger maximal sets than what lower levels allowed.
    #[test]
    fn j_bound_is_sound_on_real_lattice() {
        // Universe {0..5}; "frequent" = all subsets of {0,1,2,3} (max size 4).
        let all: Itemset = (0u32..4).collect();
        for k in 2..=3usize {
            let level: Vec<Itemset> = all.subsets_of_size(k).collect();
            let s = j_stats(&level, k).unwrap();
            assert!(
                (k as u64 + s.j_max) >= 4,
                "bound k+J = {} must not be below the true max size 4",
                k as u64 + s.j_max
            );
        }
    }

    /// The paper's Figure 6 walk-through: t₁..t₁₀₀ with tᵢ.B = i; the best
    /// frequent 4-set containing t₁₀₀ is {t₁₀, t₅₀, t₈₀, t₁₀₀} (Sum = 240);
    /// J⁴max = 2; the top-2 co-occurring elements outside it are t₉₀ and
    /// t₇₀ → MaxSum = 240 + 90 + 70 = 400.
    #[test]
    fn paper_figure6_example() {
        let n = 101;
        let mut b = CatalogBuilder::new(n);
        b.num_attr("B", (0..n).map(|i| i as f64).collect()).unwrap();
        let cat = b.build();
        let attr = cat.attr("B").unwrap();
        // Frequent 4-sets: the best set for t100 is {t10, t50, t80, t100}
        // (Sum 240); t90 and t70 co-occur with t100 in cheaper sets; 14
        // further cheap sets bring N₁₀₀ to 17 so that J₁₀₀ = 2 as in the
        // paper's running example.
        let mut sets: Vec<Itemset> = vec![
            [10u32, 50, 80, 100].into(), // Sum 240 ← best for t100
            [2u32, 3, 90, 100].into(),   // Sum 195; brings t90 into E₁₀₀
            [4u32, 5, 70, 100].into(),   // Sum 179; brings t70 into E₁₀₀
        ];
        for extra in 0..14u32 {
            // Kept below item 54 so t90/t70 stay the top co-occurring
            // B-values outside the best set.
            sets.push([6 + extra, 20 + extra, 40 + extra, 100].into());
        }
        let s = j_stats(&sets, 4).unwrap();
        let (_, n100, j100) =
            *s.per_element.iter().find(|&&(x, _, _)| x == ItemId(100)).unwrap();
        assert_eq!(n100, 17);
        assert_eq!(j100, 2);
        assert_eq!(s.j_max, 2, "t100 must dominate J in this construction");
        // MaxSum for t100 = 240 + 90 + 70 = 400 (the paper's number), and
        // by construction every other element's MaxSum stays below it.
        let v = v_bound(&sets, 4, attr, &cat).unwrap();
        assert_eq!(v, 400.0);
    }

    /// Soundness: V^k upper-bounds sum over all "frequent" sets of size ≥ k
    /// in a downward-closed family.
    #[test]
    fn v_bound_soundness_brute_force() {
        let n = 8usize;
        let mut b = CatalogBuilder::new(n);
        b.num_attr("B", vec![3.0, 7.0, 1.0, 9.0, 4.0, 6.0, 2.0, 8.0]).unwrap();
        let cat = b.build();
        let attr = cat.attr("B").unwrap();
        // Downward-closed family: all subsets of {0,1,3,5,7} plus all
        // subsets of {2,4,6}.
        let fam1: Itemset = [0u32, 1, 3, 5, 7].into();
        let fam2: Itemset = [2u32, 4, 6].into();
        let mut frequent: Vec<Itemset> = fam1.all_nonempty_subsets();
        frequent.extend(fam2.all_nonempty_subsets());
        frequent.sort();
        frequent.dedup();
        for k in 2..=4usize {
            let level: Vec<Itemset> = frequent.iter().filter(|s| s.len() == k).cloned().collect();
            if level.is_empty() {
                continue;
            }
            let v = v_bound(&level, k, attr, &cat).unwrap();
            let true_max = frequent
                .iter()
                .filter(|s| s.len() >= k)
                .map(|s| cat.sum_num(attr, s))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                v >= true_max - 1e-9,
                "V^{k} = {v} below true max {true_max}"
            );
        }
    }
}

#[cfg(test)]
mod series_tests {
    use super::*;
    use cfq_types::CatalogBuilder;

    /// Walks a series from `L1 = {0..n_items}` through levels `2..=depth`
    /// of the downward-closed family under `maximal`. At every level it
    /// must not rise (Lemma 7) and must not drop below the true maximum of
    /// the measure over the whole family — small sets included.
    fn walk(
        measure: Measure,
        cat: &Catalog,
        n_items: u32,
        maximal: &[Itemset],
        depth: usize,
    ) -> BoundSeries {
        let frequent: Vec<Itemset> =
            maximal.iter().flat_map(|m| m.all_nonempty_subsets()).collect();
        let true_max =
            frequent.iter().map(|s| measure.of(s, cat)).fold(f64::NEG_INFINITY, f64::max);
        let l1: Vec<ItemId> = (0..n_items).map(ItemId).collect();
        let mut series = BoundSeries::from_l1(&l1, measure, cat);
        let mut last = series.current();
        for k in 2..=depth {
            let level: Vec<Itemset> =
                frequent.iter().filter(|s| s.len() == k).cloned().collect();
            series.update(&level, k, cat);
            assert!(series.current() <= last + 1e-12, "series rose at k={k}");
            assert!(
                series.current() >= true_max,
                "series dropped to {} at k={k}, below the family's {true_max}",
                series.current()
            );
            last = series.current();
        }
        assert_eq!(series.history().len(), depth);
        series
    }

    fn priced(prices: Vec<f64>) -> (Catalog, Measure) {
        let mut b = CatalogBuilder::new(prices.len());
        b.num_attr("B", prices).unwrap();
        let cat = b.build();
        let attr = cat.attr("B").unwrap();
        (cat, Measure::Sum(attr))
    }

    /// Lemma 7: the sum series is non-increasing.
    #[test]
    fn v_series_monotone() {
        let (cat, sum) = priced(vec![3.0, 7.0, 1.0, 9.0, 4.0, 6.0, 2.0, 8.0]);
        walk(sum, &cat, 8, &[[0u32, 1, 3, 5, 7].into()], 5);
    }

    /// A frequent *small* T-set can out-sum every deep frequent T-set. The
    /// series must never drop below its sum, even though `V^k` for large k
    /// only sees the deep (cheap) part of the lattice.
    #[test]
    fn series_never_undercuts_small_heavy_sets() {
        // Items 0,1 heavy (B=100); 2..6 cheap (B=1): the heavy pair's 200
        // is the maximum over P({0,1}) ∪ P({2,3,4,5,6}).
        let (cat, sum) = priced(vec![100.0, 100.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let series = walk(sum, &cat, 7, &[[0u32, 1].into(), (2u32..7).collect()], 5);
        assert!(series.current() >= 200.0);
    }

    #[test]
    fn count_series_sound_and_monotone() {
        let mut b = CatalogBuilder::new(6);
        b.cat_attr("Type", &["a", "a", "b", "b", "c", "c"]).unwrap();
        let cat = b.build();
        // The true max count over all frequent sets is 3 ({0,2,4}).
        let series = walk(Measure::Count(cat.attr("Type")), &cat, 6, &[[0u32, 2, 4].into()], 4);
        assert_eq!(series.history()[0], (1, 3.0)); // 3 distinct types in L1
        assert!(series.current() >= 3.0);
    }
}

#[cfg(test)]
mod per_element_tests {
    use super::*;
    use cfq_types::CatalogBuilder;

    fn family(cat_n: usize, masks: &[u32]) -> Vec<Itemset> {
        let mut out = Vec::new();
        for &mask in masks {
            let m: Itemset = (0..cat_n as u32).filter(|i| mask & (1 << i) != 0).collect();
            out.extend(m.all_nonempty_subsets());
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn per_element_is_tighter_and_sound() {
        let n = 8;
        let mut b = CatalogBuilder::new(n);
        b.num_attr("B", vec![3.0, 7.0, 1.0, 9.0, 4.0, 6.0, 2.0, 8.0]).unwrap();
        let cat = b.build();
        let attr = cat.attr("B").unwrap();
        let frequent = family(n, &[0b1010_1011, 0b0101_0100]);
        for k in 2..=4usize {
            let level: Vec<Itemset> =
                frequent.iter().filter(|s| s.len() == k).cloned().collect();
            if level.is_empty() {
                continue;
            }
            let global = v_bound(&level, k, attr, &cat).unwrap();
            let refined = v_bound_per_element(&level, k, attr, &cat).unwrap();
            assert!(refined <= global + 1e-9, "refined {refined} > global {global}");
            let true_max = frequent
                .iter()
                .filter(|s| s.len() >= k)
                .map(|s| cat.sum_num(attr, s))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(refined >= true_max - 1e-9, "refined bound {refined} below {true_max}");
        }
    }
}
