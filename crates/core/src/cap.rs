//! The CAP lattice engine: a steppable, constraint-pushing levelwise run.
//!
//! One [`LatticeRun`] computes the frequent valid sets of one variable. The
//! four CAP strategies of \[15\] are realized as:
//!
//! * **Strategy I** (succinct + anti-monotone, e.g. `max(S.A) ≤ v`,
//!   `S.A ⊆ V`): the item universe is restricted to the `allowed` filter of
//!   the compiled [`SuccinctForm`]; nothing else changes.
//! * **Strategy II** (succinct, not anti-monotone, e.g. `min(S.A) ≤ v`):
//!   one required group `R` is pushed natively. Items are *re-ranked* so
//!   that `R` comes first; candidates are generated only with their first
//!   (lowest-rank) item in `R`, and the subset prune consults only subsets
//!   that themselves contain an `R` item (the validity oracle). With
//!   `R`-first ordering, both join parents of a valid k-set (k ≥ 3) keep
//!   the leading `R` item, so the prefix join remains complete while only
//!   valid sets are ever counted. Further required groups are enforced on
//!   output only (sound and complete, just less pruning) — the paper's
//!   experiments never need more than one group per variable.
//! * **Strategy III** (anti-monotone, not succinct, e.g. `sum(S.A) ≤ v` on
//!   non-negative domains): candidates failing the residual check are
//!   dropped before counting; anti-monotonicity makes this safe.
//! * **Strategy IV** (neither, e.g. `avg`): checked on output only (post
//!   filters), with any sound weaker constraint pushed by the form.
//!
//! The run is *steppable* — `next_candidates` / `absorb_counts` — so the
//! optimizer can dovetail two lattices over shared database scans and
//! inject quasi-succinct reductions after level 1 and `J^k_max` bounds
//! between levels (§5.2). Level 2 has a second protocol,
//! `next_pair_items` / `absorb_pair_counts`: its candidates are implicit
//! in `L1`, so the run names the items and reads the pair supports out of
//! a triangle instead of building the candidate list.

use cfq_constraints::{OneVar, SuccinctForm, Var};
use cfq_mining::{generate_candidates, FrequentSets, PairCounts, WorkStats};
use cfq_types::{Catalog, ItemBits, ItemId, Itemset};
use std::time::Instant;

/// Static configuration of one lattice.
#[derive(Clone, Debug)]
pub struct LatticeConfig {
    /// Which variable this lattice computes.
    pub var: Var,
    /// The variable's item domain (ascending).
    pub universe: Vec<ItemId>,
    /// Absolute minimum support.
    pub min_support: u64,
    /// Hard level cap (0 = unbounded).
    pub max_level: usize,
}

/// A steppable CAP lattice computation.
pub struct LatticeRun<'a> {
    cfg: LatticeConfig,
    catalog: &'a Catalog,
    form: SuccinctForm,
    /// Universe after `allowed` filtering.
    universe_eff: Vec<ItemId>,
    /// Membership in `universe_eff` of the items the catalog describes,
    /// rebuilt whenever it is set.
    in_catalog_universe: ItemBits,
    /// The natively pushed required group (ascending item ids).
    pushed_group: Option<Vec<ItemId>>,
    /// Item → rank (dense, `u32::MAX` = not in universe). Built lazily
    /// before level-2 generation so post-level-1 induced constraints can
    /// still choose the group.
    rank_of: Option<Vec<u32>>,
    item_of: Vec<ItemId>,
    /// Frequent sets per level in *rank* space (each level sorted).
    rank_levels: Vec<Vec<Itemset>>,
    /// Frequent sets in original item space (the public result).
    frequent: FrequentSets,
    /// Candidates awaiting counts.
    pending: Option<Pending>,
    /// When the pending level's candidate generation began; the level's
    /// `micros` run from here to the end of [`Self::absorb_counts`].
    level_started: Instant,
    /// Extra anti-monotone conditions injected between levels (J^k_max).
    extra_am: Vec<OneVar>,
    /// Levels completed.
    level: usize,
    done: bool,
    stats: WorkStats,
    /// When enabled, every counted set (levels ≥ 2) is logged for audits.
    counted_log: Option<Vec<Itemset>>,
}

/// The candidates of the level being counted.
enum Pending {
    /// Materialised: aligned (orig-sorted) orig and rank sets.
    Sets(Vec<Itemset>, Vec<Itemset>),
    /// Level 2, implicit in `L1`.
    Pairs(PairLevel),
}

/// Level 2's candidates without a candidate list.
struct PairLevel {
    /// The `L1` items occurring in at least one candidate pair, ascending.
    items: Vec<ItemId>,
    /// Whether the pair of positions `(a, b)`, `a < b`, of `items` is a
    /// candidate, pairs in lexicographic order; empty when every pair is.
    admitted: Vec<bool>,
    n_candidates: u64,
}

impl PairLevel {
    /// Calls `f(a, b)` for every candidate pair, positions `a < b` of
    /// `items`, in lexicographic order.
    fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        let mut cell = 0usize;
        for a in 0..self.items.len() {
            for b in a + 1..self.items.len() {
                if self.admitted.is_empty() || self.admitted[cell] {
                    f(a, b);
                }
                cell += 1;
            }
        }
    }
}

impl<'a> LatticeRun<'a> {
    /// Creates a run with the compiled 1-var form.
    pub fn new(cfg: LatticeConfig, form: SuccinctForm, catalog: &'a Catalog) -> Self {
        let universe_eff = form.filter_universe(&cfg.universe);
        LatticeRun {
            in_catalog_universe: ItemBits::new(&universe_eff, catalog.n_items()),
            cfg,
            catalog,
            form,
            universe_eff,
            pushed_group: None,
            rank_of: None,
            item_of: Vec::new(),
            rank_levels: Vec::new(),
            frequent: FrequentSets::new(),
            pending: None,
            level_started: Instant::now(),
            extra_am: Vec::new(),
            level: 0,
            done: false,
            stats: WorkStats::new(),
            counted_log: None,
        }
    }

    /// Enables the counted-set audit log (ccc-optimality checking).
    pub fn enable_audit_log(&mut self) {
        self.counted_log = Some(Vec::new());
    }

    /// The audit log, if enabled.
    pub fn counted_log(&self) -> Option<&[Itemset]> {
        self.counted_log.as_deref()
    }

    /// The variable this lattice computes.
    pub fn var(&self) -> Var {
        self.cfg.var
    }

    /// Whether the run has exhausted its lattice.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Levels completed so far.
    pub fn levels_done(&self) -> usize {
        self.level
    }

    /// Work statistics (scans are recorded by the executor, since they may
    /// be shared between lattices).
    pub fn stats(&self) -> &WorkStats {
        &self.stats
    }

    /// Mutable statistics access for the executor.
    pub fn stats_mut(&mut self) -> &mut WorkStats {
        &mut self.stats
    }

    /// The frequent sets found so far (original item space). Level 1 holds
    /// *all* frequent singletons of the effective universe — including ones
    /// that do not satisfy required groups — because they feed both the
    /// joins and the `L1` summaries of quasi-succinct reduction.
    pub fn frequent(&self) -> &FrequentSets {
        &self.frequent
    }

    /// `L1` — the frequent singleton items (for reduction constants).
    pub fn l1_items(&self) -> Vec<ItemId> {
        self.frequent.elements(1)
    }

    /// The compiled constraint form currently in force.
    pub fn form(&self) -> &SuccinctForm {
        &self.form
    }

    /// Injects additional 1-var conditions (quasi-succinct reductions).
    ///
    /// Must be called after level 1 has been absorbed and before level-2
    /// candidates are requested — the paper's point that reduction happens
    /// "immediately after the first iteration of counting". Conditions
    /// recompile the form; the effective universe shrinks accordingly.
    ///
    /// # Panics
    /// If called after level-2 generation has begun.
    pub fn push_conditions(&mut self, conds: &[OneVar]) {
        assert!(
            self.level <= 1 && self.rank_of.is_none() && self.pending.is_none(),
            "induced conditions must arrive right after level 1"
        );
        for c in conds {
            debug_assert_eq!(c.var(), self.cfg.var, "condition for the wrong variable");
            self.form.add(c, self.catalog);
        }
        self.form.normalize();
        self.universe_eff = self.form.filter_universe(&self.cfg.universe);
        self.in_catalog_universe = ItemBits::new(&self.universe_eff, self.catalog.n_items());
    }

    /// Injects/replaces the extra anti-monotone conditions applied to
    /// candidates from the next level on (`J^k_max`'s `sum(CS.A) ≤ V^k`).
    pub fn set_extra_am(&mut self, conds: Vec<OneVar>) {
        self.extra_am = conds;
    }

    /// Opens the next level: `false` (and the run is done) when the level
    /// cap has been reached.
    fn begin_level(&mut self) -> bool {
        assert!(self.pending.is_none(), "absorb the pending level first");
        self.level_started = Instant::now();
        if self.cfg.max_level != 0 && self.level >= self.cfg.max_level {
            self.done = true;
        }
        !self.done
    }

    /// Produces the next level's candidates (original item space, sorted),
    /// or an empty vector when the lattice is exhausted. The caller counts
    /// them (possibly in a scan shared with another lattice) and hands the
    /// supports back via [`Self::absorb_counts`].
    pub fn next_candidates(&mut self) -> Vec<Itemset> {
        if self.done || !self.begin_level() {
            return Vec::new();
        }

        if self.level == 0 {
            // Nothing to count: finish here, with no batch left pending —
            // the caller counts and absorbs non-empty batches only.
            if self.form.unsatisfiable() || self.universe_eff.is_empty() {
                self.done = true;
                return Vec::new();
            }
            let orig: Vec<Itemset> =
                self.universe_eff.iter().map(|&i| Itemset::singleton(i)).collect();
            self.pending = Some(Pending::Sets(orig.clone(), Vec::new()));
            return orig;
        }
        if self.level == 1 {
            let Some(pairs) = self.plan_pairs() else {
                return Vec::new();
            };
            let mut orig = Vec::with_capacity(pairs.n_candidates as usize);
            let mut rank = Vec::with_capacity(pairs.n_candidates as usize);
            pairs.for_each(|a, b| {
                orig.push(pair(pairs.items[a], pairs.items[b]));
                rank.push(self.to_rank_pair(pairs.items[a], pairs.items[b]));
            });
            self.pending = Some(Pending::Sets(orig.clone(), rank));
            return orig;
        }

        let prev = &self.rank_levels[self.level - 1];
        if prev.is_empty() {
            self.done = true;
            return Vec::new();
        }
        // With `R`-first ranks both join parents of a valid k-set (k ≥ 3)
        // keep the leading `R` item; the prune asks only about subsets
        // that were themselves counted.
        let group_len = self.pushed_group.as_ref().map(|g| g.len() as u32);
        let oracle = |sub: &Itemset| match group_len {
            None => true,
            Some(g) => sub.as_slice().first().map(|r| r.0 < g).unwrap_or(false),
        };
        let cands_rank = generate_candidates(prev, oracle);

        // Map to original item space and apply the candidate filters.
        let mut paired: Vec<(Itemset, Itemset)> = Vec::with_capacity(cands_rank.len());
        let mut pruned = 0u64;
        for rank_set in cands_rank {
            let orig = self.to_orig(&rank_set);
            if self.admits(&orig) {
                paired.push((orig, rank_set));
            } else {
                pruned += 1;
            }
        }
        self.stats.record_pruned(pruned);
        paired.sort_by(|a, b| a.0.cmp(&b.0));
        let (orig, rank): (Vec<_>, Vec<_>) = paired.into_iter().unzip();
        if orig.is_empty() {
            self.done = true;
            return Vec::new();
        }
        if let Some(log) = &mut self.counted_log {
            log.extend(orig.iter().cloned());
        }
        self.pending = Some(Pending::Sets(orig.clone(), rank));
        orig
    }

    /// Level 2 without a candidate list: the `L1` items that occur in at
    /// least one candidate pair, ascending — empty when the lattice is
    /// exhausted. The caller counts *every* pair of them (in a pass it may
    /// share with another lattice) and hands the triangle back via
    /// [`Self::absorb_pair_counts`]; which pairs were candidates — the
    /// Strategy II leading-`R` rule, the residual and `J^k_max` checks —
    /// stays with the run, and the ledger is charged as if they had been
    /// listed.
    ///
    /// # Panics
    /// Unless exactly level 1 has been absorbed.
    pub fn next_pair_items(&mut self) -> Vec<ItemId> {
        assert!(self.done || self.level == 1, "pair items are level 2's");
        if self.done || !self.begin_level() {
            return Vec::new();
        }
        let Some(pairs) = self.plan_pairs() else {
            return Vec::new();
        };
        let items = pairs.items.clone();
        self.pending = Some(Pending::Pairs(pairs));
        items
    }

    /// Decides level 2: which pairs of `L1` items are candidates. Charges
    /// their constraint checks and the pruned ones, logs the candidates
    /// when the audit log is on, and finishes the run when there are none.
    fn plan_pairs(&mut self) -> Option<PairLevel> {
        self.ensure_ranks();
        let rank_of = self.rank_of.as_ref().expect("ranks exist from level 2 on");
        // `L1` inside the effective universe, ascending by item.
        let l1: Vec<ItemId> = self
            .frequent
            .level(1)
            .iter()
            .map(|(s, _)| s.as_slice()[0])
            .filter(|i| rank_of[i.index()] != u32::MAX)
            .collect();
        let n = l1.len();
        if n == 0 {
            self.done = true;
            return None;
        }
        // With a pushed group only pairs holding one of its items are
        // valid (in rank space: pairs whose leading item lies in `R`).
        let group_len = self.pushed_group.as_ref().map(|g| g.len() as u32);
        let in_group: Vec<bool> =
            l1.iter().map(|i| group_len.is_none_or(|g| rank_of[i.index()] < g)).collect();
        let checked = self.form.residual_am.len() + self.extra_am.len() > 0;

        let pairs = if group_len.is_none() && !checked {
            // Every pair of L1 items is a candidate.
            PairLevel { items: l1, admitted: Vec::new(), n_candidates: (n * (n - 1) / 2) as u64 }
        } else {
            let mut admitted = Vec::with_capacity(n * (n - 1) / 2);
            let mut in_pair = vec![false; n];
            let (mut n_candidates, mut pruned) = (0u64, 0u64);
            for a in 0..n {
                for b in a + 1..n {
                    let ok = (in_group[a] || in_group[b])
                        && (!checked || {
                            let ok = self.admits(&pair(l1[a], l1[b]));
                            pruned += u64::from(!ok);
                            ok
                        });
                    admitted.push(ok);
                    if ok {
                        n_candidates += 1;
                        (in_pair[a], in_pair[b]) = (true, true);
                    }
                }
            }
            self.stats.record_pruned(pruned);
            // Keep only the items, and the cells, of candidate pairs.
            let live: Vec<usize> = (0..n).filter(|&i| in_pair[i]).collect();
            if live.len() < n {
                let cell = |a: usize, b: usize| a * (2 * n - a - 1) / 2 + (b - a - 1);
                admitted = live
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &a)| live[k + 1..].iter().map(move |&b| (a, b)))
                    .map(|(a, b)| admitted[cell(a, b)])
                    .collect();
            }
            PairLevel { items: live.into_iter().map(|i| l1[i]).collect(), admitted, n_candidates }
        };
        if pairs.n_candidates == 0 {
            self.done = true;
            return None;
        }
        if let Some(log) = &mut self.counted_log {
            pairs.for_each(|a, b| log.push(pair(pairs.items[a], pairs.items[b])));
        }
        Some(pairs)
    }

    /// The candidate filters (residual anti-monotone checks, `J^k_max`
    /// bounds) on one generated set, charged to the ledger.
    fn admits(&mut self, orig: &Itemset) -> bool {
        self.stats.record_checks((self.form.residual_am.len() + self.extra_am.len()) as u64);
        self.form.admits_candidate(orig, self.catalog)
            && self.extra_am.iter().all(|c| cfq_constraints::eval_one(c, orig, self.catalog))
    }

    /// Absorbs the supports for the candidates returned by the last
    /// [`Self::next_candidates`] call. The level is recorded with the wall
    /// time since that call began: generation, whatever trimming and
    /// counting the executor did in between, and this absorption. On a
    /// dovetailed scan both lattices' rows include the scan they shared.
    pub fn absorb_counts(&mut self, counts: &[u64]) {
        let Some(Pending::Sets(orig, rank)) = self.pending.take() else {
            panic!("no pending candidate sets");
        };
        assert_eq!(orig.len(), counts.len(), "count vector length mismatch");
        let n_candidates = orig.len() as u64;
        let mut freq_orig: Vec<(Itemset, u64)> = Vec::new();
        let mut freq_rank: Vec<Itemset> = Vec::new();
        for (i, set) in orig.into_iter().enumerate() {
            if counts[i] >= self.cfg.min_support {
                if self.level > 0 {
                    freq_rank.push(rank[i].clone());
                } else {
                    // Rank space does not exist yet; store origs, remapped later.
                    freq_rank.push(set.clone());
                }
                freq_orig.push((set, counts[i]));
            }
        }
        self.finish_level(n_candidates, freq_orig, freq_rank);
    }

    /// Absorbs the pair supports over the items returned by the last
    /// [`Self::next_pair_items`] call, `counts` ranked by position in that
    /// list. Timed like [`Self::absorb_counts`].
    pub fn absorb_pair_counts(&mut self, counts: &PairCounts) {
        let Some(Pending::Pairs(pairs)) = self.pending.take() else {
            panic!("no pending pair level");
        };
        assert_eq!(counts.ranks(), pairs.items.len(), "triangle over the wrong items");
        let mut freq_orig: Vec<(Itemset, u64)> = Vec::new();
        let mut freq_rank: Vec<Itemset> = Vec::new();
        pairs.for_each(|a, b| {
            let n = counts.get(a, b);
            if n >= self.cfg.min_support {
                freq_orig.push((pair(pairs.items[a], pairs.items[b]), n));
                freq_rank.push(self.to_rank_pair(pairs.items[a], pairs.items[b]));
            }
        });
        self.finish_level(pairs.n_candidates, freq_orig, freq_rank);
    }

    /// Records a counted level: its frequent sets in both item spaces
    /// (`freq_orig` sorted) and its row of the ledger.
    fn finish_level(
        &mut self,
        n_candidates: u64,
        freq_orig: Vec<(Itemset, u64)>,
        mut freq_rank: Vec<Itemset>,
    ) {
        freq_rank.sort();
        self.rank_levels.push(freq_rank);
        let n_frequent = freq_orig.len() as u64;
        self.frequent.push_level(freq_orig);
        self.level += 1;
        let micros = self.level_started.elapsed().as_micros() as u64;
        self.stats.record_level_timed(self.level, n_candidates, n_frequent, micros);
        if n_frequent == 0 {
            self.done = true;
        }
    }

    /// The frequent valid sets: frequent sets that lie in the (final)
    /// effective universe, satisfy every required group, pass the residual
    /// anti-monotone checks, and pass the post filters.
    pub fn valid_sets(&self) -> Vec<(Itemset, u64)> {
        self.frequent
            .iter()
            .filter(|(s, _)| self.is_valid_output(s))
            .map(|(s, n)| (s.clone(), n))
            .collect()
    }

    /// Validity test for a single frequent set (see [`Self::valid_sets`]).
    pub fn is_valid_output(&self, s: &Itemset) -> bool {
        s.as_slice().iter().all(|&i| self.in_universe(i))
            && self.form.satisfies_required(s)
            && self.form.admits_candidate(s, self.catalog)
            && self.form.passes_post(s, self.catalog)
    }

    /// Whether `item` is in the effective universe: one bit for an item the
    /// catalog describes, a search for any other (a caller's domain may
    /// name such ids; no bitset is sized by them).
    fn in_universe(&self, item: ItemId) -> bool {
        self.in_catalog_universe.contains(item)
            || (item.index() >= self.catalog.n_items()
                && self.universe_eff.binary_search(&item).is_ok())
    }

    fn ensure_ranks(&mut self) {
        if self.rank_of.is_some() {
            return;
        }
        // Pick the most selective (smallest) required group to push.
        self.pushed_group = self
            .form
            .required_groups
            .iter()
            .find(|g| !g.is_empty() && g.len() < self.universe_eff.len())
            .cloned();

        let n_total = self.catalog.n_items().max(
            self.universe_eff.last().map(|i| i.index() + 1).unwrap_or(0),
        );
        let mut rank_of = vec![u32::MAX; n_total];
        let mut item_of = Vec::with_capacity(self.universe_eff.len());
        match &self.pushed_group {
            Some(group) => {
                for &i in group {
                    rank_of[i.index()] = item_of.len() as u32;
                    item_of.push(i);
                }
                for &i in &self.universe_eff {
                    if rank_of[i.index()] == u32::MAX {
                        rank_of[i.index()] = item_of.len() as u32;
                        item_of.push(i);
                    }
                }
            }
            None => {
                for &i in &self.universe_eff {
                    rank_of[i.index()] = item_of.len() as u32;
                    item_of.push(i);
                }
            }
        }
        self.rank_of = Some(rank_of);
        self.item_of = item_of;

        // Remap the level-1 sets (currently in orig space) into rank space,
        // dropping singletons that fell out of the effective universe.
        if let Some(l1) = self.rank_levels.first_mut() {
            let rank_of = self.rank_of.as_ref().unwrap();
            let mut mapped: Vec<Itemset> = l1
                .iter()
                .filter_map(|s| {
                    let item = s.as_slice()[0];
                    let r = rank_of[item.index()];
                    (r != u32::MAX).then(|| Itemset::singleton(ItemId(r)))
                })
                .collect();
            mapped.sort();
            *l1 = mapped;
        }
    }

    fn to_orig(&self, rank_set: &Itemset) -> Itemset {
        Itemset::from_items(rank_set.iter().map(|r| self.item_of[r.index()]))
    }

    fn to_rank_pair(&self, a: ItemId, b: ItemId) -> Itemset {
        let rank_of = self.rank_of.as_ref().expect("ranks exist from level 2 on");
        pair(ItemId(rank_of[a.index()]), ItemId(rank_of[b.index()]))
    }
}

/// The two-item set, held inline.
fn pair(a: ItemId, b: ItemId) -> Itemset {
    Itemset::singleton(a).with_item(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_mining::{count_supports, Projection, ScanStats, SupportCounter, TrieCounter};
    use cfq_types::{CatalogBuilder, TransactionDb};

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        b.cat_attr("Type", &["A", "B", "A", "C", "B", "C"]).unwrap();
        b.build()
    }

    fn db() -> TransactionDb {
        TransactionDb::from_u32(
            6,
            &[
                &[0, 1, 2, 3],
                &[0, 1, 2],
                &[1, 2, 3, 4],
                &[0, 2, 4],
                &[0, 1, 3, 5],
                &[2, 3, 4, 5],
                &[0, 1, 2, 3, 4],
                &[1, 3, 5],
            ],
        )
    }

    fn run_to_end(run: &mut LatticeRun<'_>, d: &TransactionDb) {
        loop {
            let cands = run.next_candidates();
            if cands.is_empty() {
                break;
            }
            let counts = TrieCounter.count(d, &cands);
            run.stats_mut().record_scan();
            run.absorb_counts(&counts);
        }
    }

    /// Steps a run the way the default executor does: level 2 as pair
    /// items over a projection, deeper levels counted on that projection.
    fn run_to_end_projected(run: &mut LatticeRun<'_>, d: &TransactionDb) {
        let cands = run.next_candidates();
        if cands.is_empty() {
            return;
        }
        run.absorb_counts(&TrieCounter.count(d, &cands));
        let items = run.next_pair_items();
        if items.is_empty() {
            return;
        }
        assert!(matches!(run.pending, Some(Pending::Pairs(_))), "no candidate list at level 2");
        let mut scan = ScanStats::default();
        let (mut projection, pairs) = Projection::pairs(d, &[&items], 1, &mut scan);
        run.absorb_pair_counts(&pairs[0]);
        loop {
            let cands = run.next_candidates();
            if cands.is_empty() {
                break;
            }
            projection.retain(&[&cands], cands[0].len(), &mut scan);
            run.absorb_counts(&projection.count(&[&cands])[0]);
        }
    }

    /// Both level-2 protocols: same lattice, same ledger, same audit log.
    fn check_pair_protocol(src: &str, extra: Option<&str>, universe: Vec<ItemId>, min_support: u64) {
        let cat = catalog();
        let d = db();
        let mut runs: Vec<LatticeRun<'_>> = (0..2)
            .map(|_| {
                let mut run = lattice_over(src, min_support, universe.clone(), &cat);
                if let Some(extra) = extra {
                    let q = bind_query(&parse_query(extra).unwrap(), &cat).unwrap();
                    run.set_extra_am(q.one_var.clone());
                }
                run.enable_audit_log();
                run
            })
            .collect();
        run_to_end(&mut runs[0], &d);
        run_to_end_projected(&mut runs[1], &d);
        let tag = format!("`{src}` + {extra:?} over {universe:?} @ {min_support}");
        let sets = |r: &LatticeRun<'_>| -> Vec<(Itemset, u64)> {
            r.frequent().iter().map(|(s, n)| (s.clone(), n)).collect()
        };
        assert_eq!(sets(&runs[0]), sets(&runs[1]), "{tag}");
        assert_eq!(runs[0].valid_sets(), runs[1].valid_sets(), "{tag}");
        assert_eq!(runs[0].counted_log(), runs[1].counted_log(), "{tag}");
        let ledger = |r: &LatticeRun<'_>| {
            let s = r.stats();
            let levels: Vec<(usize, u64, u64)> =
                s.levels.iter().map(|l| (l.level, l.candidates, l.frequent)).collect();
            (s.support_counted, s.constraint_checks, s.pruned_candidates, levels)
        };
        assert_eq!(ledger(&runs[0]), ledger(&runs[1]), "{tag}");
    }

    #[test]
    fn pair_protocol_matches_candidate_protocol() {
        let all = full_universe();
        for min_support in [1, 2, 3, 9] {
            // Plain, Strategy I, Strategy II (a pushed required group),
            // Strategy III (residual checks), and a J^k_max bound at level 2.
            check_pair_protocol("freq(S)", None, all.clone(), min_support);
            check_pair_protocol("max(S.Price) <= 40", None, all.clone(), min_support);
            check_pair_protocol("min(S.Price) <= 20", None, all.clone(), min_support);
            check_pair_protocol("S.Type intersects {C}", None, all.clone(), min_support);
            check_pair_protocol("sum(S.Price) <= 60", None, all.clone(), min_support);
            check_pair_protocol("freq(S)", Some("sum(S.Price) <= 50"), all.clone(), min_support);
            check_pair_protocol(
                "min(S.Price) <= 20 & sum(S.Price) <= 70",
                Some("sum(S.Price) <= 50"),
                all.clone(),
                min_support,
            );
            // |L1| ∈ {0, 1, 2}.
            for n in 0..3 {
                check_pair_protocol("freq(S)", None, all[..n].to_vec(), min_support);
                check_pair_protocol("min(S.Price) <= 10", None, all[..n].to_vec(), min_support);
            }
        }
    }

    #[test]
    fn pruned_pairs_leave_the_pair_items() {
        // sum ≤ 50: item 5 (price 60) is in no candidate pair, item 4
        // (price 50) neither; the executor is not asked to keep them.
        let cat = catalog();
        let d = db();
        let mut run = lattice("freq(S)", 1, &cat);
        let q = bind_query(&parse_query("sum(S.Price) <= 50").unwrap(), &cat).unwrap();
        let cands = run.next_candidates();
        run.absorb_counts(&TrieCounter.count(&d, &cands));
        run.set_extra_am(q.one_var.clone());
        assert_eq!(run.next_pair_items(), [0u32, 1, 2, 3].map(ItemId));
        // 15 pairs checked once each, 4 admitted: {0,1}, {0,2}, {0,3}, {1,2}.
        assert_eq!(run.stats().constraint_checks, 15);
        assert_eq!(run.stats().pruned_candidates, 11);
    }

    fn full_universe() -> Vec<ItemId> {
        (0..6).map(ItemId).collect()
    }

    fn lattice<'a>(src: &str, min_support: u64, catalog: &'a Catalog) -> LatticeRun<'a> {
        lattice_over(src, min_support, full_universe(), catalog)
    }

    fn lattice_over<'a>(
        src: &str,
        min_support: u64,
        universe: Vec<ItemId>,
        catalog: &'a Catalog,
    ) -> LatticeRun<'a> {
        let q = bind_query(&parse_query(src).unwrap(), catalog).unwrap();
        let s_constraints: Vec<_> =
            q.one_var_for(Var::S).cloned().collect();
        let form = SuccinctForm::compile(&s_constraints, catalog);
        LatticeRun::new(
            LatticeConfig { var: Var::S, universe, min_support, max_level: 0 },
            form,
            catalog,
        )
    }

    /// Brute-force frequent valid sets.
    fn brute(src: &str, min_support: u64, cat: &Catalog, d: &TransactionDb) -> Vec<Itemset> {
        let q = bind_query(&parse_query(src).unwrap(), cat).unwrap();
        let all: Itemset = (0u32..6).collect();
        let mut out: Vec<Itemset> = all
            .all_nonempty_subsets()
            .into_iter()
            .filter(|s| d.support(s) >= min_support)
            .filter(|s| cfq_constraints::eval_all_one(&q.one_var, s, cat))
            .collect();
        out.sort_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
        out
    }

    fn check_equivalence(src: &str, min_support: u64) {
        let cat = catalog();
        let d = db();
        let mut run = lattice(src, min_support, &cat);
        run_to_end(&mut run, &d);
        let mut got: Vec<Itemset> = run.valid_sets().into_iter().map(|(s, _)| s).collect();
        got.sort_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
        let expected = brute(src, min_support, &cat, &d);
        assert_eq!(got, expected, "constraint `{src}` min_support={min_support}");
    }

    #[test]
    fn unconstrained_matches_apriori() {
        check_equivalence("freq(S)", 2);
        check_equivalence("freq(S)", 3);
    }

    #[test]
    fn strategy1_allowed_filter() {
        check_equivalence("max(S.Price) <= 40", 2);
        check_equivalence("S.Type subset {A, B}", 2);
        check_equivalence("S.Type disjoint {C}", 2);
        check_equivalence("min(S.Price) >= 30", 2);
    }

    #[test]
    fn strategy2_required_group() {
        check_equivalence("min(S.Price) <= 20", 2);
        check_equivalence("max(S.Price) >= 50", 2);
        check_equivalence("S.Type intersects {C}", 2);
        check_equivalence("S.Type superset {A}", 2);
        check_equivalence("20 in S.Price", 3);
    }

    #[test]
    fn strategy3_residual_am() {
        check_equivalence("sum(S.Price) <= 60", 2);
        check_equivalence("S.Type notsuperset {A, B}", 2);
        check_equivalence("count(S) <= 2", 2);
    }

    #[test]
    fn strategy4_post_filters() {
        check_equivalence("avg(S.Price) <= 25", 2);
        check_equivalence("avg(S.Price) >= 35", 2);
        check_equivalence("sum(S.Price) >= 60", 2);
        check_equivalence("count(S.Type) = 1", 2);
        check_equivalence("S.Type != {A}", 2);
    }

    #[test]
    fn combined_strategies() {
        check_equivalence("max(S.Price) <= 50 & min(S.Price) <= 20", 2);
        check_equivalence("S.Type subset {A, B} & min(S.Price) <= 10 & sum(S.Price) <= 60", 2);
        check_equivalence("min(S.Price) <= 20 & max(S.Price) >= 40", 2);
        check_equivalence("avg(S.Price) <= 30 & S.Type intersects {A}", 2);
    }

    #[test]
    fn strategy2_counts_fewer_sets_than_plain() {
        // The point of CAP: fewer support-counted sets than Apriori.
        let cat = catalog();
        let d = db();
        let mut plain = lattice("freq(S)", 2, &cat);
        run_to_end(&mut plain, &d);
        let mut constrained = lattice("min(S.Price) <= 10", 2, &cat);
        run_to_end(&mut constrained, &d);
        assert!(
            constrained.stats().support_counted < plain.stats().support_counted,
            "pushing the required group must reduce counting: {} vs {}",
            constrained.stats().support_counted,
            plain.stats().support_counted
        );
    }

    #[test]
    fn push_conditions_after_level1() {
        let cat = catalog();
        let d = db();
        let mut run = lattice("freq(S)", 2, &cat);
        // Level 1.
        let cands = run.next_candidates();
        let counts = TrieCounter.count(&d, &cands);
        run.absorb_counts(&counts);
        // Inject an induced condition (as the optimizer would): allow only
        // items with Price ≤ 30.
        let q = bind_query(&parse_query("max(S.Price) <= 30").unwrap(), &cat).unwrap();
        run.push_conditions(&q.one_var);
        run_to_end(&mut run, &d);
        for (s, _) in run.valid_sets() {
            assert!(s.iter().all(|i| cat.num(cat.attr("Price").unwrap(), i) <= 30.0));
        }
        // Equivalent to pushing it from the start.
        let mut direct = lattice("max(S.Price) <= 30", 2, &cat);
        run_to_end(&mut direct, &d);
        let a: Vec<_> = run.valid_sets();
        let b: Vec<_> = direct.valid_sets();
        assert_eq!(a, b);
    }

    #[test]
    fn extra_am_prunes_levels() {
        let cat = catalog();
        let d = db();
        let mut run = lattice("freq(S)", 2, &cat);
        let cands = run.next_candidates();
        let counts = TrieCounter.count(&d, &cands);
        run.absorb_counts(&counts);
        // Jkmax-style bound: sum(CS.Price) ≤ 50 from level 2 on.
        let q = bind_query(&parse_query("sum(S.Price) <= 50").unwrap(), &cat).unwrap();
        run.set_extra_am(q.one_var.clone());
        run_to_end(&mut run, &d);
        for (s, _) in run.frequent().iter() {
            if s.len() >= 2 {
                assert!(cat.sum_num(cat.attr("Price").unwrap(), s) <= 50.0);
            }
        }
        assert!(run.stats().pruned_candidates > 0);
    }

    #[test]
    fn max_level_caps_run() {
        let cat = catalog();
        let d = db();
        let q = bind_query(&parse_query("freq(S)").unwrap(), &cat).unwrap();
        let form = SuccinctForm::compile(&q.one_var, &cat);
        let mut run = LatticeRun::new(
            LatticeConfig { var: Var::S, universe: full_universe(), min_support: 1, max_level: 2 },
            form,
            &cat,
        );
        run_to_end(&mut run, &d);
        assert_eq!(run.frequent().n_levels(), 2);
        assert!(run.done());
    }

    #[test]
    fn unsatisfiable_form_short_circuits() {
        let cat = catalog();
        let d = db();
        let mut run = lattice("max(S.Price) <= 5", 2, &cat);
        run_to_end(&mut run, &d);
        assert!(run.valid_sets().is_empty());
        assert_eq!(run.stats().support_counted, 0);
    }

    #[test]
    fn shared_scan_dovetailing_smoke() {
        // Two lattices stepped together over one scan per round.
        let cat = catalog();
        let d = db();
        let mut a = lattice("max(S.Price) <= 40", 2, &cat);
        let mut b = lattice("min(S.Price) <= 20", 2, &cat);
        let mut scans = 0u64;
        loop {
            let ca = a.next_candidates();
            let cb = b.next_candidates();
            if ca.is_empty() && cb.is_empty() {
                break;
            }
            let counts = count_supports(&d, &[&ca, &cb]);
            scans += 1;
            if !ca.is_empty() {
                a.absorb_counts(&counts[0]);
            }
            if !cb.is_empty() {
                b.absorb_counts(&counts[1]);
            }
        }
        assert!(scans < a.stats().levels.len() as u64 + b.stats().levels.len() as u64);
        assert!(!a.valid_sets().is_empty());
        assert!(!b.valid_sets().is_empty());
    }

    #[test]
    fn audit_log_collects_counted_sets() {
        let cat = catalog();
        let d = db();
        let mut run = lattice("min(S.Price) <= 20", 2, &cat);
        run.enable_audit_log();
        run_to_end(&mut run, &d);
        let log = run.counted_log().unwrap();
        assert!(!log.is_empty());
        // Every counted set (level ≥ 2) contains a required item.
        for s in log {
            assert!(run.form().satisfies_required(s), "counted invalid set {s}");
        }
    }
}
