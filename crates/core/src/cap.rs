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
//! between levels (§5.2).

use cfq_constraints::{OneVar, SuccinctForm, Var};
use cfq_mining::{generate_candidates, FrequentSets, WorkStats};
use cfq_types::{Catalog, ItemId, Itemset};
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
    /// Candidates awaiting counts: aligned (orig-sorted) orig and rank sets.
    pending: Option<(Vec<Itemset>, Vec<Itemset>)>,
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

impl<'a> LatticeRun<'a> {
    /// Creates a run with the compiled 1-var form.
    pub fn new(cfg: LatticeConfig, form: SuccinctForm, catalog: &'a Catalog) -> Self {
        let universe_eff = form.filter_universe(&cfg.universe);
        LatticeRun {
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
    }

    /// Injects/replaces the extra anti-monotone conditions applied to
    /// candidates from the next level on (`J^k_max`'s `sum(CS.A) ≤ V^k`).
    pub fn set_extra_am(&mut self, conds: Vec<OneVar>) {
        self.extra_am = conds;
    }

    /// Produces the next level's candidates (original item space, sorted),
    /// or an empty vector when the lattice is exhausted. The caller counts
    /// them (possibly in a scan shared with another lattice) and hands the
    /// supports back via [`Self::absorb_counts`].
    pub fn next_candidates(&mut self) -> Vec<Itemset> {
        if self.done {
            return Vec::new();
        }
        assert!(self.pending.is_none(), "absorb_counts must be called first");
        self.level_started = Instant::now();
        if self.cfg.max_level != 0 && self.level >= self.cfg.max_level {
            self.done = true;
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
            self.pending = Some((orig.clone(), Vec::new()));
            return orig;
        }

        self.ensure_ranks();
        let prev = &self.rank_levels[self.level - 1];
        if prev.is_empty() {
            self.done = true;
            return Vec::new();
        }

        let group_len = self.pushed_group.as_ref().map(|g| g.len() as u32);
        let oracle = |sub: &Itemset| match group_len {
            None => true,
            Some(g) => sub.as_slice().first().map(|r| r.0 < g).unwrap_or(false),
        };
        let mut cands_rank = generate_candidates(prev, oracle);
        if let Some(g) = group_len {
            // At level 1 → 2 the join has no shared prefix to protect the
            // leading R item; filter explicitly. (No-op at deeper levels.)
            cands_rank.retain(|c| c.as_slice()[0].0 < g);
        }

        // Map to original item space and apply the candidate filters.
        let mut paired: Vec<(Itemset, Itemset)> = Vec::with_capacity(cands_rank.len());
        let n_checks = (self.form.residual_am.len() + self.extra_am.len()) as u64;
        let mut pruned = 0u64;
        for rank_set in cands_rank {
            let orig = self.to_orig(&rank_set);
            self.stats.record_checks(n_checks);
            let ok = self.form.admits_candidate(&orig, self.catalog)
                && self
                    .extra_am
                    .iter()
                    .all(|c| cfq_constraints::eval_one(c, &orig, self.catalog));
            if ok {
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
        self.pending = Some((orig.clone(), rank));
        orig
    }

    /// Absorbs the supports for the candidates returned by the last
    /// [`Self::next_candidates`] call. The level is recorded with the wall
    /// time since that call began: generation, whatever trimming and
    /// counting the executor did in between, and this absorption. On a
    /// dovetailed scan both lattices' rows include the scan they shared.
    pub fn absorb_counts(&mut self, counts: &[u64]) {
        let (orig, rank) = self.pending.take().expect("no pending candidates");
        assert_eq!(orig.len(), counts.len(), "count vector length mismatch");
        let level = self.level + 1;
        let n_candidates = orig.len() as u64;

        let mut freq_orig: Vec<(Itemset, u64)> = Vec::new();
        let mut freq_rank: Vec<Itemset> = Vec::new();
        for (i, set) in orig.into_iter().enumerate() {
            if counts[i] >= self.cfg.min_support {
                if level > 1 {
                    freq_rank.push(rank[i].clone());
                }
                freq_orig.push((set, counts[i]));
            }
        }
        let n_frequent = freq_orig.len() as u64;

        if level == 1 {
            // Rank space does not exist yet; store origs, remapped later.
            self.rank_levels.push(freq_orig.iter().map(|(s, _)| s.clone()).collect());
        } else {
            freq_rank.sort();
            self.rank_levels.push(freq_rank);
        }
        let empty = freq_orig.is_empty();
        self.frequent.push_level(freq_orig);
        self.level = level;
        let micros = self.level_started.elapsed().as_micros() as u64;
        self.stats.record_level_timed(level, n_candidates, n_frequent, micros);
        if empty {
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
        s.iter().all(|i| self.universe_eff.binary_search(&i).is_ok())
            && self.form.satisfies_required(s)
            && self.form.admits_candidate(s, self.catalog)
            && self.form.passes_post(s, self.catalog)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_mining::{count_supports, TrieCounter, SupportCounter};
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

    fn full_universe() -> Vec<ItemId> {
        (0..6).map(ItemId).collect()
    }

    fn lattice<'a>(src: &str, min_support: u64, catalog: &'a Catalog) -> LatticeRun<'a> {
        let q = bind_query(&parse_query(src).unwrap(), catalog).unwrap();
        let s_constraints: Vec<_> =
            q.one_var_for(Var::S).cloned().collect();
        let form = SuccinctForm::compile(&s_constraints, catalog);
        LatticeRun::new(
            LatticeConfig {
                var: Var::S,
                universe: full_universe(),
                min_support,
                max_level: 0,
            },
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
