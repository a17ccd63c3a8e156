//! The CFQ query optimizer (§6, Figure 7), step by step.
//!
//! [`mod@crate::plan`] decides, from the catalog alone, everything Figure 7
//! decides before counting: the 1-var / 2-var split, which 2-var
//! constraints are quasi-succinct (`C_qs`), which weaker ones Figure 4
//! induces from the rest, and where a `J^k_max` task attaches. This module
//! executes a plan, one function a box:
//!
//! 1. **level 1** of both CAP lattices, read off the [`Substrate`];
//! 2. [`reduce`]: every constraint of `C_qs` becomes succinct 1-var
//!    conditions over `L1^S` / `L1^T` (Figures 2–3) — returned as data, the
//!    [`Reductions`], then pushed into the lattices;
//! 3. the `J^k_max` states (§5.2): one bound series per task of the plan,
//!    started from the bounding lattice's `L1`;
//! 4. `mine`: levels ≥ 2 of both lattices *dovetailed* over shared scans,
//!    each level of the bounding lattice tightening the bounded one's
//!    series — or, as §5.2's alternative, one lattice after the other;
//! 5. the outcome: each side's frequent valid sets collected and the pairs
//!    formed, re-verifying every original 2-var constraint (which also
//!    absorbs the non-tight and induced-weaker looseness).
//!
//! The [`Strategy`] flags switch steps off, never the plan: all three
//! `push_*` flags `false` is exactly the Apriori⁺ baseline; `push_one_var`
//! alone is the CAP-1-var strategy the paper compares against in §7.2.

use crate::cap::{LatticeConfig, LatticeRun};
use crate::jkmax::BoundSeries;
use crate::pairs::{pair_up, PairResult};
use crate::plan::{plan, CfqPlan, JkTask};
use cfq_constraints::{
    eval_all_one, reduce_quasi_succinct, BoundQuery, OneVar, Reduction, SuccinctForm, TwoVar, Var,
};
use cfq_mining::{CountingBackend, ScanStats, Substrate, WorkStats};
use cfq_types::{Catalog, CfqError, ItemId, Itemset, Result, TransactionDb};
use std::time::Instant;

/// Execution environment of a query: data, domains, thresholds.
pub struct QueryEnv<'a> {
    /// The transaction database (shared by both variables).
    pub db: &'a TransactionDb,
    /// The attribute catalog.
    pub catalog: &'a Catalog,
    /// Domain of `S` (empty = all items).
    pub s_universe: Vec<ItemId>,
    /// Domain of `T` (empty = all items).
    pub t_universe: Vec<ItemId>,
    /// Absolute minimum support for `S`.
    pub s_min_support: u64,
    /// Absolute minimum support for `T`.
    pub t_min_support: u64,
    /// Level cap (0 = unbounded).
    pub max_level: usize,
    /// Materialization cap for pairs (`None` = materialize all).
    pub max_pairs: Option<usize>,
    /// When `false`, skip pair formation entirely: the outcome reports the
    /// raw frequent valid-per-1-var sets and an empty pair result. Used by
    /// benchmarks that compare mining work only.
    pub form_pairs: bool,
    /// Support-counting worker threads: 1 = sequential (default), 0 = one
    /// per core, n = exactly n. Counting splits the rows across them;
    /// results are bit-identical to sequential.
    pub counting_threads: usize,
    /// Per-level database reduction (default on): between levels the
    /// executor drops items outside the upcoming candidates — for the
    /// dovetailed shared scan, outside the *union* of both lattices'
    /// candidates — and rows left shorter than the smallest candidate.
    /// Answers are provably identical with trimming on or off.
    pub trim: bool,
    /// Support-counting backend (default `Horizontal`): horizontal row
    /// scans or a vertical tidset/bitmap index (`Auto` is `Horizontal`).
    /// Answers are bit-identical across backends.
    pub backend: CountingBackend,
}

impl<'a> QueryEnv<'a> {
    /// Environment over the full item universe with one threshold.
    pub fn new(db: &'a TransactionDb, catalog: &'a Catalog, min_support: u64) -> Self {
        QueryEnv {
            db,
            catalog,
            s_universe: Vec::new(),
            t_universe: Vec::new(),
            s_min_support: min_support,
            t_min_support: min_support,
            max_level: 0,
            max_pairs: None,
            form_pairs: true,
            counting_threads: 1,
            trim: true,
            backend: CountingBackend::Horizontal,
        }
    }

    /// Enables multi-threaded support counting (0 = one worker per core).
    pub fn with_counting_threads(mut self, threads: usize) -> Self {
        self.counting_threads = threads;
        self
    }

    /// Selects the support-counting backend.
    pub fn with_backend(mut self, backend: CountingBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Enables or disables per-level database reduction.
    pub fn with_trim(mut self, trim: bool) -> Self {
        self.trim = trim;
        self
    }

    /// Disables final pair formation (mining-only benchmarks).
    pub fn without_pair_formation(mut self) -> Self {
        self.form_pairs = false;
        self
    }

    /// Sets the S domain.
    pub fn with_s_universe(mut self, u: Vec<ItemId>) -> Self {
        self.s_universe = u;
        self
    }

    /// Sets the T domain.
    pub fn with_t_universe(mut self, u: Vec<ItemId>) -> Self {
        self.t_universe = u;
        self
    }

    /// Sets distinct thresholds.
    pub fn with_supports(mut self, s: u64, t: u64) -> Self {
        self.s_min_support = s;
        self.t_min_support = t;
        self
    }

    /// Caps the lattice depth.
    pub fn with_max_level(mut self, max_level: usize) -> Self {
        self.max_level = max_level;
        self
    }

    /// The domain of `var`: as given (normalized), or every item of the
    /// database.
    pub(crate) fn universe(&self, var: Var) -> Vec<ItemId> {
        let given = match var {
            Var::S => &self.s_universe,
            Var::T => &self.t_universe,
        };
        domain_or_all(given, self.db.n_items())
    }

    pub(crate) fn min_support(&self, var: Var) -> u64 {
        match var {
            Var::S => self.s_min_support,
            Var::T => self.t_min_support,
        }
    }

    /// Fails with [`CfqError::Engine`] when the catalog covers fewer items
    /// than the database references — an inconsistent environment that
    /// would otherwise surface as an opaque index panic deep inside
    /// constraint evaluation.
    fn check(&self) -> Result<()> {
        if self.catalog.n_items() < self.db.n_items() {
            return Err(CfqError::Engine(format!(
                "catalog covers {} items but the database references up to {}",
                self.catalog.n_items(),
                self.db.n_items()
            )));
        }
        Ok(())
    }
}

/// A variable's domain as a caller gave it — ascending, duplicates dropped
/// — or every one of `n_items` items when none was given.
pub fn domain_or_all(given: &[ItemId], n_items: usize) -> Vec<ItemId> {
    if given.is_empty() {
        return (0..n_items as u32).map(ItemId).collect();
    }
    let mut domain = given.to_vec();
    domain.sort_unstable();
    domain.dedup();
    domain
}

/// Where a lattice served during one execution came from. One-shot
/// `Optimizer` runs always mine cold; the session engine stamps cache
/// provenance so EXPLAIN output and benchmarks can tell reuse from work.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LatticeSource {
    /// Mined from the transaction database during this execution.
    #[default]
    MinedCold,
    /// Served from a session engine's lattice cache without any scan.
    Cached,
    /// Served from the cache after an in-place FUP upgrade at an epoch
    /// swap (`Engine::append`).
    FupUpgraded,
    /// Served by attaching to another query's in-flight mining of the same
    /// lattice (the scheduler's single-flight/batch path): this query
    /// waited for that pass instead of scanning itself.
    Coalesced,
}

impl LatticeSource {
    /// Human-readable provenance label used by EXPLAIN output.
    pub fn describe(self) -> &'static str {
        match self {
            LatticeSource::MinedCold => "freshly mined (cold)",
            LatticeSource::Cached => "cache hit (reused mined lattice)",
            LatticeSource::FupUpgraded => "cache hit (FUP-upgraded at epoch swap)",
            LatticeSource::Coalesced => "coalesced (shared an in-flight mining)",
        }
    }
}

/// Cache provenance of one execution outcome: where each lattice came from
/// and whether the plan itself was reused.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OutcomeProvenance {
    /// Where the S lattice came from.
    pub s_lattice: LatticeSource,
    /// Where the T lattice came from.
    pub t_lattice: LatticeSource,
    /// Whether the plan was served from a plan cache.
    pub plan_cached: bool,
    /// Each side's effective universe in items, S then T, before and after
    /// the Figs. 2–3 narrowing — set where the session engine reduced the
    /// plan's pushed constraints on its cached path, `None` elsewhere.
    pub universes: Option<[(usize, usize); 2]>,
}

impl OutcomeProvenance {
    /// The EXPLAIN lines describing cache provenance (appended to
    /// [`CfqPlan::explain`] by `Session::explain`).
    pub fn render(&self) -> String {
        let mut text = format!(
            "lattice provenance:\n  [S] {}\n  [T] {}\n",
            self.s_lattice.describe(),
            self.t_lattice.describe(),
        );
        let universes = self.universes.into_iter().flatten();
        for (var, (before, after)) in ["S", "T"].into_iter().zip(universes) {
            text += &format!("  {var} universe {before} → {after} items (Figs. 2–3)\n");
        }
        let plan = if self.plan_cached { "plan cache hit" } else { "planned this run" };
        text + &format!("  plan: {plan}\n")
    }
}

/// Result of executing a plan.
#[derive(Clone, Debug)]
pub struct ExecutionOutcome {
    /// Frequent valid S-sets with supports.
    pub s_sets: Vec<(Itemset, u64)>,
    /// Frequent valid T-sets with supports.
    pub t_sets: Vec<(Itemset, u64)>,
    /// The valid pairs.
    pub pair_result: PairResult,
    /// S-lattice work counters.
    pub s_stats: WorkStats,
    /// T-lattice work counters.
    pub t_stats: WorkStats,
    /// Passes over a working database — the source rows or a reduced copy
    /// of them — made for this execution (a dovetailed scan counts once;
    /// level 1 is a column read and makes none). Zero does not mean "served
    /// from a cache": see `provenance`.
    pub db_scans: u64,
    /// Scan volume and trim accounting across the whole execution: how many
    /// rows/items each scan actually touched (trim passes are tracked
    /// separately and do not count as scans).
    pub scan: ScanStats,
    /// The `V^k` histories per pruned variable (empty without `J^k_max`).
    pub v_histories: Vec<(Var, Vec<(usize, f64)>)>,
    /// Cache provenance: where each lattice came from. One-shot runs are
    /// always [`LatticeSource::MinedCold`] on both sides.
    pub provenance: OutcomeProvenance,
}

impl ExecutionOutcome {
    /// The outcome of two sides computed apart, not yet paired: scans and
    /// scan volume are the sides' sums, each lattice mined cold.
    pub fn of_sides(
        (s_sets, s_stats): (Vec<(Itemset, u64)>, WorkStats),
        (t_sets, t_stats): (Vec<(Itemset, u64)>, WorkStats),
    ) -> ExecutionOutcome {
        let mut scan = s_stats.scan.clone();
        scan.absorb(&t_stats.scan);
        ExecutionOutcome {
            s_sets,
            t_sets,
            pair_result: PairResult::default(),
            db_scans: s_stats.db_scans + t_stats.db_scans,
            scan,
            s_stats,
            t_stats,
            v_histories: Vec::new(),
            provenance: OutcomeProvenance::default(),
        }
    }

    /// The step every execution ends with ([`pair_up`]): forms the pairs
    /// over both sides, re-verifying `two`, and restricts the sides to
    /// Definition 3's *frequent valid* sets — which makes every strategy's
    /// output identical regardless of how much of the validity pruning it
    /// performed during mining.
    pub fn paired(mut self, two: &[TwoVar], catalog: &Catalog, max_pairs: Option<usize>) -> Self {
        let (s_sets, t_sets) = (std::mem::take(&mut self.s_sets), std::mem::take(&mut self.t_sets));
        (self.s_sets, self.t_sets, self.pair_result) =
            pair_up(s_sets, t_sets, two, catalog, max_pairs);
        self
    }
}

/// The strategy family an execution runs under: which steps of Figure 7
/// are switched on. Defaults are the full optimizer.
///
/// The flags never shape the plan — [`plan`] takes none — only what
/// [`Optimizer::execute_plan`] does with it and what EXPLAIN therefore
/// says. `Session::query(..).strategy(..)` and `QueryRequest` carry the
/// value under the name [`Strategy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Optimizer {
    /// Push 1-var constraints through CAP (off = check at output, as
    /// Apriori⁺ does).
    pub push_one_var: bool,
    /// Reduce/induce 2-var constraints into the lattices.
    pub push_two_var: bool,
    /// Attach `J^k_max` iterative pruning for sum-bounded constraints.
    pub use_jkmax: bool,
    /// Compute the two lattices dovetailed over shared scans (off = one
    /// lattice after the other; the bounding lattice runs first so its
    /// exact bound series is available — the paper's §5.2 alternative).
    pub dovetail: bool,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer { push_one_var: true, push_two_var: true, use_jkmax: true, dovetail: true }
    }
}

/// The preferred name for [`Optimizer`] where it travels as a value (in
/// `QueryRequest`, `Session::query(..).strategy(..)`, and the wire
/// protocol). Same type.
pub type Strategy = Optimizer;

impl Optimizer {
    /// The Apriori⁺ baseline configuration.
    pub fn apriori_plus() -> Self {
        Optimizer { push_one_var: false, push_two_var: false, use_jkmax: false, dovetail: true }
    }

    /// The CAP configuration that optimizes only 1-var constraints (the
    /// middle curve of Fig. 8(b)).
    pub fn cap_one_var() -> Self {
        Optimizer { push_one_var: true, push_two_var: false, use_jkmax: false, dovetail: true }
    }

    /// Resolves a strategy family by its wire/CLI name: `full`, `cap1`, or
    /// `apriori+` (alias `naive`). `None` for anything else.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Optimizer::default()),
            "cap1" => Some(Optimizer::cap_one_var()),
            "apriori+" | "naive" => Some(Optimizer::apriori_plus()),
            _ => None,
        }
    }

    /// The wire/CLI name of this flag set, when it matches a named family
    /// (`full`, `cap1`, `apriori+`); `None` for hand-rolled flag
    /// combinations.
    pub fn name(&self) -> Option<&'static str> {
        if *self == Optimizer::default() {
            Some("full")
        } else if *self == Optimizer::cap_one_var() {
            Some("cap1")
        } else if *self == Optimizer::apriori_plus() {
            Some("apriori+")
        } else {
            None
        }
    }

    /// [`plan`], under its old name: the flags are not consulted.
    pub fn build_plan(&self, query: &BoundQuery, catalog: &Catalog) -> CfqPlan {
        plan(query, catalog)
    }

    /// Plans and executes in one step, reporting environment problems as
    /// typed errors instead of panicking.
    pub fn evaluate(&self, query: &BoundQuery, env: &QueryEnv<'_>) -> Result<ExecutionOutcome> {
        self.execute_plan(&plan(query, env.catalog), env)
    }

    /// Executes a plan: the steps of Figure 7 this strategy's flags leave
    /// on, in order. Fails with [`CfqError::Engine`] on an inconsistent
    /// environment.
    pub fn execute_plan(&self, plan: &CfqPlan, env: &QueryEnv<'_>) -> Result<ExecutionOutcome> {
        env.check()?;
        let catalog = env.catalog;
        let mut sub = Substrate::new(env.db, env.backend, env.trim, env.counting_threads);
        let mut s_run = self.open_lattice(plan, env, Var::S);
        let mut t_run = self.open_lattice(plan, env, Var::T);

        level_one(&mut sub, &mut s_run, &mut t_run, self.dovetail);
        if self.push_two_var {
            let reductions = reduce(plan, &s_run.l1_items(), &t_run.l1_items(), catalog);
            for run in [&mut s_run, &mut t_run] {
                let conds = reductions.conditions(run.var());
                if !conds.is_empty() {
                    run.push_conditions(&conds);
                }
            }
        }
        let mut bounds = if self.use_jkmax {
            jk_states(plan, &s_run, &t_run, catalog)
        } else {
            Vec::new()
        };
        mine(&mut sub, &mut s_run, &mut t_run, &mut bounds, self.dovetail, catalog);
        Ok(self.outcome(plan, env, sub, s_run, t_run, bounds))
    }

    /// An unstarted CAP lattice for `var`: its domain, threshold and — when
    /// 1-var constraints are pushed — the plan's compiled form.
    fn open_lattice<'a>(&self, plan: &CfqPlan, env: &QueryEnv<'a>, var: Var) -> LatticeRun<'a> {
        let form =
            if self.push_one_var { plan.form(var).clone() } else { SuccinctForm::default() };
        let cfg = LatticeConfig {
            var,
            universe: env.universe(var),
            min_support: env.min_support(var),
            max_level: env.max_level,
        };
        LatticeRun::new(cfg, form, env.catalog)
    }

    /// The last box of Figure 7: each side's frequent valid sets, then —
    /// unless the environment asked for the mining only — the pairs.
    fn outcome<'c>(
        &self,
        plan: &CfqPlan,
        env: &QueryEnv<'c>,
        sub: Substrate<'_>,
        mut s_run: LatticeRun<'c>,
        mut t_run: LatticeRun<'c>,
        bounds: Vec<JkState>,
    ) -> ExecutionOutcome {
        let Substrate { db_scans, scan, .. } = sub;
        if !self.push_one_var {
            // Without 1-var pushing the constraint check on every frequent
            // set is the Apriori⁺ post-pass; account for it.
            for run in [&mut s_run, &mut t_run] {
                let checks = run.frequent().total() as u64 * plan.one_var(run.var()).len() as u64;
                run.stats_mut().record_checks(checks);
            }
        }
        let mined = ExecutionOutcome {
            s_sets: collect(&s_run, plan, &bounds, env.catalog),
            t_sets: collect(&t_run, plan, &bounds, env.catalog),
            pair_result: PairResult::default(),
            s_stats: s_run.stats().clone(),
            t_stats: t_run.stats().clone(),
            db_scans,
            scan,
            v_histories: bounds
                .into_iter()
                .map(|b| (b.task.pruned, b.series.history().to_vec()))
                .collect(),
            provenance: OutcomeProvenance::default(),
        };
        if env.form_pairs {
            mined.paired(&plan.trace().final_two, env.catalog, env.max_pairs)
        } else {
            mined
        }
    }
}

/// Level 1 of both lattices, read off the database's item-support column.
fn level_one<'c>(
    sub: &mut Substrate<'_>,
    s_run: &mut LatticeRun<'c>,
    t_run: &mut LatticeRun<'c>,
    dovetail: bool,
) {
    if dovetail {
        count_level(sub, 1, &mut [s_run, t_run]);
    } else {
        count_level(sub, 1, &mut [s_run]);
        count_level(sub, 1, &mut [t_run]);
    }
}

/// What Figures 2–3 make of a plan's pushed constraints once both `L1`s
/// are known: per constraint, in plan order, the conditions on candidate
/// S-sets and T-sets and whether each side is tight.
#[derive(Clone, Debug, Default)]
pub struct Reductions(pub Vec<(TwoVar, Reduction)>);

impl Reductions {
    /// Every condition on `var`, in plan order: what is pushed into that
    /// variable's lattice right after level 1.
    pub fn conditions(&self, var: Var) -> Vec<OneVar> {
        let side = |(_, r): &(TwoVar, Reduction)| match var {
            Var::S => r.s_conds.clone(),
            Var::T => r.t_conds.clone(),
        };
        self.0.iter().flat_map(side).collect()
    }

    /// Drops from `universe` every item that no `var`-set of a valid pair
    /// can hold: those an `allowed`-only condition on `var` rejects
    /// ([`SuccinctForm::allowed_only`]), all conditions in one pass over
    /// `universe`. The other conditions — required groups, per-set checks —
    /// say nothing of a single item; pair formation re-verifies what they
    /// would have pruned.
    pub fn narrow(&self, var: Var, universe: &mut Vec<ItemId>, catalog: &Catalog) {
        let conds: Vec<&OneVar> = self
            .0
            .iter()
            .flat_map(|(_, r)| match var {
                Var::S => &r.s_conds,
                Var::T => &r.t_conds,
            })
            .filter(|c| SuccinctForm::allowed_only(c))
            .collect();
        if !conds.is_empty() {
            universe.retain(|&i| conds.iter().all(|c| SuccinctForm::allows_item(c, i, catalog)));
        }
    }
}

/// The Figure 7 "Reduction" box: reduces every constraint the plan pushes
/// — the quasi-succinct originals and the induced weaker ones — to 1-var
/// conditions whose constants come from `l1_s` / `l1_t`, the frequent items
/// of the two lattices. Needs no run: any `L1`s will do.
pub fn reduce(plan: &CfqPlan, l1_s: &[ItemId], l1_t: &[ItemId], catalog: &Catalog) -> Reductions {
    let pushed = plan.trace().nodes.iter().flat_map(|node| &node.pushed);
    Reductions(
        pushed
            .filter_map(|c| Some((c.clone(), reduce_quasi_succinct(c, l1_s, l1_t, catalog)?)))
            .collect(),
    )
}

/// Live state of one `J^k_max` task during execution.
struct JkState {
    task: JkTask,
    series: BoundSeries,
    /// Whether the bound condition is anti-monotone: checked on candidates
    /// during the run, not only on the output.
    pushable: bool,
    /// Bound updates need the source family downward-closed: no required
    /// groups pushed on the source lattice.
    updatable: bool,
}

/// The `J^k_max` states: one per task of the plan, its series started from
/// the `L1` of the lattice that bounds it.
fn jk_states(
    plan: &CfqPlan,
    s_run: &LatticeRun<'_>,
    t_run: &LatticeRun<'_>,
    catalog: &Catalog,
) -> Vec<JkState> {
    let tasks = plan.trace().nodes.iter().flat_map(|node| &node.jk);
    tasks
        .map(|task| {
            let source = if task.pruned == Var::S { t_run } else { s_run };
            JkState {
                series: BoundSeries::from_l1(&source.l1_items(), task.source, catalog),
                pushable: task.is_am(catalog),
                updatable: source.form().required_groups.is_empty(),
                task: task.clone(),
            }
        })
        .collect()
}

/// The bound conditions on `var` at their current values: all of them (the
/// output filter), or only those candidates may be pruned with.
fn bound_conditions(bounds: &[JkState], var: Var, pushable_only: bool) -> Vec<OneVar> {
    bounds
        .iter()
        .filter(|b| b.task.pruned == var && (b.pushable || !pushable_only))
        .map(|b| b.task.condition(b.series.current()))
        .collect()
}

/// Levels ≥ 2 of both lattices. Dovetailed, each level is one shared scan
/// and every level of a bounding lattice tightens the series before the
/// bounded one generates its next candidates. Sequentially (§5.2's
/// alternative) the bounding lattice runs to its end first, so the other
/// starts from the final bound.
fn mine<'c>(
    sub: &mut Substrate<'_>,
    s_run: &mut LatticeRun<'c>,
    t_run: &mut LatticeRun<'c>,
    bounds: &mut [JkState],
    dovetail: bool,
    catalog: &Catalog,
) {
    if dovetail {
        for level in 2.. {
            s_run.set_extra_am(bound_conditions(bounds, Var::S, true));
            t_run.set_extra_am(bound_conditions(bounds, Var::T, true));
            let before = [s_run.levels_done(), t_run.levels_done()];
            if !count_level(sub, level, &mut [&mut *s_run, &mut *t_run]) {
                break;
            }
            update_bounds(bounds, s_run, before[0], catalog);
            update_bounds(bounds, t_run, before[1], catalog);
        }
        return;
    }
    let t_first = bounds.iter().any(|b| b.task.pruned == Var::S) || bounds.is_empty();
    for var in if t_first { [Var::T, Var::S] } else { [Var::S, Var::T] } {
        // Each lattice trims for its own candidates only; start it from
        // the full database again.
        sub.restart_trim();
        let run = if var == Var::S { &mut *s_run } else { &mut *t_run };
        for level in 2.. {
            let before = run.levels_done();
            run.set_extra_am(bound_conditions(bounds, var, true));
            if !count_level(sub, level, &mut [&mut *run]) {
                break;
            }
            update_bounds(bounds, run, before, catalog);
        }
    }
}

/// After a level: if `source`, at `before` levels before it, completed a
/// level ≥ 2, that level refreshes every series `source` feeds.
fn update_bounds(bounds: &mut [JkState], source: &LatticeRun<'_>, before: usize, cat: &Catalog) {
    let after = source.levels_done();
    if after > before && after >= 2 {
        for b in bounds.iter_mut().filter(|b| b.updatable && b.task.pruned != source.var()) {
            b.series.update(&source.frequent().level_sets(after), after, cat);
        }
    }
}

/// One side's output: the run's valid sets that also pass the side's 1-var
/// constraints (all of them — the run pushed what the strategy let it) and
/// every bound condition, the non-anti-monotone ones included, at its
/// final value.
fn collect(
    run: &LatticeRun<'_>,
    plan: &CfqPlan,
    bounds: &[JkState],
    catalog: &Catalog,
) -> Vec<(Itemset, u64)> {
    let one = plan.one_var(run.var());
    let bound = bound_conditions(bounds, run.var(), false);
    let mut sets = run.valid_sets();
    sets.retain(|(s, _)| eval_all_one(one, s, catalog) && eval_all_one(&bound, s, catalog));
    sets
}

/// Counts the next level — `level` — of every run in `runs` over one
/// shared scan of `sub` and hands each its supports; `false` when no run
/// had a candidate left. A counted level is published once, whichever runs
/// it served.
fn count_level(sub: &mut Substrate<'_>, level: usize, runs: &mut [&mut LatticeRun<'_>]) -> bool {
    let started = Instant::now();
    let l1_sizes: Vec<usize> = runs.iter().map(|r| r.frequent().level(1).len()).collect();
    if sub.counts_pairs(level, &l1_sizes) {
        // Level 2 is implicit in L1: the runs hand over their live items
        // and absorb a pair triangle each.
        let items: Vec<Vec<ItemId>> = runs.iter_mut().map(|r| r.next_pair_items()).collect();
        if items.iter().all(|i| i.is_empty()) {
            return false;
        }
        let sides: Vec<&[ItemId]> = items.iter().map(|i| i.as_slice()).collect();
        let pairs = sub.count_pairs(&sides);
        for ((run, items), counts) in runs.iter_mut().zip(&items).zip(&pairs) {
            if !items.is_empty() {
                run.absorb_pair_counts(counts);
            }
        }
    } else {
        let cands: Vec<Vec<Itemset>> = runs.iter_mut().map(|r| r.next_candidates()).collect();
        if cands.iter().all(|c| c.is_empty()) {
            return false;
        }
        let batches: Vec<&[Itemset]> = cands.iter().map(|c| c.as_slice()).collect();
        let counts = sub.count(level, &batches);
        for ((run, cands), counts) in runs.iter_mut().zip(&cands).zip(&counts) {
            if !cands.is_empty() {
                run.absorb_counts(counts);
            }
        }
    }
    let counted_by = sub.publish_level(level, started.elapsed().as_micros() as u64);
    for run in runs.iter_mut().filter(|r| r.levels_done() == level) {
        run.stats_mut().record_backend(sub.backend_name());
        run.stats_mut().label_level(counted_by);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StrategyKind;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::CatalogBuilder;

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

    fn assert_same_answer(src: &str, min_support: u64) {
        let cat = catalog();
        let d = db();
        let q = bind_query(&parse_query(src).unwrap(), &cat).unwrap();
        let env = QueryEnv::new(&d, &cat, min_support);
        let base = Optimizer::apriori_plus().evaluate(&q, &env).unwrap();
        let full = Optimizer::default().evaluate(&q, &env).unwrap();
        let seq = Optimizer { dovetail: false, ..Optimizer::default() }.evaluate(&q, &env).unwrap();
        let one_var = Optimizer::cap_one_var().evaluate(&q, &env).unwrap();
        for (name, o) in
            [("full", &full), ("sequential", &seq), ("cap-1var", &one_var)]
        {
            assert_eq!(o.s_sets, base.s_sets, "`{src}` {name}: S-sets diverge");
            assert_eq!(o.t_sets, base.t_sets, "`{src}` {name}: T-sets diverge");
            assert_eq!(
                o.pair_result.count, base.pair_result.count,
                "`{src}` {name}: pair counts diverge"
            );
            let mut a = o.pair_result.pairs.clone();
            let mut b = base.pair_result.pairs.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "`{src}` {name}: pairs diverge");
        }
    }

    #[test]
    fn equivalence_quasi_succinct_domain() {
        assert_same_answer("S.Type disjoint T.Type", 2);
        assert_same_answer("S.Type = T.Type", 2);
        assert_same_answer("S.Type subset T.Type", 2);
        assert_same_answer("S disjoint T", 3);
    }

    #[test]
    fn equivalence_quasi_succinct_minmax() {
        assert_same_answer("max(S.Price) <= min(T.Price)", 2);
        assert_same_answer("min(S.Price) <= min(T.Price)", 2);
        assert_same_answer("max(S.Price) >= max(T.Price)", 2);
        assert_same_answer("min(S.Price) > max(T.Price)", 2);
    }

    #[test]
    fn equivalence_sum_avg() {
        assert_same_answer("sum(S.Price) <= sum(T.Price)", 2);
        assert_same_answer("sum(S.Price) <= max(T.Price)", 2);
        assert_same_answer("avg(S.Price) <= avg(T.Price)", 2);
        assert_same_answer("avg(S.Price) >= avg(T.Price)", 3);
        assert_same_answer("sum(S.Price) = sum(T.Price)", 2);
    }

    #[test]
    fn equivalence_mixed_queries() {
        assert_same_answer("max(S.Price) <= 40 & min(T.Price) >= 30 & S.Type = T.Type", 2);
        assert_same_answer(
            "S.Type subset {A, B} & max(S.Price) <= min(T.Price) & sum(S.Price) <= sum(T.Price)",
            2,
        );
        assert_same_answer("count(S.Type) = 1 & count(T.Type) = 1 & S.Type != T.Type", 2);
    }

    #[test]
    fn trim_on_off_identical_answers() {
        let cat = catalog();
        let d = db();
        // Cover the dovetail + J^k_max path (sum/sum) and the sequential
        // executor, with every strategy family.
        for src in [
            "sum(S.Price) <= sum(T.Price)",
            "max(S.Price) <= min(T.Price)",
            "S.Type disjoint T.Type",
            "avg(S.Price) <= avg(T.Price) & S.Type = T.Type",
        ] {
            let q = bind_query(&parse_query(src).unwrap(), &cat).unwrap();
            let env_on = QueryEnv::new(&d, &cat, 2);
            let env_off = QueryEnv::new(&d, &cat, 2).with_trim(false);
            for opt in [
                Optimizer::default(),
                Optimizer { dovetail: false, ..Optimizer::default() },
                Optimizer::apriori_plus(),
            ] {
                let on = opt.evaluate(&q, &env_on).unwrap();
                let off = opt.evaluate(&q, &env_off).unwrap();
                assert_eq!(on.s_sets, off.s_sets, "`{src}`: S-sets diverge");
                assert_eq!(on.t_sets, off.t_sets, "`{src}`: T-sets diverge");
                assert_eq!(on.pair_result.pairs, off.pair_result.pairs, "`{src}`");
                assert_eq!(on.v_histories, off.v_histories, "`{src}`: V^k diverges");
                // Trimming never touches the ccc accounting or scan count…
                assert_eq!(on.db_scans, off.db_scans, "`{src}`");
                // …and can only shrink the volume each scan touches.
                assert!(
                    on.scan.items_scanned <= off.scan.items_scanned,
                    "`{src}`: trimmed scan volume grew"
                );
                assert_eq!(off.scan.trim_passes, 0);
            }
        }
    }

    #[test]
    fn backends_identical_answers() {
        let cat = catalog();
        let d = db();
        // Cover the dovetail + J^k_max path (sum/sum), the sequential
        // executor and every strategy family, across all four backends.
        for src in [
            "sum(S.Price) <= sum(T.Price)",
            "max(S.Price) <= min(T.Price)",
            "S.Type disjoint T.Type",
            "avg(S.Price) <= avg(T.Price) & S.Type = T.Type",
        ] {
            let q = bind_query(&parse_query(src).unwrap(), &cat).unwrap();
            for opt in [
                Optimizer::default(),
                Optimizer { dovetail: false, ..Optimizer::default() },
                Optimizer::apriori_plus(),
            ] {
                let base = opt.evaluate(&q, &QueryEnv::new(&d, &cat, 2)).unwrap();
                for b in CountingBackend::all() {
                    let env = QueryEnv::new(&d, &cat, 2).with_backend(b);
                    let got = opt.evaluate(&q, &env).unwrap();
                    assert_eq!(base.s_sets, got.s_sets, "`{src}` {b}: S-sets diverge");
                    assert_eq!(base.t_sets, got.t_sets, "`{src}` {b}: T-sets diverge");
                    assert_eq!(base.pair_result.pairs, got.pair_result.pairs, "`{src}` {b}");
                    assert_eq!(base.v_histories, got.v_histories, "`{src}` {b}: V^k diverges");
                    if b == CountingBackend::Tidset || b == CountingBackend::Bitmap {
                        // A fully vertical run reads the database exactly
                        // once: the index inversion pass.
                        assert_eq!(got.db_scans, 1, "`{src}` {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn scan_extents_match_scan_count() {
        let cat = catalog();
        let d = db();
        let q =
            bind_query(&parse_query("sum(S.Price) <= sum(T.Price)").unwrap(), &cat).unwrap();
        let env = QueryEnv::new(&d, &cat, 2);
        let out = Optimizer::default().evaluate(&q, &env).unwrap();
        assert_eq!(out.scan.extents.len(), out.db_scans as usize);
        assert_eq!(out.scan.extents[0].items, d.total_items() as u64);
        assert!(out
            .scan
            .extents
            .windows(2)
            .all(|w| w[1].items <= w[0].items));
    }

    #[test]
    fn plan_strategies_match_figure1() {
        let cat = catalog();
        let check = |src: &str, expected: StrategyKind| {
            let q = bind_query(&parse_query(src).unwrap(), &cat).unwrap();
            assert_eq!(plan(&q, &cat).trace().nodes[0].strategy, expected, "`{src}`");
        };
        check("S.Type disjoint T.Type", StrategyKind::QuasiSuccinct);
        check("max(S.Price) <= min(T.Price)", StrategyKind::QuasiSuccinct);
        check("avg(S.Price) <= avg(T.Price)", StrategyKind::InducedWeaker);
        check("sum(S.Price) <= sum(T.Price)", StrategyKind::JkmaxIterative);
        check("min(S.Price) != max(T.Price)", StrategyKind::FinalVerifyOnly);
    }

    #[test]
    fn explain_mentions_each_constraint() {
        let cat = catalog();
        let q = bind_query(
            &parse_query("max(S.Price) <= 40 & sum(S.Price) <= sum(T.Price)").unwrap(),
            &cat,
        )
        .unwrap();
        let text = plan(&q, &cat).explain(&Optimizer::default(), &cat);
        assert!(text.contains("J^k_max"));
        assert!(text.contains("1-var constraints: 1 on S"));
    }

    /// One plan, three strategies: EXPLAIN says which of its steps each
    /// runs, and where a step that is off leaves its constraint.
    #[test]
    fn explain_is_rendered_under_the_flags_that_execute_it() {
        let cat = catalog();
        let q = bind_query(
            &parse_query(
                "max(S.Price) <= 30 & max(S.Price) <= min(T.Price) & sum(S.Price) <= sum(T.Price)",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let plan = plan(&q, &cat);
        let text = |name: &str| plan.explain(&Optimizer::from_name(name).unwrap(), &cat);
        let (full, cap1, naive) = (text("full"), text("cap1"), text("apriori+"));

        assert!(full.contains("(pushed via CAP)") && full.contains("[allows 50% of items]"));
        assert!(full.contains("reduced to succinct 1-var conditions after level 1\n"), "{full}");
        assert!(full.contains("J^k_max iterative pruning attached (Figs. 5-6)\n"), "{full}");
        assert!(!full.contains("off under this strategy"), "{full}");

        // cap1 pushes the 1-var constraint and nothing else.
        assert!(cap1.contains("(pushed via CAP)") && cap1.contains("[allows 50% of items]"));
        for text in [&cap1, &naive] {
            assert!(
                text.contains(
                    "max(S.Price) <= min(T.Price)  ->  verified at pair formation only \
                     (quasi-succinct, but reduction is off under this strategy)"
                ),
                "{text}"
            );
            assert!(
                text.contains(
                    "sum(S.Price) <= sum(T.Price)  ->  verified at pair formation only \
                     (J^k_max pruning is off under this strategy)"
                ),
                "{text}"
            );
        }
        assert!(naive.contains("checked on the frequent sets at output"), "{naive}");
        assert!(!naive.contains("pushed via CAP") && !naive.contains("allows"), "{naive}");

        // J^k_max off alone: the reduction stays, the bound goes.
        let no_jk = plan.explain(&Optimizer { use_jkmax: false, ..Optimizer::default() }, &cat);
        assert!(no_jk.contains("reduced to succinct 1-var conditions after level 1\n"), "{no_jk}");
        assert!(
            no_jk.contains(
                "verified at pair formation only (J^k_max pruning is off under this strategy)"
            ),
            "{no_jk}"
        );
    }

    #[test]
    fn jkmax_records_v_history_and_prunes() {
        let cat = catalog();
        let d = db();
        let q = bind_query(&parse_query("sum(S.Price) <= sum(T.Price)").unwrap(), &cat).unwrap();
        let env = QueryEnv::new(&d, &cat, 2);
        let out = Optimizer::default().evaluate(&q, &env).unwrap();
        assert_eq!(out.v_histories.len(), 1);
        let (var, hist) = &out.v_histories[0];
        assert_eq!(*var, Var::S);
        assert!(!hist.is_empty());
        // Lemma 7: non-increasing.
        assert!(hist.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12));
        // Compared to no-jkmax, at most the same number of counted S-sets.
        let no_jk = Optimizer { use_jkmax: false, ..Optimizer::default() }.evaluate(&q, &env).unwrap();
        assert!(out.s_stats.support_counted <= no_jk.s_stats.support_counted);
    }

    #[test]
    fn split_universes_and_supports() {
        let cat = catalog();
        let d = db();
        let q = bind_query(&parse_query("max(S.Price) <= min(T.Price)").unwrap(), &cat).unwrap();
        let env = QueryEnv::new(&d, &cat, 2)
            .with_s_universe(vec![ItemId(0), ItemId(1), ItemId(2)])
            .with_t_universe(vec![ItemId(3), ItemId(4), ItemId(5)])
            .with_supports(2, 1);
        let out = Optimizer::default().evaluate(&q, &env).unwrap();
        for (s, _) in &out.s_sets {
            assert!(s.iter().all(|i| i.0 <= 2));
        }
        for (t, _) in &out.t_sets {
            assert!(t.iter().all(|i| i.0 >= 3));
        }
        let base = Optimizer::apriori_plus().evaluate(&q, &env).unwrap();
        assert_eq!(out.pair_result.count, base.pair_result.count);
    }

    #[test]
    fn max_level_env_caps_depth() {
        let cat = catalog();
        let d = db();
        let q = bind_query(&parse_query("freq(S)").unwrap(), &cat).unwrap();
        let env = QueryEnv::new(&d, &cat, 1).with_max_level(2);
        let out = Optimizer::default().evaluate(&q, &env).unwrap();
        assert!(out.s_sets.iter().all(|(s, _)| s.len() <= 2));
    }
}

#[cfg(test)]
mod jk_soundness_tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::CatalogBuilder;

    /// End-to-end version of the VSeries soundness regression: a heavy
    /// frequent T *pair* with no deeper extension must keep its valid S
    /// partners alive through J^k_max pruning.
    #[test]
    fn jkmax_keeps_partners_of_small_heavy_sets() {
        // Items 0..2 are the S domain (price 150); 3,4 heavy T (100);
        // 5..9 cheap T (1).
        let mut b = CatalogBuilder::new(10);
        b.num_attr(
            "Price",
            vec![150.0, 150.0, 150.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        let cat = b.build();
        // Heavy pair {3,4} frequent; cheap clique {5..9} frequent deep;
        // no transaction mixes heavy and cheap beyond what keeps {3,4}
        // unextendable.
        let db = TransactionDb::from_u32(
            10,
            &[
                &[0, 1, 3, 4],
                &[0, 2, 3, 4],
                &[1, 2, 3, 4],
                &[0, 5, 6, 7, 8, 9],
                &[1, 5, 6, 7, 8, 9],
                &[2, 5, 6, 7, 8, 9],
            ],
        );
        let q = bind_query(&parse_query("sum(S.Price) <= sum(T.Price)").unwrap(), &cat)
            .unwrap();
        let env = QueryEnv::new(&db, &cat, 3)
            .with_s_universe((0..3).map(ItemId).collect())
            .with_t_universe((3..10).map(ItemId).collect());
        let jk = Optimizer::default().evaluate(&q, &env).unwrap();
        let no = Optimizer { use_jkmax: false, ..Optimizer::default() }.evaluate(&q, &env).unwrap();
        assert_eq!(jk.pair_result.count, no.pair_result.count);
        assert_eq!(jk.s_sets, no.s_sets);
        // The S singleton (price 150 > any cheap T sum of ≤ 5 elements)
        // pairs only with the heavy T pair — it must be in the answer.
        assert!(jk.s_sets.iter().any(|(s, _)| s.len() == 1));
    }
}

#[cfg(test)]
mod count_extension_tests {
    use super::*;
    use crate::plan::StrategyKind;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::CatalogBuilder;

    fn setup() -> (TransactionDb, Catalog) {
        let db = TransactionDb::from_u32(
            6,
            &[
                &[0, 1, 2, 3],
                &[0, 1, 2],
                &[1, 2, 3, 4],
                &[0, 2, 4],
                &[0, 1, 3, 5],
                &[2, 3, 4, 5],
                &[0, 1, 2, 3, 4],
            ],
        );
        let mut b = CatalogBuilder::new(6);
        b.cat_attr("Type", &["a", "b", "a", "c", "b", "c"]).unwrap();
        (db, b.build())
    }

    #[test]
    fn count_two_var_matches_baseline() {
        let (db, cat) = setup();
        for src in [
            "count(S.Type) <= count(T.Type)",
            "count(S) <= count(T)",
            "count(S.Type) >= count(T.Type)",
            "count(S) = count(T)",
            "count(S.Type) < count(T)",
        ] {
            let q = bind_query(&parse_query(src).unwrap(), &cat).unwrap();
            for min_support in [2u64, 3] {
                let env = QueryEnv::new(&db, &cat, min_support);
                let base = Optimizer::apriori_plus().evaluate(&q, &env).unwrap();
                let full = Optimizer::default().evaluate(&q, &env).unwrap();
                let seq = Optimizer { dovetail: false, ..Optimizer::default() }.evaluate(&q, &env).unwrap();
                assert_eq!(base.pair_result.count, full.pair_result.count, "`{src}`");
                assert_eq!(base.s_sets, full.s_sets, "`{src}`");
                assert_eq!(base.t_sets, full.t_sets, "`{src}`");
                assert_eq!(base.pair_result.count, seq.pair_result.count, "`{src}`");
            }
        }
    }

    #[test]
    fn count_task_prunes() {
        let (db, cat) = setup();
        // S must have at most as many items as T has types; T types are
        // bounded by the count series, pruning deep S-sets.
        let q = bind_query(&parse_query("count(S) <= count(T.Type)").unwrap(), &cat).unwrap();
        let env = QueryEnv::new(&db, &cat, 2);
        assert_eq!(plan(&q, &cat).trace().nodes[0].strategy, StrategyKind::JkmaxIterative);
        let full = Optimizer::default().evaluate(&q, &env).unwrap();
        let off = Optimizer { use_jkmax: false, ..Optimizer::default() }.evaluate(&q, &env).unwrap();
        assert_eq!(full.pair_result.count, off.pair_result.count);
        assert!(full.s_stats.support_counted <= off.s_stats.support_counted);
        assert!(!full.v_histories.is_empty());
    }
}

#[cfg(test)]
mod parallel_counting_tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::CatalogBuilder;

    /// Parallel counting must be bit-identical to sequential across the
    /// whole pipeline (dovetailed and sequential execution alike).
    #[test]
    fn parallel_counting_is_equivalent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let n_items = 20usize;
        let txs: Vec<Vec<ItemId>> = (0..300)
            .map(|_| {
                (0..rng.gen_range(2..8))
                    .map(|_| ItemId(rng.gen_range(0..n_items as u32)))
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(n_items, txs).unwrap();
        let mut b = CatalogBuilder::new(n_items);
        b.num_attr("Price", (0..n_items).map(|i| (i * 7 % 50) as f64).collect()).unwrap();
        let cat = b.build();
        let q = bind_query(
            &parse_query("max(S.Price) <= min(T.Price) & sum(S.Price) <= sum(T.Price)")
                .unwrap(),
            &cat,
        )
        .unwrap();
        let seq_env = QueryEnv::new(&db, &cat, 5);
        let par_env = QueryEnv::new(&db, &cat, 5).with_counting_threads(0);
        for opt in [
            Optimizer::default(),
            Optimizer { dovetail: false, ..Optimizer::default() },
        ] {
            let a = opt.evaluate(&q, &seq_env).unwrap();
            let b = opt.evaluate(&q, &par_env).unwrap();
            assert_eq!(a.pair_result.count, b.pair_result.count);
            assert_eq!(a.s_sets, b.s_sets);
            assert_eq!(a.t_sets, b.t_sets);
            assert_eq!(a.s_stats.support_counted, b.s_stats.support_counted);
        }
    }
}

#[cfg(test)]
mod env_validation_tests {
    use super::*;
    use cfq_constraints::{bind_query, parse_query};

    #[test]
    fn mismatched_catalog_is_a_typed_error() {
        let db = TransactionDb::from_u32(5, &[&[0, 4]]);
        let cat = Catalog::empty(2);
        let q = bind_query(&parse_query("S disjoint T").unwrap(), &cat).unwrap();
        let err = Optimizer::default()
            .evaluate(&q, &QueryEnv::new(&db, &cat, 1))
            .unwrap_err();
        assert!(matches!(err, CfqError::Engine(_)), "{err}");
        assert!(err.to_string().contains("catalog covers 2 items"), "{err}");
    }
}

