//! The CFQ query optimizer (§6, Figure 7).
//!
//! Given a bound CFQ, the optimizer:
//!
//! 1. separates 1-var and 2-var constraints (done at binding);
//! 2. splits the 2-var constraints into quasi-succinct (`C_qs`) and not
//!    (`C_nqs`); induces weaker quasi-succinct constraints from `C_nqs`
//!    (Figure 4) and adds them to `C_qs`;
//! 3. after the first counting iteration, reduces every constraint in
//!    `C_qs` to succinct 1-var pruning conditions (Figures 2–3) and pushes
//!    them into the CAP lattices;
//! 4. for `C_nqs` constraints bounded by a `sum`, attaches `J^k_max`
//!    iterative pruning (§5.2) to the bounded lattice, fed by the bounding
//!    lattice's levels as the two lattices are computed *dovetailed* over
//!    shared database scans;
//! 5. forms the final pairs, re-verifying every original 2-var constraint
//!    (which also absorbs the non-tight and induced-weaker looseness).
//!
//! Setting all three `push_*` flags to `false` yields exactly the Apriori⁺
//! baseline; `push_one_var` alone yields the CAP-1-var strategy the paper
//! compares against in §7.2.

use crate::cap::{LatticeConfig, LatticeRun};
use crate::jkmax::{CountSeries, VSeries};
use crate::pairs::{form_pairs, pair_up, PairResult};
use cfq_constraints::{
    classify_two, eval_all_one, induce_weaker, reduce_quasi_succinct, Agg, BoundQuery, CmpOp,
    OneVar, SuccinctForm, TwoVar, Var,
};
use cfq_mining::{CountingBackend, ScanStats, Substrate, WorkStats};
use cfq_types::{AttrId, Catalog, CfqError, ItemId, Itemset, Result, TransactionDb};
use std::time::Instant;

/// How a 2-var constraint ends up being handled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrategyKind {
    /// Reduced to succinct 1-var conditions after level 1 (Figures 2–3).
    QuasiSuccinct,
    /// A weaker quasi-succinct constraint was induced and reduced (Fig. 4).
    InducedWeaker,
    /// `J^k_max` iterative pruning attached (§5.2).
    JkmaxIterative,
    /// Only verified at pair formation.
    FinalVerifyOnly,
}

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

    fn universe(&self, var: Var) -> Vec<ItemId> {
        let u = match var {
            Var::S => &self.s_universe,
            Var::T => &self.t_universe,
        };
        if u.is_empty() {
            (0..self.db.n_items() as u32).map(ItemId).collect()
        } else {
            u.clone()
        }
    }

    fn min_support(&self, var: Var) -> u64 {
        match var {
            Var::S => self.s_min_support,
            Var::T => self.t_min_support,
        }
    }
}

/// What an iterative bound task prunes with: a `sum(T.B)` bound (the
/// paper's §5.2) or a `count(distinct T.B)` bound (the 2-var count
/// extension).
#[derive(Clone, Debug)]
enum BoundTarget {
    /// `bounded_agg(S.attr) op V`, `V` from the partner's sum series.
    Sum { bounded_agg: Agg, bounded_attr: AttrId, source_attr: AttrId },
    /// `count(S.attr) op C`, `C` from the partner's count series.
    Count { bounded_attr: Option<AttrId>, source_attr: Option<AttrId> },
}

/// An iterative pruning task: the `pruned` variable's candidates are
/// bounded through the partner lattice's evolving series.
#[derive(Clone, Debug)]
struct JkTask {
    pruned: Var,
    /// `Le` or `Lt`, oriented as `bounded(pruned) op BOUND`.
    op: CmpOp,
    target: BoundTarget,
}

impl JkTask {
    /// Whether the per-candidate bound check is anti-monotone (pushable
    /// during the run, not just at output).
    fn is_am(&self, catalog: &Catalog) -> bool {
        match &self.target {
            BoundTarget::Sum { bounded_agg, bounded_attr, .. } => match bounded_agg {
                Agg::Max => true,
                Agg::Sum => catalog
                    .column_min_num(*bounded_attr)
                    .map(|m| m >= 0.0)
                    .unwrap_or(true),
                Agg::Min | Agg::Avg => false,
            },
            // count(X) ≤ c is always anti-monotone.
            BoundTarget::Count { .. } => true,
        }
    }

    fn condition(&self, value: f64) -> OneVar {
        match &self.target {
            BoundTarget::Sum { bounded_agg, bounded_attr, .. } => OneVar::AggCmp {
                var: self.pruned,
                agg: *bounded_agg,
                attr: *bounded_attr,
                op: self.op,
                value,
            },
            BoundTarget::Count { bounded_attr, .. } => OneVar::CountCmp {
                var: self.pruned,
                attr: *bounded_attr,
                op: self.op,
                value,
            },
        }
    }

    fn make_series(&self, source_l1: &[ItemId], catalog: &Catalog) -> Series {
        match &self.target {
            BoundTarget::Sum { source_attr, .. } => {
                Series::Sum(VSeries::from_l1(source_l1, *source_attr, catalog))
            }
            BoundTarget::Count { source_attr, .. } => {
                Series::Count(CountSeries::from_l1(source_l1, *source_attr, catalog))
            }
        }
    }
}

/// Either bound series, unified for the executor.
enum Series {
    Sum(VSeries),
    Count(CountSeries),
}

impl Series {
    fn current(&self) -> f64 {
        match self {
            Series::Sum(v) => v.current(),
            Series::Count(c) => c.current(),
        }
    }

    fn update(&mut self, level_sets: &[Itemset], k: usize, catalog: &Catalog) {
        match self {
            Series::Sum(v) => v.update(level_sets, k, catalog),
            Series::Count(c) => c.update(level_sets, k, catalog),
        }
    }

    fn history(&self) -> &[(usize, f64)] {
        match self {
            Series::Sum(v) => v.history(),
            Series::Count(c) => c.history(),
        }
    }
}

/// Public summary of an iterative bound task (the executable details stay
/// in the private `JkTask`): enough for static auditing of the §5.2
/// obligations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JkSummary {
    /// The variable whose candidates the task prunes.
    pub pruned: Var,
    /// The comparison direction, oriented `bounded(pruned) op BOUND`.
    pub op: CmpOp,
}

/// One step of the optimizer's rewrite trace: how a single original 2-var
/// constraint was handled, with everything a static auditor needs to
/// re-check the paper's per-rewrite obligations (Figs. 2–4, §5.2).
#[derive(Clone, Debug)]
pub struct TraceNode {
    /// The original 2-var constraint.
    pub constraint: TwoVar,
    /// The strategy the optimizer chose for it.
    pub strategy: StrategyKind,
    /// Constraints sent to the quasi-succinct reduction on its behalf: the
    /// constraint itself for [`StrategyKind::QuasiSuccinct`], the induced
    /// weaker constraints for [`StrategyKind::InducedWeaker`].
    pub pushed: Vec<TwoVar>,
    /// `J^k_max` iterative pruning tasks attached to this constraint.
    pub jk: Vec<JkSummary>,
    /// Whether the constraint is re-evaluated at pair formation. Every
    /// plan the optimizer emits sets this; a plan without it loses answers
    /// whenever an upstream rewrite was not tight.
    pub reverified: bool,
}

/// The optimizer's rewrite trace — what [`Optimizer::build_plan`] decided, in a
/// form `cfq-audit` can walk without executing anything. Fields are public
/// so tests can doctor a trace (e.g. clear a `reverified` flag) and check
/// that the auditor rejects it.
#[derive(Clone, Debug, Default)]
pub struct PlanTrace {
    /// 1-var constraints pushed on the S side.
    pub s_one: Vec<OneVar>,
    /// 1-var constraints pushed on the T side.
    pub t_one: Vec<OneVar>,
    /// One rewrite node per original 2-var constraint, in query order.
    pub nodes: Vec<TraceNode>,
    /// The 2-var constraints checked during final pair formation.
    pub final_two: Vec<TwoVar>,
}

/// The optimizer's output plan for one CFQ.
#[derive(Clone, Debug)]
pub struct CfqPlan {
    s_one: Vec<OneVar>,
    t_one: Vec<OneVar>,
    /// Quasi-succinct constraints to reduce after level 1 (original QS plus
    /// induced weaker ones).
    qs_two: Vec<TwoVar>,
    /// All original 2-var constraints (verified at pair formation).
    final_two: Vec<TwoVar>,
    jk_tasks: Vec<JkTask>,
    /// `(constraint, strategy)` per original 2-var constraint.
    strategies: Vec<(TwoVar, StrategyKind)>,
    /// The auditable rewrite trace mirroring the fields above.
    trace: PlanTrace,
}

impl CfqPlan {
    /// Human-readable plan description (the optimizer's EXPLAIN).
    pub fn explain(&self, catalog: &Catalog) -> String {
        let mut out = String::from("CFQ plan\n========\n");
        out.push_str(&format!(
            "1-var constraints: {} on S, {} on T (pushed via CAP)\n",
            self.s_one.len(),
            self.t_one.len()
        ));
        for c in &self.s_one {
            out.push_str(&format!("  [S] {}{}\n", c.display(catalog), selectivity_note(c, catalog)));
        }
        for c in &self.t_one {
            out.push_str(&format!("  [T] {}{}\n", c.display(catalog), selectivity_note(c, catalog)));
        }
        out.push_str(&format!("2-var constraints: {}\n", self.strategies.len()));
        for (c, s) in &self.strategies {
            let how = match s {
                StrategyKind::QuasiSuccinct => {
                    "quasi-succinct: reduced to succinct 1-var conditions after level 1"
                }
                StrategyKind::InducedWeaker => {
                    "not quasi-succinct: weaker constraint induced (Fig. 4) and reduced"
                }
                StrategyKind::JkmaxIterative => {
                    "sum-bounded: J^k_max iterative pruning attached (Figs. 5-6)"
                }
                StrategyKind::FinalVerifyOnly => "verified at pair formation only",
            };
            out.push_str(&format!("  {}  ->  {how}\n", c.display(catalog)));
        }
        out.push_str(&format!(
            "final verification: {} 2-var constraint(s) at pair formation\n",
            self.final_two.len()
        ));
        out
    }

    /// The strategies chosen per original 2-var constraint.
    pub fn strategies(&self) -> &[(TwoVar, StrategyKind)] {
        &self.strategies
    }

    /// The auditable rewrite trace of this plan.
    pub fn trace(&self) -> &PlanTrace {
        &self.trace
    }
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
}

impl OutcomeProvenance {
    /// The EXPLAIN lines describing cache provenance (appended to
    /// [`CfqPlan::explain`] by `Session::explain`).
    pub fn render(&self) -> String {
        format!(
            "lattice provenance:\n  [S] {}\n  [T] {}\n  plan: {}\n",
            self.s_lattice.describe(),
            self.t_lattice.describe(),
            if self.plan_cached { "plan cache hit" } else { "planned this run" },
        )
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

/// The CFQ query optimizer. Flags select the strategy family; defaults are
/// the full optimizer of Figure 7.
///
/// The type plays two roles: a *flag set* naming a strategy family
/// (what `Session::query(..).strategy(..)` and `QueryRequest` carry —
/// use the [`Strategy`] alias there) and the *executor* of the one-shot
/// paper pipeline ([`Optimizer::build_plan`] / [`Optimizer::evaluate`] /
/// [`Optimizer::execute_plan`]).
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

/// The preferred name for [`Optimizer`] used *as a strategy-family flag
/// set* (in `QueryRequest`, `Session::query(..).strategy(..)`, and the
/// wire protocol) rather than as the one-shot executor. Same type, one
/// name per role.
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

    /// Builds the plan from the catalog alone — planning never touches the
    /// data, which is what lets `cfq audit` verify plans statically and the
    /// session engine cache plans across database epochs.
    pub fn build_plan(&self, query: &BoundQuery, catalog: &Catalog) -> CfqPlan {
        let s_one: Vec<OneVar> = query.one_var_for(Var::S).cloned().collect();
        let t_one: Vec<OneVar> = query.one_var_for(Var::T).cloned().collect();
        let final_two = query.two_var.clone();
        let mut qs_two = Vec::new();
        let mut jk_tasks = Vec::new();
        let mut strategies = Vec::new();
        let mut nodes = Vec::new();

        for c in &query.two_var {
            let mut kind = StrategyKind::FinalVerifyOnly;
            let mut pushed = Vec::new();
            let mut jk = Vec::new();
            if classify_two(c).quasi_succinct {
                qs_two.push(c.clone());
                pushed.push(c.clone());
                kind = StrategyKind::QuasiSuccinct;
            } else {
                let weaker = induce_weaker(c, catalog);
                if !weaker.is_empty() {
                    pushed.extend(weaker.iter().cloned());
                    qs_two.extend(weaker);
                    kind = StrategyKind::InducedWeaker;
                }
                for task in jk_tasks_for(c, catalog) {
                    jk.push(JkSummary { pruned: task.pruned, op: task.op });
                    jk_tasks.push(task);
                    kind = StrategyKind::JkmaxIterative;
                }
            }
            strategies.push((c.clone(), kind));
            nodes.push(TraceNode {
                constraint: c.clone(),
                strategy: kind,
                pushed,
                jk,
                reverified: final_two.contains(c),
            });
        }

        let trace = PlanTrace {
            s_one: s_one.clone(),
            t_one: t_one.clone(),
            nodes,
            final_two: final_two.clone(),
        };
        CfqPlan { s_one, t_one, qs_two, final_two, jk_tasks, strategies, trace }
    }

    /// Plans and executes in one step, reporting environment problems as
    /// typed errors instead of panicking.
    pub fn evaluate(&self, query: &BoundQuery, env: &QueryEnv<'_>) -> Result<ExecutionOutcome> {
        let plan = self.build_plan(query, env.catalog);
        self.execute_plan(&plan, env)
    }

    /// Executes a plan. Fails with [`CfqError::Engine`] when the catalog
    /// covers fewer items than the database references — an inconsistent
    /// environment that would otherwise surface as an opaque index panic
    /// deep inside constraint evaluation.
    pub fn execute_plan(&self, plan: &CfqPlan, env: &QueryEnv<'_>) -> Result<ExecutionOutcome> {
        if env.catalog.n_items() < env.db.n_items() {
            return Err(CfqError::Engine(format!(
                "catalog covers {} items but the database references up to {}",
                env.catalog.n_items(),
                env.db.n_items()
            )));
        }
        let catalog = env.catalog;
        let mut sub = Substrate::new(env.db, env.backend, env.trim, env.counting_threads);

        let make_run = |var: Var| {
            let pushed: Vec<OneVar> = if self.push_one_var {
                match var {
                    Var::S => plan.s_one.clone(),
                    Var::T => plan.t_one.clone(),
                }
            } else {
                Vec::new()
            };
            let form = SuccinctForm::compile(&pushed, catalog);
            LatticeRun::new(
                LatticeConfig {
                    var,
                    universe: env.universe(var),
                    min_support: env.min_support(var),
                    max_level: env.max_level,
                },
                form,
                catalog,
            )
        };
        let mut s_run = make_run(Var::S);
        let mut t_run = make_run(Var::T);

        // ---- Level 1 (read off the database's item-support column) ----
        if self.dovetail {
            count_level(&mut sub, 1, &mut [&mut s_run, &mut t_run]);
        } else {
            count_level(&mut sub, 1, &mut [&mut s_run]);
            count_level(&mut sub, 1, &mut [&mut t_run]);
        }

        let l1s = s_run.l1_items();
        let l1t = t_run.l1_items();

        // ---- Quasi-succinct reduction (the Fig. 7 "Reduction" box) ----
        if self.push_two_var {
            let mut s_conds = Vec::new();
            let mut t_conds = Vec::new();
            for c in &plan.qs_two {
                if let Some(r) = reduce_quasi_succinct(c, &l1s, &l1t, catalog) {
                    s_conds.extend(r.s_conds);
                    t_conds.extend(r.t_conds);
                }
            }
            if !s_conds.is_empty() {
                s_run.push_conditions(&s_conds);
            }
            if !t_conds.is_empty() {
                t_run.push_conditions(&t_conds);
            }
        }

        // ---- J^k_max state ----
        let mut jk_states: Vec<JkState> = if self.use_jkmax {
            plan.jk_tasks
                .iter()
                .map(|task| {
                    let (source_l1, source_run) = match task.pruned {
                        Var::S => (&l1t, &t_run),
                        Var::T => (&l1s, &s_run),
                    };
                    JkState {
                        series: task.make_series(source_l1, catalog),
                        updatable: source_run.form().required_groups.is_empty(),
                        task: task.clone(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };

        let jk_am_conds = |states: &[JkState], var: Var, catalog: &Catalog| -> Vec<OneVar> {
            states
                .iter()
                .filter(|st| st.task.pruned == var && st.task.is_am(catalog))
                .map(|st| st.task.condition(st.series.current()))
                .collect()
        };

        // ---- Levels ≥ 2 ----
        if self.dovetail {
            for level in 2.. {
                s_run.set_extra_am(jk_am_conds(&jk_states, Var::S, catalog));
                t_run.set_extra_am(jk_am_conds(&jk_states, Var::T, catalog));
                let (s_before, t_before) = (s_run.levels_done(), t_run.levels_done());
                if !count_level(&mut sub, level, &mut [&mut s_run, &mut t_run]) {
                    break;
                }
                update_jk(&mut jk_states, &s_run, &t_run, s_before, t_before, catalog);
            }
        } else {
            // Sequential: the bounding lattice first (so the bound series is
            // complete before the bounded lattice runs), then the other.
            let t_first = jk_states.iter().any(|st| st.task.pruned == Var::S)
                || jk_states.is_empty();
            let order: [Var; 2] = if t_first { [Var::T, Var::S] } else { [Var::S, Var::T] };
            for var in order {
                // Each lattice trims for its own candidates only; start it
                // from the full database again.
                sub.restart_trim();
                for level in 2.. {
                    let (s_before, t_before) = (s_run.levels_done(), t_run.levels_done());
                    let run = match var {
                        Var::S => &mut s_run,
                        Var::T => &mut t_run,
                    };
                    run.set_extra_am(jk_am_conds(&jk_states, var, catalog));
                    if !count_level(&mut sub, level, &mut [run]) {
                        break;
                    }
                    update_jk(&mut jk_states, &s_run, &t_run, s_before, t_before, catalog);
                }
            }
        }
        let Substrate { db_scans, scan, .. } = sub;

        // ---- Outputs ----
        // J^k_max conditions (including the non-anti-monotone ones) become
        // output filters at their final bound values.
        let jk_out = |states: &[JkState], var: Var| -> Vec<OneVar> {
            states
                .iter()
                .filter(|st| st.task.pruned == var)
                .map(|st| st.task.condition(st.series.current()))
                .collect()
        };
        let jk_s = jk_out(&jk_states, Var::S);
        let jk_t = jk_out(&jk_states, Var::T);

        let collect = |run: &LatticeRun<'_>, one: &[OneVar], jk: &[OneVar]| {
            run.valid_sets()
                .into_iter()
                .filter(|(s, _)| eval_all_one(one, s, catalog) && eval_all_one(jk, s, catalog))
                .collect::<Vec<_>>()
        };
        // Without 1-var pushing the constraint check on every frequent set
        // is the Apriori⁺ post-pass; account for it.
        if !self.push_one_var {
            let s_checks = s_run.frequent().total() as u64 * plan.s_one.len() as u64;
            let t_checks = t_run.frequent().total() as u64 * plan.t_one.len() as u64;
            s_run.stats_mut().record_checks(s_checks);
            t_run.stats_mut().record_checks(t_checks);
        }
        let s_sets = collect(&s_run, &plan.s_one, &jk_s);
        let t_sets = collect(&t_run, &plan.t_one, &jk_t);

        if !env.form_pairs {
            let empty = form_pairs(&[], &[], &plan.final_two, catalog, Some(0));
            return Ok(ExecutionOutcome {
                s_sets,
                t_sets,
                pair_result: empty,
                s_stats: s_run.stats().clone(),
                t_stats: t_run.stats().clone(),
                db_scans,
                scan,
                v_histories: jk_states
                    .into_iter()
                    .map(|st| (st.task.pruned, st.series.history().to_vec()))
                    .collect(),
                provenance: OutcomeProvenance::default(),
            });
        }
        // Pairing also restricts the reported sets to Definition 3's
        // *frequent valid* sets, which makes every strategy's output
        // identical regardless of how much of the validity pruning it
        // performed during mining.
        let (s_sets, t_sets, pair_result) =
            pair_up(s_sets, t_sets, &plan.final_two, catalog, env.max_pairs);

        Ok(ExecutionOutcome {
            s_sets,
            t_sets,
            pair_result,
            s_stats: s_run.stats().clone(),
            t_stats: t_run.stats().clone(),
            db_scans,
            scan,
            v_histories: jk_states
                .into_iter()
                .map(|st| (st.task.pruned, st.series.history().to_vec()))
                .collect(),
            provenance: OutcomeProvenance::default(),
        })
    }
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

/// Estimated item-level selectivity of a pushed 1-var constraint: how the
/// compiled form restricts or requires items, as a fraction of the catalog.
/// A first step toward the paper's open problem 2 (cost models for CFQs) —
/// today it informs the EXPLAIN output; a cost-based optimizer would
/// consume the same numbers.
fn selectivity_note(c: &OneVar, catalog: &Catalog) -> String {
    let form = SuccinctForm::compile(std::slice::from_ref(c), catalog);
    let n = catalog.n_items().max(1) as f64;
    let mut notes = Vec::new();
    if let Some(a) = &form.allowed {
        notes.push(format!("allows {:.0}% of items", 100.0 * a.len() as f64 / n));
    }
    for g in &form.required_groups {
        notes.push(format!("requires 1 of {} items", g.len()));
    }
    if !form.residual_am.is_empty() {
        notes.push("anti-monotone check per candidate".to_string());
    }
    if !form.post_filters.is_empty() {
        notes.push("post filter".to_string());
    }
    if notes.is_empty() {
        String::new()
    } else {
        format!("  [{}]", notes.join("; "))
    }
}

/// Derives the `J^k_max` tasks of a non-quasi-succinct aggregate
/// constraint: one per side bounded by a `sum` over a non-negative domain.
fn jk_tasks_for(c: &TwoVar, catalog: &Catalog) -> Vec<JkTask> {
    let mut out = Vec::new();
    match c {
        TwoVar::AggCmp { s_agg, s_attr, op, t_agg, t_attr } => {
            let nonneg = |attr: AttrId| {
                catalog.column_min_num(attr).map(|m| m >= 0.0).unwrap_or(true)
            };
            let mut push =
                |pruned: Var, bounded_agg: Agg, bounded_attr: AttrId, op: CmpOp, source: AttrId| {
                    if nonneg(source) {
                        out.push(JkTask {
                            pruned,
                            op,
                            target: BoundTarget::Sum { bounded_agg, bounded_attr, source_attr: source },
                        });
                    }
                };
            match op {
                CmpOp::Le | CmpOp::Lt if *t_agg == Agg::Sum => {
                    push(Var::S, *s_agg, *s_attr, *op, *t_attr);
                }
                CmpOp::Ge | CmpOp::Gt if *s_agg == Agg::Sum => {
                    push(Var::T, *t_agg, *t_attr, op.mirror(), *s_attr);
                }
                CmpOp::Eq => {
                    if *t_agg == Agg::Sum {
                        push(Var::S, *s_agg, *s_attr, CmpOp::Le, *t_attr);
                    }
                    if *s_agg == Agg::Sum {
                        push(Var::T, *t_agg, *t_attr, CmpOp::Le, *s_attr);
                    }
                }
                _ => {}
            }
        }
        // 2-var count comparisons (language extension): the bounded side is
        // pruned through the partner's count series; no domain assumption
        // needed (count is non-negative by construction).
        TwoVar::CountCmp { s_attr, op, t_attr } => match op {
            CmpOp::Le | CmpOp::Lt => out.push(JkTask {
                pruned: Var::S,
                op: *op,
                target: BoundTarget::Count { bounded_attr: *s_attr, source_attr: *t_attr },
            }),
            CmpOp::Ge | CmpOp::Gt => out.push(JkTask {
                pruned: Var::T,
                op: op.mirror(),
                target: BoundTarget::Count { bounded_attr: *t_attr, source_attr: *s_attr },
            }),
            CmpOp::Eq => {
                out.push(JkTask {
                    pruned: Var::S,
                    op: CmpOp::Le,
                    target: BoundTarget::Count { bounded_attr: *s_attr, source_attr: *t_attr },
                });
                out.push(JkTask {
                    pruned: Var::T,
                    op: CmpOp::Le,
                    target: BoundTarget::Count { bounded_attr: *t_attr, source_attr: *s_attr },
                });
            }
            CmpOp::Ne => {}
        },
        TwoVar::Domain { .. } => {}
    }
    out
}

/// Live state of one iterative-bound task during execution.
struct JkState {
    task: JkTask,
    series: Series,
    /// Bound updates need the source family downward-closed: no required
    /// groups pushed on the source lattice.
    updatable: bool,
}

/// After absorbing a level, refresh the `V` series whose source lattice
/// just completed a level ≥ 2.
fn update_jk(
    states: &mut [JkState],
    s_run: &LatticeRun<'_>,
    t_run: &LatticeRun<'_>,
    s_before: usize,
    t_before: usize,
    catalog: &Catalog,
) {
    for st in states.iter_mut() {
        let (run, before) = match st.task.pruned {
            Var::S => (t_run, t_before),
            Var::T => (s_run, s_before),
        };
        let after = run.levels_done();
        if st.updatable && after > before && after >= 2 {
            let level_sets = run.frequent().level_sets(after);
            st.series.update(&level_sets, after, catalog);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let plan = Optimizer::default().build_plan(&q, &cat);
            assert_eq!(plan.strategies()[0].1, expected, "`{src}`");
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
        let plan = Optimizer::default().build_plan(&q, &cat);
        let text = plan.explain(&cat);
        assert!(text.contains("J^k_max"));
        assert!(text.contains("1-var constraints: 1 on S"));
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
        let plan = Optimizer::default().build_plan(&q, &cat);
        assert_eq!(plan.strategies()[0].1, StrategyKind::JkmaxIterative);
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

