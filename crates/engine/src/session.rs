//! The fluent query API: `Session::query(..).min_support(..).run()`.
//!
//! A [`Session`] is a cheap handle on an [`Engine`]. The canonical query
//! shape is a [`QueryRequest`] — [`QueryBuilder`] is sugar that fills one
//! in, and [`Session::execute`] is the single entry point both feed
//! into. Each execution takes a scheduler admission slot, snapshots the
//! engine's current epoch, plans through the plan cache, and serves each
//! variable's lattice cache-first:
//!
//! * the *effective universe* of a variable is its domain after the
//!   succinct allowed-item filter of its 1-var constraints, narrowed —
//!   when the plan pushes a 2-var constraint — by the reduced conditions
//!   (Figs. 2–3) that are `allowed` filters too, read off both sides'
//!   frequent items: a restriction that drops no set of a valid pair and
//!   keeps the lattice over it complete and reusable;
//! * a cached **complete** lattice over any superset of the effective
//!   universe's frequent items at any equal-or-lower threshold is filtered
//!   down (level, support, an item-membership bitset of those items, then
//!   whatever of the compiled 1-var form membership cannot decide) instead
//!   of re-mined; a miss mines and caches the whole effective universe;
//! * a cached lattice holds levels ≥ 2; level 1 is read off the epoch's
//!   item-support column, which is exact for any universe and threshold
//!   the lattice serves;
//! * a cold miss goes through the scheduler's single-flight groups, so a
//!   miss joins one already mining the same universe at a support no
//!   higher than its own instead of mining again;
//! * final pair formation re-verifies every original 2-var constraint
//!   and the answer is compacted to the sets participating in a valid
//!   pair — the same step the one-shot [`Optimizer`] ends with, which is
//!   why the cached path returns bit-identical answers to every mining
//!   strategy, including a fully cold run.
//!
//! A warm re-run of a query therefore performs **zero database scans**
//! (`outcome.db_scans == 0`), the property
//! `tests/engine_props.rs::warm_answer_equals_bypass_answer` and the
//! benchmark's `warm_refine` `db_scans` check assert. The converse does not
//! hold: level 1 is read off the database's item-support column, so a cold
//! run whose sides each keep fewer than two frequent items mines without
//! passing over a row. Where a lattice came from is what
//! `outcome.provenance` says, not what `db_scans` implies.

use crate::cache::is_superset;
use crate::engine::{plan_fingerprint, Engine, EpochState};
use crate::request::QueryRequest;
use cfq_constraints::{bind_query, parse_query, SuccinctForm, Var};
use cfq_core::{
    domain_or_all, plan, reduce, CfqPlan, ExecutionOutcome, LatticeSource, Optimizer,
    OutcomeProvenance, QueryEnv,
};
use cfq_mining::WorkStats;
use cfq_obs as obs;
use cfq_types::{intersect_sorted, Catalog, ItemBits, ItemId, Itemset, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A handle for running queries against an [`Engine`]. Cheap to clone;
/// open one per thread of work.
#[derive(Clone)]
pub struct Session {
    engine: Arc<Engine>,
}

impl Session {
    pub(crate) fn new(engine: Arc<Engine>) -> Session {
        Session { engine }
    }

    /// Starts a query from CFQ text, e.g.
    /// `"max(S.Price) <= 30 & min(T.Price) >= 40"`. Configure with the
    /// builder methods, then [`QueryBuilder::run`] or
    /// [`QueryBuilder::explain`].
    pub fn query(&self, text: &str) -> QueryBuilder {
        QueryBuilder { engine: Arc::clone(&self.engine), req: QueryRequest::new(text) }
    }

    /// Runs a fully-specified [`QueryRequest`] — the entry point the
    /// builder, the wire protocol, and programmatic callers share.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryOutcome> {
        execute(&self.engine, req)
    }

    /// Plans `req` and renders the EXPLAIN text without executing (and
    /// without taking an admission slot).
    pub fn explain(&self, req: &QueryRequest) -> Result<String> {
        explain(&self.engine, req)
    }

    /// The engine this session runs against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

/// A fixed-size, round-robin pool of [`Session`]s over one engine.
///
/// Serving stacks hand every request `pool.session()` instead of opening
/// a session per connection: scheduler fairness (admission order,
/// single-flight) is then per-*request*, and a connection that never speaks
/// again holds no query state.
pub struct SessionPool {
    sessions: Vec<Session>,
    next: AtomicUsize,
}

impl SessionPool {
    /// A pool of `size` sessions (at least 1) on `engine`.
    pub fn new(engine: &Arc<Engine>, size: usize) -> SessionPool {
        let size = size.max(1);
        SessionPool {
            sessions: (0..size).map(|_| engine.session()).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// The next session, round-robin.
    pub fn session(&self) -> &Session {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        &self.sessions[i % self.sessions.len()]
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        self.sessions[0].engine()
    }
}

/// Fluent configuration of one query — a thin front-end that fills in a
/// [`QueryRequest`]; terminal methods are [`QueryBuilder::run`] and
/// [`QueryBuilder::explain`].
#[derive(Clone)]
pub struct QueryBuilder {
    engine: Arc<Engine>,
    req: QueryRequest,
}

impl QueryBuilder {
    /// Absolute minimum support for both variables.
    pub fn min_support(mut self, support: u64) -> Self {
        self.req.support = crate::request::SupportSpec::Abs(support, support);
        self
    }

    /// Minimum support as a fraction of the transaction count (the
    /// default is 1%).
    pub fn min_support_frac(mut self, frac: f64) -> Self {
        self.req.support = crate::request::SupportSpec::Frac(frac);
        self
    }

    /// Distinct absolute thresholds for S and T.
    pub fn supports(mut self, s: u64, t: u64) -> Self {
        self.req.support = crate::request::SupportSpec::Abs(s, t);
        self
    }

    /// Restricts the S domain (empty = all items). Order is normalized.
    pub fn s_universe(mut self, items: Vec<ItemId>) -> Self {
        self.req.s_universe = items;
        self
    }

    /// Restricts the T domain (empty = all items). Order is normalized.
    pub fn t_universe(mut self, items: Vec<ItemId>) -> Self {
        self.req.t_universe = items;
        self
    }

    /// Caps the lattice depth (0 = unbounded). Capped queries can still
    /// *hit* the cache or join a single-flight group, but their own cold
    /// minings are not cached — a truncated family is not complete.
    pub fn max_level(mut self, max_level: usize) -> Self {
        self.req.max_level = max_level;
        self
    }

    /// Caps pair materialization (`None` = materialize all).
    pub fn max_pairs(mut self, max_pairs: usize) -> Self {
        self.req.max_pairs = Some(max_pairs);
        self
    }

    /// Selects the strategy family: which steps of the plan a
    /// [`QueryBuilder::bypass_cache`] run executes, and what EXPLAIN says
    /// of them. The plan itself is the same under every strategy, and so
    /// are the answers, by final pair verification. The cached path (the
    /// default) runs the same steps whatever the strategy: it narrows each
    /// side by the plan's 1-var `allowed` filter and its Figs. 2–3
    /// reductions, and a miss mines the narrowed universe with plain
    /// Apriori — no required groups, no `J^k_max`, which would leave a
    /// lattice complete over no universe.
    pub fn strategy(mut self, strategy: Optimizer) -> Self {
        self.req.strategy = strategy;
        self
    }

    /// Executes this query as a one-shot [`Optimizer`] run against the
    /// epoch snapshot — no lattice cache lookups, insertions, or
    /// single-flight groups. The plan cache is still used (plans never
    /// read the data). This is the knob benchmarks use to compare the
    /// cached path against the paper's per-query strategies.
    pub fn bypass_cache(mut self) -> Self {
        self.req.bypass_cache = true;
        self
    }

    /// The accumulated [`QueryRequest`] — what [`QueryBuilder::run`]
    /// will execute; serialize it with `to_json` to replay elsewhere.
    pub fn request(&self) -> &QueryRequest {
        &self.req
    }

    /// Plans the query and renders the EXPLAIN text, including predicted
    /// cache provenance for both lattices. Does not touch the data or
    /// perturb cache counters.
    pub fn explain(&self) -> Result<String> {
        explain(&self.engine, &self.req)
    }

    /// Runs the query and returns the outcome together with the epoch it
    /// was answered at.
    pub fn run(self) -> Result<QueryOutcome> {
        execute(&self.engine, &self.req)
    }
}

/// The universe `req` names for `var` (empty = every item).
fn requested(req: &QueryRequest, var: Var) -> &[ItemId] {
    match var {
        Var::S => &req.s_universe,
        Var::T => &req.t_universe,
    }
}

/// `var`'s domain in `req`, or every item the catalog describes.
fn domain(req: &QueryRequest, var: Var, catalog: &Catalog) -> Vec<ItemId> {
    domain_or_all(requested(req, var), catalog.n_items())
}

/// What a validated request comes to on one snapshot, before any lattice
/// is touched.
struct Prepared {
    plan: Arc<CfqPlan>,
    plan_cached: bool,
    fingerprint: u64,
    s_sup: u64,
    t_sup: u64,
}

/// Parses and binds `req` against `snap`, plans it through the plan cache
/// and resolves its thresholds.
fn prepare(engine: &Arc<Engine>, req: &QueryRequest, snap: &EpochState) -> Result<Prepared> {
    let bound = bind_query(&parse_query(&req.query)?, &snap.catalog)?;
    let fingerprint = plan_fingerprint(&bound, &snap.catalog);
    let (plan, plan_cached) = engine.plan_for(fingerprint, || plan(&bound, &snap.catalog));
    let (s_sup, t_sup) = req.support.resolve(snap.db.len())?;
    Ok(Prepared { plan, plan_cached, fingerprint, s_sup, t_sup })
}

/// Plans `req` and renders the EXPLAIN text with predicted provenance.
pub(crate) fn explain(engine: &Arc<Engine>, req: &QueryRequest) -> Result<String> {
    req.validate()?;
    let snap = engine.snapshot();
    let Prepared { plan, plan_cached, s_sup, t_sup, .. } = prepare(engine, req, &snap)?;
    let mut provenance = OutcomeProvenance { plan_cached, ..Default::default() };
    if !req.bypass_cache {
        let ([s, t], universes) = side_keys(req, &snap, &plan, [s_sup, t_sup]);
        provenance.universes = universes;
        provenance.s_lattice = engine.peek_source(&snap, &s.eff, &s.probe, s_sup);
        provenance.t_lattice = engine.peek_source(&snap, &t.eff, &t.probe, t_sup);
        // T is looked up after S: a miss on S that will be cached inserts
        // the entry T then hits when it covers T's probe.
        let s_inserts = provenance.s_lattice == LatticeSource::MinedCold
            && req.max_level == 0
            && !s.eff.is_empty();
        if s_inserts
            && provenance.t_lattice == LatticeSource::MinedCold
            && !t.eff.is_empty()
            && s_sup <= t_sup
            && is_superset(&s.eff, &t.probe)
        {
            provenance.t_lattice = LatticeSource::Cached;
        }
    }
    Ok(format!("{}{}", plan.explain(&req.strategy, &snap.catalog), provenance.render()))
}

/// Executes `req` against `engine`: admission, snapshot, plan, both sides
/// — one optimizer run, or each cache-first — and final pair formation.
pub(crate) fn execute(engine: &Arc<Engine>, req: &QueryRequest) -> Result<QueryOutcome> {
    // A request that can never run must not consume an admission slot.
    req.validate()?;
    // Admission covers the whole execution, including the bypass path —
    // every query holds exactly one slot while it runs.
    let permit = engine.admit()?;
    let admission_wait = permit.wait;
    let admitted = Instant::now();

    let snap = engine.snapshot();
    let mut query_span = obs::span(obs::Level::Info, "session.query")
        .str("query", req.query.as_str())
        .u64("epoch", snap.epoch)
        .u64("wait_us", admission_wait.as_micros() as u64);
    let Prepared { plan, plan_cached, fingerprint, s_sup, t_sup } = prepare(engine, req, &snap)?;
    // The cached path's Reduction step (Fig. 7's box after level 1) needs
    // no lattice, so it is booked to `plan`.
    let keys = (!req.bypass_cache).then(|| side_keys(req, &snap, &plan, [s_sup, t_sup]));
    let planned = Instant::now();

    // Two ways to the sides, neither forming pairs: that is a stage of its
    // own below, whichever way they came.
    let (sides, s_done) = if let Some(([s_keys, t_keys], universes)) = keys {
        let side = |var, keys, sup| run_side(engine, req, &snap, &plan, var, keys, sup);
        let s_side = side(Var::S, &s_keys, s_sup);
        let s_done = Instant::now();
        let t_side = side(Var::T, &t_keys, t_sup);
        let mut sides =
            ExecutionOutcome::of_sides((s_side.sets, s_side.stats), (t_side.sets, t_side.stats));
        sides.provenance.s_lattice = s_side.source;
        sides.provenance.t_lattice = t_side.source;
        sides.provenance.universes = universes;
        (sides, Some(s_done))
    } else {
        // The optimizer mines both lattices in one dovetailed run.
        query_span.record_str("path", "bypass_cache");
        let env = QueryEnv {
            s_universe: domain(req, Var::S, &snap.catalog),
            t_universe: domain(req, Var::T, &snap.catalog),
            t_min_support: t_sup,
            max_level: req.max_level,
            max_pairs: req.max_pairs,
            form_pairs: false,
            ..QueryEnv::new(&snap.db, &snap.catalog, s_sup)
        };
        (req.strategy.execute_plan(&plan, &env)?, None)
    };
    let sides_done = Instant::now();

    let mut outcome = sides.paired(&plan.trace().final_two, &snap.catalog, req.max_pairs);
    outcome.provenance.plan_cached = plan_cached;
    let micros = |from: Instant, to: Instant| to.duration_since(from).as_micros() as u64;
    let stage_us = StageMicros {
        plan: micros(admitted, planned),
        s_lattice: micros(planned, s_done.unwrap_or(sides_done)),
        t_lattice: s_done.map_or(0, |s_done| micros(s_done, sides_done)),
        pairs: micros(sides_done, Instant::now()),
    };
    query_span.record_u64("db_scans", outcome.db_scans);
    query_span.record_u64("pairs", outcome.pair_result.count);
    query_span.record_str("s_lattice", outcome.provenance.s_lattice.describe());
    query_span.record_str("t_lattice", outcome.provenance.t_lattice.describe());
    Ok(QueryOutcome {
        outcome,
        epoch: snap.epoch,
        admission_wait,
        stage_us,
        plan,
        strategy: req.strategy,
        fingerprint,
        catalog: Arc::clone(&snap.catalog),
    })
}

/// One side's keys on the cached path.
struct SideKeys {
    /// The effective universe, narrowed: what a miss mines and is cached
    /// under.
    eff: Vec<ItemId>,
    /// The items of `eff` frequent at the side's threshold: what the cache
    /// is searched with, and the side's level 1.
    probe: Vec<ItemId>,
}

/// Both sides' keys on the cached path, S then T, and — when the plan
/// pushes a 2-var constraint — each side's universe size before and after
/// the Figs. 2–3 narrowing.
///
/// A side's effective universe starts as its domain filtered by the
/// `allowed` part of its 1-var form (empty when the form is
/// unsatisfiable). Its frequent items (`L1`) are read off the
/// item-support column once, no scan. When the plan pushes anything, both
/// sides' `L1`s are reduced once ([`reduce`]) and each universe loses the
/// items an `allowed`-only condition rejects
/// ([`cfq_core::Reductions::narrow`]); the probe is `L1` restricted to
/// what is left. By Thm. 2 no set outside the narrowed universe is in a
/// valid pair, and a complete lattice over it is as reusable as any.
/// `J^k_max` bounds and required-group conditions stay one-shot: a
/// lattice pruned by them is complete over no universe.
fn side_keys(
    req: &QueryRequest,
    snap: &EpochState,
    plan: &CfqPlan,
    supports: [u64; 2],
) -> ([SideKeys; 2], Option<[(usize, usize); 2]>) {
    let vars = [Var::S, Var::T];
    let mut effs = vars.map(|var| effective_universe(req, var, plan.form(var), &snap.catalog));
    let mut l1s: [Vec<ItemId>; 2] = [0, 1].map(|i| {
        effs[i].iter().copied().filter(|&item| snap.db.item_support(item) >= supports[i]).collect()
    });
    let pushes = plan.trace().nodes.iter().any(|node| !node.pushed.is_empty());
    let universes = pushes.then(|| {
        let reductions = reduce(plan, &l1s[0], &l1s[1], &snap.catalog);
        [0, 1].map(|i| {
            let before = effs[i].len();
            reductions.narrow(vars[i], &mut effs[i], &snap.catalog);
            if effs[i].len() < before {
                l1s[i] = intersect_sorted(&l1s[i], &effs[i]);
            }
            (before, effs[i].len())
        })
    });
    let [s, t] = effs;
    let [s_l1, t_l1] = l1s;
    let keys = [SideKeys { eff: s, probe: s_l1 }, SideKeys { eff: t, probe: t_l1 }];
    (keys, universes)
}

/// `var`'s effective universe before any reduction: its domain filtered by
/// the `allowed` part of `form`, empty when `form` is unsatisfiable. A
/// request that names no universe has every item as its domain, so the
/// filter leaves `allowed` itself (catalog items, ascending), or every
/// item when the form has no `allowed` part.
fn effective_universe(
    req: &QueryRequest,
    var: Var,
    form: &SuccinctForm,
    catalog: &Catalog,
) -> Vec<ItemId> {
    if form.unsatisfiable() {
        return Vec::new();
    }
    match (&form.allowed, requested(req, var).is_empty()) {
        (Some(allowed), true) => allowed.clone(),
        _ => form.filter_universe(&domain(req, var, catalog)),
    }
}

/// One variable's cache-first evaluation: lattice (cached, coalesced, or
/// mined) for its keys, then the filter that carves this query's frequent
/// valid sets out of the complete family.
fn run_side(
    engine: &Arc<Engine>,
    req: &QueryRequest,
    snap: &EpochState,
    plan: &CfqPlan,
    var: Var,
    keys: &SideKeys,
    min_support: u64,
) -> SideOutcome {
    let form = plan.form(var);
    let mut stats = WorkStats::new();
    let (lattice, source) =
        engine.lattice_for(snap, &keys.eff, &keys.probe, min_support, req.max_level, &mut stats);

    // A cached family may cover a wider universe, a lower threshold and
    // more constraints than this query. `set ⊆ eff` restores the universe,
    // the form's `allowed` part and the narrowing (`eff` is the universe
    // filtered by both); the form's other three parts are exactly the rest
    // of the conjunction (`tests/succinct_props.rs`), so together they
    // decide what `eval_all_one` would — succinct parts by item membership
    // alone. A set the narrowing drops is in no valid pair.
    let membership_decides = form.required_groups.is_empty()
        && form.residual_am.is_empty()
        && form.post_filters.is_empty();
    let n_constraints = plan.one_var(var).len() as u64;
    let mut sets: Vec<(Itemset, u64)> = Vec::new();
    let mut checks = 0u64;
    // The ledger keeps the unit it always had: one evaluation per
    // constraint per surviving set.
    let mut keep = |set: Itemset, n: u64| {
        checks += n_constraints;
        if membership_decides
            || (form.satisfies_required(&set)
                && form.admits_candidate(&set, &snap.catalog)
                && form.passes_post(&set, &snap.catalog))
        {
            sets.push((set, n));
        }
    };

    // Level 1 is the column: the probe, `{i ∈ eff : supp(i) ≥
    // min_support}`, lies inside the lattice's universe and this query's
    // threshold is no lower than the lattice's, in the same epoch, so it is
    // exactly what the complete family holds there. A set of `eff` frequent
    // at `min_support` has only probe items, so the probe also stands in
    // for `eff` above level 1.
    for &i in &keys.probe {
        keep(Itemset::singleton(i), snap.db.item_support(i));
    }
    // Probe items are frequent at a threshold of at least 1, so they occur
    // in the database and the catalog describes every one.
    let in_probe = ItemBits::new(&keys.probe, snap.catalog.n_items());
    let top = if req.max_level == 0 { lattice.n_levels() } else { req.max_level };
    for k in 2..=top.min(lattice.n_levels()) {
        for (set, n) in lattice.level(k) {
            if *n < min_support || !set.as_slice().iter().all(|&i| in_probe.contains(i)) {
                continue; // below this query's threshold, or outside its universe
            }
            keep(set.clone(), *n);
        }
    }
    stats.record_checks(checks);
    SideOutcome { sets, stats, source }
}

struct SideOutcome {
    sets: Vec<(Itemset, u64)>,
    stats: WorkStats,
    source: LatticeSource,
}

/// Where one execution's time went, in microseconds, from admission to
/// the finished answer. Not part of the reply: `cfq serve` exports these
/// (with its own `encode` and `write`) as `cfq_request_stage_seconds`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageMicros {
    /// Snapshot, parse, bind and plan (or plan-cache hit) and, on the
    /// cached path, both sides' Reduction step (Fig. 7's Reduction box,
    /// Figs. 2–3): effective universes, `L1` off the item-support column,
    /// narrowing and probes. It needs no lattice.
    pub plan: u64,
    /// The S side: lattice lookup (or mining) and this query's filter. A
    /// `bypass_cache` run mines both sides in one dovetailed optimizer
    /// run, which is all recorded here.
    pub s_lattice: u64,
    /// The T side (0 on a `bypass_cache` run: see `s_lattice`).
    pub t_lattice: u64,
    /// Pair formation and compaction to the participating sets.
    pub pairs: u64,
}

/// A query's result: the execution outcome plus the epoch and plan it was
/// answered with.
pub struct QueryOutcome {
    /// The answer and work counters, identical in shape to a one-shot
    /// [`Optimizer`] run.
    pub outcome: ExecutionOutcome,
    /// The engine epoch this answer is exact for.
    pub epoch: u64,
    /// Time spent waiting at the scheduler's admission gate (zero on the
    /// uncontended fast path).
    pub admission_wait: Duration,
    /// Time per stage of this execution, after admission.
    pub stage_us: StageMicros,
    plan: Arc<CfqPlan>,
    strategy: Optimizer,
    fingerprint: u64,
    catalog: Arc<Catalog>,
}

impl std::fmt::Debug for QueryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryOutcome")
            .field("epoch", &self.epoch)
            .field("outcome", &self.outcome)
            .finish()
    }
}

impl QueryOutcome {
    /// The plan the query ran with.
    pub fn plan(&self) -> &CfqPlan {
        &self.plan
    }

    /// The plan-cache fingerprint of the bound query — what
    /// the slow-query log records so identical plans group together.
    pub fn plan_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The EXPLAIN text: the plan under the request's strategy, plus the
    /// actual cache provenance of this execution.
    pub fn explain(&self) -> String {
        let plan = self.plan.explain(&self.strategy, &self.catalog);
        format!("{plan}{}", self.outcome.provenance.render())
    }

    /// Number of valid (S, T) pairs.
    pub fn pair_count(&self) -> u64 {
        self.outcome.pair_result.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::request::SupportSpec;
    use cfq_types::{CatalogBuilder, CfqError, TransactionDb};

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
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

    const Q: &str = "max(S.Price) <= 30 & min(T.Price) >= 40";

    fn assert_same_answer(a: &ExecutionOutcome, b: &ExecutionOutcome) {
        assert_eq!(a.s_sets, b.s_sets);
        assert_eq!(a.t_sets, b.t_sets);
        assert_eq!(a.pair_result.count, b.pair_result.count);
        assert_eq!(a.pair_result.pairs, b.pair_result.pairs);
    }

    #[test]
    fn session_matches_one_shot_optimizer() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        let got = session.query(Q).min_support(2).run().unwrap();

        let d = db();
        let cat = catalog();
        let bound = bind_query(&parse_query(Q).unwrap(), &cat).unwrap();
        let env = QueryEnv::new(&d, &cat, 2);
        let want = Optimizer::default().evaluate(&bound, &env).unwrap();
        assert_same_answer(&got.outcome, &want);
        assert_eq!(got.epoch, 0);
        assert_eq!(got.outcome.provenance.s_lattice, LatticeSource::MinedCold);
    }

    #[test]
    fn builder_and_request_are_the_same_query() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        let built = session.query(Q).min_support(2).run().unwrap();

        let mut req = QueryRequest::new(Q);
        req.support = SupportSpec::Abs(2, 2);
        assert_eq!(session.query(Q).min_support(2).request(), &req);
        let executed = session.execute(&req).unwrap();
        assert_same_answer(&built.outcome, &executed.outcome);

        // And through the wire form.
        let wire = QueryRequest::from_json(&req.to_json()).unwrap();
        let from_wire = session.execute(&wire).unwrap();
        assert_same_answer(&built.outcome, &from_wire.outcome);
    }

    #[test]
    fn warm_rerun_scans_nothing() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        let cold = session.query(Q).min_support(2).run().unwrap();
        assert_eq!(cold.outcome.provenance.s_lattice, LatticeSource::MinedCold);
        assert_eq!(cold.outcome.provenance.t_lattice, LatticeSource::MinedCold);

        let warm = session.query(Q).min_support(2).run().unwrap();
        assert_eq!(warm.outcome.db_scans, 0, "warm re-run must not scan");
        assert_eq!(warm.outcome.provenance.s_lattice, LatticeSource::Cached);
        assert_eq!(warm.outcome.provenance.t_lattice, LatticeSource::Cached);
        assert!(warm.outcome.provenance.plan_cached);
        assert_same_answer(&cold.outcome, &warm.outcome);

        let stats = engine.cache_stats();
        assert_eq!(stats.lattice_hits, 2);
        assert!(stats.scans_saved > 0);
        assert!(stats.plan_hits >= 1);

        let sched = engine.scheduler_stats();
        assert_eq!(sched.mining_passes, 2, "one pass per cold side");
        assert_eq!(sched.coalesced, 0, "sequential queries never coalesce");
        assert_eq!(sched.admitted, 2);
    }

    #[test]
    fn weaker_envelope_reuses_stronger_mining() {
        // Mine once with a loose 1-var envelope, then run a refined query
        // whose allowed set is a subset and threshold is higher: the
        // refined query must be served from the cache.
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        session.query("max(S.Price) <= 50 & min(T.Price) >= 30").min_support(2).run().unwrap();
        let refined =
            session.query("max(S.Price) <= 30 & min(T.Price) >= 40").min_support(3).run().unwrap();
        assert_eq!(refined.outcome.db_scans, 0);
        assert_eq!(refined.outcome.provenance.s_lattice, LatticeSource::Cached);
        assert_eq!(refined.outcome.provenance.t_lattice, LatticeSource::Cached);

        // And it matches a cold optimizer run.
        let d = db();
        let cat = catalog();
        let bound =
            bind_query(&parse_query("max(S.Price) <= 30 & min(T.Price) >= 40").unwrap(), &cat)
                .unwrap();
        let env = QueryEnv::new(&d, &cat, 3);
        let want = Optimizer::default().evaluate(&bound, &env).unwrap();
        assert_same_answer(&refined.outcome, &want);
    }

    #[test]
    fn shared_universe_sides_share_one_mining() {
        // No 1-var constraints: both sides range over the same effective
        // universe, so T hits the entry S just inserted — already on the
        // first run.
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        let out = session.query("sum(S.Price) <= sum(T.Price)").min_support(2).run().unwrap();
        assert_eq!(out.outcome.provenance.s_lattice, LatticeSource::MinedCold);
        assert_eq!(out.outcome.provenance.t_lattice, LatticeSource::Cached);
        assert_eq!(out.outcome.t_stats.db_scans, 0);
    }

    #[test]
    fn bypass_cache_runs_the_selected_strategy() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        let direct = session
            .query(Q)
            .min_support(2)
            .strategy(Optimizer::apriori_plus())
            .bypass_cache()
            .run()
            .unwrap();
        assert_eq!(engine.cache_stats().entries, 0, "bypass must not populate the cache");
        let cached = session.query(Q).min_support(2).run().unwrap();
        assert_same_answer(&direct.outcome, &cached.outcome);
    }

    /// A one-shot run says where its time went like a cached one does:
    /// the dovetailed mining under `s_lattice`, pair formation — here a
    /// million checks over two ten-item power sets — under `pairs`.
    #[test]
    fn bypass_cache_times_pair_formation_as_its_own_stage() {
        let all: Vec<u32> = (0..10).collect();
        let mut b = CatalogBuilder::new(10);
        b.num_attr("Price", (0..10).map(f64::from).collect()).unwrap();
        let engine =
            crate::Engine::new(TransactionDb::from_u32(10, &[&all, &all]), b.build()).unwrap();
        let ask = || engine.session().query("max(S.Price) <= min(T.Price)").min_support(1);
        let started = Instant::now();
        let direct = ask().max_pairs(0).bypass_cache().run().unwrap();
        let wall = started.elapsed().as_micros() as u64;
        assert_eq!(direct.outcome.pair_result.checks, 1023 * 1023);
        let stages = direct.stage_us;
        assert!(stages.s_lattice > 0 && stages.pairs > 0, "{stages:?}");
        assert_eq!(stages.t_lattice, 0, "both lattices are one dovetailed run");
        assert!(stages.plan + stages.s_lattice + stages.pairs <= wall, "{stages:?} of {wall}");
        assert_same_answer(&direct.outcome, &ask().max_pairs(0).run().unwrap().outcome);
    }

    /// The plan is not a function of the strategy, so neither is its
    /// cache key: a query planned under `full` is a plan-cache hit under
    /// `cap1`, and only one plan is ever built.
    #[test]
    fn strategies_share_one_cached_plan() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        let full = session.query(Q).min_support(2).run().unwrap();
        assert!(!full.outcome.provenance.plan_cached);
        let cap1 =
            session.query(Q).min_support(2).strategy(Optimizer::cap_one_var()).run().unwrap();
        assert!(cap1.outcome.provenance.plan_cached);
        assert_eq!(cap1.plan_fingerprint(), full.plan_fingerprint());
        let stats = engine.cache_stats();
        assert_eq!((stats.plan_hits, stats.plan_misses), (1, 1), "one plan built, one entry");
    }

    #[test]
    fn explain_reports_provenance() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        let before = session.query(Q).min_support(2).explain().unwrap();
        assert!(before.contains("freshly mined (cold)"), "{before}");
        session.query(Q).min_support(2).run().unwrap();
        let after = session.query(Q).min_support(2).explain().unwrap();
        assert!(after.contains("cache hit (reused mined lattice)"), "{after}");
        assert!(after.contains("plan cache hit"), "{after}");
    }

    /// EXPLAIN narrows and probes as execution does: on a cold engine it
    /// predicts that T hits the entry S is about to mine, and it prints
    /// both universes before and after Figs. 2–3.
    #[test]
    fn explain_predicts_the_narrowed_sides() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        // At support 4 item 5 (price 60) is infrequent. S: prices ≥ 20
        // (items 1–5), narrowed to ≤ 50, T's dearest frequent item; T: every
        // item, narrowed to ≥ 20 — items 1–5, one more than S mines, but
        // only its frequent items 1–4 are looked up.
        let q = "min(S.Price) >= 20 & max(T.Price) <= 60 & max(S.Price) <= min(T.Price)";
        let lines = "  [S] freshly mined (cold)\n  [T] cache hit (reused mined lattice)\n  \
                     S universe 5 → 4 items (Figs. 2–3)\n  T universe 6 → 5 items (Figs. 2–3)\n";
        let predicted = session.query(q).min_support(4).explain().unwrap();
        assert!(predicted.contains(lines), "{predicted}");
        let ran = session.query(q).min_support(4).run().unwrap();
        assert!(ran.pair_count() > 0);
        assert!(ran.explain().contains(lines), "{}", ran.explain());
        assert_eq!(engine.scheduler_stats().mining_passes, 1);

        // A plan that pushes no 2-var constraint prints no universe line.
        let plain = session.query(Q).min_support(2).explain().unwrap();
        assert!(!plain.contains("universe"), "{plain}");
    }

    #[test]
    fn append_keeps_the_cache_warm_and_correct() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        session.query(Q).min_support(2).run().unwrap();

        let delta = TransactionDb::from_u32(6, &[&[0, 1, 2], &[3, 4, 5], &[1, 2, 3]]);
        let info = engine.append(delta.clone()).unwrap();
        assert!(info.upgraded_lattices >= 2);

        let warm = session.query(Q).min_support(2).run().unwrap();
        assert_eq!(warm.epoch, 1);
        assert_eq!(warm.outcome.db_scans, 0, "FUP-upgraded entries must serve scan-free");
        assert_eq!(warm.outcome.provenance.s_lattice, LatticeSource::FupUpgraded);

        // Equivalent to a cold engine over the combined database.
        let combined = db().concat(&delta).unwrap();
        let fresh = crate::Engine::new(combined, catalog()).unwrap();
        let want = fresh.session().query(Q).min_support(2).run().unwrap();
        assert_same_answer(&warm.outcome, &want.outcome);
    }

    /// `db_scans == 0` does not mean "served from the cache": a side with
    /// fewer than two frequent items is mined off the item-support column
    /// alone. Provenance tells the two apart.
    #[test]
    fn a_cold_run_that_stops_at_level_one_scans_nothing() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let session = engine.session();
        // One frequent item a side: {0} (support 5) and {3} (support 6);
        // item 5 (support 3) falls below the threshold.
        let ask = || {
            session
                .query(Q)
                .min_support(4)
                .s_universe(vec![ItemId(0)])
                .t_universe(vec![ItemId(3), ItemId(5)])
        };
        let cold = ask().run().unwrap();
        assert_eq!(cold.outcome.s_sets, vec![([0u32].into(), 5)]);
        assert_eq!(cold.outcome.t_sets, vec![([3u32].into(), 6)]);
        assert_eq!(cold.pair_count(), 1);
        assert_eq!(cold.outcome.db_scans, 0, "level 1 is a column read");
        assert_eq!(cold.outcome.provenance.s_lattice, LatticeSource::MinedCold);
        assert_eq!(cold.outcome.provenance.t_lattice, LatticeSource::MinedCold);
        assert_eq!(engine.cache_stats().lattice_misses, 2);

        // The one-shot optimizer agrees, scanning as little.
        let one_shot = ask().bypass_cache().run().unwrap();
        assert_same_answer(&cold.outcome, &one_shot.outcome);
        assert_eq!(one_shot.outcome.db_scans, 0);
        assert_eq!(one_shot.outcome.provenance.s_lattice, LatticeSource::MinedCold);

        // The warm re-run reports the same scan count; only provenance
        // says it was served from the cache.
        let warm = ask().run().unwrap();
        assert_same_answer(&cold.outcome, &warm.outcome);
        assert_eq!(warm.outcome.db_scans, 0);
        assert_eq!(warm.outcome.provenance.s_lattice, LatticeSource::Cached);
        assert_eq!(warm.outcome.provenance.t_lattice, LatticeSource::Cached);
    }

    #[test]
    fn tiny_budget_rejects_oversize_but_answers() {
        let cfg = EngineConfig { cache_budget_bytes: 16, ..EngineConfig::default() };
        let engine = crate::Engine::with_config(db(), catalog(), cfg).unwrap();
        let session = engine.session();
        let out = session.query(Q).min_support(2).run().unwrap();
        assert_eq!(out.outcome.provenance.s_lattice, LatticeSource::MinedCold);
        assert!(out.pair_count() > 0, "query still mines and answers");
        let stats = engine.cache_stats();
        assert!(stats.oversize_rejections >= 1);
        assert_eq!(stats.entries, 0);
        // No entry retained: the re-run mines again.
        let again = session.query(Q).min_support(2).run().unwrap();
        assert_eq!(again.outcome.provenance.s_lattice, LatticeSource::MinedCold);
    }

    #[test]
    fn zero_support_is_a_typed_config_error() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let err = engine.session().query(Q).min_support(0).run().unwrap_err();
        assert!(matches!(err, CfqError::Config(_)), "{err}");
        let err = engine.session().query(Q).min_support_frac(1.5).run().unwrap_err();
        assert!(matches!(err, CfqError::Config(_)), "{err}");
    }

    #[test]
    fn zero_support_fraction_is_rejected_not_clamped() {
        // Regression: `0` used to pass the `[0, 1]` range check and
        // silently mean "support 1 transaction".
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let err = engine.session().query(Q).min_support_frac(0.0).run().unwrap_err();
        assert!(matches!(err, CfqError::Config(_)), "{err}");
        assert_eq!(err.to_string(), "configuration error: support fraction 0 is outside (0, 1]");
        let err = engine.session().query(Q).min_support_frac(-0.1).run().unwrap_err();
        assert!(err.to_string().contains("outside (0, 1]"), "{err}");
    }

    #[test]
    fn parse_errors_surface() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        assert!(engine.session().query("max(S.Price <= 30").min_support(2).run().is_err());
    }

    #[test]
    fn session_pool_round_robins_over_one_engine() {
        let engine = crate::Engine::new(db(), catalog()).unwrap();
        let pool = SessionPool::new(&engine, 3);
        assert!(Arc::ptr_eq(pool.engine(), &engine));
        // Warm the cache through one pool session, then observe every
        // session sharing it.
        pool.session().query(Q).min_support(2).run().unwrap();
        for _ in 0..3 {
            let out = pool.session().query(Q).min_support(2).run().unwrap();
            assert_eq!(out.outcome.db_scans, 0, "pool sessions share the engine cache");
        }
        // Size 0 is clamped to a working pool.
        let tiny = SessionPool::new(&engine, 0);
        tiny.session().query(Q).min_support(2).run().unwrap();
    }

    #[test]
    fn uncontended_admission_is_free_and_counted() {
        let cfg = EngineConfig {
            max_inflight_queries: 1,
            max_queued_queries: 1,
            ..EngineConfig::default()
        };
        let engine = crate::Engine::with_config(db(), catalog(), cfg).unwrap();
        let out = engine.session().query(Q).min_support(2).run().unwrap();
        assert_eq!(out.admission_wait, Duration::ZERO);
        let sched = engine.scheduler_stats();
        assert_eq!(sched.admitted, 1);
        assert_eq!((sched.inflight, sched.queued, sched.overloaded), (0, 0, 0));
    }
}
