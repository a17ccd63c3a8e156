//! The plan: what Figure 7 decides before anything is counted.
//!
//! [`plan`] takes a bound CFQ and the catalog — never the data, and no
//! strategy flags — and
//!
//! 1. separates the 1-var constraints of each variable (compiled once into
//!    the [`SuccinctForm`] CAP pushes) from the 2-var constraints;
//! 2. classifies every 2-var constraint (Figure 1): a quasi-succinct one
//!    is itself marked for reduction after level 1 (Figures 2–3);
//! 3. for the others induces weaker quasi-succinct constraints (Figure 4),
//!    marked for the same reduction, and
//! 4. attaches a `J^k_max` task (§5.2) to each side bounded by a `sum` or
//!    a `count` of its partner.
//!
//! The result is one value, a [`PlanTrace`]: a [`TraceNode`] per original
//! 2-var constraint holding everything decided for it. `cfq-audit` walks
//! it, the session engine caches it across epochs, and the executor
//! ([`crate::optimizer`]) runs whichever of its parts the [`Strategy`]
//! flags switch on — which is why EXPLAIN takes the flags and the plan does
//! not.

use crate::jkmax::Measure;
use crate::optimizer::Strategy;
use cfq_constraints::{
    classify_two, induce_weaker, Agg, BoundQuery, CmpOp, OneVar, SuccinctForm, TwoVar, Var,
};
use cfq_types::{AttrId, Catalog};

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

/// The aggregate of the pruned variable that a [`JkTask`] bounds.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Bounded {
    /// `agg(S.attr) op V`, `V` from the partner's sum series (§5.2).
    Agg(Agg, AttrId),
    /// `count(S.attr) op C`, `C` from the partner's count series (the
    /// 2-var count extension).
    Count(Option<AttrId>),
}

/// An iterative pruning task: the `pruned` variable's candidates are
/// bounded through a [`crate::jkmax::BoundSeries`] over the partner lattice. The two
/// public fields are what static auditing of the §5.2 obligations reads;
/// the rest is the executor's.
#[derive(Clone, PartialEq, Debug)]
pub struct JkTask {
    /// The variable whose candidates the task prunes.
    pub pruned: Var,
    /// `Le` or `Lt`, oriented as `bounded(pruned) op BOUND`.
    pub op: CmpOp,
    bounded: Bounded,
    /// What the series over the partner lattice measures.
    pub(crate) source: Measure,
}

impl JkTask {
    /// Whether the per-candidate bound check is anti-monotone (pushable
    /// during the run, not just at output).
    pub(crate) fn is_am(&self, catalog: &Catalog) -> bool {
        match self.bounded {
            Bounded::Agg(Agg::Max, _) => true,
            Bounded::Agg(Agg::Sum, attr) => non_negative(attr, catalog),
            Bounded::Agg(Agg::Min | Agg::Avg, _) => false,
            // count(X) ≤ c is always anti-monotone.
            Bounded::Count(_) => true,
        }
    }

    /// The 1-var condition the task stands for at bound `value`.
    pub(crate) fn condition(&self, value: f64) -> OneVar {
        let (var, op) = (self.pruned, self.op);
        match self.bounded {
            Bounded::Agg(agg, attr) => OneVar::AggCmp { var, agg, attr, op, value },
            Bounded::Count(attr) => OneVar::CountCmp { var, attr, op, value },
        }
    }
}

fn non_negative(attr: AttrId, catalog: &Catalog) -> bool {
    catalog.column_min_num(attr).map(|m| m >= 0.0).unwrap_or(true)
}

/// One step of the optimizer's rewrite trace: how a single original 2-var
/// constraint was handled, with everything a static auditor needs to
/// re-check the paper's per-rewrite obligations (Figs. 2–4, §5.2).
#[derive(Clone, PartialEq, Debug)]
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
    pub jk: Vec<JkTask>,
    /// Whether the constraint is re-evaluated at pair formation. Every
    /// plan the optimizer emits sets this; a plan without it loses answers
    /// whenever an upstream rewrite was not tight.
    pub reverified: bool,
}

impl TraceNode {
    /// What `strategy`'s flags leave of this node's rewrite.
    fn under(&self, strategy: &Strategy) -> StrategyKind {
        if strategy.use_jkmax && !self.jk.is_empty() {
            StrategyKind::JkmaxIterative
        } else if !strategy.push_two_var || self.pushed.is_empty() {
            StrategyKind::FinalVerifyOnly
        } else if self.strategy == StrategyKind::QuasiSuccinct {
            StrategyKind::QuasiSuccinct
        } else {
            StrategyKind::InducedWeaker
        }
    }
}

/// The optimizer's rewrite trace — what [`plan`] decided, in a form
/// `cfq-audit` can walk without executing anything. Fields are public so
/// tests can doctor a trace (e.g. clear a `reverified` flag) and check
/// that the auditor rejects it.
#[derive(Clone, PartialEq, Debug, Default)]
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

/// The optimizer's output plan for one CFQ: the trace, and each side's
/// 1-var constraints compiled for CAP (catalog-only like the rest, so a
/// cached plan serves them to every execution).
#[derive(Clone, Debug)]
pub struct CfqPlan {
    trace: PlanTrace,
    s_form: SuccinctForm,
    t_form: SuccinctForm,
}

impl CfqPlan {
    /// The auditable rewrite trace of this plan.
    pub fn trace(&self) -> &PlanTrace {
        &self.trace
    }

    /// The 1-var constraints on `var`, in query order.
    pub fn one_var(&self, var: Var) -> &[OneVar] {
        match var {
            Var::S => &self.trace.s_one,
            Var::T => &self.trace.t_one,
        }
    }

    /// [`Self::one_var`] compiled: what CAP pushes into `var`'s lattice.
    pub fn form(&self, var: Var) -> &SuccinctForm {
        match var {
            Var::S => &self.s_form,
            Var::T => &self.t_form,
        }
    }

    /// Human-readable description of what executing this plan under
    /// `strategy` does (the optimizer's EXPLAIN): a step the flags switch
    /// off says so, and says where its constraint is checked instead.
    pub fn explain(&self, strategy: &Strategy, catalog: &Catalog) -> String {
        let trace = &self.trace;
        let mut out = String::from("CFQ plan\n========\n");
        out.push_str(&format!(
            "1-var constraints: {} on S, {} on T ({})\n",
            trace.s_one.len(),
            trace.t_one.len(),
            if strategy.push_one_var {
                "pushed via CAP"
            } else {
                "not pushed under this strategy: checked on the frequent sets at output"
            }
        ));
        for (side, one) in [("S", &trace.s_one), ("T", &trace.t_one)] {
            for c in one {
                out.push_str(&format!("  [{side}] {}", c.display(catalog)));
                if strategy.push_one_var {
                    out.push_str(&selectivity_note(c, catalog));
                }
                out.push('\n');
            }
        }
        out.push_str(&format!("2-var constraints: {}\n", trace.nodes.len()));
        for node in &trace.nodes {
            let run = node.under(strategy);
            let how = match run {
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
            let off = match node.strategy {
                _ if run == node.strategy => None,
                StrategyKind::QuasiSuccinct => Some("quasi-succinct, but reduction"),
                StrategyKind::InducedWeaker => Some("weaker-constraint induction"),
                _ => Some("J^k_max pruning"),
            };
            let off = off.map(|what| format!(" ({what} is off under this strategy)"));
            let c = node.constraint.display(catalog);
            out.push_str(&format!("  {c}  ->  {how}{}\n", off.unwrap_or_default()));
        }
        out.push_str(&format!(
            "final verification: {} 2-var constraint(s) at pair formation\n",
            trace.final_two.len()
        ));
        out
    }
}

/// Builds the plan from the catalog alone — planning never touches the
/// data, which is what lets `cfq audit` verify plans statically and the
/// session engine cache plans across database epochs — and under no
/// strategy: the flags choose which parts of it an execution runs.
pub fn plan(query: &BoundQuery, catalog: &Catalog) -> CfqPlan {
    let s_one: Vec<OneVar> = query.one_var_for(Var::S).cloned().collect();
    let t_one: Vec<OneVar> = query.one_var_for(Var::T).cloned().collect();
    CfqPlan {
        s_form: SuccinctForm::compile(&s_one, catalog),
        t_form: SuccinctForm::compile(&t_one, catalog),
        trace: PlanTrace {
            s_one,
            t_one,
            nodes: query.two_var.iter().map(|c| rewrite(c, catalog)).collect(),
            final_two: query.two_var.clone(),
        },
    }
}

/// Classifies one 2-var constraint (Figure 1) and decides its rewrite: a
/// quasi-succinct constraint is pushed as it is; any other gets whatever
/// Figure 4 induces from it and whatever §5.2 can bound it with.
fn rewrite(c: &TwoVar, catalog: &Catalog) -> TraceNode {
    let quasi_succinct = classify_two(c).quasi_succinct;
    let (pushed, jk) = if quasi_succinct {
        (vec![c.clone()], Vec::new())
    } else {
        (induce_weaker(c, catalog), jk_tasks_for(c, catalog))
    };
    let strategy = match (quasi_succinct, jk.is_empty(), pushed.is_empty()) {
        (true, ..) => StrategyKind::QuasiSuccinct,
        (false, false, _) => StrategyKind::JkmaxIterative,
        (false, true, false) => StrategyKind::InducedWeaker,
        (false, true, true) => StrategyKind::FinalVerifyOnly,
    };
    // `final_two` is the whole of `query.two_var`, so every node is
    // re-verified.
    TraceNode { constraint: c.clone(), strategy, pushed, jk, reverified: true }
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

/// Derives the `J^k_max` tasks of a non-quasi-succinct constraint: one per
/// side bounded by a `sum` over a non-negative domain, or by a `count`.
fn jk_tasks_for(c: &TwoVar, catalog: &Catalog) -> Vec<JkTask> {
    let mut out = Vec::new();
    let mut task = |pruned, bounded, op, source| out.push(JkTask { pruned, op, bounded, source });
    match c {
        TwoVar::AggCmp { s_agg, s_attr, op, t_agg, t_attr } => {
            // The side a non-negative `sum` stands on bounds the other.
            let by_t = *t_agg == Agg::Sum && non_negative(*t_attr, catalog);
            let by_s = *s_agg == Agg::Sum && non_negative(*s_attr, catalog);
            let (s, t) = (Bounded::Agg(*s_agg, *s_attr), Bounded::Agg(*t_agg, *t_attr));
            let (sum_s, sum_t) = (Measure::Sum(*s_attr), Measure::Sum(*t_attr));
            match op {
                CmpOp::Le | CmpOp::Lt if by_t => task(Var::S, s, *op, sum_t),
                CmpOp::Ge | CmpOp::Gt if by_s => task(Var::T, t, op.mirror(), sum_s),
                CmpOp::Eq => {
                    if by_t {
                        task(Var::S, s, CmpOp::Le, sum_t);
                    }
                    if by_s {
                        task(Var::T, t, CmpOp::Le, sum_s);
                    }
                }
                _ => {}
            }
        }
        // 2-var count comparisons (language extension): the bounded side is
        // pruned through the partner's count series; no domain assumption
        // needed (count is non-negative by construction).
        TwoVar::CountCmp { s_attr, op, t_attr } => {
            let (s, t) = (Bounded::Count(*s_attr), Bounded::Count(*t_attr));
            let (count_s, count_t) = (Measure::Count(*s_attr), Measure::Count(*t_attr));
            match op {
                CmpOp::Le | CmpOp::Lt => task(Var::S, s, *op, count_t),
                CmpOp::Ge | CmpOp::Gt => task(Var::T, t, op.mirror(), count_s),
                CmpOp::Eq => {
                    task(Var::S, s, CmpOp::Le, count_t);
                    task(Var::T, t, CmpOp::Le, count_s);
                }
                CmpOp::Ne => {}
            }
        }
        TwoVar::Domain { .. } => {}
    }
    out
}
