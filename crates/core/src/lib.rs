#![warn(missing_docs)]

//! # cfq-core
//!
//! The paper's contribution, executable:
//!
//! * [`cap`] — the CAP lattice engine with all four constraint-pushing
//!   strategies of \[15\], steppable for dovetailing.
//! * [`jkmax`] — `J^k_max` iterative pruning (§5.2, Figures 5–6) and the
//!   bound series it feeds.
//! * [`plan`](mod@plan) — the catalog-only half of Figure 7: constraint
//!   separation, classification, weaker-constraint induction and `J^k_max`
//!   attachment, as one [`PlanTrace`]; EXPLAIN.
//! * [`optimizer`] — the executing half, a function per box: level 1,
//!   [`reduce`] (Figures 2–3, returning [`Reductions`]), the `J^k_max`
//!   states, dovetailed mining, and final pair formation; the
//!   [`Strategy`] flags that switch steps off.
//! * [`apriori_plus`](mod@apriori_plus) — the Apriori⁺ baseline (mine everything, filter at
//!   the end); [`fm`] — the §6.2 full-materialization counter-example.
//! * [`pairs`] — frequent valid pair formation with original-constraint
//!   verification.
//! * [`rules`] — phase 2 of the paper's architecture: rules `S ⇒ T` with
//!   support/confidence/lift from the valid pairs.
//! * [`ccc`] — ccc-optimality accounting and an empirical auditor for
//!   Definition 6.

pub mod apriori_plus;
pub mod cap;
pub mod ccc;
pub mod dnf;
pub mod fm;
pub mod jkmax;
pub mod optimizer;
pub mod pairs;
pub mod plan;
pub mod report;
pub mod rules;

pub use apriori_plus::apriori_plus;
pub use fm::full_materialization;
pub use cap::{LatticeConfig, LatticeRun};
pub use jkmax::{binomial, count_bound, j_stats, v_bound, v_bound_per_element, BoundSeries, JStats, Measure};
pub use optimizer::{domain_or_all, reduce, ExecutionOutcome, LatticeSource, Optimizer, OutcomeProvenance, QueryEnv, Reductions, Strategy};
pub use plan::{plan, CfqPlan, JkTask, PlanTrace, StrategyKind, TraceNode};
pub use pairs::{compact_used, form_pairs, pair_up, PairResult};
pub use rules::{form_rules, Rule, RuleConfig};
