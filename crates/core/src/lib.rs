#![warn(missing_docs)]

//! # cfq-core
//!
//! The paper's contribution, executable:
//!
//! * [`cap`] — the CAP lattice engine with all four constraint-pushing
//!   strategies of \[15\], steppable for dovetailing.
//! * [`jkmax`] — `J^k_max` iterative pruning (§5.2, Figures 5–6).
//! * [`optimizer`] — the CFQ query optimizer of Figure 7: constraint
//!   separation, quasi-succinct reduction, weaker-constraint induction,
//!   `J^k_max` wiring, dovetailed execution, and final pair formation.
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
pub mod report;
pub mod rules;

pub use apriori_plus::apriori_plus;
pub use fm::full_materialization;
pub use cap::{LatticeConfig, LatticeRun};
pub use jkmax::{binomial, count_bound, j_stats, v_bound, v_bound_per_element, CountSeries, JStats, VSeries};
pub use optimizer::{CfqPlan, ExecutionOutcome, JkSummary, LatticeSource, Optimizer, OutcomeProvenance, PlanTrace, QueryEnv, Strategy, StrategyKind, TraceNode};
pub use pairs::{compact_used, form_pairs, pair_up, PairResult};
pub use rules::{form_rules, Rule, RuleConfig};
