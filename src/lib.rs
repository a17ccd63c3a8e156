#![warn(missing_docs)]

//! # cfq — Constrained Frequent Set Queries with 2-variable Constraints
//!
//! A complete, from-scratch implementation of *Optimization of Constrained
//! Frequent Set Queries with 2-variable Constraints* (Lakshmanan, Ng, Han,
//! Pang — SIGMOD 1999), including every substrate the paper depends on:
//!
//! * the CFQ constraint language with a query parser
//!   (`"sum(S.Price) <= 100 & S.Type = {Snacks} & S.Type disjoint T.Type"`),
//! * constraint classification: 1-var anti-monotonicity / succinctness and
//!   the paper's Figure 1 (2-var anti-monotonicity / quasi-succinctness),
//! * the CAP algorithm of the companion paper \[15\] (all four pushing
//!   strategies),
//! * quasi-succinct reduction (Figures 2–3), weaker-constraint induction
//!   (Figure 4), and `J^k_max` iterative pruning (Figures 5–6),
//! * the Figure 7 query optimizer as its steps — `core::plan` (split,
//!   classify, induce, attach `J^k_max`; catalog-only and strategy-free),
//!   level 1, `core::reduce`, dovetailed two-lattice mining, pair formation
//!   — with EXPLAIN rendered under the executing strategy, plus the
//!   Apriori⁺ baseline,
//! * a long-lived session [`Engine`](cfq_engine::Engine) that caches mined
//!   lattices and plans across queries and keeps them fresh under appends
//!   with FUP incremental maintenance,
//! * the IBM Quest synthetic data generator used by the paper's §7
//!   evaluation, and scenario builders for each experiment.
//!
//! ## Quickstart
//!
//! ```
//! use cfq::prelude::*;
//!
//! // A small market-basket database over 4 items…
//! let db = TransactionDb::from_u32(
//!     4,
//!     &[&[0, 1, 2], &[0, 1], &[1, 2, 3], &[0, 2, 3], &[0, 1, 2, 3]],
//! );
//! // …with the paper's itemInfo(Item, Type, Price) auxiliary relation.
//! let mut cat = CatalogBuilder::new(4);
//! cat.num_attr("Price", vec![10.0, 25.0, 80.0, 120.0]).unwrap();
//! cat.cat_attr("Type", &["Snacks", "Snacks", "Beers", "Beers"]).unwrap();
//!
//! // The engine owns the database and catalog; sessions run queries
//! // against it and share its lattice/plan caches.
//! let engine = Engine::new(db, cat.build()).unwrap();
//! let session = engine.session();
//!
//! // "Cheap snack sets that lead to pricier beer sets."
//! const Q: &str = "S.Type = {Snacks} & T.Type = {Beers} & max(S.Price) <= min(T.Price)";
//! let cold = session.query(Q).min_support(2).run().unwrap();
//! assert!(cold.pair_count() > 0);
//! for &(si, ti) in &cold.outcome.pair_result.pairs {
//!     let (s, _) = &cold.outcome.s_sets[si as usize];
//!     let (t, _) = &cold.outcome.t_sets[ti as usize];
//!     println!("{s} => {t}");
//! }
//!
//! // Asking again answers from the cache without touching the database.
//! let warm = session.query(Q).min_support(2).run().unwrap();
//! assert_eq!(warm.outcome.db_scans, 0);
//! assert_eq!(warm.outcome.pair_result.pairs, cold.outcome.pair_result.pairs);
//! ```

pub use cfq_audit as audit;
pub use cfq_constraints as constraints;
pub use cfq_core as core;
pub use cfq_datagen as datagen;
pub use cfq_engine as engine;
pub use cfq_mining as mining;
pub use cfq_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use cfq_audit::{AuditReport, Auditor, Diagnostic, Severity};
    pub use cfq_constraints::{
        bind_dnf, bind_query, classify_one, classify_two, eval_one, eval_two, parse_dnf,
        parse_query, Agg, BoundQuery,
        CmpOp, OneVar, SetRel, SuccinctForm, TwoVar, Var,
    };
    pub use cfq_core::{
        apriori_plus, form_pairs, form_rules, CfqPlan, ExecutionOutcome,
        LatticeConfig, LatticeRun, LatticeSource, Optimizer, OutcomeProvenance, QueryEnv, Rule,
        RuleConfig,
    };
    // `cfq_core::Strategy` (the Optimizer alias) stays out of the
    // prelude: it would shadow-collide with proptest's `Strategy` trait
    // under double glob imports. Reach it as `cfq::core::Strategy`.
    pub use cfq_datagen::{generate_transactions, QuestConfig, Scenario, ScenarioBuilder};
    pub use cfq_engine::{
        CacheStats, DurabilityStats, Engine, EngineConfig, EngineConfigBuilder, EpochInfo,
        QueryBuilder, QueryOutcome, QueryRequest, QueryResponse, SchedulerStats, Session,
        SessionPool, SnapshotInfo, SupportSpec,
    };
    pub use cfq_mining::{
        apriori, AprioriConfig, CountingBackend, FrequentSets, TrieCounter, WorkStats,
    };
    pub use cfq_types::{
        Catalog, CatalogBuilder, CfqError, ItemId, Itemset, Result, TransactionDb,
    };
}
