#![warn(missing_docs)]

//! # cfq-engine
//!
//! The session engine: a long-lived [`Engine`] that owns an
//! epoch-versioned transaction database plus catalog and serves
//! concurrent queries through cheap [`Session`] handles, caching work
//! *across* queries:
//!
//! * **Lattice cache** — complete frequent-set families keyed by
//!   universe, absolute threshold and epoch, LRU-evicted under a byte
//!   budget. A side's universe is its domain narrowed by its 1-var
//!   `allowed` filter and by the paper's reductions (Figs. 2–3); a lookup
//!   probes with the universe's frequent items. A refined query whose
//!   envelope is weaker or equal reuses the mined lattice and re-runs with
//!   **zero database scans**.
//! * **Plan cache** — optimizer plans keyed by a bound-query
//!   fingerprint; plans never read the data, so they survive epoch
//!   swaps.
//! * **FUP maintenance** — [`Engine::append`] installs a new epoch and
//!   upgrades every cached lattice in place with the FUP algorithm
//!   instead of invalidating it, so the cache stays warm across
//!   insertions.
//! * **Scheduler** — every query passes an admission gate (bounded
//!   in-flight and queue depth, typed `Overloaded` rejection beyond
//!   them), and cold lattice minings are **single-flighted**: a miss on a
//!   universe already being mined at a support no higher than its own
//!   joins that pass instead of mining again.
//!
//! Queries are described by a serializable [`QueryRequest`] (JSON in,
//! [`QueryResponse`] JSON out — the `req` and `result` of the serve
//! protocol's envelope `query` command); the fluent [`QueryBuilder`] is
//! sugar that fills one in. The protocol itself — [`wire`]'s envelope
//! codec and the [`Dispatcher`] that answers one request line — lives
//! here too, so `cfq serve` is left with sockets and threads.
//!
//! Answers from the cached path are identical to every one-shot
//! [`cfq_core::Optimizer`] strategy because both end with final pair
//! formation re-verifying the original 2-var constraints.
//!
//! ```
//! use cfq_engine::Engine;
//! use cfq_types::{CatalogBuilder, TransactionDb};
//!
//! let mut b = CatalogBuilder::new(4);
//! b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0]).unwrap();
//! let catalog = b.build();
//! let db = TransactionDb::from_u32(
//!     4,
//!     &[&[0, 1, 2], &[1, 2, 3], &[0, 2], &[1, 3], &[0, 1, 3]],
//! );
//!
//! let engine = Engine::new(db, catalog).unwrap();
//! let session = engine.session();
//! let q = "max(S.Price) <= 20 & min(T.Price) >= 30";
//!
//! let cold = session.query(q).min_support(1).run().unwrap();
//! assert!(cold.explain().contains("freshly mined (cold)"));
//!
//! // The identical query again: served entirely from the cache.
//! let warm = session.query(q).min_support(1).run().unwrap();
//! assert_eq!(warm.outcome.db_scans, 0);
//! assert_eq!(warm.outcome.s_sets, cold.outcome.s_sets);
//! assert!(warm.explain().contains("cache hit"));
//! ```

pub mod cache;
pub mod dispatch;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod request;
pub mod scheduler;
pub mod session;
pub mod snapshot;
pub mod wal;
pub mod wire;

pub use cache::CacheStats;
pub use dispatch::Dispatcher;
pub use engine::{
    DurabilityStats, Engine, EngineConfig, EngineConfigBuilder, EpochInfo, SnapshotInfo,
};
pub use metrics::ServerMetrics;
pub use request::{QueryRequest, QueryResponse, SupportSpec};
pub use scheduler::SchedulerStats;
pub use session::{QueryBuilder, QueryOutcome, Session, SessionPool, StageMicros};
