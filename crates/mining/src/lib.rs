#![warn(missing_docs)]

//! # cfq-mining
//!
//! The levelwise frequent-set mining substrate that the paper's algorithms
//! (Apriori⁺, CAP, the 2-var optimizer pipeline) are built on:
//!
//! * [`counter`] — support counting: level 1 read off the database's
//!   item-support column, a dense level-2 kernel, a candidate prefix-trie
//!   counter and a naive reference counter;
//!   [`vertical`] adds an Eclat-style tidset counter and [`bitmap`] a u64
//!   tid-bitmap counter (AND + popcount, diffsets at deep levels). All
//!   agree (property-tested).
//! * [`projection`] — the rank-space working database the default
//!   configuration mines on after level 1: written by the pass that
//!   counts level 2 straight off L1, shrunk in place per level, counted
//!   by bitmaps over its rows.
//! * [`substrate`] — the one place that decides what a level is counted
//!   on (level 1: the item-support column, no rows; below: the projection,
//!   a per-level trimmed copy, a vertical index); `apriori` and the
//!   optimizer's executor both count through it.
//! * [`backend`] — the [`backend::CountingBackend`] axis
//!   (`horizontal | tidset | bitmap | auto`) every executor threads
//!   through.
//! * [`candidates`] — the Apriori candidate generation (prefix join +
//!   subset prune) with a pluggable *validity oracle*, so CAP can restrict
//!   the prune to subsets that are themselves valid (required for succinct
//!   non-anti-monotone constraints, where invalid subsets are never
//!   counted).
//! * [`frequent`] — the levelled collection of frequent sets with support
//!   lookup and the `L_k` element summaries (`L1^S`, `L1^T`, `L_k^T.B` …)
//!   that quasi-succinct reduction and `J^k_max` pruning consume.
//! * [`apriori`](mod@apriori) — plain Apriori over a restricted item
//!   universe: the one frequency backbone (the paper's optimizer is
//!   levelwise by construction).
//! * [`incremental`] — FUP-style maintenance of frequent sets under
//!   insertions (Cheung et al., ICDE 1996; the paper's citation \[6\]).
//! * [`stats`] — work accounting: database scans, sets counted for support,
//!   constraint-check invocations; the raw material for the paper's
//!   ccc-optimality (Definition 6) and for the §7 tables. [`stats::ScanStats`]
//!   additionally tracks scan *volume* (rows/items touched per scan).
//! * [`trim`] — AprioriTid-style per-level database reduction: between
//!   levels, items outside the next candidates and rows too short to
//!   contain one are dropped, with row provenance kept for FUP.

pub mod apriori;
pub mod backend;
pub mod bitmap;
pub mod candidates;
pub mod counter;
pub mod frequent;
pub mod incremental;
pub mod projection;
pub mod stats;
pub mod substrate;
pub mod trim;
pub mod vertical;

pub use apriori::{apriori, AprioriConfig};
pub use backend::{CountingBackend, CountingRun, ResolvedBackend};
pub use bitmap::{BitmapCounter, BitmapIndex};
pub use candidates::generate_candidates;
pub use counter::{
    count_supports, count_supports_with, singleton_supports, NaiveCounter, PairCounts,
    ParallelTrieCounter, SupportCounter, TrieCounter,
};
pub use incremental::{fup_update, fup_update_abs, UpdateOutcome};
pub use projection::Projection;
pub use vertical::{TidsetIndex, VerticalCounter};
pub use frequent::FrequentSets;
pub use stats::{LevelStats, ScanExtent, ScanStats, WorkStats};
pub use substrate::Substrate;
pub use trim::{trim_db, trim_db_recorded, LiveSet, TrimResult};
