#![warn(missing_docs)]

//! # cfq-types
//!
//! Foundational data types shared by every crate in the `cfq` workspace:
//!
//! * [`ItemId`] — a compact item identifier.
//! * [`Itemset`] — an immutable, sorted, duplicate-free set of items with
//!   the algebra needed by levelwise mining (subset tests, joins, k-subsets).
//! * [`TransactionDb`] — a horizontal transaction database, plus projection
//!   onto derived domains (e.g. the *Type* domain of the paper's `itemInfo`
//!   relation, so that the second query variable `T` may range over a domain
//!   different from `Item`), with its item-support column and, once
//!   filled, its [`PairSupports`] column.
//! * [`Catalog`] — a columnar attribute store modelling the paper's
//!   auxiliary relation `itemInfo(Item, Type, Price, ...)`.
//! * [`hash`] — a fast Fx-style hasher used for itemset hash maps.
//!
//! The paper is *Optimization of Constrained Frequent Set Queries with
//! 2-variable Constraints* (Lakshmanan, Ng, Han, Pang; SIGMOD 1999). These
//! types deliberately mirror its vocabulary: `S`-sets and `T`-sets are both
//! [`Itemset`]s, attributes like `S.Price` are [`AttrId`]s resolved against a
//! [`Catalog`].

pub mod catalog;
pub mod error;
pub mod hash;
pub mod item;
pub mod itemset;
pub mod pair_supports;
pub mod transaction;

pub use catalog::{AttrId, AttrKind, Catalog, CatalogBuilder, SymbolId};
pub use error::{CfqError, Result};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use item::{intersect_sorted, ItemBits, ItemId};
pub use itemset::Itemset;
pub use pair_supports::{triangle_cells, PairSupports, MAX_TRIANGLE_CELLS};
pub use transaction::{contains_sorted, DbChunk, TransactionDb};
