//! Abstract models of the engine's live concurrency protocols.
//!
//! Each model is a small, dependency-free state machine mirroring one
//! protocol's *shape* — the lock sections, the lock-free steps between
//! them, and the invariant the surrounding code relies on:
//!
//! * [`epoch::EpochSwapModel`] — `Engine::append`'s snapshot → FUP →
//!   single-swap protocol against concurrent readers.
//! * [`single_flight::SingleFlightModel`] — the scheduler's
//!   `mine_or_join` group protocol: join only a group that serves you,
//!   insert before unpublish, condvar publication.
//! * [`cache_evict::CacheEvictModel`] — the LRU lattice cache's byte
//!   budget and Arc-refcounted eviction against concurrent hits.
//! * [`merge::MergeModel`] — the chunked counter's partial-count merge,
//!   parameterized over caller-supplied partial vectors.
//!
//! Every model carries an optional **seeded bug** (`--inject`): a
//! deliberate protocol mutation the checker must flag. An injection that
//! goes uncaught means the model (or the checker) lost its teeth — CI
//! fails on it.

pub mod cache_evict;
pub mod epoch;
pub mod merge;
pub mod single_flight;
