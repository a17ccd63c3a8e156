#![warn(missing_docs)]

//! # cfq-obs
//!
//! The observability layer shared by the mining substrate, the session
//! engine and the `cfq serve` front end — dependency-free, in the same
//! vendored-stub spirit as the offline rand/proptest shims:
//!
//! * [`trace`] — structured, levelled spans and events behind a
//!   process-global [`trace::Subscriber`]. Disabled (one relaxed atomic
//!   load) by default; `cfq serve --trace debug` installs the line-
//!   oriented [`trace::FmtSubscriber`] on stderr. The span hierarchy is
//!   `serve.conn → serve.request → session.query → engine.plan /
//!   engine.lattice → apriori / apriori.level`, with `engine.fup_append`
//!   covering maintenance; spans carry the counters the executors
//!   already compute (db scans, per-level candidates, scans saved,
//!   provenance).
//! * [`metrics`] — a [`metrics::Registry`] of atomic counters, gauges
//!   and histograms rendered in the Prometheus text exposition format
//!   (plus derived `_p50/_p95/_p99` gauges per histogram). The serve
//!   layer exports it through the protocol's `metrics` command (the
//!   envelope's, or `:metrics` typed by hand) and the `--metrics-addr`
//!   HTTP scrape listener.
//! * [`slowlog`] — a bounded ring of queries slower than `--slow-ms`,
//!   each carrying query text, plan fingerprint, cache provenance and
//!   level-by-level timings (the protocol's `slowlog` command).

pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use metrics::{latency_buckets, wait_buckets, Counter, Gauge, Histogram, Registry};
pub use slowlog::{SlowLevel, SlowLog, SlowQuery, SlowStages};
pub use trace::{
    enabled, event, set_subscriber, span, Event, FieldValue, FmtSubscriber, Level, SpanGuard,
    SpanRecord, Subscriber,
};
