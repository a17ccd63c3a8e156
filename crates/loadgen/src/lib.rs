#![warn(missing_docs)]

//! # cfq-loadgen
//!
//! Adversarial CFQ workload generation and tail-latency scenario
//! benchmarking against a live `cfq serve`, speaking **only** the v1
//! JSON envelope (`{"v":1,"cmd":...}`) — the loadgen doubles as a
//! conformance client for the canonical wire protocol.
//!
//! The crate splits into three layers:
//!
//! * [`scenario`] — seeded, deterministic construction of per-client
//!   action streams. Each named [`scenario::ScenarioSpec`] mixes
//!   constraint classes (anti-monotone domain bounds, quasi-succinct
//!   `avg`, induced-weaker `sum`, set constraints, 2-variable
//!   constraints), Zipf-skewed support thresholds and item universes,
//!   bursty arrivals, and — in the adversarial scenario — deliberately
//!   malformed envelopes. Same seed, same bytes: generation never looks
//!   at a clock or ambient randomness.
//! * [`driver`] — a thread-per-client TCP driver that replays a
//!   [`scenario::Workload`] against a server, records per-request
//!   latency and a typed outcome for every reply, and brackets the run
//!   with `{"v":1,"cmd":"metrics"}` scrapes so server-side scheduler
//!   deltas (coalesced / overloaded / mining passes) are
//!   attributed per scenario. Client-side counters and a latency
//!   histogram land in a [`cfq_obs::metrics::Registry`] under
//!   `cfq_loadgen_*` names.
//! * [`report`] — exact (not bucketed) p50/p95/p99 over the recorded
//!   latencies, the one-line `BENCH_loadgen.json` rendering, and the
//!   gate checks CI fails on: zero protocol errors everywhere, overload
//!   only where a scenario provokes it, typed request errors only
//!   where a scenario plans them.
//!
//! Every reply to an envelope-shaped line is one line of JSON, so
//! framing is trivial and any prose leak is a protocol error by
//! definition.

pub mod driver;
pub mod report;
pub mod scenario;

pub use driver::{
    classify, run_scenario, ClientMetrics, DriverOptions, Outcome, RequestRecord, ScenarioOutcome,
    ServerDeltas,
};
pub use report::{check, percentile, render, ScenarioReport};
pub use scenario::{
    build, build_selection, emit, scenario_by_name, Action, Expect, GenOptions, ScenarioSpec,
    Workload, SCENARIOS,
};
