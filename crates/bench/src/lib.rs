//! # cfq-bench
//!
//! The benchmark harness reproducing every table and figure of the paper's
//! §7 evaluation (see `DESIGN.md` for the experiment index):
//!
//! * [`experiments`] — one runner per table/figure; each runner
//!   cross-checks that every strategy returns the same answer before
//!   reporting times and work counters.
//! * [`table`] — report rendering.
//!
//! The `repro` binary drives the runners
//! (`cargo run -p cfq-bench --release --bin repro -- all`). The system's
//! own timings (request path, layers, workloads) are `benchmark/`'s.

pub mod experiments;
pub mod table;

pub use experiments::{
    ablation_bound_tightness, ablation_dovetail, ablation_layers, audit, audit_report, cap_suite,
    fig1, fig8a, fig8b, table_72, table_73, table_levels, table_ranges, ExpEnv,
};
pub use table::Table;
