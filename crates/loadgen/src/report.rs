//! Per-scenario tail-latency reports, `BENCH_loadgen.json` rendering,
//! and the gate checks CI fails on.
//!
//! Percentiles here are **exact** over the recorded per-request
//! latencies (`p(q) = v[⌈q·n⌉ − 1]` of the sorted vector), not
//! bucket-interpolated like the server's histogram gauges — the report
//! is the ground truth a histogram regression would be compared
//! against.

use crate::driver::{Outcome, ScenarioOutcome};
use crate::scenario::scenario_by_name;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One scenario's aggregated measurements.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Requests sent.
    pub requests: u64,
    /// Replies classified [`Outcome::Ok`].
    pub ok: u64,
    /// Typed overload rejections.
    pub overloaded: u64,
    /// Typed request errors by kind.
    pub request_errors: BTreeMap<String, u64>,
    /// Ill-formed replies (the count that must be zero).
    pub protocol_errors: u64,
    /// Exact latency percentiles over all requests, microseconds.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst request.
    pub max_us: u64,
    /// Server-side `cfq_scheduler_coalesced_total` delta.
    pub coalesced: u64,
    /// Server-side `cfq_scheduler_overloaded_total` delta.
    pub server_overloaded: u64,
    /// Server-side `cfq_mining_passes_total` delta.
    pub mining_passes: u64,
    /// Server-side `cfq_lattice_hits_total` delta.
    pub lattice_hits: u64,
}

/// Exact `q`-percentile of an ascending-sorted latency vector:
/// `v[⌈q·n⌉ − 1]`, 0 for an empty vector.
pub fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (q * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1]
}

impl ScenarioReport {
    /// Aggregates one driver outcome.
    pub fn from_outcome(out: &ScenarioOutcome) -> ScenarioReport {
        let mut lat: Vec<u64> = out.records.iter().map(|r| r.latency_us).collect();
        lat.sort_unstable();
        let mut report = ScenarioReport {
            name: out.name.clone(),
            requests: out.records.len() as u64,
            ok: 0,
            overloaded: 0,
            request_errors: BTreeMap::new(),
            protocol_errors: 0,
            p50_us: percentile(&lat, 0.50),
            p95_us: percentile(&lat, 0.95),
            p99_us: percentile(&lat, 0.99),
            max_us: lat.last().copied().unwrap_or(0),
            coalesced: out.server.coalesced,
            server_overloaded: out.server.overloaded,
            mining_passes: out.server.mining_passes,
            lattice_hits: out.server.lattice_hits,
        };
        for r in &out.records {
            match &r.outcome {
                Outcome::Ok => report.ok += 1,
                Outcome::Overloaded => report.overloaded += 1,
                Outcome::RequestError(kind) => {
                    *report.request_errors.entry(kind.clone()).or_insert(0) += 1;
                }
                Outcome::ProtocolError(_) => report.protocol_errors += 1,
            }
        }
        report
    }

    /// Total typed request errors across kinds.
    pub fn request_error_total(&self) -> u64 {
        self.request_errors.values().sum()
    }
}

/// Renders `BENCH_loadgen.json` (one line, valid JSON).
pub fn render(seed: u64, reports: &[ScenarioReport]) -> String {
    let mut out = format!("{{\"bench\":\"loadgen\",\"seed\":{seed},\"scenarios\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"requests\":{},\"ok\":{},\"overloaded\":{},\
             \"protocol_errors\":{},\"errors\":{{",
            r.name, r.requests, r.ok, r.overloaded, r.protocol_errors
        );
        for (j, (kind, n)) in r.request_errors.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\":{n}");
        }
        let _ = write!(
            out,
            "}},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},\
             \"coalesced\":{},\"server_overloaded\":{},\
             \"mining_passes\":{},\"lattice_hits\":{}}}",
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.max_us,
            r.coalesced,
            r.server_overloaded,
            r.mining_passes,
            r.lattice_hits,
        );
    }
    out.push_str("]}");
    out
}

/// The CI gates, as human-readable violations (empty = pass):
///
/// * protocol errors must be zero in every scenario;
/// * every scenario must get at least one successful reply;
/// * overload rejections appear exactly in the scenarios built to
///   provoke them;
/// * typed request errors appear exactly in the scenarios that plan
///   them.
pub fn check(reports: &[ScenarioReport]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in reports {
        let Some(spec) = scenario_by_name(&r.name) else {
            violations.push(format!("{}: unknown scenario in report", r.name));
            continue;
        };
        if r.protocol_errors > 0 {
            violations.push(format!(
                "{}: {} protocol error(s) — the envelope leaked an ill-formed reply",
                r.name, r.protocol_errors
            ));
        }
        if r.ok == 0 {
            violations.push(format!("{}: no request succeeded", r.name));
        }
        match (spec.expects_overload, r.overloaded) {
            (false, n) if n > 0 => violations.push(format!(
                "{}: {n} unexpected overload rejection(s)",
                r.name
            )),
            (true, 0) => violations.push(format!(
                "{}: built to overload the admission gate but nothing was rejected",
                r.name
            )),
            _ => {}
        }
        let errors = r.request_error_total();
        match (spec.expects_request_errors, errors) {
            (false, n) if n > 0 => violations.push(format!(
                "{}: {n} unexpected request error(s): {:?}",
                r.name, r.request_errors
            )),
            (true, 0) => violations.push(format!(
                "{}: adversarial input produced no typed errors",
                r.name
            )),
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RequestRecord, ServerDeltas};
    use cfq_engine::json;

    fn outcome(name: &str, outcomes: Vec<Outcome>, server: ServerDeltas) -> ScenarioOutcome {
        ScenarioOutcome {
            name: name.into(),
            records: outcomes
                .into_iter()
                .enumerate()
                .map(|(i, outcome)| RequestRecord {
                    client: 0,
                    latency_us: 100 * (i as u64 + 1),
                    outcome,
                })
                .collect(),
            server,
        }
    }

    #[test]
    fn percentiles_are_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn report_aggregates_and_renders_valid_json() {
        let out = outcome(
            "steady_mixed",
            vec![
                Outcome::Ok,
                Outcome::Ok,
                Outcome::Overloaded,
                Outcome::RequestError("parse".into()),
                Outcome::RequestError("parse".into()),
                Outcome::ProtocolError("x".into()),
            ],
            ServerDeltas { coalesced: 2, ..ServerDeltas::default() },
        );
        let r = ScenarioReport::from_outcome(&out);
        assert_eq!((r.requests, r.ok, r.overloaded, r.protocol_errors), (6, 2, 1, 1));
        assert_eq!(r.request_errors.get("parse"), Some(&2));
        assert_eq!(r.p50_us, 300);
        assert_eq!(r.max_us, 600);

        let text = render(7, &[r]);
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("seed").and_then(json::Json::as_u64), Some(7));
        let s = &v.get("scenarios").unwrap().as_arr().unwrap()[0];
        assert_eq!(s.get("p99_us").and_then(json::Json::as_u64), Some(600));
        assert_eq!(
            s.get("errors").and_then(|e| e.get("parse")).and_then(json::Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn gates_flag_each_violation_class() {
        // A clean steady scenario passes.
        let clean = ScenarioReport::from_outcome(&outcome(
            "steady_mixed",
            vec![Outcome::Ok; 3],
            ServerDeltas::default(),
        ));
        assert!(check(std::slice::from_ref(&clean)).is_empty());

        // Protocol errors and unexpected overloads/errors all flag.
        let dirty = ScenarioReport::from_outcome(&outcome(
            "steady_mixed",
            vec![
                Outcome::Ok,
                Outcome::Overloaded,
                Outcome::RequestError("parse".into()),
                Outcome::ProtocolError("prose".into()),
            ],
            ServerDeltas::default(),
        ));
        let v = check(&[dirty]);
        assert_eq!(v.len(), 3, "{v:?}");

        // An overload scenario with no rejections flags the inverse.
        let tame = ScenarioReport::from_outcome(&outcome(
            "overload_burst",
            vec![Outcome::Ok; 3],
            ServerDeltas::default(),
        ));
        assert_eq!(check(&[tame]).len(), 1);

        // Adversarial runs must produce typed errors.
        let polite = ScenarioReport::from_outcome(&outcome(
            "adversarial",
            vec![Outcome::Ok; 2],
            ServerDeltas::default(),
        ));
        assert_eq!(check(&[polite]).len(), 1);
    }
}
