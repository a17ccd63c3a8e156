//! TCP replay of a [`Workload`] against a live `cfq serve`.
//!
//! One thread per client, all released together by a barrier so the
//! burst structure a scenario encodes actually lands on the wire as
//! concurrency. Every reply line is classified into a typed
//! [`Outcome`]; the run is bracketed by `{"v":1,"cmd":"metrics"}`
//! scrapes so the scheduler's coalesced / overloaded /
//! mining-pass counters can be attributed to the scenario as deltas.
//!
//! The driver itself is a metrics citizen: per-request counters and a
//! latency histogram are recorded under `cfq_loadgen_*` names in a
//! caller-supplied [`Registry`] (catalogued by `cfq lint` like every
//! other metric family in the workspace).

use crate::scenario::{Expect, Workload};
use cfq_engine::json::{self, Json};
use cfq_obs::metrics::{latency_buckets, Counter, Histogram, Registry};
use cfq_types::{CfqError, Result};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How the driver reaches and times out on the server.
#[derive(Clone, Debug)]
pub struct DriverOptions {
    /// `host:port` of a running `cfq serve`.
    pub addr: String,
    /// Per-reply read timeout; a request exceeding it is a protocol
    /// error (the server must answer every line).
    pub timeout: Duration,
}

impl DriverOptions {
    /// Options for `addr` with the default 30s reply timeout.
    pub fn new(addr: impl Into<String>) -> DriverOptions {
        DriverOptions { addr: addr.into(), timeout: Duration::from_secs(30) }
    }
}

/// Typed classification of one reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A v1 result envelope (or healthy prose).
    Ok,
    /// A typed error envelope with `kind == "overloaded"` — admission
    /// back-pressure, counted apart from request errors.
    Overloaded,
    /// A typed error envelope with this `kind`.
    RequestError(String),
    /// Anything that is not a well-formed single-line reply of the
    /// expected shape — the one count that must stay at zero.
    ProtocolError(String),
}

/// One request's measurement.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Which client sent it.
    pub client: usize,
    /// Send-to-reply latency in microseconds.
    pub latency_us: u64,
    /// Reply classification.
    pub outcome: Outcome,
}

/// Server-side counter movement across one scenario (after − before).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerDeltas {
    /// `cfq_scheduler_coalesced_total` delta.
    pub coalesced: u64,
    /// `cfq_scheduler_overloaded_total` delta.
    pub overloaded: u64,
    /// `cfq_mining_passes_total` delta.
    pub mining_passes: u64,
    /// `cfq_lattice_hits_total` delta.
    pub lattice_hits: u64,
    /// `cfq_queries_total` delta.
    pub queries: u64,
}

/// Everything measured while replaying one scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// One record per sent request, in per-client order.
    pub records: Vec<RequestRecord>,
    /// Scheduler/cache counter movement attributed to the scenario.
    pub server: ServerDeltas,
}

/// The `cfq_loadgen_*` client-side metric family handles.
pub struct ClientMetrics {
    /// Requests sent.
    pub requests_total: Arc<Counter>,
    /// Typed `overloaded` rejections received.
    pub overloaded_total: Arc<Counter>,
    /// Typed non-overload error envelopes received.
    pub request_errors_total: Arc<Counter>,
    /// Replies that were not well-formed protocol (must stay 0 in CI).
    pub protocol_errors_total: Arc<Counter>,
    /// Send-to-reply latency.
    pub latency_seconds: Arc<Histogram>,
}

impl ClientMetrics {
    /// Registers (or re-fetches) the family handles in `reg`.
    pub fn new(reg: &Registry) -> ClientMetrics {
        ClientMetrics {
            requests_total: reg
                .counter("cfq_loadgen_requests_total", "Loadgen requests sent."),
            overloaded_total: reg.counter(
                "cfq_loadgen_overloaded_total",
                "Typed overload rejections received by the loadgen.",
            ),
            request_errors_total: reg.counter(
                "cfq_loadgen_request_errors_total",
                "Typed non-overload error envelopes received by the loadgen.",
            ),
            protocol_errors_total: reg.counter(
                "cfq_loadgen_protocol_errors_total",
                "Replies that were not well-formed protocol.",
            ),
            latency_seconds: reg.histogram(
                "cfq_loadgen_latency_seconds",
                "Loadgen send-to-reply latency.",
                &latency_buckets(),
            ),
        }
    }

    fn record(&self, r: &RequestRecord) {
        self.requests_total.inc();
        self.latency_seconds.observe(r.latency_us as f64 / 1e6);
        match &r.outcome {
            Outcome::Ok => {}
            Outcome::Overloaded => self.overloaded_total.inc(),
            Outcome::RequestError(_) => self.request_errors_total.inc(),
            Outcome::ProtocolError(_) => self.protocol_errors_total.inc(),
        }
    }
}

/// Classifies one reply line against the expected shape.
///
/// Envelope replies must be one JSON object: a `result` is [`Outcome::Ok`];
/// an `error` object carrying a `kind` is typed by that kind; anything
/// else is a protocol error. Prose replies only fail on an
/// `error:`/`overloaded:` prefix or an empty line.
pub fn classify(expect: Expect, reply: &str) -> Outcome {
    let reply = reply.trim_end();
    match expect {
        Expect::Prose => {
            if reply.is_empty() {
                Outcome::ProtocolError("empty prose reply".into())
            } else if reply.starts_with("overloaded:") {
                Outcome::Overloaded
            } else if reply.starts_with("error:") {
                Outcome::RequestError("prose".into())
            } else {
                Outcome::Ok
            }
        }
        Expect::Envelope => {
            let v = match json::parse(reply) {
                Ok(v) => v,
                Err(e) => {
                    return Outcome::ProtocolError(format!("reply is not JSON: {e}"))
                }
            };
            if v.get("result").is_some() {
                return Outcome::Ok;
            }
            // {"v":1,"error":{"kind":...,"message":...}}
            match v.get("error").and_then(|err| err.get("kind")).and_then(Json::as_str) {
                Some("overloaded") => Outcome::Overloaded,
                Some(kind) => Outcome::RequestError(kind.to_string()),
                None => Outcome::ProtocolError(format!(
                    "reply carries neither result nor typed error: {reply}"
                )),
            }
        }
    }
}

/// Scrapes the server's metrics over the envelope and returns every
/// unlabelled sample as `name -> value`.
fn scrape(opts: &DriverOptions) -> Result<BTreeMap<String, f64>> {
    let mut conn = TcpStream::connect(&opts.addr)
        .map_err(|e| CfqError::Io(format!("connect {}: {e}", opts.addr)))?;
    conn.set_read_timeout(Some(opts.timeout))?;
    writeln!(conn, "{{\"v\":1,\"cmd\":\"metrics\"}}")?;
    let mut reply = String::new();
    BufReader::new(&mut conn).read_line(&mut reply)?;
    let v = json::parse(reply.trim_end())
        .map_err(|e| CfqError::Io(format!("metrics reply is not JSON: {e}")))?;
    let text = v
        .get("result")
        .and_then(|r| r.get("text"))
        .and_then(Json::as_str)
        .ok_or_else(|| CfqError::Io(format!("metrics reply has no result.text: {reply}")))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if !name.contains('{') {
                if let Ok(value) = value.parse::<f64>() {
                    out.insert(name.to_string(), value);
                }
            }
        }
    }
    Ok(out)
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> u64 {
    let b = before.get(name).copied().unwrap_or(0.0);
    let a = after.get(name).copied().unwrap_or(0.0);
    (a - b).max(0.0) as u64
}

/// Replays `workload` against the server, recording every reply and the
/// server-side counter deltas. Fails only on environment errors
/// (connect failures, a poisoned thread); bad *replies* are data, not
/// errors — they land in the records as protocol errors for the report
/// gates to judge.
pub fn run_scenario(
    workload: &Workload,
    opts: &DriverOptions,
    metrics: &ClientMetrics,
) -> Result<ScenarioOutcome> {
    let before = scrape(opts)?;
    let barrier = Arc::new(Barrier::new(workload.clients.len()));
    let mut handles = Vec::new();
    for (client, actions) in workload.clients.iter().enumerate() {
        let actions = actions.clone();
        let opts = opts.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || -> Vec<RequestRecord> {
            let mut records = Vec::with_capacity(actions.len());
            // A failed connect still reaches the barrier so the other
            // clients are not deadlocked waiting for this one.
            let mut conn = match TcpStream::connect(&opts.addr) {
                Ok(c) => c,
                Err(e) => {
                    barrier.wait();
                    records.push(RequestRecord {
                        client,
                        latency_us: 0,
                        outcome: Outcome::ProtocolError(format!("connect: {e}")),
                    });
                    return records;
                }
            };
            let _ = conn.set_read_timeout(Some(opts.timeout));
            let _ = conn.set_nodelay(true);
            let mut reader = match conn.try_clone() {
                Ok(c) => BufReader::new(c),
                Err(e) => {
                    barrier.wait();
                    records.push(RequestRecord {
                        client,
                        latency_us: 0,
                        outcome: Outcome::ProtocolError(format!("clone: {e}")),
                    });
                    return records;
                }
            };
            barrier.wait();
            let mut reply = String::new();
            for action in &actions {
                if action.delay_us > 0 {
                    std::thread::sleep(Duration::from_micros(action.delay_us));
                }
                let start = Instant::now();
                if writeln!(conn, "{}", action.line).and_then(|_| conn.flush()).is_err() {
                    records.push(RequestRecord {
                        client,
                        latency_us: 0,
                        outcome: Outcome::ProtocolError("write failed".into()),
                    });
                    break;
                }
                reply.clear();
                let outcome = match reader.read_line(&mut reply) {
                    Ok(0) => Outcome::ProtocolError("server closed the connection".into()),
                    Ok(_) => classify(action.expect, &reply),
                    Err(e) => Outcome::ProtocolError(format!("read: {e}")),
                };
                let broken = matches!(
                    outcome,
                    Outcome::ProtocolError(_)
                ) && reply.is_empty();
                records.push(RequestRecord {
                    client,
                    latency_us: start.elapsed().as_micros() as u64,
                    outcome,
                });
                if broken {
                    break; // the stream is desynced; stop rather than misattribute
                }
            }
            let _ = writeln!(conn, ":quit");
            records
        }));
    }

    let mut records = Vec::new();
    for h in handles {
        let mut r = h
            .join()
            .map_err(|_| CfqError::Engine("loadgen client thread panicked".into()))?;
        records.append(&mut r);
    }
    for r in &records {
        metrics.record(r);
    }
    let after = scrape(opts)?;
    Ok(ScenarioOutcome {
        name: workload.spec.name.to_string(),
        records,
        server: ServerDeltas {
            coalesced: delta(&before, &after, "cfq_scheduler_coalesced_total"),
            overloaded: delta(&before, &after, "cfq_scheduler_overloaded_total"),
            mining_passes: delta(&before, &after, "cfq_mining_passes_total"),
            lattice_hits: delta(&before, &after, "cfq_lattice_hits_total"),
            queries: delta(&before, &after, "cfq_queries_total"),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_envelope_replies() {
        for (reply, want) in [
            (r#"{"v":1,"result":{"pair_count":3}}"#, Outcome::Ok),
            (
                r#"{"v":1,"error":{"kind":"overloaded","message":"overloaded: full","overloaded":true}}"#,
                Outcome::Overloaded,
            ),
            (
                r#"{"v":1,"error":{"kind":"parse","message":"bad"}}"#,
                Outcome::RequestError("parse".into()),
            ),
        ] {
            assert_eq!(classify(Expect::Envelope, reply), want, "{reply}");
        }
        for bad in [
            "3 valid pairs (prose leak)",
            "{not json",
            r#"{"v":1}"#,
            r#"{"error":{"message":"kindless"}}"#,
            r#"{"error":"flat, not an object","kind":"parse"}"#,
        ] {
            assert!(
                matches!(classify(Expect::Envelope, bad), Outcome::ProtocolError(_)),
                "{bad}"
            );
        }
    }

    #[test]
    fn classify_prose_replies() {
        assert_eq!(classify(Expect::Prose, "appended 3 transactions: now epoch 2"), Outcome::Ok);
        assert_eq!(
            classify(Expect::Prose, "error: no such file"),
            Outcome::RequestError("prose".into())
        );
        assert_eq!(classify(Expect::Prose, "overloaded: queue full"), Outcome::Overloaded);
        assert!(matches!(classify(Expect::Prose, ""), Outcome::ProtocolError(_)));
    }

    #[test]
    fn client_metrics_register_and_record() {
        let reg = Registry::new();
        let m = ClientMetrics::new(&reg);
        for outcome in [
            Outcome::Ok,
            Outcome::Overloaded,
            Outcome::RequestError("parse".into()),
            Outcome::ProtocolError("x".into()),
        ] {
            m.record(&RequestRecord { client: 0, latency_us: 1500, outcome });
        }
        let text = reg.render();
        for needle in [
            "cfq_loadgen_requests_total 4",
            "cfq_loadgen_overloaded_total 1",
            "cfq_loadgen_request_errors_total 1",
            "cfq_loadgen_protocol_errors_total 1",
            "cfq_loadgen_latency_seconds_count 4",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
