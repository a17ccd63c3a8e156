//! Seeded construction of per-client CFQ action streams.
//!
//! A scenario is a named recipe: how many clients, what mix of
//! constraint classes, how supports and universes are skewed, and how
//! arrivals are paced. [`build`] expands a recipe into a [`Workload`] —
//! one `Vec<Action>` per client — using nothing but the seed, so the
//! same `(scenario, seed, options)` triple always yields the same bytes
//! (`cfq loadgen --emit` twice and `cmp` is the CI determinism gate).

use cfq_datagen::dist::Zipf;
use cfq_engine::{QueryRequest, SupportSpec};
use cfq_types::{CfqError, ItemId, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What shape of reply an action's line must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// One line of JSON: a v1 result or error envelope.
    Envelope,
    /// One line of operator prose (`:append` replies), where only an
    /// `error:` prefix counts against the scenario.
    Prose,
}

/// One protocol line with its open-loop pacing.
#[derive(Clone, Debug, PartialEq)]
pub struct Action {
    /// Microseconds to wait before sending (0 = back-to-back burst).
    pub delay_us: u64,
    /// The full protocol line (the driver appends the newline).
    pub line: String,
    /// Reply classification mode.
    pub expect: Expect,
}

/// A named scenario recipe plus the expectations CI gates on.
#[derive(Debug)]
pub struct ScenarioSpec {
    /// Stable scenario name (`cfq loadgen --scenario NAME`).
    pub name: &'static str,
    /// One-line description for `--list` and docs.
    pub summary: &'static str,
    /// Concurrent client connections.
    pub clients: usize,
    /// Actions per client.
    pub requests_per_client: usize,
    /// Whether the scenario is built to provoke admission-gate
    /// rejections (gate: some overloads iff this is set).
    pub expects_overload: bool,
    /// Whether typed request errors are part of the plan (gate: some
    /// request errors iff this is set; overloads count separately).
    pub expects_request_errors: bool,
    /// Whether the workload interleaves `:append` of a delta file.
    pub needs_append_file: bool,
}

/// The closed list of named scenarios, in run order. `append_churn`
/// mutates the engine epoch, so it runs after the latency-sensitive
/// scenarios; `adversarial` runs last because its only job is proving
/// the protocol surface stays typed under garbage.
pub const SCENARIOS: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "steady_mixed",
        summary: "closed-loop warm traffic mixing all constraint classes",
        clients: 3,
        requests_per_client: 12,
        expects_overload: false,
        expects_request_errors: false,
        needs_append_file: false,
    },
    ScenarioSpec {
        name: "zipf_cold",
        summary: "cache-bypassing queries with Zipf-skewed thresholds and universes",
        clients: 2,
        requests_per_client: 10,
        expects_overload: false,
        expects_request_errors: false,
        needs_append_file: false,
    },
    ScenarioSpec {
        name: "overload_burst",
        summary: "bursts of cache-bypassing work past the admission gate; rejections must stay typed",
        clients: 10,
        requests_per_client: 6,
        expects_overload: true,
        expects_request_errors: false,
        needs_append_file: false,
    },
    ScenarioSpec {
        name: "append_churn",
        summary: ":append interleaved with warm queries (FUP upgrades under load)",
        clients: 3,
        requests_per_client: 8,
        expects_overload: false,
        expects_request_errors: false,
        needs_append_file: true,
    },
    ScenarioSpec {
        name: "adversarial",
        summary: "malformed envelopes and bad requests, every one envelope-shaped",
        clients: 2,
        requests_per_client: 13,
        expects_overload: false,
        expects_request_errors: true,
        needs_append_file: false,
    },
];

/// Looks up a scenario by name.
pub fn scenario_by_name(name: &str) -> Option<&'static ScenarioSpec> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Inputs that parameterize generation beyond the seed.
#[derive(Clone, Debug, Default)]
pub struct GenOptions {
    /// Delta transaction file for `append_churn`'s `:append` lines. The
    /// placeholder `delta.txt` is used when unset, which is fine for
    /// `--emit` but makes a live `:append` fail loudly.
    pub append_file: Option<String>,
    /// Item universe size of the served database (0 = skip universe
    /// restrictions). Lets `zipf_cold` carve Zipf-sized `s_universe`
    /// prefixes — set it to the server's item count.
    pub items: usize,
}

/// A fully expanded workload: one action stream per client.
#[derive(Debug)]
pub struct Workload {
    /// The recipe this was built from.
    pub spec: &'static ScenarioSpec,
    /// `clients[i]` is client `i`'s ordered action stream.
    pub clients: Vec<Vec<Action>>,
}

/// Expands `spec` into per-client action streams, deterministically in
/// `(seed, opts)`.
pub fn build(spec: &'static ScenarioSpec, seed: u64, opts: &GenOptions) -> Workload {
    let clients = (0..spec.clients)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(client_seed(seed, spec.name, c));
            match spec.name {
                "steady_mixed" => steady_mixed(&mut rng, spec),
                "zipf_cold" => zipf_cold(&mut rng, spec, opts),
                "overload_burst" => overload_burst(spec),
                "append_churn" => append_churn(&mut rng, c, spec, opts),
                "adversarial" => adversarial(c),
                other => unreachable!("unknown scenario `{other}`"),
            }
        })
        .collect();
    Workload { spec, clients }
}

/// Builds every scenario named in `selection` (`"all"` = the full list).
pub fn build_selection(
    selection: &str,
    seed: u64,
    opts: &GenOptions,
) -> Result<Vec<Workload>> {
    if selection == "all" {
        return Ok(SCENARIOS.iter().map(|s| build(s, seed, opts)).collect());
    }
    let mut out = Vec::new();
    for name in selection.split(',') {
        let spec = scenario_by_name(name.trim()).ok_or_else(|| {
            CfqError::Config(format!(
                "unknown scenario `{name}` (try one of: {})",
                SCENARIOS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
            ))
        })?;
        out.push(build(spec, seed, opts));
    }
    Ok(out)
}

/// Per-client stream seed: FNV-1a over the scenario name, mixed with the
/// run seed and the client index so every stream is independent but
/// reproducible.
fn client_seed(seed: u64, name: &str, client: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed.rotate_left(17) ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn pick(rng: &mut StdRng, n: usize) -> usize {
    ((rng.gen::<f64>() * n as f64) as usize).min(n - 1)
}

/// Wraps a [`QueryRequest`] in the v1 query envelope.
fn envelope(req: &QueryRequest) -> String {
    format!("{{\"v\":1,\"cmd\":\"query\",\"req\":{}}}", req.to_json())
}

fn query_action(req: &QueryRequest, delay_us: u64) -> Action {
    Action { delay_us, line: envelope(req), expect: Expect::Envelope }
}

/// The support-fraction grid scenarios draw from. Values stay ≥ 5% so a
/// CI-sized database never explodes combinatorially; rank 0 is the hot
/// end Zipf sampling concentrates on.
fn support_grid() -> Vec<f64> {
    (0..16).map(|k| 0.05 + 0.025 * k as f64).collect()
}

/// One query text drawn from the full constraint-class palette of the
/// paper's language: anti-monotone domain bounds, quasi-succinct `avg`,
/// induced-weaker `sum`, succinct set constraints, and the two
/// 2-variable forms. Every query mentions both S and T.
fn mixed_query(rng: &mut StdRng) -> String {
    let v = 300 + 50 * pick(rng, 12);
    let w = 100 + 50 * pick(rng, 10);
    match pick(rng, 6) {
        0 => format!("max(S.Price) <= {v} & min(T.Price) >= {w}"),
        1 => format!("avg(S.Price) <= {v} & min(T.Price) >= {w}"),
        2 => format!("sum(S.Price) <= {} & min(T.Price) >= {w}", v + 600),
        3 => {
            let a = pick(rng, 5);
            format!("S.Type subseteq {{Type{a}, Type{}}} & min(T.Price) >= {w}", a + 1)
        }
        4 => "max(S.Price) <= min(T.Price)".to_string(),
        _ => format!("max(S.Price) <= {v} & min(T.Price) >= {w} & S.Type = T.Type"),
    }
}

/// Closed-loop warm traffic: a small hot set of supports (Zipf over the
/// low grid ranks) and the full query palette, paced by exponential
/// think time. After the first cold round most requests are lattice
/// cache hits — this is the baseline tail-latency scenario.
fn steady_mixed(rng: &mut StdRng, spec: &ScenarioSpec) -> Vec<Action> {
    let grid = support_grid();
    let zipf = Zipf::new(4, 1.2); // hot: ranks 0..4 of the grid
    (0..spec.requests_per_client)
        .map(|i| {
            let mut req = QueryRequest::new(mixed_query(rng));
            req.support = SupportSpec::Frac(grid[zipf.sample(rng) + 2]);
            let delay = if i == 0 {
                0
            } else {
                cfq_datagen::dist::exponential(rng, 1500.0) as u64
            };
            query_action(&req, delay)
        })
        .collect()
}

/// Cache-bypassing one-shot executions with Zipf-skewed thresholds and
/// universe windows: every request is a cold optimizer run, so this
/// scenario prices the uncached path's tail.
fn zipf_cold(rng: &mut StdRng, spec: &ScenarioSpec, opts: &GenOptions) -> Vec<Action> {
    let grid = support_grid();
    let support_zipf = Zipf::new(grid.len(), 1.1);
    let threshold_zipf = Zipf::new(12, 0.8);
    (0..spec.requests_per_client)
        .map(|_| {
            let v = 300 + 50 * threshold_zipf.sample(rng);
            let mut req =
                QueryRequest::new(format!("max(S.Price) <= {v} & count(T) >= 1"));
            req.support = SupportSpec::Frac(grid[support_zipf.sample(rng)]);
            req.bypass_cache = true;
            if opts.items > 1 {
                // A Zipf-sized prefix window of the item universe: hot
                // ranks keep most items, the tail shrinks the domain.
                let drop = Zipf::new(opts.items, 1.0).sample(rng);
                let keep = (opts.items - drop).max(1);
                req.s_universe = (0..keep as u32).map(ItemId).collect();
            }
            query_action(&req, cfq_datagen::dist::exponential(rng, 800.0) as u64)
        })
        .collect()
}

/// A burst of work from more clients than the admission gate holds:
/// every burst must produce typed `overloaded` envelopes, never a
/// dropped connection or prose.
///
/// Every request holds its slot for real work: it bypasses the cache, so
/// the optimizer mines both sides over the full universe, and it counts
/// every pair of a non-succinct 2-var constraint while materializing
/// none (`max_pairs: 0`, so the reply stays one short line). Ten
/// barrier-released clients send three such requests back to back, so
/// the in-flight gate pins shut, the wait queue fills, and the rest of
/// the burst has nowhere to go: the server must reject.
fn overload_burst(spec: &ScenarioSpec) -> Vec<Action> {
    (0..spec.requests_per_client)
        .map(|i| {
            let mut req = QueryRequest::new("sum(S.Price) <= sum(T.Price)");
            req.support = SupportSpec::Frac(0.05);
            req.bypass_cache = true;
            req.max_pairs = Some(0);
            // Bursts of 3 back-to-back, then a gap to let the gate drain.
            query_action(&req, if i % 3 == 0 && i > 0 { 15_000 } else { 0 })
        })
        .collect()
}

/// Client 0 interleaves `:append` of a delta file with warm queries;
/// the others keep querying two hot supports throughout. Exercises FUP
/// lattice upgrades racing reads — the cache must stay warm and every
/// reply well-formed across epoch bumps.
fn append_churn(
    rng: &mut StdRng,
    client: usize,
    spec: &ScenarioSpec,
    opts: &GenOptions,
) -> Vec<Action> {
    let file = opts.append_file.as_deref().unwrap_or("delta.txt");
    (0..spec.requests_per_client)
        .map(|i| {
            if client == 0 && i % 4 == 1 {
                return Action {
                    delay_us: 2_000,
                    line: format!(":append {file}"),
                    expect: Expect::Prose,
                };
            }
            let mut req = QueryRequest::new(mixed_query(rng));
            req.support = SupportSpec::Frac(if i % 2 == 0 { 0.2 } else { 0.25 });
            query_action(&req, cfq_datagen::dist::exponential(rng, 1000.0) as u64)
        })
        .collect()
}

/// Protocol garbage and bad requests, all envelope-shaped so every
/// reply must be one JSON line: broken framing, wrong and fractional
/// versions, unknown, repeated and mistyped commands and fields,
/// out-of-range values, and unparseable CFQ text. A healthy server
/// answers each with a typed error envelope and still serves the
/// interleaved good queries.
fn adversarial(client: usize) -> Vec<Action> {
    let good = {
        let mut req = QueryRequest::new("max(S.Price) <= min(T.Price)");
        req.support = SupportSpec::Frac(0.2);
        envelope(&req)
    };
    let lines: Vec<&str> = if client == 0 {
        vec![
            r#"{"v":1,"cmd":"query""#,
            r#"{"v":1}"#,
            r#"{"v":2,"cmd":"metrics"}"#,
            r#"{"v":1,"cmd":"reboot"}"#,
            r#"{"v":1,"cmd":"query","extra":1}"#,
            r#"{"v":1,"cmd":"query","req":{"quary":"x"}}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","support":0}}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","shards":0}}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","backend":"vertical"}}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"max(S.Price <= 10","support":0.25}}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"   ","support":0.25}}"#,
            r#"{"v":1,"cmd":"status"}"#,
            "@GOOD",
        ]
    } else {
        vec![
            r#"{"v":1,"cmd":"status","cmd":"snapshot"}"#,
            r#"{"v":1,"cmd":7}"#,
            r#"{"v":1.5,"cmd":"status"}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","support":1.5}}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","strategy":"warp"}}"#,
            r#"{}"#,
            r#"{"v":1,"cmd":"query","req":[]}"#,
            r#"{"v":true,"cmd":"query"}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","max_level":true}}"#,
            r#"{"v":1,"cmd":"query","req":{"query":"count(S) >= 1","support":{"s":0,"t":2}}}"#,
            "@GOOD",
            r#"{"v":1,"cmd":"snapshot"}"#,
            "@GOOD",
        ]
    };
    lines
        .into_iter()
        .map(|l| Action {
            delay_us: 200,
            line: if l == "@GOOD" { good.clone() } else { l.to_string() },
            expect: Expect::Envelope,
        })
        .collect()
}

/// Renders a workload as stable text, one action per line — what
/// `cfq loadgen --emit` prints and CI `cmp`s across two runs to prove
/// byte-reproducibility.
pub fn emit(w: &Workload) -> String {
    let mut out = String::new();
    for (c, actions) in w.clients.iter().enumerate() {
        for a in actions {
            out.push_str(&format!(
                "{}\t{c}\t{}\t{}\t{}\n",
                w.spec.name,
                a.delay_us,
                match a.expect {
                    Expect::Envelope => "envelope",
                    Expect::Prose => "prose",
                },
                a.line
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfq_engine::wire::{parse_envelope, WireCmd};

    fn opts() -> GenOptions {
        GenOptions { append_file: Some("delta.txt".into()), items: 24 }
    }

    #[test]
    fn all_scenarios_build_with_declared_shape() {
        for spec in SCENARIOS {
            let w = build(spec, 7, &opts());
            assert_eq!(w.clients.len(), spec.clients, "{}", spec.name);
            for actions in &w.clients {
                assert_eq!(actions.len(), spec.requests_per_client, "{}", spec.name);
            }
        }
    }

    #[test]
    fn generation_is_byte_deterministic_in_the_seed() {
        for spec in SCENARIOS {
            let a = emit(&build(spec, 42, &opts()));
            let b = emit(&build(spec, 42, &opts()));
            assert_eq!(a, b, "{} not deterministic", spec.name);
            // Scenarios that draw from the rng must react to the seed;
            // the purely index-driven ones are seed-invariant by design.
            if matches!(spec.name, "steady_mixed" | "zipf_cold" | "append_churn") {
                let c = emit(&build(spec, 43, &opts()));
                assert_ne!(a, c, "{} ignores the seed", spec.name);
            }
        }
    }

    #[test]
    fn non_adversarial_envelopes_are_valid_and_mention_both_vars() {
        for spec in SCENARIOS.iter().filter(|s| s.name != "adversarial") {
            for actions in build(spec, 11, &opts()).clients {
                for a in actions {
                    match a.expect {
                        Expect::Prose => assert!(a.line.starts_with(":append "), "{}", a.line),
                        Expect::Envelope => match parse_envelope(&a.line) {
                            Ok(WireCmd::Query(req)) => {
                                assert!(req.query.contains('S'), "{}", req.query);
                                assert!(req.query.contains('T'), "{}", req.query);
                                req.validate().unwrap();
                            }
                            other => panic!("{}: not a query envelope: {other:?}", a.line),
                        },
                    }
                }
            }
        }
    }

    #[test]
    fn overload_bursts_are_simultaneous_uncached_and_count_only() {
        let spec = scenario_by_name("overload_burst").unwrap();
        for actions in build(spec, 7, &opts()).clients {
            for (i, a) in actions.iter().enumerate() {
                assert_eq!(a.delay_us == 0, i % 3 != 0 || i == 0, "bursts of three: {i}");
                match parse_envelope(&a.line).unwrap() {
                    WireCmd::Query(req) => {
                        assert!(req.bypass_cache, "a cached request would not hold its slot");
                        assert_eq!(req.max_pairs, Some(0), "the reply must stay one short line");
                        assert!(req.s_universe.is_empty() && req.t_universe.is_empty());
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn adversarial_lines_never_get_prose_replies() {
        let spec = scenario_by_name("adversarial").unwrap();
        for actions in build(spec, 7, &opts()).clients {
            for a in actions {
                // Every line is envelope-shaped — `{`, then `"` or `}` —
                // which is what makes the server answer it in JSON.
                let l = a.line.trim_start();
                assert!(l.starts_with("{\"") || l.starts_with("{}"), "{}", a.line);
            }
        }
    }

    #[test]
    fn selection_parses_names_and_rejects_unknown() {
        assert_eq!(build_selection("all", 1, &opts()).unwrap().len(), SCENARIOS.len());
        let two = build_selection("steady_mixed, adversarial", 1, &opts()).unwrap();
        assert_eq!(two.len(), 2);
        assert_eq!(two[1].spec.name, "adversarial");
        assert!(build_selection("nope", 1, &opts()).is_err());
    }
}
