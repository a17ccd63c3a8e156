//! `cfq loadgen` — replay seeded adversarial CFQ scenarios against a
//! live `cfq serve` over the v1 envelope, and report tail latency.
//!
//! ```text
//! cfq loadgen --addr HOST:PORT [--seed N] [--scenario all|NAME,...]
//!             [--append-file FILE] [--items N] [--out BENCH.json]
//!             [--timeout-secs N] [--print-metrics]
//! cfq loadgen --emit [--seed N] [--scenario ...]    # print the workload, no server
//! cfq loadgen --list                                # list scenarios
//! ```
//!
//! The loadgen is a conformance client for the envelope: any prose reply
//! to an envelope line counts as a protocol error that fails the gates.

use crate::args::Args;
use crate::commands::wants_help;
use cfq_loadgen::{
    build_selection, check, driver, emit, render, ClientMetrics, DriverOptions, GenOptions,
    ScenarioReport, SCENARIOS,
};
use cfq_obs::metrics::Registry;
use cfq_types::{CfqError, Result};
use std::time::Duration;

/// `cfq loadgen`: build the selected scenarios, optionally `--emit`
/// them, otherwise replay them against `--addr` and print the
/// `BENCH_loadgen.json` report; exits non-zero on any gate violation.
pub fn loadgen(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "usage: cfq loadgen --addr HOST:PORT [options]\n\
             \n\
             [--seed N]              workload seed (default 7); same seed = same bytes\n\
             [--scenario NAMES]      comma-separated scenario names, or `all` (default)\n\
             [--append-file FILE]    delta transactions for append_churn's :append\n\
             [--items N]             served item-universe size for universe windows\n\
             [--timeout-secs N]      per-reply read timeout (default 30)\n\
             [--out FILE]            also write the report JSON to FILE\n\
             [--print-metrics]       dump the cfq_loadgen_* client registry\n\
             [--emit]                print the generated workload and exit (no server)\n\
             [--list]                list scenarios and exit\n\
             \n\
             exit is non-zero when a gate fails (protocol errors — a prose reply to an\n\
             envelope line is one — unexpected or missing overloads)"
        );
        return Ok(());
    }
    let options = ["addr", "seed", "scenario", "append-file", "items", "timeout-secs", "out"];
    let a = Args::parse_known(argv, &["emit", "list", "print-metrics"], &options)?;
    if a.flag("list") {
        for s in SCENARIOS {
            println!(
                "{:<20} {} clients x {:>2} requests  {}",
                s.name, s.clients, s.requests_per_client, s.summary
            );
        }
        return Ok(());
    }

    let seed: u64 = a.num("seed", 7u64)?;
    let selection = a.get("scenario").unwrap_or("all");
    let opts = GenOptions {
        append_file: a.get("append-file").map(str::to_string),
        items: a.num("items", 0usize)?,
    };
    let workloads = build_selection(selection, seed, &opts)?;

    if a.flag("emit") {
        for w in &workloads {
            print!("{}", emit(w));
        }
        return Ok(());
    }

    let addr = a.require("addr")?;
    let driver_opts = DriverOptions {
        addr: addr.to_string(),
        timeout: Duration::from_secs(a.num("timeout-secs", 30u64)?),
    };
    let registry = Registry::new();
    let metrics = ClientMetrics::new(&registry);
    let mut reports: Vec<ScenarioReport> = Vec::new();
    for w in &workloads {
        if w.spec.needs_append_file && opts.append_file.is_none() {
            return Err(CfqError::Config(format!(
                "scenario `{}` needs --append-file (a delta transaction file)",
                w.spec.name
            )));
        }
        eprintln!(
            "loadgen: {} ({} clients x {} requests) against {addr}",
            w.spec.name, w.spec.clients, w.spec.requests_per_client
        );
        let outcome = driver::run_scenario(w, &driver_opts, &metrics)?;
        reports.push(ScenarioReport::from_outcome(&outcome));
    }

    let report = render(seed, &reports);
    println!("{report}");
    if let Some(path) = a.get("out") {
        std::fs::write(path, format!("{report}\n"))?;
    }
    if a.flag("print-metrics") {
        print!("{}", registry.render());
    }

    let violations = check(&reports);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("loadgen gate: {v}");
        }
        return Err(CfqError::Engine(format!(
            "loadgen: {} gate violation(s)",
            violations.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_connections, ServeOptions};
    use cfq_engine::{Engine, EngineConfig};
    use cfq_loadgen::build;
    use cfq_types::{CatalogBuilder, TransactionDb};
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// An engine whose catalog carries every attribute the scenario
    /// palette mentions (Price, Type with labels Type0..Type5), with an
    /// admission gate small enough that `overload_burst`'s 10 clients
    /// overrun it while the ≤4-client scenarios never can.
    ///
    /// 64 transactions of up to five of the six items: dense enough that
    /// each of `overload_burst`'s cache-bypassing requests mines and
    /// counts pairs long enough to hold its slot while the rest of its
    /// burst arrives.
    fn engine() -> Arc<Engine> {
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", vec![100.0, 250.0, 400.0, 550.0, 700.0, 850.0]).unwrap();
        b.cat_attr("Type", &["Type0", "Type1", "Type2", "Type3", "Type4", "Type5"]).unwrap();
        let rows: Vec<Vec<u32>> = (0..64u32)
            .map(|r| {
                let mut t =
                    vec![r % 6, (r / 2) % 6, (r / 3 + 2) % 6, (r / 5 + 1) % 6, (r / 7 + 4) % 6];
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let slices: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        let db = TransactionDb::from_u32(6, &slices);
        let cfg = EngineConfig::builder()
            .max_inflight_queries(2)
            .max_queued_queries(2)
            .build();
        Engine::with_config(db, b.build(), cfg).unwrap()
    }

    /// The whole pipeline end-to-end: every scenario replayed over real
    /// TCP against a live envelope-only server, and every CI gate green.
    #[test]
    fn all_scenarios_pass_their_gates_against_a_live_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServeOptions::default();
        let shutdown = Arc::clone(&opts.shutdown);
        let eng = engine();
        let server = std::thread::spawn(move || serve_connections(listener, eng, opts));

        let delta = std::env::temp_dir()
            .join(format!("cfq-loadgen-delta-{}.txt", std::process::id()));
        std::fs::write(&delta, "# cfq-transactions v1 n_items=6\n0 2 5\n1 4\n").unwrap();

        let gen_opts = GenOptions {
            append_file: Some(delta.to_string_lossy().into_owned()),
            items: 6,
        };
        let driver_opts = DriverOptions::new(addr.to_string());
        let registry = Registry::new();
        let metrics = ClientMetrics::new(&registry);
        let mut reports = Vec::new();
        for spec in SCENARIOS {
            let w = build(spec, 7, &gen_opts);
            let outcome = driver::run_scenario(&w, &driver_opts, &metrics).unwrap();
            reports.push(ScenarioReport::from_outcome(&outcome));
        }

        let violations = check(&reports);
        assert!(violations.is_empty(), "{violations:#?}");

        // The report renders as valid JSON with per-scenario tails.
        let text = render(7, &reports);
        let v = cfq_engine::json::parse(&text).unwrap();
        let scenarios = v.get("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(scenarios.len(), SCENARIOS.len());
        for s in scenarios {
            let p99 = s.get("p99_us").and_then(cfq_engine::json::Json::as_u64).unwrap();
            let p50 = s.get("p50_us").and_then(cfq_engine::json::Json::as_u64).unwrap();
            assert!(p99 >= p50, "{text}");
        }

        // Client-side counters saw the same traffic the reports did.
        let total: u64 = reports.iter().map(|r| r.requests).sum();
        let scraped = registry.render();
        assert!(
            scraped.contains(&format!("cfq_loadgen_requests_total {total}")),
            "{scraped}"
        );
        assert!(scraped.contains("cfq_loadgen_protocol_errors_total 0"), "{scraped}");

        shutdown.store(true, Ordering::SeqCst);
        drop(std::net::TcpStream::connect(addr)); // nudge the accept loop
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&delta);
    }
}
