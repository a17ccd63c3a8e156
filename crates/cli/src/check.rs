//! `cfq model` and `cfq lint` — the workspace's static-analysis
//! subcommands.
//!
//! `cfq model` runs the exhaustive interleaving checker over the
//! engine's live concurrency protocols (epoch swap, single-flight
//! mining, cache eviction, counter merge) and writes the machine-
//! readable report `scripts/ci.sh` archives as `BENCH_model.json`. With
//! `--inject` it additionally re-runs every protocol with each seeded
//! bug enabled and fails unless the checker catches them all — proof the
//! models still have teeth.
//!
//! `cfq lint` scans the workspace sources with the token-level rules in
//! `cfq_model::lint` and exits nonzero on any finding.

use crate::args::Args;
use cfq_mining::counter::count_supports_with;
use cfq_model::lint::lint_workspace;
use cfq_model::models::cache_evict::{CacheBug, CacheEvictModel};
use cfq_model::models::epoch::{EpochBug, EpochSwapModel};
use cfq_model::models::merge::MergeModel;
use cfq_model::models::single_flight::{SingleFlightBug, SingleFlightModel};
use cfq_model::report::{render, InjectionReport, ProtocolReport};
use cfq_model::{CheckConfig, Checker, Model, Outcome};
use cfq_types::{CfqError, Itemset, Result, TransactionDb};
use std::hash::Hash;
use std::path::Path;

const MODEL_USAGE: &str = "\
usage: cfq model [--inject] [--out FILE]

options:
  --inject     also re-run every protocol with each seeded bug enabled;
               fail unless the checker catches all of them
  --out FILE   write the JSON report to FILE (default: stdout)";

const LINT_USAGE: &str = "\
usage: cfq lint --workspace [--root DIR] [--json]

options:
  --workspace  scan every Rust source under the workspace root
  --root DIR   workspace root to scan (default: current directory)
  --json       print the machine-readable report instead of text";

/// The merge protocol grounded in the real chunked counter: partial
/// vectors come from `cfq_mining::counter::count_supports_with` over a
/// 3-chunk partition of a small database.
fn merge_model() -> MergeModel {
    let db = TransactionDb::from_u32(
        6,
        &[&[0, 1, 2, 3], &[1, 2, 3], &[0, 2, 4], &[1, 5], &[2, 3, 4, 5], &[5], &[0, 5]],
    );
    let mut cands: Vec<Itemset> = (0..6u32).map(|i| [i].into()).collect();
    for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (4, 5)] {
        cands.push([a, b].into());
    }
    cands.sort();
    cands.dedup();
    let expected = count_supports_with(&db, &[&cands], 1).remove(0);
    let bounds = [0usize, 3, 5, db.len()];
    let partials: Vec<Vec<u64>> = bounds
        .windows(2)
        .map(|w| {
            let rows: Vec<Vec<cfq_types::ItemId>> =
                (w[0]..w[1]).map(|i| db.transaction(i).to_vec()).collect();
            match TransactionDb::new(db.n_items(), rows) {
                Ok(sub) => count_supports_with(&sub, &[&cands], 1).remove(0),
                Err(_) => vec![0; cands.len()],
            }
        })
        .collect();
    MergeModel { partials, expected, granularity: 1 }
}

fn run_protocol<M: Model>(checker: &Checker, name: &str, model: &M) -> ProtocolReport
where
    M::State: Clone + Hash + Eq,
{
    let outcome = checker.run(model);
    print_outcome(name, None, &outcome);
    ProtocolReport { protocol: name.to_string(), outcome }
}

fn run_injection<M: Model>(
    checker: &Checker,
    name: &str,
    bug: &str,
    model: &M,
) -> InjectionReport {
    let outcome = checker.run(model);
    print_outcome(name, Some(bug), &outcome);
    InjectionReport { protocol: name.to_string(), bug: bug.to_string(), outcome }
}

fn print_outcome(name: &str, bug: Option<&str>, o: &Outcome) {
    let label = match bug {
        Some(b) => format!("{name} +{b}"),
        None => name.to_string(),
    };
    let verdict = match (bug.is_some(), o.violations.is_empty()) {
        (false, true) => "clean".to_string(),
        (false, false) => format!("VIOLATED ({})", o.violations.len()),
        (true, true) => "UNCAUGHT".to_string(),
        (true, false) => format!("caught ({})", o.violations[0].kind.label()),
    };
    println!(
        "model {label:<34} {:>8} states {:>12} interleavings  {}",
        o.stats.states, o.stats.interleavings, verdict
    );
}

/// `cfq model`: explore every protocol, optionally prove the seeded bugs
/// are caught, and emit the JSON report.
pub fn model(argv: Vec<String>) -> Result<()> {
    let a = Args::parse_known(argv, &["inject", "help"], &["out"])?;
    if a.flag("help") {
        println!("{MODEL_USAGE}");
        return Ok(());
    }
    let checker = Checker::new(CheckConfig::default());

    let protocols = vec![
        run_protocol(&checker, "epoch_swap", &EpochSwapModel { bug: None }),
        run_protocol(&checker, "single_flight", &SingleFlightModel { bug: None }),
        run_protocol(&checker, "cache_evict", &CacheEvictModel { bug: None }),
        run_protocol(&checker, "merge", &merge_model()),
    ];

    let mut injections = Vec::new();
    if a.flag("inject") {
        for &(bug, name) in EpochBug::all() {
            injections.push(run_injection(
                &checker,
                "epoch_swap",
                name,
                &EpochSwapModel { bug: Some(bug) },
            ));
        }
        for &(bug, name) in SingleFlightBug::all() {
            injections.push(run_injection(
                &checker,
                "single_flight",
                name,
                &SingleFlightModel { bug: Some(bug) },
            ));
        }
        for &(bug, name) in CacheBug::all() {
            injections.push(run_injection(
                &checker,
                "cache_evict",
                name,
                &CacheEvictModel { bug: Some(bug) },
            ));
        }
        // Merge bug: a chunk merged twice (a missed worker join).
        let mut doubled = merge_model();
        for x in &mut doubled.partials[0] {
            *x *= 2;
        }
        injections.push(run_injection(&checker, "merge", "double_merge", &doubled));
    }

    let json = render(&protocols, &injections);
    match a.get("out") {
        Some(path) => std::fs::write(path, format!("{json}\n"))
            .map_err(|e| CfqError::Io(format!("write {path}: {e}")))?,
        None => println!("{json}"),
    }

    let dirty: Vec<&str> = protocols
        .iter()
        .filter(|p| !p.outcome.ok())
        .map(|p| p.protocol.as_str())
        .collect();
    if !dirty.is_empty() {
        return Err(CfqError::Config(format!("protocol violations in: {}", dirty.join(", "))));
    }
    let uncaught: Vec<String> = injections
        .iter()
        .filter(|i| !i.caught())
        .map(|i| format!("{}+{}", i.protocol, i.bug))
        .collect();
    if !uncaught.is_empty() {
        return Err(CfqError::Config(format!(
            "seeded bugs NOT caught (checker lost its teeth): {}",
            uncaught.join(", ")
        )));
    }
    Ok(())
}

/// `cfq lint`: scan the workspace sources and fail on any finding.
pub fn lint(argv: Vec<String>) -> Result<()> {
    let a = Args::parse_known(argv, &["workspace", "json", "help"], &["root"])?;
    if a.flag("help") {
        println!("{LINT_USAGE}");
        return Ok(());
    }
    if !a.flag("workspace") {
        return Err(CfqError::Config(format!(
            "cfq lint currently only supports whole-workspace scans\n{LINT_USAGE}"
        )));
    }
    let root = a.get("root").unwrap_or(".");
    if !Path::new(root).join("Cargo.toml").exists() {
        return Err(CfqError::Config(format!(
            "`{root}` is not a workspace root (no Cargo.toml); use --root"
        )));
    }
    let report = lint_workspace(Path::new(root));
    if a.flag("json") {
        println!("{}", report.render_json());
    } else {
        for f in &report.findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        println!(
            "lint: {} files scanned, {} metric names, {} finding(s)",
            report.files,
            report.metrics,
            report.findings.len()
        );
    }
    if !report.clean() {
        return Err(CfqError::Config(format!("{} lint finding(s)", report.findings.len())));
    }
    Ok(())
}
