//! The hand-run side of the benchmark: the full report over all four
//! workloads with its provenance header, `compare`, and the generator of
//! `BENCHMARK.json`.

use crate::inputs::Workload;
use crate::run::{end_to_end, load_average, number, traced, RunOutput, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::Config;
use cfq_engine::json::{self, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`),
/// and one end-to-end run of `--all`. Ten seeds at 10, 15 and 20 s gave
/// `append_churn` a throughput quartile spread of 8.6, 6.8 and 5.1 %; the
/// driver's time budget ends the lengthening at 20.
pub const RUN_SECONDS: u32 = 20;
/// End-to-end runs per workload in `--all`; medians and spreads are over
/// these.
const REPS: usize = 5;

/// Why each workload exists, one line each (`workloads[].why`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::OptimizerCold => "cache bypassed: every query runs the Fig. 7 optimizer (core, constraints, mining) one-shot; cache, scheduler and WAL do nothing",
        Workload::WarmRefine => "cache used: two clients refine over cached lattices and never mine; pairs, session filter, wire encode and serve are the latency",
        Workload::ExploreSession => "mixed: each session opens a fresh 400-item universe (cold apriori + cache insert) then refines it seven times (cache hits, new plans)",
        Workload::AppendChurn => "writes beside reads: durable :append (WAL fsync, FUP, snapshots, epoch swap) while a reader queries, then kill -9 and restart",
    }
}

/// Per-layer counts that must repeat exactly for one seed and `--seconds`;
/// `compare` fails when one differs.
pub const EXACT_COUNTS: [&str; 12] = [
    "optimizer.candidates_counted",
    "optimizer.constraint_checks",
    "optimizer.pruned_candidates",
    "optimizer.db_scans",
    "mining.level_candidates",
    "mining.rows_scanned",
    "mining.items_scanned",
    "pairs.checks",
    "wire.reply_bytes",
    "cache.lattice_hits",
    "cache.lattice_misses",
    "wal.bytes_per_record",
];

/// The text of `BENCHMARK.json`, generated from the registries the runs
/// report from, so the two cannot drift apart.
pub fn describe() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The provenance header: what was measured, where, when.
fn header(cfg: &Config, reps: usize) -> Vec<(&'static str, String)> {
    let quoted = |s: String| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("commit", quoted(commit)),
        ("dirty", dirty.to_string()),
        ("seed", cfg.seed.to_string()),
        ("data_seed", cfg.data_seed().to_string()),
        ("scale", number(cfg.scale())),
        (
            "transactions",
            crate::inputs::base_rows(cfg.scale()).to_string(),
        ),
        ("seconds_per_run", number(cfg.seconds)),
        ("end_to_end_runs_per_workload", reps.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", quoted(cpu)),
        (
            "rustc",
            quoted(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "date",
            quoted(
                command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("load_avg_1m", number(load_average())),
    ]
}

/// Options of the full report.
pub struct ReportOptions {
    pub seed: u64,
    /// One run of one second per workload on the smoke database, instead
    /// of [`REPS`] runs of [`RUN_SECONDS`] on the paper's.
    pub smoke: bool,
    pub cfq: PathBuf,
    /// Scratch root; also receives `trace-<workload>.json`.
    pub work: PathBuf,
    /// Where the results file goes.
    pub out: PathBuf,
}

/// Runs every workload [`REPS`] times end to end and once traced, prints
/// every metric by name with its unit, writes the results file. Returns
/// whether every answer verified.
pub fn full_report(opts: &ReportOptions) -> Result<bool, String> {
    let reps = if opts.smoke { 1 } else { REPS };
    let config = |workload: Workload| Config {
        workload,
        seed: opts.seed,
        seconds: if opts.smoke { 1.0 } else { RUN_SECONDS as f64 },
        smoke: opts.smoke,
        cfq: opts.cfq.clone(),
        work: opts.work.join(workload.name()),
    };
    let head = header(&config(Workload::ALL[0]), reps);
    println!("# cfq benchmark");
    for (key, value) in &head {
        println!("# {key}: {value}");
    }
    let mut file = String::from("{\n  \"header\": {");
    file.push_str(
        &head
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    file.push_str("},\n  \"workloads\": {\n");
    let mut all_correct = true;
    for (wi, workload) in Workload::ALL.into_iter().enumerate() {
        let cfg = config(workload);
        let run_dir = &cfg.work;
        let fresh = || -> Result<(), String> {
            let _ = std::fs::remove_dir_all(run_dir);
            std::fs::create_dir_all(run_dir)
                .map_err(|e| format!("create {}: {e}", run_dir.display()))
        };
        let mut runs: Vec<RunOutput> = Vec::new();
        for _ in 0..reps {
            fresh()?;
            runs.push(end_to_end(&cfg)?);
        }
        fresh()?;
        let layers = traced(
            &cfg,
            &opts.work.join(format!("trace-{}.json", workload.name())),
        )?;
        let _ = std::fs::remove_dir_all(run_dir);

        let attempted: u64 = runs.iter().map(|r| r.attempted).sum::<u64>() + layers.attempted;
        let failed: u64 = runs.iter().map(|r| r.failed).sum::<u64>() + layers.failed;
        all_correct &= failed == 0;
        println!("\n## {} — {}", workload.name(), why(workload));
        for note in runs.iter().chain([&layers]).flat_map(|r| &r.notes) {
            println!("# {note}");
        }
        println!("attempted {attempted}, failed {failed}");
        let _ = write!(
            file,
            "    \"{}\": {{\n      \"attempted\": {attempted}, \"failed\": {failed},\n      \"end_to_end\": {{\n",
            workload.name()
        );
        for (mi, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[mi].1).collect();
            let (med, spread) = (median(&values), quartile_spread(&values));
            println!(
                "{name:<38} {med:>14.4} {unit:<6} spread {:>5.1}% of bound {:.0}%  runs {:?}",
                spread * 100.0,
                bound * 100.0,
                values
            );
            let _ = writeln!(
                file,
                "        \"{name}\": {{\"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}, \"median\": {}, \"spread\": {}, \"runs\": [{}]}}{}",
                number(med),
                number(spread),
                values.iter().map(|v| number(*v)).collect::<Vec<_>>().join(", "),
                if mi + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        file.push_str("      },\n      \"per_layer\": {\n");
        for (mi, (name, value, unit)) in layers.metrics.iter().enumerate() {
            println!("{name:<38} {value:>14.4} {unit}");
            let _ = writeln!(
                file,
                "        \"{name}\": {{\"unit\": \"{unit}\", \"value\": {}}}{}",
                number(*value),
                if mi + 1 < layers.metrics.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(
            file,
            "      }}\n    }}{}",
            if wi + 1 < Workload::ALL.len() {
                ","
            } else {
                ""
            }
        );
    }
    file.push_str("  }\n}\n");
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, file).map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    println!("\nresults written to {}", opts.out.display());
    Ok(all_correct)
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare A.json B.json`: applies each end-to-end metric's bound per
/// workload to two results files (`A` is the base). Returns the table and
/// whether `B` passes: no regression beyond a bound, no failed operation,
/// and no exact count that differs.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    compare_values(&load(a)?, &load(b)?)
}

pub fn compare_values(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<16} {:<24} {:>12} {:>12} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "new/base"
    );
    let mut pass = true;
    let missing = |what: &str| format!("results file lacks {what}");
    for workload in Workload::ALL {
        let section = |file: &Json| -> Result<Json, String> {
            file.get("workloads")
                .and_then(|w| w.get(workload.name()))
                .cloned()
                .ok_or_else(|| missing(workload.name()))
        };
        let (wa, wb) = (section(a)?, section(b)?);
        let failed = wb
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("failed"))?;
        if failed > 0 {
            pass = false;
            let _ = writeln!(
                table,
                "{:<16} {failed} operations FAILED verification",
                workload.name()
            );
        }
        for (name, _, better, _) in END_TO_END {
            let field = |w: &Json, key: &str| -> Result<f64, String> {
                w.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| missing(&format!("{}.{name}.{key}", workload.name())))
            };
            let (base, new) = (field(&wa, "median")?, field(&wb, "median")?);
            let bound = field(&wa, "bound")?;
            let spread = field(&wa, "spread")?.max(field(&wb, "spread")?);
            let worse = if better == "higher" {
                (base - new) / base
            } else {
                (new - base) / base
            };
            let verdict = if spread > bound {
                "unresolved (spread exceeds the bound)".to_string()
            } else if worse > bound {
                pass = false;
                format!(
                    "REGRESSION ({:+.1}% against a bound of {:.0}%)",
                    worse * 100.0,
                    bound * 100.0
                )
            } else {
                "ok".to_string()
            };
            let _ = writeln!(
                table,
                "{:<16} {name:<24} {base:>12.4} {new:>12.4} {:>8.3}  {verdict}",
                workload.name(),
                new / base
            );
        }
        for name in EXACT_COUNTS {
            let value = |w: &Json| {
                w.get("per_layer")
                    .and_then(|p| p.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            if let (Some(base), Some(new)) = (value(&wa), value(&wb)) {
                if base != new {
                    pass = false;
                    let _ = writeln!(
                        table,
                        "{:<16} {name:<24} {base:>12.4} {new:>12.4} {:>8.3}  COUNT DIFFERS",
                        workload.name(),
                        new / base
                    );
                }
            }
        }
    }
    Ok((table, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(qps: f64, spread: f64, candidates: f64, failed: u64) -> Json {
        let mut text = String::from("{\"workloads\": {");
        for (i, w) in Workload::ALL.iter().enumerate() {
            let e2e: Vec<String> = END_TO_END
                .iter()
                .map(|(name, _, _, bound)| {
                    let median = if *name == "throughput_qps" { qps } else { 5.0 };
                    format!("\"{name}\": {{\"bound\": {bound}, \"median\": {median}, \"spread\": {spread}}}")
                })
                .collect();
            let _ = write!(
                text,
                "{}\"{}\": {{\"failed\": {failed}, \"end_to_end\": {{{}}}, \"per_layer\": {{\"optimizer.candidates_counted\": {{\"value\": {candidates}}}}}}}",
                if i > 0 { "," } else { "" },
                w.name(),
                e2e.join(",")
            );
        }
        text.push_str("}}");
        json::parse(&text).unwrap()
    }

    #[test]
    fn compare_applies_bounds_in_the_metric_s_direction() {
        let base = results(100.0, 0.01, 7.0, 0);
        let (table, pass) = compare_values(&base, &results(90.0, 0.01, 7.0, 0)).unwrap();
        assert!(pass, "10% slower is inside the 25% bound:\n{table}");
        let (table, pass) = compare_values(&base, &results(70.0, 0.01, 7.0, 0)).unwrap();
        assert!(!pass && table.contains("REGRESSION"), "{table}");
        // Higher throughput is never a regression.
        assert!(
            compare_values(&base, &results(300.0, 0.01, 7.0, 0))
                .unwrap()
                .1
        );
    }

    #[test]
    fn compare_marks_noise_unresolved_and_counts_exact() {
        let base = results(100.0, 0.01, 7.0, 0);
        let (table, pass) = compare_values(&base, &results(50.0, 0.9, 7.0, 0)).unwrap();
        assert!(pass && table.contains("unresolved"), "{table}");
        let (table, pass) = compare_values(&base, &results(100.0, 0.01, 8.0, 0)).unwrap();
        assert!(!pass && table.contains("COUNT DIFFERS"), "{table}");
        let (table, pass) = compare_values(&base, &results(100.0, 0.01, 7.0, 2)).unwrap();
        assert!(!pass && table.contains("FAILED"), "{table}");
    }

    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            describe(),
            "regenerate with `benchmark/run.sh --describe > BENCHMARK.json`"
        );
        let v = json::parse(&committed).unwrap();
        assert_eq!(
            v.get("per_layer").and_then(Json::as_arr).unwrap().len(),
            PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
    }
}
