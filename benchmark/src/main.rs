//! `cfq-benchmark`: the end-to-end and per-layer benchmark of `cfq serve`.
//! Run it through `benchmark/run.sh`, which builds `cfq` and this binary
//! first; see `benchmark/README.md`.

mod inputs;
mod layers;
mod oracle;
mod report;
mod run;
mod server;
mod stats;
mod tcp;
mod trace;
mod verify;
mod workloads;

use inputs::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
           one run of one workload; the last stdout line is the result object;
           exits non-zero when an answer fails verification
       benchmark/run.sh --all [--seed N] [--out FILE]
           every workload, five end-to-end runs and one traced run each, with a
           provenance header; writes a results file (default <target>/cfq-bench/results.json)
       benchmark/run.sh --smoke
           --all on a second, fifty times smaller database, one run of one
           second each; writes under <target>/cfq-bench/smoke/
       benchmark/run.sh --emit [--seed N]      print the four request streams
       benchmark/run.sh --describe             print BENCHMARK.json
       benchmark/run.sh compare A.json B.json  apply the bounds to two results files
workloads: optimizer_cold warm_refine explore_session append_churn";

/// Every option some mode takes; anything else is refused, so a knob that
/// does not exist is never silently ignored.
const FLAGS: [&str; 13] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--all",
    "--smoke",
    "--out",
    "--emit",
    "--describe",
    "--help",
    "-h",
    "--cfq",
    "--work",
];

/// `--key value` pairs and bare flags, in any order.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("compare needs two results files".into());
        };
        let (table, pass) = report::compare(a.as_ref(), b.as_ref())?;
        print!("{table}");
        return Ok(pass);
    }
    let args = Args(argv);
    if let Some(unknown) = args
        .0
        .iter()
        .find(|a| a.starts_with('-') && !FLAGS.contains(&a.as_str()))
    {
        return Err(format!("unknown option `{unknown}`\n{USAGE}"));
    }
    if args.flag("--help") || args.flag("-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    if args.flag("--describe") {
        print!("{}", report::describe());
        return Ok(true);
    }
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    if args.flag("--emit") {
        print!("{}", inputs::emit(seed, 25));
        return Ok(true);
    }

    // Everything below spawns `cfq serve` and writes scratch files.
    let cfq = PathBuf::from(
        args.value("--cfq")
            .ok_or("--cfq PATH is required (run.sh passes it)")?,
    );
    let work_root = PathBuf::from(
        args.value("--work")
            .ok_or("--work DIR is required (run.sh passes it)")?,
    );
    let smoke = args.flag("--smoke");
    if smoke || args.flag("--all") {
        let root = if smoke {
            work_root.join("smoke")
        } else {
            work_root
        };
        let opts = report::ReportOptions {
            seed,
            smoke,
            cfq,
            out: args
                .value("--out")
                .map_or_else(|| root.join("results.json"), PathBuf::from),
            work: root,
        };
        return report::full_report(&opts);
    }

    let name = args
        .value("--workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let seconds: f64 = args.parsed("--seconds", report::RUN_SECONDS as f64)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    // One directory per process, so concurrent runs cannot collide.
    let work = work_root.join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let cfg = workloads::Config {
        workload,
        seed,
        seconds,
        smoke: false,
        cfq,
        work,
    };
    let out = if trace {
        run::traced(&cfg, &work_root.join(format!("trace-{name}.json")))
    } else {
        run::end_to_end(&cfg)
    };
    // The scratch directory goes on success; a failed run keeps it (server
    // logs included) for the post-mortem.
    let out = out?;
    let _ = std::fs::remove_dir_all(&cfg.work);
    for note in &out.notes {
        eprintln!("{note}");
    }
    for (name, value, unit) in &out.metrics {
        eprintln!("{name:<38} {value:>16.4} {unit}");
    }
    println!("{}", out.to_json());
    Ok(out.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
