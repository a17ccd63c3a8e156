//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p cfq-bench --release --bin repro -- all
//! cargo run -p cfq-bench --release --bin repro -- fig8a fig8b
//! CFQ_SCALE=1.0 cargo run -p cfq-bench --release --bin repro -- all   # paper scale
//! ```
//!
//! Environment: `CFQ_SCALE` (fraction of 100k transactions, default 0.1),
//! `CFQ_SEED`, `CFQ_SUPPORT` (relative support, default 0.004),
//! `CFQ_THREADS` (counting threads, default 0 = all cores), `CFQ_TRIM`
//! (per-level database trimming, default on; `0`/`off`/`false` disables).
//! The `audit` target statically audits every workload plan and writes
//! `BENCH_audit.json` (path override: `CFQ_AUDIT_OUT`). The system's own
//! timings are not here: `benchmark/run.sh` measures the request path.

use cfq_bench::experiments as exp;
use cfq_bench::ExpEnv;

const USAGE: &str = "usage: repro [fig8a|table-levels|table-ranges|fig8b|table-72|table-73|fig1|cap-suite|ablations|audit|all]...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h" || a == "help") {
        println!("{USAGE}");
        return;
    }
    let env = ExpEnv::from_env();
    println!(
        "# cfq reproduction run (scale={}, seed={}, support={}, threads={}, trim={})\n",
        env.scale,
        env.seed,
        env.support_frac,
        if env.threads == 0 { "all".to_string() } else { env.threads.to_string() },
        if env.trim { "on" } else { "off" },
    );
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig1", "fig8a", "table-levels", "table-ranges", "fig8b", "table-72", "table-73",
            "cap-suite", "ablations", "audit",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for t in targets {
        match t {
            "fig1" => exp::fig1().print(),
            "audit" => exp::audit(&env).print(),
            "fig8a" => exp::fig8a(&env).print(),
            "table-levels" => exp::table_levels(&env).print(),
            "table-ranges" => exp::table_ranges(&env).print(),
            "fig8b" => exp::fig8b(&env).print(),
            "table-72" => exp::table_72(&env).print(),
            "table-73" => exp::table_73(&env).print(),
            "cap-suite" => exp::cap_suite(&env).print(),
            "ablations" => {
                exp::ablation_layers(&env).print();
                exp::ablation_dovetail(&env).print();
                exp::ablation_bound_tightness(&env).print();
            }
            other => {
                eprintln!("unknown target `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
