//! `cfq` — command-line front end for constrained frequent set queries.
//!
//! ```text
//! cfq gen --out data.txt [--items 1000] [--transactions 10000] [--seed 7]
//!         [--avg-trans-len 10] [--avg-pattern-len 4] [--patterns 2000]
//! cfq gen-catalog --items 1000 --out cat.txt
//!         [--num "Price:uniform:0:1000"]... [--cat "Type:8"]...
//! cfq query --data data.txt --catalog cat.txt --min-support 0.01 \
//!         "max(S.Price) <= min(T.Price)" [--strategy full|cap1|apriori+]
//!         [--explain] [--audit] [--limit 20] [--rules] [--min-confidence 0.6]
//! cfq audit --catalog cat.txt "max(S.Price) <= min(T.Price)"
//!         [--strategy full|cap1|apriori+] [--json report.json]
//! cfq stats --data data.txt
//! ```

mod args;
mod check;
mod commands;
mod serve;

use cfq_types::Result;

const USAGE: &str = "\
usage: cfq <command> [options]

commands:
  gen          generate a Quest synthetic transaction database
  gen-catalog  generate an itemInfo catalog (numeric/categorical attributes)
  query        run a CFQ against a database + catalog
  audit        statically verify a query's plan is sound (no data needed)
  mine         plain frequent-set mining (Apriori)
  stats        summarize a transaction database
  repl         interactive session over a long-lived caching engine
  serve        line-protocol TCP server; all connections share one engine
  model        exhaustively model-check the engine's concurrency protocols
  lint         token-level lint of the workspace sources (invariant pass)

run `cfq <command> --help` for command options";

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        println!("{USAGE}");
        return;
    }
    let command = argv.remove(0);
    let result: Result<()> = match command.as_str() {
        "gen" => commands::gen(argv),
        "gen-catalog" => commands::gen_catalog(argv),
        "query" => commands::query(argv),
        "audit" => commands::audit(argv),
        "mine" => commands::mine(argv),
        "stats" => commands::stats(argv),
        "repl" => serve::repl(argv),
        "serve" => serve::serve(argv),
        "model" => check::model(argv),
        "lint" => check::lint(argv),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
