//! The execution ledger as a golden: for every case of
//! `tests/golden/ledger/cases.txt` — the query matrix of
//! `tests/optimizer_matrix.rs` under two strategies and three supports,
//! and the six benchmark query families plus a required group, residual
//! checks and a `J^k_max` bound that prunes at level 2 on a generated
//! database — what `cfq query --explain` reports the run did: scans, scan
//! volume, trim drops, per-level candidates and frequent sets, sets
//! counted, candidates pruned, constraint checks, `V^k` histories, pair
//! checks. `ledger.out` was recorded with the binary of the commit before
//! level 2 stopped listing its candidates and the working database moved
//! to rank space:
//!
//! ```text
//! scripts/ledger_golden.sh <parent>/cfq tests/golden/ledger --record
//! ```
//!
//! and re-recorded once since, by the change that made level 1 a read of
//! the database's item-support column — which moves every run's scan count
//! and scan volume on purpose. That recording is the change's own, so it
//! is pinned from the other side: `scripts/ledger_golden.sh … --confined
//! REV` (a `scripts/ci.sh` stage) masks exactly those two quantities and
//! requires the rest of the file to equal the recording it replaced byte
//! for byte.
//!
//! Otherwise re-record only with a parent's binary, never with the
//! change's own. The default configuration must reproduce the file byte
//! for byte. (That a run counted by per-level scans — sides too wide for
//! the projection — accounts the same is pinned in `cfq-mining`:
//! `substrate.rs::per_level_scans_account_like_the_projection`.)
//!
//! A one-shot run's database carries no pair-support column; a serving
//! engine's does, and reads level 2 off it. So every case is rendered a
//! second time on the same rows with the column filled, and through the
//! engine's `bypass_cache`. Those two renderings must be equal, and equal
//! to the recorded one once the scan-volume line is masked: a column read
//! books its level's scan with zero rows, so scan volume and trim passes
//! are the one declared difference — `N db scans`, `database scans: N`,
//! every level's candidates and frequent sets, checks and pairs are not.

use cfq::datagen::io;
use cfq::prelude::*;
use std::fmt::Write as _;

const DIR: &str = "tests/golden/ledger";

fn dataset(name: &str) -> (TransactionDb, Catalog) {
    let db = match name {
        "matrix" => io::load_transactions(format!("{DIR}/matrix.tx")).unwrap(),
        // What `cfq gen --transactions 4000 --patterns 300` writes: the
        // options not given are `QuestConfig::default()`'s there too.
        "shapes" => generate_transactions(&QuestConfig {
            n_transactions: 4000,
            n_patterns: 300,
            ..QuestConfig::default()
        })
        .unwrap(),
        other => panic!("unknown dataset `{other}`"),
    };
    let catalog = io::read_catalog(std::fs::File::open(format!("{DIR}/{name}.catalog")).unwrap());
    (db, catalog.unwrap())
}

/// `cfq query`'s threshold from its `--abs-support N` / `--min-support F`.
fn min_support(flag: &str, rows: usize) -> u64 {
    match flag.split_once(' ').unwrap() {
        ("--abs-support", n) => n.parse().unwrap(),
        ("--min-support", f) => (rows as f64 * f.parse::<f64>().unwrap()).round().max(1.0) as u64,
        other => panic!("unknown support flag {other:?}"),
    }
}

/// What `scripts/ledger_golden.sh` keeps of `cfq query --explain --limit 0`:
/// the summary without its wall time, and the report without the rows that
/// name clocks and kernels rather than work.
fn ledger(out: &ExecutionOutcome, min_support: u64) -> String {
    let mut text = out.summary(min_support, None);
    let clocked = ["  micros: ", "  counted by: ", "backends: "];
    for line in out.report().lines().filter(|l| !clocked.iter().any(|c| l.starts_with(c))) {
        let _ = writeln!(text, "{line}");
    }
    text
}

/// `ledger` with the scan-volume line (`scan volume: …; trim dropped … over
/// N passes`) masked: what reading level 2 off the pair-support column may
/// change.
fn masked(ledger: &str) -> String {
    let mask = |l| if str::starts_with(l, "scan volume: ") { "scan volume: <masked>" } else { l };
    ledger.lines().map(mask).collect::<Vec<_>>().join("\n")
}

/// Every case three times: one-shot, as `cfq query` runs it, against the
/// recording; one-shot on the rows with the pair-support column filled; and
/// through the serving path's `bypass_cache`, whose epoch carries the
/// column — which must account scans, candidates, checks and `V^k`
/// histories the same.
#[test]
fn the_work_ledger_matches_the_parent_binary_byte_for_byte() {
    let cases = std::fs::read_to_string(format!("{DIR}/cases.txt")).unwrap();
    let want = std::fs::read_to_string(format!("{DIR}/ledger.out")).unwrap();
    let datasets = ["matrix", "shapes"].map(|name| {
        let (db, catalog) = dataset(name);
        let mut columned = db.clone();
        assert!(columned.fill_pair_supports());
        (name, db.clone(), columned, Engine::new(db, catalog).unwrap())
    });
    let mut got = String::new();
    for case in cases.lines() {
        let [name, support, strategy, query] = case.split('\t').collect::<Vec<_>>()[..] else {
            panic!("malformed case `{case}`");
        };
        let (_, db, columned, engine) = datasets.iter().find(|(n, ..)| *n == name).unwrap();
        assert!(engine.db().pair_supports().is_some());
        let catalog = engine.catalog();
        let bound = bind_query(&parse_query(query).unwrap(), &catalog).unwrap();
        let min_support = min_support(support, db.len());
        let strategy = Optimizer::from_name(strategy).unwrap();
        let run = |db: &TransactionDb| {
            let out = strategy.evaluate(&bound, &QueryEnv::new(db, &catalog, min_support));
            ledger(&out.unwrap(), min_support)
        };
        let one_shot = run(db);
        let from_column = run(columned);
        assert_eq!(masked(&from_column), masked(&one_shot), "pair-support column on `{case}`");
        let served = engine
            .session()
            .query(query)
            .min_support(min_support)
            .strategy(strategy)
            .bypass_cache()
            .run()
            .unwrap();
        assert_eq!(ledger(&served.outcome, min_support), from_column, "bypass_cache on `{case}`");
        let _ = writeln!(got, "## {case}", case = case.replace('\t', " "));
        got.push_str(&one_shot);
    }
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from {DIR}/ledger.out", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
