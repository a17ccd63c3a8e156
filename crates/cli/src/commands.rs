//! The CLI subcommands.

use crate::args::{Args, MiningArgs};
use cfq_audit::{AuditReport, Auditor};
use cfq_constraints::{bind_dnf, parse_dnf};
use cfq_core::{form_rules, plan, Optimizer, QueryEnv, RuleConfig};
use cfq_datagen::{generate_transactions, io, QuestConfig};
use cfq_mining::{apriori, AprioriConfig, WorkStats};
use cfq_types::{Catalog, CatalogBuilder, CfqError, Result, TransactionDb};
use rand_lite::Pcg;

/// `cfq gen` — write a Quest database.
pub fn gen(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "cfq gen --out FILE [--items N] [--transactions N] [--seed N]\n\
             [--avg-trans-len F] [--avg-pattern-len F] [--patterns N]"
        );
        return Ok(());
    }
    let options =
        ["out", "items", "transactions", "seed", "avg-trans-len", "avg-pattern-len", "patterns"];
    let a = Args::parse_known(argv, &[], &options)?;
    // Every option defaults to the paper's workload, a tenth as many rows.
    let paper = QuestConfig::default();
    let cfg = QuestConfig {
        n_items: a.num("items", paper.n_items)?,
        n_transactions: a.num("transactions", 10_000usize)?,
        avg_trans_len: a.num("avg-trans-len", paper.avg_trans_len)?,
        avg_pattern_len: a.num("avg-pattern-len", paper.avg_pattern_len)?,
        n_patterns: a.num("patterns", paper.n_patterns)?,
        seed: a.num("seed", paper.seed)?,
        ..paper
    };
    let out = a.require("out")?;
    let db = generate_transactions(&cfg)?;
    io::save_transactions(&db, out)?;
    println!(
        "wrote {} transactions over {} items (avg len {:.2}) to {out}",
        db.len(),
        db.n_items(),
        db.avg_transaction_len()
    );
    Ok(())
}

/// `cfq gen-catalog` — write an itemInfo catalog. Attribute specs:
/// `--num "Name:uniform:LO:HI"`, `--num "Name:normal:MEAN:SD"`,
/// `--cat "Name:N_TYPES"`. (Options are single-valued; separate several
/// attributes with commas: `--num "Price:uniform:0:1000,Weight:normal:5:1"`.)
pub fn gen_catalog(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "cfq gen-catalog --items N --out FILE [--seed N]\n\
             [--num \"Name:uniform:LO:HI[,...]\"] [--num \"Name:normal:MEAN:SD\"]\n\
             [--cat \"Name:NTYPES[,...]\"]"
        );
        return Ok(());
    }
    let a = Args::parse_known(argv, &[], &["items", "out", "seed", "num", "cat"])?;
    let n_items: usize = a.num("items", 0usize)?;
    if n_items == 0 {
        return Err(CfqError::Config("--items must be given and positive".into()));
    }
    let out = a.require("out")?;
    let mut rng = Pcg::new(a.num("seed", 7u64)?);
    let mut b = CatalogBuilder::new(n_items);

    let num_specs = a.get("num").unwrap_or("Price:uniform:0:1000");
    for spec in num_specs.split(',') {
        let parts: Vec<&str> = spec.split(':').collect();
        let [name, dist, p1, p2] = parts.as_slice() else {
            return Err(CfqError::Config(format!("bad numeric spec `{spec}`")));
        };
        let p1: f64 = p1.parse().map_err(|_| CfqError::Config(format!("bad number in `{spec}`")))?;
        let p2: f64 = p2.parse().map_err(|_| CfqError::Config(format!("bad number in `{spec}`")))?;
        let values: Vec<f64> = match *dist {
            "uniform" => (0..n_items).map(|_| p1 + rng.f64() * (p2 - p1)).collect(),
            "normal" => (0..n_items).map(|_| (p1 + rng.gauss() * p2).max(0.0)).collect(),
            other => return Err(CfqError::Config(format!("unknown distribution `{other}`"))),
        };
        b.num_attr(name, values)?;
    }
    if let Some(cat_specs) = a.get("cat") {
        for spec in cat_specs.split(',') {
            let parts: Vec<&str> = spec.split(':').collect();
            let [name, k] = parts.as_slice() else {
                return Err(CfqError::Config(format!("bad categorical spec `{spec}`")));
            };
            let k: usize = k
                .parse()
                .map_err(|_| CfqError::Config(format!("bad type count in `{spec}`")))?;
            if k == 0 {
                return Err(CfqError::Config("type count must be positive".into()));
            }
            let labels: Vec<String> =
                (0..n_items).map(|_| format!("{}{}", name, rng.below(k))).collect();
            b.cat_attr(name, &labels)?;
        }
    }
    let catalog = b.build();
    io::write_catalog(&catalog, std::fs::File::create(out)?)?;
    println!("wrote catalog with {} attribute(s) for {} items to {out}", catalog.n_attrs(), n_items);
    Ok(())
}

/// `cfq query` — run a CFQ.
pub fn query(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "cfq query --data FILE --catalog FILE \"CONSTRAINTS\"\n\
             [--min-support FRAC|--abs-support N] [--strategy full|cap1|apriori+]\n\
             [--explain] [--audit] [--limit N] [--rules] [--min-confidence F]\n\
             [--out pairs.csv]\n{}",
            MiningArgs::HELP
        );
        return Ok(());
    }
    let options: &[&str] = &[
        "data", "catalog", "min-support", "abs-support", "strategy", "limit", "min-confidence", "out",
    ];
    let a = Args::parse_known(
        argv,
        &["explain", "rules", "audit"],
        &[options, MiningArgs::OPTIONS].concat(),
    )?;
    let (db, catalog) = load(&a)?;
    let text = a
        .positional
        .first()
        .ok_or_else(|| CfqError::Config("give the query as a positional argument".into()))?;
    let disjuncts = bind_dnf(&parse_dnf(text)?, &catalog)?;

    let min_support = match a.get("abs-support") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| CfqError::Config(format!("bad --abs-support `{v}`")))?,
        None => {
            let frac: f64 = a.num("min-support", 0.01f64)?;
            ((db.len() as f64) * frac).round().max(1.0) as u64
        }
    };
    let optimizer = parse_strategy(a.get("strategy"))?;

    // The --audit gate: statically verify the plan's rewrite obligations
    // before touching the data, and refuse to execute an unsound plan.
    if a.flag("audit") {
        render_audit(&Auditor::new(&catalog).audit_dnf(text)?, None)?;
    }

    // The CLI defaults to all cores (0); the library default stays 1 so
    // programmatic runs are deterministic in their work accounting.
    let mining = MiningArgs::from_args(&a)?;
    let env = QueryEnv::new(&db, &catalog, min_support)
        .with_counting_threads(mining.threads)
        .with_trim(mining.trim)
        .with_backend(mining.backend);
    if a.flag("explain") {
        for (i, bound) in disjuncts.iter().enumerate() {
            if disjuncts.len() > 1 {
                println!("-- disjunct {} --", i + 1);
            }
            println!("{}", plan(bound, &catalog).explain(&optimizer, &catalog));
        }
    }
    let start = std::time::Instant::now();
    let out = if disjuncts.len() == 1 {
        optimizer.evaluate(&disjuncts[0], &env)?
    } else {
        optimizer.run_dnf(&disjuncts, &env)?
    };
    print!("{}", out.summary(min_support, Some(start.elapsed())));
    if a.flag("explain") {
        // The plan went out above; this is what executing it did, level
        // by level, with each level's wall time.
        print!("{}", out.report());
    }
    let limit: usize = a.num("limit", 20usize)?;
    for &(si, ti) in out.pair_result.pairs.iter().take(limit) {
        let (s, s_sup) = &out.s_sets[si as usize];
        let (t, t_sup) = &out.t_sets[ti as usize];
        println!("  {s} (sup {s_sup})  =>  {t} (sup {t_sup})");
    }
    if out.pair_result.count as usize > limit {
        println!("  … {} more (raise --limit)", out.pair_result.count as usize - limit);
    }

    if let Some(path) = a.get("out") {
        out.write_pairs_csv(std::fs::File::create(path)?)?;
        println!("wrote {} pairs to {path}", out.pair_result.pairs.len());
    }

    if a.flag("rules") {
        let cfg = RuleConfig {
            min_support: 1,
            min_confidence: a.num("min-confidence", 0.5f64)?,
        };
        let rules = form_rules(&out, &db, &cfg);
        println!("\n{} rules at confidence >= {}:", rules.len(), cfg.min_confidence);
        for r in rules.iter().take(limit) {
            println!(
                "  {} => {}  (sup {}, conf {:.2}, lift {:.2})",
                r.antecedent, r.consequent, r.support, r.confidence, r.lift
            );
        }
    }
    Ok(())
}

/// `cfq audit` — statically verify a query's optimizer plan against the
/// paper's soundness obligations (Figs. 1–4, §5.2). Needs the catalog (for
/// column envelopes and attribute binding) but never touches transaction
/// data; exits non-zero when the plan is unsound.
pub fn audit(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "cfq audit --catalog FILE \"CONSTRAINTS\" [--json report.json]"
        );
        return Ok(());
    }
    let a = Args::parse_known(argv, &[], &["catalog", "json"])?;
    let catalog = io::read_catalog(std::fs::File::open(a.require("catalog")?)?)?;
    let text = a
        .positional
        .first()
        .ok_or_else(|| CfqError::Config("give the query as a positional argument".into()))?;
    let reports = Auditor::new(&catalog).audit_dnf(text)?;
    render_audit(&reports, a.get("json"))
}

/// Prints audit reports (one per DNF disjunct), optionally writes the JSON
/// rendering, and fails when any disjunct's plan is unsound.
fn render_audit(reports: &[AuditReport], json_path: Option<&str>) -> Result<()> {
    for (i, r) in reports.iter().enumerate() {
        if reports.len() > 1 {
            println!("-- disjunct {} --", i + 1);
        }
        print!("{}", r.render());
    }
    if let Some(path) = json_path {
        let body: Vec<String> = reports.iter().map(AuditReport::to_json).collect();
        std::fs::write(path, format!("[{}]\n", body.join(", ")))?;
        println!("wrote audit report to {path}");
    }
    // Refuse on the first error-severity finding, surfacing it losslessly
    // as the typed audit error (all findings were already printed above).
    if let Some(first) = reports.iter().flat_map(|r| r.errors()).next() {
        return Err(CfqError::from(first.clone()));
    }
    Ok(())
}

/// `cfq mine` — plain frequent-set mining (Apriori).
pub fn mine(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!(
            "cfq mine --data FILE [--min-support FRAC|--abs-support N]\n\
             [--limit N] [--maximal] [--closed] [--audit]\n{}",
            MiningArgs::HELP
        );
        return Ok(());
    }
    let options: &[&str] = &["data", "min-support", "abs-support", "limit"];
    let a = Args::parse_known(
        argv,
        &["maximal", "closed", "audit"],
        &[options, MiningArgs::OPTIONS].concat(),
    )?;
    let db = io::load_transactions(a.require("data")?)?;
    if a.flag("audit") {
        // Release-build equivalent of the CSR store's debug invariants.
        db.validate()?;
        println!("audit: CSR store valid ({} rows, {} items)", db.len(), db.n_items());
    }
    let min_support = match a.get("abs-support") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| CfqError::Config(format!("bad --abs-support `{v}`")))?,
        None => {
            let frac: f64 = a.num("min-support", 0.01f64)?;
            ((db.len() as f64) * frac).round().max(1.0) as u64
        }
    };
    let mining = MiningArgs::from_args(&a)?;
    let mut stats = WorkStats::new();
    let start = std::time::Instant::now();
    let fs = apriori(&db, &mining.apply_to_apriori(AprioriConfig::new(min_support)), &mut stats);
    let took = start.elapsed().as_secs_f64();
    println!(
        "{} frequent sets (max size {}) | min_support={} | {} db scans | {:.3}s",
        fs.total(),
        fs.n_levels(),
        min_support,
        stats.db_scans,
        took
    );
    let limit: usize = a.num("limit", 20usize)?;
    if a.flag("maximal") {
        let max = fs.maximal();
        println!("{} maximal sets:", max.len());
        for s in max.iter().take(limit) {
            println!("  {s} (sup {})", fs.support(s).unwrap_or(0));
        }
    } else if a.flag("closed") {
        let closed = fs.closed();
        println!("{} closed sets:", closed.len());
        for (s, sup) in closed.iter().take(limit) {
            println!("  {s} (sup {sup})");
        }
    } else {
        let mut all: Vec<(&cfq_types::Itemset, u64)> = fs.iter().collect();
        all.sort_by_key(|&(_, sup)| std::cmp::Reverse(sup));
        for (s, sup) in all.into_iter().take(limit) {
            println!("  {s} (sup {sup})");
        }
    }
    Ok(())
}

/// `cfq stats` — database summary.
pub fn stats(argv: Vec<String>) -> Result<()> {
    if wants_help(&argv) {
        println!("cfq stats --data FILE");
        return Ok(());
    }
    let a = Args::parse_known(argv, &[], &["data"])?;
    let db = io::load_transactions(a.require("data")?)?;
    let mut freq = vec![0u64; db.n_items()];
    let mut max_len = 0usize;
    for t in db.iter() {
        max_len = max_len.max(t.len());
        for &i in t {
            freq[i.index()] += 1;
        }
    }
    let active = freq.iter().filter(|&&f| f > 0).count();
    let top = freq.iter().copied().max().unwrap_or(0);
    println!(
        "transactions: {}\nitems: {} ({} active)\navg transaction length: {:.2}\nmax transaction length: {}\nmost frequent item occurs in: {} transactions ({:.2}%)",
        db.len(),
        db.n_items(),
        active,
        db.avg_transaction_len(),
        max_len,
        top,
        100.0 * top as f64 / db.len().max(1) as f64,
    );
    Ok(())
}

pub(crate) fn load(a: &Args) -> Result<(TransactionDb, Catalog)> {
    let db = io::load_transactions(a.require("data")?)?;
    let catalog = match a.get("catalog") {
        Some(path) => io::read_catalog(std::fs::File::open(path)?)?,
        None => Catalog::empty(db.n_items()),
    };
    if catalog.n_items() != db.n_items() {
        return Err(CfqError::Config(format!(
            "catalog covers {} items but database has {}",
            catalog.n_items(),
            db.n_items()
        )));
    }
    Ok((db, catalog))
}

pub(crate) fn wants_help(argv: &[String]) -> bool {
    argv.iter().any(|a| a == "--help" || a == "-h")
}

/// Parses a `--strategy` option value; absent means the full optimizer.
pub(crate) fn parse_strategy(value: Option<&str>) -> Result<Optimizer> {
    let name = value.unwrap_or("full");
    Optimizer::from_name(name)
        .ok_or_else(|| CfqError::Config(format!("unknown strategy `{name}`")))
}

/// A tiny self-contained PCG32 random generator so the CLI crate does not
/// need the `rand` dependency for its few catalog draws.
mod rand_lite {
    /// PCG-XSH-RR 64/32.
    pub struct Pcg {
        state: u64,
    }

    impl Pcg {
        /// Seeds the generator (one warm-up step mixes the seed in).
        pub fn new(seed: u64) -> Pcg {
            let mut p = Pcg { state: seed.wrapping_mul(0x853c_49e6_748f_ea9b) ^ 0x94d0_49bb_1331_11eb };
            p.next_u32();
            p
        }

        /// The next 32 uniform random bits.
        pub fn next_u32(&mut self) -> u32 {
            let old = self.state;
            self.state = old
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
            let rot = (old >> 59) as u32;
            xorshifted.rotate_right(rot)
        }

        /// Uniform in [0, 1).
        pub fn f64(&mut self) -> f64 {
            (self.next_u32() as f64) / (u32::MAX as f64 + 1.0)
        }

        /// Uniform integer below `n`.
        pub fn below(&mut self, n: usize) -> usize {
            (self.f64() * n as f64) as usize % n
        }

        /// Standard normal via Box–Muller.
        pub fn gauss(&mut self) -> f64 {
            let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
            let u2 = self.f64();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cfq_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn argv(v: &[String]) -> Vec<String> {
        v.to_vec()
    }

    #[test]
    fn gen_query_roundtrip() {
        let data = tmp("d.txt");
        let cat = tmp("c.txt");
        gen(argv(&[
            "--out".into(),
            data.clone(),
            "--items".into(),
            "40".into(),
            "--transactions".into(),
            "300".into(),
            "--patterns".into(),
            "20".into(),
        ]))
        .unwrap();
        gen_catalog(argv(&[
            "--items".into(),
            "40".into(),
            "--out".into(),
            cat.clone(),
            "--num".into(),
            "Price:uniform:0:100".into(),
            "--cat".into(),
            "Type:3".into(),
        ]))
        .unwrap();
        query(argv(&[
            "--data".into(),
            data.clone(),
            "--catalog".into(),
            cat.clone(),
            "--min-support".into(),
            "0.08".into(),
            "--explain".into(),
            "--rules".into(),
            "max(S.Price) <= min(T.Price)".into(),
        ]))
        .unwrap();
        stats(argv(&["--data".into(), data.clone()])).unwrap();
        mine(argv(&["--data".into(), data.clone(), "--min-support".into(), "0.05".into()]))
            .unwrap();
        mine(argv(&["--data".into(), data.clone(), "--maximal".into()])).unwrap();
        mine(argv(&["--data".into(), data, "--closed".into()])).unwrap();
    }

    #[test]
    fn trim_and_thread_flags() {
        let data = tmp("d4.txt");
        gen(argv(&[
            "--out".into(),
            data.clone(),
            "--items".into(),
            "30".into(),
            "--transactions".into(),
            "200".into(),
            "--patterns".into(),
            "10".into(),
        ]))
        .unwrap();
        for trim in ["on", "off"] {
            query(argv(&[
                "--data".into(),
                data.clone(),
                "--min-support".into(),
                "0.05".into(),
                "--trim".into(),
                trim.into(),
                "--threads".into(),
                "2".into(),
                "S disjoint T".into(),
            ]))
            .unwrap();
            mine(argv(&["--data".into(), data.clone(), "--trim".into(), trim.into()])).unwrap();
        }
        assert!(query(argv(&[
            "--data".into(),
            data,
            "--trim".into(),
            "sideways".into(),
            "S disjoint T".into(),
        ]))
        .is_err());
    }

    #[test]
    fn backend_flag_on_query_and_mine() {
        let data = tmp("d6.txt");
        gen(argv(&[
            "--out".into(),
            data.clone(),
            "--items".into(),
            "30".into(),
            "--transactions".into(),
            "200".into(),
            "--patterns".into(),
            "10".into(),
        ]))
        .unwrap();
        for backend in ["horizontal", "tidset", "bitmap", "auto"] {
            query(argv(&[
                "--data".into(),
                data.clone(),
                "--min-support".into(),
                "0.05".into(),
                "--backend".into(),
                backend.into(),
                "S disjoint T".into(),
            ]))
            .unwrap();
            mine(argv(&["--data".into(), data.clone(), "--backend".into(), backend.into()]))
                .unwrap();
        }
        assert!(query(argv(&[
            "--data".into(),
            data,
            "--backend".into(),
            "diagonal".into(),
            "S disjoint T".into(),
        ]))
        .is_err());
    }

    #[test]
    fn audit_command_and_execution_gates() {
        let data = tmp("d5.txt");
        let cat = tmp("c5.txt");
        let json = tmp("audit5.json");
        gen(argv(&[
            "--out".into(),
            data.clone(),
            "--items".into(),
            "40".into(),
            "--transactions".into(),
            "200".into(),
            "--patterns".into(),
            "10".into(),
        ]))
        .unwrap();
        gen_catalog(argv(&[
            "--items".into(),
            "40".into(),
            "--out".into(),
            cat.clone(),
            "--num".into(),
            "Price:uniform:0:100".into(),
        ]))
        .unwrap();
        // Static audit: no --data needed; DNF audits per disjunct; JSON out.
        audit(argv(&[
            "--catalog".into(),
            cat.clone(),
            "--json".into(),
            json.clone(),
            "avg(S.Price) <= avg(T.Price) | max(S.Price) <= min(T.Price)".into(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.contains("\"sound\": true"), "{body}");
        // The gates on execution commands.
        query(argv(&[
            "--data".into(),
            data.clone(),
            "--catalog".into(),
            cat.clone(),
            "--audit".into(),
            "--min-support".into(),
            "0.08".into(),
            "sum(S.Price) <= sum(T.Price)".into(),
        ]))
        .unwrap();
        mine(argv(&["--data".into(), data, "--audit".into()])).unwrap();
        // Parse errors and bad strategies surface as errors.
        assert!(audit(argv(&["--catalog".into(), cat.clone(), "not a query".into()])).is_err());
        assert!(audit(argv(&[
            "--catalog".into(),
            cat,
            "--strategy".into(),
            "warp".into(),
            "freq(S)".into()
        ]))
        .is_err());
    }

    /// Options that no longer exist fail like a typo does; none of them
    /// swallows the token after it and runs.
    #[test]
    fn removed_options_and_typos_are_unknown_options() {
        for command in [query as fn(Vec<String>) -> Result<()>, mine] {
            for (option, value) in [("shards", "4"), ("backbone", "fpgrowth"), ("min-suport", "0.1")] {
                let line = ["--data", "/nonexistent", &format!("--{option}"), value, "freq(S)"];
                match command(line.map(String::from).to_vec()) {
                    Err(CfqError::Config(m)) => assert_eq!(m, format!("unknown option --{option}")),
                    other => panic!("--{option}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn query_errors() {
        assert!(query(argv(&["--data".into(), "/nonexistent".into(), "freq(S)".into()])).is_err());
        let data = tmp("d2.txt");
        gen(argv(&[
            "--out".into(),
            data.clone(),
            "--items".into(),
            "10".into(),
            "--transactions".into(),
            "50".into(),
            "--patterns".into(),
            "5".into(),
        ]))
        .unwrap();
        // Missing query text.
        assert!(query(argv(&["--data".into(), data.clone()])).is_err());
        // Unknown strategy.
        assert!(query(argv(&[
            "--data".into(),
            data,
            "--strategy".into(),
            "warp".into(),
            "freq(S)".into()
        ]))
        .is_err());
    }

    #[test]
    fn gen_catalog_spec_errors() {
        let out = tmp("c2.txt");
        assert!(gen_catalog(argv(&["--out".into(), out.clone()])).is_err()); // no --items
        assert!(gen_catalog(argv(&[
            "--items".into(),
            "5".into(),
            "--out".into(),
            out.clone(),
            "--num".into(),
            "Price:banana:0:1".into()
        ]))
        .is_err());
        assert!(gen_catalog(argv(&[
            "--items".into(),
            "5".into(),
            "--out".into(),
            out,
            "--cat".into(),
            "Type:0".into()
        ]))
        .is_err());
    }

    #[test]
    fn pcg_is_sane() {
        let mut p = rand_lite::Pcg::new(42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let x = p.f64();
            assert!((0.0..1.0).contains(&x));
            seen.insert((x * 1e9) as u64);
        }
        assert!(seen.len() > 900, "PCG output looks degenerate");
        for _ in 0..100 {
            assert!(p.below(7) < 7);
        }
    }
}
