//! Empirical ccc-optimality audits (Definition 6 / Theorem 4) through the
//! public API, on Quest-generated data.

use cfq::core::ccc::audit_lattice;
use cfq::prelude::*;

fn setup() -> (TransactionDb, Catalog) {
    let quest = QuestConfig {
        n_items: 30,
        n_transactions: 200,
        avg_trans_len: 6.0,
        avg_pattern_len: 3.0,
        n_patterns: 15,
        ..QuestConfig::default()
    };
    let db = generate_transactions(&quest).unwrap();
    let mut b = CatalogBuilder::new(30);
    b.num_attr("Price", (0..30).map(|i| (i * 7 % 100) as f64).collect()).unwrap();
    let labels: Vec<String> = (0..30).map(|i| format!("T{}", i % 3)).collect();
    b.cat_attr("Type", &labels).unwrap();
    (db, b.build())
}

fn audited(src: &str, min_support: u64) -> cfq::core::ccc::CccReport {
    audited_with(src, min_support, false).0
}

/// Audits one S-lattice run and returns the report with the audit log.
/// With `implicit_pairs` level 2 goes through the default executor's
/// protocol — pair items out, a triangle of supports back — which never
/// lists its candidates.
fn audited_with(
    src: &str,
    min_support: u64,
    implicit_pairs: bool,
) -> (cfq::core::ccc::CccReport, Vec<Itemset>) {
    let (db, catalog) = setup();
    let q = bind_query(&parse_query(src).unwrap(), &catalog).unwrap();
    let one: Vec<OneVar> = q.one_var.clone();
    let form = SuccinctForm::compile(&one, &catalog);
    let mut run = LatticeRun::new(
        LatticeConfig {
            var: Var::S,
            universe: (0..30).map(ItemId).collect(),
            min_support,
            max_level: 0,
        },
        form,
        &catalog,
    );
    run.enable_audit_log();
    loop {
        if implicit_pairs && run.levels_done() == 1 {
            let items = run.next_pair_items();
            if items.is_empty() {
                break;
            }
            let mut scan = cfq::mining::ScanStats::default();
            let (_, pairs) = cfq::mining::Projection::pairs(&db, &[&items], 1, &mut scan);
            run.absorb_pair_counts(&pairs[0]);
            continue;
        }
        let cands = run.next_candidates();
        if cands.is_empty() {
            break;
        }
        let counts = cfq::mining::TrieCounter.count(&db, &cands);
        run.absorb_counts(&counts);
    }
    let log = run.counted_log().unwrap().to_vec();
    (audit_lattice(&run, &db, &catalog, &one, min_support), log)
}

use cfq::mining::SupportCounter;

/// Theorem 4 on real data: CAP is ccc-optimal for succinct 1-var
/// constraints — no invalid set counted, no infrequent-valid-subset
/// violation, constraint checks within the item budget.
#[test]
fn theorem4_on_quest_data() {
    for src in [
        "max(S.Price) <= 60",
        "min(S.Price) <= 20",
        "min(S.Price) >= 40 & max(S.Price) <= 90",
        "S.Type subset {T0, T1}",
        "S.Type intersects {T2}",
        "S.Type = {T1}",
        "min(S.Price) <= 30 & S.Type subset {T0, T1, T2}",
    ] {
        let report = audited(src, 4);
        assert!(
            report.is_ccc_optimal(),
            "`{src}`: violations={:?}, checks={}/{}",
            report.violations,
            report.constraint_checks,
            report.check_budget
        );
    }
}

/// Level 2 counted without a candidate list is audited like level 2
/// counted from one: the log names every pair that was a candidate, and
/// the verdict does not move.
#[test]
fn audit_log_lists_level_two_counted_off_l1() {
    for src in [
        "max(S.Price) <= 60",
        "min(S.Price) <= 20",
        "S.Type intersects {T2}",
        "sum(S.Price) <= 90",
        "min(S.Price) <= 30 & S.Type subset {T0, T1, T2}",
    ] {
        let (listed_report, listed) = audited_with(src, 4, false);
        let (implicit_report, implicit) = audited_with(src, 4, true);
        assert!(listed.iter().any(|s| s.len() == 2), "`{src}` counts pairs");
        assert_eq!(listed, implicit, "`{src}`: audit logs differ");
        assert_eq!(listed_report.violations, implicit_report.violations, "`{src}`");
        assert_eq!(listed_report.constraint_checks, implicit_report.constraint_checks, "`{src}`");
    }
}

/// Apriori⁺ is *not* ccc-optimal for most constraint sets: it counts
/// invalid sets (§6.2). Demonstrate on a selective constraint.
#[test]
fn apriori_plus_is_not_ccc_optimal() {
    let (db, catalog) = setup();
    let q = bind_query(&parse_query("max(S.Price) <= 40").unwrap(), &catalog).unwrap();
    let one: Vec<OneVar> = q.one_var.clone();
    // Apriori+ = empty form pushed (nothing), constraints only at the end.
    let mut run = LatticeRun::new(
        LatticeConfig {
            var: Var::S,
            universe: (0..30).map(ItemId).collect(),
            min_support: 4,
            max_level: 0,
        },
        SuccinctForm::default(),
        &catalog,
    );
    run.enable_audit_log();
    loop {
        let cands = run.next_candidates();
        if cands.is_empty() {
            break;
        }
        let counts = cfq::mining::TrieCounter.count(&db, &cands);
        run.absorb_counts(&counts);
    }
    let report = audit_lattice(&run, &db, &catalog, &one, 4);
    assert!(
        !report.violations.is_empty(),
        "Apriori+ should count invalid sets under a selective constraint"
    );
}
