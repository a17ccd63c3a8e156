//! The Apriori backbone, its incremental maintenance (FUP) and the
//! condensed representations of its result, exercised through the public
//! facade on Quest data.

use cfq::mining::{fup_update, WorkStats};
use cfq::prelude::*;

fn quest(n: usize, seed: u64) -> TransactionDb {
    generate_transactions(&QuestConfig {
        n_items: 60,
        n_transactions: n,
        avg_trans_len: 7.0,
        avg_pattern_len: 3.0,
        n_patterns: 30,
        seed,
        ..QuestConfig::default()
    })
    .unwrap()
}

fn collect(fs: &FrequentSets) -> Vec<(Itemset, u64)> {
    fs.iter().map(|(s, n)| (s.clone(), n)).collect()
}

#[test]
fn apriori_makes_one_pass_per_level_below_the_first_on_quest_data() {
    let db = quest(700, 1);
    let mut stats = WorkStats::new();
    let a = apriori(&db, &AprioriConfig::new(10), &mut stats);
    assert!(a.total() > 30, "workload too trivial");
    // Apriori passes over the rows once per level below level 1, which it
    // reads off the database's item-support column.
    assert_eq!(stats.db_scans as usize, stats.levels.len() - 1);
}

#[test]
fn fup_agrees_with_remine_on_quest_stream() {
    let old_db = quest(600, 2);
    let delta = quest(150, 3);
    let frac = 0.02;
    let abs_old = ((frac * old_db.len() as f64).ceil() as u64).max(1);
    let mut stats = WorkStats::new();
    let old = apriori(&old_db, &AprioriConfig::new(abs_old), &mut stats);

    let mut upd_stats = WorkStats::new();
    let updated = fup_update(&old, &old_db, &delta, frac, &mut upd_stats).unwrap();

    let mut rows: Vec<Vec<ItemId>> = old_db.iter().map(|t| t.to_vec()).collect();
    rows.extend(delta.iter().map(|t| t.to_vec()));
    let combined = TransactionDb::new(old_db.n_items(), rows).unwrap();
    let abs_new = ((frac * combined.len() as f64).ceil() as u64).max(1);
    let mut s = WorkStats::new();
    let expected = apriori(&combined, &AprioriConfig::new(abs_new), &mut s);

    assert_eq!(collect(&updated.frequent), collect(&expected));
    assert_eq!(updated.min_support, abs_new);
    // FUP's point: far fewer old-db scans than a full remine.
    assert!(
        upd_stats.db_scans <= s.db_scans,
        "FUP rescanned more than a remine: {} vs {}",
        upd_stats.db_scans,
        s.db_scans
    );
}

#[test]
fn maximal_and_closed_condense_quest_results() {
    let db = quest(500, 4);
    let mut stats = WorkStats::new();
    let fs = apriori(&db, &AprioriConfig::new(8), &mut stats);
    let maximal = fs.maximal();
    let closed = fs.closed();
    assert!(maximal.len() < fs.total());
    assert!(closed.len() <= fs.total());
    assert!(maximal.len() <= closed.len(), "maximal ⊆ closed in count");
    // Every frequent set is covered by a maximal superset and its support
    // is reconstructible from the closed sets.
    for (s, sup) in fs.iter() {
        assert!(maximal.iter().any(|m| s.is_subset_of(m)));
        let rec = closed
            .iter()
            .filter(|(c, _)| s.is_subset_of(c))
            .map(|&(_, n)| n)
            .max()
            .unwrap();
        assert_eq!(rec, sup);
    }
}
