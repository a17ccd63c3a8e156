//! Edge cases and failure injection across the public API: degenerate
//! databases, unsatisfiable constraints, truncation limits, and hostile
//! configurations must degrade gracefully, never panic.

use cfq::prelude::*;

fn tiny() -> (TransactionDb, Catalog) {
    let db = TransactionDb::from_u32(3, &[&[0, 1], &[1, 2], &[0, 1, 2]]);
    let mut b = CatalogBuilder::new(3);
    b.num_attr("Price", vec![10.0, 20.0, 30.0]).unwrap();
    b.cat_attr("Type", &["a", "b", "a"]).unwrap();
    (db, b.build())
}

fn run(db: &TransactionDb, cat: &Catalog, src: &str, support: u64) -> ExecutionOutcome {
    let q = bind_query(&parse_query(src).unwrap(), cat).unwrap();
    Optimizer::default().evaluate(&q, &QueryEnv::new(db, cat, support)).unwrap()
}

#[test]
fn empty_database() {
    let db = TransactionDb::new(3, Vec::new()).unwrap();
    let cat = Catalog::empty(3);
    let out = run(&db, &cat, "S disjoint T", 1);
    assert_eq!(out.pair_result.count, 0);
    assert!(out.s_sets.is_empty());
}

#[test]
fn single_transaction_database() {
    let db = TransactionDb::from_u32(3, &[&[0, 1, 2]]);
    let cat = Catalog::empty(3);
    let out = run(&db, &cat, "S disjoint T", 1);
    // Every pair of disjoint non-empty subsets: sum over splits.
    assert!(out.pair_result.count > 0);
    let base = apriori_plus(
        &bind_query(&parse_query("S disjoint T").unwrap(), &cat).unwrap(),
        &QueryEnv::new(&db, &cat, 1),
    );
    assert_eq!(out.pair_result.count, base.pair_result.count);
}

#[test]
fn unsatisfiable_one_var_constraint() {
    let (db, cat) = tiny();
    let out = run(&db, &cat, "max(S.Price) <= 0", 1);
    assert_eq!(out.pair_result.count, 0);
    assert!(out.s_sets.is_empty());
    // The lattice short-circuits: no S-side counting at all.
    assert_eq!(out.s_stats.support_counted, 0);
}

/// Regression (found by `engine_props::warm_answer_equals_bypass_answer`):
/// a side whose universe holds no allowed item returned an empty level-1
/// batch that nobody absorbed, and the quasi-succinct reduction of
/// `S.Type = T.Type` then panicked pushing its conditions into that run.
#[test]
fn empty_effective_universe_under_a_reducible_two_var_constraint() {
    let (db, cat) = tiny();
    let q = bind_query(
        &parse_query("max(T.Price) <= 10 & count(T) <= 2 & S.Type = T.Type").unwrap(),
        &cat,
    )
    .unwrap();
    // Item 2 costs 30: allowed is {0}, the universe is {2}, both non-empty.
    let env = QueryEnv::new(&db, &cat, 1).with_t_universe(vec![ItemId(2)]);
    let out = Optimizer::default().evaluate(&q, &env).unwrap();
    assert_eq!(out.pair_result.count, 0);
    assert!(out.s_sets.is_empty() && out.t_sets.is_empty());
    assert_eq!(out.t_stats.support_counted, 0);
}

#[test]
fn unsatisfiable_two_var_constraint() {
    let (db, cat) = tiny();
    // All prices ≤ 30, so min(S) > max(T) can never hold with min ≥ 31.
    let out = run(&db, &cat, "min(S.Price) > max(T.Price) & min(S.Price) >= 31", 1);
    assert_eq!(out.pair_result.count, 0);
}

#[test]
fn support_above_database_size() {
    let (db, cat) = tiny();
    let out = run(&db, &cat, "S disjoint T", 100);
    assert_eq!(out.pair_result.count, 0);
    assert!(out.t_sets.is_empty());
}

#[test]
fn zero_support_is_treated_as_one() {
    // min_support 0 would make everything "frequent" even with support 0;
    // the lattice still only counts what occurs, and pair formation works.
    let (db, cat) = tiny();
    let out = run(&db, &cat, "S disjoint T", 0);
    let base = run(&db, &cat, "S disjoint T", 1);
    // Supports are ≥ 1 for any set that appears; counts coincide.
    assert_eq!(out.pair_result.count, base.pair_result.count);
}

#[test]
fn max_pairs_truncation_preserves_count() {
    let (db, cat) = tiny();
    let q = bind_query(&parse_query("S disjoint T").unwrap(), &cat).unwrap();
    let mut env = QueryEnv::new(&db, &cat, 1);
    env.max_pairs = Some(2);
    let out = Optimizer::default().evaluate(&q, &env).unwrap();
    assert!(out.pair_result.truncated);
    assert_eq!(out.pair_result.pairs.len(), 2);
    let full = Optimizer::default().evaluate(&q, &QueryEnv::new(&db, &cat, 1)).unwrap();
    assert_eq!(out.pair_result.count, full.pair_result.count);
    // Remapped indices stay in range.
    for &(si, ti) in &out.pair_result.pairs {
        assert!((si as usize) < out.s_sets.len());
        assert!((ti as usize) < out.t_sets.len());
    }
}

#[test]
fn disjoint_universes_with_distinct_supports() {
    let (db, cat) = tiny();
    let q = bind_query(&parse_query("max(S.Price) <= min(T.Price)").unwrap(), &cat).unwrap();
    let env = QueryEnv::new(&db, &cat, 1)
        .with_s_universe(vec![ItemId(0)])
        .with_t_universe(vec![ItemId(2)])
        .with_supports(2, 1);
    let out = Optimizer::default().evaluate(&q, &env).unwrap();
    assert_eq!(out.pair_result.count, 1);
    assert_eq!(out.s_sets[0].0, [0u32].into());
    assert_eq!(out.t_sets[0].0, [2u32].into());
}

#[test]
fn empty_universe_side() {
    let (db, cat) = tiny();
    let q = bind_query(&parse_query("S disjoint T").unwrap(), &cat).unwrap();
    // A universe containing only an item that never occurs.
    let db2 = TransactionDb::from_u32(4, &[&[0, 1], &[1, 2], &[0, 1, 2]]);
    let cat2 = Catalog::empty(4);
    let q2 = bind_query(&parse_query("S disjoint T").unwrap(), &cat2).unwrap();
    let env = QueryEnv::new(&db2, &cat2, 1).with_s_universe(vec![ItemId(3)]);
    let out = Optimizer::default().evaluate(&q2, &env).unwrap();
    assert_eq!(out.pair_result.count, 0);
    let _ = (q, db, cat);
}

#[test]
fn all_strategies_on_degenerate_inputs() {
    let db = TransactionDb::from_u32(2, &[&[0], &[1], &[0, 1]]);
    let cat = Catalog::empty(2);
    let q = bind_query(&parse_query("S != T").unwrap(), &cat).unwrap();
    let env = QueryEnv::new(&db, &cat, 1);
    let counts: Vec<u64> = [
        Optimizer::default(),
        Optimizer::apriori_plus(),
        Optimizer::cap_one_var(),
        Optimizer { dovetail: false, ..Optimizer::default() },
    ]
    .iter()
    .map(|o| o.evaluate(&q, &env).unwrap().pair_result.count)
    .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    // {0},{1},{01}: ordered pairs with S ≠ T = 3 × 3 − 3 = 6.
    assert_eq!(counts[0], 6);
}

#[test]
fn rules_on_empty_outcome() {
    let (db, cat) = tiny();
    let out = run(&db, &cat, "max(S.Price) <= 0", 1);
    let rules = form_rules(&out, &db, &RuleConfig::default());
    assert!(rules.is_empty());
}

#[test]
fn catalog_less_queries() {
    // Bare-variable constraints work without any catalog attributes.
    let db = TransactionDb::from_u32(4, &[&[0, 1], &[2, 3], &[0, 1, 2, 3], &[1, 2]]);
    let cat = Catalog::empty(4);
    for src in ["S disjoint T", "S subset T", "count(S) <= 2", "S = T"] {
        let out = run(&db, &cat, src, 1);
        let base = apriori_plus(
            &bind_query(&parse_query(src).unwrap(), &cat).unwrap(),
            &QueryEnv::new(&db, &cat, 1),
        );
        assert_eq!(out.pair_result.count, base.pair_result.count, "`{src}`");
    }
}
