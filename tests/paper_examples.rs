//! End-to-end runs of the queries the paper itself uses as examples,
//! including the §6.2 degenerate case.

use cfq::prelude::*;

fn market() -> (TransactionDb, Catalog) {
    let db = TransactionDb::from_u32(
        8,
        &[
            &[0, 1, 4, 5],
            &[0, 4, 5],
            &[1, 2, 6],
            &[2, 3, 6, 7],
            &[0, 1, 2, 4],
            &[3, 6, 7],
            &[0, 1, 4, 6],
            &[2, 3, 5, 7],
            &[0, 4],
            &[1, 2, 4, 6],
        ],
    );
    let mut b = CatalogBuilder::new(8);
    // Items 0-3 snacks ($2-$9), items 4-7 beers ($8-$30).
    b.num_attr("Price", vec![2.0, 5.0, 7.0, 9.0, 8.0, 12.0, 20.0, 30.0]).unwrap();
    b.cat_attr(
        "Type",
        &["Snacks", "Snacks", "Snacks", "Snacks", "Beers", "Beers", "Beers", "Beers"],
    )
    .unwrap();
    (db, b.build())
}

fn run(text: &str, min_support: u64) -> (ExecutionOutcome, ExecutionOutcome) {
    let (db, catalog) = market();
    let q = bind_query(&parse_query(text).unwrap(), &catalog).unwrap();
    let env = QueryEnv::new(&db, &catalog, min_support);
    (Optimizer::default().evaluate(&q, &env).unwrap(), apriori_plus(&q, &env))
}

/// §1: `{(S,T) | sum(S.Price) <= 100 & avg(T.Price) >= 200}`-style query,
/// with thresholds adapted to the toy prices.
#[test]
fn intro_query() {
    let (opt, base) = run("sum(S.Price) <= 10 & avg(T.Price) >= 15", 2);
    assert_eq!(opt.pair_result.count, base.pair_result.count);
    assert!(opt.pair_result.count > 0);
    let (db, catalog) = market();
    let _ = db;
    let price = catalog.attr("Price").unwrap();
    for (s, _) in &opt.s_sets {
        assert!(catalog.sum_num(price, s) <= 10.0);
    }
    for (t, _) in &opt.t_sets {
        assert!(catalog.avg_num(price, t).unwrap() >= 15.0);
    }
}

/// §1: the 2-var variant `sum(S.Price) <= avg(T.Price)`.
#[test]
fn intro_two_var_query() {
    let (opt, base) = run("sum(S.Price) <= avg(T.Price)", 2);
    assert_eq!(opt.pair_result.count, base.pair_result.count);
    assert!(opt.pair_result.count > 0);
}

/// §2: "pairs of frequent sets containing items of different types (each
/// set on its own of one type)".
#[test]
fn section2_different_types() {
    let (opt, base) =
        run("count(S.Type) = 1 & count(T.Type) = 1 & S.Type != T.Type", 2);
    assert_eq!(opt.pair_result.count, base.pair_result.count);
    assert!(opt.pair_result.count > 0);
    let (_, catalog) = market();
    let ty = catalog.attr("Type").unwrap();
    for &(si, ti) in &opt.pair_result.pairs {
        let (s, _) = &opt.s_sets[si as usize];
        let (t, _) = &opt.t_sets[ti as usize];
        assert_eq!(catalog.count_distinct(Some(ty), s), 1);
        assert_eq!(catalog.count_distinct(Some(ty), t), 1);
        assert_ne!(
            catalog.value_set(Some(ty), s),
            catalog.value_set(Some(ty), t)
        );
    }
}

/// §2: disjoint type sets.
#[test]
fn section2_disjoint_types() {
    let (opt, base) = run("S.Type disjoint T.Type", 2);
    assert_eq!(opt.pair_result.count, base.pair_result.count);
    let (_, catalog) = market();
    let ty = catalog.attr("Type").unwrap();
    for &(si, ti) in &opt.pair_result.pairs {
        let (s, _) = &opt.s_sets[si as usize];
        let (t, _) = &opt.t_sets[ti as usize];
        let sv = catalog.value_set(Some(ty), s);
        let tv = catalog.value_set(Some(ty), t);
        assert!(sv.iter().all(|v| !tv.contains(v)));
    }
}

/// §2: cheaper snacks leading to pricier beers.
#[test]
fn section2_snacks_to_beers() {
    let (opt, base) = run(
        "S.Type = {Snacks} & T.Type = {Beers} & max(S.Price) <= min(T.Price)",
        2,
    );
    assert_eq!(opt.pair_result.count, base.pair_result.count);
    assert!(opt.pair_result.count > 0);
    // The optimizer must do strictly less counting than the baseline here:
    // every constraint in the query is pushable.
    assert!(
        opt.s_stats.support_counted + opt.t_stats.support_counted
            < base.s_stats.support_counted + base.t_stats.support_counted
    );
}

/// §6.2: when the 2-var constraint effectively points both variables at
/// the same lattice, the reduced 1-var constraints become trivial and the
/// optimizer degenerates to Apriori⁺ — same counting, same answer.
#[test]
fn section62_degenerate_same_lattice() {
    let (db, catalog) = market();
    let q = bind_query(&parse_query("min(S.Price) >= min(T.Price)").unwrap(), &catalog).unwrap();
    let env = QueryEnv::new(&db, &catalog, 2);
    let opt = Optimizer::default().evaluate(&q, &env).unwrap();
    let base = apriori_plus(&q, &env);
    assert_eq!(opt.pair_result.count, base.pair_result.count);
    // Both variables range over the same items with the same threshold:
    // the reduction is vacuous, so the counted sets are identical.
    assert_eq!(opt.s_stats.support_counted, base.s_stats.support_counted);
    assert_eq!(opt.t_stats.support_counted, base.t_stats.support_counted);
}

/// Also degenerate, via the reduction constants: min(CS.A) <= max(L1.A)
/// admits every candidate when S and T share the lattice.
#[test]
fn section62_min_le_min() {
    let (db, catalog) = market();
    let q = bind_query(&parse_query("min(S.Price) <= min(T.Price)").unwrap(), &catalog).unwrap();
    let env = QueryEnv::new(&db, &catalog, 2);
    let opt = Optimizer::default().evaluate(&q, &env).unwrap();
    let base = apriori_plus(&q, &env);
    assert_eq!(opt.pair_result.count, base.pair_result.count);
    assert_eq!(opt.s_stats.support_counted, base.s_stats.support_counted);
}

/// The Fig. 7 "Reduction" box on its own: a plan, two `L1`s and the
/// catalog in, the Figs. 2–3 conditions out — no run around it. `L1^S` is
/// the snacks ($2–$9), `L1^T` the beers ($8–$30), as in §2's example.
#[test]
fn reduce_yields_the_conditions_of_figures_2_and_3() {
    let (_, catalog) = market();
    let snacks: Vec<ItemId> = (0..4).map(ItemId).collect();
    let beers: Vec<ItemId> = (4..8).map(ItemId).collect();
    let reduced = |text: &str| {
        let q = bind_query(&parse_query(text).unwrap(), &catalog).unwrap();
        let plan = cfq::core::plan(&q, &catalog);
        let reductions = cfq::core::reduce(&plan, &snacks, &beers, &catalog);
        let show = |conds: Vec<OneVar>| -> Vec<String> {
            conds.iter().map(|c| c.display(&catalog).to_string()).collect()
        };
        let pushed: Vec<String> =
            reductions.0.iter().map(|(c, _)| c.display(&catalog).to_string()).collect();
        (pushed, show(reductions.conditions(Var::S)), show(reductions.conditions(Var::T)))
    };
    let same = |text: &str| vec![text.to_string()];

    // Fig. 3: max(S.A) <= min(T.B)  →  max(CS.A) <= max(L1^T.B) ; min(CT.B) >= min(L1^S.A).
    let (pushed, s, t) = reduced("max(S.Price) <= min(T.Price)");
    assert_eq!(pushed, same("max(S.Price) <= min(T.Price)"));
    assert_eq!((s, t), (same("max(S.Price) <= 30"), same("min(T.Price) >= 2")));

    // Fig. 3, §6.2's degenerate pair: min(S.A) >= min(T.B)  →
    // min(CS.A) >= min(L1^T.B) ; min(CT.B) <= max(L1^S.A).
    let (_, s, t) = reduced("min(S.Price) >= min(T.Price)");
    assert_eq!((s, t), (same("min(S.Price) >= 8"), same("min(T.Price) <= 9")));

    // Fig. 2, row 1: S.A ∩ T.B = ∅  →  CS.A ⊉ L1^T.B ; CT.B ⊉ L1^S.A.
    let (_, s, t) = reduced("S.Type disjoint T.Type");
    assert_eq!((s, t), (same("S.Type !superset {Beers}"), same("T.Type !superset {Snacks}")));

    // Fig. 4 feeds Fig. 3: avg/avg is not quasi-succinct; what is reduced
    // is the weaker min(S.A) <= max(T.B) induced from it.
    let (pushed, s, t) = reduced("avg(S.Price) <= avg(T.Price)");
    assert_eq!(pushed, same("min(S.Price) <= max(T.Price)"));
    assert_eq!((s, t), (same("min(S.Price) <= 30"), same("max(T.Price) >= 2")));

    // Nothing to reduce: sum/sum is left to J^k_max and final verification.
    let (pushed, s, t) = reduced("sum(S.Price) <= sum(T.Price)");
    assert!(pushed.is_empty() && s.is_empty() && t.is_empty());
}
