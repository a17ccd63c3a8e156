//! The hardest 2-var class: `sum(S.Price) <= sum(T.Price)` (§5).
//!
//! No quasi-succinct reduction exists, and no weaker min/max constraint
//! dominates a `sum` on the bounding side — this is exactly the case the
//! paper's `J^k_max` iterative pruning was built for. The example runs the
//! dovetailed optimizer with and without `J^k_max` and prints the evolving
//! `V^k` bound series (Figures 5–6) alongside the work saved.
//!
//! ```text
//! cargo run --release --example sum_budget
//! ```

use cfq::prelude::*;

fn main() -> Result<()> {
    // Long-pattern workload so the S lattice grows deep (the paper's §7.3
    // setup reaches frequent sets of cardinality 14).
    let quest = QuestConfig {
        n_items: 400,
        n_transactions: 4_000,
        avg_trans_len: 16.0,
        avg_pattern_len: 8.0,
        n_patterns: 120,
        ..QuestConfig::default()
    };
    let sc = ScenarioBuilder::new(quest).split_normal_prices(1000.0, 10.0, 500.0, 10.0)?;

    let query = parse_query("sum(S.Price) <= sum(T.Price)")?;
    let bound = bind_query(&query, &sc.catalog)?;
    let env = QueryEnv::new(&sc.db, &sc.catalog, 0)
        .with_s_universe(sc.s_items.clone())
        .with_t_universe(sc.t_items.clone())
        .with_supports(6, 40);

    let optimizer = Optimizer::default();
    let plan = optimizer.build_plan(&bound, env.catalog);
    println!("{}", plan.explain(&optimizer, &sc.catalog));

    let with_jk = optimizer.execute_plan(&plan, &env).unwrap();
    let without_jk =
        Optimizer { use_jkmax: false, ..Optimizer::default() }.evaluate(&bound, &env).unwrap();
    assert_eq!(with_jk.pair_result.count, without_jk.pair_result.count);

    println!("V^k series (upper bound on sum(T.Price) over frequent T-sets):");
    for (var, hist) in &with_jk.v_histories {
        print!("  pruning {var}-side:");
        for (k, v) in hist {
            print!("  V^{k}={v:.0}");
        }
        println!();
    }
    println!(
        "\nwith J^k_max:    {:>9} sets counted",
        with_jk.s_stats.support_counted + with_jk.t_stats.support_counted
    );
    println!(
        "without J^k_max: {:>9} sets counted",
        without_jk.s_stats.support_counted + without_jk.t_stats.support_counted
    );
    println!("answer: {} pairs either way", with_jk.pair_result.count);
    Ok(())
}
