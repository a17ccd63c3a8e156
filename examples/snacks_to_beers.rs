//! The §2 motivating query: "pairs of frequent sets of cheaper snack items
//! and of more expensive beer items" —
//!
//! ```text
//! {(S, T) | S.Type = {Snacks} & T.Type = {Beers} & max(S.Price) <= min(T.Price)}
//! ```
//!
//! Run on a synthetic Quest market-basket database with a realistic
//! itemInfo catalog.
//!
//! ```text
//! cargo run --release --example snacks_to_beers
//! ```

use cfq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<()> {
    // 5,000 transactions over 200 items, T8.I3 workload.
    let quest = QuestConfig {
        n_items: 200,
        n_transactions: 5_000,
        avg_trans_len: 8.0,
        avg_pattern_len: 3.0,
        n_patterns: 80,
        ..QuestConfig::default()
    };
    let db = generate_transactions(&quest)?;

    // itemInfo: five categories; snacks cheap, beers mid-range.
    let mut rng = StdRng::seed_from_u64(7);
    let kinds = ["Snacks", "Beers", "Dairy", "Produce", "Household"];
    let mut types = Vec::with_capacity(200);
    let mut prices = Vec::with_capacity(200);
    for i in 0..200usize {
        let kind = kinds[i % kinds.len()];
        types.push(kind);
        let price = match kind {
            "Snacks" => rng.gen_range(1.0..8.0),
            "Beers" => rng.gen_range(6.0..25.0),
            "Dairy" => rng.gen_range(2.0..10.0),
            "Produce" => rng.gen_range(1.0..6.0),
            _ => rng.gen_range(3.0..40.0),
        };
        prices.push(price);
    }
    let mut b = CatalogBuilder::new(200);
    b.num_attr("Price", prices)?;
    b.cat_attr("Type", &types)?;
    let catalog = b.build();

    let query = parse_query(
        "S.Type = {Snacks} & T.Type = {Beers} & max(S.Price) <= min(T.Price)",
    )?;
    let bound = bind_query(&query, &catalog)?;

    let env = QueryEnv::new(&db, &catalog, 25);
    let optimizer = Optimizer::default();
    let plan = optimizer.build_plan(&bound, env.catalog);
    println!("{}", plan.explain(&optimizer, &catalog));
    let outcome = optimizer.execute_plan(&plan, &env).unwrap();

    // Compare against the naive baseline to show what the pushing buys.
    let baseline = apriori_plus(&bound, &env);
    assert_eq!(baseline.pair_result.count, outcome.pair_result.count);
    println!(
        "answer: {} pairs | optimizer counted {} sets, Apriori+ counted {} ({}x fewer)",
        outcome.pair_result.count,
        outcome.s_stats.support_counted + outcome.t_stats.support_counted,
        baseline.s_stats.support_counted + baseline.t_stats.support_counted,
        (baseline.s_stats.support_counted + baseline.t_stats.support_counted).max(1)
            / (outcome.s_stats.support_counted + outcome.t_stats.support_counted).max(1),
    );

    let price = catalog.attr("Price").expect("Price attr");
    for &(si, ti) in outcome.pair_result.pairs.iter().take(8) {
        let (s, _) = &outcome.s_sets[si as usize];
        let (t, _) = &outcome.t_sets[ti as usize];
        println!(
            "  snacks {s} (max {:.2}) => beers {t} (min {:.2})",
            catalog.max_num(price, s).unwrap(),
            catalog.min_num(price, t).unwrap(),
        );
    }
    Ok(())
}
