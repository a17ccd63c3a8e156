//! Quickstart: parse a CFQ, run the optimizer, print the valid pairs.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cfq::prelude::*;

fn main() -> Result<()> {
    // A toy market-basket database: 8 transactions over 6 items.
    let db = TransactionDb::from_u32(
        6,
        &[
            &[0, 1, 2, 3],
            &[0, 1, 2],
            &[1, 2, 3, 4],
            &[0, 2, 4],
            &[0, 1, 3, 5],
            &[2, 3, 4, 5],
            &[0, 1, 2, 3, 4],
            &[1, 3, 5],
        ],
    );

    // The paper's auxiliary relation itemInfo(Item, Type, Price).
    let mut b = CatalogBuilder::new(6);
    b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0])?;
    b.cat_attr("Type", &["Snacks", "Beers", "Snacks", "Dairy", "Beers", "Dairy"])?;
    let catalog = b.build();

    // A CFQ with a 1-var and a 2-var constraint, straight from query text.
    let query = parse_query("sum(S.Price) <= 60 & max(S.Price) <= min(T.Price)")?;
    let bound = bind_query(&query, &catalog)?;

    // Plan and execute with the full Figure-7 optimizer.
    let env = QueryEnv::new(&db, &catalog, 2);
    let optimizer = Optimizer::default();
    let plan = optimizer.build_plan(&bound, env.catalog);
    println!("{}", plan.explain(&optimizer, &catalog));

    let outcome = optimizer.execute_plan(&plan, &env).unwrap();
    println!(
        "{} valid pairs from {} S-sets x {} T-sets ({} db scans, {} sets counted)",
        outcome.pair_result.count,
        outcome.s_sets.len(),
        outcome.t_sets.len(),
        outcome.db_scans,
        outcome.s_stats.support_counted + outcome.t_stats.support_counted,
    );
    for &(si, ti) in outcome.pair_result.pairs.iter().take(10) {
        let (s, s_sup) = &outcome.s_sets[si as usize];
        let (t, t_sup) = &outcome.t_sets[ti as usize];
        println!("  {s} (sup {s_sup})  =>  {t} (sup {t_sup})");
    }
    Ok(())
}
