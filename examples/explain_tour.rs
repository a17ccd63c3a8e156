//! A tour of the optimizer's EXPLAIN output across the constraint
//! taxonomy: for each 2-var constraint class of Figure 1, show its
//! classification and the strategy the Figure-7 optimizer picks.
//!
//! ```text
//! cargo run --example explain_tour
//! ```

use cfq::prelude::*;

fn main() -> Result<()> {
    let db = TransactionDb::from_u32(4, &[&[0, 1], &[1, 2], &[2, 3], &[0, 1, 2, 3]]);
    let mut b = CatalogBuilder::new(4);
    b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0])?;
    b.cat_attr("Type", &["A", "B", "A", "B"])?;
    let catalog = b.build();
    let env = QueryEnv::new(&db, &catalog, 1);

    let queries = [
        // Quasi-succinct (Figures 2-3).
        "S.Type disjoint T.Type",
        "S.Type = T.Type",
        "max(S.Price) <= min(T.Price)",
        // Induced weaker (Figure 4).
        "avg(S.Price) <= avg(T.Price)",
        "sum(S.Price) <= max(T.Price)",
        // J^k_max (Figures 5-6).
        "sum(S.Price) <= sum(T.Price)",
        // Nothing pushable.
        "min(S.Price) != max(T.Price)",
        // A realistic mixed query.
        "S.Type = {A} & sum(S.Price) <= 60 & max(S.Price) <= min(T.Price) & avg(T.Price) >= 20",
    ];

    for src in queries {
        println!("query: {{(S,T) | {src}}}");
        let bound = bind_query(&parse_query(src)?, &catalog)?;
        for c in &bound.two_var {
            let cls = classify_two(c);
            println!(
                "  classification: anti-monotone={}, quasi-succinct={}",
                cls.anti_monotone, cls.quasi_succinct
            );
        }
        let plan = cfq::core::plan(&bound, env.catalog);
        for line in plan.explain(&Optimizer::default(), &catalog).lines() {
            println!("  {line}");
        }
        println!();
    }
    Ok(())
}
