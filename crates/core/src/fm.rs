//! The "full materialization" (FM) strategy of §6.2.
//!
//! FM is the paper's counter-example motivating ccc-optimality's second
//! condition: it first computes all valid sets by generating *every*
//! subset of the active domain and checking it against the constraints
//! (2^N constraint checks in the worst case), then counts support only for
//! the valid sets, in ascending cardinality. It therefore satisfies
//! condition (1) — it never counts an invalid set — while being hopeless
//! on condition (2).
//!
//! Implemented faithfully (including the exponential enumeration, guarded
//! by a domain-size limit) so that the ccc accounting comparisons in the
//! test-suite and docs can be run for real.

use crate::optimizer::{ExecutionOutcome, QueryEnv};
use cfq_constraints::{eval_all_one, BoundQuery, OneVar, Var};
use cfq_mining::{SupportCounter, TrieCounter, WorkStats};
use cfq_types::{CfqError, Itemset, Result};

/// Largest variable domain FM will enumerate (2^20 subsets).
pub const FM_MAX_DOMAIN: usize = 20;

/// Runs the FM strategy. Errors when a variable's domain exceeds
/// [`FM_MAX_DOMAIN`] items (the whole point of FM is that it does not
/// scale; we refuse to melt the machine demonstrating it).
pub fn full_materialization(query: &BoundQuery, env: &QueryEnv<'_>) -> Result<ExecutionOutcome> {
    let (s_side, t_side) = (fm_side(query, env, Var::S)?, fm_side(query, env, Var::T)?);
    let sides = ExecutionOutcome::of_sides(s_side, t_side);
    Ok(sides.paired(&query.two_var, env.catalog, env.max_pairs))
}

#[allow(clippy::type_complexity)]
fn fm_side(
    query: &BoundQuery,
    env: &QueryEnv<'_>,
    var: Var,
) -> Result<(Vec<(Itemset, u64)>, WorkStats)> {
    let universe = env.universe(var);
    if universe.len() > FM_MAX_DOMAIN {
        return Err(CfqError::Config(format!(
            "FM enumerates 2^{} subsets; refusing domains above {FM_MAX_DOMAIN} items",
            universe.len()
        )));
    }
    let min_support = env.min_support(var);
    let one: Vec<OneVar> = query.one_var_for(var).cloned().collect();
    let mut stats = WorkStats::new();

    // Phase 1: generate-and-test every subset (2^N constraint checks).
    let all: Itemset = universe.iter().copied().collect();
    let mut valid_by_level: Vec<Vec<Itemset>> = Vec::new();
    for sub in all.all_nonempty_subsets() {
        stats.record_checks(one.len().max(1) as u64);
        if eval_all_one(&one, &sub, env.catalog) {
            let level = sub.len();
            if valid_by_level.len() < level {
                valid_by_level.resize(level, Vec::new());
            }
            valid_by_level[level - 1].push(sub);
        }
    }

    // Phase 2: count support in ascending cardinality; stop descending a
    // branch only via frequency of whole levels (FM does no subset
    // pruning — that is its other weakness, it counts valid-but-doomed
    // sets whose subsets are infrequent).
    let mut out = Vec::new();
    for (idx, mut level_sets) in valid_by_level.into_iter().enumerate() {
        if level_sets.is_empty() {
            continue;
        }
        level_sets.sort();
        let n_candidates = level_sets.len() as u64;
        let counts = TrieCounter.count(env.db, &level_sets);
        stats.record_scan();
        stats
            .scan
            .record_extent(idx + 1, env.db.len() as u64, env.db.total_items() as u64);
        let mut frequent = 0u64;
        for (s, n) in level_sets.into_iter().zip(counts) {
            if n >= min_support {
                frequent += 1;
                out.push((s, n));
            }
        }
        stats.record_level(idx + 1, n_candidates, frequent);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use cfq_constraints::{bind_query, parse_query};
    use cfq_types::{Catalog, CatalogBuilder, TransactionDb};

    fn setup() -> (TransactionDb, Catalog) {
        let db = TransactionDb::from_u32(
            5,
            &[&[0, 1, 2], &[1, 2, 3], &[0, 2, 4], &[1, 2], &[2, 3, 4], &[0, 1, 2, 3]],
        );
        let mut b = CatalogBuilder::new(5);
        b.num_attr("Price", vec![5.0, 10.0, 15.0, 20.0, 25.0]).unwrap();
        (db, b.build())
    }

    #[test]
    fn fm_matches_the_optimizer() {
        let (db, catalog) = setup();
        for src in [
            "max(S.Price) <= min(T.Price)",
            "min(S.Price) <= 10 & sum(T.Price) <= 40",
            "sum(S.Price) <= sum(T.Price)",
        ] {
            let q = bind_query(&parse_query(src).unwrap(), &catalog).unwrap();
            let env = QueryEnv::new(&db, &catalog, 2);
            let fm = full_materialization(&q, &env).unwrap();
            let opt = Optimizer::default().evaluate(&q, &env).unwrap();
            assert_eq!(fm.pair_result.count, opt.pair_result.count, "`{src}`");
            assert_eq!(fm.s_sets, opt.s_sets, "`{src}`");
            assert_eq!(fm.t_sets, opt.t_sets, "`{src}`");
        }
    }

    #[test]
    fn fm_spends_exponential_checks() {
        let (db, catalog) = setup();
        let q = bind_query(&parse_query("max(S.Price) <= 15").unwrap(), &catalog).unwrap();
        let env = QueryEnv::new(&db, &catalog, 2);
        let fm = full_materialization(&q, &env).unwrap();
        // 2^5 - 1 subsets per variable side.
        assert!(fm.s_stats.constraint_checks >= 31);
        // …which is what ccc condition 2 forbids (budget = 5 items).
        assert!(fm.s_stats.constraint_checks > catalog.n_items() as u64);
        // But condition 1 holds: only valid sets were counted.
        let price = catalog.attr("Price").unwrap();
        for (s, _) in &fm.s_sets {
            assert!(catalog.max_num(price, s).unwrap() <= 15.0);
        }
    }

    #[test]
    fn fm_refuses_large_domains() {
        let db = TransactionDb::from_u32(25, &[&[0, 1]]);
        let catalog = Catalog::empty(25);
        let q = bind_query(&parse_query("freq(S)").unwrap(), &catalog).unwrap();
        let env = QueryEnv::new(&db, &catalog, 1);
        assert!(full_materialization(&q, &env).is_err());
    }
}
