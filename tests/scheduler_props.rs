//! Property test for the scheduler's single-flight mining: when several
//! concurrent queries over the same universe — at *different* supports —
//! miss the cache together, each either mines, joins a group already
//! mining at a support no higher than its own, or hits the entry such a
//! group inserted. Whichever it was, every member's answer must be
//! bit-identical to the answer it would get mined alone: same sets, same
//! support counts, same valid pairs. This is the weaker-envelope reuse
//! guarantee under concurrency instead of across time.
//!
//! Which of the three each member got depends on how the host schedules
//! the threads, so it is not asserted here (a lower support never joins a
//! higher group: `crates/engine/src/scheduler.rs`). What holds on any
//! host is the books: every lattice a member needed was a cache hit, a
//! join, or a mining pass.

use cfq::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

const QUERIES: [&str; 3] = [
    "max(S.Price) <= 80 & min(T.Price) >= 80",
    "sum(S.Price) <= sum(T.Price)",
    "max(S.Price) <= min(T.Price)",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_members_match_solo_mining(
        seed in 0u64..1_000,
        qi in 0usize..QUERIES.len(),
        supports in prop::collection::vec(2u64..7, 2..5),
    ) {
        let sc = ScenarioBuilder::new(QuestConfig { seed, ..QuestConfig::tiny() })
            .split_uniform_prices((10.0, 100.0), (40.0, 160.0))
            .unwrap();
        let query = QUERIES[qi];

        let engine = Engine::new(sc.db.clone(), sc.catalog).unwrap();

        let barrier = Arc::new(Barrier::new(supports.len()));
        let handles: Vec<_> = supports
            .iter()
            .map(|&support| {
                let session = engine.session();
                let barrier = Arc::clone(&barrier);
                let s_items = sc.s_items.clone();
                let t_items = sc.t_items.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    session
                        .query(query)
                        .min_support(support)
                        .s_universe(s_items)
                        .t_universe(t_items)
                        .run()
                        .unwrap()
                })
            })
            .collect();
        let grouped: Vec<QueryOutcome> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Solo reference per member: the one-shot optimizer at exactly
        // that member's support, no cache and no scheduler involved.
        let catalog = engine.catalog();
        let bound = bind_query(&parse_query(query).unwrap(), &catalog).unwrap();
        for (&support, out) in supports.iter().zip(&grouped) {
            let env = QueryEnv::new(&sc.db, &catalog, support)
                .with_s_universe(sc.s_items.clone())
                .with_t_universe(sc.t_items.clone());
            let solo = Optimizer::default().evaluate(&bound, &env).unwrap();
            prop_assert_eq!(
                &out.outcome.s_sets, &solo.s_sets,
                "S side for `{}` at support {}", query, support
            );
            prop_assert_eq!(
                &out.outcome.t_sets, &solo.t_sets,
                "T side for `{}` at support {}", query, support
            );
            prop_assert_eq!(
                out.outcome.pair_result.count, solo.pair_result.count,
                "pair count for `{}` at support {}", query, support
            );
            prop_assert_eq!(
                &out.outcome.pair_result.pairs, &solo.pair_result.pairs,
                "pairs for `{}` at support {}", query, support
            );
        }

        // Every acquisition (two per member) is accounted for exactly once.
        let (sched, cache) = (engine.scheduler_stats(), engine.cache_stats());
        prop_assert_eq!(cache.lattice_hits + cache.lattice_misses, 2 * supports.len() as u64);
        prop_assert_eq!(
            cache.lattice_misses, sched.mining_passes + sched.coalesced,
            "{:?} {:?}", sched, cache
        );
        prop_assert!(sched.mining_passes >= 2, "each side was mined: {:?}", sched);
    }
}
