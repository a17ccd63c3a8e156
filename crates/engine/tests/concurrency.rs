//! Concurrent-session smoke test: several threads hammer one shared
//! [`Engine`] while an append swaps the epoch underneath them. Every
//! answer must be exact for the epoch it reports — either the old or the
//! new database, never a torn mixture — and the post-append run must be
//! served by FUP-upgraded cache entries without a scan.

use cfq_constraints::{bind_query, parse_query};
use cfq_core::{ExecutionOutcome, LatticeSource, Optimizer, QueryEnv};
use cfq_datagen::{QuestConfig, ScenarioBuilder};
use cfq_engine::{Engine, QueryOutcome};
use cfq_types::{CatalogBuilder, ItemId, TransactionDb};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const QUERIES: [&str; 2] = [
    "max(S.Price) <= 80 & min(T.Price) >= 80",
    "sum(S.Price) <= sum(T.Price)",
];
const SUPPORT: u64 = 3;

fn assert_same_answer(got: &ExecutionOutcome, want: &ExecutionOutcome, context: &str) {
    assert_eq!(got.s_sets, want.s_sets, "s_sets diverged: {context}");
    assert_eq!(got.t_sets, want.t_sets, "t_sets diverged: {context}");
    assert_eq!(got.pair_result.count, want.pair_result.count, "pair count diverged: {context}");
    assert_eq!(got.pair_result.pairs, want.pair_result.pairs, "pairs diverged: {context}");
}

#[test]
fn concurrent_sessions_survive_an_append() {
    let sc = ScenarioBuilder::new(QuestConfig::tiny())
        .split_uniform_prices((10.0, 100.0), (40.0, 160.0))
        .unwrap();
    let rows: Vec<Vec<ItemId>> = sc.db.iter().map(|r| r.to_vec()).collect();
    let cut = rows.len() * 9 / 10;
    let base = TransactionDb::new(sc.db.n_items(), rows[..cut].to_vec()).unwrap();
    let delta = TransactionDb::new(sc.db.n_items(), rows[cut..].to_vec()).unwrap();
    let combined = base.concat(&delta).unwrap();

    let engine = Engine::new(base.clone(), sc.catalog).unwrap();
    let catalog = engine.catalog();

    // Reference answers per (epoch, query), from the one-shot optimizer.
    let reference = |db: &TransactionDb, q: &str| -> ExecutionOutcome {
        let bound = bind_query(&parse_query(q).unwrap(), &catalog).unwrap();
        let env = QueryEnv::new(db, &catalog, SUPPORT)
            .with_s_universe(sc.s_items.clone())
            .with_t_universe(sc.t_items.clone());
        Optimizer::default().evaluate(&bound, &env).unwrap()
    };
    let expected: Vec<Vec<ExecutionOutcome>> = [&base, &combined]
        .into_iter()
        .map(|db| QUERIES.iter().map(|q| reference(db, q)).collect())
        .collect();
    let expected = Arc::new(expected);

    let n_threads = 4;
    let iterations = 6;
    let mut handles = Vec::new();
    for tid in 0..n_threads {
        let session = engine.session();
        let s_items = sc.s_items.clone();
        let t_items = sc.t_items.clone();
        let expected = Arc::clone(&expected);
        handles.push(thread::spawn(move || {
            for i in 0..iterations {
                let qi = (tid + i) % QUERIES.len();
                let out = session
                    .query(QUERIES[qi])
                    .min_support(SUPPORT)
                    .s_universe(s_items.clone())
                    .t_universe(t_items.clone())
                    .run()
                    .unwrap();
                let epoch = out.epoch as usize;
                assert!(epoch < 2, "unexpected epoch {epoch}");
                assert_same_answer(
                    &out.outcome,
                    &expected[epoch][qi],
                    &format!("thread {tid} iteration {i} epoch {epoch} query {qi}"),
                );
            }
        }));
    }

    // Land the append while the readers are mid-flight.
    thread::sleep(Duration::from_millis(5));
    let info = engine.append(delta).unwrap();
    assert_eq!(info.epoch, 1);

    for h in handles {
        h.join().unwrap();
    }

    // After the dust settles: the new epoch answers from FUP-upgraded or
    // freshly cached entries, and a re-run of a query that already ran
    // post-append is scan-free.
    let session = engine.session();
    for (qi, q) in QUERIES.iter().enumerate() {
        let first = session
            .query(q)
            .min_support(SUPPORT)
            .s_universe(sc.s_items.clone())
            .t_universe(sc.t_items.clone())
            .run()
            .unwrap();
        assert_eq!(first.epoch, 1);
        assert_same_answer(&first.outcome, &expected[1][qi], &format!("post-append query {qi}"));
        let warm = session
            .query(q)
            .min_support(SUPPORT)
            .s_universe(sc.s_items.clone())
            .t_universe(sc.t_items.clone())
            .run()
            .unwrap();
        assert_eq!(warm.outcome.db_scans, 0, "warm post-append query {qi} must not scan");
    }

    let stats = engine.cache_stats();
    assert!(stats.lattice_hits > 0, "concurrent runs should share cached lattices");
}

/// The scheduler's single-flight guarantee, end to end: K identical cold
/// queries released simultaneously perform exactly ONE mining pass —
/// one leader mines; every other query either joins its group while it
/// is published or, once it is unpublished, finds the entry it inserted
/// (a query that missed the cache just before that insert finds it when
/// it leads a group of its own).
#[test]
fn identical_cold_queries_share_one_mining_pass() {
    // `min(T.Price) >= 999` is succinct-unsatisfiable (no such item), so
    // the T side never requests a lattice and each query makes exactly
    // one scheduler request (for S) — making the pass count exact.
    const Q: &str = "max(S.Price) <= 30 & min(T.Price) >= 999";
    const K: usize = 6;

    let mut b = CatalogBuilder::new(6);
    b.num_attr("Price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
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
    let engine = Engine::new(db, b.build()).unwrap();

    let barrier = Arc::new(Barrier::new(K));
    let handles: Vec<_> = (0..K)
        .map(|_| {
            let session = engine.session();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                session.query(Q).min_support(2).run().unwrap()
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every member of the group got the same (empty-pair) answer.
    for out in &outcomes {
        assert_eq!(out.outcome.s_sets, outcomes[0].outcome.s_sets);
        assert_eq!(out.outcome.pair_result.count, 0, "T side is unsatisfiable");
    }

    let sched = engine.scheduler_stats();
    assert_eq!(sched.mining_passes, 1, "one leader mined for everyone: {sched:?}");
    assert_eq!(sched.admitted as usize, K, "{sched:?}");
    assert_eq!(sched.overloaded, 0, "{sched:?}");

    // Each query counted once, as a hit or a miss; every miss but the
    // leader's joined its group, and the K-1 others credited the leader's
    // scan cost as saved work — only the leader touched the database.
    let cache = engine.cache_stats();
    assert_eq!(cache.lattice_hits + cache.lattice_misses, K as u64, "{cache:?}");
    assert_eq!(cache.lattice_misses, 1 + sched.coalesced, "{cache:?}");
    assert_eq!((sched.coalesced + cache.lattice_hits) as usize, K - 1, "{cache:?}");
    assert!(cache.scans_saved > 0, "shared scans credited: {cache:?}");
    let mined = |o: &&QueryOutcome| o.outcome.provenance.s_lattice == LatticeSource::MinedCold;
    assert_eq!(outcomes.iter().filter(mined).count(), 1, "only the leader mined");
}
