//! Property tests for the vertical counting backends
//! (`cfq_mining::backend`, `cfq_mining::bitmap`):
//!
//! * the complete lattice mined through every backend (horizontal trie,
//!   tidset intersection, u64 bitmaps with diffsets, and the auto
//!   crossover) is bit-identical to the horizontal reference across
//!   random universes, supports, and row shapes,
//! * one-off `BitmapCounter` batches agree with `TrieCounter` for
//!   arbitrary candidate groups (shared-prefix recurrence + diffsets),
//! * optimizer answers are backend-invariant end to end,
//! * edge cases hold: empty universe, a dense item present in every row,
//!   support = 1, and an empty database.

use cfq::mining::{BitmapCounter, BitmapIndex, SupportCounter, TrieCounter};
use cfq::prelude::*;
use proptest::prelude::*;

fn build_db(rows: &[Vec<u32>], n_items: usize) -> TransactionDb {
    let rows: Vec<Vec<ItemId>> =
        rows.iter().map(|r| r.iter().map(|&i| ItemId(i)).collect()).collect();
    TransactionDb::new(n_items, rows).unwrap()
}

fn collect(fs: &FrequentSets) -> Vec<(Itemset, u64)> {
    fs.iter().map(|(s, n)| (s.clone(), n)).collect()
}

fn mine(db: &TransactionDb, cfg: &AprioriConfig) -> (Vec<(Itemset, u64)>, WorkStats) {
    let mut stats = WorkStats::new();
    let fs = apriori(db, cfg, &mut stats);
    (collect(&fs), stats)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The tentpole invariant: every backend mines the same lattice,
    /// set for set and support for support.
    #[test]
    fn all_backends_mine_identical_lattices(
        rows in prop::collection::vec(prop::collection::vec(0u32..10, 0..7), 1..40),
        mask in 1u16..1023,
        min_support in 1u64..5,
        trim_bit in 0u32..2,
    ) {
        let trim = trim_bit == 1;
        let db = build_db(&rows, 10);
        let universe: Vec<ItemId> =
            (0..10u32).filter(|i| mask & (1 << i) != 0).map(ItemId).collect();
        let base_cfg = AprioriConfig::new(min_support)
            .with_universe(universe.clone())
            .with_trim(trim);
        let (reference, _) = mine(&db, &base_cfg);
        for backend in CountingBackend::all() {
            let (got, stats) = mine(&db, &base_cfg.clone().with_backend(backend));
            prop_assert_eq!(&reference, &got, "{} diverged", backend);
            if matches!(backend, CountingBackend::Tidset | CountingBackend::Bitmap) {
                // Fully vertical runs read the rows exactly once, to invert
                // them for level 2: level 1 is a column read, and a run
                // with fewer than two frequent items stops there.
                let l1 = reference.iter().filter(|(s, _)| s.len() == 1).count();
                prop_assert_eq!(stats.db_scans, u64::from(l1 >= 2), "{} scan count", backend);
            }
        }
    }

    /// Raw counter agreement: a BitmapCounter batch over arbitrary
    /// candidates (grouped by shared prefix internally, taking the
    /// diffset path at depth) matches the horizontal trie counter.
    #[test]
    fn bitmap_counter_matches_trie_on_arbitrary_batches(
        rows in prop::collection::vec(prop::collection::vec(0u32..9, 0..6), 1..70),
        mask in 1u16..511,
        k in 1usize..4,
    ) {
        let db = build_db(&rows, 9);
        let universe: Itemset = (0..9u32).filter(|i| mask & (1 << i) != 0).collect();
        let cands: Vec<Itemset> =
            universe.all_nonempty_subsets().into_iter().filter(|s| s.len() == k).collect();
        prop_assume!(!cands.is_empty());
        let index = BitmapIndex::build(&db);
        let counter = BitmapCounter::new(&index);
        prop_assert_eq!(TrieCounter.count(&db, &cands), counter.count(&db, &cands));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// End to end: optimizer answers are backend-invariant for every
    /// strategy family on the paper's four query shapes.
    #[test]
    fn optimizer_answers_are_backend_invariant(
        prices in prop::collection::vec(1u32..40, 6),
        types in prop::collection::vec(0u32..3, 6),
        rows in prop::collection::vec(prop::collection::vec(0u32..6, 0..5), 4..20),
        min_support in 1u64..4,
        which in 0usize..4,
    ) {
        let queries = [
            "sum(S.Price) <= sum(T.Price)",
            "max(S.Price) <= min(T.Price)",
            "S.Type disjoint T.Type",
            "avg(S.Price) <= avg(T.Price) & S.Type = T.Type",
        ];
        let db = build_db(&rows, 6);
        let mut b = CatalogBuilder::new(6);
        b.num_attr("Price", prices.iter().map(|&p| p as f64).collect()).unwrap();
        let labels: Vec<String> =
            types.iter().map(|&t| ((b'a' + (t % 3) as u8) as char).to_string()).collect();
        b.cat_attr("Type", &labels).unwrap();
        let catalog = b.build();
        let q = bind_query(&parse_query(queries[which]).unwrap(), &catalog).unwrap();
        for opt in [
            Optimizer::default(),
            Optimizer { dovetail: false, ..Optimizer::default() },
        ] {
            let reference = opt
                .evaluate(&q, &QueryEnv::new(&db, &catalog, min_support))
                .unwrap();
            for backend in CountingBackend::all() {
                let env = QueryEnv::new(&db, &catalog, min_support).with_backend(backend);
                let got = opt.evaluate(&q, &env).unwrap();
                prop_assert_eq!(&reference.s_sets, &got.s_sets, "`{}` {}", queries[which], backend);
                prop_assert_eq!(&reference.t_sets, &got.t_sets, "`{}` {}", queries[which], backend);
                prop_assert_eq!(&reference.pair_result.pairs, &got.pair_result.pairs);
                prop_assert_eq!(reference.pair_result.count, got.pair_result.count);
                prop_assert_eq!(&reference.v_histories, &got.v_histories);
            }
        }
    }
}

#[test]
fn effectively_empty_universe_mines_nothing_under_every_backend() {
    // An empty `universe` vec is AprioriConfig's "all items" sentinel, so
    // the genuine empty-universe edge is a universe of items that never
    // occur: level 1 is empty and every backend must agree.
    let db = build_db(&[vec![0, 1], vec![1, 2]], 4);
    for backend in CountingBackend::all() {
        let cfg = AprioriConfig::new(1)
            .with_universe(vec![ItemId(3)])
            .with_backend(backend);
        let mut stats = WorkStats::new();
        let fs = apriori(&db, &cfg, &mut stats);
        assert_eq!(fs.total(), 0, "{backend}: empty universe must mine nothing");
    }
}

#[test]
fn empty_database_counts_zero_under_every_backend() {
    let db = TransactionDb::new(5, Vec::<Vec<ItemId>>::new()).unwrap();
    for backend in CountingBackend::all() {
        let cfg = AprioriConfig::new(1).with_backend(backend);
        let mut stats = WorkStats::new();
        let fs = apriori(&db, &cfg, &mut stats);
        assert_eq!(fs.total(), 0, "{backend}: empty db must mine nothing");
    }
}

#[test]
fn all_dense_item_and_support_one_agree_across_backends() {
    // Item 0 appears in every row (a fully dense bitmap column whose
    // diffsets are empty); support = 1 keeps every candidate alive, the
    // worst case for the deep diffset recurrence.
    let rows: Vec<Vec<u32>> = (0..130u32)
        .map(|r| {
            let mut row = vec![0u32];
            row.extend((1..6u32).filter(|i| (r + i) % (i + 1) == 0));
            row
        })
        .collect();
    let db = build_db(&rows, 6);
    let reference = {
        let mut stats = WorkStats::new();
        collect(&apriori(&db, &AprioriConfig::new(1), &mut stats))
    };
    assert!(
        reference.iter().any(|(s, n)| s.len() == 1 && *n == db.len() as u64),
        "the dense item must be frequent in every row"
    );
    for backend in CountingBackend::all() {
        let mut stats = WorkStats::new();
        let got = collect(&apriori(&db, &AprioriConfig::new(1).with_backend(backend), &mut stats));
        assert_eq!(reference, got, "{backend} diverged at support=1");
    }
}
