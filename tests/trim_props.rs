//! Property tests for per-level database trimming (`cfq_mining::trim`):
//!
//! * support counts on a trimmed database agree with full-database counts
//!   for all four counters, for every candidate whose items are live and
//!   whose length is at least the trim's `min_len` (the trim invariant),
//! * row provenance maps each surviving row back to its source row,
//! * trimming composes (trim of a trim with a smaller live set is exact),
//! * the rank-space projection is the trimmed database — the level-2 pass
//!   writes what `trim_db(live, 2)` keeps, `retain` what the next trim
//!   keeps — with the same provenance and the same recorded drops,
//! * optimizer answers are identical with `--trim on|off` across the
//!   dovetailed and sequential executors, including the `J^k_max` path.

use cfq::mining::{
    trim_db, LiveSet, NaiveCounter, ParallelTrieCounter, Projection, ScanStats, SupportCounter,
    TidsetIndex, TrieCounter, VerticalCounter,
};
use cfq::prelude::*;
use proptest::prelude::*;

fn build_db(rows: &[Vec<u32>], n_items: usize) -> TransactionDb {
    let rows: Vec<Vec<ItemId>> =
        rows.iter().map(|r| r.iter().map(|&i| ItemId(i)).collect()).collect();
    TransactionDb::new(n_items, rows).unwrap()
}

fn build_catalog(prices: &[u32], types: &[u32]) -> Catalog {
    let n = prices.len();
    let mut b = CatalogBuilder::new(n);
    b.num_attr("Price", prices.iter().map(|&p| p as f64).collect()).unwrap();
    let labels: Vec<String> =
        types[..n].iter().map(|&t| ((b'a' + (t % 3) as u8) as char).to_string()).collect();
    b.cat_attr("Type", &labels).unwrap();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The trim invariant: counts over the trimmed database equal counts
    /// over the full database, for all four counters.
    #[test]
    fn trimmed_counts_agree_with_full(
        rows in prop::collection::vec(prop::collection::vec(0u32..8, 0..6), 1..24),
        mask in 1u16..255,
        k in 2usize..4,
    ) {
        let db = build_db(&rows, 8);
        // Candidates: every k-subset of the masked item universe. The live
        // set is exactly their union, as in the levelwise miner.
        let universe: Itemset = (0..8u32).filter(|i| mask & (1 << i) != 0).collect();
        let cands: Vec<Itemset> =
            universe.all_nonempty_subsets().into_iter().filter(|s| s.len() == k).collect();
        prop_assume!(!cands.is_empty());
        let live = LiveSet::from_items(8, cands.iter().flat_map(|c| c.iter()));
        let trimmed = trim_db(&db, &live, k);
        prop_assert_eq!(trimmed.check_exactness(&db, &live, k), Ok(()));

        let full = TrieCounter.count(&db, &cands);
        prop_assert_eq!(&full, &NaiveCounter.count(&trimmed.db, &cands));
        prop_assert_eq!(&full, &TrieCounter.count(&trimmed.db, &cands));
        prop_assert_eq!(&full, &ParallelTrieCounter::default().count(&trimmed.db, &cands));
        prop_assert_eq!(
            &full,
            &ParallelTrieCounter { threads: 3 }.count(&trimmed.db, &cands)
        );
        let index = TidsetIndex::build(&trimmed.db);
        prop_assert_eq!(&full, &VerticalCounter::new(&index).count(&trimmed.db, &cands));

        // Accounting adds up.
        prop_assert_eq!(
            trimmed.rows_dropped as usize,
            db.len() - trimmed.db.len()
        );
        prop_assert_eq!(
            trimmed.items_dropped as usize,
            db.total_items() - trimmed.db.total_items()
        );
    }

    /// Provenance maps each surviving row to its source row, and a second
    /// trim with a smaller live set composes exactly.
    #[test]
    fn provenance_and_composition(
        rows in prop::collection::vec(prop::collection::vec(0u32..8, 0..6), 1..24),
        mask1 in 1u16..255,
        mask2 in 1u16..255,
    ) {
        let db = build_db(&rows, 8);
        let items_of = |m: u16| (0..8u32).filter(move |i| m & (1 << i) != 0).map(ItemId);
        let live1 = LiveSet::from_items(8, items_of(mask1));
        // Second live set must be a subset of the first (monotone shrink).
        let live2 = LiveSet::from_items(8, items_of(mask1 & mask2));

        let t1 = trim_db(&db, &live1, 1);
        prop_assert_eq!(t1.provenance.len(), t1.db.len());
        // Every row with a live item survives as its live-filter, under
        // the index of its source row.
        prop_assert_eq!(t1.check_exactness(&db, &live1, 1), Ok(()));

        // trim(trim(db, live1), live2) == trim(db, live2) when live2 ⊆ live1,
        // with provenance composing through the first pass.
        let t12 = trim_db(&t1.db, &live2, 1);
        let direct = trim_db(&db, &live2, 1);
        prop_assert_eq!(t12.db.iter().collect::<Vec<_>>(), direct.db.iter().collect::<Vec<_>>());
        let composed: Vec<u32> =
            t12.provenance.iter().map(|&r| t1.provenance[r as usize]).collect();
        prop_assert_eq!(composed, direct.provenance);
    }
}

/// The rows of a projection, mapped back to items.
fn projected_rows(p: &Projection) -> Vec<Vec<ItemId>> {
    p.rows().map(|row| row.collect()).collect()
}

fn db_rows(db: &TransactionDb) -> Vec<Vec<ItemId>> {
    db.iter().map(|row| row.to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The projection *is* the trimmed database: for any two sides —
    /// overlapping, disjoint, empty, of one item — the level-2 pass keeps
    /// the rows, items and provenance `trim_db(S ∪ T, 2)` keeps and
    /// records the same drops, whatever the thread count; and shrinking it
    /// to the items of a deeper candidate batch is the next trim.
    #[test]
    fn projection_is_the_trimmed_database(
        rows in prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 0..40),
        s_mask in 0u16..4096,
        t_mask in 0u16..4096,
        deeper in 0u16..4096,
        k in 3usize..5,
    ) {
        let db = build_db(&rows, 12);
        let items_of = |m: u16| -> Vec<ItemId> {
            (0..12u32).filter(|i| m & (1 << i) != 0).map(ItemId).collect()
        };
        let (s, t) = (items_of(s_mask), items_of(t_mask));
        let live = LiveSet::from_items(12, s.iter().chain(&t).copied());
        let trimmed = trim_db(&db, &live, 2);
        for threads in [0usize, 1, 3] {
            let mut scan = ScanStats::default();
            let (mut p, _) = Projection::pairs(&db, &[&s, &t], threads, &mut scan);
            prop_assert_eq!(p.items(), items_of(s_mask | t_mask), "threads={}", threads);
            prop_assert_eq!(projected_rows(&p), db_rows(&trimmed.db), "threads={}", threads);
            prop_assert_eq!(p.provenance(), trimmed.provenance.as_slice());
            prop_assert_eq!(p.total_items(), trimmed.db.total_items());
            prop_assert_eq!(
                (scan.trim_passes, scan.trim_rows_dropped, scan.trim_items_dropped),
                (1, trimmed.rows_dropped, trimmed.items_dropped)
            );

            // Level k: candidates over a subset of the live items.
            let cands: Vec<Itemset> = items_of(deeper & (s_mask | t_mask))
                .into_iter()
                .collect::<Itemset>()
                .subsets_of_size(k)
                .collect();
            let next_live = LiveSet::from_items(12, cands.iter().flat_map(|c| c.iter()));
            let next = trim_db(&trimmed.db, &next_live, k);
            p.retain(&[&cands, &[]], k, &mut scan);
            prop_assert_eq!(projected_rows(&p), db_rows(&next.db));
            let composed: Vec<u32> =
                next.provenance.iter().map(|&r| trimmed.provenance[r as usize]).collect();
            prop_assert_eq!(p.provenance(), composed.as_slice());
            prop_assert_eq!(
                (scan.trim_passes, scan.trim_rows_dropped, scan.trim_items_dropped),
                (
                    2,
                    trimmed.rows_dropped + next.rows_dropped,
                    trimmed.items_dropped + next.items_dropped
                )
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Optimizer answers are byte-identical with trimming on and off, for
    /// both the dovetailed and sequential executors. The `sum <= sum`
    /// query exercises the dovetail + `J^k_max` pruning path (its `V^k`
    /// series must not be disturbed by trimming).
    #[test]
    fn optimizer_answers_identical_with_trim_on_or_off(
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
        let catalog = build_catalog(&prices, &types);
        let q = bind_query(&parse_query(queries[which]).unwrap(), &catalog).unwrap();
        for opt in [
            Optimizer::default(),
            Optimizer { dovetail: false, ..Optimizer::default() },
        ] {
            let on = opt.evaluate(&q, &QueryEnv::new(&db, &catalog, min_support).with_trim(true)).unwrap();
            let off = opt.evaluate(&q, &QueryEnv::new(&db, &catalog, min_support).with_trim(false)).unwrap();
            prop_assert_eq!(&on.s_sets, &off.s_sets, "`{}`", queries[which]);
            prop_assert_eq!(&on.t_sets, &off.t_sets, "`{}`", queries[which]);
            prop_assert_eq!(&on.pair_result.pairs, &off.pair_result.pairs);
            prop_assert_eq!(on.pair_result.count, off.pair_result.count);
            prop_assert_eq!(&on.v_histories, &off.v_histories);
            prop_assert_eq!(on.db_scans, off.db_scans);
            // Trimming never *increases* scan volume, and off means off.
            prop_assert!(on.scan.items_scanned <= off.scan.items_scanned);
            prop_assert_eq!(off.scan.trim_passes, 0);
        }
    }
}
