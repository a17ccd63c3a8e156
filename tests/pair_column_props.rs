//! Property tests for the pair-support column
//! (`TransactionDb::fill_pair_supports`), the triangle a serving engine
//! keeps per epoch and reads every cold run's level 2 off:
//!
//! * the frequent pairs read off it equal those of the projecting level-2
//!   pass (`Projection::pairs`) and of `NaiveCounter`, for any database,
//!   any two sides (overlapping, empty, naming items past the universe)
//!   and any support,
//! * a chain of one to five `concat` folds — deltas that bring items the
//!   base never held together — equals a fresh fill of the combined rows,
//! * whole runs are the same with it and without it: `Optimizer::evaluate`
//!   under `full`, `cap1` and `apriori+`, and plain `apriori`, give the same
//!   sets, pairs, per-level candidates and frequent sets, sets counted,
//!   checks and `db_scans`. Only where the scans went differs: the level
//!   read off the column books a scan of zero rows.

use cfq::mining::{NaiveCounter, PairCounts, Projection, ScanStats, Substrate, SupportCounter};
use cfq::prelude::*;
use cfq::types::PairSupports;
use proptest::prelude::*;

const N_ITEMS: usize = 12;

fn build_db(rows: &[Vec<u32>]) -> TransactionDb {
    let rows = rows.iter().map(|r| r.iter().map(|&i| ItemId(i)).collect()).collect();
    TransactionDb::new(N_ITEMS, rows).unwrap()
}

fn columned(db: &TransactionDb) -> TransactionDb {
    let mut db = db.clone();
    assert!(db.fill_pair_supports());
    db
}

/// The items whose bit is set in `mask`, ascending.
fn side(mask: u16) -> Vec<ItemId> {
    (0..16u32).filter(|i| mask & (1 << i) != 0).map(ItemId).collect()
}

fn catalog() -> Catalog {
    let mut b = CatalogBuilder::new(N_ITEMS);
    b.num_attr("Price", (0..N_ITEMS).map(|i| (10 * i + 5) as f64).collect()).unwrap();
    let types: Vec<String> = (0..N_ITEMS).map(|i| format!("t{}", i % 3)).collect();
    b.cat_attr("Type", &types).unwrap();
    b.build()
}

const QUERIES: [&str; 6] = [
    "max(S.Price) <= min(T.Price)",
    "min(S.Price) >= 30 & max(T.Price) <= 90 & max(S.Price) <= min(T.Price)",
    "max(S.Price) <= 60 & sum(S.Price) <= sum(T.Price) & min(T.Price) >= 50",
    "avg(S.Price) <= avg(T.Price) & max(S.Price) <= 70",
    "S.Type = T.Type & count(T) <= 2",
    "min(S.Price) <= 25 & freq(T)",
];

/// What must not move between a run with the column and one without:
/// everything but the scan extents and the trim passes.
fn ledger(out: &ExecutionOutcome) -> String {
    let side = |s: &WorkStats| {
        let levels: Vec<(usize, u64, u64)> =
            s.levels.iter().map(|l| (l.level, l.candidates, l.frequent)).collect();
        format!(
            "{levels:?} counted {} checks {} pruned {} scans {}",
            s.support_counted, s.constraint_checks, s.pruned_candidates, s.db_scans
        )
    };
    format!(
        "{:?}\n{:?}\n{} {:?}\n{}\n{}\n{} scans ({} extents)\n{:?}",
        out.s_sets,
        out.t_sets,
        out.pair_result.count,
        out.pair_result.pairs,
        side(&out.s_stats),
        side(&out.t_stats),
        out.db_scans,
        out.scan.extents.len(),
        out.v_histories,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Rows draw from items 0..10 of a 12-item universe; sides from ids
    /// 0..14, so some side items occur in no row and ids 12 and 13 lie past
    /// the universe.
    #[test]
    fn pairs_read_off_the_column_match_the_projection_and_naive(
        rows in prop::collection::vec(prop::collection::vec(0u32..10, 0..8), 0..40),
        s_mask in 0u16..16384,
        t_mask in 0u16..16384,
        min_support in 1u64..5,
    ) {
        let db = build_db(&rows);
        let with = columned(&db);
        let column = with.pair_supports().unwrap();
        let sides = [side(s_mask), side(t_mask)];
        let refs = [sides[0].as_slice(), sides[1].as_slice()];
        let (_, projected) = Projection::pairs(&db, &refs, 1, &mut ScanStats::default());
        let mut sub = Substrate::new(&with, CountingBackend::Horizontal, true, 1);
        let substrate = sub.count_pairs(&refs);
        prop_assert_eq!((sub.db_scans, sub.scan.extents.len()), (1, 1));
        prop_assert_eq!((sub.scan.rows_scanned, sub.scan.items_scanned), (0, 0));
        for (k, items) in sides.iter().enumerate() {
            let cands: Vec<Itemset> =
                items.iter().copied().collect::<Itemset>().subsets_of_size(2).collect();
            let naive: Vec<(Itemset, u64)> = cands
                .iter()
                .cloned()
                .zip(NaiveCounter.count(&db, &cands))
                .filter(|&(_, n)| n >= min_support)
                .collect();
            let read = PairCounts::gather(column, items).frequent(items, min_support);
            prop_assert_eq!(&read, &naive);
            prop_assert_eq!(&projected[k].frequent(items, min_support), &naive);
            prop_assert_eq!(&substrate[k].frequent(items, min_support), &naive);
        }
    }

    /// The base holds items 0..8 only; deltas draw from 0..12, so a fold
    /// brings pairs the base never held.
    #[test]
    fn concat_folds_equal_a_fresh_fill(
        rows in prop::collection::vec(prop::collection::vec(0u32..8, 0..7), 0..30),
        deltas in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..12, 0..7), 0..8),
            1..6,
        ),
    ) {
        let mut grown = columned(&build_db(&rows));
        let mut plain = build_db(&rows);
        for delta in &deltas {
            grown = grown.concat(&build_db(delta)).unwrap();
            plain = plain.concat(&build_db(delta)).unwrap();
            prop_assert!(plain.pair_supports().is_none());
            let fresh = PairSupports::of(&plain);
            prop_assert_eq!(grown.pair_supports(), fresh.as_ref());
            prop_assert_eq!(columned(&plain).pair_supports(), fresh.as_ref());
            prop_assert!(grown.validate().is_ok());
        }
    }

    /// Whole runs over random rows, each query under every strategy family
    /// and plain Apriori over a random universe.
    #[test]
    fn whole_runs_are_the_same_with_the_column(
        rows in prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 0..50),
        s_mask in 0u16..4096,
        t_mask in 0u16..4096,
        min_support in 1u64..5,
        query in 0usize..QUERIES.len(),
    ) {
        let db = build_db(&rows);
        let with = columned(&db);
        let catalog = catalog();
        let bound = bind_query(&parse_query(QUERIES[query]).unwrap(), &catalog).unwrap();
        for strategy in ["full", "cap1", "apriori+"] {
            let strategy = Optimizer::from_name(strategy).unwrap();
            let run = |db: &TransactionDb| {
                let env = QueryEnv::new(db, &catalog, min_support)
                    .with_s_universe(side(s_mask))
                    .with_t_universe(side(t_mask));
                strategy.evaluate(&bound, &env).unwrap()
            };
            let (without, read) = (run(&db), run(&with));
            prop_assert_eq!(ledger(&read), ledger(&without), "`{}`", QUERIES[query]);
            prop_assert!(read.scan.rows_scanned <= without.scan.rows_scanned);
        }
        let cfg = AprioriConfig::new(min_support).with_universe(side(s_mask | t_mask));
        let mine = |db: &TransactionDb| {
            let mut stats = WorkStats::new();
            let sets = apriori(db, &cfg, &mut stats);
            let sets: Vec<(Itemset, u64)> = sets.iter().map(|(s, n)| (s.clone(), n)).collect();
            let levels: Vec<(u64, u64)> =
                stats.levels.iter().map(|l| (l.candidates, l.frequent)).collect();
            (sets, levels, stats.db_scans, stats.scan.extents.len())
        };
        prop_assert_eq!(mine(&with), mine(&db));
    }
}
