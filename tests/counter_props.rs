//! Property tests for the level-1 column read and the dense level-2
//! kernel behind `cfq_mining::count_supports_with`:
//!
//! * for batches of singletons (read off the database's item-support
//!   column) and of pairs (the triangle), `count_supports_with` agrees
//!   with `TrieCounter` and `NaiveCounter` count for count, under
//!   `threads` ∈ {0, 1, 2},
//! * the column itself is a recount of the rows however the database came
//!   to be (`new`, `from_parts`, chained `concat`, `project`, a `trim_db`
//!   copy, a copy of a row range) and `validate()` says so,
//! * several batches in one call — a level-1 batch, an empty batch, a
//!   level-2 batch and a deeper batch for the trie — come back in order,
//! * candidates may name items no row holds (inside and past the
//!   database's universe),
//! * shuffled and duplicated input is counted per input position,
//! * sparse pair batches over a wide id space land on both sides of the
//!   triangle's fallback rule and agree either way,
//! * a database trimmed for the candidates counts like the original,
//! * the projecting level-2 pass counts every pair of every side like the
//!   trie, and the bitmaps over the projection count deeper batches like
//!   the trie on the same rows.
//!
//! Which kernel ran is asserted by the unit tests beside the kernels
//! (`crates/mining/src/counter.rs`); these properties are about counts.

use cfq::mining::{
    count_supports_with, trim_db, LiveSet, NaiveCounter, Projection, ScanStats, SupportCounter,
    TrieCounter,
};
use cfq::prelude::*;
use proptest::prelude::*;

const THREADS: [usize; 3] = [0, 1, 2];

fn build_db(rows: &[Vec<u32>], n_items: usize) -> TransactionDb {
    let rows: Vec<Vec<ItemId>> = rows
        .iter()
        .map(|r| r.iter().map(|&i| ItemId(i)).collect())
        .collect();
    TransactionDb::new(n_items, rows).unwrap()
}

/// Every k-subset of the items whose bit is set in `mask`, sorted.
fn k_subsets(mask: u16, k: usize) -> Vec<Itemset> {
    let universe: Itemset = (0..16u32).filter(|i| mask & (1 << i) != 0).collect();
    if universe.len() < k {
        return Vec::new();
    }
    universe.subsets_of_size(k).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Rows draw from items 0..10 of a 12-item universe; candidates from
    /// ids 0..14 — so some candidate items occur in no row, and ids 12
    /// and 13 lie past the database's universe.
    #[test]
    fn dense_kernels_match_trie_and_naive(
        rows in prop::collection::vec(prop::collection::vec(0u32..10, 0..7), 0..40),
        mask1 in 0u16..16384,
        mask2 in 0u16..16384,
        mask3 in 0u16..1024,
    ) {
        let db = build_db(&rows, 12);
        let singles = k_subsets(mask1, 1);
        let pairs = k_subsets(mask2, 2);
        let triples = k_subsets(mask3, 3);
        let batches: [&[Itemset]; 4] = [&singles, &[], &pairs, &triples];
        let naive: Vec<Vec<u64>> = batches.iter().map(|b| NaiveCounter.count(&db, b)).collect();
        let trie: Vec<Vec<u64>> = batches.iter().map(|b| TrieCounter.count(&db, b)).collect();
        prop_assert_eq!(&naive, &trie);
        for threads in THREADS {
            prop_assert_eq!(&naive, &count_supports_with(&db, &batches, threads), "threads={}", threads);
            // Alone, in the other order, and the same batch twice.
            for k in [&singles, &pairs] {
                let expected = NaiveCounter.count(&db, k);
                let got = count_supports_with(&db, &[k, &pairs, k], threads);
                prop_assert_eq!(&expected, &got[0], "threads={}", threads);
                prop_assert_eq!(&expected, &got[2], "threads={}", threads);
                prop_assert_eq!(&naive[2], &got[1], "threads={}", threads);
            }
        }
    }

    /// Out-of-order and repeated candidates are not dense-kernel input:
    /// they must fall back and still be counted per input position.
    #[test]
    fn unsorted_and_duplicated_input_falls_back(
        rows in prop::collection::vec(prop::collection::vec(0u32..10, 0..7), 1..30),
        mask in 1u16..1024,
        k in 1usize..3,
        picks in prop::collection::vec(0usize..64, 2..24),
    ) {
        let db = build_db(&rows, 10);
        let pool = k_subsets(mask, k);
        prop_assume!(!pool.is_empty());
        let shuffled: Vec<Itemset> = picks.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        let expected = NaiveCounter.count(&db, &shuffled);
        for threads in THREADS {
            let got = count_supports_with(&db, &[&shuffled, &pool], threads);
            prop_assert_eq!(&expected, &got[0], "threads={}", threads);
            prop_assert_eq!(&NaiveCounter.count(&db, &pool), &got[1], "threads={}", threads);
        }
    }

    /// Sparse pairs over a 96-id space against few rows: the batch's
    /// triangle (up to 4,560 cells) outgrows the work a trie would do for
    /// some draws and not for others; the counts do not depend on which.
    #[test]
    fn sparse_pairs_agree_on_both_sides_of_the_fallback(
        rows in prop::collection::vec(prop::collection::vec(0u32..96, 0..12), 1..12),
        raw in prop::collection::vec(0u32..96 * 96, 1..120),
    ) {
        let db = build_db(&rows, 96);
        let mut pairs: Vec<Itemset> = raw
            .iter()
            .filter(|&&p| p / 96 != p % 96)
            .map(|&p| Itemset::from([p / 96, p % 96]))
            .collect();
        pairs.sort();
        pairs.dedup();
        let expected = NaiveCounter.count(&db, &pairs);
        prop_assert_eq!(&expected, &TrieCounter.count(&db, &pairs));
        for threads in THREADS {
            prop_assert_eq!(&expected, &count_supports_with(&db, &[&pairs], threads).remove(0));
        }
    }

    /// The levelwise miner hands the kernels a database already trimmed
    /// to the candidates' items: same counts as on the original.
    #[test]
    fn trimmed_database_counts_like_the_original(
        rows in prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 1..40),
        mask in 1u16..4096,
        k in 1usize..3,
    ) {
        let db = build_db(&rows, 12);
        let cands = k_subsets(mask, k);
        prop_assume!(!cands.is_empty());
        let live = LiveSet::from_items(12, cands.iter().flat_map(|c| c.iter()));
        let trimmed = trim_db(&db, &live, k);
        let expected = NaiveCounter.count(&db, &cands);
        for threads in THREADS {
            prop_assert_eq!(
                &expected,
                &count_supports_with(&trimmed.db, &[&cands], threads).remove(0),
                "threads={}", threads
            );
        }
    }

    /// The default path's two kernels against the reference counters: the
    /// pair triangles of `Projection::pairs` — sides overlapping, disjoint,
    /// empty or of one item, one naming an item past the universe — and
    /// `Projection::count` on the projection trimmed for a deeper batch.
    #[test]
    fn projection_kernels_match_trie_and_naive(
        rows in prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 0..40),
        s_mask in 0u16..16384,
        t_mask in 0u16..4096,
        deeper in 0u16..4096,
        k in 3usize..5,
    ) {
        let db = build_db(&rows, 12);
        let sides = [k_subsets(s_mask, 1), k_subsets(t_mask, 1)]
            .map(|singles| singles.iter().map(|s| s.as_slice()[0]).collect::<Vec<ItemId>>());
        for threads in THREADS {
            let mut scan = ScanStats::default();
            let (mut p, pairs) =
                Projection::pairs(&db, &[&sides[0], &sides[1]], threads, &mut scan);
            for (side, counts) in sides.iter().zip(&pairs) {
                let cands: Vec<Itemset> =
                    side.iter().copied().collect::<Itemset>().subsets_of_size(2).collect();
                let got: Vec<u64> = (0..side.len())
                    .flat_map(|a| (a + 1..side.len()).map(move |b| (a, b)))
                    .map(|(a, b)| counts.get(a, b))
                    .collect();
                prop_assert_eq!(&got, &TrieCounter.count(&db, &cands), "threads={}", threads);
                prop_assert_eq!(&got, &NaiveCounter.count(&db, &cands));
                let frequent: Vec<(Itemset, u64)> =
                    cands.iter().cloned().zip(got).filter(|&(_, n)| n >= 2).collect();
                prop_assert_eq!(counts.frequent(side, 2), frequent);
            }
            let cands = k_subsets(deeper & (s_mask | t_mask) & 4095, k);
            p.retain(&[&cands], k, &mut scan);
            let projected: Vec<Vec<ItemId>> = p.rows().map(|r| r.collect()).collect();
            let same_rows = TransactionDb::new(12, projected).unwrap();
            let got = p.count(&[&cands, &[]]);
            prop_assert_eq!(&got[0], &TrieCounter.count(&same_rows, &cands));
            prop_assert_eq!(&got[0], &NaiveCounter.count(&db, &cands));
            prop_assert!(got[1].is_empty());
        }
    }

    /// Level 1 is read, not counted: whichever constructor built a
    /// database, `item_supports()[i]` is the number of rows holding `i`.
    #[test]
    fn item_support_column_is_a_recount_after_every_constructor(
        rows in prop::collection::vec(prop::collection::vec(0u32..10, 0..7), 0..40),
        deltas in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..12, 0..7), 0..6),
            0..4,
        ),
        live_mask in 0u16..4096,
        types in prop::collection::vec(0u32..4, 12),
        n_parts in 1usize..5,
    ) {
        let check = |db: &TransactionDb, how: &str| {
            let recount: Vec<u32> = (0..db.n_items() as u32)
                .map(|i| db.support(&Itemset::singleton(ItemId(i))) as u32)
                .collect();
            assert_eq!(db.item_supports(), &recount[..], "{how}");
            assert!(db.validate().is_ok(), "{how}: {:?}", db.validate());
        };
        let db = build_db(&rows, 12);
        check(&db, "new");

        let offsets: Vec<u32> = std::iter::once(0)
            .chain(db.iter().scan(0u32, |end, row| {
                *end += row.len() as u32;
                Some(*end)
            }))
            .collect();
        let arena: Vec<ItemId> = db.iter().flatten().copied().collect();
        check(&TransactionDb::from_parts(12, arena, offsets), "from_parts");

        // Appends: each epoch's column is the old column plus the delta's.
        let mut grown = db.clone();
        for delta in &deltas {
            grown = grown.concat(&build_db(delta, 12)).unwrap();
            check(&grown, "concat");
        }

        let labels: Vec<String> = types.iter().map(|t| format!("t{t}")).collect();
        let mut b = CatalogBuilder::new(12);
        b.cat_attr("Type", &labels).unwrap();
        let catalog = b.build();
        check(&grown.project(&catalog, catalog.attr("Type").unwrap()).0, "project");

        let live = LiveSet::from_items(12, k_subsets(live_mask, 1).iter().flat_map(|s| s.iter()));
        check(&trim_db(&grown, &live, 2).db, "trim_db");

        // Copies of contiguous row ranges: support is additive over them.
        let mut summed = [0u32; 12];
        for chunk in grown.chunks(n_parts) {
            let part = TransactionDb::new(12, chunk.iter().map(<[ItemId]>::to_vec).collect()).unwrap();
            check(&part, "row-range copy");
            for (sum, n) in summed.iter_mut().zip(part.item_supports()) {
                *sum += n;
            }
        }
        prop_assert_eq!(grown.item_supports(), &summed[..]);
    }
}
