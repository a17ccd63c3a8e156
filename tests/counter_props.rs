//! Property tests for the dense pass-1/pass-2 kernels behind
//! `cfq_mining::count_supports_with`:
//!
//! * for batches of singletons and of pairs, `count_supports_with` agrees
//!   with `TrieCounter` and `NaiveCounter` count for count, under
//!   `threads` ∈ {0, 1, 2},
//! * several batches in one call — a level-1 batch, an empty batch, a
//!   level-2 batch and a deeper batch for the trie — come back in order,
//! * candidates may name items no row holds (inside and past the
//!   database's universe),
//! * shuffled and duplicated input is counted per input position,
//! * sparse pair batches over a wide id space land on both sides of the
//!   triangle's fallback rule and agree either way,
//! * a database trimmed for the candidates counts like the original.
//!
//! Which kernel ran is asserted by the unit tests beside the kernels
//! (`crates/mining/src/counter.rs`); these properties are about counts.

use cfq::mining::{
    count_supports_with, trim_db, LiveSet, NaiveCounter, SupportCounter, TrieCounter,
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
}
