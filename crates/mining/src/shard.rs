//! Horizontally sharded support counting — the SON/Partition trick
//! (Savasere, Omiecinski & Navathe, VLDB 1995) applied to candidate
//! counting instead of candidate generation.
//!
//! A [`ShardedRun`] splits the CSR [`TransactionDb`] into `P` contiguous
//! row ranges (item-balanced, via [`TransactionDb::chunks`]), counts each
//! level's candidates independently per shard, and merges the per-shard
//! partial vectors at a barrier per level. Because support is *additive
//! over any row partition*, the merged counts are bit-identical to an
//! unsharded scan — no approximation, no second verification pass.
//!
//! Per-shard AprioriTid-style trimming stays sound for the same reason:
//! every trim pass uses the **global** live set (the union of the next
//! level's candidates, which is shard-independent), and trimming is
//! row-local, so the concatenation of the per-shard trims *is* the global
//! trim restricted to each shard's rows. [`crate::trim::TrimResult::check_exactness`]
//! is the per-shard proof obligation (debug-asserted here, exhaustively
//! interleaved in `cfq-model`'s `sharded_trim` model): no row with enough
//! live items is dropped, and surviving rows are exactly live-filtered.
//!
//! Work accounting is shard-transparent: one counted level charges one
//! database scan whose extent is the *sum* of the shard extents, and one
//! trim pass whose drops are the summed per-shard drops — identical to
//! what the unsharded path would have recorded.

use crate::backend::{self, ResolvedBackend};
use crate::bitmap::{BitmapCounter, BitmapIndex};
use crate::counter::{count_supports_with, SupportCounter};
use crate::stats::ScanStats;
use crate::trim::{trim_db, LiveSet};
use crate::vertical::{TidsetIndex, VerticalCounter};
use cfq_types::{ItemId, Itemset, TransactionDb};

/// One horizontal shard: a contiguous row range of the source database,
/// its cumulatively trimmed working copy, and lazily built vertical
/// indices (over the shard's *untrimmed* rows, mirroring `CountingRun`).
struct Shard {
    base: TransactionDb,
    working: Option<TransactionDb>,
    bitmap: Option<BitmapIndex>,
    tidset: Option<TidsetIndex>,
}

impl Shard {
    /// The database this shard currently counts horizontal levels on.
    fn current(&self) -> &TransactionDb {
        self.working.as_ref().unwrap_or(&self.base)
    }
}

/// What one shard worker produced for one counted level.
struct ShardLevel {
    counts: Vec<Vec<u64>>,
    rows: u64,
    items: u64,
    rows_dropped: u64,
    items_dropped: u64,
    words_anded: u64,
}

/// Per-run sharded counting state (see the module docs).
pub struct ShardedRun {
    shards: Vec<Shard>,
    base_rows: u64,
    base_items: u64,
}

impl ShardedRun {
    /// Splits `db` into at most `n_shards` contiguous, item-balanced row
    /// ranges (fewer when the database is too small; always at least
    /// one). The split materializes each range as its own CSR store so
    /// shard workers trim and scan fully independent memory.
    pub fn new(db: &TransactionDb, n_shards: usize) -> ShardedRun {
        let mut shards: Vec<Shard> = db
            .chunks(n_shards.max(1))
            .iter()
            .map(|c| {
                let rows: Vec<Vec<ItemId>> = (c.first_row()..c.first_row() + c.len())
                    .map(|i| db.transaction(i).to_vec())
                    .collect();
                let base = TransactionDb::new(db.n_items(), rows)
                    .expect("shard rows come from a valid database");
                Shard { base, working: None, bitmap: None, tidset: None }
            })
            .collect();
        if shards.is_empty() {
            // Empty database: one empty shard keeps the control flow (and
            // the zero-extent accounting) identical to the unsharded path.
            let base = TransactionDb::new(db.n_items(), Vec::new())
                .expect("an empty database is valid");
            shards.push(Shard { base, working: None, bitmap: None, tidset: None });
        }
        ShardedRun {
            shards,
            base_rows: db.len() as u64,
            base_items: db.total_items() as u64,
        }
    }

    /// Number of shards actually in use (after small-database clamping).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Row counts per shard, in row order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.base.len()).collect()
    }

    /// Discards every shard's trimmed working copy, restarting trimming
    /// from the full base rows. Vertical indices (built over the base and
    /// already charged) are kept. Used by the optimizer's sequential mode,
    /// where each lattice trims for its own candidates from scratch.
    pub fn reset_trim(&mut self) {
        for s in &mut self.shards {
            s.working = None;
        }
    }

    /// Counts every batch of `batches` at `level` with horizontal row
    /// scans, one worker thread per shard, merging the per-shard partial
    /// vectors at the barrier. With `trim_to = Some((live, min_len))`
    /// each shard first trims its working rows against the shared global
    /// live set (the soundness argument is in the module docs).
    ///
    /// Records exactly what the unsharded path would: one optional trim
    /// pass (summed drops), one database scan, one extent whose rows and
    /// items are summed over shards.
    pub fn count_batches(
        &mut self,
        batches: &[&[Itemset]],
        level: usize,
        trim_to: Option<(&LiveSet, usize)>,
        db_scans: &mut u64,
        scan: &mut ScanStats,
    ) -> Vec<Vec<u64>> {
        let n_shards = self.shards.len();
        let results: Vec<ShardLevel> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| {
                    s.spawn(move || {
                        let (mut rows_dropped, mut items_dropped) = (0u64, 0u64);
                        if let Some((live, min_len)) = trim_to {
                            let cur = shard.current();
                            let r = trim_db(cur, live, min_len);
                            debug_assert!(
                                r.check_exactness(cur, live, min_len).is_ok(),
                                "per-shard trim lost a candidate-bearing row: {}",
                                r.check_exactness(cur, live, min_len).unwrap_err()
                            );
                            rows_dropped = r.rows_dropped;
                            items_dropped = r.items_dropped;
                            shard.working = Some(r.db);
                        }
                        let cur = shard.current();
                        let counts = count_supports_with(cur, batches, 1);
                        ShardLevel {
                            counts,
                            rows: cur.len() as u64,
                            items: cur.total_items() as u64,
                            rows_dropped,
                            items_dropped,
                            words_anded: 0,
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
        });
        let (counts, rows, items) = merge_shard_levels(batches, &results);
        if trim_to.is_some() {
            let dropped_rows: u64 = results.iter().map(|r| r.rows_dropped).sum();
            let dropped_items: u64 = results.iter().map(|r| r.items_dropped).sum();
            scan.record_trim(dropped_rows, dropped_items);
        }
        *db_scans += 1;
        scan.record_extent(level, rows, items);
        backend::metric_shard_levels(n_shards);
        backend::metric_shard_merges(n_shards as u64);
        counts
    }

    /// Counts `candidates` at `level` through per-shard vertical indices,
    /// one worker thread per shard, summing the partial vectors. The
    /// first use of an index kind charges one database scan (every shard
    /// inverts its rows once, concurrently) with the full summed extent —
    /// the same accounting as `CountingRun::count_vertical`.
    pub fn count_vertical(
        &mut self,
        resolved: ResolvedBackend,
        candidates: &[Itemset],
        level: usize,
        db_scans: &mut u64,
        scan: &mut ScanStats,
    ) -> Vec<u64> {
        assert!(
            resolved.is_vertical(),
            "count_vertical called with a horizontal resolution"
        );
        let n_shards = self.shards.len();
        let charge_scan = match resolved {
            ResolvedBackend::Tidset => self.shards.iter().any(|s| s.tidset.is_none()),
            ResolvedBackend::Bitmap => self.shards.iter().any(|s| s.bitmap.is_none()),
            ResolvedBackend::Horizontal => unreachable!(),
        };
        let results: Vec<ShardLevel> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| {
                    s.spawn(move || {
                        let (counts, words_anded) = match resolved {
                            ResolvedBackend::Tidset => {
                                if shard.tidset.is_none() {
                                    shard.tidset = Some(TidsetIndex::build(&shard.base));
                                }
                                let c = VerticalCounter::new(shard.tidset.as_ref().unwrap())
                                    .count(&shard.base, candidates);
                                (c, 0)
                            }
                            ResolvedBackend::Bitmap => {
                                if shard.bitmap.is_none() {
                                    shard.bitmap = Some(BitmapIndex::build(&shard.base));
                                }
                                let counter =
                                    BitmapCounter::new(shard.bitmap.as_ref().unwrap());
                                let c = counter.count(&shard.base, candidates);
                                (c, counter.words_anded())
                            }
                            ResolvedBackend::Horizontal => unreachable!(),
                        };
                        ShardLevel {
                            counts: vec![counts],
                            rows: shard.base.len() as u64,
                            items: shard.base.total_items() as u64,
                            rows_dropped: 0,
                            items_dropped: 0,
                            words_anded,
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
        });
        let (mut counts, _, _) = merge_shard_levels(&[candidates], &results);
        if charge_scan {
            *db_scans += 1;
            scan.record_extent(level, self.base_rows, self.base_items);
        }
        let words: u64 = results.iter().map(|r| r.words_anded).sum();
        if words > 0 {
            backend::metric_words_anded(words);
        }
        backend::metric_shard_levels(n_shards);
        backend::metric_shard_merges(n_shards as u64);
        counts.remove(0)
    }
}

/// The level barrier: element-wise sum of per-shard partial vectors,
/// plus the summed scan extent.
fn merge_shard_levels(
    batches: &[&[Itemset]],
    results: &[ShardLevel],
) -> (Vec<Vec<u64>>, u64, u64) {
    let mut merged: Vec<Vec<u64>> = batches.iter().map(|b| vec![0u64; b.len()]).collect();
    let (mut rows, mut items) = (0u64, 0u64);
    for r in results {
        for (acc, partial) in merged.iter_mut().zip(&r.counts) {
            debug_assert_eq!(acc.len(), partial.len());
            for (a, p) in acc.iter_mut().zip(partial) {
                *a += p;
            }
        }
        rows += r.rows;
        items += r.items;
    }
    (merged, rows, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CountingBackend;
    use crate::stats::WorkStats;

    fn db() -> TransactionDb {
        TransactionDb::from_u32(
            6,
            &[
                &[0, 1, 2, 3],
                &[1, 2, 3],
                &[0, 2, 4],
                &[1, 5],
                &[2, 3, 4, 5],
                &[5],
                &[0, 5],
            ],
        )
    }

    fn cands() -> Vec<Itemset> {
        let mut c: Vec<Itemset> = (0..6u32).map(|i| [i].into()).collect();
        c.push([1u32, 2].into());
        c.push([2u32, 3].into());
        c.sort();
        c
    }

    #[test]
    fn sharded_counts_equal_unsharded_for_every_shard_count() {
        let d = db();
        let c = cands();
        let expected = count_supports_with(&d, &[&c], 1).remove(0);
        for shards in [1, 2, 3, 5, 16] {
            let mut run = ShardedRun::new(&d, shards);
            let mut stats = WorkStats::new();
            let got = run.count_batches(&[&c], 1, None, &mut stats.db_scans, &mut stats.scan).remove(0);
            assert_eq!(got, expected, "shards={shards}");
            assert_eq!(stats.db_scans, 1);
            assert_eq!(stats.scan.extents.len(), 1);
            assert_eq!(stats.scan.rows_scanned, d.len() as u64);
            assert_eq!(stats.scan.items_scanned, d.total_items() as u64);
        }
    }

    #[test]
    fn per_shard_trim_matches_global_trim_accounting() {
        let d = db();
        let c: Vec<Itemset> = vec![[1u32, 2].into(), [2u32, 3].into()];
        let live = LiveSet::from_items(6, c.iter().flat_map(|s| s.iter()));
        let global = trim_db(&d, &live, 2);
        let expected = count_supports_with(&global.db, &[&c], 1).remove(0);
        for shards in [1, 2, 3, 7] {
            let mut run = ShardedRun::new(&d, shards);
            let mut stats = WorkStats::new();
            let got = run
                .count_batches(&[&c], 2, Some((&live, 2)), &mut stats.db_scans, &mut stats.scan)
                .remove(0);
            assert_eq!(got, expected, "shards={shards}");
            assert_eq!(stats.scan.trim_passes, 1, "one logical trim pass per level");
            assert_eq!(stats.scan.trim_rows_dropped, global.rows_dropped);
            assert_eq!(stats.scan.trim_items_dropped, global.items_dropped);
            assert_eq!(stats.scan.rows_scanned, global.db.len() as u64);
            assert_eq!(stats.scan.items_scanned, global.db.total_items() as u64);
        }
    }

    #[test]
    fn vertical_backends_merge_and_charge_one_scan() {
        let d = db();
        let c = cands();
        let expected = count_supports_with(&d, &[&c], 1).remove(0);
        for backend in [CountingBackend::Tidset, CountingBackend::Bitmap] {
            let mut run = ShardedRun::new(&d, 3);
            let mut stats = WorkStats::new();
            let resolved = backend.resolved();
            assert!(resolved.is_vertical());
            let got =
                run.count_vertical(resolved, &c, 1, &mut stats.db_scans, &mut stats.scan);
            assert_eq!(got, expected, "{backend}");
            assert_eq!(stats.db_scans, 1, "{backend}: index build is the only scan");
            // A second level is scan-free.
            let pairs: Vec<Itemset> = vec![[2u32, 3].into()];
            let again =
                run.count_vertical(resolved, &pairs, 2, &mut stats.db_scans, &mut stats.scan);
            assert_eq!(again, vec![d.support(&[2u32, 3].into())]);
            assert_eq!(stats.db_scans, 1, "{backend}");
            assert_eq!(stats.scan.extents.len(), 1, "{backend}");
        }
    }

    #[test]
    fn shard_copies_carry_their_share_of_the_item_support_column() {
        let d = db();
        for n in [1, 2, 3, 7] {
            let run = ShardedRun::new(&d, n);
            let mut summed = vec![0u32; d.n_items()];
            for shard in &run.shards {
                shard.base.validate().unwrap();
                for (sum, n) in summed.iter_mut().zip(shard.base.item_supports()) {
                    *sum += n;
                }
            }
            assert_eq!(summed, d.item_supports(), "shards={n}");
        }
    }

    #[test]
    fn clamps_to_the_database_and_survives_empty_input() {
        let d = db();
        let run = ShardedRun::new(&d, 1000);
        assert!(run.n_shards() <= d.len());
        assert_eq!(run.shard_sizes().iter().sum::<usize>(), d.len());

        let empty = TransactionDb::new(4, Vec::new()).unwrap();
        let mut run = ShardedRun::new(&empty, 8);
        assert_eq!(run.n_shards(), 1);
        let c: Vec<Itemset> = vec![[0u32].into()];
        let mut stats = WorkStats::new();
        let got = run.count_batches(&[&c], 1, None, &mut stats.db_scans, &mut stats.scan).remove(0);
        assert_eq!(got, vec![0]);
        assert_eq!(stats.db_scans, 1);
        assert_eq!(stats.scan.rows_scanned, 0);
    }
}
