//! The rank-space working database of a levelwise run.
//!
//! After level 1 a miner knows its live items — the frequent singletons
//! that can still appear in a candidate. A [`Projection`] is the database
//! restricted to them: the rows that keep at least two live items, stored
//! as a CSR arena of `u16` *ranks* (positions in the ascending live-item
//! list) instead of `u32` item ids. It is built by the same pass that
//! counts level 2 ([`Projection::pairs`]): each source row is mapped to
//! ranks once, written out if it survives, and every pair of its ranks
//! bumps a [`PairCounts`] triangle — one per lattice sharing the scan — so
//! level 2 needs no candidate list at all. What the pass writes is exactly
//! what [`crate::trim::trim_db`] keeps for the same live set and
//! `min_len = 2`, so scan and trim accounting are those of the trimmed
//! database (property-tested in `tests/trim_props.rs`).
//!
//! A database that carries its pair-support column
//! ([`TransactionDb::pair_supports`], filled once per epoch by a serving
//! engine) needs no such pass at level 2: its pair supports are read off
//! the column's cells ([`PairCounts::gather`]). The run's one pass over
//! rows is then level 3's, [`Projection::project`], onto the items of the
//! level-3 candidates and keeping rows with at least three of them — what
//! the level-2 pass followed by the level-3 trim would have kept, written
//! once.
//!
//! From level 3 on the projection shrinks in place ([`Projection::retain`],
//! the per-level trim) and candidates are counted by AND + popcount over
//! tid-bitmaps built from its current rows ([`Projection::count`]): few
//! rows, few live items, no scan of the source database.

use crate::bitmap::{BitmapCounter, BitmapIndex};
use crate::counter::{resolve_threads, PairCounts, NO_RANK};
use crate::stats::ScanStats;
use cfq_types::{triangle_cells, DbChunk, ItemId, Itemset, TransactionDb, MAX_TRIANGLE_CELLS};

/// A database projected onto its live items, in rank space.
pub struct Projection {
    /// Rank → item, ascending: a sorted source row maps to sorted ranks.
    item_of: Vec<ItemId>,
    /// Item → rank, [`NO_RANK`] for items that are not live.
    rank_of: Vec<u16>,
    /// The surviving rows' ranks, row after row.
    ranks: Vec<u16>,
    /// Row `r` is `ranks[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
    /// For each surviving row, its row index in the source database.
    provenance: Vec<u32>,
}

/// One worker's share of [`Projection::pairs`].
struct Part {
    ranks: Vec<u16>,
    offsets: Vec<u32>,
    provenance: Vec<u32>,
    pairs: Vec<PairCounts>,
}

impl Part {
    /// A share with room for `rows` rows of `capacity` item occurrences.
    fn new(sizes: &[usize], rows: usize, capacity: usize) -> Part {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Part {
            ranks: Vec::with_capacity(capacity),
            offsets,
            provenance: Vec::with_capacity(rows),
            pairs: sizes.iter().map(|&m| PairCounts::new(m)).collect(),
        }
    }
}

impl Projection {
    /// Whether lattices with this many live items each can share one
    /// projection: every side's pair triangle stays under the cap the
    /// dense level-2 kernel already observes, and the union of the sides
    /// has a `u16` rank to spare for the mark of an item that is not live.
    pub fn fits(side_sizes: &[usize]) -> bool {
        side_sizes.iter().all(|&m| triangle_cells(m) <= MAX_TRIANGLE_CELLS)
            && side_sizes.iter().sum::<usize>() < usize::from(NO_RANK)
    }

    /// The level-2 pass. `sides` are the live items of the lattices
    /// sharing this scan, each ascending; the union is what stays live.
    /// Reads `db` once (rows split across `threads` workers, 0 = one per
    /// core) and returns the projection — the rows keeping at least two
    /// live items — with, per side, the support of every pair of its
    /// items, indexed by position in the side's list. The rows and item
    /// occurrences left behind are recorded in `scan` as one trim pass.
    ///
    /// # Panics
    /// If the sides do not [`fit`](Projection::fits).
    pub fn pairs(
        db: &TransactionDb,
        sides: &[&[ItemId]],
        threads: usize,
        scan: &mut ScanStats,
    ) -> (Projection, Vec<PairCounts>) {
        let sizes: Vec<usize> = sides.iter().map(|s| s.len()).collect();
        assert!(Projection::fits(&sizes), "sides of {sizes:?} items do not fit a projection");
        debug_assert!(sides.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
        let mut item_of: Vec<ItemId> = sides.concat();
        item_of.sort_unstable();
        item_of.dedup();
        Projection::pass(db, item_of, sides, 2, threads, scan)
    }

    /// The pass of a run whose level 2 was read off the database's
    /// pair-support column: projects `db` onto `items` (ascending — the
    /// items of the level-`min_len` candidates), keeping the rows that hold
    /// at least `min_len` of them, exactly what [`crate::trim::trim_db`]
    /// keeps for that live set and `min_len`. Recorded in `scan` as one
    /// trim pass.
    ///
    /// # Panics
    /// If `items` outrun the `u16` ranks.
    pub fn project(
        db: &TransactionDb,
        items: Vec<ItemId>,
        min_len: usize,
        threads: usize,
        scan: &mut ScanStats,
    ) -> Projection {
        assert!(items.len() < usize::from(NO_RANK), "{} items outrun u16 ranks", items.len());
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        Projection::pass(db, items, &[], min_len.max(1), threads, scan).0
    }

    /// One projecting pass onto `item_of` (ascending), keeping rows of at
    /// least `min_len` live items and counting, per side of `sides` (each a
    /// subset of `item_of`), the pair supports of the rows it keeps.
    fn pass(
        db: &TransactionDb,
        item_of: Vec<ItemId>,
        sides: &[&[ItemId]],
        min_len: usize,
        threads: usize,
        scan: &mut ScanStats,
    ) -> (Projection, Vec<PairCounts>) {
        let sizes: Vec<usize> = sides.iter().map(|s| s.len()).collect();
        let n_ids = item_of.last().map_or(0, |i| i.index() + 1).max(db.n_items());
        let mut rank_of = vec![NO_RANK; n_ids];
        for (r, i) in item_of.iter().enumerate() {
            rank_of[i.index()] = r as u16;
        }
        // Union rank → position in the side's list; `None` when the side
        // is the whole union and a row's ranks are its positions already.
        let side_of_union: Vec<Option<Vec<u16>>> = sides
            .iter()
            .map(|side| {
                (side.len() != item_of.len()).then(|| {
                    let mut of_union = vec![NO_RANK; item_of.len()];
                    for (p, i) in side.iter().enumerate() {
                        of_union[rank_of[i.index()] as usize] = p as u16;
                    }
                    of_union
                })
            })
            .collect();

        // Rows are filtered without a branch per item: every rank is
        // written at the cursor, which only moves past the live ones.
        let scan_chunk = |chunk: DbChunk<'_>| -> Part {
            let mut part = Part::new(&sizes, chunk.len(), chunk.total_items());
            let (mut row, mut side_row): (Vec<u16>, Vec<u16>) = (Vec::new(), Vec::new());
            for (tid, t) in chunk.iter().enumerate() {
                if row.len() < t.len() {
                    row.resize(t.len(), 0);
                    side_row.resize(t.len(), 0);
                }
                let live = filter_ranks(t.iter().map(|i| rank_of[i.index()]), &mut row);
                if live.len() < min_len {
                    continue;
                }
                part.ranks.extend_from_slice(live);
                part.offsets.push(part.ranks.len() as u32);
                part.provenance.push((chunk.first_row() + tid) as u32);
                for (pairs, of_union) in part.pairs.iter_mut().zip(&side_of_union) {
                    match of_union {
                        None => pairs.add_row(live),
                        Some(of_union) => pairs.add_row(filter_ranks(
                            live.iter().map(|&u| of_union[u as usize]),
                            &mut side_row,
                        )),
                    }
                }
            }
            part
        };

        let threads = resolve_threads(threads);
        let parts: Vec<Part> = if threads <= 1 || db.len() < 4 * threads {
            db.chunks(1).into_iter().map(scan_chunk).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = db
                    .chunks(threads)
                    .into_iter()
                    .map(|chunk| {
                        let scan_chunk = &scan_chunk;
                        scope.spawn(move || scan_chunk(chunk))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            })
        };
        let mut parts = parts.into_iter();
        let mut whole = parts.next().unwrap_or_else(|| Part::new(&sizes, 0, 0));
        for next in parts {
            let base = whole.ranks.len() as u32;
            whole.ranks.extend_from_slice(&next.ranks);
            whole.offsets.extend(next.offsets[1..].iter().map(|o| o + base));
            whole.provenance.extend_from_slice(&next.provenance);
            for (acc, p) in whole.pairs.iter_mut().zip(&next.pairs) {
                acc.merge(p);
            }
        }
        whole.ranks.shrink_to_fit();
        let projection = Projection {
            item_of,
            rank_of,
            ranks: whole.ranks,
            offsets: whole.offsets,
            provenance: whole.provenance,
        };
        scan.record_trim(
            (db.len() - projection.len()) as u64,
            (db.total_items() - projection.total_items()) as u64,
        );
        (projection, whole.pairs)
    }

    /// The per-level trim, in place: keeps only the items of `batches`'
    /// candidates and only rows retaining at least `min_len` of them —
    /// what [`crate::trim::trim_db`] would rewrite into a copy — and
    /// records the pass in `scan`. Call with `min_len = k` before counting
    /// level `k`.
    pub fn retain(&mut self, batches: &[&[Itemset]], min_len: usize, scan: &mut ScanStats) {
        let mut keep = vec![false; self.item_of.len()];
        for i in batches.iter().flat_map(|b| b.iter()).flat_map(|c| c.iter()) {
            if let Some(&r) = self.rank_of.get(i.index()).filter(|&&r| r != NO_RANK) {
                keep[r as usize] = true;
            }
        }
        let mut new_rank = vec![NO_RANK; keep.len()];
        let mut kept_items = Vec::new();
        for (old, &item) in self.item_of.iter().enumerate() {
            self.rank_of[item.index()] = NO_RANK;
            if keep[old] {
                new_rank[old] = kept_items.len() as u16;
                self.rank_of[item.index()] = kept_items.len() as u16;
                kept_items.push(item);
            }
        }
        let (rows_before, items_before) = (self.len(), self.total_items());
        let min_len = min_len.max(1);
        // Rows only shrink, so the write cursor never passes the read one.
        let (mut written, mut rows, mut read) = (0usize, 0usize, 0usize);
        for row in 0..rows_before {
            let row_start = written;
            // Read the row's end before `offsets[rows]` may overwrite it.
            let row_end = self.offsets[row + 1] as usize;
            for k in std::mem::replace(&mut read, row_end)..row_end {
                let r = new_rank[self.ranks[k] as usize];
                self.ranks[written] = r;
                written += usize::from(r != NO_RANK);
            }
            if written - row_start >= min_len {
                self.provenance[rows] = self.provenance[row];
                rows += 1;
                self.offsets[rows] = written as u32;
            } else {
                written = row_start;
            }
        }
        self.ranks.truncate(written);
        self.offsets.truncate(rows + 1);
        self.provenance.truncate(rows);
        self.item_of = kept_items;
        scan.record_trim((rows_before - rows) as u64, (items_before - written) as u64);
    }

    /// The supports of every batch's candidates (each batch sorted) in the
    /// projection's rows, by AND + popcount over tid-bitmaps of the live
    /// items built from the rows as they stand.
    pub fn count(&self, batches: &[&[Itemset]]) -> Vec<Vec<u64>> {
        let index = BitmapIndex::from_rows(self.rank_of.len(), self.len(), self.rows());
        let counter = BitmapCounter::new(&index);
        batches.iter().map(|b| counter.count_sets(b)).collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when no row survived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item occurrences in the rows (the arena length).
    pub fn total_items(&self) -> usize {
        self.ranks.len()
    }

    /// The live items, ascending; a rank is a position in this list.
    pub fn items(&self) -> &[ItemId] {
        &self.item_of
    }

    /// The rows, mapped back to item ids.
    pub fn rows(&self) -> impl Iterator<Item = impl Iterator<Item = ItemId> + '_> + '_ {
        self.offsets.windows(2).map(|w| {
            self.ranks[w[0] as usize..w[1] as usize].iter().map(|&r| self.item_of[r as usize])
        })
    }

    /// For each row, its row index in the database the projection was
    /// built from.
    pub fn provenance(&self) -> &[u32] {
        &self.provenance
    }
}

/// Writes the ranks that are not [`NO_RANK`] to the front of `out` (which
/// must have room for all of them) and returns that prefix.
#[inline]
fn filter_ranks(ranks: impl Iterator<Item = u16>, out: &mut [u16]) -> &[u16] {
    let mut n = 0usize;
    for r in ranks {
        out[n] = r;
        n += usize::from(r != NO_RANK);
    }
    &out[..n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{NaiveCounter, SupportCounter};
    use crate::trim::{trim_db, LiveSet};

    fn db() -> TransactionDb {
        TransactionDb::from_u32(
            8,
            &[
                &[0, 1, 2, 3],
                &[1, 2, 3, 7],
                &[0, 2, 4],
                &[1, 5],
                &[2, 3, 4, 5],
                &[5],
                &[0, 1, 2, 3, 4, 5, 6],
            ],
        )
    }

    fn items(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    fn rows_of(p: &Projection) -> Vec<Vec<ItemId>> {
        p.rows().map(|r| r.collect()).collect()
    }

    #[test]
    fn pairs_pass_is_the_trim_plus_the_pair_supports() {
        let d = db();
        let (s, t) = (items(&[1, 2, 3]), items(&[2, 3, 4, 5]));
        for threads in [1usize, 2, 3] {
            let mut scan = ScanStats::default();
            let (p, pairs) = Projection::pairs(&d, &[&s, &t], threads, &mut scan);
            let live = LiveSet::from_items(8, s.iter().chain(&t).copied());
            let trimmed = trim_db(&d, &live, 2);
            assert_eq!(p.items(), items(&[1, 2, 3, 4, 5]));
            let want: Vec<Vec<ItemId>> = trimmed.db.iter().map(|r| r.to_vec()).collect();
            assert_eq!(rows_of(&p), want, "threads={threads}");
            assert_eq!(p.provenance(), trimmed.provenance);
            assert_eq!((p.len(), p.total_items()), (trimmed.db.len(), trimmed.db.total_items()));
            assert_eq!(scan.trim_passes, 1);
            assert_eq!(scan.trim_rows_dropped, trimmed.rows_dropped);
            assert_eq!(scan.trim_items_dropped, trimmed.items_dropped);
            for (side, counts) in [&s, &t].into_iter().zip(&pairs) {
                assert_eq!(counts.ranks(), side.len());
                for a in 0..side.len() {
                    for b in a + 1..side.len() {
                        let pair = Itemset::from_items([side[a], side[b]]);
                        assert_eq!(counts.get(a, b), d.support(&pair), "{pair} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn retain_and_count_follow_the_levels_down() {
        let d = db();
        let all = items(&[0, 1, 2, 3, 4, 5]);
        let mut scan = ScanStats::default();
        let (mut p, _) = Projection::pairs(&d, &[&all], 1, &mut scan);
        let triples: Vec<Itemset> = vec![[1u32, 2, 3].into(), [2u32, 3, 4].into()];
        let quads: Vec<Itemset> = vec![[0u32, 1, 2, 3].into()];
        p.retain(&[&triples, &quads], 3, &mut scan);
        let live = LiveSet::from_items(8, items(&[0, 1, 2, 3, 4]));
        let trimmed = trim_db(&d, &live, 3);
        assert_eq!(p.items(), items(&[0, 1, 2, 3, 4]));
        let want: Vec<Vec<ItemId>> = trimmed.db.iter().map(|r| r.to_vec()).collect();
        assert_eq!(rows_of(&p), want);
        assert_eq!(p.provenance(), trimmed.provenance);
        assert_eq!(scan.trim_passes, 2);
        assert_eq!(
            scan.trim_items_dropped,
            (d.total_items() - trimmed.db.total_items()) as u64,
            "two passes drop what one direct trim would"
        );
        let counts = p.count(&[&triples, &[], &quads]);
        assert_eq!(counts[0], NaiveCounter.count(&d, &triples));
        assert!(counts[1].is_empty());
        assert_eq!(counts[2], NaiveCounter.count(&d, &quads));
    }

    #[test]
    fn project_is_the_trim_for_a_deeper_level() {
        let d = db();
        for (live, min_len) in [(&[1u32, 2, 3, 4][..], 3), (&[0, 2, 3, 5, 6], 2), (&[], 3)] {
            for threads in [1usize, 2] {
                let mut scan = ScanStats::default();
                let p = Projection::project(&d, items(live), min_len, threads, &mut scan);
                let trimmed = trim_db(&d, &LiveSet::from_items(8, items(live)), min_len);
                let want: Vec<Vec<ItemId>> = trimmed.db.iter().map(|r| r.to_vec()).collect();
                assert_eq!(rows_of(&p), want, "{live:?} min_len={min_len} threads={threads}");
                assert_eq!(p.provenance(), trimmed.provenance);
                assert_eq!(p.items(), items(live));
                assert_eq!(scan.trim_passes, 1);
                assert_eq!(scan.trim_rows_dropped, trimmed.rows_dropped);
                assert_eq!(scan.trim_items_dropped, trimmed.items_dropped);
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        // No rows, no sides, a side of one item, an item past the
        // database's universe: nothing survives, nothing panics.
        let mut scan = ScanStats::default();
        let empty = TransactionDb::new(4, Vec::new()).unwrap();
        let (p, pairs) = Projection::pairs(&empty, &[&items(&[0, 1])], 2, &mut scan);
        assert!(p.is_empty());
        assert_eq!(pairs[0].get(0, 1), 0);
        let d = db();
        let (p, pairs) = Projection::pairs(&d, &[], 1, &mut scan);
        assert!(p.is_empty() && pairs.is_empty() && p.items().is_empty());
        let (p, pairs) = Projection::pairs(&d, &[&items(&[2]), &[]], 1, &mut scan);
        assert!(p.is_empty(), "a row needs two live items");
        assert_eq!((pairs[0].ranks(), pairs[1].ranks()), (1, 0));
        let (p, pairs) = Projection::pairs(&d, &[&items(&[2, 3, 40])], 1, &mut scan);
        assert_eq!(p.len(), 4);
        assert_eq!((pairs[0].get(0, 1), pairs[0].get(0, 2), pairs[0].get(1, 2)), (4, 0, 0));
    }

    #[test]
    fn fits_has_a_triangle_cap_and_a_rank_cap() {
        assert!(Projection::fits(&[]));
        assert!(Projection::fits(&[2896, 2896]));
        assert!(!Projection::fits(&[10, 2897]), "a triangle over 2²² cells");
        assert!(Projection::fits(&[2000; 32]));
        assert!(!Projection::fits(&[2000; 33]), "66,000 items outrun u16 ranks");
    }
}
