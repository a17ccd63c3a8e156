//! Incremental maintenance of frequent sets under insertions — the FUP
//! algorithm family (Cheung, Han, Ng & Wong, ICDE 1996; the paper's
//! citation \[6\]).
//!
//! Given the frequent sets of an old database (with their exact supports)
//! and an *increment* of new transactions, FUP recomputes the frequent sets
//! of the combined database while scanning the old database as little as
//! possible:
//!
//! * Old frequent sets only need their increment supports added — one pass
//!   over the (small) increment; "losers" fall below the new threshold.
//! * A set that was *not* frequent before can only become frequent if its
//!   increment support alone covers the threshold growth
//!   (`Δsup ≥ s_new − s_old + 1`, since its old support was ≤ `s_old − 1`);
//!   only these survivors are re-counted against the old database.
//!
//! Level 1 passes over neither database: the supports of singletons in
//! the increment and in the old database are read off their item-support
//! columns ([`TransactionDb::item_supports`]).
//!
//! Thresholds are relative (a support fraction), as in the FUP setting —
//! absolute thresholds would not grow with the database.

use crate::candidates::generate_candidates;
use crate::counter::{singleton_supports, SupportCounter, TrieCounter};
use crate::frequent::FrequentSets;
use crate::stats::WorkStats;
use cfq_types::{CfqError, FxHashMap, ItemId, Itemset, Result, TransactionDb};

/// Result of an incremental update.
pub struct UpdateOutcome {
    /// The frequent sets of `old ∪ delta` at the new absolute threshold.
    pub frequent: FrequentSets,
    /// The new absolute threshold `ceil(frac × (|D| + |d|))`.
    pub min_support: u64,
    /// Candidate sets that had to be re-counted against the old database
    /// (FUP's cost driver — small when the increment resembles the past).
    pub old_db_recounts: u64,
}

/// Applies the FUP update. `old` must hold the frequent sets of `old_db`
/// at threshold `ceil(support_frac × |old_db|)` with exact supports.
///
/// `stats.db_scans` counts **old-database** scans only (the expensive
/// resource FUP minimizes; level 1 reads a column and makes none);
/// increment passes are recorded per level in `stats.levels`.
pub fn fup_update(
    old: &FrequentSets,
    old_db: &TransactionDb,
    delta: &TransactionDb,
    support_frac: f64,
    stats: &mut WorkStats,
) -> Result<UpdateOutcome> {
    if old_db.n_items() != delta.n_items() {
        return Err(CfqError::Config(format!(
            "increment universe ({}) differs from the old database's ({})",
            delta.n_items(),
            old_db.n_items()
        )));
    }
    if !(0.0..=1.0).contains(&support_frac) {
        return Err(CfqError::Config("support_frac must be in [0, 1]".into()));
    }
    let s_old = ((support_frac * old_db.len() as f64).ceil() as u64).max(1);
    let total = old_db.len() + delta.len();
    let s_new = ((support_frac * total as f64).ceil() as u64).max(1);
    fup_update_abs(old, old_db, delta, &[], s_old, s_new, stats)
}

/// FUP update with **absolute** thresholds and an optional item-universe
/// restriction — the form a long-lived engine needs to upgrade cached
/// lattices in place on `append`.
///
/// `old` must hold exactly the frequent sets of `old_db` at absolute
/// threshold `s_old`, restricted to subsets of `universe` (pass an empty
/// slice for the full universe); supports must be exact. `s_new` is the
/// threshold for the combined database and may not be below `s_old` —
/// lowering the threshold would require sets FUP never counted. With a
/// fixed absolute threshold (`s_new == s_old`, the engine's cache-upgrade
/// setting) the newcomer floor degenerates to 1: any set the increment
/// touches is a potential newcomer, which is still far cheaper than a full
/// re-mine because candidates stay Apriori-generated from the maintained
/// levels.
pub fn fup_update_abs(
    old: &FrequentSets,
    old_db: &TransactionDb,
    delta: &TransactionDb,
    universe: &[ItemId],
    s_old: u64,
    s_new: u64,
    stats: &mut WorkStats,
) -> Result<UpdateOutcome> {
    if old_db.n_items() != delta.n_items() {
        return Err(CfqError::Config(format!(
            "increment universe ({}) differs from the old database's ({})",
            delta.n_items(),
            old_db.n_items()
        )));
    }
    if s_old == 0 {
        return Err(CfqError::Config("s_old must be at least 1".into()));
    }
    if s_new < s_old {
        return Err(CfqError::Config(format!(
            "FUP cannot lower the threshold: s_new {s_new} < s_old {s_old} \
             (sets below the old threshold were never counted)"
        )));
    }
    // A set not frequent before (old support ≤ s_old − 1) must make up the
    // difference inside the increment.
    let newcomer_floor = s_new.saturating_sub(s_old - 1);

    let mut result = FrequentSets::new();
    let mut old_db_recounts = 0u64;
    let mut level = 0usize;
    let mut prev_frequent: Vec<(Itemset, u64)> = Vec::new();

    loop {
        level += 1;
        // Candidate pool for this level: the old frequent k-sets (exact old
        // supports known) plus the Apriori join of the *new* (k−1)-level.
        let mut olds: Vec<(Itemset, u64)> = old.level(level).to_vec();
        let old_index: FxHashMap<&Itemset, u64> =
            olds.iter().map(|(s, n)| (s, *n)).collect();

        let newcomers: Vec<Itemset> = if level == 1 {
            let known: std::collections::BTreeSet<&Itemset> =
                olds.iter().map(|(s, _)| s).collect();
            let singletons: Vec<Itemset> = if universe.is_empty() {
                (0..old_db.n_items() as u32)
                    .map(|i| Itemset::singleton(ItemId(i)))
                    .collect()
            } else {
                universe.iter().map(|&i| Itemset::singleton(i)).collect()
            };
            singletons.into_iter().filter(|s| !known.contains(s)).collect()
        } else {
            let prev_sets: Vec<Itemset> =
                prev_frequent.iter().map(|(s, _)| s.clone()).collect();
            generate_candidates(&prev_sets, |_| true)
                .into_iter()
                .filter(|c| !old_index.contains_key(c))
                .collect()
        };

        if olds.is_empty() && newcomers.is_empty() {
            break;
        }

        // One pass over the increment for everything at this level — or,
        // for singletons, none over either database.
        let count = |db: &TransactionDb, sets: &[Itemset]| {
            if level == 1 {
                singleton_supports(db, sets)
            } else {
                TrieCounter.count(db, sets)
            }
        };
        let old_sets: Vec<Itemset> = olds.iter().map(|(s, _)| s.clone()).collect();
        let delta_old = count(delta, &old_sets);
        let delta_new = count(delta, &newcomers);
        stats.record_level(
            level,
            (old_sets.len() + newcomers.len()) as u64,
            0, // frequent recorded below once known
        );

        let mut frequent: Vec<(Itemset, u64)> = Vec::new();
        for ((s, old_sup), d) in olds.drain(..).zip(delta_old) {
            let sup = old_sup + d;
            if sup >= s_new {
                frequent.push((s, sup));
            }
        }

        // Newcomers: filter by the increment floor, then re-count the
        // survivors against the old database (the only old-DB touch).
        let survivors: Vec<(Itemset, u64)> = newcomers
            .into_iter()
            .zip(delta_new)
            .filter(|&(_, d)| d >= newcomer_floor)
            .collect();
        if !survivors.is_empty() {
            old_db_recounts += survivors.len() as u64;
            let sets: Vec<Itemset> = survivors.iter().map(|(s, _)| s.clone()).collect();
            let old_counts = count(old_db, &sets);
            if level > 1 {
                stats.record_scan();
            }
            for ((s, d), old_sup) in survivors.into_iter().zip(old_counts) {
                let sup = old_sup + d;
                if sup >= s_new {
                    frequent.push((s, sup));
                }
            }
        }

        if let Some(last) = stats.levels.last_mut() {
            last.frequent = frequent.len() as u64;
        }
        if frequent.is_empty() {
            break;
        }
        frequent.sort_by(|a, b| a.0.cmp(&b.0));
        result.push_level(frequent.clone());
        prev_frequent = frequent;
    }

    Ok(UpdateOutcome { frequent: result, min_support: s_new, old_db_recounts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori, AprioriConfig};

    fn combine(a: &TransactionDb, b: &TransactionDb) -> TransactionDb {
        let mut rows: Vec<Vec<ItemId>> = a.iter().map(|t| t.to_vec()).collect();
        rows.extend(b.iter().map(|t| t.to_vec()));
        TransactionDb::new(a.n_items(), rows).unwrap()
    }

    fn mine(db: &TransactionDb, frac: f64) -> FrequentSets {
        let s = ((frac * db.len() as f64).ceil() as u64).max(1);
        let mut stats = WorkStats::new();
        apriori(db, &AprioriConfig::new(s), &mut stats)
    }

    fn collect(fs: &FrequentSets) -> Vec<(Itemset, u64)> {
        fs.iter().map(|(s, n)| (s.clone(), n)).collect()
    }

    #[test]
    fn matches_full_remine_on_fixed_case() {
        let old_db = TransactionDb::from_u32(
            5,
            &[&[0, 1, 2], &[1, 2, 3], &[0, 2, 4], &[1, 2], &[2, 3, 4], &[0, 1, 2]],
        );
        let delta = TransactionDb::from_u32(5, &[&[3, 4], &[0, 3, 4], &[3, 4]]);
        for frac in [0.2f64, 0.3, 0.5] {
            let old = mine(&old_db, frac);
            let mut stats = WorkStats::new();
            let got = fup_update(&old, &old_db, &delta, frac, &mut stats).unwrap();
            let expected = mine(&combine(&old_db, &delta), frac);
            assert_eq!(collect(&got.frequent), collect(&expected), "frac={frac}");
        }
    }

    #[test]
    fn newcomers_are_found() {
        // Items 3,4 infrequent before; the increment makes {3,4} frequent.
        let old_db = TransactionDb::from_u32(
            5,
            &[&[0, 1], &[0, 1], &[0, 1], &[0, 1], &[3, 4]],
        );
        let delta = TransactionDb::from_u32(5, &[&[3, 4], &[3, 4], &[3, 4]]);
        let frac = 0.4;
        let old = mine(&old_db, frac);
        assert!(!old.contains(&[3u32, 4].into()));
        let mut stats = WorkStats::new();
        let got = fup_update(&old, &old_db, &delta, frac, &mut stats).unwrap();
        assert!(got.frequent.contains(&[3u32, 4].into()));
        assert!(got.old_db_recounts > 0, "newcomers require an old-db recount");
    }

    #[test]
    fn losers_are_dropped() {
        // {0,1} frequent before; a large unrelated increment pushes the
        // threshold up and {0,1} out.
        let old_db = TransactionDb::from_u32(4, &[&[0, 1], &[0, 1], &[2, 3], &[2, 3], &[2, 3]]);
        let delta =
            TransactionDb::from_u32(4, &[&[2, 3], &[2, 3], &[2, 3], &[2, 3], &[2, 3]]);
        let frac = 0.4;
        let old = mine(&old_db, frac);
        assert!(old.contains(&[0u32, 1].into()));
        let mut stats = WorkStats::new();
        let got = fup_update(&old, &old_db, &delta, frac, &mut stats).unwrap();
        assert!(!got.frequent.contains(&[0u32, 1].into()));
        assert!(got.frequent.contains(&[2u32, 3].into()));
    }

    #[test]
    fn empty_delta_is_identity_when_threshold_stable() {
        let old_db = TransactionDb::from_u32(4, &[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 1, 2]]);
        let delta = TransactionDb::new(4, Vec::new()).unwrap();
        let frac = 0.5;
        let old = mine(&old_db, frac);
        let mut stats = WorkStats::new();
        let got = fup_update(&old, &old_db, &delta, frac, &mut stats).unwrap();
        assert_eq!(collect(&got.frequent), collect(&old));
        assert_eq!(stats.db_scans, 0, "no old-db rescan needed");
    }

    #[test]
    fn randomized_agreement_with_remine() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(808);
        for trial in 0..20 {
            let n_items = rng.gen_range(4..9);
            let mk = |rng: &mut StdRng, n_tx: usize| {
                let txs: Vec<Vec<ItemId>> = (0..n_tx)
                    .map(|_| {
                        (0..rng.gen_range(1..=n_items))
                            .map(|_| ItemId(rng.gen_range(0..n_items as u32)))
                            .collect()
                    })
                    .collect();
                TransactionDb::new(n_items, txs).unwrap()
            };
            let n_old = rng.gen_range(4..25);
            let n_delta = rng.gen_range(1..15);
            let old_db = mk(&mut rng, n_old);
            let delta = mk(&mut rng, n_delta);
            let frac = rng.gen_range(0.1..0.6);
            let old = mine(&old_db, frac);
            let mut stats = WorkStats::new();
            let got = fup_update(&old, &old_db, &delta, frac, &mut stats).unwrap();
            let expected = mine(&combine(&old_db, &delta), frac);
            assert_eq!(
                collect(&got.frequent),
                collect(&expected),
                "trial {trial} frac={frac}"
            );
        }
    }

    #[test]
    fn abs_fixed_threshold_with_universe_matches_remine() {
        // The engine's cache-upgrade setting: absolute threshold held fixed
        // across the append, lattice restricted to an item universe.
        let old_db = TransactionDb::from_u32(
            6,
            &[&[0, 1, 2], &[1, 2, 3], &[0, 2, 4], &[1, 2, 5], &[2, 3, 4], &[0, 1, 2]],
        );
        let delta = TransactionDb::from_u32(6, &[&[3, 4, 5], &[0, 3, 4], &[1, 3, 4]]);
        let universe = vec![ItemId(1), ItemId(2), ItemId(3), ItemId(4)];
        for s in [1u64, 2, 3] {
            let mut stats = WorkStats::new();
            let old = apriori(
                &old_db,
                &AprioriConfig::new(s).with_universe(universe.clone()),
                &mut stats,
            );
            let mut up_stats = WorkStats::new();
            let got =
                fup_update_abs(&old, &old_db, &delta, &universe, s, s, &mut up_stats).unwrap();
            let mut re_stats = WorkStats::new();
            let expected = apriori(
                &combine(&old_db, &delta),
                &AprioriConfig::new(s).with_universe(universe.clone()),
                &mut re_stats,
            );
            assert_eq!(collect(&got.frequent), collect(&expected), "s={s}");
            assert_eq!(got.min_support, s);
            // Nothing outside the universe sneaks in.
            for (set, _) in got.frequent.iter() {
                assert!(set.iter().all(|i| universe.contains(&i)), "s={s}: {set}");
            }
        }
    }

    #[test]
    fn validation_errors() {
        let a = TransactionDb::from_u32(3, &[&[0]]);
        let b = TransactionDb::from_u32(4, &[&[0]]);
        let old = mine(&a, 0.5);
        let mut stats = WorkStats::new();
        assert!(fup_update(&old, &a, &b, 0.5, &mut stats).is_err());
        assert!(fup_update(&old, &a, &a, 1.5, &mut stats).is_err());
        // Absolute form: the threshold may not decrease, and s_old ≥ 1.
        assert!(fup_update_abs(&old, &a, &a, &[], 2, 1, &mut stats).is_err());
        assert!(fup_update_abs(&old, &a, &a, &[], 0, 1, &mut stats).is_err());
    }
}
