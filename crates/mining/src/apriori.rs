//! Plain Apriori over a restricted item universe.

use crate::backend::CountingBackend;
use crate::candidates::generate_candidates;
use crate::frequent::FrequentSets;
use crate::stats::WorkStats;
use crate::substrate::Substrate;
use cfq_obs as obs;
use cfq_types::{ItemId, Itemset, TransactionDb};

/// Configuration of an Apriori run.
#[derive(Clone, Debug)]
pub struct AprioriConfig {
    /// Items the lattice ranges over (the variable's domain). Must be
    /// ascending. Empty means "all items of the database".
    pub universe: Vec<ItemId>,
    /// Absolute minimum support.
    pub min_support: u64,
    /// Hard level cap; 0 = unbounded.
    pub max_level: usize,
    /// Per-level database reduction: between levels, drop items outside
    /// the next level's candidates and rows left too short to matter.
    /// Support counts are unaffected (see the `trim` module).
    pub trim: bool,
    /// Worker threads for support counting (0 = all cores). The default of
    /// 1 keeps runs deterministic in work accounting and reproducible in
    /// thread-count-sensitive benchmarks.
    pub counting_threads: usize,
    /// The support-counting substrate (see [`CountingBackend`]). The
    /// default `Horizontal` keeps the classic one-scan-per-level shape.
    pub backend: CountingBackend,
}

impl AprioriConfig {
    /// All items, given threshold, no level cap, trimming on, sequential
    /// counting.
    pub fn new(min_support: u64) -> Self {
        AprioriConfig {
            universe: Vec::new(),
            min_support,
            max_level: 0,
            trim: true,
            counting_threads: 1,
            backend: CountingBackend::Horizontal,
        }
    }

    /// Restricts the universe.
    pub fn with_universe(mut self, universe: Vec<ItemId>) -> Self {
        debug_assert!(universe.windows(2).all(|w| w[0] < w[1]));
        self.universe = universe;
        self
    }

    /// Caps the level.
    pub fn with_max_level(mut self, max_level: usize) -> Self {
        self.max_level = max_level;
        self
    }

    /// Enables or disables per-level database reduction.
    pub fn with_trim(mut self, trim: bool) -> Self {
        self.trim = trim;
        self
    }

    /// Sets the counting thread count (0 = all cores).
    pub fn with_counting_threads(mut self, threads: usize) -> Self {
        self.counting_threads = threads;
        self
    }

    /// Selects the support-counting backend.
    pub fn with_backend(mut self, backend: CountingBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// Runs levelwise Apriori, recording work in `stats`.
///
/// This is the frequency backbone of both the Apriori⁺ baseline and (with
/// its pruning hooks, in `cfq-core`) the CAP algorithm.
pub fn apriori(db: &TransactionDb, cfg: &AprioriConfig, stats: &mut WorkStats) -> FrequentSets {
    let universe: Vec<ItemId> = if cfg.universe.is_empty() {
        (0..db.n_items() as u32).map(ItemId).collect()
    } else {
        cfg.universe.clone()
    };
    let mut run_span = obs::span(obs::Level::Debug, "apriori")
        .u64("universe", universe.len() as u64)
        .u64("min_support", cfg.min_support)
        .bool("trim", cfg.trim)
        .str("backend", cfg.backend.name());

    let mut result = FrequentSets::new();
    let mut sub = Substrate::new(db, cfg.backend, cfg.trim, cfg.counting_threads);
    stats.record_backend(sub.backend_name());

    // The frequent sets of the level below.
    let mut sets: Vec<Itemset> = Vec::new();
    for level in 1.. {
        if cfg.max_level != 0 && level > cfg.max_level {
            break;
        }
        let level_started = std::time::Instant::now();
        let mut level_span =
            obs::span(obs::Level::Trace, "apriori.level").u64("level", level as u64);
        let n_candidates: u64;
        let frequent: Vec<(Itemset, u64)>;
        if sub.counts_pairs(level, &[sets.len()]) {
            // Level 2 straight off L1: every pair of frequent items is a
            // candidate, counted in the triangle the projecting pass fills.
            let items: Vec<ItemId> = sets.iter().map(|s| s.as_slice()[0]).collect();
            n_candidates = (items.len() * (items.len() - 1) / 2) as u64;
            if n_candidates == 0 {
                break;
            }
            frequent = sub.count_pairs(&[&items])[0].frequent(&items, cfg.min_support);
        } else {
            let candidates = if level == 1 {
                universe.iter().map(|&i| Itemset::singleton(i)).collect()
            } else {
                generate_candidates(&sets, |_| true)
            };
            if level > 1 && candidates.is_empty() {
                break;
            }
            n_candidates = candidates.len() as u64;
            let counts = sub.count(level, &[&candidates]).remove(0);
            frequent = candidates
                .into_iter()
                .zip(counts)
                .filter(|&(_, n)| n >= cfg.min_support)
                .collect();
        }
        level_span.record_u64("candidates", n_candidates);
        level_span.record_u64("frequent", frequent.len() as u64);
        drop(level_span);
        let micros = level_started.elapsed().as_micros() as u64;
        stats.record_level_timed(level, n_candidates, frequent.len() as u64, micros);
        stats.label_level(sub.publish_level(level, micros));
        if frequent.is_empty() {
            break;
        }
        sets = frequent.iter().map(|(s, _)| s.clone()).collect();
        result.push_level(frequent);
    }
    stats.db_scans += sub.db_scans;
    stats.scan.absorb(&sub.scan);
    run_span.record_u64("db_scans", stats.db_scans);
    run_span.record_u64("frequent_total", result.total() as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TransactionDb {
        // Classic tiny example.
        TransactionDb::from_u32(
            5,
            &[
                &[0, 1, 2],
                &[0, 1, 2, 3],
                &[0, 2],
                &[1, 2, 3],
                &[0, 1, 3],
                &[2, 3, 4],
            ],
        )
    }

    /// Brute-force frequent sets for cross-checking.
    fn brute(db: &TransactionDb, universe: &[ItemId], min_support: u64) -> Vec<(Itemset, u64)> {
        let all: Itemset = universe.iter().copied().collect();
        let mut out = Vec::new();
        for sub in all.all_nonempty_subsets() {
            let sup = db.support(&sub);
            if sup >= min_support {
                out.push((sub, sup));
            }
        }
        out.sort_by(|a, b| (a.0.len(), &a.0).cmp(&(b.0.len(), &b.0)));
        out
    }

    #[test]
    fn matches_brute_force() {
        let d = db();
        for min_support in 1..=4u64 {
            let mut stats = WorkStats::new();
            let fs = apriori(&d, &AprioriConfig::new(min_support), &mut stats);
            let expected = brute(&d, &(0..5).map(ItemId).collect::<Vec<_>>(), min_support);
            let got: Vec<(Itemset, u64)> =
                fs.iter().map(|(s, n)| (s.clone(), n)).collect();
            assert_eq!(got, expected, "min_support={min_support}");
        }
    }

    #[test]
    fn respects_universe_restriction() {
        let d = db();
        let mut stats = WorkStats::new();
        let cfg = AprioriConfig::new(1).with_universe(vec![ItemId(0), ItemId(2)]);
        let fs = apriori(&d, &cfg, &mut stats);
        for (s, _) in fs.iter() {
            for i in s.iter() {
                assert!(i == ItemId(0) || i == ItemId(2));
            }
        }
        assert!(fs.contains(&[0u32, 2].into()));
        assert!(!fs.contains(&[1u32].into()));
    }

    #[test]
    fn respects_max_level() {
        let d = db();
        let mut stats = WorkStats::new();
        let cfg = AprioriConfig::new(1).with_max_level(2);
        let fs = apriori(&d, &cfg, &mut stats);
        assert_eq!(fs.n_levels(), 2);
    }

    #[test]
    fn counts_scans_per_level() {
        let d = db();
        let mut stats = WorkStats::new();
        let fs = apriori(&d, &AprioriConfig::new(2), &mut stats);
        // One scan per counted level below level 1, which is a column
        // read — under every knob setting.
        assert_eq!(stats.db_scans as usize, stats.levels.len() - 1);
        assert_eq!(stats.levels[0].counted_by, "column");
        assert!(fs.total() > 0);
        for cfg in [
            AprioriConfig::new(2).with_trim(false),
            AprioriConfig::new(2).with_counting_threads(2),
        ] {
            let mut knob = WorkStats::new();
            apriori(&d, &cfg, &mut knob);
            assert_eq!(knob.db_scans, stats.db_scans);
            assert_eq!(knob.scan.extents[0].level, 2);
            assert_eq!(knob.levels[0].counted_by, "column");
        }
        // A run that stops at level 1 reads no row at all.
        let mut stats = WorkStats::new();
        let fs = apriori(&d, &AprioriConfig::new(2).with_max_level(1), &mut stats);
        assert_eq!(fs.total(), 4);
        assert_eq!((stats.db_scans, stats.scan.items_scanned), (0, 0));
    }

    #[test]
    fn trim_on_off_identical_results() {
        let d = db();
        for min_support in 1..=4u64 {
            let mut s_on = WorkStats::new();
            let mut s_off = WorkStats::new();
            let on = apriori(&d, &AprioriConfig::new(min_support), &mut s_on);
            let off = apriori(
                &d,
                &AprioriConfig::new(min_support).with_trim(false),
                &mut s_off,
            );
            let a: Vec<(Itemset, u64)> = on.iter().map(|(s, n)| (s.clone(), n)).collect();
            let b: Vec<(Itemset, u64)> = off.iter().map(|(s, n)| (s.clone(), n)).collect();
            assert_eq!(a, b, "min_support={min_support}");
            // ccc accounting is untouched by trimming…
            assert_eq!(s_on.support_counted, s_off.support_counted);
            assert_eq!(s_on.db_scans, s_off.db_scans);
            // …but scan volume shrinks (or at worst matches).
            assert!(s_on.scan.items_scanned <= s_off.scan.items_scanned);
        }
    }

    #[test]
    fn trim_records_scan_extents() {
        let d = db();
        let mut stats = WorkStats::new();
        apriori(&d, &AprioriConfig::new(2), &mut stats);
        assert_eq!(stats.scan.extents.len(), stats.db_scans as usize);
        // The first rows a run reads are its level-2 working database:
        // every scan follows a trim pass.
        assert_eq!(stats.scan.extents[0].level, 2);
        assert!(stats.scan.extents[0].items <= d.total_items() as u64);
        assert_eq!(stats.scan.trim_passes, stats.db_scans);
        // Level extents never grow back.
        assert!(stats
            .scan
            .extents
            .windows(2)
            .all(|w| w[1].items <= w[0].items));
    }

    #[test]
    fn parallel_counting_identical_results() {
        let d = db();
        let mut s1 = WorkStats::new();
        let mut s2 = WorkStats::new();
        let seq = apriori(&d, &AprioriConfig::new(1), &mut s1);
        let par = apriori(
            &d,
            &AprioriConfig::new(1).with_counting_threads(0),
            &mut s2,
        );
        let a: Vec<(Itemset, u64)> = seq.iter().map(|(s, n)| (s.clone(), n)).collect();
        let b: Vec<(Itemset, u64)> = par.iter().map(|(s, n)| (s.clone(), n)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn all_backends_identical_lattices() {
        let d = db();
        for min_support in 1..=4u64 {
            let mut reference: Option<Vec<(Itemset, u64)>> = None;
            for b in CountingBackend::all() {
                let mut stats = WorkStats::new();
                let fs =
                    apriori(&d, &AprioriConfig::new(min_support).with_backend(b), &mut stats);
                let got: Vec<(Itemset, u64)> = fs.iter().map(|(s, n)| (s.clone(), n)).collect();
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(r, &got, "{b} min_support={min_support}"),
                }
            }
        }
    }

    #[test]
    fn vertical_backends_scan_once() {
        let d = db();
        for b in [CountingBackend::Tidset, CountingBackend::Bitmap] {
            let mut stats = WorkStats::new();
            let fs = apriori(&d, &AprioriConfig::new(1).with_backend(b), &mut stats);
            assert!(fs.total() > 0);
            // The index inversion pass is the run's only database read.
            assert_eq!(stats.db_scans, 1, "{b}");
            assert_eq!(stats.scan.extents.len(), 1, "{b}");
        }
    }

    #[test]
    fn empty_result_when_threshold_exceeds_db() {
        let d = db();
        let mut stats = WorkStats::new();
        let fs = apriori(&d, &AprioriConfig::new(100), &mut stats);
        assert_eq!(fs.total(), 0);
        assert_eq!(fs.n_levels(), 0);
    }
}
