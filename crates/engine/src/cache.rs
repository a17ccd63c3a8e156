//! The engine's cross-query caches.
//!
//! Two caches live behind the [`crate::Engine`] state lock:
//!
//! * `LatticeCache` — mined frequent-set lattices, keyed by the
//!   *effective universe* they were mined over (the query universe after
//!   the succinct allowed-item filter), their absolute support threshold,
//!   and the database epoch. Only **complete** lattices are stored: mined
//!   unbounded, with no validity pruning beyond the universe restriction.
//!   Completeness is what makes an entry reusable — any query whose
//!   effective universe is a subset and whose threshold is no lower can
//!   carve its answer out of the entry by filtering, and it is what keeps
//!   the family downward-closed so FUP can upgrade it in place at an
//!   epoch swap. Eviction is least-recently-used under a byte budget
//!   measured with [`FrequentSets::approx_bytes`].
//! * `PlanCache` — optimizer plans keyed by a fingerprint of the bound
//!   query and strategy flags. Plans never read the data, so entries
//!   survive epoch swaps; the cache is count-capped, not byte-budgeted.
//!
//! Neither cache is itself thread-safe; the engine serializes access
//! through its state mutex and keeps mining *outside* that lock.

use cfq_core::{CfqPlan, LatticeSource};
use cfq_mining::FrequentSets;
use cfq_obs as obs;
use cfq_types::{CfqError, FxHashMap, ItemId, Result};
use std::sync::Arc;

/// Point-in-time snapshot of the engine's cache counters, returned by
/// `Engine::cache_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries whose lattice was served from the cache.
    pub lattice_hits: u64,
    /// Queries that had to mine a lattice.
    pub lattice_misses: u64,
    /// Database scans avoided by lattice hits (the sum of the mining cost
    /// of every entry at each hit).
    pub scans_saved: u64,
    /// Plans served from the plan cache.
    pub plan_hits: u64,
    /// Plans built fresh.
    pub plan_misses: u64,
    /// Lattice entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Lattices too large for the whole budget, rejected at insertion.
    pub oversize_rejections: u64,
    /// Freshly mined lattices dropped because the epoch moved underneath
    /// the mining (an `append` landed mid-query).
    pub stale_drops: u64,
    /// Live lattice entries.
    pub entries: usize,
    /// Bytes currently held by lattice entries.
    pub bytes_used: usize,
    /// The configured lattice byte budget.
    pub budget_bytes: usize,
}

/// One cached lattice: the complete frequent-set family of `universe` in
/// the epoch's database at threshold `min_support`.
pub(crate) struct LatticeEntry {
    /// Epoch of the database the supports are exact for.
    pub epoch: u64,
    /// The ascending effective universe the lattice was mined over.
    pub universe: Arc<Vec<ItemId>>,
    /// Absolute support threshold the family is complete down to.
    pub min_support: u64,
    /// The mined family.
    pub lattice: Arc<FrequentSets>,
    /// How this entry was produced (cold mining or FUP upgrade).
    pub source: LatticeSource,
    /// Budget charge, from [`FrequentSets::approx_bytes`].
    pub bytes: usize,
    /// Database scans the original mining cost — credited to
    /// `scans_saved` on every hit.
    pub scans_cost: u64,
    /// LRU clock stamp of the last hit (or the insertion).
    pub last_used: u64,
}

/// What a successful lattice lookup hands back to the engine.
pub(crate) struct CacheHit {
    pub lattice: Arc<FrequentSets>,
    pub source: LatticeSource,
    pub scans_cost: u64,
}

/// The byte-budgeted LRU cache of complete lattices.
pub(crate) struct LatticeCache {
    entries: Vec<LatticeEntry>,
    budget: usize,
    bytes_used: usize,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
    pub scans_saved: u64,
    pub evictions: u64,
    pub oversize_rejections: u64,
    pub stale_drops: u64,
}

/// Two-pointer subset test over ascending item lists.
fn is_superset(sup: &[ItemId], sub: &[ItemId]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut i = 0;
    for x in sub {
        while i < sup.len() && sup[i] < *x {
            i += 1;
        }
        if i == sup.len() || sup[i] != *x {
            return false;
        }
        i += 1;
    }
    true
}

impl LatticeCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget: usize) -> Self {
        LatticeCache {
            entries: Vec::new(),
            budget,
            bytes_used: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            scans_saved: 0,
            evictions: 0,
            oversize_rejections: 0,
            stale_drops: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Index of the best entry serving `(universe, min_support)` at
    /// `epoch`: any same-epoch entry mined over a superset universe at a
    /// threshold no higher than requested. Prefers the smallest superset
    /// (least filtering), tie-broken toward the closest threshold.
    fn find(&self, epoch: u64, universe: &[ItemId], min_support: u64) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.epoch == epoch
                    && e.min_support <= min_support
                    && is_superset(&e.universe, universe)
            })
            .min_by_key(|(_, e)| (e.universe.len(), u64::MAX - e.min_support))
            .map(|(i, _)| i)
    }

    /// Looks up a lattice, recording the hit or miss and bumping LRU.
    pub fn lookup(&mut self, epoch: u64, universe: &[ItemId], min_support: u64) -> Option<CacheHit> {
        match self.find(epoch, universe, min_support) {
            Some(i) => {
                let stamp = self.tick();
                let e = &mut self.entries[i];
                e.last_used = stamp;
                self.hits += 1;
                self.scans_saved += e.scans_cost;
                Some(CacheHit {
                    lattice: Arc::clone(&e.lattice),
                    source: e.source,
                    scans_cost: e.scans_cost,
                })
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Like [`LatticeCache::lookup`] but without touching any counter or
    /// LRU state — used by `explain` to predict provenance.
    pub fn peek(&self, epoch: u64, universe: &[ItemId], min_support: u64) -> Option<LatticeSource> {
        self.find(epoch, universe, min_support).map(|i| self.entries[i].source)
    }

    /// Inserts an entry, evicting least-recently-used entries until the
    /// budget holds. An entry larger than the entire budget is rejected
    /// with [`CfqError::CacheBudget`]; the query it came from already
    /// succeeded, the lattice is just not retained.
    pub fn insert(&mut self, mut entry: LatticeEntry) -> Result<()> {
        if entry.bytes > self.budget {
            self.oversize_rejections += 1;
            obs::event(
                obs::Level::Warn,
                "cache.oversize_reject",
                &[
                    ("bytes", obs::FieldValue::U64(entry.bytes as u64)),
                    ("budget", obs::FieldValue::U64(self.budget as u64)),
                ],
            );
            return Err(CfqError::CacheBudget(format!(
                "lattice of {} bytes exceeds the cache budget of {} bytes",
                entry.bytes, self.budget
            )));
        }
        // Replace an entry for the same key outright.
        if let Some(i) = self.entries.iter().position(|e| {
            e.epoch == entry.epoch
                && e.min_support == entry.min_support
                && *e.universe == *entry.universe
        }) {
            let old = self.entries.swap_remove(i);
            self.bytes_used -= old.bytes;
        }
        while self.bytes_used + entry.bytes > self.budget {
            self.evict_lru();
        }
        entry.last_used = self.tick();
        self.bytes_used += entry.bytes;
        self.entries.push(entry);
        Ok(())
    }

    fn evict_lru(&mut self) {
        let i = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
            .expect("evict_lru called on a non-empty cache");
        let old = self.entries.swap_remove(i);
        self.bytes_used -= old.bytes;
        self.evictions += 1;
        obs::event(
            obs::Level::Debug,
            "cache.evict",
            &[
                ("bytes", obs::FieldValue::U64(old.bytes as u64)),
                ("universe", obs::FieldValue::U64(old.universe.len() as u64)),
                ("min_support", obs::FieldValue::U64(old.min_support)),
            ],
        );
    }

    /// Clones out every entry of `epoch` for FUP upgrading outside the
    /// engine's state lock.
    pub fn snapshot_epoch(&self, epoch: u64) -> Vec<LatticeEntry> {
        self.entries
            .iter()
            .filter(|e| e.epoch == epoch)
            .map(|e| LatticeEntry {
                epoch: e.epoch,
                universe: Arc::clone(&e.universe),
                min_support: e.min_support,
                lattice: Arc::clone(&e.lattice),
                source: e.source,
                bytes: e.bytes,
                scans_cost: e.scans_cost,
                last_used: e.last_used,
            })
            .collect()
    }

    /// Replaces the whole population with FUP-upgraded entries at the new
    /// epoch (stale-epoch entries are discarded wholesale), re-enforcing
    /// the budget.
    pub fn replace_all(&mut self, entries: Vec<LatticeEntry>) {
        self.entries = entries;
        self.bytes_used = self.entries.iter().map(|e| e.bytes).sum();
        while self.bytes_used > self.budget {
            self.evict_lru();
        }
    }

    /// Credits scans avoided outside a lookup — a query that coalesced
    /// onto an in-flight mining saved the leader's scan cost without ever
    /// hitting an entry.
    pub fn credit_saved(&mut self, scans: u64) {
        self.scans_saved += scans;
    }

    /// Records a cold mining result dropped because its epoch is stale.
    pub fn record_stale_drop(&mut self) {
        self.stale_drops += 1;
        obs::event(obs::Level::Debug, "cache.stale_drop", &[]);
    }

    /// Live lattice entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

/// A count-capped LRU cache of optimizer plans. Plans depend only on the
/// bound query, catalog and strategy flags — never on the data — so
/// entries stay valid across epoch swaps.
pub(crate) struct PlanCache {
    entries: FxHashMap<u64, (Arc<CfqPlan>, u64)>,
    cap: usize,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
}

impl PlanCache {
    /// An empty cache holding at most `cap` plans.
    pub fn new(cap: usize) -> Self {
        PlanCache { entries: FxHashMap::default(), cap, clock: 0, hits: 0, misses: 0 }
    }

    /// Fetches the plan for `fingerprint`, recording hit/miss.
    pub fn get(&mut self, fingerprint: u64) -> Option<Arc<CfqPlan>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&fingerprint) {
            Some((plan, stamp)) => {
                *stamp = clock;
                self.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a plan, evicting the least recently used entry at capacity.
    /// A zero capacity disables the cache entirely.
    pub fn insert(&mut self, fingerprint: u64, plan: Arc<CfqPlan>) {
        if self.cap == 0 {
            return;
        }
        if self.entries.len() >= self.cap && !self.entries.contains_key(&fingerprint) {
            if let Some(&lru) =
                self.entries.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k)
            {
                self.entries.remove(&lru);
            }
        }
        self.clock += 1;
        self.entries.insert(fingerprint, (plan, self.clock));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n_singletons: u32) -> Arc<FrequentSets> {
        let mut fs = FrequentSets::new();
        fs.push_level(
            (0..n_singletons).map(|i| (cfq_types::Itemset::singleton(ItemId(i)), 2)).collect(),
        );
        Arc::new(fs)
    }

    fn entry(epoch: u64, universe: Vec<u32>, min_support: u64) -> LatticeEntry {
        let lattice = lattice(universe.len() as u32);
        let bytes = lattice.approx_bytes();
        LatticeEntry {
            epoch,
            universe: Arc::new(universe.into_iter().map(ItemId).collect()),
            min_support,
            lattice,
            source: LatticeSource::MinedCold,
            bytes,
            scans_cost: 3,
            last_used: 0,
        }
    }

    #[test]
    fn superset_walk() {
        let u: Vec<ItemId> = [1u32, 3, 5, 7].into_iter().map(ItemId).collect();
        assert!(is_superset(&u, &[ItemId(3), ItemId(7)]));
        assert!(is_superset(&u, &u));
        assert!(is_superset(&u, &[]));
        assert!(!is_superset(&u, &[ItemId(2)]));
        assert!(!is_superset(&[ItemId(1)], &[ItemId(1), ItemId(2)]));
    }

    #[test]
    fn lookup_honors_epoch_support_and_universe() {
        let mut c = LatticeCache::new(1 << 20);
        c.insert(entry(0, vec![1, 2, 3, 4], 2)).unwrap();
        // Subset universe at an equal-or-higher threshold hits.
        let ids: Vec<ItemId> = vec![ItemId(2), ItemId(4)];
        assert!(c.lookup(0, &ids, 2).is_some());
        assert!(c.lookup(0, &ids, 5).is_some());
        // Lower threshold than mined, wrong epoch, or wider universe miss.
        assert!(c.lookup(0, &ids, 1).is_none());
        assert!(c.lookup(1, &ids, 2).is_none());
        let wide: Vec<ItemId> = vec![ItemId(2), ItemId(9)];
        assert!(c.lookup(0, &wide, 2).is_none());
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 3);
        assert_eq!(c.scans_saved, 6);
    }

    #[test]
    fn prefers_the_tightest_entry() {
        let mut c = LatticeCache::new(1 << 20);
        c.insert(entry(0, vec![1, 2, 3, 4, 5, 6], 1)).unwrap();
        c.insert(entry(0, vec![1, 2, 3], 2)).unwrap();
        let hit_universe: Vec<ItemId> = vec![ItemId(1), ItemId(2)];
        let hit = c.lookup(0, &hit_universe, 2).unwrap();
        // The 3-item entry is the smaller superset: 3 singletons, not 6.
        assert_eq!(hit.lattice.total(), 3);
    }

    #[test]
    fn lru_eviction_under_budget() {
        let one = entry(0, vec![1, 2, 3], 2);
        let budget = one.bytes * 2 + one.bytes / 2; // fits two, not three
        let mut c = LatticeCache::new(budget);
        c.insert(entry(0, vec![1, 2, 3], 2)).unwrap();
        c.insert(entry(0, vec![4, 5, 6], 2)).unwrap();
        // Touch the first so the second becomes LRU.
        assert!(c.lookup(0, &[ItemId(1)], 2).is_some());
        c.insert(entry(0, vec![7, 8, 9], 2)).unwrap();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.entries(), 2);
        assert!(c.lookup(0, &[ItemId(1)], 2).is_some(), "recently used survives");
        assert!(c.lookup(0, &[ItemId(4)], 2).is_none(), "LRU evicted");
        assert!(c.lookup(0, &[ItemId(7)], 2).is_some());
    }

    #[test]
    fn oversize_entry_is_a_typed_error() {
        let mut c = LatticeCache::new(8);
        let err = c.insert(entry(0, vec![1, 2, 3], 2)).unwrap_err();
        assert!(matches!(err, CfqError::CacheBudget(_)), "{err}");
        assert_eq!(c.oversize_rejections, 1);
        assert_eq!(c.entries(), 0);
    }

    #[test]
    fn peek_does_not_mutate_counters() {
        let mut c = LatticeCache::new(1 << 20);
        c.insert(entry(0, vec![1, 2], 2)).unwrap();
        assert_eq!(c.peek(0, &[ItemId(1)], 2), Some(LatticeSource::MinedCold));
        assert_eq!(c.peek(1, &[ItemId(1)], 2), None);
        assert_eq!(c.hits + c.misses, 0);
    }

    #[test]
    fn plan_cache_caps_and_bumps() {
        let plan = |q: &str| {
            let mut b = cfq_types::CatalogBuilder::new(3);
            b.num_attr("Price", vec![10.0, 20.0, 30.0]).unwrap();
            let catalog = b.build();
            let bound = cfq_constraints::bind_query(
                &cfq_constraints::parse_query(q).unwrap(),
                &catalog,
            )
            .unwrap();
            Arc::new(cfq_core::plan(&bound, &catalog))
        };
        let mut c = PlanCache::new(2);
        c.insert(1, plan("max(S.Price) <= 10"));
        c.insert(2, plan("max(S.Price) <= 20"));
        assert!(c.get(1).is_some());
        c.insert(3, plan("max(S.Price) <= 30")); // evicts key 2 (LRU)
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 1);
        // Zero capacity disables insertion.
        let mut off = PlanCache::new(0);
        off.insert(1, plan("max(S.Price) <= 10"));
        assert!(off.get(1).is_none());
    }
}
