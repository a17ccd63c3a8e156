//! The engine's cross-query caches.
//!
//! Two caches live behind the [`crate::Engine`] state lock:
//!
//! * `LatticeCache` — mined frequent-set lattices, keyed by the universe
//!   they were mined over (a side's *effective universe*: its domain after
//!   the succinct allowed-item filter and the Figs. 2–3 narrowing), their
//!   absolute support threshold, and the database epoch. Only **complete**
//!   lattices are stored: mined unbounded, with no validity pruning beyond
//!   the universe restriction. Completeness is what makes an entry
//!   reusable — a lookup probes with the items of its effective universe
//!   frequent at its threshold, and any entry over a superset of them at a
//!   threshold no higher holds every set the query can use, which it
//!   carves out by filtering — and it is what keeps the family
//!   downward-closed so FUP can upgrade it in place at an epoch swap,
//!   counting in any item of the universe the append makes frequent. A
//!   lookup scans the entries, ruling most out by a sketch of their
//!   universe (`Sketch`) before walking it. An entry holds levels ≥ 2 only
//!   ([`StoredLattice`]): its level 1 is the epoch's item-support column.
//!   Eviction is least-recently-used under a byte budget that charges each
//!   entry its stored levels and its key (`LatticeEntry::new`).
//! * `PlanCache` — optimizer plans keyed by a fingerprint of the bound
//!   query. Plans never read the data, so entries survive epoch swaps;
//!   the cache is count-capped, not byte-budgeted.
//!
//! Neither cache is itself thread-safe; the engine serializes access
//! through its state mutex and keeps mining *outside* that lock.

use cfq_core::{CfqPlan, LatticeSource};
use cfq_mining::FrequentSets;
use cfq_obs as obs;
use cfq_types::{CfqError, FxHashMap, ItemId, Itemset, Result, TransactionDb};
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

/// A lattice as the cache holds it: the levels ≥ 2 of the family mined
/// over some universe at some threshold in some epoch's database.
///
/// Level 1 is not stored. It is by definition `{i ∈ universe : supp(i) ≥
/// min_support}`, and every `TransactionDb` carries `supp(i)` as its
/// item-support column, so it costs one array read an item to recover —
/// exactly, for the entry's epoch or for any universe and threshold the
/// entry serves. Readers visit level 1 off the column and levels ≥ 2
/// through [`StoredLattice::level`]; [`StoredLattice::complete`] rebuilds
/// the whole family where one is needed (FUP).
#[derive(Clone, Default)]
pub struct StoredLattice {
    /// The family with its level 1 emptied; never handed out whole.
    upper: FrequentSets,
}

impl StoredLattice {
    /// The stored form of `family`, the sets mined over some universe at
    /// some threshold: its level 1 is dropped.
    pub fn new(mut family: FrequentSets) -> StoredLattice {
        family.take_level(1);
        StoredLattice { upper: family }
    }

    /// Levels stored, counting the dropped level 1 (the size of the
    /// largest frequent set, when it has at least two items).
    pub fn n_levels(&self) -> usize {
        self.upper.n_levels()
    }

    /// The frequent k-sets with supports, for `k ≥ 2`. Level 1 is the
    /// column's ([`TransactionDb::item_support`]).
    pub fn level(&self, k: usize) -> &[(Itemset, u64)] {
        debug_assert!(k >= 2, "level 1 of a stored lattice is the item-support column");
        self.upper.level(k)
    }

    /// The complete family: level 1 read off `db`'s column over
    /// `universe` at `min_support` — the entry's own key and epoch — then
    /// the stored levels.
    pub fn complete(&self, db: &TransactionDb, universe: &[ItemId], min_support: u64) -> FrequentSets {
        let mut full = FrequentSets::new();
        full.push_level(
            universe
                .iter()
                .map(|&i| (Itemset::singleton(i), db.item_support(i)))
                .filter(|&(_, n)| n >= min_support)
                .collect(),
        );
        for k in 2..=self.n_levels() {
            full.push_level(self.level(k).to_vec());
        }
        full
    }

    /// The stored levels as a family whose level 1 is empty, for the
    /// snapshot writer, which writes levels ≥ 2 only.
    pub(crate) fn upper_levels(&self) -> &FrequentSets {
        &self.upper
    }

    /// Approximate heap footprint of the stored levels
    /// ([`FrequentSets::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.upper.approx_bytes()
    }
}

/// A 256-bit sketch of an ascending item list: bit `i mod 256` for each
/// item `i`. A superset's sketch covers its subset's, so a sketch that does
/// not cover rules a universe out in four word tests, before any walk.
#[derive(Clone, Copy)]
pub(crate) struct Sketch([u64; 4]);

impl Sketch {
    fn of(items: &[ItemId]) -> Sketch {
        let mut words = [0u64; 4];
        for item in items {
            let bit = item.index() % 256;
            words[bit / 64] |= 1 << (bit % 64);
        }
        Sketch(words)
    }

    fn covers(&self, sub: &Sketch) -> bool {
        self.0.iter().zip(&sub.0).all(|(sup, sub)| sub & !sup == 0)
    }
}

/// One cached lattice: the complete frequent-set family of `universe` in
/// the epoch's database at threshold `min_support`, stored without its
/// level 1.
pub(crate) struct LatticeEntry {
    /// Epoch of the database the supports are exact for.
    pub epoch: u64,
    /// The ascending effective universe the lattice was mined over.
    pub universe: Arc<Vec<ItemId>>,
    /// `universe`'s sketch, the first test of every lookup.
    pub sketch: Sketch,
    /// Absolute support threshold the family is complete down to.
    pub min_support: u64,
    /// The mined family, levels ≥ 2.
    pub lattice: Arc<StoredLattice>,
    /// How this entry was produced (cold mining or FUP upgrade).
    pub source: LatticeSource,
    /// Budget charge: the stored levels plus the key's items.
    pub bytes: usize,
    /// Database scans the original mining cost — credited to
    /// `scans_saved` on every hit.
    pub scans_cost: u64,
    /// LRU clock stamp of the last hit (or the insertion).
    pub last_used: u64,
}

impl LatticeEntry {
    /// An entry, charged what it holds: the stored levels and the
    /// universe it is keyed by.
    pub fn new(
        epoch: u64,
        universe: Arc<Vec<ItemId>>,
        min_support: u64,
        lattice: Arc<StoredLattice>,
        source: LatticeSource,
        scans_cost: u64,
    ) -> LatticeEntry {
        let bytes = lattice.approx_bytes() + std::mem::size_of_val(universe.as_slice());
        let sketch = Sketch::of(&universe);
        LatticeEntry {
            epoch,
            universe,
            sketch,
            min_support,
            lattice,
            source,
            bytes,
            scans_cost,
            last_used: 0,
        }
    }
}

/// What a successful lattice lookup hands back to the engine.
pub(crate) struct CacheHit {
    pub lattice: Arc<StoredLattice>,
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
pub(crate) fn is_superset(sup: &[ItemId], sub: &[ItemId]) -> bool {
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
        let sketch = Sketch::of(universe);
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.epoch == epoch
                    && e.min_support <= min_support
                    && e.sketch.covers(&sketch)
                    && is_superset(&e.universe, universe)
            })
            .min_by_key(|(_, e)| (e.universe.len(), u64::MAX - e.min_support))
            .map(|(i, _)| i)
    }

    /// Looks up a lattice, recording the hit or miss and bumping LRU.
    pub fn lookup(&mut self, epoch: u64, universe: &[ItemId], min_support: u64) -> Option<CacheHit> {
        let hit = self.find(epoch, universe, min_support).map(|i| self.hit(i));
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// Repeats a [`LatticeCache::lookup`] that missed: a hit here replaces
    /// that recorded miss, so the query still counts once.
    pub fn relookup(&mut self, epoch: u64, universe: &[ItemId], min_support: u64) -> Option<CacheHit> {
        let hit = self.find(epoch, universe, min_support).map(|i| self.hit(i))?;
        self.misses -= 1;
        Some(hit)
    }

    fn hit(&mut self, i: usize) -> CacheHit {
        let stamp = self.tick();
        let e = &mut self.entries[i];
        e.last_used = stamp;
        self.hits += 1;
        self.scans_saved += e.scans_cost;
        CacheHit { lattice: Arc::clone(&e.lattice), source: e.source, scans_cost: e.scans_cost }
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
                sketch: e.sketch,
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
/// bound query and catalog — never on the strategy flags or the data — so
/// one entry serves every strategy and stays valid across epoch swaps.
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

    /// The family of a universe whose consecutive items pair up: its
    /// singletons and `universe.len() - 1` pairs, all at support 2.
    fn lattice(universe: &[u32]) -> Arc<StoredLattice> {
        let mut fs = FrequentSets::new();
        fs.push_level(universe.iter().map(|&i| ([i].into(), 2)).collect());
        fs.push_level(universe.windows(2).map(|w| (w.iter().copied().collect(), 2)).collect());
        Arc::new(StoredLattice::new(fs))
    }

    fn entry(epoch: u64, universe: Vec<u32>, min_support: u64) -> LatticeEntry {
        LatticeEntry::new(
            epoch,
            Arc::new(universe.iter().map(|&i| ItemId(i)).collect()),
            min_support,
            lattice(&universe),
            LatticeSource::MinedCold,
            3,
        )
    }

    #[test]
    fn superset_walk() {
        let u: Vec<ItemId> = [1u32, 3, 5, 7].into_iter().map(ItemId).collect();
        assert!(is_superset(&u, &[ItemId(3), ItemId(7)]));
        assert!(is_superset(&u, &u));
        assert!(is_superset(&u, &[]));
        assert!(!is_superset(&u, &[ItemId(2)]));
        assert!(!is_superset(&[ItemId(1)], &[ItemId(1), ItemId(2)]));
        // A superset's sketch covers; items 2 and 258 share a bit, so a
        // covering sketch proves nothing and the walk decides.
        let sketch = Sketch::of(&u);
        assert!(sketch.covers(&Sketch::of(&[ItemId(3), ItemId(7)])));
        assert!(!sketch.covers(&Sketch::of(&[ItemId(2)])));
        let aliased = Sketch::of(&[ItemId(2), ItemId(5)]);
        assert!(aliased.covers(&Sketch::of(&[ItemId(258)])));
        assert!(!is_superset(&[ItemId(2), ItemId(5)], &[ItemId(258)]));
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

        // A repeated lookup that now hits turns its miss into a hit; one
        // that misses again records nothing.
        assert!(c.relookup(1, &ids, 2).is_none());
        c.insert(entry(1, vec![2, 4], 2)).unwrap();
        assert!(c.relookup(1, &ids, 2).is_some());
        assert_eq!((c.hits, c.misses), (3, 2));
    }

    /// The engine searches by a universe's frequent items and inserts
    /// under the whole universe: an entry covering the probe serves even
    /// where the universe it stands for reaches past the entry.
    #[test]
    fn a_covered_probe_hits_where_its_universe_would_miss() {
        let mut c = LatticeCache::new(1 << 20);
        c.insert(entry(0, vec![1, 2, 3, 4], 2)).unwrap();
        let eff: Vec<ItemId> = [2u32, 3, 9].into_iter().map(ItemId).collect();
        let probe = &eff[..2]; // item 9 is infrequent
        assert!(c.lookup(0, &eff, 2).is_none());
        assert!(c.lookup(0, probe, 2).is_some());
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    /// An entry keyed by its whole universe keeps an item that is
    /// infrequent when mined: once an append makes it frequent, the FUP
    /// upgrade counts it in, and the new probe — which now holds it — is
    /// still served, with the sets the item joined.
    #[test]
    fn an_upgraded_entry_serves_an_item_the_append_made_frequent() {
        let db = TransactionDb::from_u32(4, &[&[0, 1, 3], &[0, 1, 2], &[0, 1], &[1, 2]]);
        let delta = TransactionDb::from_u32(4, &[&[0, 3], &[0, 3], &[1, 3]]);
        let universe: Vec<ItemId> = (0..4u32).map(ItemId).collect();
        let cfg = cfq_mining::AprioriConfig::new(3).with_universe(universe.clone());
        let mut stats = cfq_mining::WorkStats::new();
        let mined = cfq_mining::apriori(&db, &cfg, &mut stats);
        let mut c = LatticeCache::new(1 << 20);
        let universe = Arc::new(universe);
        let stored = Arc::new(StoredLattice::new(mined));
        c.insert(LatticeEntry::new(0, Arc::clone(&universe), 3, stored, LatticeSource::MinedCold, 1))
            .unwrap();

        let combined = db.concat(&delta).unwrap();
        let probe = |db: &TransactionDb| -> Vec<ItemId> {
            universe.iter().copied().filter(|&i| db.item_support(i) >= 3).collect()
        };
        assert_eq!(probe(&db), [ItemId(0), ItemId(1)], "item 3 is infrequent at epoch 0");
        let upgraded = c
            .snapshot_epoch(0)
            .into_iter()
            .map(|e| {
                let full = e.lattice.complete(&db, &e.universe, e.min_support);
                let out = cfq_mining::fup_update_abs(
                    &full, &db, &delta, &e.universe, 3, 3, &mut stats,
                )
                .unwrap();
                let lattice = Arc::new(StoredLattice::new(out.frequent));
                LatticeEntry::new(1, e.universe, 3, lattice, LatticeSource::FupUpgraded, 1)
            })
            .collect();
        c.replace_all(upgraded);

        let new_probe = probe(&combined);
        assert_eq!(new_probe, [ItemId(0), ItemId(1), ItemId(3)]);
        let hit = c.lookup(1, &new_probe, 3).expect("the upgraded entry covers item 3");
        assert_eq!(hit.source, LatticeSource::FupUpgraded);
        let pair: Itemset = [0u32, 3].into();
        assert!(hit.lattice.level(2).iter().any(|(s, n)| *s == pair && *n == 3));
    }

    #[test]
    fn prefers_the_tightest_entry() {
        let mut c = LatticeCache::new(1 << 20);
        c.insert(entry(0, vec![1, 2, 3, 4, 5, 6], 1)).unwrap();
        c.insert(entry(0, vec![1, 2, 3], 2)).unwrap();
        let hit_universe: Vec<ItemId> = vec![ItemId(1), ItemId(2)];
        let hit = c.lookup(0, &hit_universe, 2).unwrap();
        // The 3-item entry is the smaller superset: 2 pairs, not 5.
        assert_eq!(hit.lattice.level(2).len(), 2);
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
    fn the_budget_charges_stored_levels_and_key() {
        let mut c = LatticeCache::new(1 << 20);
        let entries = [entry(0, vec![1, 2, 3], 2), entry(0, vec![1, 2, 3, 4, 5, 6], 2)];
        let want: usize =
            entries.iter().map(|e| e.lattice.approx_bytes() + 4 * e.universe.len()).sum();
        for e in entries {
            c.insert(e).unwrap();
        }
        assert_eq!(c.bytes_used(), want);
    }

    #[test]
    fn a_stored_lattice_is_complete_with_the_column() {
        let db = TransactionDb::from_u32(5, &[&[0, 1, 2], &[0, 1, 3], &[1, 2], &[0, 1, 2, 4]]);
        let universe: Vec<ItemId> = [0u32, 1, 2, 4].into_iter().map(ItemId).collect();
        let cfg = cfq_mining::AprioriConfig::new(2).with_universe(universe.clone());
        let mined = cfq_mining::apriori(&db, &cfg, &mut cfq_mining::WorkStats::new());
        let stored = StoredLattice::new(mined.clone());
        // Level 1 is gone from the stored form and costs nothing there.
        assert!(stored.approx_bytes() < mined.approx_bytes());
        assert_eq!(stored.n_levels(), mined.n_levels());
        let full = stored.complete(&db, &universe, 2);
        let sets = |f: &FrequentSets| f.iter().map(|(s, n)| (s.clone(), n)).collect::<Vec<_>>();
        assert_eq!(sets(&full), sets(&mined));
        assert_eq!(full.level(1).len(), 3, "item 4 (support 1) is below the threshold");
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
