//! A request's universe sizes nothing on the query path: an id past the
//! catalog occurs in no row and is dropped before any table is built, so
//! what a query allocates is bounded by the catalog, whatever ids a client
//! names. One test, in a binary of its own: the allocator below keeps the
//! high-water mark of this process's live bytes, and a second test running
//! beside it would be counted too.

use cfq_core::Optimizer;
use cfq_datagen::{generate_transactions, QuestConfig};
use cfq_engine::Engine;
use cfq_types::{CatalogBuilder, ItemId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, with the live byte count and its high-water mark.
/// It refuses any single request over [`REFUSED`], so a table sized by a
/// client's id aborts the test instead of exhausting the host's memory.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
const REFUSED: usize = 1 << 30;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract, or refused with a null pointer, which the
// contract allows; the counters are statistics beside it. `realloc` keeps
// its default (`alloc` + copy + `dealloc`), so growth is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSED {
            return std::ptr::null_mut();
        }
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System.alloc`
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn ids(v: &[u32]) -> Vec<ItemId> {
    v.iter().map(|&i| ItemId(i)).collect()
}

#[test]
fn hostile_universes_allocate_by_the_catalog_and_answer_as_if_dropped() {
    let n_items = 200;
    let quest = QuestConfig { n_transactions: 2000, n_items, n_patterns: 60, ..Default::default() };
    let db = generate_transactions(&quest).unwrap();
    let mut b = CatalogBuilder::new(n_items);
    b.num_attr("Price", (0..n_items).map(|i| (i * 5) as f64).collect()).unwrap();
    let engine = Engine::new(db, b.build()).unwrap();
    let session = engine.session();
    let top = u32::MAX;
    // (S universe, T universe, what the catalog keeps of them: `None` when
    // it keeps nothing — an empty domain, not every item).
    let descending = |ids: std::ops::Range<u32>| ids.rev().collect::<Vec<_>>();
    let hostile = [
        // Ids up to u32::MAX, duplicated, in descending order.
        ([vec![top, top - 1], descending(0..100), vec![7, 7]].concat(),
         [vec![top, top, 1 << 31], descending(100..200), vec![150, 150]].concat(),
         Some(())),
        // Every id past the catalog.
        (vec![top, 200, 1 << 20], vec![top - 7, 4000], None),
    ];
    let in_catalog = |v: &[u32]| ids(v).into_iter().filter(|i| i.0 < 200).collect::<Vec<_>>();
    for (case, (s, t, kept)) in hostile.into_iter().enumerate() {
        for strategy in ["full", "cap1", "apriori+"] {
            for bypass in [true, false] {
                let query = session
                    .query("max(S.Price) <= min(T.Price)")
                    .min_support(20)
                    .max_pairs(0)
                    .strategy(Optimizer::from_name(strategy).unwrap());
                let query = if bypass { query.bypass_cache() } else { query };
                let req = query.clone().s_universe(ids(&s)).t_universe(ids(&t)).request().clone();
                let tag = format!("case {case}, {strategy}, bypass={bypass}");

                let base = LIVE.load(Ordering::Relaxed);
                PEAK.store(base, Ordering::Relaxed);
                let got = session.execute(&req).unwrap().outcome;
                let peak = PEAK.load(Ordering::Relaxed) - base;
                // Lattices over 200 items, their pairs counted and not
                // kept: well under a MiB. One table sized by u32::MAX would
                // be 4 GiB or more.
                assert!(peak < 1 << 20, "{tag}: {peak} bytes live at the peak");

                if kept.is_none() {
                    assert!(got.s_sets.is_empty() && got.t_sets.is_empty(), "{tag}");
                    continue;
                }
                let dropped = query.s_universe(in_catalog(&s)).t_universe(in_catalog(&t));
                let want = dropped.run().unwrap().outcome;
                assert!(want.pair_result.count > 0, "{tag}");
                assert_eq!(got.s_sets, want.s_sets, "{tag}");
                assert_eq!(got.t_sets, want.t_sets, "{tag}");
                assert_eq!(got.pair_result.count, want.pair_result.count, "{tag}");
            }
        }
    }
}
