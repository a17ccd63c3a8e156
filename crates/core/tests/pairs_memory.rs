//! Pair formation allocates by its inputs and its answer, never by the
//! cross product. One test, in a binary of its own: the allocator below
//! counts every byte this process asks for, and a second test running
//! beside it would be counted too.

use cfq_constraints::{bind_query, parse_query};
use cfq_core::form_pairs;
use cfq_types::{CatalogBuilder, ItemId, Itemset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, with a running total of bytes requested.
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic beside it. `realloc`
// keeps its default (`alloc` + copy + `dealloc`), so growth is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System.alloc`
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_count_only_run_with_no_valid_pair_allocates_nothing_like_the_cross_product() {
    // 20,000 S-sets that each cost more than every one of 20,000 T-sets:
    // 4·10⁸ candidate pairs, none valid under `max(S.Price) <= min(T.Price)`.
    let n = 20_000u32;
    let mut b = CatalogBuilder::new(2 * n as usize);
    b.num_attr("Price", (0..2 * n).map(f64::from).collect()).unwrap();
    let catalog = b.build();
    let query = parse_query("max(S.Price) <= min(T.Price)").unwrap();
    let two_var = bind_query(&query, &catalog).unwrap().two_var;
    let single = |i: u32| (Itemset::singleton(ItemId(i)), 1);
    let s_sets: Vec<_> = (n..2 * n).map(single).collect();
    let t_sets: Vec<_> = (0..n).map(single).collect();

    let before = REQUESTED.load(Ordering::Relaxed);
    let result = form_pairs(&s_sets, &t_sets, &two_var, &catalog, Some(0));
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    assert_eq!((result.count, result.pairs.capacity()), (0, 0));
    assert_eq!(result.checks, 400_000_000);
    assert!(result.s_used.iter().chain(&result.t_used).all(|&used| !used));
    // The sorted T values, the S values and two flags a set: about 1.5 MB,
    // growth included. One bit a candidate pair would be 50 MB.
    assert!(requested < 4 << 20, "{requested} bytes requested for 2 × 20,000 sets");
}
