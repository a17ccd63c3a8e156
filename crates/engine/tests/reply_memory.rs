//! Encoding a reply allocates by its set lists, never by its pairs. One
//! test, in a binary of its own: the allocator below counts every byte
//! this process asks for, and a second test running beside it would be
//! counted too.

use cfq_core::PairResult;
use cfq_engine::{wire, Engine};
use cfq_types::{Catalog, Itemset, TransactionDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
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

/// Bytes requested while `out` is encoded into a sink that keeps nothing.
fn bytes_to_encode(out: &cfq_engine::QueryOutcome) -> usize {
    let before = REQUESTED.load(Ordering::Relaxed);
    wire::write_query_reply(&mut io::sink(), out).unwrap();
    REQUESTED.load(Ordering::Relaxed) - before
}

#[test]
fn a_150k_pair_reply_allocates_a_text_per_set_and_nothing_per_pair() {
    let db = TransactionDb::from_u32(3, &[&[0, 1], &[0, 1, 2], &[1, 2]]);
    let engine = Engine::new(db, Catalog::empty(3)).unwrap();
    let mut out = engine.session().query("count(S) >= 1").min_support(2).run().unwrap();
    let (n_s, n_t) = (1_200usize, 1_100usize);
    let sets = |n: usize| -> Vec<(Itemset, u64)> {
        (0..n as u32).map(|i| ([i, i + 7, u32::MAX].into_iter().collect(), u64::from(i))).collect()
    };
    out.outcome.s_sets = sets(n_s);
    out.outcome.t_sets = sets(n_t);
    let pairs: Vec<(u32, u32)> =
        (0..150_000u32).map(|i| (i % n_s as u32, (i / 7) % n_t as u32)).collect();
    out.outcome.pair_result = PairResult {
        count: pairs.len() as u64,
        pairs,
        truncated: false,
        checks: 0,
        s_used: Vec::new(),
        t_used: Vec::new(),
    };

    // 16 bytes of pre-rendered index text per set, on both sides; the
    // pairs themselves (1.6 MB of reply) and the block cost nothing.
    let mut reply = Vec::new();
    wire::write_query_reply(&mut reply, &out).unwrap();
    assert!(reply.len() > 1_600_000, "{} bytes", reply.len());
    let requested = bytes_to_encode(&out);
    assert!(requested <= 16 * (n_s + n_t), "{requested} bytes requested for {n_s} + {n_t} sets");

    // With no pair materialised there is no table to build.
    out.outcome.pair_result.pairs = Vec::new();
    out.outcome.pair_result.truncated = true;
    assert_eq!(bytes_to_encode(&out), 0);
}
