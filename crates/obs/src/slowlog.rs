//! Slow-query log: a bounded, thread-safe ring of the most recent
//! queries whose end-to-end latency crossed a threshold.
//!
//! The serve layer offers every query to [`SlowLog::maybe_record_with`],
//! which builds an entry only for one above the threshold; entries are
//! kept (newest first, bounded capacity) and rendered for the `:slowlog`
//! protocol command. Each record carries what the paper's Figs. 7–8
//! analysis needs to explain *where the time went*: the query text, the
//! plan fingerprint, per-side cache provenance, the request's stage
//! timings, and level-by-level candidate/frequent counts with per-level
//! timings.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One mined level's work inside a slow query (both sides concatenated,
/// in mining order).
#[derive(Clone, Debug)]
pub struct SlowLevel {
    /// Itemset cardinality, 1-based.
    pub level: usize,
    /// Candidates counted at this level.
    pub candidates: u64,
    /// Candidates found frequent.
    pub frequent: u64,
    /// Wall-clock microseconds spent counting this level (0 when the
    /// lattice was served from cache and no counting happened).
    pub micros: u64,
    /// What counted the level (`column`, `triangle`, `projection`, or a
    /// backend's name).
    pub counted_by: &'static str,
}

/// Where a slow query's time went, in microseconds: the engine's stage
/// clock (plan, each side's lattice, pair formation).
#[derive(Clone, Copy, Debug, Default)]
pub struct SlowStages {
    /// Snapshot, parse, bind and plan.
    pub plan: u64,
    /// The S side: lattice lookup (or mining) and filter.
    pub s_lattice: u64,
    /// The T side.
    pub t_lattice: u64,
    /// Pair formation and compaction.
    pub pairs: u64,
}

/// One slow query.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The query text as received.
    pub query: String,
    /// The plan-cache fingerprint of the bound query + strategy.
    pub fingerprint: u64,
    /// Rendered cache provenance, e.g. `[S] freshly mined (cold) [T] cache hit`.
    pub provenance: String,
    /// End-to-end latency.
    pub total: Duration,
    /// Database scans the query performed.
    pub db_scans: u64,
    /// Stage timings.
    pub stages: SlowStages,
    /// Level-by-level work, S levels then T levels.
    pub levels: Vec<SlowLevel>,
}

/// The bounded slow-query ring. `threshold` of zero records everything —
/// useful for tests and for turning the log into a full query log.
pub struct SlowLog {
    threshold: Duration,
    cap: usize,
    ring: Mutex<VecDeque<SlowQuery>>,
    /// Total queries that crossed the threshold since process start
    /// (monotonic, survives ring eviction).
    recorded: AtomicU64,
}

impl SlowLog {
    /// A log keeping the most recent `cap` queries slower than
    /// `threshold`.
    pub fn new(threshold: Duration, cap: usize) -> Self {
        SlowLog { threshold, cap: cap.max(1), ring: Mutex::new(VecDeque::new()), recorded: AtomicU64::new(0) }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Records a query that took `total` if that crossed the threshold,
    /// and returns whether it did. `entry` runs only then: a query under
    /// the threshold — nearly every one — costs a comparison, not a copy
    /// of its text.
    pub fn maybe_record_with(&self, total: Duration, entry: impl FnOnce() -> SlowQuery) -> bool {
        if total < self.threshold {
            return false;
        }
        let q = entry();
        debug_assert_eq!(q.total, total, "the entry is of the query that was timed");
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(q);
        true
    }

    /// Total recorded since start (not capped by the ring size).
    pub fn total_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
    }

    /// Renders the retained entries for the `:slowlog` command, newest
    /// first.
    pub fn render(&self) -> String {
        let entries = self.entries();
        if entries.is_empty() {
            return format!(
                "slow-query log empty (threshold {} ms, {} recorded since start)",
                self.threshold.as_millis(),
                self.total_recorded()
            );
        }
        let mut out = format!(
            "slow-query log: {} retained of {} recorded (threshold {} ms), newest first",
            entries.len(),
            self.total_recorded(),
            self.threshold.as_millis()
        );
        for q in entries.iter().rev() {
            out.push_str(&format!(
                "\n  {:>8.3}s  plan={:016x}  scans={}  {}  | {}",
                q.total.as_secs_f64(),
                q.fingerprint,
                q.db_scans,
                q.provenance,
                q.query,
            ));
            let st = q.stages;
            out.push_str(&format!(
                "\n            stages: plan {} S {} T {} pairs {} µs",
                st.plan, st.s_lattice, st.t_lattice, st.pairs,
            ));
            for l in &q.levels {
                out.push_str(&format!(
                    "\n            L{}: {} candidates, {} frequent, {:.3} ms, {}",
                    l.level,
                    l.candidates,
                    l.frequent,
                    l.micros as f64 / 1000.0,
                    l.counted_by,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str, ms: u64) -> SlowQuery {
        SlowQuery {
            query: text.to_string(),
            fingerprint: 0xabcd,
            provenance: "[S] cold [T] cached".into(),
            total: Duration::from_millis(ms),
            db_scans: 3,
            stages: SlowStages { plan: 12, s_lattice: 340_000, t_lattice: 280, pairs: 95 },
            levels: vec![SlowLevel {
                level: 1,
                candidates: 10,
                frequent: 4,
                micros: 1500,
                counted_by: "column",
            }],
        }
    }

    #[test]
    fn threshold_filters_and_ring_caps() {
        let log = SlowLog::new(Duration::from_millis(100), 2);
        let record =
            |text: &str, ms| log.maybe_record_with(Duration::from_millis(ms), || q(text, ms));
        assert!(!record("fast", 10));
        assert!(record("a", 150));
        assert!(record("b", 200));
        assert!(record("c", 300));
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "ring capped");
        assert_eq!(entries[0].query, "b", "oldest surviving");
        assert_eq!(log.total_recorded(), 3, "monotonic count survives eviction");
    }

    #[test]
    fn an_entry_is_built_only_for_a_query_over_the_threshold() {
        let log = SlowLog::new(Duration::from_millis(100), 2);
        let fast = Duration::from_millis(99);
        assert!(!log.maybe_record_with(fast, || unreachable!("under the threshold")));
        assert!(log.maybe_record_with(Duration::from_millis(100), || q("at it", 100)));
    }

    #[test]
    fn render_contains_the_anatomy() {
        let log = SlowLog::new(Duration::ZERO, 8);
        let text = "max(S.Price) <= min(T.Price)";
        log.maybe_record_with(Duration::from_millis(750), || q(text, 750));
        let text = log.render();
        assert!(text.contains("max(S.Price) <= min(T.Price)"), "{text}");
        assert!(text.contains("plan=000000000000abcd"), "{text}");
        assert!(text.contains("[S] cold [T] cached"), "{text}");
        assert!(text.contains("L1: 10 candidates, 4 frequent, 1.500 ms, column"), "{text}");
        assert!(text.contains("scans=3"), "{text}");
        assert!(text.contains("stages: plan 12 S 340000 T 280 pairs 95 µs"), "{text}");
    }

    #[test]
    fn empty_render_reports_threshold() {
        let log = SlowLog::new(Duration::from_millis(500), 8);
        let text = log.render();
        assert!(text.contains("threshold 500 ms"), "{text}");
    }
}
