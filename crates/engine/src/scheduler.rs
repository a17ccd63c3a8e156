//! Multi-query admission and single-flight scheduling.
//!
//! Every query entering the engine passes through two gates:
//!
//! * **Admission** — at most `max_inflight_queries` queries execute at
//!   once; up to `max_queued_queries` more wait their turn, and anything
//!   beyond that is rejected immediately with [`CfqError::Overloaded`]
//!   so an overloaded server sheds load instead of queueing unboundedly.
//! * **Single-flight groups** — a cold lattice mining is keyed by
//!   `(epoch, universe)`. The first miss publishes a *group* at its own
//!   support and mines at once. A later miss for the same key **joins**
//!   the group instead of mining when the group's support is no higher
//!   than its own — a complete lattice at a lower threshold serves a
//!   higher-threshold member by filtering, the same weaker-envelope
//!   property the lattice cache exploits — and every member wakes with
//!   the shared result. A miss asking for less than the group mines at
//!   leads a group of its own.
//!
//! The leader inserts its lattice into the cache before it unpublishes
//! the group, so an arrival too late to join finds the entry instead; and
//! the engine's leader looks the cache up again before it mines, so a
//! miss that looked just before that insert and found the group gone
//! finds the entry too rather than mining the lattice a second time.
//! Admission is *barging*: a freed slot may be taken by a new arrival
//! before a queued waiter wakes; the queue bounds work, it does not
//! promise FIFO order.

use crate::cache::StoredLattice;
use cfq_obs as obs;
use cfq_types::{CfqError, ItemId, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A counter snapshot of the scheduler: mining passes actually executed,
/// queries served by someone else's pass, and admission-control activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Lattice mining passes executed (group-led and direct).
    pub mining_passes: u64,
    /// Queries that joined another query's in-flight mining instead of
    /// mining themselves. K identical concurrent cold queries show
    /// `mining_passes == 1, coalesced == K - 1`.
    pub coalesced: u64,
    /// Queries rejected with [`CfqError::Overloaded`] at admission.
    pub overloaded: u64,
    /// Queries admitted (fast-path or after queueing).
    pub admitted: u64,
    /// Queries executing right now.
    pub inflight: usize,
    /// Queries waiting for an execution slot right now.
    pub queued: usize,
}

#[derive(Default)]
struct Admission {
    inflight: usize,
    queued: usize,
}

/// An admitted query's slot. Dropping it frees the slot and wakes one
/// queued waiter.
pub(crate) struct AdmissionPermit<'a> {
    sched: &'a Scheduler,
    /// How long admission took (zero on the uncontended fast path).
    pub wait: Duration,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit").field("wait", &self.wait).finish()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.sched.lock_admission();
        st.inflight -= 1;
        drop(st);
        self.sched.admitted_cv.notify_one();
    }
}

/// How a cold mining request was resolved by [`Scheduler::mine_or_join`].
pub(crate) enum GroupRole {
    /// This query created the group and resolved its lattice — by its one
    /// mining pass, or from the cache (see [`Resolved::mined`]).
    Led {
        lattice: Arc<StoredLattice>,
        /// Database scans the lattice cost to mine.
        scans_cost: u64,
    },
    /// This query attached to another query's group and shared its
    /// result without scanning anything.
    Joined {
        lattice: Arc<StoredLattice>,
        /// Scans the leader spent — what this query avoided.
        scans_cost: u64,
    },
}

/// What a group's leader resolved its lattice to.
pub(crate) struct Resolved {
    pub lattice: Arc<StoredLattice>,
    /// Database scans the lattice cost to mine.
    pub scans_cost: u64,
    /// Whether the leader mined it: `false` when a group that finished
    /// between the leader's cache miss and its publishing this group had
    /// already left the lattice in the cache.
    pub mined: bool,
}

/// One single-flight group: the `(epoch, universe)` lattice its leader is
/// mining at `min_support`, fixed when the group is published.
struct Group {
    epoch: u64,
    universe: Vec<ItemId>,
    min_support: u64,
    result: Mutex<Option<(Arc<StoredLattice>, u64)>>,
    done: Condvar,
}

/// The engine's query scheduler. Lock order: the group map before any
/// group's result, never the reverse.
pub(crate) struct Scheduler {
    max_inflight: usize,
    max_queued: usize,
    admission: Mutex<Admission>,
    admitted_cv: Condvar,
    groups: Mutex<Vec<Arc<Group>>>,
    mining_passes: AtomicU64,
    coalesced: AtomicU64,
    overloaded: AtomicU64,
    admitted: AtomicU64,
}

impl Scheduler {
    /// `max_inflight` / `max_queued` of 0 mean unlimited.
    pub(crate) fn new(max_inflight: usize, max_queued: usize) -> Scheduler {
        Scheduler {
            max_inflight,
            max_queued,
            admission: Mutex::new(Admission::default()),
            admitted_cv: Condvar::new(),
            groups: Mutex::new(Vec::new()),
            mining_passes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        }
    }

    fn lock_admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes an execution slot, queueing if the engine is saturated and
    /// failing fast with [`CfqError::Overloaded`] if the queue is full
    /// too.
    pub(crate) fn admit(&self) -> Result<AdmissionPermit<'_>> {
        let start = Instant::now();
        let mut wait = Duration::ZERO;
        let mut st = self.lock_admission();
        if self.max_inflight != 0 && st.inflight >= self.max_inflight {
            if self.max_queued != 0 && st.queued >= self.max_queued {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
                return Err(CfqError::Overloaded(format!(
                    "{} queries in flight and {} queued (limits: {} in flight, {} queued)",
                    st.inflight, st.queued, self.max_inflight, self.max_queued
                )));
            }
            let mut span = obs::span(obs::Level::Debug, "scheduler.wait")
                .u64("queued_behind", st.queued as u64);
            st.queued += 1;
            while st.inflight >= self.max_inflight {
                st = self.admitted_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.queued -= 1;
            wait = start.elapsed();
            span.record_u64("wait_us", wait.as_micros() as u64);
        }
        st.inflight += 1;
        drop(st);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit { sched: self, wait })
    }

    /// Resolves a cache miss for the `(epoch, universe)` lattice at
    /// `min_support`.
    ///
    /// Joins an in-flight group for the same key whose support is no
    /// higher than this request's — its result serves this request by
    /// filtering. Otherwise, when `can_lead`, publishes a group at this
    /// request's support and runs `mine()` at once, exactly once, counting
    /// a mining pass if it reports one. Returns `None` when there is
    /// nothing to join and leading is not allowed —
    /// level-capped requests, whose truncated result could not serve
    /// other members.
    pub(crate) fn mine_or_join(
        &self,
        epoch: u64,
        universe: &[ItemId],
        min_support: u64,
        can_lead: bool,
        mine: impl FnOnce() -> Resolved,
    ) -> Option<GroupRole> {
        let mut groups = self.groups.lock().unwrap_or_else(|e| e.into_inner());
        let joined = groups
            .iter()
            .find(|g| g.epoch == epoch && g.min_support <= min_support && g.universe[..] == *universe)
            .cloned();
        if joined.is_some() {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        // Found nothing to join: publish the new group under the same lock
        // the search ran under, or two simultaneous misses both find
        // nothing and both lead.
        let led = (joined.is_none() && can_lead).then(|| {
            let g = Arc::new(Group {
                epoch,
                universe: universe.to_vec(),
                min_support,
                result: Mutex::new(None),
                done: Condvar::new(),
            });
            groups.push(Arc::clone(&g));
            g
        });
        drop(groups);

        if let Some(g) = joined {
            let mut result = g.result.lock().unwrap_or_else(|e| e.into_inner());
            let (lattice, scans_cost) = loop {
                if let Some(r) = result.clone() {
                    break r;
                }
                result = g.done.wait(result).unwrap_or_else(|e| e.into_inner());
            };
            return Some(GroupRole::Joined { lattice, scans_cost });
        }
        let g = led?;
        let Resolved { lattice, scans_cost, mined } = mine();
        if mined {
            self.mining_passes.fetch_add(1, Ordering::Relaxed);
        }
        // Unpublish before waking members: later arrivals must not join a
        // finished group.
        self.groups
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|x| !Arc::ptr_eq(x, &g));
        *g.result.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((Arc::clone(&lattice), scans_cost));
        g.done.notify_all();
        Some(GroupRole::Led { lattice, scans_cost })
    }

    /// Counts a mining pass that ran outside any group (a level-capped
    /// request with nothing to join).
    pub(crate) fn note_direct_mining(&self) {
        self.mining_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// A counter snapshot.
    pub(crate) fn stats(&self) -> SchedulerStats {
        let adm = self.lock_admission();
        SchedulerStats {
            mining_passes: self.mining_passes.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            inflight: adm.inflight,
            queued: adm.queued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Barrier};
    use std::thread;

    fn universe() -> Vec<ItemId> {
        vec![ItemId(0), ItemId(1), ItemId(2)]
    }

    /// A freshly mined (empty) lattice that cost `scans_cost` scans.
    fn fresh(scans_cost: u64) -> Resolved {
        Resolved { lattice: Arc::new(StoredLattice::default()), scans_cost, mined: true }
    }

    #[test]
    fn identical_concurrent_requests_share_one_mining() {
        const K: usize = 4;
        let sched = Arc::new(Scheduler::new(0, 0));
        let mined = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(K));
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let (s, m, b) = (Arc::clone(&sched), Arc::clone(&mined), Arc::clone(&barrier));
                thread::spawn(move || {
                    b.wait();
                    s.mine_or_join(0, &universe(), 2, true, || {
                        m.fetch_add(1, Ordering::SeqCst);
                        // Hold the group open until every peer has joined.
                        while s.stats().coalesced < (K - 1) as u64 {
                            thread::yield_now();
                        }
                        fresh(7)
                    })
                    .expect("can_lead requests always resolve")
                })
            })
            .collect();
        let roles: Vec<GroupRole> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_eq!(mined.load(Ordering::SeqCst), 1, "exactly one mining pass");
        let led = roles.iter().filter(|r| matches!(r, GroupRole::Led { .. })).count();
        assert_eq!(led, 1);
        for r in &roles {
            let (GroupRole::Led { scans_cost, .. } | GroupRole::Joined { scans_cost, .. }) = r;
            assert_eq!(*scans_cost, 7);
        }
        let st = sched.stats();
        assert_eq!((st.mining_passes, st.coalesced), (1, (K - 1) as u64));
    }

    /// A group mines at its leader's support from the moment it is
    /// published: a miss asking for less leads its own group, a miss
    /// asking for more joins.
    #[test]
    fn a_lower_support_miss_never_joins_a_higher_group() {
        let sched = Arc::new(Scheduler::new(0, 0));
        let (mining_tx, mining_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let s = Arc::clone(&sched);
        // Report the support each pass ran at through scans_cost.
        let high = thread::spawn(move || {
            s.mine_or_join(0, &universe(), 5, true, || {
                mining_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                fresh(5)
            })
        });
        mining_rx.recv().unwrap();

        let low = sched.mine_or_join(0, &universe(), 3, true, || fresh(3)).unwrap();
        assert!(matches!(low, GroupRole::Led { scans_cost: 3, .. }), "support 3 must lead");
        let s = Arc::clone(&sched);
        let higher = thread::spawn(move || {
            s.mine_or_join(0, &universe(), 7, true, || unreachable!("support 7 must join"))
        });
        while sched.stats().coalesced == 0 {
            thread::yield_now();
        }
        release_tx.send(()).unwrap();
        assert!(matches!(high.join().unwrap(), Some(GroupRole::Led { scans_cost: 5, .. })));
        assert!(matches!(higher.join().unwrap(), Some(GroupRole::Joined { scans_cost: 5, .. })));
        let st = sched.stats();
        assert_eq!((st.mining_passes, st.coalesced), (2, 1));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sched = Scheduler::new(0, 0);
        for (epoch, universe) in [(0, vec![ItemId(0)]), (0, vec![ItemId(1)]), (1, vec![ItemId(0)])]
        {
            let role = sched.mine_or_join(epoch, &universe, 2, true, || fresh(1)).unwrap();
            assert!(matches!(role, GroupRole::Led { .. }));
        }
        let st = sched.stats();
        assert_eq!((st.mining_passes, st.coalesced), (3, 0));
    }

    /// A leader that found its lattice in the cache hands it to the group
    /// without counting a mining pass.
    #[test]
    fn a_leader_served_from_the_cache_counts_no_pass() {
        let sched = Scheduler::new(0, 0);
        let role = sched
            .mine_or_join(0, &universe(), 2, true, || Resolved { mined: false, ..fresh(4) })
            .unwrap();
        assert!(matches!(role, GroupRole::Led { scans_cost: 4, .. }));
        assert_eq!(sched.stats().mining_passes, 0);
    }

    #[test]
    fn non_leaders_fall_through_when_nothing_is_in_flight() {
        let sched = Scheduler::new(0, 0);
        let role = sched.mine_or_join(0, &universe(), 2, false, || unreachable!());
        assert!(role.is_none());
        sched.note_direct_mining();
        assert_eq!(sched.stats().mining_passes, 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let permit = sched.admit().unwrap();
        assert_eq!(permit.wait, Duration::ZERO);

        // Fills the one queue slot and blocks until the permit drops.
        let s2 = Arc::clone(&sched);
        let queued = thread::spawn(move || {
            let p = s2.admit().unwrap();
            assert!(p.wait > Duration::ZERO);
        });
        while sched.stats().queued == 0 {
            thread::sleep(Duration::from_millis(5));
        }

        let err = sched.admit().unwrap_err();
        assert!(matches!(err, CfqError::Overloaded(_)), "{err}");
        assert!(err.to_string().contains("limits: 1 in flight, 1 queued"), "{err}");

        drop(permit);
        queued.join().unwrap();
        let st = sched.stats();
        assert_eq!(st.overloaded, 1);
        assert_eq!(st.admitted, 2);
        assert_eq!((st.inflight, st.queued), (0, 0));
    }

    #[test]
    fn unlimited_admission_never_blocks() {
        let sched = Scheduler::new(0, 0);
        let permits: Vec<_> = (0..64).map(|_| sched.admit().unwrap()).collect();
        assert_eq!(sched.stats().inflight, 64);
        drop(permits);
        assert_eq!(sched.stats().inflight, 0);
    }
}
