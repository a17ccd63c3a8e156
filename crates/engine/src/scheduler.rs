//! Multi-query admission and single-flight batch scheduling.
//!
//! Every query entering the engine passes through two gates:
//!
//! * **Admission** — at most `max_inflight_queries` queries execute at
//!   once; up to `max_queued_queries` more wait their turn, and anything
//!   beyond that is rejected immediately with [`CfqError::Overloaded`]
//!   so an overloaded server sheds load instead of queueing unboundedly.
//! * **Single-flight groups** — a cold lattice mining is keyed by
//!   `(epoch, universe)`. The first miss creates a *group* and waits a
//!   short batch window; identical or compatible misses arriving in the
//!   meantime **join** the group instead of mining. The group leader
//!   mines once at the *minimum* support any member requested — a
//!   complete lattice at a lower threshold serves every higher-threshold
//!   member by filtering, the same weaker-envelope property the lattice
//!   cache exploits — and every member wakes with the shared result.
//!
//! Joining a group whose mining has already started (support frozen) is
//! still allowed when the frozen threshold is low enough to serve the
//! request. Admission is *barging*: a freed slot may be taken by a new
//! arrival before a queued waiter wakes; the queue bounds work, it does
//! not promise FIFO order.

use cfq_mining::FrequentSets;
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
    /// Joiners whose requested support differed from the group's — the
    /// group was a genuine batch, mined once at the minimum.
    pub batched: u64,
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
    /// This query created the group, waited out the batch window, and ran
    /// the one mining pass.
    Led {
        lattice: Arc<FrequentSets>,
        /// Database scans the pass performed.
        scans_cost: u64,
    },
    /// This query attached to another query's group and shared its
    /// result without scanning anything.
    Joined {
        lattice: Arc<FrequentSets>,
        /// Scans the leader spent — what this query avoided.
        scans_cost: u64,
    },
}

/// One single-flight group: every member needs the `(epoch, universe)`
/// lattice; the leader mines it once at the lowest requested support.
struct Group {
    epoch: u64,
    universe: Vec<ItemId>,
    state: Mutex<GroupState>,
    /// Signalled to the leader whenever a member joins.
    #[cfg(test)]
    joined: Condvar,
    done: Condvar,
}

struct GroupState {
    /// The support the group will mine at. Joiners may lower it while
    /// the group is still collecting.
    min_support: u64,
    /// Queries attached to the group, its leader included.
    #[cfg(test)]
    members: usize,
    /// Once true the support is frozen: the leader is mining.
    mining: bool,
    result: Option<(Arc<FrequentSets>, u64)>,
}

/// When a group's leader stops collecting members and mines.
enum BatchWindow {
    /// After this long (zero: at once).
    Timed(Duration),
    /// Once the group has this many members. What tests of sharing close
    /// the window with: that one pass serves every member must not depend
    /// on how promptly the host schedules the members' threads.
    #[cfg(test)]
    Members(usize),
}

/// The engine's query scheduler. Lock order: the group map before any
/// group's state, never the reverse.
pub(crate) struct Scheduler {
    max_inflight: usize,
    max_queued: usize,
    batch_window: BatchWindow,
    admission: Mutex<Admission>,
    admitted_cv: Condvar,
    groups: Mutex<Vec<Arc<Group>>>,
    mining_passes: AtomicU64,
    coalesced: AtomicU64,
    batched: AtomicU64,
    overloaded: AtomicU64,
    admitted: AtomicU64,
}

impl Scheduler {
    /// `max_inflight` / `max_queued` of 0 mean unlimited; a zero
    /// `batch_window` disables batching but keeps single-flight (joiners
    /// can still catch a mining in progress).
    pub(crate) fn new(max_inflight: usize, max_queued: usize, batch_window: Duration) -> Scheduler {
        Scheduler {
            max_inflight,
            max_queued,
            batch_window: BatchWindow::Timed(batch_window),
            admission: Mutex::new(Admission::default()),
            admitted_cv: Condvar::new(),
            groups: Mutex::new(Vec::new()),
            mining_passes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        }
    }

    /// An unlimited scheduler whose groups mine as soon as they have
    /// `members` members, however long that takes.
    #[cfg(test)]
    pub(crate) fn closing_groups_at(members: usize) -> Scheduler {
        Scheduler {
            batch_window: BatchWindow::Members(members),
            ..Scheduler::new(0, 0, Duration::ZERO)
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
    /// Joins a compatible in-flight group when one exists (collecting at
    /// any support, or already mining at a support low enough to serve
    /// this request). Otherwise, when `can_lead`, creates a group, waits
    /// out the batch window so compatible misses can pile on, and runs
    /// `mine(support)` exactly once at the group's final (minimum)
    /// support. Returns `None` when there is nothing to join and leading
    /// is not allowed — level-capped requests, whose truncated result
    /// could not serve other members.
    pub(crate) fn mine_or_join(
        &self,
        epoch: u64,
        universe: &[ItemId],
        min_support: u64,
        can_lead: bool,
        mine: impl FnOnce(u64) -> (Arc<FrequentSets>, u64),
    ) -> Option<GroupRole> {
        let mut groups = self.groups.lock().unwrap_or_else(|e| e.into_inner());
        let mut joined = None;
        for g in groups.iter() {
            if g.epoch != epoch || g.universe[..] != *universe {
                continue;
            }
            let mut st = g.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.mining && st.min_support > min_support {
                // Frozen too high: its result cannot serve this request.
                continue;
            }
            if st.min_support != min_support {
                self.batched.fetch_add(1, Ordering::Relaxed);
            }
            if !st.mining && min_support < st.min_support {
                st.min_support = min_support;
            }
            #[cfg(test)]
            {
                st.members += 1;
                g.joined.notify_one();
            }
            drop(st);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            joined = Some(Arc::clone(g));
            break;
        }
        // Found nothing to join: publish the new group under the same lock
        // the search ran under, or two simultaneous misses both find
        // nothing and both lead.
        let led = (joined.is_none() && can_lead).then(|| {
            let g = Arc::new(Group {
                epoch,
                universe: universe.to_vec(),
                state: Mutex::new(GroupState {
                    min_support,
                    #[cfg(test)]
                    members: 1,
                    mining: false,
                    result: None,
                }),
                #[cfg(test)]
                joined: Condvar::new(),
                done: Condvar::new(),
            });
            groups.push(Arc::clone(&g));
            g
        });
        drop(groups);

        if let Some(g) = joined {
            let mut st = g.state.lock().unwrap_or_else(|e| e.into_inner());
            let (lattice, scans_cost) = loop {
                if let Some(r) = st.result.clone() {
                    break r;
                }
                st = g.done.wait(st).unwrap_or_else(|e| e.into_inner());
            };
            return Some(GroupRole::Joined { lattice, scans_cost });
        }
        let g = led?;

        let mut st = match self.batch_window {
            BatchWindow::Timed(window) => {
                if !window.is_zero() {
                    std::thread::sleep(window);
                }
                g.state.lock().unwrap_or_else(|e| e.into_inner())
            }
            #[cfg(test)]
            BatchWindow::Members(members) => {
                let mut st = g.state.lock().unwrap_or_else(|e| e.into_inner());
                while st.members < members {
                    st = g.joined.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                st
            }
        };
        st.mining = true;
        let support = st.min_support;
        drop(st);
        let (lattice, scans_cost) = mine(support);
        self.mining_passes.fetch_add(1, Ordering::Relaxed);
        // Unpublish before waking members: later arrivals must not join a
        // finished group.
        self.groups
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|x| !Arc::ptr_eq(x, &g));
        let mut st = g.state.lock().unwrap_or_else(|e| e.into_inner());
        st.result = Some((Arc::clone(&lattice), scans_cost));
        drop(st);
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
            batched: self.batched.load(Ordering::Relaxed),
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
    use std::sync::Barrier;
    use std::thread;

    fn universe() -> Vec<ItemId> {
        vec![ItemId(0), ItemId(1), ItemId(2)]
    }

    #[test]
    fn identical_concurrent_requests_share_one_mining() {
        const K: usize = 4;
        let sched = Arc::new(Scheduler::closing_groups_at(K));
        let mined = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(K));
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let (s, m, b) = (Arc::clone(&sched), Arc::clone(&mined), Arc::clone(&barrier));
                thread::spawn(move || {
                    b.wait();
                    s.mine_or_join(0, &universe(), 2, true, |support| {
                        assert_eq!(support, 2);
                        m.fetch_add(1, Ordering::SeqCst);
                        (Arc::new(FrequentSets::new()), 7)
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
        assert_eq!(st.mining_passes, 1);
        assert_eq!(st.coalesced, (K - 1) as u64);
        assert_eq!(st.batched, 0, "same support everywhere: coalesced, not batched");
    }

    #[test]
    fn joiner_lowers_the_group_support_before_freeze() {
        let sched = Arc::new(Scheduler::closing_groups_at(2));
        let s2 = Arc::clone(&sched);
        let leader = thread::spawn(move || {
            // Report the support actually mined at through scans_cost.
            s2.mine_or_join(0, &universe(), 5, true, |support| {
                (Arc::new(FrequentSets::new()), support)
            })
        });
        // The second request joins only once the first has published its
        // group, which then waits for exactly this member.
        while sched.groups.lock().unwrap().is_empty() {
            thread::yield_now();
        }
        let joined = sched
            .mine_or_join(0, &universe(), 3, true, |_| unreachable!("joiner must not mine"))
            .unwrap();
        match joined {
            GroupRole::Joined { scans_cost, .. } => {
                assert_eq!(scans_cost, 3, "the group mined at the joiner's lower support");
            }
            GroupRole::Led { .. } => panic!("second request must join, not lead"),
        }
        match leader.join().unwrap().unwrap() {
            GroupRole::Led { scans_cost, .. } => assert_eq!(scans_cost, 3),
            GroupRole::Joined { .. } => panic!("first request must lead"),
        }
        let st = sched.stats();
        assert_eq!((st.mining_passes, st.coalesced, st.batched), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sched = Scheduler::new(0, 0, Duration::ZERO);
        for (epoch, universe) in [(0, vec![ItemId(0)]), (0, vec![ItemId(1)]), (1, vec![ItemId(0)])]
        {
            let role = sched
                .mine_or_join(epoch, &universe, 2, true, |_| (Arc::new(FrequentSets::new()), 1))
                .unwrap();
            assert!(matches!(role, GroupRole::Led { .. }));
        }
        let st = sched.stats();
        assert_eq!((st.mining_passes, st.coalesced), (3, 0));
    }

    #[test]
    fn non_leaders_fall_through_when_nothing_is_in_flight() {
        let sched = Scheduler::new(0, 0, Duration::ZERO);
        let role = sched.mine_or_join(0, &universe(), 2, false, |_| unreachable!());
        assert!(role.is_none());
        sched.note_direct_mining();
        assert_eq!(sched.stats().mining_passes, 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let sched = Arc::new(Scheduler::new(1, 1, Duration::ZERO));
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
        let sched = Scheduler::new(0, 0, Duration::ZERO);
        let permits: Vec<_> = (0..64).map(|_| sched.admit().unwrap()).collect();
        assert_eq!(sched.stats().inflight, 64);
        drop(permits);
        assert_eq!(sched.stats().inflight, 0);
    }
}
