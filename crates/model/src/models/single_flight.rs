//! Model of the scheduler's single-flight group protocol.
//!
//! Mirrors `Engine::lattice_for` + `Scheduler::mine_or_join`: K queriers
//! miss the lattice cache with the same `(epoch, universe)` key, each at
//! its own support. A querier first looks the key up in the cache (a
//! lattice mined at a support no higher than its own serves it). On a
//! miss it searches the scheduler's published groups and **joins** one
//! whose support is no higher than its own; finding none, it publishes a
//! group at its own support — in the same critical section as the search
//! — and **leads** it: looks the key up in the cache again (a group
//! that finished since the first lookup left its lattice there, and
//! that lattice is the group's result), otherwise mines at once and
//! installs the lattice into the cache; then unpublishes the group,
//! publishes the result and `notify_all`s the joiners. Each joiner filters the result down to its
//! own (stronger or equal) envelope.
//!
//! Mining is abstracted by the support it ran at: a result mined at
//! support `s` is usable by a member that asked for support `r` iff
//! `s <= r` (a weaker envelope can always be filtered down; a stronger
//! one cannot be widened). The checked properties:
//!
//! 1. every member's answer was mined at a support ≤ its own request
//!    (weaker-envelope filtering is sound for every joiner and hit);
//! 2. single flight: a group is opened only when no published group
//!    could serve its leader — of two groups published at once, the later
//!    one mines at a strictly lower support — every pass belongs to one
//!    opened group, and no group mines a lattice the cache could already
//!    serve when the group was opened;
//! 3. the coalesce credit equals the joiners times the scan cost — the
//!    scans the joiners *actually* avoided, counted once;
//! 4. a published result implies the lattice was already in the cache
//!    and the group already unpublished (late arrivals hit the cache
//!    instead of joining a dead group);
//! 5. no member waits forever (the checker's deadlock detection).
//!
//! Seeded bugs: [`SingleFlightBug::JoinIgnoresSupport`] joins any group
//! for the key whatever its support, [`SingleFlightBug::SkipRecheck`]
//! mines without the leader's second lookup, [`SingleFlightBug::DoubleCredit`]
//! counts the leader itself as a saved scan, and
//! [`SingleFlightBug::NotifyBeforeResult`] notifies before the result is
//! visible (the classic lost wakeup).

use crate::checker::{Model, Step};
use crate::sync::{MockAtomic, MockCondvar, MockMutex};

/// Queriers (all miss the same `(epoch, universe)` key).
const K: usize = 4;
/// Per-member requested minimum support.
const SUPPORTS: [u8; K] = [2, 2, 3, 1];
/// Abstract cost of one mining scan, for the coalesce-credit accounting.
const SCAN_COST: u8 = 7;

/// Which seeded bug to inject, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SingleFlightBug {
    /// Join a group for the key whatever support it mines at — a joiner
    /// asking for less support gets an unusable (too-strong) result.
    JoinIgnoresSupport,
    /// Mine without looking the cache up again once the group is
    /// published — a query that missed just before another group's insert
    /// finds that group gone and mines the same lattice a second time.
    SkipRecheck,
    /// Count the leader's own scan as a coalesce saving — the credit is
    /// `members * cost` instead of `(members - 1) * cost`.
    DoubleCredit,
    /// `notify_all` before the result is stored; the result lands in a
    /// later critical section with no further notify — a joiner that
    /// re-checks in between re-parks and sleeps forever.
    NotifyBeforeResult,
}

impl SingleFlightBug {
    /// Every injectable bug, with its stable report name.
    pub fn all() -> &'static [(SingleFlightBug, &'static str)] {
        &[
            (SingleFlightBug::JoinIgnoresSupport, "join_ignores_support"),
            (SingleFlightBug::SkipRecheck, "skip_recheck"),
            (SingleFlightBug::DoubleCredit, "double_credit"),
            (SingleFlightBug::NotifyBeforeResult, "notify_before_result"),
        ]
    }
}

/// The group member `tid` leads, if it leads one (slot `tid`).
#[derive(Clone, Copy, Default, Hash, PartialEq, Eq)]
struct Group {
    /// Publication order, 1-based; 0 until the group is opened.
    opened: u8,
    /// Support the group mines at, fixed when it is published.
    support: u8,
    /// Group still discoverable in the scheduler's map.
    published: bool,
    /// Queries attached to the group, its leader included.
    members: u8,
    /// Published result: the support the lattice was mined at.
    result: Option<u8>,
}

/// The scheduler's group map, behind its lock.
#[derive(Clone, Default, Hash, PartialEq, Eq)]
struct Groups {
    slots: [Group; K],
    /// Groups opened so far.
    opened: u8,
    /// Coalesce credit recorded against the metrics.
    credit_saved: u8,
}

/// The lattice cache, behind the engine's lock.
#[derive(Clone, Default, Hash, PartialEq, Eq)]
struct Cache {
    /// The lowest support any installed lattice was mined at.
    lowest: Option<u8>,
    /// Which leaders' lattice is in the cache (installed by the leader,
    /// or found there by its second lookup).
    installed: [bool; K],
}

/// Full model state: the cache and the group map behind their mutexes,
/// the result condvar, the mining-pass counter, and every member's
/// program counter.
#[derive(Clone, Hash, PartialEq, Eq)]
pub struct SingleFlightState {
    cache: MockMutex<Cache>,
    groups: MockMutex<Groups>,
    done: MockCondvar,
    /// Mining passes started (incremented by the pass itself, outside any
    /// lock — exactly where real code pays the cost).
    passes: MockAtomic<u64>,
    pc: [u8; K],
    /// The group each joiner joined (its leader's id).
    joined: [Option<u8>; K],
    /// The support each member's answer was mined at.
    observed: [Option<u8>; K],
    /// The support of the lattice each leader's second lookup found.
    found: [Option<u8>; K],
    /// Leaders whose group opened while the cache could already serve
    /// them (observer state: read without the cache lock).
    servable_at_open: [bool; K],
    /// Leaders that ran a mining pass.
    mined: [bool; K],
}

/// The single-flight protocol model. `bug: None` must verify clean.
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleFlightModel {
    /// Seeded bug to inject, or `None` for the faithful protocol.
    pub bug: Option<SingleFlightBug>,
}

const PC_SEARCH: u8 = 1;
const PC_RECHECK: u8 = 2;
const PC_MINE: u8 = 3;
const PC_INSTALL: u8 = 4;
const PC_UNPUBLISH: u8 = 5;
const PC_PUBLISH: u8 = 6;
const PC_LATE_RESULT: u8 = 7;
const PC_WAIT: u8 = 10;
const PC_DONE: u8 = 20;

impl Model for SingleFlightModel {
    type State = SingleFlightState;

    fn init(&self) -> SingleFlightState {
        SingleFlightState {
            cache: MockMutex::new(Cache::default()),
            groups: MockMutex::new(Groups::default()),
            done: MockCondvar::new(),
            passes: MockAtomic::new(0),
            pc: [0; K],
            joined: [None; K],
            observed: [None; K],
            found: [None; K],
            servable_at_open: [false; K],
            mined: [false; K],
        }
    }

    fn threads(&self) -> usize {
        K
    }

    fn step(&self, s: &mut SingleFlightState, tid: usize) -> Step {
        let own = SUPPORTS[tid];
        match s.pc[tid] {
            // Cache lookup: a lattice mined at a support ≤ ours serves us.
            0 => {
                if !s.cache.try_lock(tid) {
                    return Step::Blocked;
                }
                match s.cache.data(tid).lowest {
                    Some(lowest) if lowest <= own => {
                        s.observed[tid] = Some(lowest);
                        s.pc[tid] = PC_DONE;
                    }
                    _ => s.pc[tid] = PC_SEARCH,
                }
                s.cache.unlock(tid);
                Step::Ran
            }
            // Miss: join a published group that serves us, or publish our
            // own under the same lock and lead it.
            PC_SEARCH => {
                if !s.groups.try_lock(tid) {
                    return Step::Blocked;
                }
                let ignore_support = self.bug == Some(SingleFlightBug::JoinIgnoresSupport);
                let g = s.groups.data_mut(tid);
                let found = (0..K).find(|&l| {
                    g.slots[l].published && (ignore_support || g.slots[l].support <= own)
                });
                match found {
                    Some(leader) => {
                        g.slots[leader].members += 1;
                        s.joined[tid] = Some(leader as u8);
                        s.pc[tid] = PC_WAIT;
                    }
                    None => {
                        g.opened += 1;
                        g.slots[tid] = Group {
                            opened: g.opened,
                            support: own,
                            published: true,
                            members: 1,
                            result: None,
                        };
                        s.servable_at_open[tid] =
                            s.cache.peek().lowest.is_some_and(|lowest| lowest <= own);
                        s.pc[tid] = PC_RECHECK;
                    }
                }
                s.groups.unlock(tid);
                Step::Ran
            }
            // Leader: look the cache up again now that the group is
            // published; a hit is the group's result and nothing is mined.
            PC_RECHECK => {
                if !s.cache.try_lock(tid) {
                    return Step::Blocked;
                }
                let c = s.cache.data_mut(tid);
                match c.lowest {
                    Some(lowest)
                        if lowest <= own && self.bug != Some(SingleFlightBug::SkipRecheck) =>
                    {
                        c.installed[tid] = true;
                        s.found[tid] = Some(lowest);
                        s.pc[tid] = PC_UNPUBLISH;
                    }
                    _ => s.pc[tid] = PC_MINE,
                }
                s.cache.unlock(tid);
                Step::Ran
            }
            // Leader: the mining pass itself, outside every lock.
            PC_MINE => {
                s.passes.fetch_add(1);
                s.mined[tid] = true;
                s.pc[tid] = PC_INSTALL;
                Step::Ran
            }
            // Leader: install into the cache before unpublishing.
            PC_INSTALL => {
                if !s.cache.try_lock(tid) {
                    return Step::Blocked;
                }
                let c = s.cache.data_mut(tid);
                c.lowest = Some(c.lowest.map_or(own, |l| l.min(own)));
                c.installed[tid] = true;
                s.cache.unlock(tid);
                s.pc[tid] = PC_UNPUBLISH;
                Step::Ran
            }
            // Leader: unpublish, so no one joins a finished group.
            PC_UNPUBLISH => {
                if !s.groups.try_lock(tid) {
                    return Step::Blocked;
                }
                s.groups.data_mut(tid).slots[tid].published = false;
                s.groups.unlock(tid);
                s.pc[tid] = PC_PUBLISH;
                Step::Ran
            }
            // Leader: credit the joiners' saved scans, publish the result
            // and wake them.
            PC_PUBLISH => {
                if !s.groups.try_lock(tid) {
                    return Step::Blocked;
                }
                let double = self.bug == Some(SingleFlightBug::DoubleCredit);
                let g = s.groups.data_mut(tid);
                let members = g.slots[tid].members;
                g.credit_saved += if double { members } else { members - 1 } * SCAN_COST;
                if self.bug == Some(SingleFlightBug::NotifyBeforeResult) {
                    // Buggy: wake first, store the result in a later
                    // section with no further notify.
                    s.done.notify_all();
                    s.groups.unlock(tid);
                    s.pc[tid] = PC_LATE_RESULT;
                } else {
                    let result = s.found[tid].unwrap_or(own);
                    g.slots[tid].result = Some(result);
                    s.observed[tid] = Some(result);
                    s.done.notify_all();
                    s.groups.unlock(tid);
                    s.pc[tid] = PC_DONE;
                }
                Step::Ran
            }
            // NotifyBeforeResult tail: the result lands silently.
            PC_LATE_RESULT => {
                if !s.groups.try_lock(tid) {
                    return Step::Blocked;
                }
                let result = s.found[tid].unwrap_or(own);
                s.groups.data_mut(tid).slots[tid].result = Some(result);
                s.observed[tid] = Some(result);
                s.groups.unlock(tid);
                s.pc[tid] = PC_DONE;
                Step::Ran
            }
            // Joiner: condvar wait loop — check under the lock, park when
            // the result is not there yet, re-check on wakeup.
            PC_WAIT => {
                if s.done.is_parked(tid) {
                    return Step::Blocked;
                }
                if !s.groups.try_lock(tid) {
                    return Step::Blocked;
                }
                let leader = usize::from(s.joined[tid].expect("a waiter joined a group"));
                match s.groups.data(tid).slots[leader].result {
                    Some(r) => {
                        s.observed[tid] = Some(r);
                        s.pc[tid] = PC_DONE;
                    }
                    None => s.done.park(tid),
                }
                s.groups.unlock(tid);
                Step::Ran
            }
            _ => Step::Done,
        }
    }

    fn invariant(&self, s: &SingleFlightState) -> Result<(), String> {
        let g = s.groups.peek();
        for a in g.slots.iter().filter(|x| x.published) {
            for b in g.slots.iter().filter(|x| x.published && x.opened > a.opened) {
                if b.support >= a.support {
                    return Err(format!(
                        "single flight broken: a group at support {} opened while one at \
                         support {} could serve it",
                        b.support, a.support
                    ));
                }
            }
        }
        if let Some(l) = (0..K).find(|&l| s.mined[l] && s.servable_at_open[l]) {
            return Err(format!(
                "member {l} mined a lattice the cache already served when its group opened"
            ));
        }
        let max_credit = (K as u8 - 1) * SCAN_COST;
        if g.credit_saved > max_credit {
            return Err(format!(
                "coalesce credit over-counted: {} > {} == (K-1)*scan_cost",
                g.credit_saved, max_credit
            ));
        }
        let installed = s.cache.peek().installed;
        if (0..K).any(|l| g.slots[l].result.is_some() && (!installed[l] || g.slots[l].published)) {
            return Err(
                "result published before the cache insert and the unpublish".into()
            );
        }
        Ok(())
    }

    fn finale(&self, s: &SingleFlightState) -> Result<(), String> {
        for (tid, obs) in s.observed.iter().enumerate() {
            match obs {
                None => return Err(format!("member {tid} finished without a result")),
                Some(r) if *r > SUPPORTS[tid] => {
                    return Err(format!(
                        "member {tid} got a result mined at support {r}, but asked for \
                         {} — too strong to filter down",
                        SUPPORTS[tid]
                    ));
                }
                Some(_) => {}
            }
        }
        let g = s.groups.peek();
        let found = s.found.iter().flatten().count() as u64;
        if s.passes.load() + found != u64::from(g.opened) {
            return Err(format!(
                "{} mining passes + {found} cache hits for {} groups",
                s.passes.load(),
                g.opened
            ));
        }
        let joins = s.joined.iter().flatten().count() as u8;
        if g.credit_saved != joins * SCAN_COST {
            return Err(format!(
                "coalesce credit {} (want {} for {joins} joins)",
                g.credit_saved,
                joins * SCAN_COST
            ));
        }
        let installed = s.cache.peek().installed;
        if (0..K).any(|l| g.slots[l].opened > 0 && (!installed[l] || g.slots[l].published)) {
            return Err("a group ended without cache insert + unpublish".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckConfig, Checker, ViolationKind};

    #[test]
    fn faithful_protocol_is_clean() {
        let out = Checker::new(CheckConfig::default()).run(&SingleFlightModel { bug: None });
        assert!(out.ok(), "{:?}", out.violations.first());
        assert!(out.complete);
        assert!(out.stats.interleavings >= 10_000, "{:?}", out.stats);
    }

    #[test]
    fn joining_a_higher_group_is_caught() {
        let out = Checker::new(CheckConfig::default())
            .run(&SingleFlightModel { bug: Some(SingleFlightBug::JoinIgnoresSupport) });
        assert!(!out.ok());
        assert!(
            out.violations.iter().any(|v| v.message.contains("too strong")),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn mining_without_the_second_lookup_is_caught() {
        let out = Checker::new(CheckConfig::default())
            .run(&SingleFlightModel { bug: Some(SingleFlightBug::SkipRecheck) });
        assert!(!out.ok());
        assert!(
            out.violations.iter().any(|v| v.message.contains("already served")),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn double_credit_is_caught() {
        let out = Checker::new(CheckConfig::default())
            .run(&SingleFlightModel { bug: Some(SingleFlightBug::DoubleCredit) });
        assert!(!out.ok());
        assert!(
            out.violations.iter().any(|v| v.message.contains("credit")),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn lost_wakeup_deadlocks() {
        let out = Checker::new(CheckConfig::default())
            .run(&SingleFlightModel { bug: Some(SingleFlightBug::NotifyBeforeResult) });
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::Deadlock),
            "{:?}",
            out.violations
        );
    }
}
