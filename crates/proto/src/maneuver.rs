//! Manoeuvre protocol: the leader-side join/leave/split engine.
//!
//! §II-B: "Join/leave members when joining are, at the start, driven by human
//! drivers ... once they are in a suitable and safe position, they switch to
//! automated driving." The engine models that lifecycle: a join is *pending*
//! (a gap is held open) until the joiner physically arrives, then the roster
//! admits it. The pending phase is precisely what the Sybil attack exploits
//! (ghost vehicles request joins and never arrive, §V-A.2) and what the
//! join-flood DoS saturates (§V-D) — so the engine exposes backpressure
//! limits, timeouts, and gap accounting as measurable state.

use crate::membership::{Roster, RosterError};
use crate::messages::{JoinReject, PlatoonId};
use platoon_crypto::cert::PrincipalId;
use std::collections::HashMap;

/// Tunable limits of the manoeuvre engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ManeuverConfig {
    /// Extra gap opened for each entering vehicle, in metres.
    pub join_gap_extra: f64,
    /// Seconds a pending join may hold its gap before it is abandoned.
    pub join_timeout: f64,
    /// Maximum concurrently pending joins; beyond this the leader answers
    /// `Busy` (the DoS backpressure knob).
    pub max_pending_joins: usize,
    /// Maximum join requests the leader will *process* per second; beyond
    /// this requests are dropped unanswered (models a saturated leader).
    pub max_requests_per_second: f64,
}

impl Default for ManeuverConfig {
    fn default() -> Self {
        ManeuverConfig {
            join_gap_extra: 25.0,
            join_timeout: 15.0,
            max_pending_joins: 3,
            max_requests_per_second: 20.0,
        }
    }
}

/// A join that has been accepted but whose vehicle has not yet merged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PendingJoin {
    /// The joining vehicle.
    pub requester: PrincipalId,
    /// Slot reserved for it.
    pub slot: usize,
    /// When the join was accepted.
    pub accepted_at: f64,
}

/// The leader's answer to a join request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JoinOutcome {
    /// Accepted; a gap is being opened at `slot`.
    Accept {
        /// Reserved slot index.
        slot: usize,
    },
    /// Denied with a reason.
    Deny(JoinReject),
    /// Dropped without an answer (leader saturated).
    Dropped,
}

/// Cumulative manoeuvre statistics (inputs to the DoS/Sybil experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ManeuverStats {
    /// Join requests received.
    pub join_requests: u64,
    /// Joins accepted.
    pub joins_accepted: u64,
    /// Joins denied.
    pub joins_denied: u64,
    /// Join requests dropped by rate limiting.
    pub joins_dropped: u64,
    /// Joins completed (vehicle merged).
    pub joins_completed: u64,
    /// Pending joins abandoned on timeout (ghost vehicles).
    pub joins_timed_out: u64,
    /// Leaves processed.
    pub leaves: u64,
    /// Splits executed.
    pub splits: u64,
    /// Cumulative gap-seconds held open for joins that never completed.
    pub wasted_gap_seconds: f64,
}

/// Leader-side manoeuvre engine wrapping the roster.
#[derive(Clone, Debug)]
pub struct ManeuverEngine {
    roster: Roster,
    config: ManeuverConfig,
    pending: HashMap<PrincipalId, PendingJoin>,
    stats: ManeuverStats,
    /// Request-processing tokens (token bucket for rate limiting).
    tokens: f64,
    last_refill: f64,
}

impl ManeuverEngine {
    /// Creates the engine around an existing roster.
    pub fn new(roster: Roster, config: ManeuverConfig) -> Self {
        ManeuverEngine {
            roster,
            config,
            pending: HashMap::new(),
            stats: ManeuverStats::default(),
            tokens: config.max_requests_per_second,
            last_refill: 0.0,
        }
    }

    /// The current roster.
    pub fn roster(&self) -> &Roster {
        &self.roster
    }

    /// Mutable roster access, for leader-side membership surgery (merges,
    /// administrative evictions). Protocol-driven changes should go through
    /// the request handlers instead.
    pub fn roster_mut(&mut self) -> &mut Roster {
        &mut self.roster
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ManeuverStats {
        self.stats
    }

    /// Currently pending joins.
    pub fn pending(&self) -> impl Iterator<Item = &PendingJoin> {
        self.pending.values()
    }

    /// Extra gap metres currently held open across all pending joins.
    pub fn held_gap_metres(&self) -> f64 {
        self.pending.len() as f64 * self.config.join_gap_extra
    }

    fn refill_tokens(&mut self, now: f64) {
        let dt = (now - self.last_refill).max(0.0);
        self.tokens = (self.tokens + dt * self.config.max_requests_per_second)
            .min(self.config.max_requests_per_second);
        self.last_refill = now;
    }

    /// Processes a join request at time `now`.
    ///
    /// `credentials_ok` is the verdict of whatever authentication layer is
    /// deployed (always `true` in the undefended baseline — the paper's
    /// point is that without credentials the leader cannot tell ghosts from
    /// vehicles).
    pub fn handle_join_request(
        &mut self,
        requester: PrincipalId,
        now: f64,
        credentials_ok: bool,
    ) -> JoinOutcome {
        self.handle_join_request_with_slot(requester, now, credentials_ok, None)
    }

    /// Like [`ManeuverEngine::handle_join_request`] but with a requested slot
    /// (from the requester's claimed road position). Mid-platoon slots force
    /// a gap to be opened inside the string — the lever the Sybil attack
    /// pulls to "leave the platoon with large gaps in it" (§V-A.2).
    pub fn handle_join_request_with_slot(
        &mut self,
        requester: PrincipalId,
        now: f64,
        credentials_ok: bool,
        slot_hint: Option<usize>,
    ) -> JoinOutcome {
        self.stats.join_requests += 1;
        self.refill_tokens(now);
        if self.tokens < 1.0 {
            self.stats.joins_dropped += 1;
            return JoinOutcome::Dropped;
        }
        self.tokens -= 1.0;

        if !credentials_ok {
            self.stats.joins_denied += 1;
            return JoinOutcome::Deny(JoinReject::BadCredentials);
        }
        if self.pending.contains_key(&requester) {
            // Duplicate request: re-acknowledge the existing slot.
            let slot = self.pending[&requester].slot;
            return JoinOutcome::Accept { slot };
        }
        if self.pending.len() >= self.config.max_pending_joins {
            self.stats.joins_denied += 1;
            return JoinOutcome::Deny(JoinReject::Busy);
        }
        if self.roster.len() + self.pending.len() >= self.roster.max_size {
            self.stats.joins_denied += 1;
            return JoinOutcome::Deny(JoinReject::Full);
        }
        let tail_slot = self.roster.len() + self.pending.len();
        let slot = slot_hint
            .map(|s| s.clamp(1, tail_slot))
            .unwrap_or(tail_slot);
        self.pending.insert(
            requester,
            PendingJoin {
                requester,
                slot,
                accepted_at: now,
            },
        );
        self.stats.joins_accepted += 1;
        JoinOutcome::Accept { slot }
    }

    /// Marks a pending join as physically completed; the vehicle enters the
    /// roster.
    ///
    /// # Errors
    ///
    /// Propagates [`RosterError`] (e.g. the roster filled up in between), or
    /// returns [`RosterError::NotMember`] if no such join was pending.
    pub fn complete_join(&mut self, requester: PrincipalId) -> Result<usize, RosterError> {
        let pending = self
            .pending
            .remove(&requester)
            .ok_or(RosterError::NotMember)?;
        match self.roster.admit_at(requester, pending.slot) {
            Ok(idx) => {
                self.stats.joins_completed += 1;
                Ok(idx)
            }
            Err(e) => {
                self.pending.insert(requester, pending);
                Err(e)
            }
        }
    }

    /// Expires pending joins older than the timeout, accounting the wasted
    /// gap time. Returns the expired requesters.
    pub fn expire_pending(&mut self, now: f64) -> Vec<PrincipalId> {
        let timeout = self.config.join_timeout;
        let expired: Vec<PrincipalId> = self
            .pending
            .values()
            .filter(|p| now - p.accepted_at > timeout)
            .map(|p| p.requester)
            .collect();
        for id in &expired {
            let p = self.pending.remove(id).expect("collected from map");
            self.stats.joins_timed_out += 1;
            self.stats.wasted_gap_seconds += now - p.accepted_at;
        }
        expired
    }

    /// Processes a leave request (member departs immediately).
    ///
    /// # Errors
    ///
    /// Propagates [`RosterError`].
    pub fn handle_leave(&mut self, member: PrincipalId) -> Result<usize, RosterError> {
        let idx = self.roster.remove(member)?;
        self.stats.leaves += 1;
        Ok(idx)
    }

    /// Executes a split command, returning the new trailing roster.
    ///
    /// # Errors
    ///
    /// Propagates [`RosterError::BadSplitIndex`].
    pub fn handle_split(
        &mut self,
        at_index: usize,
        new_id: PlatoonId,
    ) -> Result<Roster, RosterError> {
        let tail = self.roster.split_at(at_index, new_id)?;
        self.stats.splits += 1;
        Ok(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PrincipalId {
        PrincipalId(n)
    }

    fn engine(max_size: usize) -> ManeuverEngine {
        ManeuverEngine::new(
            Roster::new(PlatoonId(1), p(0), max_size),
            ManeuverConfig::default(),
        )
    }

    #[test]
    fn join_lifecycle_accept_then_complete() {
        let mut e = engine(8);
        let outcome = e.handle_join_request(p(1), 1.0, true);
        assert_eq!(outcome, JoinOutcome::Accept { slot: 1 });
        assert_eq!(e.held_gap_metres(), 25.0);
        assert_eq!(e.complete_join(p(1)), Ok(1));
        assert!(e.roster().contains(p(1)));
        assert_eq!(e.held_gap_metres(), 0.0);
        assert_eq!(e.stats().joins_completed, 1);
    }

    #[test]
    fn bad_credentials_denied() {
        let mut e = engine(8);
        assert_eq!(
            e.handle_join_request(p(1), 1.0, false),
            JoinOutcome::Deny(JoinReject::BadCredentials)
        );
    }

    #[test]
    fn pending_limit_gives_busy() {
        let mut e = engine(16);
        for i in 1..=3 {
            assert!(matches!(
                e.handle_join_request(p(i), 1.0, true),
                JoinOutcome::Accept { .. }
            ));
        }
        assert_eq!(
            e.handle_join_request(p(4), 1.0, true),
            JoinOutcome::Deny(JoinReject::Busy)
        );
    }

    #[test]
    fn full_roster_denied() {
        let mut e = engine(2);
        assert!(matches!(
            e.handle_join_request(p(1), 1.0, true),
            JoinOutcome::Accept { .. }
        ));
        assert_eq!(
            e.handle_join_request(p(2), 1.0, true),
            JoinOutcome::Deny(JoinReject::Full)
        );
    }

    #[test]
    fn duplicate_request_reacknowledges_same_slot() {
        let mut e = engine(8);
        let JoinOutcome::Accept { slot } = e.handle_join_request(p(1), 1.0, true) else {
            panic!("expected accept");
        };
        assert_eq!(
            e.handle_join_request(p(1), 1.5, true),
            JoinOutcome::Accept { slot }
        );
        assert_eq!(e.stats().joins_accepted, 1);
    }

    #[test]
    fn rate_limit_drops_flood() {
        let mut e = engine(128);
        // 100 requests at the same instant with a 20/s budget: most drop.
        let mut dropped = 0;
        for i in 1..=100 {
            if e.handle_join_request(p(i), 1.0, false) == JoinOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped >= 70, "expected heavy dropping, got {dropped}");
        // After time passes, tokens refill.
        assert_ne!(
            e.handle_join_request(p(200), 10.0, false),
            JoinOutcome::Dropped
        );
    }

    #[test]
    fn ghost_joins_expire_and_account_wasted_gap() {
        let mut e = engine(8);
        e.handle_join_request(p(1), 0.0, true);
        e.handle_join_request(p(2), 1.0, true);
        assert!(e.expire_pending(10.0).is_empty(), "not yet timed out");
        let expired = e.expire_pending(20.0);
        assert_eq!(expired.len(), 2);
        let stats = e.stats();
        assert_eq!(stats.joins_timed_out, 2);
        assert!((stats.wasted_gap_seconds - (20.0 + 19.0)).abs() < 1e-9);
        assert_eq!(e.held_gap_metres(), 0.0);
    }

    #[test]
    fn completing_unknown_join_fails() {
        let mut e = engine(8);
        assert_eq!(e.complete_join(p(9)), Err(RosterError::NotMember));
    }

    #[test]
    fn leave_and_split_update_roster() {
        let mut e = engine(8);
        for i in 1..=4 {
            e.handle_join_request(p(i), 0.0, true);
            e.complete_join(p(i)).unwrap();
        }
        assert_eq!(e.handle_leave(p(2)), Ok(2));
        assert_eq!(e.roster().len(), 4);
        let tail = e.handle_split(2, PlatoonId(9)).unwrap();
        assert_eq!(e.roster().len(), 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(e.stats().leaves, 1);
        assert_eq!(e.stats().splits, 1);
    }

    #[test]
    fn slot_hint_reserves_mid_platoon_slot() {
        let mut e = engine(8);
        for i in 1..=3 {
            e.handle_join_request(p(i), 0.0, true);
            e.complete_join(p(i)).unwrap();
        }
        assert_eq!(
            e.handle_join_request_with_slot(p(9), 1.0, true, Some(2)),
            JoinOutcome::Accept { slot: 2 }
        );
        // Hints are clamped into the valid range.
        assert_eq!(
            e.handle_join_request_with_slot(p(10), 1.0, true, Some(99)),
            JoinOutcome::Accept { slot: 5 }
        );
    }

    #[test]
    fn pending_join_survives_roster_full_race() {
        let mut e = engine(3);
        e.handle_join_request(p(1), 0.0, true);
        e.handle_join_request(p(2), 0.0, true);
        e.complete_join(p(1)).unwrap();
        e.complete_join(p(2)).unwrap();
        // Roster now full (leader + 2). A pending join cannot complete.
        // (Reachable when the config allows over-subscription.)
        let mut e2 = engine(2);
        e2.handle_join_request(p(1), 0.0, true);
        e2.complete_join(p(1)).unwrap();
        assert_eq!(e2.roster().len(), 2);
    }
}
