//! Platoon membership: the leader's authoritative view of who is in the
//! platoon and in what order.
//!
//! The roster is the asset several attacks target: Sybil ghosts inflate it
//! (§V-A.2, "the platoon leader \[thinks\] there are more vehicles part of the
//! platoon than there really are"), join-flood DoS fills it with junk so
//! legitimate vehicles cannot connect (§V-D), and fake leave/split messages
//! shrink or break it (§V-A.3).

use crate::messages::PlatoonId;
use platoon_crypto::cert::PrincipalId;
use std::fmt;

/// Errors from roster mutations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RosterError {
    /// The platoon is at `max_size`.
    Full,
    /// The principal is already a member.
    AlreadyMember,
    /// The principal is not a member.
    NotMember,
    /// A split index was out of range (must leave ≥1 vehicle on each side).
    BadSplitIndex,
    /// The leader cannot be removed or relocated.
    LeaderImmutable,
}

impl fmt::Display for RosterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RosterError::Full => f.write_str("platoon is full"),
            RosterError::AlreadyMember => f.write_str("vehicle already a member"),
            RosterError::NotMember => f.write_str("vehicle is not a member"),
            RosterError::BadSplitIndex => f.write_str("split index out of range"),
            RosterError::LeaderImmutable => f.write_str("the leader cannot be removed"),
        }
    }
}

impl std::error::Error for RosterError {}

/// Ordered platoon membership with the leader at index 0.
#[derive(Clone, Debug, PartialEq)]
pub struct Roster {
    /// The platoon's identifier.
    pub id: PlatoonId,
    /// Maximum total size including the leader.
    pub max_size: usize,
    members: Vec<PrincipalId>,
}

impl Roster {
    /// Creates a platoon with only its leader.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn new(id: PlatoonId, leader: PrincipalId, max_size: usize) -> Self {
        assert!(max_size >= 1, "max_size must be at least 1");
        Roster {
            id,
            max_size,
            members: vec![leader],
        }
    }

    /// The leader's identity.
    pub fn leader(&self) -> PrincipalId {
        self.members[0]
    }

    /// Total size including the leader.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the roster holds only the leader.
    pub fn is_empty(&self) -> bool {
        self.members.len() == 1
    }

    /// Whether the platoon can accept another member.
    pub fn has_capacity(&self) -> bool {
        self.members.len() < self.max_size
    }

    /// Ordered members including the leader.
    pub fn members(&self) -> &[PrincipalId] {
        &self.members
    }

    /// Index of a principal, if present (0 = leader).
    pub fn index_of(&self, id: PrincipalId) -> Option<usize> {
        self.members.iter().position(|m| *m == id)
    }

    /// Whether the principal is in the platoon.
    pub fn contains(&self, id: PrincipalId) -> bool {
        self.index_of(id).is_some()
    }

    /// The member directly ahead of `id`, if any.
    pub fn predecessor_of(&self, id: PrincipalId) -> Option<PrincipalId> {
        let idx = self.index_of(id)?;
        if idx == 0 {
            None
        } else {
            Some(self.members[idx - 1])
        }
    }

    /// Admits a vehicle at the tail of the platoon, returning its index.
    ///
    /// # Errors
    ///
    /// [`RosterError::Full`] or [`RosterError::AlreadyMember`].
    pub fn admit_tail(&mut self, id: PrincipalId) -> Result<usize, RosterError> {
        self.admit_at(id, self.members.len())
    }

    /// Admits a vehicle at a specific slot (1..=len), shifting later members
    /// back.
    ///
    /// # Errors
    ///
    /// [`RosterError::Full`], [`RosterError::AlreadyMember`], or
    /// [`RosterError::LeaderImmutable`] for slot 0.
    pub fn admit_at(&mut self, id: PrincipalId, slot: usize) -> Result<usize, RosterError> {
        if !self.has_capacity() {
            return Err(RosterError::Full);
        }
        if self.contains(id) {
            return Err(RosterError::AlreadyMember);
        }
        if slot == 0 {
            return Err(RosterError::LeaderImmutable);
        }
        let slot = slot.min(self.members.len());
        self.members.insert(slot, id);
        Ok(slot)
    }

    /// Removes a member (not the leader).
    ///
    /// # Errors
    ///
    /// [`RosterError::NotMember`] or [`RosterError::LeaderImmutable`].
    pub fn remove(&mut self, id: PrincipalId) -> Result<usize, RosterError> {
        let idx = self.index_of(id).ok_or(RosterError::NotMember)?;
        if idx == 0 {
            return Err(RosterError::LeaderImmutable);
        }
        self.members.remove(idx);
        Ok(idx)
    }

    /// Splits the platoon: members at `at_index` and beyond form a new
    /// platoon led by the vehicle at `at_index`.
    ///
    /// # Errors
    ///
    /// [`RosterError::BadSplitIndex`] unless `1 <= at_index < len`.
    pub fn split_at(&mut self, at_index: usize, new_id: PlatoonId) -> Result<Roster, RosterError> {
        if at_index == 0 || at_index >= self.members.len() {
            return Err(RosterError::BadSplitIndex);
        }
        let tail = self.members.split_off(at_index);
        Ok(Roster {
            id: new_id,
            max_size: self.max_size,
            members: tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PrincipalId {
        PrincipalId(n)
    }

    fn roster_of(n: usize) -> Roster {
        let mut r = Roster::new(PlatoonId(1), p(0), 16);
        for i in 1..n {
            r.admit_tail(p(i as u64)).unwrap();
        }
        r
    }

    #[test]
    fn new_roster_has_only_leader() {
        let r = Roster::new(PlatoonId(1), p(9), 8);
        assert_eq!(r.leader(), p(9));
        assert_eq!(r.len(), 1);
        assert!(r.is_empty());
        assert!(r.has_capacity());
    }

    #[test]
    fn admit_tail_appends_in_order() {
        let r = roster_of(4);
        assert_eq!(r.members(), &[p(0), p(1), p(2), p(3)]);
        assert_eq!(r.index_of(p(2)), Some(2));
        assert_eq!(r.predecessor_of(p(2)), Some(p(1)));
        assert_eq!(r.predecessor_of(p(0)), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut r = Roster::new(PlatoonId(1), p(0), 2);
        r.admit_tail(p(1)).unwrap();
        assert_eq!(r.admit_tail(p(2)), Err(RosterError::Full));
    }

    #[test]
    fn duplicate_admission_rejected() {
        let mut r = roster_of(3);
        assert_eq!(r.admit_tail(p(1)), Err(RosterError::AlreadyMember));
    }

    #[test]
    fn admit_at_slot_shifts_members() {
        let mut r = roster_of(3); // 0,1,2
        let slot = r.admit_at(p(9), 1).unwrap();
        assert_eq!(slot, 1);
        assert_eq!(r.members(), &[p(0), p(9), p(1), p(2)]);
    }

    #[test]
    fn admit_at_slot_zero_rejected() {
        let mut r = roster_of(2);
        assert_eq!(r.admit_at(p(9), 0), Err(RosterError::LeaderImmutable));
    }

    #[test]
    fn admit_beyond_tail_clamps() {
        let mut r = roster_of(2);
        let slot = r.admit_at(p(9), 99).unwrap();
        assert_eq!(slot, 2);
    }

    #[test]
    fn remove_member() {
        let mut r = roster_of(4);
        assert_eq!(r.remove(p(2)), Ok(2));
        assert_eq!(r.members(), &[p(0), p(1), p(3)]);
        assert_eq!(r.remove(p(2)), Err(RosterError::NotMember));
    }

    #[test]
    fn leader_cannot_be_removed() {
        let mut r = roster_of(3);
        assert_eq!(r.remove(p(0)), Err(RosterError::LeaderImmutable));
    }

    #[test]
    fn split_divides_membership() {
        let mut r = roster_of(5); // 0..4
        let tail = r.split_at(3, PlatoonId(2)).unwrap();
        assert_eq!(r.members(), &[p(0), p(1), p(2)]);
        assert_eq!(tail.members(), &[p(3), p(4)]);
        assert_eq!(tail.leader(), p(3));
        assert_eq!(tail.id, PlatoonId(2));
    }

    #[test]
    fn bad_split_indices_rejected() {
        let mut r = roster_of(3);
        assert_eq!(
            r.split_at(0, PlatoonId(2)).unwrap_err(),
            RosterError::BadSplitIndex
        );
        assert_eq!(
            r.split_at(3, PlatoonId(2)).unwrap_err(),
            RosterError::BadSplitIndex
        );
    }

    #[test]
    #[should_panic(expected = "max_size")]
    fn zero_capacity_panics() {
        Roster::new(PlatoonId(1), p(0), 0);
    }
}
