//! Pseudonym management for location privacy.
//!
//! §III of the paper flags location privacy: beacons carry identity, so a
//! passive listener can track vehicles, goods and drivers. The standard
//! countermeasure surveyed there is pseudonymous authentication \[25\] with
//! periodic or context-triggered pseudonym changes \[27\]. This module models
//! a pre-loaded pseudonym pool and two change policies so the eavesdropping
//! experiment (F7) can quantify trackability with and without changes.

use crate::cert::{Certificate, CertificateAuthority, PrincipalId};
use crate::keys::KeyPair;

/// Policy controlling when a vehicle rotates to its next pseudonym.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChangePolicy {
    /// Never change (baseline: fully trackable).
    Never,
    /// Change every `period` seconds.
    Periodic {
        /// Seconds between changes.
        period: f64,
    },
    /// Change when at least `min_neighbors` other vehicles are in radio range
    /// (cooperative change, following Pan & Li \[27\]): changing alone links
    /// old and new pseudonyms trivially.
    NeighborTriggered {
        /// Minimum neighbour count required to change.
        min_neighbors: usize,
        /// Minimum seconds between changes regardless of neighbours.
        min_interval: f64,
    },
}

/// A certified pseudonym: a short-lived key pair plus its certificate.
#[derive(Clone, Copy, Debug)]
pub struct Pseudonym {
    /// The pseudonymous identity that appears on the wire.
    pub id: PrincipalId,
    /// Key pair for signing under this pseudonym.
    pub keypair: KeyPair,
    /// Certificate issued by the TA binding `id` to the key.
    pub certificate: Certificate,
}

/// A vehicle's pre-loaded pool of pseudonyms plus its change policy.
///
/// # Examples
///
/// ```
/// use platoon_crypto::cert::{CertificateAuthority, PrincipalId};
/// use platoon_crypto::keys::KeyPair;
/// use platoon_crypto::pseudonym::{ChangePolicy, PseudonymPool};
///
/// let mut ca = CertificateAuthority::new(PrincipalId(0), KeyPair::from_seed(0));
/// let mut pool = PseudonymPool::provision(
///     &mut ca, 7, 4, 0.0, 3600.0,
///     ChangePolicy::Periodic { period: 60.0 },
/// );
/// let first = pool.current().id;
/// pool.maybe_change(61.0, 0);
/// assert_ne!(pool.current().id, first);
/// ```
#[derive(Clone, Debug)]
pub struct PseudonymPool {
    pseudonyms: Vec<Pseudonym>,
    active: usize,
    policy: ChangePolicy,
    last_change: f64,
    changes: u64,
}

impl PseudonymPool {
    /// Provisions `count` certified pseudonyms for real vehicle `vehicle_seed`
    /// from the authority. Pseudonymous ids are derived so that they do not
    /// reveal the real identity.
    pub fn provision(
        ca: &mut CertificateAuthority,
        vehicle_seed: u64,
        count: usize,
        not_before: f64,
        not_after: f64,
        policy: ChangePolicy,
    ) -> Self {
        assert!(count > 0, "pool must contain at least one pseudonym");
        let pseudonyms = (0..count)
            .map(|i| {
                let keypair = KeyPair::from_seed(vehicle_seed.wrapping_mul(10_007) + i as u64);
                // Wire identity is derived from the key, not the vehicle seed.
                let id = PrincipalId(keypair.id().0);
                let certificate = ca.issue(id, keypair.public(), not_before, not_after);
                Pseudonym {
                    id,
                    keypair,
                    certificate,
                }
            })
            .collect();
        PseudonymPool {
            pseudonyms,
            active: 0,
            policy,
            last_change: not_before,
            changes: 0,
        }
    }

    /// The currently active pseudonym.
    pub fn current(&self) -> &Pseudonym {
        &self.pseudonyms[self.active]
    }

    /// Number of pseudonyms in the pool.
    pub fn len(&self) -> usize {
        self.pseudonyms.len()
    }

    /// Whether the pool is empty (never true for a provisioned pool).
    pub fn is_empty(&self) -> bool {
        self.pseudonyms.is_empty()
    }

    /// Total changes performed.
    pub fn change_count(&self) -> u64 {
        self.changes
    }

    /// The configured change policy.
    pub fn policy(&self) -> ChangePolicy {
        self.policy
    }

    /// Evaluates the change policy at time `now` with `neighbors` vehicles in
    /// range; rotates and returns `true` if a change occurred.
    pub fn maybe_change(&mut self, now: f64, neighbors: usize) -> bool {
        let due = match self.policy {
            ChangePolicy::Never => false,
            ChangePolicy::Periodic { period } => now - self.last_change >= period,
            ChangePolicy::NeighborTriggered {
                min_neighbors,
                min_interval,
            } => neighbors >= min_neighbors && now - self.last_change >= min_interval,
        };
        if due {
            self.active = (self.active + 1) % self.pseudonyms.len();
            self.last_change = now;
            self.changes += 1;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(policy: ChangePolicy) -> PseudonymPool {
        let mut ca = CertificateAuthority::new(PrincipalId(0), KeyPair::from_seed(0));
        PseudonymPool::provision(&mut ca, 42, 3, 0.0, 1_000.0, policy)
    }

    #[test]
    fn provision_creates_distinct_certified_pseudonyms() {
        let mut ca = CertificateAuthority::new(PrincipalId(0), KeyPair::from_seed(0));
        let p = PseudonymPool::provision(&mut ca, 7, 4, 0.0, 100.0, ChangePolicy::Never);
        assert_eq!(p.len(), 4);
        let ids: std::collections::HashSet<_> = p.pseudonyms.iter().map(|ps| ps.id).collect();
        assert_eq!(ids.len(), 4, "ids must be unique");
        for ps in &p.pseudonyms {
            assert!(ca.validate(&ps.certificate, 1.0).is_ok());
        }
    }

    #[test]
    fn never_policy_never_changes() {
        let mut p = pool(ChangePolicy::Never);
        let id = p.current().id;
        for t in 0..100 {
            assert!(!p.maybe_change(t as f64, 10));
        }
        assert_eq!(p.current().id, id);
        assert_eq!(p.change_count(), 0);
    }

    #[test]
    fn periodic_policy_changes_on_schedule() {
        let mut p = pool(ChangePolicy::Periodic { period: 10.0 });
        assert!(!p.maybe_change(5.0, 0));
        assert!(p.maybe_change(10.0, 0));
        assert!(!p.maybe_change(15.0, 0));
        assert!(p.maybe_change(20.0, 0));
        assert_eq!(p.change_count(), 2);
    }

    #[test]
    fn neighbor_policy_requires_crowd() {
        let mut p = pool(ChangePolicy::NeighborTriggered {
            min_neighbors: 3,
            min_interval: 5.0,
        });
        assert!(!p.maybe_change(10.0, 2), "not enough neighbours");
        assert!(p.maybe_change(10.0, 3));
        assert!(!p.maybe_change(12.0, 5), "interval not elapsed");
        assert!(p.maybe_change(15.0, 5));
    }

    #[test]
    fn pool_wraps_around() {
        let mut p = pool(ChangePolicy::Periodic { period: 1.0 });
        let first = p.current().id;
        for t in 1..=3 {
            p.maybe_change(t as f64, 0);
        }
        // Pool of 3: after 3 changes we are back at the first pseudonym.
        assert_eq!(p.current().id, first);
    }

    #[test]
    fn pseudonym_id_does_not_embed_vehicle_seed() {
        let p = pool(ChangePolicy::Never);
        // The wire id is hash-derived; trivially it must not equal the seed.
        assert_ne!(p.current().id.0, 42);
    }
}
