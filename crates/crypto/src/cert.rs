//! Certificates, a certificate authority, and revocation.
//!
//! Models the IEEE 1609.2-style credential hierarchy the paper assumes for
//! the "Public Keys" and "Roadside Units" mechanisms of Table III: a trusted
//! authority (TA) issues certificates binding a vehicle identity to a public
//! key; RSUs and platoon leaders verify certificates before admitting a
//! vehicle; the TA revokes certificates of misbehaving or compromised
//! vehicles (the impersonation and Sybil defenses both hinge on this).
//!
//! A receiver that sees the same certificates over and over (every frame
//! of a platoon carries its sender's) keeps a [`CertificateMemo`], so each
//! certificate's CA signature is checked once, not at every delivery.

use crate::keys::{KeyId, KeyPair, PublicKey};
use crate::signature::{Signature, Signer};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Identity of a principal in the vehicular network (vehicle, RSU or TA).
///
/// Plain `u64` newtype: the simulation assigns these densely.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub u64);

impl fmt::Debug for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Principal({})", self.0)
    }
}

impl fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors raised when validating a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertError {
    /// The issuer signature does not verify under the CA key.
    BadSignature,
    /// The certificate is outside its validity window.
    Expired,
    /// The certificate is on the revocation list.
    Revoked,
    /// The certificate was issued by an unknown authority.
    UnknownIssuer,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::BadSignature => f.write_str("certificate signature invalid"),
            CertError::Expired => f.write_str("certificate outside validity window"),
            CertError::Revoked => f.write_str("certificate revoked"),
            CertError::UnknownIssuer => f.write_str("certificate issuer unknown"),
        }
    }
}

impl std::error::Error for CertError {}

/// A certificate binding a principal to a public key for a validity window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Certificate {
    /// The identity being certified.
    pub subject: PrincipalId,
    /// The certified public key.
    pub public_key: PublicKey,
    /// Start of validity (simulation seconds).
    pub not_before: f64,
    /// End of validity (simulation seconds).
    pub not_after: f64,
    /// Identity of the issuing authority.
    pub issuer: PrincipalId,
    /// Issuer's signature over the fields above.
    pub signature: Signature,
}

impl Certificate {
    /// Serial used on revocation lists: hash-derived id of the certified key.
    pub fn serial(&self) -> KeyId {
        self.public_key.id()
    }

    /// The canonical byte string that the issuer signs.
    fn to_be_signed(
        subject: PrincipalId,
        public_key: &PublicKey,
        not_before: f64,
        not_after: f64,
        issuer: PrincipalId,
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40);
        buf.extend_from_slice(&subject.0.to_be_bytes());
        buf.extend_from_slice(&public_key.element().to_be_bytes());
        buf.extend_from_slice(&not_before.to_be_bytes());
        buf.extend_from_slice(&not_after.to_be_bytes());
        buf.extend_from_slice(&issuer.0.to_be_bytes());
        buf
    }

    /// Whether the issuer's signature over the other fields verifies under
    /// `authority_key`.
    fn signature_verifies(&self, authority_key: &PublicKey) -> bool {
        let tbs = Certificate::to_be_signed(
            self.subject,
            &self.public_key,
            self.not_before,
            self.not_after,
            self.issuer,
        );
        self.signature.verify(authority_key, &tbs)
    }
}

/// The trusted authority: issues and revokes certificates.
///
/// # Examples
///
/// ```
/// use platoon_crypto::cert::{CertificateAuthority, PrincipalId};
/// use platoon_crypto::keys::KeyPair;
///
/// let mut ca = CertificateAuthority::new(PrincipalId(0), KeyPair::from_seed(0));
/// let vehicle_kp = KeyPair::from_seed(1);
/// let cert = ca.issue(PrincipalId(1), vehicle_kp.public(), 0.0, 3600.0);
/// assert!(ca.validate(&cert, 10.0).is_ok());
/// ca.revoke(cert.serial());
/// assert!(ca.validate(&cert, 10.0).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct CertificateAuthority {
    id: PrincipalId,
    signer: Signer,
    revoked: HashSet<KeyId>,
    issued: u64,
}

impl CertificateAuthority {
    /// Creates an authority with the given identity and signing key pair.
    pub fn new(id: PrincipalId, keypair: KeyPair) -> Self {
        CertificateAuthority {
            id,
            signer: Signer::new(keypair),
            revoked: HashSet::new(),
            issued: 0,
        }
    }

    /// The authority's identity.
    pub fn id(&self) -> PrincipalId {
        self.id
    }

    /// The authority's verification key, distributed out-of-band to all
    /// vehicles and RSUs.
    pub fn public(&self) -> PublicKey {
        self.signer.public()
    }

    /// Number of certificates issued so far.
    pub fn issued_count(&self) -> u64 {
        self.issued
    }

    /// Issues a certificate over `(subject, key)` valid on `[not_before, not_after]`.
    pub fn issue(
        &mut self,
        subject: PrincipalId,
        public_key: PublicKey,
        not_before: f64,
        not_after: f64,
    ) -> Certificate {
        self.issued += 1;
        let tbs = Certificate::to_be_signed(subject, &public_key, not_before, not_after, self.id);
        Certificate {
            subject,
            public_key,
            not_before,
            not_after,
            issuer: self.id,
            signature: self.signer.sign_deterministic(&tbs),
        }
    }

    /// Adds the certificate's key to the revocation list.
    pub fn revoke(&mut self, serial: KeyId) {
        self.revoked.insert(serial);
    }

    /// Whether a given serial is revoked.
    pub fn is_revoked(&self, serial: KeyId) -> bool {
        self.revoked.contains(&serial)
    }

    /// Whether `cert`'s serial is revoked. The serial is a SHA-256 of the
    /// key, so it is computed only when something has been revoked.
    pub fn revokes(&self, cert: &Certificate) -> bool {
        !self.revoked.is_empty() && self.is_revoked(cert.serial())
    }

    /// Full validation as performed by the authority itself.
    ///
    /// # Errors
    ///
    /// Returns a [`CertError`] describing the first failed check.
    pub fn validate(&self, cert: &Certificate, now: f64) -> Result<(), CertError> {
        if self.revokes(cert) {
            return Err(CertError::Revoked);
        }
        verify_certificate(cert, &self.public(), self.id, now, None)
    }
}

/// Certificate verification against a known authority key.
///
/// This is what vehicles and RSUs run: they know the TA's public key and the
/// latest revocation list they fetched, and check certificates locally.
/// With a `memo`, the signature step is answered from it for a certificate
/// whose signature has verified under `authority_key` before; the issuer
/// and validity checks run on every call either way.
///
/// # Errors
///
/// Returns the first failing check: issuer mismatch, validity window, then
/// signature.
pub fn verify_certificate(
    cert: &Certificate,
    authority_key: &PublicKey,
    authority_id: PrincipalId,
    now: f64,
    memo: Option<&mut CertificateMemo>,
) -> Result<(), CertError> {
    if cert.issuer != authority_id {
        return Err(CertError::UnknownIssuer);
    }
    if now < cert.not_before || now > cert.not_after {
        return Err(CertError::Expired);
    }
    let verified = match memo {
        Some(memo) => memo.signature_verifies(cert, authority_key),
        None => cert.signature_verifies(authority_key),
    };
    if verified {
        Ok(())
    } else {
        Err(CertError::BadSignature)
    }
}

/// The certificates whose CA signature has verified, each with the
/// authority key it verified under: the signature step of
/// [`verify_certificate`], remembered.
///
/// The signature covers every field of the certificate, so an entry is
/// the whole certificate (validity bounds as bits, the signature's `r` and
/// `s`) plus the authority key, and a certificate that differs from a
/// remembered one in any bit is checked in full. Only a signature that
/// verifies enters, and entries stop at [`Self::CAP`], so forged
/// certificates can never grow the memo.
///
/// # Examples
///
/// ```
/// use platoon_crypto::cert::{verify_certificate, CertificateAuthority, CertificateMemo, PrincipalId};
/// use platoon_crypto::keys::KeyPair;
///
/// let mut ca = CertificateAuthority::new(PrincipalId(0), KeyPair::from_seed(0));
/// let cert = ca.issue(PrincipalId(1), KeyPair::from_seed(1).public(), 0.0, 100.0);
/// let mut memo = CertificateMemo::new();
/// let check = |memo: &mut CertificateMemo, now| {
///     verify_certificate(&cert, &ca.public(), ca.id(), now, Some(memo))
/// };
/// assert!(check(&mut memo, 10.0).is_ok());
/// assert!(memo.contains(&cert, &ca.public()));
/// // A remembered signature does not extend the validity window.
/// assert!(check(&mut memo, 150.0).is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CertificateMemo {
    verified: BTreeSet<[u64; 8]>,
}

impl CertificateMemo {
    /// Most certificates a memo remembers. Past it, a certificate not yet
    /// remembered is checked in full at every presentation.
    pub const CAP: usize = 4096;

    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of remembered certificates.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// Whether no certificate is remembered.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }

    /// Whether `cert`'s signature is remembered as verified under
    /// `authority_key`.
    pub fn contains(&self, cert: &Certificate, authority_key: &PublicKey) -> bool {
        self.verified.contains(&Self::entry(cert, authority_key))
    }

    /// The subject first: it tells a run's certificates apart at the
    /// first word compared.
    fn entry(cert: &Certificate, authority_key: &PublicKey) -> [u64; 8] {
        [
            cert.subject.0,
            cert.public_key.element(),
            cert.not_before.to_bits(),
            cert.not_after.to_bits(),
            cert.issuer.0,
            cert.signature.r,
            cert.signature.s,
            authority_key.element(),
        ]
    }

    /// The signature step: a hit, or the full check, remembered when it
    /// passes and the memo is under its cap.
    fn signature_verifies(&mut self, cert: &Certificate, authority_key: &PublicKey) -> bool {
        let entry = Self::entry(cert, authority_key);
        if self.verified.contains(&entry) {
            return true;
        }
        let verified = cert.signature_verifies(authority_key);
        if verified && self.verified.len() < Self::CAP {
            self.verified.insert(entry);
        }
        verified
    }
}

/// A distributable certificate revocation list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RevocationList {
    revoked: HashSet<KeyId>,
}

impl RevocationList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `serial` appears on the list.
    pub fn contains(&self, serial: KeyId) -> bool {
        self.revoked.contains(&serial)
    }

    /// Number of revoked serials.
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }

    /// Merges another list into this one (RSUs gossip CRL deltas).
    pub fn merge(&mut self, other: &RevocationList) {
        self.revoked.extend(other.revoked.iter().copied());
    }

    /// Adds a single serial.
    pub fn insert(&mut self, serial: KeyId) {
        self.revoked.insert(serial);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new(PrincipalId(1000), KeyPair::from_seed(1000))
    }

    #[test]
    fn issued_cert_validates() {
        let mut ca = ca();
        let kp = KeyPair::from_seed(1);
        let cert = ca.issue(PrincipalId(1), kp.public(), 0.0, 100.0);
        assert_eq!(ca.validate(&cert, 50.0), Ok(()));
        assert_eq!(ca.issued_count(), 1);
    }

    #[test]
    fn expired_cert_rejected() {
        let mut ca = ca();
        let cert = ca.issue(PrincipalId(1), KeyPair::from_seed(1).public(), 10.0, 20.0);
        assert_eq!(ca.validate(&cert, 5.0), Err(CertError::Expired));
        assert_eq!(ca.validate(&cert, 25.0), Err(CertError::Expired));
        assert_eq!(ca.validate(&cert, 15.0), Ok(()));
    }

    #[test]
    fn revoked_cert_rejected() {
        let mut ca = ca();
        let cert = ca.issue(PrincipalId(2), KeyPair::from_seed(2).public(), 0.0, 100.0);
        let other = ca.issue(PrincipalId(3), KeyPair::from_seed(3).public(), 0.0, 100.0);
        assert!(!ca.revokes(&cert));
        ca.revoke(other.serial());
        assert!(!ca.revokes(&cert));
        ca.revoke(cert.serial());
        assert!(ca.revokes(&cert));
        assert_eq!(ca.validate(&cert, 1.0), Err(CertError::Revoked));
    }

    #[test]
    fn forged_cert_rejected_by_stateless_verify() {
        let mut ca = ca();
        let good = ca.issue(PrincipalId(3), KeyPair::from_seed(3).public(), 0.0, 100.0);
        // Attacker swaps in its own key, keeping the signature.
        let forged = Certificate {
            public_key: KeyPair::from_seed(99).public(),
            ..good
        };
        assert_eq!(
            verify_certificate(&forged, &ca.public(), ca.id(), 1.0, None),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn cert_from_wrong_issuer_rejected() {
        let mut rogue = CertificateAuthority::new(PrincipalId(666), KeyPair::from_seed(666));
        let cert = rogue.issue(PrincipalId(4), KeyPair::from_seed(4).public(), 0.0, 100.0);
        let real = ca();
        // Verifier expects the real authority id.
        assert_eq!(
            verify_certificate(&cert, &real.public(), real.id(), 1.0, None),
            Err(CertError::UnknownIssuer)
        );
        // Even claiming the right issuer id fails the signature.
        let cert2 = Certificate {
            issuer: real.id(),
            ..cert
        };
        assert_eq!(
            verify_certificate(&cert2, &real.public(), real.id(), 1.0, None),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn revocation_list_merge() {
        let mut a = RevocationList::new();
        let mut b = RevocationList::new();
        a.insert(KeyId(1));
        b.insert(KeyId(2));
        a.merge(&b);
        assert!(a.contains(KeyId(1)) && a.contains(KeyId(2)));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    /// Every single-field change a forger can make to `good`, each but the
    /// issuer's with the original signature.
    fn tampered(good: &Certificate) -> Vec<Certificate> {
        let sig = |r: u64, s: u64| Signature { r, s };
        vec![
            Certificate {
                subject: PrincipalId(good.subject.0 + 1),
                ..*good
            },
            Certificate {
                public_key: KeyPair::from_seed(99).public(),
                ..*good
            },
            Certificate {
                not_before: -1.0,
                ..*good
            },
            Certificate {
                not_after: good.not_after * 10.0,
                ..*good
            },
            Certificate {
                issuer: PrincipalId(good.issuer.0 + 1),
                ..*good
            },
            Certificate {
                signature: sig(good.signature.r ^ 1, good.signature.s),
                ..*good
            },
            Certificate {
                signature: sig(good.signature.r, good.signature.s ^ 1),
                ..*good
            },
        ]
    }

    #[test]
    fn memo_reaches_the_full_check_verdict_cold_and_warm() {
        let mut ca = ca();
        let good = ca.issue(PrincipalId(5), KeyPair::from_seed(5).public(), 0.0, 100.0);
        let mut certs = vec![good];
        certs.extend(tampered(&good));
        let other_key = KeyPair::from_seed(1001).public();
        let mut memo = CertificateMemo::new();
        for pass in 0..2 {
            for cert in &certs {
                for now in [-5.0, 0.0, 50.0, 100.0, 150.0] {
                    for key in [ca.public(), other_key] {
                        let want = verify_certificate(cert, &key, ca.id(), now, None);
                        let got = verify_certificate(cert, &key, ca.id(), now, Some(&mut memo));
                        assert_eq!(got, want, "pass {pass}, {cert:?} at {now} under {key:?}");
                    }
                }
            }
        }
        // Only the genuine certificate under its own authority's key entered.
        assert_eq!(memo.len(), 1);
        assert!(memo.contains(&good, &ca.public()));
        assert!(!memo.contains(&good, &other_key));
    }

    #[test]
    fn memo_stops_remembering_at_its_cap() {
        let mut ca = ca();
        let key = KeyPair::from_seed(7).public();
        let certs: Vec<Certificate> = (0..CertificateMemo::CAP as u64 + 3)
            .map(|subject| ca.issue(PrincipalId(subject), key, 0.0, 100.0))
            .collect();
        let mut memo = CertificateMemo::new();
        for cert in &certs {
            assert_eq!(
                verify_certificate(cert, &ca.public(), ca.id(), 1.0, Some(&mut memo)),
                Ok(())
            );
        }
        assert_eq!(memo.len(), CertificateMemo::CAP);
        let (kept, over) = certs.split_at(CertificateMemo::CAP);
        assert!(kept.iter().all(|c| memo.contains(c, &ca.public())));
        // Past the cap a certificate is checked in full every time: still
        // accepted, still not remembered, and forgeries of it still fail.
        for cert in over {
            assert_eq!(
                verify_certificate(cert, &ca.public(), ca.id(), 1.0, Some(&mut memo)),
                Ok(())
            );
            assert!(!memo.contains(cert, &ca.public()));
            for forged in tampered(cert) {
                assert!(
                    verify_certificate(&forged, &ca.public(), ca.id(), 1.0, Some(&mut memo))
                        .is_err()
                );
            }
        }
        assert_eq!(memo.len(), CertificateMemo::CAP);
    }

    #[test]
    fn subject_tamper_detected() {
        let mut ca = ca();
        let good = ca.issue(PrincipalId(5), KeyPair::from_seed(5).public(), 0.0, 100.0);
        let forged = Certificate {
            subject: PrincipalId(6),
            ..good
        };
        assert_eq!(
            verify_certificate(&forged, &ca.public(), ca.id(), 1.0, None),
            Err(CertError::BadSignature)
        );
    }
}
