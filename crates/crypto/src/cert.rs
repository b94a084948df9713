//! Certificates, a certificate authority, and revocation.
//!
//! Models the IEEE 1609.2-style credential hierarchy the paper assumes for
//! the "Public Keys" and "Roadside Units" mechanisms of Table III: a trusted
//! authority (TA) issues certificates binding a vehicle identity to a public
//! key; RSUs and platoon leaders verify certificates before admitting a
//! vehicle; the TA revokes certificates of misbehaving or compromised
//! vehicles (the impersonation and Sybil defenses both hinge on this).

use crate::keys::{KeyId, KeyPair, PublicKey};
use crate::signature::{Signature, Signer};
use std::collections::HashSet;
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

    /// A snapshot of the revocation list (e.g. for distribution via RSUs).
    pub fn revocation_list(&self) -> RevocationList {
        RevocationList {
            revoked: self.revoked.clone(),
        }
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
        verify_certificate(cert, &self.public(), self.id, now)
    }
}

/// Stateless certificate verification against a known authority key.
///
/// This is what vehicles and RSUs run: they know the TA's public key and the
/// latest revocation list they fetched, and check certificates locally.
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
) -> Result<(), CertError> {
    if cert.issuer != authority_id {
        return Err(CertError::UnknownIssuer);
    }
    if now < cert.not_before || now > cert.not_after {
        return Err(CertError::Expired);
    }
    let tbs = Certificate::to_be_signed(
        cert.subject,
        &cert.public_key,
        cert.not_before,
        cert.not_after,
        cert.issuer,
    );
    if cert.signature.verify(authority_key, &tbs) {
        Ok(())
    } else {
        Err(CertError::BadSignature)
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
            verify_certificate(&forged, &ca.public(), ca.id(), 1.0),
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
            verify_certificate(&cert, &real.public(), real.id(), 1.0),
            Err(CertError::UnknownIssuer)
        );
        // Even claiming the right issuer id fails the signature.
        let cert2 = Certificate {
            issuer: real.id(),
            ..cert
        };
        assert_eq!(
            verify_certificate(&cert2, &real.public(), real.id(), 1.0),
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

    #[test]
    fn subject_tamper_detected() {
        let mut ca = ca();
        let good = ca.issue(PrincipalId(5), KeyPair::from_seed(5).public(), 0.0, 100.0);
        let forged = Certificate {
            subject: PrincipalId(6),
            ..good
        };
        assert_eq!(
            verify_certificate(&forged, &ca.public(), ca.id(), 1.0),
            Err(CertError::BadSignature)
        );
    }
}
