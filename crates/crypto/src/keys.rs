//! Key material: symmetric keys, signing key pairs and key identifiers.
//!
//! These types are deliberately small and `Copy`-friendly so the simulation
//! can hand them around freely; the security-relevant invariant is that a
//! [`SecretKey`] never appears in any wire format produced by
//! [`platoon-proto`](https://docs.rs/platoon-proto) — only [`PublicKey`]s and
//! MAC tags do.

use crate::group;
use crate::sha256::Sha256;
use rand::Rng;
use std::fmt;

/// A 256-bit symmetric key, used with [`crate::hmac`].
///
/// # Examples
///
/// ```
/// use platoon_crypto::keys::SymmetricKey;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let k = SymmetricKey::generate(&mut rng);
/// assert_eq!(k.as_bytes().len(), 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymmetricKey([u8; 32]);

impl SymmetricKey {
    /// Creates a key from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SymmetricKey(bytes)
    }

    /// Draws a fresh random key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes);
        SymmetricKey(bytes)
    }

    /// Derives a key deterministically from input keying material and a label.
    pub fn derive(ikm: &[u8], label: &str) -> Self {
        SymmetricKey(crate::hmac::derive_keys(ikm, label, 1)[0])
    }

    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A short non-secret fingerprint for logging and key lookup.
    pub fn fingerprint(&self) -> u64 {
        Sha256::digest(&self.0).to_u64()
    }
}

impl fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key bytes.
        write!(f, "SymmetricKey(fp={:016x})", self.fingerprint())
    }
}

/// Identifier for a principal's long-term or pseudonymous key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

impl fmt::Debug for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyId({:016x})", self.0)
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A Schnorr public key: the group element `g^x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub(crate) u64);

impl PublicKey {
    /// Reconstructs a public key from its raw group element (wire decoding).
    ///
    /// Any `u64` is accepted; verification against a key that is not a real
    /// group power simply fails.
    pub fn from_element(element: u64) -> Self {
        PublicKey(element)
    }

    /// Returns the raw group element.
    pub fn element(&self) -> u64 {
        self.0
    }

    /// Stable identifier derived from the key material.
    pub fn id(&self) -> KeyId {
        KeyId(Sha256::digest(&self.0.to_be_bytes()).to_u64())
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:#x})", self.0)
    }
}

/// A Schnorr secret scalar `x`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub(crate) u64);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A signing key pair.
///
/// # Examples
///
/// ```
/// use platoon_crypto::keys::KeyPair;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let kp = KeyPair::generate(&mut rng);
/// assert_ne!(kp.public().element(), 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Draws a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Avoid degenerate exponents 0 and 1.
        let x = rng.gen_range(2..group::GROUP_ORDER);
        Self::from_secret_scalar(x)
    }

    /// Deterministically derives a key pair from a seed (test scaffolding and
    /// reproducible scenarios).
    pub fn from_seed(seed: u64) -> Self {
        let d = Sha256::digest_parts(&[b"platoon-keypair", &seed.to_be_bytes()]);
        let x = group::reduce_exp(d.to_u64()).max(2);
        Self::from_secret_scalar(x)
    }

    fn from_secret_scalar(x: u64) -> Self {
        KeyPair {
            secret: SecretKey(x),
            public: PublicKey(group::pow_g(x)),
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The secret half. Kept crate-internal use narrow: only the signer needs it.
    pub fn secret(&self) -> SecretKey {
        self.secret
    }

    /// Identifier of this key pair (the public key's id).
    pub fn id(&self) -> KeyId {
        self.public.id()
    }
}

/// Hash arbitrary context into a `KeyId`, e.g. for pseudonym labelling.
pub fn key_id_from_context(parts: &[&[u8]]) -> KeyId {
    KeyId(Sha256::digest_parts(parts).to_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_keys_differ() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_ne!(a.public(), b.public());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(
            KeyPair::from_seed(9).public(),
            KeyPair::from_seed(9).public()
        );
        assert_ne!(
            KeyPair::from_seed(9).public(),
            KeyPair::from_seed(10).public()
        );
    }

    #[test]
    fn public_key_is_group_power_of_secret() {
        let kp = KeyPair::from_seed(3);
        assert_eq!(kp.public().element(), group::pow(group::G, kp.secret().0));
    }

    /// Public elements computed by square-and-multiply over `u128 %`, before
    /// the fixed-base table and Mersenne folding.
    #[test]
    fn from_seed_known_answers() {
        for (seed, element) in [
            (0, 0x0f3e_3971_a9f7_b9d5),
            (1, 0x1d77_2e98_452f_3fc3),
            (7, 0x11af_b298_d76e_567c),
            (42, 0x1bbb_da88_ad09_6320),
            (2021, 0x124e_8077_be44_f078),
            (u64::MAX, 0x1515_b6c3_0d81_f8fe),
        ] {
            assert_eq!(
                KeyPair::from_seed(seed).public().element(),
                element,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn symmetric_key_derive_deterministic_and_label_sensitive() {
        let a = SymmetricKey::derive(b"ikm", "beacon");
        let b = SymmetricKey::derive(b"ikm", "beacon");
        let c = SymmetricKey::derive(b"ikm", "other");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn debug_never_leaks_secret_material() {
        let mut rng = StdRng::seed_from_u64(1);
        let k = SymmetricKey::generate(&mut rng);
        let dbg = format!("{k:?}");
        assert!(dbg.contains("fp="));
        let kp = KeyPair::generate(&mut rng);
        assert_eq!(format!("{:?}", kp.secret()), "SecretKey(<redacted>)");
    }

    #[test]
    fn key_id_from_context_varies_with_parts() {
        let a = key_id_from_context(&[b"a", b"b"]);
        let b = key_id_from_context(&[b"ab"]);
        // Parts are hashed as a concatenation; same bytes hash equal.
        assert_eq!(a, b);
        assert_ne!(a, key_id_from_context(&[b"ac"]));
    }
}
