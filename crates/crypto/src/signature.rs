//! Schnorr-style digital signatures over the group in [`crate::group`].
//!
//! Signatures are the backbone of the "public keys" row of the paper's
//! Table III: signed beacons and manoeuvre messages defeat impersonation,
//! Sybil ghosts and fake-manoeuvre injection, because the attacker cannot
//! produce a valid signature for an identity whose secret key it does not
//! hold. The scheme is the textbook Schnorr construction:
//!
//! ```text
//! sign(x, m):   k ← random;  r = g^k;  e = H(r ‖ m);  s = k + e·x  (mod group order)
//! verify(y, m): g^s == r · y^e
//! ```
//!
//! # Examples
//!
//! ```
//! use platoon_crypto::{keys::KeyPair, signature::Signer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let kp = KeyPair::generate(&mut rng);
//! let sig = Signer::new(kp).sign(b"JOIN_REQUEST", &mut rng);
//! assert!(sig.verify(&kp.public(), b"JOIN_REQUEST"));
//! assert!(!sig.verify(&kp.public(), b"JOIN_REQUEST tampered"));
//! ```

use crate::group;
use crate::keys::{KeyPair, PublicKey};
use crate::sha256::Sha256;
use rand::Rng;

/// A Schnorr signature `(r, s)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Commitment `g^k`.
    pub r: u64,
    /// Response `k + e·x mod (p-1)`.
    pub s: u64,
}

impl Signature {
    /// Verifies the signature on `message` under `public`.
    ///
    /// Returns `false` for any tampering of message, key or signature.
    pub fn verify(&self, public: &PublicKey, message: &[u8]) -> bool {
        let e = challenge(self.r, message);
        let lhs = group::pow_g(self.s);
        let rhs = group::mul(self.r, group::pow(public.element(), e));
        lhs == rhs
    }

    /// Serialises the signature to its 16-byte wire form.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.r.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a signature from its 16-byte wire form.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        Signature {
            r: u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")),
            s: u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

/// Derives the Fiat–Shamir challenge `e = H(r ‖ m)` as an exponent.
fn challenge(r: u64, message: &[u8]) -> u64 {
    let d = Sha256::digest_parts(&[b"platoon-schnorr", &r.to_be_bytes(), message]);
    group::reduce_exp(d.to_u64())
}

/// A signing context owning a key pair.
#[derive(Clone, Copy, Debug)]
pub struct Signer {
    keypair: KeyPair,
}

impl Signer {
    /// Wraps a key pair for signing.
    pub fn new(keypair: KeyPair) -> Self {
        Signer { keypair }
    }

    /// The verifying key corresponding to this signer.
    pub fn public(&self) -> PublicKey {
        self.keypair.public()
    }

    /// Signs `message` with a random nonce drawn from `rng`.
    pub fn sign<R: Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> Signature {
        let k = rng.gen_range(1..group::GROUP_ORDER);
        self.sign_with_nonce(message, k)
    }

    /// Deterministic signing for reproducible scenarios: the nonce is derived
    /// from the secret key and message (RFC 6979-style, simulation grade).
    pub fn sign_deterministic(&self, message: &[u8]) -> Signature {
        let d = Sha256::digest_parts(&[
            b"platoon-schnorr-nonce",
            &self.keypair.secret().0.to_be_bytes(),
            message,
        ]);
        let k = group::reduce_exp(d.to_u64()).max(1);
        self.sign_with_nonce(message, k)
    }

    fn sign_with_nonce(&self, message: &[u8], k: u64) -> Signature {
        let r = group::pow_g(k);
        let e = challenge(r, message);
        let s = group::add_exp(k, group::mul_exp(e, self.keypair.secret().0));
        Signature { r, s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn signer(seed: u64) -> Signer {
        Signer::new(KeyPair::from_seed(seed))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = signer(1);
        for msg in [&b"a"[..], b"", b"beacon: v=25.0 x=132.2", &[0xff; 200]] {
            let sig = s.sign(msg, &mut rng);
            assert!(sig.verify(&s.public(), msg));
        }
    }

    #[test]
    fn tampered_message_fails() {
        let s = signer(2);
        let sig = s.sign_deterministic(b"SPLIT at t=10");
        assert!(!sig.verify(&s.public(), b"SPLIT at t=11"));
    }

    #[test]
    fn wrong_key_fails() {
        let s = signer(3);
        let other = signer(4);
        let sig = s.sign_deterministic(b"msg");
        assert!(!sig.verify(&other.public(), b"msg"));
    }

    #[test]
    fn tampered_signature_fails() {
        let s = signer(5);
        let sig = s.sign_deterministic(b"msg");
        let bad_r = Signature {
            r: sig.r ^ 1,
            ..sig
        };
        let bad_s = Signature {
            s: sig.s ^ 1,
            ..sig
        };
        assert!(!bad_r.verify(&s.public(), b"msg"));
        assert!(!bad_s.verify(&s.public(), b"msg"));
    }

    #[test]
    fn deterministic_signatures_are_stable() {
        let s = signer(6);
        assert_eq!(s.sign_deterministic(b"m"), s.sign_deterministic(b"m"));
        assert_ne!(s.sign_deterministic(b"m"), s.sign_deterministic(b"n"));
    }

    /// `(r, s)` computed by square-and-multiply over `u128 %`, before the
    /// fixed-base table and Mersenne folding.
    #[test]
    fn sign_deterministic_known_answers() {
        let long = [0xff; 200];
        let cases: [(u64, &[u8], u64, u64); 8] = [
            (1, b"", 0x1e67_dd01_bca4_13f0, 0x1479_4499_8aeb_3aa0),
            (
                1,
                b"SPLIT after member 3",
                0x02c5_15e0_9e1f_3db5,
                0x06bb_a36c_1c62_1902,
            ),
            (1, &long, 0x1342_42ce_40aa_043e, 0x1643_f04b_c812_7d2a),
            (42, b"", 0x0f17_6479_4251_abb4, 0x1652_7364_23fe_2b6c),
            (
                42,
                b"beacon: v=25.0 x=132.2",
                0x17c7_7b4b_845e_5f4b,
                0x0c7c_b6aa_3506_b9a6,
            ),
            (
                2021,
                b"SPLIT after member 3",
                0x04a5_e5c9_1e9b_1918,
                0x1c5a_b986_0166_e05c,
            ),
            (
                2021,
                b"beacon: v=25.0 x=132.2",
                0x10f5_73d7_079f_cd59,
                0x0f9a_6c0b_7da3_9b29,
            ),
            (2021, &long, 0x1632_e944_dcb5_b7ab, 0x188f_815a_5eb6_b796),
        ];
        for (seed, msg, r, s) in cases {
            let signer = signer(seed);
            let sig = signer.sign_deterministic(msg);
            assert_eq!(sig, Signature { r, s }, "seed {seed}, {} bytes", msg.len());
            assert!(sig.verify(&signer.public(), msg));
        }
    }

    #[test]
    fn wire_roundtrip() {
        let s = signer(7);
        let sig = s.sign_deterministic(b"wire");
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), sig);
    }

    #[test]
    fn random_nonces_give_distinct_signatures_for_same_message() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = signer(8);
        let a = s.sign(b"m", &mut rng);
        let b = s.sign(b"m", &mut rng);
        assert_ne!(a, b);
        assert!(a.verify(&s.public(), b"m"));
        assert!(b.verify(&s.public(), b"m"));
    }
}
