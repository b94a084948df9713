//! Integration: the full wire path, from outside the crate.
//!
//! Every message variant must round-trip through every envelope scheme, and
//! every malformed frame — truncated at any length, or with any single byte
//! flipped — must either fail to decode or fail authentication. Signatures
//! are computed over the exact wire bytes, so a codec asymmetry anywhere in
//! this matrix would silently weaken message authentication.

use platoon_crypto::cert::{Certificate, CertificateAuthority, PrincipalId};
use platoon_crypto::keys::{KeyPair, SymmetricKey};
use platoon_crypto::signature::Signer;
use platoon_proto::prelude::*;

fn every_message() -> Vec<PlatoonMessage> {
    vec![
        PlatoonMessage::Beacon(Beacon {
            sender: PrincipalId(11),
            platoon: PlatoonId(3),
            role: Role::Leader,
            seq: 1_000_000,
            timestamp: 99.75,
            position: 1234.5,
            speed: 31.25,
            accel: -1.5,
            length: 16.5,
        }),
        PlatoonMessage::JoinRequest {
            requester: PrincipalId(12),
            platoon: PlatoonId(3),
            position: 1100.0,
            timestamp: 10.0,
        },
        PlatoonMessage::JoinAccept {
            requester: PrincipalId(12),
            platoon: PlatoonId(3),
            slot: 5,
            timestamp: 10.2,
        },
        PlatoonMessage::JoinDeny {
            requester: PrincipalId(12),
            platoon: PlatoonId(3),
            reason: JoinReject::Busy,
            timestamp: 10.2,
        },
        PlatoonMessage::LeaveRequest {
            member: PrincipalId(13),
            platoon: PlatoonId(3),
            timestamp: 40.0,
        },
        PlatoonMessage::LeaveAck {
            member: PrincipalId(13),
            platoon: PlatoonId(3),
            timestamp: 40.1,
        },
        PlatoonMessage::SplitCommand {
            platoon: PlatoonId(3),
            at_index: 2,
            new_platoon: PlatoonId(4),
            timestamp: 55.0,
        },
        PlatoonMessage::GapOpen {
            platoon: PlatoonId(3),
            slot: 1,
            extra_gap: 18.0,
            timestamp: 56.0,
        },
    ]
}

fn authority() -> (CertificateAuthority, Signer, Certificate) {
    let mut ca = CertificateAuthority::new(PrincipalId(900), KeyPair::from_seed(900));
    let kp = KeyPair::from_seed(11);
    let cert = ca.issue(PrincipalId(11), kp.public(), 0.0, 500.0);
    (ca, Signer::new(kp), cert)
}

#[test]
fn every_variant_roundtrips_bare() {
    for msg in every_message() {
        let bytes = msg.encode();
        assert_eq!(PlatoonMessage::decode(&bytes).unwrap(), msg);
        // Canonical: re-encoding the decoded message gives the same bytes.
        assert_eq!(PlatoonMessage::decode(&bytes).unwrap().encode(), bytes);
    }
}

#[test]
fn every_variant_roundtrips_in_every_envelope_scheme() {
    let (ca, signer, cert) = authority();
    let key = SymmetricKey::derive(b"integration", "grp");
    for (nonce, msg) in every_message().into_iter().enumerate() {
        let envs = vec![
            Envelope::plain(PrincipalId(11), &msg),
            Envelope::mac(PrincipalId(11), &msg, &key),
            Envelope::seal_encrypted(PrincipalId(11), &msg, &key, nonce as u64),
            Envelope::sign(PrincipalId(11), &msg, &signer, cert),
        ];
        for env in envs {
            let back = Envelope::decode(&env.encode()).unwrap();
            assert_eq!(back, env);
            let opened = match &back.auth {
                AuthScheme::Plain => back.open_unverified().unwrap(),
                AuthScheme::GroupMac { .. } => back.verify_mac(&key).unwrap(),
                AuthScheme::EncryptedGroupMac { .. } => back.open_encrypted(&key).unwrap(),
                AuthScheme::Signed { .. } => {
                    back.verify_signed(&ca.public(), ca.id(), 50.0).unwrap()
                }
            };
            assert_eq!(opened, msg);
        }
    }
}

#[test]
fn truncated_frames_rejected_at_every_cut() {
    let (_, signer, cert) = authority();
    let key = SymmetricKey::derive(b"integration", "grp");
    let msg = &every_message()[0];
    for env in [
        Envelope::plain(PrincipalId(11), msg),
        Envelope::mac(PrincipalId(11), msg, &key),
        Envelope::seal_encrypted(PrincipalId(11), msg, &key, 1),
        Envelope::sign(PrincipalId(11), msg, &signer, cert),
    ] {
        let bytes = env.encode();
        for cut in 0..bytes.len() {
            assert!(
                Envelope::decode(&bytes[..cut]).is_err(),
                "truncated frame of {} bytes decoded at cut {cut}",
                bytes.len()
            );
        }
    }
}

/// The corruptions [`corrupted_authenticated_frames_never_verify`] applies
/// to each byte: single low, middle and high bits, a nibble, the whole byte.
const FLIP_MASKS: [u8; 5] = [0x01, 0x40, 0x80, 0x0f, 0xff];

/// Flip each byte of every message's frame in every scheme, under each of
/// [`FLIP_MASKS`]. A corrupted authenticated frame must fail decode or fail
/// verification — never verify to a different message — and fail the
/// check-only function too. (A corrupted *plain* frame may legitimately
/// decode; plain is the undefended baseline and carries no integrity
/// claim.) Every corrupted frame that decodes, plain ones included, must
/// re-encode to exactly its own bytes: the wire format is canonical, so a
/// receiver may keep and relay the bytes it received instead of
/// re-encoding what it decoded.
#[test]
fn corrupted_authenticated_frames_never_verify() {
    let (ca, signer, cert) = authority();
    let key = SymmetricKey::derive(b"integration", "grp");
    // Runs the original frame's scheme check on `env`, in its one-call
    // (verify and open) and check-only forms; plain frames have none.
    let verdicts = |scheme: &AuthScheme, env: &Envelope| match scheme {
        AuthScheme::Plain => None,
        AuthScheme::GroupMac { .. } => {
            Some((env.verify_mac(&key).is_ok(), env.check_mac(&key).is_ok()))
        }
        AuthScheme::EncryptedGroupMac { .. } => Some((
            env.open_encrypted(&key).is_ok(),
            env.check_encrypted(&key).is_ok(),
        )),
        AuthScheme::Signed { .. } => Some((
            env.verify_signed(&ca.public(), ca.id(), 50.0).is_ok(),
            env.check_signed(&ca.public(), ca.id(), 50.0, None).is_ok(),
        )),
    };
    let mut decoded = 0;
    for (nonce, msg) in every_message().iter().enumerate() {
        for original in [
            Envelope::plain(PrincipalId(11), msg),
            Envelope::mac(PrincipalId(11), msg, &key),
            Envelope::seal_encrypted(PrincipalId(11), msg, &key, nonce as u64),
            Envelope::sign(PrincipalId(11), msg, &signer, cert),
        ] {
            let scheme = &original.auth;
            assert!(matches!(
                verdicts(scheme, &original),
                None | Some((true, true))
            ));
            let frame = original.encode();
            for i in 0..frame.len() {
                for mask in FLIP_MASKS {
                    let mut bytes = frame.clone();
                    bytes[i] ^= mask;
                    let Ok(env) = Envelope::decode(&bytes) else {
                        continue;
                    };
                    decoded += 1;
                    let at = || format!("{scheme:?} frame of {msg:?}, byte {i}, mask {mask:#04x}");
                    assert_eq!(env.encode(), bytes, "{}: re-encodes to other bytes", at());
                    assert!(
                        matches!(verdicts(scheme, &env), None | Some((false, false))),
                        "{}: corrupted frame verifies",
                        at()
                    );
                }
            }
        }
    }
    assert!(decoded > 0, "some corrupted frames must decode");
}

#[test]
fn unknown_message_and_scheme_tags_rejected() {
    for tag in 9u8..=255 {
        let err = PlatoonMessage::decode(&[tag]).unwrap_err();
        assert!(
            matches!(err, DecodeError::BadTag { .. }),
            "message tag {tag}"
        );
    }
    // Envelope: sender (8 bytes) then an unknown scheme tag.
    let mut frame = vec![0u8; 8];
    frame.push(200);
    assert!(matches!(
        Envelope::decode(&frame),
        Err(DecodeError::BadTag { tag: 200, .. })
    ));
}
