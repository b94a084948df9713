//! Fading-channel secret key agreement (Li et al. \[5\], \[9\] in the paper).
//!
//! The "secret keys" row of Table III cites a platoon-specific key agreement
//! scheme that exploits *reciprocity* of the wireless channel: the multipath
//! fading between vehicles A and B is (nearly) identical in both directions,
//! while an eavesdropper E more than half a wavelength away observes an
//! (almost) independent channel. Both ends quantise a sequence of channel
//! gain measurements into bits and reconcile; E's measurements decorrelate
//! and its guessed key diverges.
//!
//! This module models the channel-probing physics statistically:
//!
//! * A and B draw gain samples from a shared latent fading process plus
//!   independent measurement noise (controlled by `reciprocity`).
//! * E draws from a process whose correlation with the legitimate one decays
//!   with normalised distance (`eavesdropper_correlation`).
//! * Samples are quantised around the running median with a guard band;
//!   samples inside the band are *censored* (index publicly discarded), which
//!   is exactly the published scheme's mechanism for lowering bit mismatch.
//!
//! Experiment F7 sweeps eavesdropper distance and reports legitimate vs
//! eavesdropper bit-mismatch rates, reproducing the qualitative claim of \[5\].

use crate::hmac::derive_keys;
use crate::keys::SymmetricKey;
use rand::Rng;

/// Parameters of the channel-probing key agreement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FadingKeyAgreementConfig {
    /// Number of channel probes (before censoring).
    pub probes: usize,
    /// Correlation of A's and B's measurements of the same probe, in `[0, 1]`.
    /// 1.0 = perfectly reciprocal channel; values ≥ 0.95 are realistic for
    /// probing within the channel coherence time.
    pub reciprocity: f64,
    /// Correlation of the eavesdropper's measurement with the legitimate
    /// channel, in `[0, 1]`. Decays quickly beyond half a wavelength
    /// (~6 cm at 5.9 GHz); use [`eavesdropper_correlation`] to derive it
    /// from distance.
    pub eavesdropper_correlation: f64,
    /// Guard band half-width in standard deviations; probes whose gain falls
    /// within ±band of the median are censored.
    pub guard_band: f64,
}

impl Default for FadingKeyAgreementConfig {
    fn default() -> Self {
        FadingKeyAgreementConfig {
            probes: 512,
            reciprocity: 0.98,
            eavesdropper_correlation: 0.05,
            guard_band: 0.25,
        }
    }
}

/// Maps eavesdropper distance (in carrier wavelengths) from the legitimate
/// receiver to a channel correlation, using the Jakes-model rule of thumb
/// that correlation ≈ 0 beyond λ/2.
///
/// # Examples
///
/// ```
/// use platoon_crypto::key_agreement::eavesdropper_correlation;
///
/// assert!(eavesdropper_correlation(0.0) > 0.99);
/// assert!(eavesdropper_correlation(0.5) < 0.1);
/// assert!(eavesdropper_correlation(10.0) < 0.01);
/// ```
pub fn eavesdropper_correlation(distance_wavelengths: f64) -> f64 {
    // Squared-exponential decay calibrated so that λ/2 → ~0.08.
    (-(distance_wavelengths / 0.2).powi(2) / 2.0).exp()
}

/// Result of one key agreement run.
#[derive(Clone, Debug, PartialEq)]
pub struct AgreementOutcome {
    /// Bits extracted by vehicle A (after censoring).
    pub bits_a: Vec<bool>,
    /// Bits extracted by vehicle B.
    pub bits_b: Vec<bool>,
    /// Bits guessed by the eavesdropper.
    pub bits_eve: Vec<bool>,
    /// Fraction of probes censored by the guard band.
    pub censored_fraction: f64,
}

impl AgreementOutcome {
    /// Bit-mismatch rate between the legitimate parties.
    pub fn legitimate_mismatch(&self) -> f64 {
        mismatch(&self.bits_a, &self.bits_b)
    }

    /// Bit-mismatch rate between A and the eavesdropper (0.5 = no knowledge).
    pub fn eavesdropper_mismatch(&self) -> f64 {
        mismatch(&self.bits_a, &self.bits_eve)
    }

    /// Runs parity-based reconciliation: blocks of `block` bits whose parity
    /// differs between A and B are discarded on both sides (parities are
    /// exchanged publicly, as in the published scheme).
    ///
    /// Cascade-style, the pass is repeated with the block boundary shifted
    /// by half a block each round until a full pass finds no mismatching
    /// parity. A single pass misses blocks holding an *even* number of bit
    /// errors; the shifted partition splits such pairs across two blocks,
    /// so surviving disagreement after convergence needs ever-larger error
    /// constellations and is vanishingly rare at realistic reciprocity.
    ///
    /// Returns `(key_a, key_b)` as bit vectors.
    pub fn reconcile(&self, block: usize) -> (Vec<bool>, Vec<bool>) {
        assert!(block > 0, "block must be positive");
        let mut ka = self.bits_a.clone();
        let mut kb = self.bits_b.clone();
        let offsets = [0, block / 2];
        let mut round = 0usize;
        let mut consecutive_clean = 0usize;
        loop {
            let offset = offsets[round % offsets.len()] % block.max(1);
            let mut next_a = Vec::with_capacity(ka.len());
            let mut next_b = Vec::with_capacity(kb.len());
            let mut dropped = false;
            let mut start = 0usize;
            while start < ka.len() {
                let end = if start == 0 && offset > 0 {
                    offset.min(ka.len())
                } else {
                    (start + block).min(ka.len())
                };
                let (ca, cb) = (&ka[start..end], &kb[start..end]);
                let pa = ca.iter().filter(|&&b| b).count() % 2;
                let pb = cb.iter().filter(|&&b| b).count() % 2;
                if pa == pb {
                    next_a.extend_from_slice(ca);
                    next_b.extend_from_slice(cb);
                } else {
                    dropped = true;
                }
                start = end;
            }
            ka = next_a;
            kb = next_b;
            round += 1;
            consecutive_clean = if dropped { 0 } else { consecutive_clean + 1 };
            // Converged: one clean pass at every offset in a row. Rounds are
            // bounded because every non-clean round drops at least a block.
            if consecutive_clean >= offsets.len() || ka.is_empty() {
                break;
            }
        }
        (ka, kb)
    }

    /// Derives a symmetric key from an agreed bit vector (privacy
    /// amplification via the KDF).
    pub fn to_symmetric_key(bits: &[bool]) -> SymmetricKey {
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        SymmetricKey::from_bytes(derive_keys(&bytes, "fading-key", 1)[0])
    }
}

fn mismatch(a: &[bool], b: &[bool]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let n = a.len().min(b.len());
    let diff = a[..n].iter().zip(&b[..n]).filter(|(x, y)| x != y).count();
    diff as f64 / n as f64
}

/// Runs the probing + quantisation phase of the key agreement.
pub fn run_agreement<R: Rng + ?Sized>(
    config: &FadingKeyAgreementConfig,
    rng: &mut R,
) -> AgreementOutcome {
    assert!(config.probes > 0, "need at least one probe");
    assert!(
        (0.0..=1.0).contains(&config.reciprocity),
        "reciprocity must be in [0,1]"
    );
    assert!(
        (0.0..=1.0).contains(&config.eavesdropper_correlation),
        "eavesdropper_correlation must be in [0,1]"
    );

    // Correlated Gaussian draws: obs = ρ·latent + sqrt(1-ρ²)·noise.
    let gauss = |rng: &mut R| -> f64 {
        // Box-Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };

    let mut latent = Vec::with_capacity(config.probes);
    let mut obs_a = Vec::with_capacity(config.probes);
    let mut obs_b = Vec::with_capacity(config.probes);
    let mut obs_e = Vec::with_capacity(config.probes);
    let rho = config.reciprocity;
    let rho_e = config.eavesdropper_correlation;
    for _ in 0..config.probes {
        let h = gauss(rng);
        latent.push(h);
        obs_a.push(rho * h + (1.0 - rho * rho).sqrt() * gauss(rng));
        obs_b.push(rho * h + (1.0 - rho * rho).sqrt() * gauss(rng));
        obs_e.push(rho_e * h + (1.0 - rho_e * rho_e).sqrt() * gauss(rng));
    }

    // Censoring decision is made on A's samples and shared publicly (index
    // list), as in the published protocol; B and E use the same index list.
    let mean_a = obs_a.iter().sum::<f64>() / obs_a.len() as f64;
    let band = config.guard_band;
    let mut bits_a = Vec::new();
    let mut bits_b = Vec::new();
    let mut bits_e = Vec::new();
    let mut censored = 0usize;
    for i in 0..config.probes {
        if (obs_a[i] - mean_a).abs() < band {
            censored += 1;
            continue;
        }
        bits_a.push(obs_a[i] > mean_a);
        bits_b.push(obs_b[i] > mean_a);
        bits_e.push(obs_e[i] > mean_a);
    }

    AgreementOutcome {
        bits_a,
        bits_b,
        bits_eve: bits_e,
        censored_fraction: censored as f64 / config.probes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(config: FadingKeyAgreementConfig, seed: u64) -> AgreementOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        run_agreement(&config, &mut rng)
    }

    #[test]
    fn legitimate_parties_mostly_agree() {
        let out = run(FadingKeyAgreementConfig::default(), 1);
        assert!(
            out.legitimate_mismatch() < 0.10,
            "legit mismatch too high: {}",
            out.legitimate_mismatch()
        );
    }

    #[test]
    fn eavesdropper_learns_almost_nothing() {
        let out = run(FadingKeyAgreementConfig::default(), 2);
        let eve = out.eavesdropper_mismatch();
        assert!(
            (0.35..=0.65).contains(&eve),
            "eve mismatch should be near 0.5, got {eve}"
        );
    }

    #[test]
    fn close_eavesdropper_gains_advantage() {
        let far = run(FadingKeyAgreementConfig::default(), 3).eavesdropper_mismatch();
        let close_cfg = FadingKeyAgreementConfig {
            eavesdropper_correlation: 0.95,
            ..Default::default()
        };
        let close = run(close_cfg, 3).eavesdropper_mismatch();
        assert!(
            close < far,
            "closer eavesdropper should mismatch less: close={close}, far={far}"
        );
        assert!(close < 0.25);
    }

    #[test]
    fn guard_band_reduces_legitimate_mismatch() {
        let no_band = FadingKeyAgreementConfig {
            guard_band: 0.0,
            reciprocity: 0.9,
            ..Default::default()
        };
        let wide_band = FadingKeyAgreementConfig {
            guard_band: 0.8,
            reciprocity: 0.9,
            ..Default::default()
        };
        let a = run(no_band, 4).legitimate_mismatch();
        let b = run(wide_band, 4).legitimate_mismatch();
        assert!(b < a, "guard band must lower mismatch: {b} !< {a}");
    }

    #[test]
    fn reconciliation_improves_agreement() {
        let cfg = FadingKeyAgreementConfig {
            reciprocity: 0.93,
            ..Default::default()
        };
        let out = run(cfg, 5);
        let raw = out.legitimate_mismatch();
        let (ka, kb) = out.reconcile(4);
        let rec = mismatch(&ka, &kb);
        assert!(rec <= raw, "reconciled {rec} !<= raw {raw}");
        assert!(!ka.is_empty());
    }

    #[test]
    fn symmetric_key_derivation_is_deterministic_on_bits() {
        let bits = vec![true, false, true, true, false, false, true, false, true];
        let k1 = AgreementOutcome::to_symmetric_key(&bits);
        let k2 = AgreementOutcome::to_symmetric_key(&bits);
        assert_eq!(k1, k2);
        let mut flipped = bits.clone();
        flipped[0] = false;
        assert_ne!(k1, AgreementOutcome::to_symmetric_key(&flipped));
    }

    #[test]
    fn correlation_decays_with_distance() {
        let mut last = f64::INFINITY;
        for d in [0.0, 0.1, 0.2, 0.5, 1.0, 2.0] {
            let c = eavesdropper_correlation(d);
            assert!(c <= last, "correlation must be non-increasing");
            assert!((0.0..=1.0).contains(&c));
            last = c;
        }
    }

    #[test]
    fn censoring_fraction_grows_with_band() {
        let narrow = run(
            FadingKeyAgreementConfig {
                guard_band: 0.1,
                ..Default::default()
            },
            6,
        );
        let wide = run(
            FadingKeyAgreementConfig {
                guard_band: 1.0,
                ..Default::default()
            },
            6,
        );
        assert!(wide.censored_fraction > narrow.censored_fraction);
    }

    #[test]
    #[should_panic(expected = "probe")]
    fn zero_probes_panics() {
        let cfg = FadingKeyAgreementConfig {
            probes: 0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        run_agreement(&cfg, &mut rng);
    }
}
