//! DSRC radio propagation: log-distance path loss with Nakagami-m fading and
//! SINR-based reception, the standard highway V2V channel model (as used in
//! Veins, the network simulator underlying Plexe \[39\]).

use rand::Rng;

/// Physical-layer parameters of the 5.9 GHz DSRC channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DsrcPhy {
    /// Bit rate in bits/s (802.11p default data rate is 6 Mb/s).
    pub bitrate: f64,
    /// Path-loss exponent (highway LOS ≈ 2.0–2.5).
    pub path_loss_exponent: f64,
    /// Path loss at the 1 m reference distance, dB (≈ 47.86 dB at 5.9 GHz
    /// free space).
    pub reference_loss_db: f64,
    /// Nakagami fading shape parameter m (m = 3 near, m = 1 ⇒ Rayleigh far).
    pub nakagami_m: f64,
    /// Thermal noise floor in dBm for a 10 MHz channel (≈ −104 dBm + NF).
    pub noise_floor_dbm: f64,
    /// Minimum SINR in dB for successful decoding at the default rate.
    pub sinr_threshold_db: f64,
    /// Default transmit power in dBm.
    pub default_tx_power_dbm: f64,
}

impl Default for DsrcPhy {
    fn default() -> Self {
        DsrcPhy {
            bitrate: 6e6,
            path_loss_exponent: 2.2,
            reference_loss_db: 47.86,
            nakagami_m: 3.0,
            noise_floor_dbm: -99.0,
            sinr_threshold_db: 8.0,
            default_tx_power_dbm: 20.0,
        }
    }
}

impl DsrcPhy {
    /// Deterministic (median) received power at a given distance, in dBm.
    ///
    /// Distances below 1 m are clamped to the reference distance.
    pub fn median_rx_power_dbm(&self, tx_power_dbm: f64, dist_m: f64) -> f64 {
        let d = dist_m.max(1.0);
        tx_power_dbm - self.reference_loss_db - 10.0 * self.path_loss_exponent * d.log10()
    }

    /// Samples a faded received power (median power scaled by a Nakagami-m
    /// power gain with unit mean).
    pub fn sample_rx_power_dbm<R: Rng + ?Sized>(
        &self,
        tx_power_dbm: f64,
        dist_m: f64,
        rng: &mut R,
    ) -> f64 {
        self.reception()
            .sample_rx_power_dbm(tx_power_dbm, dist_m, rng)
    }

    /// Whether a signal at `signal_dbm` decodes against `interference_mw`
    /// milliwatts of co-channel interference.
    pub fn decodes(&self, signal_dbm: f64, interference_mw: f64) -> bool {
        self.reception().decodes(signal_dbm, interference_mw)
    }

    /// This PHY's reception model with its constants computed once, for a
    /// caller that samples and decodes many links with the same PHY (the
    /// medium, once per step).
    pub(crate) fn reception(&self) -> Reception {
        let noise_mw = dbm_to_mw(self.noise_floor_dbm);
        Reception {
            phy: *self,
            noise_mw,
            noise_dbm: mw_to_dbm(noise_mw),
            fading: NakagamiGain::new(self.nakagami_m),
        }
    }
}

/// A [`DsrcPhy`]'s fading draw and SINR test, with the constants they share
/// across links computed once: the noise floor in milliwatts and its dBm
/// form, and the Nakagami sampler's. The only implementation of both:
/// [`DsrcPhy::sample_rx_power_dbm`] and [`DsrcPhy::decodes`] build one per
/// call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Reception {
    phy: DsrcPhy,
    noise_mw: f64,
    /// `mw_to_dbm(noise_mw)`, the noise-plus-interference power of a link
    /// whose interference is exactly `0.0` (`noise_mw + 0.0 == noise_mw`).
    noise_dbm: f64,
    fading: NakagamiGain,
}

impl Reception {
    /// Samples a faded received power (median power scaled by a Nakagami-m
    /// power gain with unit mean).
    pub(crate) fn sample_rx_power_dbm<R: Rng + ?Sized>(
        &self,
        tx_power_dbm: f64,
        dist_m: f64,
        rng: &mut R,
    ) -> f64 {
        let median = self.phy.median_rx_power_dbm(tx_power_dbm, dist_m);
        median + 10.0 * self.fading.sample(rng).log10()
    }

    /// Whether a signal at `signal_dbm` decodes against `interference_mw`
    /// milliwatts of co-channel interference.
    pub(crate) fn decodes(&self, signal_dbm: f64, interference_mw: f64) -> bool {
        let floor_dbm = if interference_mw == 0.0 {
            self.noise_dbm
        } else {
            mw_to_dbm(self.noise_mw + interference_mw)
        };
        signal_dbm - floor_dbm >= self.phy.sinr_threshold_db
    }
}

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

/// Samples a unit-mean Nakagami-m *power* gain (i.e. a Gamma(m, 1/m) draw).
///
/// Uses the Marsaglia–Tsang method for m ≥ 1, which covers the V2V range.
pub fn nakagami_power_gain<R: Rng + ?Sized>(m: f64, rng: &mut R) -> f64 {
    NakagamiGain::new(m).sample(rng)
}

/// The unit-mean Nakagami-m power-gain sampler of [`nakagami_power_gain`],
/// with its Marsaglia–Tsang constants computed once.
#[derive(Clone, Copy, Debug, PartialEq)]
struct NakagamiGain {
    m: f64,
    d: f64,
    c: f64,
}

impl NakagamiGain {
    /// The sampler for shape `m`. Sampling panics unless `m >= 0.5`.
    fn new(m: f64) -> Self {
        // Gamma(shape=m, scale=1/m) via Marsaglia-Tsang (valid for shape >= 1;
        // for 0.5 <= m < 1 use the boost trick with a uniform power).
        let shape = if m >= 1.0 { m } else { m + 1.0 };
        let d = shape - 1.0 / 3.0;
        NakagamiGain {
            m,
            d,
            c: 1.0 / (9.0 * d).sqrt(),
        }
    }

    /// One gain draw.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let NakagamiGain { m, d, c } = *self;
        assert!(m >= 0.5, "Nakagami m must be >= 0.5");
        let sample = loop {
            // Standard normal via Box-Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                break d * v;
            }
        };
        let sample = if m >= 1.0 {
            sample
        } else {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            sample * u.powf(1.0 / m)
        };
        sample / m // scale to unit mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn median_power_decreases_with_distance() {
        let phy = DsrcPhy::default();
        let p10 = phy.median_rx_power_dbm(20.0, 10.0);
        let p100 = phy.median_rx_power_dbm(20.0, 100.0);
        let p1000 = phy.median_rx_power_dbm(20.0, 1000.0);
        assert!(p10 > p100 && p100 > p1000);
        // Per decade: 10·n dB.
        assert!((p10 - p100 - 22.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_mw_roundtrip() {
        for dbm in [-100.0, -50.0, 0.0, 20.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(30.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn nakagami_gain_has_unit_mean() {
        let mut rng = rng();
        for m in [1.0, 3.0] {
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|_| nakagami_power_gain(m, &mut rng))
                .sum::<f64>()
                / n as f64;
            assert!((mean - 1.0).abs() < 0.05, "m={m} mean={mean}");
        }
    }

    #[test]
    fn higher_m_means_less_variance() {
        let mut rng = rng();
        let var = |m: f64, rng: &mut StdRng| {
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| nakagami_power_gain(m, rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64
        };
        assert!(var(5.0, &mut rng) < var(1.0, &mut rng));
    }

    #[test]
    fn close_link_decodes_far_link_does_not() {
        let phy = DsrcPhy::default();
        let mut rng = rng();
        let mut close_ok = 0;
        let mut far_ok = 0;
        for _ in 0..200 {
            if phy.decodes(phy.sample_rx_power_dbm(20.0, 20.0, &mut rng), 0.0) {
                close_ok += 1;
            }
            if phy.decodes(phy.sample_rx_power_dbm(20.0, 5000.0, &mut rng), 0.0) {
                far_ok += 1;
            }
        }
        assert!(close_ok > 195, "close link PDR too low: {close_ok}/200");
        assert!(far_ok < 5, "5 km link should not decode: {far_ok}/200");
    }

    #[test]
    fn interference_breaks_decoding() {
        let phy = DsrcPhy::default();
        let signal = phy.median_rx_power_dbm(20.0, 50.0);
        assert!(phy.decodes(signal, 0.0));
        // Interference 30 dB above the noise floor.
        let strong_interference = dbm_to_mw(phy.noise_floor_dbm + 40.0);
        assert!(!phy.decodes(signal, strong_interference));
    }

    #[test]
    fn reception_decodes_by_the_textbook_sinr_test() {
        // The precomputed noise floor, including the shortcut for a link
        // with no interference, decides exactly as the formula does.
        let phy = DsrcPhy::default();
        let reception = phy.reception();
        let textbook = |signal_dbm: f64, interference_mw: f64| {
            signal_dbm - mw_to_dbm(dbm_to_mw(phy.noise_floor_dbm) + interference_mw)
                >= phy.sinr_threshold_db
        };
        let edge = mw_to_dbm(dbm_to_mw(phy.noise_floor_dbm)) + phy.sinr_threshold_db;
        for interference_mw in [0.0, 1e-13, 1e-10, 1e-7] {
            for signal_dbm in [-120.0, edge - 1e-9, edge, edge + 1e-9, -60.0] {
                assert_eq!(
                    reception.decodes(signal_dbm, interference_mw),
                    textbook(signal_dbm, interference_mw),
                    "signal {signal_dbm} dBm, interference {interference_mw} mW"
                );
            }
        }
        assert!(reception.decodes(edge + 1e-9, 0.0));
        assert!(!reception.decodes(edge - 1e-9, 0.0));
    }

    #[test]
    #[should_panic(expected = "Nakagami")]
    fn tiny_m_panics() {
        nakagami_power_gain(0.1, &mut rng());
    }
}
