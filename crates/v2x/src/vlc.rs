//! Visible light communication (VLC) link model.
//!
//! §VI-A.4 of the paper describes SP-VLC (Ucar et al. \[2\]): platoon members
//! pair each 802.11p message with a visible-light transmission between
//! adjacent vehicles; RF jamming cannot touch the optical channel, and an
//! attacker off the road cannot inject into a line-of-sight light beam. The
//! model captures the properties that argument relies on:
//!
//! * short range (headlight → taillight, tens of metres),
//! * strict line-of-sight along the string (only the adjacent vehicle),
//! * immunity to RF interference and jamming,
//! * occasional outage from ambient light (the "interference from external
//!   light" caveat in §VI-A.4).

use crate::message::{distance, Position};
use rand::Rng;

/// Ambient-outage probability the optical link gains per decibel of
/// environmental noise-floor degradation.
///
/// The optical channel has no RF noise floor, so tunnel/weather conditions
/// that raise `DsrcPhy::noise_floor_dbm` degrade VLC through a different
/// physical path: dust, fog, and scattered light raise the per-frame
/// ambient-outage rate instead. Environmental faults and regime phases
/// that degrade "the channel" use this shared exchange rate so hybrid
/// RF+VLC scenarios cannot silently escape degradation.
pub const VLC_OUTAGE_PER_DB: f64 = 0.02;

/// Parameters of the optical link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VlcPhy {
    /// Bit rate in bits/s.
    pub bitrate: f64,
    /// Maximum link distance in metres.
    pub max_range: f64,
    /// Maximum lateral offset in metres for the beam to connect (beam width
    /// proxy; vehicles in adjacent lanes do not receive).
    pub max_lateral_offset: f64,
    /// Probability per frame of an ambient-light outage (sunlight glare).
    pub ambient_outage_prob: f64,
}

impl Default for VlcPhy {
    fn default() -> Self {
        VlcPhy {
            bitrate: 2e6,
            max_range: 40.0,
            max_lateral_offset: 1.5,
            ambient_outage_prob: 0.01,
        }
    }
}

impl VlcPhy {
    /// Whether the geometry supports a link at all.
    ///
    /// The data channel is the **taillight** (SP-VLC disseminates platoon
    /// messages front-to-back), so the receiver must be *behind* the
    /// transmitter, within range, and laterally aligned with the beam.
    pub fn in_beam(&self, from: Position, to: Position) -> bool {
        to.0 < from.0
            && distance(from, to) <= self.max_range
            && (from.1 - to.1).abs() <= self.max_lateral_offset
    }

    /// Samples frame reception over the optical link.
    ///
    /// RF interference has no effect by construction — the jamming defense
    /// experiment (F2) leans on exactly this property.
    pub fn receives<R: Rng + ?Sized>(&self, from: Position, to: Position, rng: &mut R) -> bool {
        self.in_beam(from, to) && rng.gen_range(0.0..1.0) >= self.ambient_outage_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn trailing_vehicle_in_beam() {
        let vlc = VlcPhy::default();
        assert!(vlc.in_beam((15.0, 0.0), (0.0, 0.0)));
    }

    #[test]
    fn leading_vehicle_not_in_beam() {
        // Taillight link: information flows backward only.
        let vlc = VlcPhy::default();
        assert!(!vlc.in_beam((0.0, 0.0), (15.0, 0.0)));
    }

    #[test]
    fn far_vehicle_out_of_beam() {
        let vlc = VlcPhy::default();
        assert!(!vlc.in_beam((100.0, 0.0), (0.0, 0.0)));
    }

    #[test]
    fn lateral_offset_breaks_beam() {
        let vlc = VlcPhy::default();
        assert!(
            !vlc.in_beam((15.0, 0.0), (0.0, 3.5)),
            "adjacent lane must not receive"
        );
        assert!(vlc.in_beam((15.0, 0.0), (0.0, 1.0)));
    }

    #[test]
    fn reception_rate_matches_outage_probability() {
        let vlc = VlcPhy {
            ambient_outage_prob: 0.2,
            ..Default::default()
        };
        let mut rng = rng();
        let n = 20_000;
        let ok = (0..n)
            .filter(|_| vlc.receives((10.0, 0.0), (0.0, 0.0), &mut rng))
            .count();
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn out_of_beam_never_receives() {
        let vlc = VlcPhy::default();
        let mut rng = rng();
        for _ in 0..100 {
            assert!(!vlc.receives((200.0, 0.0), (0.0, 0.0), &mut rng));
        }
    }
}
