//! RF jamming sources.
//!
//! §V-B of the paper: "to jam communications, the attacker only has to know
//! the frequency that the platoon uses ... by flooding the communication
//! frequencies with random noise and junk, it becomes impossible for the
//! platoon to maintain its communications". The jammer here is a co-channel
//! noise source whose power enters every receiver's interference budget in
//! the [`crate::medium::RadioMedium`]; strategies model the three jammer
//! classes of the VANET jamming literature.

use crate::channel::{dbm_to_mw, DsrcPhy};
use crate::message::{distance, Position};

/// Temporal strategy of a jammer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JammingStrategy {
    /// Always on.
    Continuous,
    /// On for `on` seconds, off for `off` seconds, repeating.
    Periodic {
        /// On-phase duration in seconds.
        on: f64,
        /// Off-phase duration in seconds.
        off: f64,
    },
    /// Transmits only while legitimate traffic is on the air (energy-
    /// efficient, harder to localise). Modelled as active whenever at least
    /// one frame is being transmitted in the step.
    Reactive,
}

/// An RF jammer device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Jammer {
    /// Jammer position.
    pub position: Position,
    /// Transmit power in dBm.
    pub power_dbm: f64,
    /// Temporal strategy.
    pub strategy: JammingStrategy,
    /// The radio channel the jammer floods. Optical links cannot be
    /// RF-jammed; a `Vlc` target is accepted but has no effect, which the
    /// hybrid-communication defense (SP-VLC) relies on.
    pub target: crate::message::ChannelKind,
}

impl Jammer {
    /// A continuous 802.11p jammer at a position with the given power.
    pub fn continuous(position: Position, power_dbm: f64) -> Self {
        Jammer {
            position,
            power_dbm,
            strategy: JammingStrategy::Continuous,
            target: crate::message::ChannelKind::Dsrc,
        }
    }

    /// Whether the jammer is radiating at time `now`, given whether any
    /// legitimate frame is concurrently on the air.
    pub fn is_active(&self, now: f64, traffic_on_air: bool) -> bool {
        match self.strategy {
            JammingStrategy::Continuous => true,
            JammingStrategy::Periodic { on, off } => {
                let cycle = on + off;
                if cycle <= 0.0 {
                    return true;
                }
                now.rem_euclid(cycle) < on
            }
            JammingStrategy::Reactive => traffic_on_air,
        }
    }

    /// Interference contribution in milliwatts at a receiver position.
    pub fn interference_mw(&self, phy: &DsrcPhy, at: Position) -> f64 {
        let d = distance(self.position, at);
        dbm_to_mw(phy.median_rx_power_dbm(self.power_dbm, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_always_active() {
        let j = Jammer::continuous((0.0, 0.0), 30.0);
        assert!(j.is_active(0.0, false));
        assert!(j.is_active(123.4, true));
    }

    #[test]
    fn periodic_duty_cycle() {
        let j = Jammer {
            strategy: JammingStrategy::Periodic { on: 1.0, off: 1.0 },
            ..Jammer::continuous((0.0, 0.0), 30.0)
        };
        assert!(j.is_active(0.5, false));
        assert!(!j.is_active(1.5, false));
        assert!(j.is_active(2.5, false));
    }

    #[test]
    fn reactive_follows_traffic() {
        let j = Jammer {
            strategy: JammingStrategy::Reactive,
            ..Jammer::continuous((0.0, 0.0), 30.0)
        };
        assert!(!j.is_active(1.0, false));
        assert!(j.is_active(1.0, true));
    }

    #[test]
    fn interference_decays_with_distance() {
        let phy = DsrcPhy::default();
        let j = Jammer::continuous((0.0, 0.0), 30.0);
        let near = j.interference_mw(&phy, (10.0, 0.0));
        let far = j.interference_mw(&phy, (1000.0, 0.0));
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn stronger_jammer_more_interference() {
        let phy = DsrcPhy::default();
        let weak = Jammer::continuous((0.0, 0.0), 10.0);
        let strong = Jammer::continuous((0.0, 0.0), 40.0);
        let at = (50.0, 0.0);
        assert!(strong.interference_mw(&phy, at) > weak.interference_mw(&phy, at));
    }

    #[test]
    fn degenerate_periodic_cycle_is_always_on() {
        let j = Jammer {
            strategy: JammingStrategy::Periodic { on: 0.0, off: 0.0 },
            ..Jammer::continuous((0.0, 0.0), 30.0)
        };
        assert!(j.is_active(5.0, false));
    }
}
