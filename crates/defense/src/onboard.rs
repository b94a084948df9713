//! On-board system hardening — Table III "Securing Onboard Systems".
//!
//! §VI-A.5: "simple antivirus on the on-board computer system and not
//! downloading from unauthorized sources can reduce the chance of such an
//! attack being successful. On-board computers and systems should also use
//! firewalls and only allow components to communicate with what they need
//! to."
//!
//! Two measures:
//!
//! * **firewall / component isolation** — marks vehicles as `hardened`,
//!   which the malware worm respects (an order of magnitude lower
//!   per-contact exploitation probability);
//! * **antivirus scanning** — each scan interval, an infected ECU is
//!   detected and disinfected with some probability; disinfection restores
//!   the platooning service and clears malware side-effects (beacon lies,
//!   radar faults).

use platoon_dynamics::sensors::SensorFault;
use platoon_sim::defense::{Defense, DetectionEvent};
use platoon_sim::world::World;
use rand::rngs::StdRng;
use rand::Rng;
use std::any::Any;

/// Configuration of the hardening defense.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnboardConfig {
    /// Per-second probability that the antivirus detects an infection.
    pub antivirus_detect_per_second: f64,
    /// Seconds between infection detection and completed remediation.
    pub remediation_delay: f64,
}

impl Default for OnboardConfig {
    fn default() -> Self {
        OnboardConfig {
            antivirus_detect_per_second: 0.2,
            remediation_delay: 2.0,
        }
    }
}

/// The on-board hardening defense.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_defense(Box::new(OnboardDefense::new(OnboardConfig::default())));
/// engine.run();
/// assert!(engine.world().vehicles.iter().all(|v| v.hardened));
/// ```
#[derive(Clone, Debug)]
pub struct OnboardDefense {
    config: OnboardConfig,
    /// Pending remediations: (vehicle index, completes at).
    remediating: Vec<(usize, f64)>,
    disinfections: u64,
    deployed: bool,
}

impl OnboardDefense {
    /// Creates the defense.
    pub fn new(config: OnboardConfig) -> Self {
        OnboardDefense {
            config,
            remediating: Vec::new(),
            disinfections: 0,
            deployed: false,
        }
    }

    /// Completed disinfections.
    pub fn disinfections(&self) -> u64 {
        self.disinfections
    }
}

impl Defense for OnboardDefense {
    fn name(&self) -> &'static str {
        "onboard-hardening"
    }

    fn on_step(&mut self, world: &mut World, rng: &mut StdRng) -> Vec<DetectionEvent> {
        let now = world.time;
        let mut detections = Vec::new();

        // The firewall deploys on the first step: every vehicle is hardened.
        if !self.deployed {
            for v in world.vehicles.iter_mut() {
                v.hardened = true;
            }
            self.deployed = true;
        }

        // Antivirus scan.
        let dt = world.medium.step_len;
        let p_step = 1.0 - (1.0 - self.config.antivirus_detect_per_second).powf(dt);
        for idx in 0..world.vehicles.len() {
            if !world.vehicles[idx].infected {
                continue;
            }
            if self.remediating.iter().any(|(i, _)| *i == idx) {
                continue;
            }
            if rng.gen_range(0.0..1.0) < p_step {
                self.remediating
                    .push((idx, now + self.config.remediation_delay));
                detections.push(DetectionEvent {
                    suspect: world.vehicles[idx].principal,
                    detector: "antivirus",
                });
            }
        }

        // Complete due remediations.
        let due: Vec<usize> = self
            .remediating
            .iter()
            .filter(|(_, t)| now >= *t)
            .map(|(i, _)| *i)
            .collect();
        self.remediating.retain(|(_, t)| now < *t);
        for idx in due {
            let v = &mut world.vehicles[idx];
            v.infected = false;
            v.platooning_enabled = true;
            v.beacon_lie = None;
            // Clear malware-planted sensor faults (physical-layer attacks on
            // the sensor would persist; a software fault does not).
            if matches!(
                v.sensors.radar.fault,
                SensorFault::Bias { .. } | SensorFault::Frozen { .. }
            ) {
                v.sensors.radar.fault = SensorFault::None;
            }
            self.disinfections += 1;
        }
        detections
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Defense>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_attacks::prelude::*;
    use platoon_sim::prelude::*;

    fn scenario(label: &str) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(60.0)
            .seed(31)
            .build()
    }

    fn run(defended: bool) -> (RunSummary, Option<u64>) {
        let mut engine = Engine::new(scenario("onboard"));
        engine.add_attack(Box::new(MalwareAttack::new(MalwareConfig::default())));
        if defended {
            engine.add_defense(Box::new(OnboardDefense::new(OnboardConfig::default())));
        }
        let s = engine.run();
        let disinfections = defended.then(|| {
            engine.defenses()[0]
                .as_any()
                .downcast_ref::<OnboardDefense>()
                .unwrap()
                .disinfections()
        });
        (s, disinfections)
    }

    #[test]
    fn hardening_restores_availability() {
        let (undefended, _) = run(false);
        let (defended, disinfections) = run(true);
        assert!(disinfections.unwrap() > 0, "antivirus should disinfect");
        assert!(
            defended.service_down_fraction < 0.5 * undefended.service_down_fraction,
            "hardening must restore platooning availability: {} vs {}",
            defended.service_down_fraction,
            undefended.service_down_fraction
        );
        assert!(defended.detections > 0);
    }

    #[test]
    fn firewall_slows_the_worm() {
        // Firewall only (no antivirus): the epidemic is contained, not cured.
        let mut engine = Engine::new(scenario("firewall-only"));
        engine.add_attack(Box::new(MalwareAttack::new(MalwareConfig::default())));
        engine.add_defense(Box::new(OnboardDefense::new(OnboardConfig {
            antivirus_detect_per_second: 0.0,
            remediation_delay: 2.0,
        })));
        engine.run();
        let infected = engine.attacks()[0]
            .as_any()
            .downcast_ref::<MalwareAttack>()
            .unwrap()
            .infected_count();

        let mut open = Engine::new(scenario("no-firewall"));
        open.add_attack(Box::new(MalwareAttack::new(MalwareConfig::default())));
        open.run();
        let infected_open = open.attacks()[0]
            .as_any()
            .downcast_ref::<MalwareAttack>()
            .unwrap()
            .infected_count();

        assert!(
            infected < infected_open,
            "firewall must slow the spread: {infected} vs {infected_open}"
        );
    }

    #[test]
    fn clean_platoon_untouched() {
        let mut engine = Engine::new(scenario("onboard-clean"));
        engine.add_defense(Box::new(OnboardDefense::new(OnboardConfig::default())));
        let s = engine.run();
        assert_eq!(s.detections, 0);
        assert_eq!(s.service_down_fraction, 0.0);
        let d = engine.defenses()[0]
            .as_any()
            .downcast_ref::<OnboardDefense>()
            .unwrap();
        assert_eq!(d.disinfections(), 0);
    }
}
