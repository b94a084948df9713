//! VPD attack-detection algorithm (VPD-ADA) — Table III "Control
//! Algorithms", after Bermad et al. \[10\].
//!
//! §VI-A.3: "VPD attack detection algorithms help reduce this risk by
//! monitoring the position of members, periodically checking the positional
//! information from other vehicles to make sure they are part of the
//! platoon. The positional information is gathered from multiple sources
//! such as LiDAR systems and/or GPS sensor data from other platoon members
//! ... the sensor information can show any discrepancies in information
//! passed between the platoon members."
//!
//! Two independent message checks. The ranging cross-check always runs;
//! the RSSI check can be switched off for the A1 ablation:
//!
//! * **Ranging cross-check** — a beacon claiming to be my predecessor must
//!   agree with my own radar/LiDAR ranging. Catches GPS-spoofed victims,
//!   impersonated phantom braking and position lies.
//! * **RSSI location check** — the received signal strength of any frame
//!   must be consistent with the position its content claims. Catches
//!   ghosts transmitted from one physical radio far from the claimed spot
//!   (Sybil, Convoy-style physical context verification \[4\]).

use platoon_crypto::cert::PrincipalId;
use platoon_detect::checks;
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::defense::{Defense, DetectionEvent, RejectReason};
use platoon_sim::world::World;
use platoon_v2x::message::{ChannelKind, Delivery};
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::HashMap;

/// Configuration of the detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VpdAdaConfig {
    /// Gap discrepancy threshold in metres for the ranging check.
    pub gap_threshold: f64,
    /// Claimed-speed vs range-rate discrepancy threshold in m/s.
    pub speed_threshold: f64,
    /// Enable the physical co-location check: a claim to occupy road space
    /// already occupied by another platoon vehicle is physically impossible
    /// (Convoy-style admission evidence \[4\]).
    pub colocation_check: bool,
    /// Enable the RSSI location-consistency check.
    pub rssi_check: bool,
    /// Allowed RSSI anomaly in dB before a frame is flagged (Nakagami m = 3
    /// fading has σ ≈ 4–5 dB; 15 dB keeps false positives negligible).
    pub rssi_threshold_db: f64,
    /// Violations required before the sender is *confirmed* as a suspect
    /// and a detection is raised (individual anomalous frames are rejected
    /// immediately; confirmation is sticky).
    pub violation_limit: u32,
    /// Whether a *confirmed* suspect's entire stream is rejected outright.
    /// Off by default: per-frame rejection already drops the implausible
    /// frames while letting genuine ones through, so wholesale eviction
    /// mostly punishes an impersonation *victim* (whose honest beacons are
    /// fine) by forcing its follower into radar fallback.
    pub evict_confirmed: bool,
    /// Enable the onboard radar-vs-LiDAR fusion guard: persistent
    /// disagreement disables the radar so control fails over to LiDAR.
    pub sensor_fusion_check: bool,
    /// Radar/LiDAR disagreement threshold in metres.
    pub fusion_threshold: f64,
}

impl Default for VpdAdaConfig {
    fn default() -> Self {
        VpdAdaConfig {
            gap_threshold: 6.0,
            speed_threshold: 3.0,
            colocation_check: true,
            rssi_check: true,
            rssi_threshold_db: 18.0,
            violation_limit: 5,
            evict_confirmed: false,
            sensor_fusion_check: true,
            fusion_threshold: 3.0,
        }
    }
}

impl VpdAdaConfig {
    /// The strict profile: confirmed suspects are evicted wholesale. Right
    /// for identity-multiplication threats (Sybil), where the "stream" has
    /// no honest half worth preserving; wrong for impersonation victims.
    pub fn strict() -> Self {
        VpdAdaConfig {
            evict_confirmed: true,
            ..Default::default()
        }
    }
}

/// The VPD-ADA misbehaviour detector.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_defense(Box::new(VpdAdaDefense::new(VpdAdaConfig::default())));
/// let summary = engine.run();
/// assert_eq!(summary.detections, 0, "honest traffic raises no alarms");
/// ```
#[derive(Clone, Debug)]
pub struct VpdAdaDefense {
    config: VpdAdaConfig,
    /// Consecutive violation counters per (receiver, claimed sender).
    violations: HashMap<(usize, PrincipalId), u32>,
    /// Suspects confirmed (sticky: once flagged, always rejected).
    confirmed: HashMap<PrincipalId, f64>,
    /// Detections raised but not yet drained by `on_step`.
    pending: Vec<DetectionEvent>,
    /// Fusion-guard disagreement counters per vehicle index.
    fusion_violations: HashMap<usize, u32>,
    /// Vehicles whose radar the guard has quarantined.
    quarantined_radars: Vec<usize>,
    rejected: u64,
}

impl VpdAdaDefense {
    /// Creates the detector.
    pub fn new(config: VpdAdaConfig) -> Self {
        VpdAdaDefense {
            config,
            violations: HashMap::new(),
            confirmed: HashMap::new(),
            pending: Vec::new(),
            fusion_violations: HashMap::new(),
            quarantined_radars: Vec::new(),
            rejected: 0,
        }
    }

    /// Vehicle indices whose radar has been quarantined by the fusion guard.
    pub fn quarantined_radars(&self) -> &[usize] {
        &self.quarantined_radars
    }

    /// Confirmed suspects with their detection times.
    pub fn confirmed_suspects(&self) -> Vec<(PrincipalId, f64)> {
        let mut v: Vec<_> = self.confirmed.iter().map(|(k, t)| (*k, *t)).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// Detection latency for a suspect relative to `attack_start`.
    pub fn detection_latency(&self, suspect: PrincipalId, attack_start: f64) -> Option<f64> {
        self.confirmed
            .get(&suspect)
            .map(|t| (t - attack_start).max(0.0))
    }

    /// Messages rejected.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Records a violation; confirms the suspect once the limit is reached.
    fn violate(&mut self, receiver: usize, suspect: PrincipalId, now: f64) {
        let count = self.violations.entry((receiver, suspect)).or_insert(0);
        *count += 1;
        if *count >= self.config.violation_limit {
            self.confirmed.entry(suspect).or_insert_with(|| {
                self.pending.push(DetectionEvent {
                    suspect,
                    detector: "vpd-ada",
                });
                now
            });
        }
    }

    fn clear(&mut self, receiver: usize, suspect: PrincipalId) {
        self.violations.remove(&(receiver, suspect));
    }
}

impl Defense for VpdAdaDefense {
    fn name(&self) -> &'static str {
        "vpd-ada"
    }

    fn filter_rx(
        &mut self,
        receiver_idx: usize,
        world: &World,
        delivery: &Delivery,
        sender: PrincipalId,
        msg: &PlatoonMessage,
        now: f64,
    ) -> Result<(), RejectReason> {
        if self.config.evict_confirmed && self.confirmed.contains_key(&sender) {
            self.rejected += 1;
            return Err(RejectReason::Distrusted);
        }
        let claimed_position = msg.claimed_position();

        // Co-location check: nobody can claim to stand where another
        // physical platoon vehicle already is.
        if self.config.colocation_check {
            if let Some(claimed) = claimed_position {
                if world.colocation_conflict(sender, claimed) {
                    self.violate(receiver_idx, sender, now);
                    self.rejected += 1;
                    return Err(RejectReason::Implausible);
                }
            }
        }

        // RSSI location check (RF channels only; VLC has no meaningful RSSI).
        if self.config.rssi_check && delivery.channel != ChannelKind::Vlc {
            if let Some(claimed) = claimed_position {
                let expected = world.expected_rssi_dbm(receiver_idx, claimed);
                if checks::rssi_anomaly(expected, delivery.rssi_dbm, self.config.rssi_threshold_db)
                {
                    self.violate(receiver_idx, sender, now);
                    self.rejected += 1;
                    return Err(RejectReason::Implausible);
                }
                // A passing RSSI check is weak positive evidence; decay the
                // counter so honest fading outliers never accumulate to a
                // confirmation.
                if let Some(c) = self.violations.get_mut(&(receiver_idx, sender)) {
                    *c = c.saturating_sub(1);
                }
            }
        }

        // Ranging cross-check for predecessor beacons.
        if receiver_idx > 0 {
            if let PlatoonMessage::Beacon(b) = msg {
                let pred_principal = world.vehicles[receiver_idx - 1].principal;
                if sender == pred_principal {
                    let rx = &world.vehicles[receiver_idx];
                    let claimed_gap = b.position - b.length - rx.vehicle.state.position;
                    let measured_gap = world.true_gap(receiver_idx).unwrap_or(claimed_gap);
                    let claimed_rel_speed = b.speed - rx.vehicle.state.speed;
                    let measured_rel_speed = world
                        .true_range_rate(receiver_idx)
                        .unwrap_or(claimed_rel_speed);
                    if checks::ranging_mismatch(
                        claimed_gap,
                        measured_gap,
                        claimed_rel_speed,
                        measured_rel_speed,
                        self.config.gap_threshold,
                        self.config.speed_threshold,
                    ) {
                        self.violate(receiver_idx, sender, now);
                        self.rejected += 1;
                        return Err(RejectReason::Implausible);
                    }
                    self.clear(receiver_idx, sender);
                }
            }
        }
        Ok(())
    }

    fn authorize_join(&mut self, requester: PrincipalId) -> bool {
        // Confirmed suspects are never admitted.
        !self.confirmed.contains_key(&requester)
    }

    fn on_step(&mut self, world: &mut World, rng: &mut StdRng) -> Vec<DetectionEvent> {
        if self.config.sensor_fusion_check {
            let now = world.time;
            for idx in 1..world.vehicles.len() {
                if self.quarantined_radars.contains(&idx) {
                    continue;
                }
                let Some(true_gap) = world.true_gap(idx) else {
                    continue;
                };
                let true_rate = world.true_range_rate(idx).unwrap_or(0.0);
                let v = &world.vehicles[idx];
                let radar = v.sensors.radar.measure(true_gap, true_rate, now, rng);
                let lidar = v.sensors.lidar.measure(true_gap, now, rng);
                if let (Some((r, _)), Some(l)) = (radar, lidar) {
                    if (r - l).abs() > self.config.fusion_threshold {
                        let c = self.fusion_violations.entry(idx).or_insert(0);
                        *c += 1;
                        if *c >= self.config.violation_limit {
                            // Quarantine the radar: control fails over to
                            // the (independent) LiDAR ranging path.
                            world.vehicles[idx].sensors.radar.fault =
                                platoon_dynamics::sensors::SensorFault::Outage;
                            self.quarantined_radars.push(idx);
                            self.pending.push(DetectionEvent {
                                suspect: world.vehicles[idx].principal,
                                detector: "vpd-ada-fusion",
                            });
                        }
                    } else {
                        self.fusion_violations.remove(&idx);
                    }
                }
            }
        }
        std::mem::take(&mut self.pending)
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
            .duration(50.0)
            .seed(41)
            .build()
    }

    fn defense(engine: &Engine) -> &VpdAdaDefense {
        engine.defenses()[0]
            .as_any()
            .downcast_ref::<VpdAdaDefense>()
            .unwrap()
    }

    #[test]
    fn detects_gps_spoofed_victim() {
        let mut engine = Engine::new(scenario("vpd-gps"));
        engine.add_attack(Box::new(GpsSpoofAttack::new(GpsSpoofConfig::default())));
        engine.add_defense(Box::new(VpdAdaDefense::new(VpdAdaConfig::default())));
        let s = engine.run();
        let d = defense(&engine);
        let latency = d.detection_latency(platoon_crypto::cert::PrincipalId(2), 10.0);
        assert!(latency.is_some(), "spoofed victim must be flagged");
        // 1 m/s drift crosses the 6 m threshold after ≈6 s plus debounce.
        assert!(
            latency.unwrap() < 20.0,
            "detection should be prompt: {latency:?}"
        );
        assert!(s.detections >= 1);
    }

    #[test]
    fn detects_impersonated_phantom_braking() {
        let mut engine = Engine::new(scenario("vpd-imp"));
        engine.add_attack(Box::new(ImpersonationAttack::new(
            ImpersonationConfig::default(),
        )));
        engine.add_defense(Box::new(VpdAdaDefense::new(VpdAdaConfig::default())));
        let s = engine.run();
        let d = defense(&engine);
        // The forged beacons claim the victim's identity with a 3 m/s speed
        // lie: the follower's ranging disagrees and flags the (claimed)
        // sender.
        assert!(
            d.detection_latency(platoon_crypto::cert::PrincipalId(1), 15.0)
                .is_some(),
            "impersonated beacons must be flagged"
        );
        // Detection is prompt (within a second of the first forgery) and
        // the forged stream is evicted. Note the eviction is sticky by
        // design: the follower then runs on radar fallback, trading spacing
        // efficiency for integrity — the §VI-A.3 performance-cost challenge.
        let d2 = defense(&engine);
        let latency = d2
            .detection_latency(platoon_crypto::cert::PrincipalId(1), 15.0)
            .unwrap();
        assert!(latency < 5.0, "detection latency {latency}");
        assert!(s.detections >= 1);
        assert!(s.rejected_messages > 10);
    }

    #[test]
    fn rssi_check_blocks_sybil_ghost_joins() {
        let mut engine = Engine::new(
            Scenario::builder()
                .label("vpd-sybil")
                .vehicles(5)
                .duration(40.0)
                .max_platoon_size(12)
                .seed(9)
                .build(),
        );
        engine.add_attack(Box::new(SybilAttack::new(SybilConfig::default())));
        engine.add_defense(Box::new(VpdAdaDefense::new(VpdAdaConfig::strict())));
        engine.run();
        // Ghost joins claim mid-platoon positions but transmit from behind
        // the platoon: the RSSI/co-location anomalies confirm them and the
        // strict profile bars confirmed identities from the roster.
        assert_eq!(
            engine.maneuvers().roster().len(),
            5,
            "no ghost may complete a join under VPD-ADA"
        );
    }

    #[test]
    fn no_false_positives_on_honest_platoon() {
        let mut engine = Engine::new(scenario("vpd-honest"));
        engine.add_defense(Box::new(VpdAdaDefense::new(VpdAdaConfig::default())));
        let s = engine.run();
        assert_eq!(s.detections, 0, "honest platoon must raise no detections");
        assert_eq!(defense(&engine).confirmed_suspects().len(), 0);
    }

    #[test]
    fn ranging_only_ablation_misses_ghosts_but_catches_spoof() {
        let cfg = VpdAdaConfig {
            rssi_check: false,
            ..Default::default()
        };
        // Catches the GPS spoof...
        let mut engine = Engine::new(scenario("vpd-ablate"));
        engine.add_attack(Box::new(GpsSpoofAttack::new(GpsSpoofConfig::default())));
        engine.add_defense(Box::new(VpdAdaDefense::new(cfg)));
        engine.run();
        assert!(!defense(&engine).confirmed_suspects().is_empty());

        // ...but ghosts sail through without the RSSI check.
        let mut engine2 = Engine::new(
            Scenario::builder()
                .label("vpd-ablate-sybil")
                .vehicles(5)
                .duration(40.0)
                .max_platoon_size(12)
                .seed(9)
                .build(),
        );
        engine2.add_attack(Box::new(SybilAttack::new(SybilConfig::default())));
        engine2.add_defense(Box::new(VpdAdaDefense::new(cfg)));
        engine2.run();
        assert!(
            engine2.maneuvers().roster().len() > 5,
            "without RSSI checking, ghosts still infiltrate"
        );
    }
}
