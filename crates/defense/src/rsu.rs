//! RSU-assisted security — Table III "Roadside Units", after Lai et al. \[8\].
//!
//! §VI-A.2: RSUs "can be used to issue secret keys to individuals seeking to
//! communicate directly with each other ... The RSU has limited authority.
//! Its primary role is to distribute secret keys to authorised users ...
//! This setup gives the trusted authority much better control over who has
//! the security key and updating the keys so that anomalous users can be
//! screened out faster."
//!
//! The defense models the RSU as a *join gatekeeper with a registration
//! step*: a vehicle that wants to platoon must first register with an RSU
//! (presenting its certificate over V2I), which the RSU reports to the
//! leader. Join requests from unregistered identities are refused before
//! they consume leader resources — which is what blunts the join-flood DoS
//! and the Sybil ghosts (a single attacker radio cannot register a thousand
//! certified identities). RSUs also shorten revocation latency: the CRL
//! snapshot each vehicle holds refreshes whenever an RSU is in range.

use platoon_crypto::cert::PrincipalId;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::defense::{Defense, DetectionEvent, RejectReason};
use platoon_sim::world::World;
use platoon_v2x::message::{distance, Delivery};
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::{HashMap, HashSet};

/// Configuration of the RSU gatekeeper.
#[derive(Clone, Debug, PartialEq)]
pub struct RsuConfig {
    /// Radio range within which an RSU serves vehicles, metres.
    pub service_range: f64,
    /// Identities pre-registered before the run (provisioned fleet members
    /// and any legitimate joiners expected in the scenario).
    pub preregistered: Vec<u64>,
}

impl Default for RsuConfig {
    fn default() -> Self {
        RsuConfig {
            service_range: 500.0,
            preregistered: Vec::new(),
        }
    }
}

/// The RSU support defense.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(
///     Scenario::builder()
///         .vehicles(4)
///         .rsu((100.0, 8.0))
///         .duration(5.0)
///         .build(),
/// );
/// engine.add_defense(Box::new(RsuDefense::new(RsuConfig::default())));
/// engine.run();
/// let rsu = engine.defenses()[0].as_any().downcast_ref::<RsuDefense>().unwrap();
/// assert!(rsu.coverage_fraction() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct RsuDefense {
    config: RsuConfig,
    registered: HashSet<PrincipalId>,
    /// Last claim per sender: (timestamp, position, speed).
    last_claims: HashMap<PrincipalId, (f64, f64, f64)>,
    /// Identities the behaviour monitor has flagged.
    flagged: HashSet<PrincipalId>,
    pending_detections: Vec<DetectionEvent>,
    refused_joins: u64,
    /// Cumulative time with at least one RSU in platoon range (coverage
    /// metric for the low-density open challenge).
    covered_time: f64,
    total_time: f64,
    last_time: f64,
}

impl RsuDefense {
    /// Creates the gatekeeper.
    pub fn new(config: RsuConfig) -> Self {
        let registered = config
            .preregistered
            .iter()
            .map(|&id| PrincipalId(id))
            .collect();
        RsuDefense {
            config,
            registered,
            last_claims: HashMap::new(),
            flagged: HashSet::new(),
            pending_detections: Vec::new(),
            refused_joins: 0,
            covered_time: 0.0,
            total_time: 0.0,
            last_time: 0.0,
        }
    }

    /// Join requests refused at the gate.
    pub fn refused_joins(&self) -> u64 {
        self.refused_joins
    }

    /// Identities flagged by the behaviour monitor.
    pub fn flagged(&self) -> Vec<PrincipalId> {
        let mut v: Vec<_> = self.flagged.iter().copied().collect();
        v.sort();
        v
    }

    /// Fraction of the run with an RSU within service range of the platoon.
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        self.covered_time / self.total_time
    }

    fn rsu_in_range(&self, world: &World) -> bool {
        let mid = world.vehicles[world.vehicles.len() / 2].position();
        world
            .rsus
            .iter()
            .any(|r| distance(r.position, mid) <= self.config.service_range)
    }
}

impl Defense for RsuDefense {
    fn name(&self) -> &'static str {
        "rsu-gatekeeper"
    }

    fn filter_rx(
        &mut self,
        _receiver_idx: usize,
        world: &World,
        _delivery: &Delivery,
        envelope: &Envelope,
        _now: f64,
    ) -> Result<(), RejectReason> {
        // RSU services are only available while one is reachable — the
        // low-RSU-density open challenge of §VI-A.2.
        if !self.rsu_in_range(world) {
            return Ok(());
        }
        let Ok(msg) = envelope.open_unverified() else {
            return Ok(());
        };
        match msg {
            // Join requests from unregistered identities are refused at
            // reception, before they touch the manoeuvre engine.
            PlatoonMessage::JoinRequest { requester, .. }
                if !self.registered.contains(&requester) =>
            {
                self.refused_joins += 1;
                return Err(RejectReason::Distrusted);
            }
            PlatoonMessage::Beacon(b) => {
                // Behaviour monitoring — §VI-A.2: RSUs "can monitor the
                // driver's behaviour within the platoon network, which can
                // ultimately enable [detection of] various attacks, including
                // impersonation attacks". Two beacons claiming the same
                // instant with materially different kinematics: an
                // impersonator transmitting alongside the real sender. The
                // monitor cannot tell which frame is genuine, so it does not
                // drop either — it reports the identity to the trusted
                // authority (a DetectionEvent), whose revocation/re-keying is
                // the actual remedy (the "keys" mechanism). This is exactly
                // the paper's division of labour: RSUs *detect*
                // impersonation.
                let now_key = b.timestamp;
                if let Some(&(t0, p0, v0)) = self.last_claims.get(&envelope.sender) {
                    if (now_key - t0).abs() < 1e-6
                        && ((b.position - p0).abs() > 5.0 || (b.speed - v0).abs() > 1.0)
                        && self.flagged.insert(envelope.sender)
                    {
                        self.pending_detections.push(DetectionEvent {
                            suspect: envelope.sender,
                            detector: "rsu-monitor",
                        });
                    }
                }
                self.last_claims
                    .insert(envelope.sender, (now_key, b.position, b.speed));
            }
            _ => {}
        }
        Ok(())
    }

    fn on_step(&mut self, world: &mut World, _rng: &mut StdRng) -> Vec<DetectionEvent> {
        let now = world.time;
        let dt = (now - self.last_time).max(0.0);
        self.last_time = now;
        self.total_time += dt;
        if self.rsu_in_range(world) {
            self.covered_time += dt;
        }
        std::mem::take(&mut self.pending_detections)
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
    use platoon_crypto::cert::PrincipalId as P;
    use platoon_proto::messages::PlatoonId;
    use platoon_sim::prelude::*;
    use platoon_v2x::message::NodeId;

    /// A scenario with RSUs lining the platoon's route.
    fn scenario_with_rsus(label: &str) -> Scenario {
        let mut b = Scenario::builder()
            .label(label)
            .vehicles(4)
            .duration(40.0)
            .max_platoon_size(16)
            .seed(13);
        for i in 0..6 {
            b = b.rsu((i as f64 * 300.0, 8.0));
        }
        b.build()
    }

    #[test]
    fn gatekeeper_refuses_unregistered_flood() {
        let mut engine = Engine::new(scenario_with_rsus("rsu-dos"));
        engine.add_attack(Box::new(JoinFloodAttack::new(JoinFloodConfig::default())));
        engine.add_defense(Box::new(RsuDefense::new(RsuConfig::default())));
        let s = engine.run();
        let d = engine.defenses()[0]
            .as_any()
            .downcast_ref::<RsuDefense>()
            .unwrap();
        assert!(
            d.refused_joins() > 500,
            "flood refused at the gate: {}",
            d.refused_joins()
        );
        // Nothing reaches the manoeuvre engine.
        assert_eq!(s.maneuvers.join_requests, 0);
        assert!(d.coverage_fraction() > 0.9, "route is RSU-covered");
    }

    #[test]
    fn registered_joiner_gets_in_despite_flood() {
        let mut engine = Engine::new(scenario_with_rsus("rsu-legit"));
        engine.add_attack(Box::new(JoinFloodAttack::new(JoinFloodConfig::default())));
        engine.add_attack(Box::new(
            JoinerAgent::new(
                P(600),
                NodeId(600),
                JoinerCredentials::None,
                PlatoonId(1),
                1.0,
            )
            .with_start(10.0),
        ));
        engine.add_defense(Box::new(RsuDefense::new(RsuConfig {
            preregistered: vec![600],
            ..Default::default()
        })));
        engine.run();
        let agent = engine.attacks()[1]
            .as_any()
            .downcast_ref::<JoinerAgent>()
            .unwrap();
        assert!(
            agent.outcome().accepted,
            "registered joiner must get through the gate: {:?}",
            agent.outcome()
        );
    }

    #[test]
    fn no_rsu_coverage_means_no_gatekeeping() {
        // The open challenge: "areas of the network with a low density of
        // RSUs where platoons can not rely on them".
        let scenario = Scenario::builder()
            .label("rsu-uncovered")
            .vehicles(4)
            .duration(30.0)
            .max_platoon_size(16)
            .seed(13)
            .build(); // no RSUs at all
        let mut engine = Engine::new(scenario);
        engine.add_attack(Box::new(JoinFloodAttack::new(JoinFloodConfig::default())));
        engine.add_defense(Box::new(RsuDefense::new(RsuConfig::default())));
        let s = engine.run();
        let d = engine.defenses()[0]
            .as_any()
            .downcast_ref::<RsuDefense>()
            .unwrap();
        assert_eq!(d.refused_joins(), 0);
        assert_eq!(d.coverage_fraction(), 0.0);
        assert!(
            s.maneuvers.join_requests > 500,
            "without coverage the flood reaches the leader"
        );
    }

    #[test]
    fn behaviour_monitor_flags_impersonated_stream() {
        let mut engine = Engine::new(scenario_with_rsus("rsu-imp"));
        engine.add_attack(Box::new(ImpersonationAttack::new(ImpersonationConfig {
            victim: 1,
            start: 10.0,
            duration: 15.0,
            ..Default::default()
        })));
        engine.add_defense(Box::new(RsuDefense::new(RsuConfig::default())));
        let s = engine.run();
        let d = engine.defenses()[0]
            .as_any()
            .downcast_ref::<RsuDefense>()
            .unwrap();
        assert!(
            d.flagged().contains(&P(1)),
            "the contradictory stream must be flagged: {:?}",
            d.flagged()
        );
        assert!(s.detections >= 1);
    }

    #[test]
    fn behaviour_monitor_quiet_on_honest_traffic() {
        let mut engine = Engine::new(scenario_with_rsus("rsu-honest"));
        engine.add_defense(Box::new(RsuDefense::new(RsuConfig::default())));
        let s = engine.run();
        assert_eq!(s.detections, 0);
        let d = engine.defenses()[0]
            .as_any()
            .downcast_ref::<RsuDefense>()
            .unwrap();
        assert!(d.flagged().is_empty());
    }

    #[test]
    fn sybil_ghosts_cannot_register() {
        let mut engine = Engine::new(scenario_with_rsus("rsu-sybil"));
        engine.add_attack(Box::new(SybilAttack::new(SybilConfig::default())));
        engine.add_defense(Box::new(RsuDefense::new(RsuConfig::default())));
        engine.run();
        assert_eq!(
            engine.maneuvers().roster().len(),
            4,
            "unregistered ghosts never reach the roster"
        );
    }
}
