//! SP-VLC hybrid-communication cross-validation — Table III "Hybrid
//! Communications", after Ucar et al. \[2\].
//!
//! §VI-A.4: "To carry out any action, each member of the platoon must
//! receive both visible light transmission and an 802.11p transmission."
//! An attacker who can inject on the open RF channel cannot inject into a
//! line-of-sight light beam, so requiring *agreement across channels* for
//! safety-critical actions defeats RF-side injection wholesale.
//!
//! Two policies for the F2/F5 ablation:
//!
//! * **AND-validation** ([`HybridPolicy::RequireBoth`]) — a manoeuvre
//!   message is processed only after the same payload has been seen on both
//!   channels within `window` seconds (the SP-VLC rule).
//! * **OR-fallback** ([`HybridPolicy::EitherChannel`]) — any channel
//!   suffices (availability-first: survives jamming, but injectable).

use platoon_crypto::cert::PrincipalId;
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::defense::{Defense, DetectionEvent, RejectReason};
use platoon_sim::world::World;
use platoon_v2x::hash::FxHashMap;
use platoon_v2x::message::{ChannelKind, Delivery, Payload};
use rand::rngs::StdRng;
use std::any::Any;

/// Cross-channel validation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HybridPolicy {
    /// SP-VLC AND-validation: manoeuvres need both channels.
    RequireBoth,
    /// Availability-first: either channel suffices (no cross-check).
    EitherChannel,
}

/// Configuration of the hybrid cross-validation defense.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridConfig {
    /// The validation policy.
    pub policy: HybridPolicy,
    /// Seconds within which the matching copy must arrive.
    pub window: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            policy: HybridPolicy::RequireBoth,
            window: 0.25,
        }
    }
}

/// The hybrid cross-validation defense.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(
///     Scenario::builder()
///         .vehicles(4)
///         .comms(CommsMode::HybridVlc)
///         .duration(5.0)
///         .build(),
/// );
/// engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
/// let summary = engine.run();
/// assert_eq!(summary.collisions, 0);
/// ```
#[derive(Clone, Debug)]
pub struct HybridConfirmDefense {
    config: HybridConfig,
    /// (receiver, payload bytes) → (first channel seen, time).
    seen: FxHashMap<(usize, Payload), (ChannelKind, f64)>,
    confirmed: u64,
    rejected: u64,
}

impl HybridConfirmDefense {
    /// Creates the defense.
    pub fn new(config: HybridConfig) -> Self {
        HybridConfirmDefense {
            config,
            seen: FxHashMap::default(),
            confirmed: 0,
            rejected: 0,
        }
    }

    /// Messages accepted after cross-channel confirmation.
    pub fn confirmed(&self) -> u64 {
        self.confirmed
    }

    /// Messages rejected for lack of confirmation.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl Defense for HybridConfirmDefense {
    fn name(&self) -> &'static str {
        "hybrid-sp-vlc"
    }

    fn filter_rx(
        &mut self,
        receiver_idx: usize,
        _world: &World,
        delivery: &Delivery,
        _sender: PrincipalId,
        msg: &PlatoonMessage,
        now: f64,
    ) -> Result<(), RejectReason> {
        if self.config.policy == HybridPolicy::EitherChannel {
            return Ok(());
        }
        // Only manoeuvre messages need both channels: beacons pass, and the
        // control-level plausibility checks validate them instead.
        if !msg.is_maneuver() {
            return Ok(());
        }

        let window = self.config.window;
        let key = (receiver_idx, delivery.payload.clone());
        match self.seen.get(&key) {
            Some(&(first_channel, t)) if first_channel != delivery.channel && now - t <= window => {
                self.confirmed += 1;
                Ok(())
            }
            _ => {
                // First sighting (or same-channel duplicate): remember it
                // and wait for the cross-channel copy.
                self.seen.insert(key, (delivery.channel, now));
                self.rejected += 1;
                Err(RejectReason::Unconfirmed)
            }
        }
    }

    /// Forgets stale sightings once per step, after the delivery round and
    /// at its time. A sighting older than the window takes the same branch
    /// in `filter_rx` as a missing one, and the insert overwrites it, so
    /// when it is forgotten never changes a verdict.
    fn on_step(&mut self, world: &mut World, _rng: &mut StdRng) -> Vec<DetectionEvent> {
        let (now, window) = (world.time, self.config.window);
        self.seen.retain(|_, (_, t)| now - *t <= window + 1.0);
        Vec::new()
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
    use platoon_proto::messages::{Beacon, PlatoonId, Role};
    use platoon_sim::prelude::*;
    use platoon_v2x::message::NodeId;
    use rand::{Rng, SeedableRng};

    /// The defense as it was with its stale sightings forgotten at every
    /// manoeuvre delivery. Counts why each delivery was held back.
    #[derive(Default)]
    struct PerDeliveryPrune {
        window: f64,
        seen: FxHashMap<(usize, Payload), (ChannelKind, f64)>,
        confirmed: u64,
        rejected: u64,
        cross_channel_too_late: u64,
        same_channel: u64,
    }

    impl PerDeliveryPrune {
        fn filter_rx(
            &mut self,
            receiver_idx: usize,
            delivery: &Delivery,
            msg: &PlatoonMessage,
            now: f64,
        ) -> Result<(), RejectReason> {
            if !msg.is_maneuver() {
                return Ok(());
            }
            let window = self.window;
            self.seen.retain(|_, (_, t)| now - *t <= window + 1.0);
            let key = (receiver_idx, delivery.payload.clone());
            match self.seen.get(&key) {
                Some(&(first_channel, t))
                    if first_channel != delivery.channel && now - t <= window =>
                {
                    self.confirmed += 1;
                    Ok(())
                }
                held => {
                    match held {
                        Some(&(first_channel, _)) if first_channel != delivery.channel => {
                            self.cross_channel_too_late += 1;
                        }
                        Some(_) => self.same_channel += 1,
                        None => {}
                    }
                    self.seen.insert(key, (delivery.channel, now));
                    self.rejected += 1;
                    Err(RejectReason::Unconfirmed)
                }
            }
        }
    }

    #[test]
    fn pruning_once_per_step_keeps_every_per_delivery_verdict() {
        let engine = Engine::new(Scenario::builder().vehicles(4).build());
        let mut world = engine.world().clone();
        let mut defense = HybridConfirmDefense::new(HybridConfig::default());
        let mut reference = PerDeliveryPrune {
            window: defense.config.window,
            ..Default::default()
        };
        // A small pool of manoeuvre payloads, so the same bytes come back
        // on both channels within the window, after it, and long after.
        let messages: Vec<PlatoonMessage> = (0..5)
            .map(|i| PlatoonMessage::JoinRequest {
                requester: PrincipalId(700 + i),
                platoon: PlatoonId(1),
                position: 10.0 * i as f64,
                timestamp: 0.5 * i as f64,
            })
            .collect();
        let payloads: Vec<Payload> = messages.iter().map(|m| m.encode().into()).collect();
        let beacon = PlatoonMessage::Beacon(Beacon {
            sender: PrincipalId(0),
            platoon: PlatoonId(1),
            role: Role::Leader,
            seq: 1,
            timestamp: 0.0,
            position: 100.0,
            speed: 25.0,
            accel: 0.0,
            length: 16.5,
        });
        let mut rng = StdRng::seed_from_u64(29);
        let mut forgotten = 0;
        // Steps of uneven length, so copies arrive at every gap around the
        // window, with steps (and their prunes) in between.
        for step in 0..1_000 {
            world.time += rng.gen_range(0.01..0.1);
            let now = world.time;
            for _ in 0..rng.gen_range(0..4) {
                let i = rng.gen_range(0..messages.len());
                let receiver = rng.gen_range(0..3);
                let channel = if rng.gen_bool(0.5) {
                    ChannelKind::Dsrc
                } else {
                    ChannelKind::Vlc
                };
                let delivery = Delivery {
                    sender: NodeId(0),
                    receiver: NodeId(receiver as u64 + 1),
                    frame: 0,
                    channel,
                    latency: 0.001,
                    rssi_dbm: -60.0,
                    payload: payloads[i].clone(),
                };
                let msg = if rng.gen_bool(0.1) {
                    &beacon
                } else {
                    &messages[i]
                };
                let got = defense.filter_rx(receiver, &world, &delivery, PrincipalId(0), msg, now);
                let want = reference.filter_rx(receiver, &delivery, msg, now);
                assert_eq!(got, want, "step {step}, payload {i}, receiver {receiver}");
            }
            let before = defense.seen.len();
            assert!(defense.on_step(&mut world, &mut rng).is_empty());
            forgotten += before - defense.seen.len();
        }
        assert_eq!(
            (defense.confirmed(), defense.rejected()),
            (reference.confirmed, reference.rejected)
        );
        assert!(
            reference.confirmed > 0,
            "cross-channel copies inside the window"
        );
        assert!(
            reference.cross_channel_too_late > 0,
            "cross-channel copies outside the window"
        );
        assert!(reference.same_channel > 0, "same-channel copies");
        assert!(forgotten > 0, "stale sightings forgotten");
    }

    fn scenario(label: &str, comms: CommsMode) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(40.0)
            .comms(comms)
            .seed(11)
            .build()
    }

    #[test]
    fn and_validation_blocks_rf_injected_split() {
        let mut engine = Engine::new(scenario("hybrid-split", CommsMode::HybridVlc));
        engine.add_attack(Box::new(FakeManeuverAttack::new(
            FakeManeuverConfig::default(),
        )));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
        let s = engine.run();
        // The forged split arrives on RF only: never confirmed, never obeyed.
        assert_eq!(
            s.fragmented_fraction, 0.0,
            "RF-only forgery must not split the platoon"
        );
        let d = engine.defenses()[0]
            .as_any()
            .downcast_ref::<HybridConfirmDefense>()
            .unwrap();
        assert!(d.rejected() > 0);
    }

    #[test]
    fn or_fallback_still_falls_to_the_forgery() {
        let mut engine = Engine::new(scenario("hybrid-or", CommsMode::HybridVlc));
        engine.add_attack(Box::new(FakeManeuverAttack::new(
            FakeManeuverConfig::default(),
        )));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig {
            policy: HybridPolicy::EitherChannel,
            ..Default::default()
        })));
        let s = engine.run();
        assert!(
            s.fragmented_fraction > 0.5,
            "OR policy provides no injection protection: {}",
            s.fragmented_fraction
        );
    }

    #[test]
    fn legitimate_maneuvers_survive_and_validation() {
        use platoon_crypto::cert::PrincipalId;
        use platoon_proto::messages::PlatoonId;
        use platoon_v2x::message::NodeId;

        let mut engine = Engine::new(scenario("hybrid-join", CommsMode::HybridVlc));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
        engine.add_attack(Box::new(JoinerAgent::new(
            PrincipalId(700),
            NodeId(700),
            JoinerCredentials::None,
            PlatoonId(1),
            2.0,
        )));
        engine.run();
        // The joiner transmits on RF only (it is outside the optical chain),
        // so its *requests* reach the leader... on one channel. The leader's
        // own responses go out on both. Under strict SP-VLC, out-of-platoon
        // joins need an RF exception — modelled here by the fact that the
        // join request is processed at the leader only after cross-channel
        // confirmation fails; the paper flags exactly this V2I gap as the
        // mechanism's open challenge ("the use of VLC and wireless radio
        // communications between V2I is lacking").
        let agent = engine.attacks()[0]
            .as_any()
            .downcast_ref::<JoinerAgent>()
            .unwrap();
        assert!(
            !agent.outcome().accepted,
            "strict AND-validation blocks single-channel joiners — the open challenge"
        );
    }

    #[test]
    fn beacons_pass_without_cross_channel_confirmation() {
        let mut engine = Engine::new(scenario("hybrid-beacons", CommsMode::HybridVlc));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
        let s = engine.run();
        assert_eq!(s.collisions, 0);
        assert!(
            s.leader_tail_pdr > 0.8,
            "beacons must flow: {}",
            s.leader_tail_pdr
        );
    }
}
