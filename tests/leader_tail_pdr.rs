//! `RunSummary::leader_tail_pdr` against a reference recount.
//!
//! The engine counts only the one link the summary reports: the ticks on
//! which a frame from the leader's radio node reached the tail's, over the
//! leader's beacon ticks. The reference recounts the same ratio from the
//! raw deliveries in an `observe` hook, on every comms mode, clean, jammed,
//! under burst loss and with the leader briefly offline. The runs have no
//! regime plan, so every tick is a beacon tick.

use platoon_security::prelude::*;
use platoon_security::v2x::message::Delivery;
use rand::rngs::StdRng;
use std::any::Any;

/// Recounts the leader→tail link from each tick's deliveries.
#[derive(Clone, Debug, Default)]
struct LinkReference {
    ticks: u64,
    beacon_ticks: u64,
    heard_ticks: u64,
}

impl LinkReference {
    fn pdr(&self) -> f64 {
        if self.beacon_ticks == 0 {
            return 0.0;
        }
        self.heard_ticks as f64 / self.beacon_ticks as f64
    }
}

impl Attack for LinkReference {
    fn name(&self) -> &'static str {
        "link-reference"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Availability
    }

    fn observe(&mut self, world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let leader = &world.vehicles[0];
        let tail = world.vehicles.last().expect("a platoon has a tail");
        self.ticks += 1;
        self.beacon_ticks += u64::from(leader.platooning_enabled);
        let heard = deliveries
            .iter()
            .any(|d| d.sender == leader.node && d.receiver == tail.node);
        self.heard_ticks += u64::from(heard);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Takes the leader's platooning service down from `from` to `to` seconds,
/// so the reference's denominator is not simply the tick count.
#[derive(Debug)]
struct LeaderOffline {
    from: f64,
    to: f64,
}

impl Attack for LeaderOffline {
    fn name(&self) -> &'static str {
        "leader-offline"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Availability
    }

    fn before_comm(&mut self, world: &mut World, _rng: &mut StdRng) {
        let offline = (self.from..self.to).contains(&world.time);
        world.vehicles[0].platooning_enabled = !offline;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone, Copy, Debug)]
enum Disturbance {
    None,
    Jammer,
    BurstLoss,
    LeaderOffline,
}

/// The summary's `leader_tail_pdr` and the reference's.
fn run(comms: CommsMode, disturbance: Disturbance) -> (f64, LinkReference) {
    let scenario = Scenario::builder()
        .label("leader-tail-pdr")
        .vehicles(6)
        .comms(comms)
        .duration(20.0)
        .seed(2021)
        .build();
    let mut engine = Engine::new(scenario);
    match disturbance {
        Disturbance::None => {}
        Disturbance::Jammer => engine.add_attack(Box::new(JammingAttack::new(JammingConfig {
            start: 5.0,
            ..Default::default()
        }))),
        Disturbance::BurstLoss => engine.add_fault(Box::new(BurstPacketLoss::new(
            vec![FaultWindow::new(4.0, 9.0), FaultWindow::new(13.0, 15.0)],
            25.0,
        ))),
        Disturbance::LeaderOffline => {
            engine.add_attack(Box::new(LeaderOffline { from: 6.0, to: 8.0 }))
        }
    }
    engine.add_attack(Box::new(LinkReference::default()));
    let summary = engine.run();
    let reference = engine
        .attacks()
        .last()
        .and_then(|a| a.as_any().downcast_ref::<LinkReference>())
        .cloned()
        .expect("the reference recount");
    (summary.leader_tail_pdr, reference)
}

#[test]
fn leader_tail_pdr_matches_a_recount_of_the_deliveries() {
    let mut partial = 0;
    let mut leader_offline_ticks = 0;
    for comms in [
        CommsMode::DsrcOnly,
        CommsMode::HybridVlc,
        CommsMode::HybridCv2x,
    ] {
        for disturbance in [
            Disturbance::None,
            Disturbance::Jammer,
            Disturbance::BurstLoss,
            Disturbance::LeaderOffline,
        ] {
            let (pdr, reference) = run(comms, disturbance);
            assert_eq!(
                pdr.to_bits(),
                reference.pdr().to_bits(),
                "{comms:?}, {disturbance:?}: summary {pdr} vs reference {} ({reference:?})",
                reference.pdr()
            );
            assert!(reference.beacon_ticks > 0, "{comms:?}, {disturbance:?}");
            partial += usize::from(pdr > 0.0 && pdr < 1.0);
            leader_offline_ticks += reference.ticks - reference.beacon_ticks;
        }
    }
    assert!(partial > 0, "every run delivered all or nothing");
    assert!(
        leader_offline_ticks > 0,
        "the leader never went offline, so the denominator went untested"
    );
}
