//! # platoon-sim
//!
//! The discrete-time platoon simulation engine with attack and defense hook
//! points — the heart of the reproduction of Taylor et al., *"Vehicular
//! Platoon Communication: Cybersecurity Threats and Open Challenges"*
//! (DSN-W 2021).
//!
//! * [`scenario`] — declarative run configuration (controller, key scheme,
//!   channels, workload) with a builder.
//! * [`world`] — vehicles, RSUs, jammers and the adversary-mutable state.
//! * [`engine`] — the sense → communicate → control → integrate loop.
//! * [`attack`] / [`defense`] — the pluggable adversary and mechanism hook
//!   traits implemented by `platoon-attacks` and `platoon-defense`.
//! * [`fault`] — the benign-fault hook trait implemented by `platoon-faults`
//!   (burst loss, sensor outages, RSU blackouts, ...).
//! * [`agents`] — benign traffic agents (e.g. a legitimate joiner).
//! * [`metrics`] / [`events`] — what a run reports.
//! * [`trace`] — the deterministic per-tick trace recorder and trace diff.
//! * [`cli`] — the command-line layer every subcommand of the
//!   `platoon-security` binary runs on.
//!
//! # Examples
//!
//! Run an undefended 8-truck CACC platoon for a minute and check it is
//! string stable:
//!
//! ```
//! use platoon_sim::prelude::*;
//!
//! let scenario = Scenario::builder()
//!     .label("quickstart")
//!     .vehicles(8)
//!     .duration(30.0)
//!     .build();
//! let mut engine = Engine::new(scenario);
//! let summary = engine.run();
//! assert_eq!(summary.collisions, 0);
//! assert!(summary.string_stable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod attack;
pub mod cli;
pub mod defense;
pub mod engine;
pub mod events;
pub mod exec;
pub mod fault;
pub mod harness;
pub mod metrics;
pub mod par;
pub mod perf;
pub mod regime;
pub mod scenario;
pub mod trace;
pub mod world;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::agents::{JoinerAgent, JoinerCredentials, JoinerOutcome};
    pub use crate::attack::{Attack, NoAttack, SecurityAttribute};
    pub use crate::defense::{Defense, DetectionEvent, NoDefense, RejectReason};
    pub use crate::engine::{Engine, EngineSnapshot, ObservationSink, SnapshotError};
    pub use crate::events::{Event, EventLog, LoggedEvent};
    pub use crate::fault::{Fault, NoFault};
    pub use crate::harness::{derive_seed, Batch, BatchEntry, BatchJob, BatchReport, JobOutcome};
    pub use crate::metrics::{
        per_frame_ratio, score_alerts, DetectionSummary, MetricsCollector, RunSummary, TruthLabels,
    };
    pub use crate::perf::PerfCounters;
    pub use crate::regime::{steps_for, RegimePhase, RegimePlan};
    pub use crate::scenario::{AuthMode, CommsMode, ControllerKind, Scenario, ScenarioBuilder};
    pub use crate::trace::{TraceDetail, TraceDigest, TracePhase, TraceRecord, TraceRecorder};
    pub use crate::world::{
        AuthMaterial, BeaconLie, CommState, HeardPeer, Rsu, VehicleNode, World,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use platooon_sanity::*;

    /// Internal helpers shared by the engine-level tests.
    mod platooon_sanity {
        use super::*;

        pub fn quick(label: &str) -> Scenario {
            Scenario::builder()
                .label(label)
                .vehicles(5)
                .duration(20.0)
                .seed(1)
                .build()
        }
    }

    #[test]
    fn baseline_platoon_is_stable_and_safe() {
        let mut engine = Engine::new(quick("baseline"));
        let s = engine.run();
        assert_eq!(s.collisions, 0, "honest platoon must not crash");
        assert!(s.string_stable, "honest CACC platoon must be string stable");
        assert!(
            s.max_spacing_error < 3.0,
            "errors stay small: {}",
            s.max_spacing_error
        );
        assert!(
            s.leader_tail_pdr > 0.9,
            "clean channel PDR: {}",
            s.leader_tail_pdr
        );
        assert_eq!(s.fragmented_fraction, 0.0);
    }

    /// A passive listener counting the deliveries its registered receiver
    /// overhears (regression scaffolding for delivery-target dedup).
    #[derive(Debug)]
    struct CountingEar {
        id: platoon_v2x::message::NodeId,
        heard: usize,
    }

    impl Attack for CountingEar {
        fn name(&self) -> &'static str {
            "counting-ear"
        }
        fn attribute(&self) -> SecurityAttribute {
            SecurityAttribute::Confidentiality
        }
        fn receiver(&self, _world: &World) -> Option<platoon_v2x::medium::Receiver> {
            Some(platoon_v2x::medium::Receiver {
                id: self.id,
                position: (60.0, 3.0),
            })
        }
        fn observe(
            &mut self,
            _world: &mut World,
            _rng: &mut rand::rngs::StdRng,
            deliveries: &[platoon_v2x::message::Delivery],
        ) {
            self.heard += deliveries.iter().filter(|d| d.receiver == self.id).count();
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn duplicate_attack_receivers_are_deduplicated() {
        // Two attacks registering the same receiver id used to put the node
        // on the medium's delivery roster twice, so every frame in range was
        // delivered (and counted, and fed to observers) twice. The engine
        // now drops the duplicate registration.
        let ear_id = platoon_v2x::message::NodeId(4242);
        let run_with_ears = |ears: usize| {
            let mut engine = Engine::new(quick("dedup"));
            for _ in 0..ears {
                engine.add_attack(Box::new(CountingEar {
                    id: ear_id,
                    heard: 0,
                }));
            }
            engine.run();
            engine.attacks()[0]
                .as_any()
                .downcast_ref::<CountingEar>()
                .expect("first attack is the ear")
                .heard
        };
        let single = run_with_ears(1);
        let double = run_with_ears(2);
        assert!(single > 0, "the ear overhears platoon traffic");
        assert_eq!(
            single, double,
            "a colliding second registration must not duplicate deliveries"
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let run = || Engine::new(quick("det")).run();
        let a = run();
        let b = run();
        assert_eq!(a.max_spacing_error, b.max_spacing_error);
        assert_eq!(a.oscillation_energy, b.oscillation_energy);
        assert_eq!(a.leader_tail_pdr, b.leader_tail_pdr);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Engine::new(
            Scenario::builder()
                .vehicles(4)
                .duration(10.0)
                .seed(1)
                .build(),
        )
        .run();
        let b = Engine::new(
            Scenario::builder()
                .vehicles(4)
                .duration(10.0)
                .seed(2)
                .build(),
        )
        .run();
        // Channel noise differs, so PDR or errors differ at least slightly.
        assert!(
            a.max_spacing_error != b.max_spacing_error || a.leader_tail_pdr != b.leader_tail_pdr
        );
    }

    #[test]
    fn all_controllers_hold_the_platoon() {
        for kind in [
            ControllerKind::Acc,
            ControllerKind::Cacc,
            ControllerKind::Ploeg,
            ControllerKind::Consensus,
        ] {
            let scenario = Scenario::builder()
                .label("ctrl")
                .vehicles(4)
                .controller(kind)
                .duration(30.0)
                .build();
            let s = Engine::new(scenario).run();
            assert_eq!(s.collisions, 0, "{kind:?} crashed");
            assert!(
                s.min_gap > 0.5,
                "{kind:?} got dangerously close: {}",
                s.min_gap
            );
        }
    }

    #[test]
    fn auth_modes_all_function() {
        for auth in [AuthMode::None, AuthMode::GroupMac, AuthMode::Pki] {
            let scenario = Scenario::builder()
                .vehicles(4)
                .auth(auth)
                .duration(15.0)
                .build();
            let s = Engine::new(scenario).run();
            assert_eq!(s.collisions, 0, "{auth:?}");
            assert_eq!(s.rejected_messages, 0, "{auth:?} rejected honest traffic");
        }
    }

    #[test]
    fn hybrid_comms_modes_function() {
        for comms in [
            CommsMode::DsrcOnly,
            CommsMode::HybridVlc,
            CommsMode::HybridCv2x,
        ] {
            let scenario = Scenario::builder()
                .vehicles(4)
                .comms(comms)
                .duration(15.0)
                .build();
            let s = Engine::new(scenario).run();
            assert_eq!(s.collisions, 0, "{comms:?}");
            assert!(
                s.leader_tail_pdr > 0.8,
                "{comms:?} pdr {}",
                s.leader_tail_pdr
            );
        }
    }

    #[test]
    fn step_profile_settles_without_collision() {
        use platoon_dynamics::profiles::SpeedProfile;
        let scenario = Scenario::builder()
            .vehicles(6)
            .profile(SpeedProfile::Step {
                initial: 20.0,
                target: 26.0,
                at: 10.0,
            })
            .duration(40.0)
            .build();
        let s = Engine::new(scenario).run();
        assert_eq!(s.collisions, 0);
        assert!(s.max_spacing_error < 5.0);
    }

    #[test]
    fn brake_test_keeps_safe_gaps() {
        use platoon_dynamics::profiles::SpeedProfile;
        let scenario = Scenario::builder()
            .vehicles(5)
            .profile(SpeedProfile::BrakeTest {
                cruise: 25.0,
                low: 12.0,
                brake_at: 10.0,
                hold: 8.0,
            })
            .duration(40.0)
            .build();
        let s = Engine::new(scenario).run();
        assert_eq!(
            s.collisions, 0,
            "emergency braking must not crash a CACC platoon"
        );
        assert!(s.min_gap > 0.0);
    }

    #[test]
    fn legitimate_joiner_gets_in() {
        use platoon_crypto::cert::PrincipalId;
        use platoon_proto::messages::PlatoonId;
        use platoon_v2x::message::NodeId;

        let scenario = Scenario::builder().vehicles(4).duration(30.0).build();
        let mut engine = Engine::new(scenario);
        let joiner = JoinerAgent::new(
            PrincipalId(500),
            NodeId(500),
            JoinerCredentials::None,
            PlatoonId(1),
            2.0,
        );
        engine.add_attack(Box::new(joiner));
        let s = engine.run();
        let agent = engine.attacks()[0]
            .as_any()
            .downcast_ref::<JoinerAgent>()
            .unwrap();
        assert!(agent.outcome().accepted, "join should be accepted");
        assert!(agent.outcome().accept_latency.unwrap() < 10.0);
        assert!(s.maneuvers.joins_accepted >= 1);
        assert!(
            s.maneuvers.joins_completed >= 1,
            "arrival beacon completes the join"
        );
    }

    #[test]
    fn fuel_consumption_is_plausible() {
        let s = Engine::new(quick("fuel")).run();
        assert!(
            (10.0..60.0).contains(&s.fuel_l_per_100km),
            "fleet fuel {} L/100km",
            s.fuel_l_per_100km
        );
    }

    #[test]
    fn events_log_join_lifecycle() {
        use platoon_crypto::cert::PrincipalId;
        use platoon_proto::messages::PlatoonId;
        use platoon_v2x::message::NodeId;

        let scenario = Scenario::builder().vehicles(3).duration(20.0).build();
        let mut engine = Engine::new(scenario);
        engine.add_attack(Box::new(JoinerAgent::new(
            PrincipalId(501),
            NodeId(501),
            JoinerCredentials::None,
            PlatoonId(1),
            2.0,
        )));
        engine.run();
        assert!(
            engine
                .events()
                .count(|e| matches!(e, Event::JoinAccepted { .. }))
                >= 1
        );
    }
}
