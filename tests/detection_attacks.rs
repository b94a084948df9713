//! Integration: the online detection pipeline (`platoon-detect`) wired
//! into the engine catches each major Table II attack class end-to-end —
//! with an attributed alert inside a per-attack latency budget — and stays
//! completely silent on honest traffic.

use platoon_security::prelude::*;

fn scenario(label: &str) -> Scenario {
    Scenario::builder()
        .label(label)
        .vehicles(6)
        .duration(30.0)
        .max_platoon_size(16)
        .seed(2021)
        .build()
}

/// The first alert naming the given principal, if any.
fn first_alert_naming(engine: &Engine, suspect: PrincipalId) -> Option<f64> {
    engine
        .alerts()
        .iter()
        .find(|a| a.target == AlertTarget::Sender(suspect))
        .map(|a| a.time)
}

#[test]
fn clean_run_raises_no_alarms_under_either_profile() {
    for (name, config) in [
        ("default", PipelineConfig::default_profile()),
        ("strict", PipelineConfig::strict()),
    ] {
        let mut engine = Engine::new(scenario("detect/clean"));
        engine.attach_detector_config(config);
        let summary = engine.run();
        assert!(
            engine.alerts().is_empty(),
            "{name}: honest platoon raised {:?}",
            engine.alerts()
        );
        assert_eq!(summary.detections, 0, "{name}");
    }
}

#[test]
fn replay_is_detected_when_the_replays_start() {
    let mut engine = Engine::new(scenario("detect/replay"));
    engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig {
        record_from: 0.0,
        replay_from: 10.0,
        ..Default::default()
    })));
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.run();
    let first = engine.alerts().first().expect("replays must alert").time;
    assert!(
        (10.0..13.0).contains(&first),
        "stale replayed frames should alert promptly after 10 s: {first}"
    );
    // Replayed frames carry member identities; the alert is attributed to
    // the replayed stream, not to thin air.
    assert!(engine
        .alerts()
        .iter()
        .all(|a| matches!(a.target, AlertTarget::Sender(_))));
}

#[test]
fn impersonated_victim_stream_is_flagged() {
    let mut engine = Engine::new(scenario("detect/impersonation"));
    engine.add_attack(Box::new(ImpersonationAttack::new(ImpersonationConfig {
        start: 10.0,
        duration: 10.0,
        ..Default::default()
    })));
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.run();
    let t = first_alert_naming(&engine, PrincipalId(1))
        .expect("the impersonated identity must be flagged");
    assert!(
        (10.0..12.0).contains(&t),
        "contradictory dual stream should alert within 2 s: {t}"
    );
}

#[test]
fn sybil_ghosts_are_flagged_as_a_burst() {
    let mut engine = Engine::new(scenario("detect/sybil"));
    engine.add_attack(Box::new(SybilAttack::new(SybilConfig {
        start: 10.0,
        ..Default::default()
    })));
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.run();
    let ghost_alert = engine
        .alerts()
        .iter()
        .find(|a| matches!(a.target, AlertTarget::Sender(p) if p.0 >= 7_000))
        .expect("ghost identities must be flagged");
    assert!(
        ghost_alert.time < 15.0,
        "new-identity burst should alert within 5 s: {}",
        ghost_alert.time
    );
}

#[test]
fn jamming_raises_a_channel_alarm() {
    let mut engine = Engine::new(scenario("detect/jamming"));
    engine.add_attack(Box::new(JammingAttack::new(JammingConfig {
        start: 10.0,
        ..Default::default()
    })));
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.run();
    let channel = engine
        .alerts()
        .iter()
        .find(|a| a.target == AlertTarget::Channel)
        .expect("an unattributable outage must raise a channel alarm");
    assert!(
        (10.0..16.0).contains(&channel.time),
        "beacon silence should alarm within the silence budget: {}",
        channel.time
    );
    // Jamming is attributed to the channel, not pinned on an innocent
    // member (the §V-B "who do you blame" problem).
    assert!(
        engine
            .alerts()
            .iter()
            .all(|a| a.target == AlertTarget::Channel),
        "no member is blamed for the jammer: {:?}",
        engine.alerts()
    );
}

#[test]
fn malware_silenced_vehicle_is_flagged_by_the_strict_profile() {
    // DisablePlatooning turns the infected vehicle silent; selective-silence
    // evidence accumulates per observer and crosses the strict threshold.
    let mut engine = Engine::new(scenario("detect/malware"));
    engine.add_attack(Box::new(MalwareAttack::new(MalwareConfig {
        infect_at: 3.0,
        ..Default::default()
    })));
    engine.attach_detector_config(PipelineConfig::strict());
    engine.run();
    let infected: Vec<PrincipalId> = engine
        .world()
        .vehicles
        .iter()
        .filter(|v| v.infected)
        .map(|v| v.principal)
        .collect();
    assert!(!infected.is_empty(), "patient zero must be infected");
    let flagged = engine
        .alerts()
        .iter()
        .find(|a| matches!(a.target, AlertTarget::Sender(p) if infected.contains(&p)))
        .expect("a silenced infected vehicle must be flagged");
    assert!(
        flagged.time < 25.0,
        "silence after incubation should be flagged in-run: {}",
        flagged.time
    );
}
