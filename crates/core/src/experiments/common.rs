//! Shared scaffolding for the experiment suite: canonical scenarios, arm
//! construction (attack × mechanism), and the per-attack impact metrics the
//! tables aggregate.

use platoon_attacks::prelude::*;
use platoon_crypto::cert::PrincipalId;
use platoon_defense::prelude::*;
use platoon_dynamics::profiles::SpeedProfile;
use platoon_proto::messages::PlatoonId;
use platoon_sim::prelude::*;
use platoon_v2x::message::NodeId;

/// Effort level of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Effort {
    /// Simulated seconds per run.
    pub duration: f64,
    /// Sweep points per axis.
    pub sweep_points: usize,
}

impl Effort {
    /// Quick runs for the test suite.
    pub fn quick() -> Self {
        Effort {
            duration: 30.0,
            sweep_points: 3,
        }
    }

    /// Full runs for the benchmark harness.
    pub fn full() -> Self {
        Effort {
            duration: 60.0,
            sweep_points: 6,
        }
    }

    /// Selects by flag.
    pub fn new(quick: bool) -> Self {
        if quick {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

/// The canonical 6-truck evaluation platoon.
pub fn base_scenario(label: &str, effort: Effort) -> ScenarioBuilder {
    Scenario::builder()
        .label(label)
        .vehicles(6)
        .duration(effort.duration)
        .max_platoon_size(16)
        .seed(2021)
}

/// The brake-test workload used by the integrity experiments (replay/FDI
/// need conflicting recorded data to be interesting).
pub fn brake_profile() -> SpeedProfile {
    SpeedProfile::BrakeTest {
        cruise: 25.0,
        low: 15.0,
        brake_at: 8.0,
        hold: 5.0,
    }
}

/// The attack a named arm runs: `None` for the attack-free `benign` arm,
/// otherwise the catalogued attack with every knob at its
/// [`AttackParams::defaults`] value. Panics with `unknown attack {arm}` on
/// any other name; a service job reports that panic as a failed job.
pub fn arm_params(arm: &str) -> Option<AttackParams> {
    (arm != "benign")
        .then(|| AttackParams::defaults(arm).unwrap_or_else(|_| panic!("unknown attack {arm}")))
}

/// Ground truth for a finished arm: [`AttackParams::truth`] for its attack,
/// or benign labels (every alert false) when it ran none.
pub fn arm_truth(params: Option<&AttackParams>, effort: Effort, engine: &Engine) -> TruthLabels {
    params.map_or_else(
        || TruthLabels::benign("benign"),
        |p| p.truth(effort.duration, engine.world()),
    )
}

/// Applies a Table III mechanism: returns the scenario builder with the
/// mechanism's scenario changes, and the defense modules to plug into the
/// engine once it is built, in installation order.
pub fn apply_mechanism(
    mechanism: &str,
    mut builder: ScenarioBuilder,
) -> (ScenarioBuilder, Vec<Box<dyn Defense>>) {
    let defenses: Vec<Box<dyn Defense>> = match mechanism {
        "keys" => {
            builder = builder.auth(AuthMode::Pki);
            vec![Box::new(AntiReplayDefense::timestamp())]
        }
        "keys-encrypted" => {
            builder = builder.auth(AuthMode::EncryptedGroupMac);
            vec![Box::new(AntiReplayDefense::timestamp())]
        }
        "rsu-gatekeeper" => {
            for i in 0..8 {
                builder = builder.rsu((i as f64 * 300.0, 8.0));
            }
            vec![Box::new(RsuDefense::new(RsuConfig {
                preregistered: vec![600],
                ..Default::default()
            }))]
        }
        "control-algorithms" => vec![
            Box::new(VpdAdaDefense::new(VpdAdaConfig::strict())),
            Box::new(MitigationDefense::new(MitigationConfig::default())),
        ],
        // Resilient control only (Petrillo et al. [7]) — used for the
        // replay/insider pairs, where eviction-style detection would push
        // the platoon into radar fallback and inflate the spacing metric.
        "control-mitigation" => vec![Box::new(
            MitigationDefense::new(MitigationConfig::default()),
        )],
        "hybrid-sp-vlc" => {
            builder = builder.comms(CommsMode::HybridVlc);
            vec![Box::new(HybridConfirmDefense::new(HybridConfig::default()))]
        }
        "onboard-hardening" => vec![Box::new(OnboardDefense::new(OnboardConfig::default()))],
        "trust" => vec![Box::new(TrustDefense::new(TrustConfig::default()))],
        other => panic!("unknown mechanism {other}"),
    };
    (builder, defenses)
}

/// The legitimate joiner used by the availability experiments.
pub fn legit_joiner(start: f64) -> JoinerAgent {
    JoinerAgent::new(
        PrincipalId(600),
        NodeId(600),
        JoinerCredentials::None,
        PlatoonId(1),
        1.0,
    )
    .with_start(start)
}

/// The impact metric of one finished run, per attack (higher = worse).
///
/// Units differ per attack; [`impact_unit`] names them. Table III divides
/// defended by undefended impact, so units cancel.
pub fn impact_of(attack: &str, engine: &Engine, summary: &RunSummary) -> f64 {
    match attack {
        "replay" | "impersonation" | "insider-fdi" => summary.oscillation_energy,
        // The functional outcome of losing communication: the string opens
        // to radar-fallback gaps. (Raw link PDR would under-credit the
        // hybrid relay chain, whose deliveries carry the relaying node id.)
        "jamming" => summary.max_spacing_error,
        "sybil" => {
            let phantom =
                engine.maneuvers().roster().len() as f64 - engine.world().vehicles.len() as f64;
            // Phantoms plus the wasted held-open gap time.
            phantom.max(0.0) + summary.maneuvers.wasted_gap_seconds / 100.0
        }
        "fake-maneuver" => summary.fragmented_fraction,
        "dos-join-flood" => {
            // The legitimate joiner's outcome: latency in seconds, or the
            // full run duration if starved/denied.
            engine
                .attacks()
                .iter()
                .find_map(|a| a.as_any().downcast_ref::<JoinerAgent>())
                .map(|j| {
                    let o = j.outcome();
                    if o.accepted {
                        o.accept_latency.unwrap_or(summary.duration)
                    } else {
                        summary.duration
                    }
                })
                .unwrap_or(0.0)
        }
        "sensor-spoof" => (10.0 - summary.min_gap).max(0.0),
        "gps-spoof" => {
            // How far the victim's *accepted* claimed position leads its
            // true position at the follower, metres (0 if the followers
            // stopped accepting the poisoned beacons).
            let world = engine.world();
            let follower = &world.vehicles[3];
            match follower.comm.predecessor {
                Some(h) if world.time - h.heard_at < 5.0 => {
                    (h.peer.position - world.vehicles[2].vehicle.state.position).max(0.0)
                }
                _ => 0.0,
            }
        }
        "malware" => summary.service_down_fraction,
        "eavesdrop" => engine
            .attacks()
            .iter()
            .find_map(|a| a.as_any().downcast_ref::<EavesdropAttack>())
            .map(|e| e.beacons_read() as f64)
            .unwrap_or(0.0),
        other => panic!("unknown attack {other}"),
    }
}

/// The unit of [`impact_of`] for a given attack.
pub fn impact_unit(attack: &str) -> &'static str {
    match attack {
        "replay" | "impersonation" | "insider-fdi" => "oscillation energy (m²·s)",
        "jamming" => "max spacing error (m)",
        "sybil" => "phantom members + gap-seconds/100",
        "fake-maneuver" => "fraction of run fragmented",
        "dos-join-flood" => "legit join latency (s, run length if starved)",
        "sensor-spoof" => "safety-margin erosion (m)",
        "gps-spoof" => "accepted position poisoning (m)",
        "malware" => "service-down fraction",
        "eavesdrop" => "plaintext beacons read",
        _ => "?",
    }
}

/// The base seed the experiment batches derive per-arm seeds from (the
/// paper's publication year, kept from the original serial drivers).
pub const EXPERIMENT_BASE_SEED: u64 = 2021;

/// What one experiment arm reports back through the harness: the run summary
/// plus the per-attack impact scalar, which must be extracted while the
/// engine is still alive (several impacts downcast attack state).
#[derive(Clone, Debug, PartialEq)]
pub struct ArmOutcome {
    /// The run's metrics summary.
    pub summary: RunSummary,
    /// [`impact_of`] evaluated on the finished engine.
    pub impact: f64,
}

/// Harness job body: runs one Table II/III (attack, mechanism) arm under
/// the given seed (`mechanism: None` is the undefended arm) and reduces it
/// to an [`ArmOutcome`].
pub fn arm_outcome(attack: &str, mechanism: Option<&str>, effort: Effort, seed: u64) -> ArmOutcome {
    let label = format!("{attack}/{}", mechanism.unwrap_or("undefended"));
    let params = arm_params(attack);
    let mut engine = build_arm(&label, attack, params.as_ref(), mechanism, effort, seed);
    let summary = engine.run();
    let impact = impact_of(attack, &engine, &summary);
    ArmOutcome { summary, impact }
}

/// Builds one named arm under `seed`, before its first step.
///
/// `arm` picks the workload: the brake test for the integrity arms
/// (`replay`, `insider-fdi`), which need conflicting recorded data, and the
/// honest joiner beside a join flood, carrying PKI credentials when the
/// mechanism deploys keys. `params` is the attack, `None` for a benign or
/// baseline arm; `mechanism` adds a Table III mechanism's scenario changes
/// and defenses.
pub fn build_arm(
    label: &str,
    arm: &str,
    params: Option<&AttackParams>,
    mechanism: Option<&str>,
    effort: Effort,
    seed: u64,
) -> Engine {
    let mut builder = base_scenario(label, effort).seed(seed);
    if matches!(arm, "replay" | "insider-fdi") {
        builder = builder.profile(brake_profile());
    }
    let defenses = if let Some(m) = mechanism {
        let (b, defenses) = apply_mechanism(m, builder);
        builder = b;
        defenses
    } else {
        Vec::new()
    };
    let mut engine = Engine::new(builder.build());
    if let Some(p) = params {
        engine.add_attack(p.build(effort.duration));
    }
    if arm == "dos-join-flood" {
        // Under a PKI deployment the honest joiner carries real credentials
        // (the flood, of course, cannot).
        let joiner = if engine.scenario().auth == AuthMode::Pki {
            let kp = platoon_crypto::keys::KeyPair::from_seed(600);
            let cert = engine
                .ca_mut()
                .issue(PrincipalId(600), kp.public(), 0.0, 36_000.0);
            JoinerAgent::new(
                PrincipalId(600),
                NodeId(600),
                JoinerCredentials::Pki {
                    signer: platoon_crypto::signature::Signer::new(kp),
                    certificate: cert,
                },
                PlatoonId(1),
                1.0,
            )
            .with_start(effort.duration * 0.25)
        } else {
            legit_joiner(effort.duration * 0.25)
        };
        engine.add_attack(Box::new(joiner));
    }
    for d in defenses {
        engine.add_defense(d);
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mechanism_applies() {
        for m in platoon_defense::registry::catalog() {
            let (b, defenses) = apply_mechanism(m.name, base_scenario("t", Effort::quick()));
            let _ = b.build();
            assert!(!defenses.is_empty(), "{} deploys no defense", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown attack")]
    fn unknown_attack_panics() {
        arm_params("wormhole");
    }

    #[test]
    fn arm_outcome_produces_finite_impact() {
        let impact = arm_outcome("jamming", None, Effort::quick(), EXPERIMENT_BASE_SEED).impact;
        assert!(impact.is_finite());
        assert!(impact > 0.3, "jamming should cost beacons: {impact}");
    }
}
