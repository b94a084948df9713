//! Experiment R: detection quality across driving regimes.
//!
//! The paper's open challenges (§VI-B) note that platoon security
//! mechanisms are tuned and evaluated on *one* traffic condition at a
//! time, while a real corridor drive crosses several in a single trip.
//! This experiment runs the canonical platoon through a piecewise
//! [`RegimePlan`] — highway cruise → congestion → stop-and-go → tunnel —
//! and scores two detector tunings against it:
//!
//! * `cruise` — thresholds tightened for steady highway driving (small
//!   plausible accelerations, tight claim consistency). Sensitive, but
//!   blind to context: honest hard braking in the stop-and-go phase looks
//!   exactly like a falsified claim.
//! * `regime-aware` — the same cruise base, plus per-phase threshold sets
//!   swapped in when the engine announces a phase change
//!   ([`Pipeline::on_regime`](platoon_detect::pipeline::Pipeline::on_regime)).
//!
//! Rows bucket alerts by regime phase, so the document shows *where* each
//! profile pays its false positives — the cruise profile must measurably
//! degrade in stop-and-go while the regime-aware profile stays quiet.
//!
//! The experiment doubles as the harness for the engine's
//! snapshot/fast-forward machinery: [`resume_check`] renders a straight
//! run and an interrupted-snapshot-restored-resumed run of the same arm to
//! canonical documents that must be byte-identical.

use super::common::{arm_params, arm_truth, base_scenario, Effort, EXPERIMENT_BASE_SEED};
use super::table4::profile_for;
use platoon_detect::checks::KinematicLimits;
use platoon_detect::fusion::{Alert, AlertTarget};
use platoon_detect::kinematic::KinematicConfig;
use platoon_detect::pipeline::PipelineConfig;
use platoon_dynamics::profiles::SpeedProfile;
use platoon_sim::cli::{self, Args, Command, Exit, Flag};
use platoon_sim::harness::{golden, json, write_detection_summary, write_run_summary, Batch};
use platoon_sim::prelude::{
    score_alerts, steps_for, DetectionSummary, Engine, RegimePhase, RegimePlan, RunSummary,
    TruthLabels,
};
use platoon_sim::trace::TraceRecorder;

/// Detector profiles compared by the experiment.
pub const PROFILES: [&str; 2] = ["cruise", "regime-aware"];

/// Attack arms: the benign floor (where regime-blind tuning pays) and the
/// insider falsifier (which both profiles must still catch).
pub const ATTACKS: [&str; 2] = ["benign", "insider-fdi"];

/// The kinematic limits a cruise-only tuning would pick: nothing on a
/// steady highway accelerates hard, so the acceleration bound and the
/// claimed-vs-implied mismatch tolerance come way down.
fn cruise_limits() -> KinematicLimits {
    KinematicLimits {
        max_accel: 3.0,
        position_tolerance: 8.0,
        max_speed: 40.0,
        accel_mismatch: Some(1.0),
    }
}

/// Mid-tightness limits for moderate-dynamics phases (congestion, tunnel).
fn congested_limits() -> KinematicLimits {
    KinematicLimits {
        max_accel: 6.0,
        position_tolerance: 8.0,
        max_speed: 50.0,
        accel_mismatch: Some(2.0),
    }
}

/// The cruise-tuned pipeline: `cruise_limits` with no per-phase
/// adjustment — the regime-blindness under test.
pub fn cruise_profile() -> PipelineConfig {
    PipelineConfig {
        kinematic: KinematicConfig {
            limits: cruise_limits(),
            phase_limits: Vec::new(),
        },
        ..Default::default()
    }
}

/// The regime-aware pipeline: the same cruise base, but phase changes swap
/// in limits sized for each regime's honest dynamics (stop-and-go braking
/// reaches the trucks' physical deceleration limit, so that phase falls
/// back to the stock physical-plausibility bounds).
pub fn regime_aware_profile() -> PipelineConfig {
    PipelineConfig {
        kinematic: KinematicConfig {
            limits: cruise_limits(),
            phase_limits: vec![
                ("congestion".to_string(), congested_limits()),
                ("stop-and-go".to_string(), KinematicLimits::default()),
                ("tunnel".to_string(), congested_limits()),
            ],
        },
        ..Default::default()
    }
}

/// The canonical corridor drive, scaled to the effort's run length:
/// cruise (35%), congestion (25%, tightened gap, mild noise), stop-and-go
/// (25%, urban drive cycle), tunnel (15%, heavy noise, halved beacon
/// cadence).
pub fn plan_for(effort: Effort) -> RegimePlan {
    let d = effort.duration;
    RegimePlan::new(vec![
        RegimePhase::new("cruise", 0.35 * d).with_profile(SpeedProfile::Constant { speed: 24.0 }),
        // Gentle slowdown (24 → 20 m/s): dense but flowing traffic. The
        // deceleration stays inside even the cruise profile's limits, so
        // the first honest limit violations happen in stop-and-go.
        RegimePhase::new("congestion", 0.25 * d)
            .with_profile(SpeedProfile::Constant { speed: 20.0 })
            .with_desired_gap(7.0)
            .with_noise(3.0),
        RegimePhase::new("stop-and-go", 0.25 * d)
            .with_profile(SpeedProfile::UrbanDrive {
                min: 2.0,
                max: 16.0,
                phase: 3.0,
                seed: 7,
            })
            .with_noise(1.0),
        RegimePhase::new("tunnel", 0.15 * d)
            .with_profile(SpeedProfile::Constant { speed: 20.0 })
            .with_noise(15.0)
            .with_beacon_every(2),
    ])
}

/// Per-phase alert bucket of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseScore {
    /// Regime phase label.
    pub label: String,
    /// Alerts raised while the phase was active.
    pub alerts: u64,
    /// Of those, true positives (guilty target at/after attack start).
    pub true_positives: u64,
    /// Everything else.
    pub false_positives: u64,
}

/// One (profile, attack) cell of the regime experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeRow {
    /// Detector profile name.
    pub profile: String,
    /// Attack arm name (`benign` for the false-positive floor).
    pub attack: String,
    /// Whole-run detection score.
    pub detection: DetectionSummary,
    /// Alerts bucketed by the regime phase active when they fired.
    pub phases: Vec<PhaseScore>,
}

impl RegimeRow {
    /// The phase bucket with the given label.
    pub fn phase(&self, label: &str) -> &PhaseScore {
        self.phases
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("no phase bucket {label:?}"))
    }
}

/// Buckets an alert stream by the regime phase active at each alert's
/// timestamp, classifying each alert with the same guilt rules as
/// [`score_alerts`].
fn phase_scores(
    alerts: &[Alert],
    truth: &TruthLabels,
    plan: &RegimePlan,
    comm_step: f64,
) -> Vec<PhaseScore> {
    let starts = plan.boundaries(comm_step);
    let mut scores: Vec<PhaseScore> = plan
        .phases
        .iter()
        .map(|p| PhaseScore {
            label: p.label.clone(),
            alerts: 0,
            true_positives: 0,
            false_positives: 0,
        })
        .collect();
    for alert in alerts {
        // Last phase whose start time is at or before the alert.
        let mut idx = 0;
        for (i, &start) in starts.iter().enumerate() {
            if start as f64 * comm_step <= alert.time {
                idx = i;
            }
        }
        let hit = alert.time >= truth.start
            && match alert.target {
                AlertTarget::Sender(p) => truth.is_guilty(p),
                AlertTarget::Channel => truth.channel_attack,
            };
        scores[idx].alerts += 1;
        if hit {
            scores[idx].true_positives += 1;
        } else {
            scores[idx].false_positives += 1;
        }
    }
    scores
}

/// Harness job body: one (profile, attack) run over the canonical regime
/// plan, scored whole-run and per-phase.
pub fn regime_arm(profile: &str, attack: &str, effort: Effort, seed: u64) -> RegimeRow {
    let params = arm_params(attack);
    let plan = plan_for(effort);
    let label = format!("regime/{profile}/{attack}");
    let mut engine = Engine::new(
        base_scenario(&label, effort)
            .seed(seed)
            .regimes(plan.clone())
            .build(),
    );
    if let Some(p) = &params {
        engine.add_attack(p.build(effort.duration));
    }
    engine.attach_detector_config(profile_for(profile));
    engine.run();
    let truth = arm_truth(params.as_ref(), effort, &engine);
    let detection = score_alerts(engine.alerts(), &truth);
    let phases = phase_scores(engine.alerts(), &truth, &plan, engine.scenario().comm_step);
    RegimeRow {
        profile: profile.to_string(),
        attack: attack.to_string(),
        detection,
        phases,
    }
}

/// A completed regime experiment: the plan it ran plus one row per
/// (profile, attack) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeReport {
    /// The regime plan every cell ran under.
    pub plan: RegimePlan,
    /// One row per (profile, attack), profiles outer.
    pub rows: Vec<RegimeRow>,
}

/// Runs the full profile × attack grid with an explicit worker count and
/// optional seed override.
pub fn run_with(quick: bool, workers: usize, seed: Option<u64>) -> RegimeReport {
    let effort = Effort::new(quick);
    let seed = seed.unwrap_or(EXPERIMENT_BASE_SEED);
    let mut batch: Batch<RegimeRow> = Batch::new(EXPERIMENT_BASE_SEED);
    for profile in PROFILES {
        for attack in ATTACKS {
            batch.push_with_seed(format!("regime/{profile}/{attack}"), seed, move |seed| {
                regime_arm(profile, attack, effort, seed)
            });
        }
    }
    let rows = batch.run(workers).into_iter().map(|e| e.value).collect();
    RegimeReport {
        plan: plan_for(effort),
        rows,
    }
}

/// Runs the grid at default width.
pub fn run(quick: bool) -> RegimeReport {
    run_with(quick, platoon_sim::harness::default_workers(), None)
}

/// Canonical rendering of one row's body (shared with the job service's
/// result documents, which must match a fresh run byte for byte).
pub fn write_row(w: &mut json::Writer, row: &RegimeRow) {
    w.field_str("profile", &row.profile);
    w.field_str("attack", &row.attack);
    w.field_obj("detection", |w| write_detection_summary(w, &row.detection));
    w.field_arr("phases", |w| {
        for p in &row.phases {
            w.elem(|w| {
                w.obj(|w| {
                    w.field_str("label", &p.label);
                    w.field_u64("alerts", p.alerts);
                    w.field_u64("true_positives", p.true_positives);
                    w.field_u64("false_positives", p.false_positives);
                })
            });
        }
    });
}

/// Canonical JSON rendering of the report — the golden-snapshot document.
pub fn to_canonical_json(report: &RegimeReport) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_u64("base_seed", EXPERIMENT_BASE_SEED);
        w.field_arr("plan", |w| {
            for p in &report.plan.phases {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("label", &p.label);
                        w.field_f64("duration", p.duration);
                        if let Some(gap) = p.desired_gap {
                            w.field_f64("desired_gap", gap);
                        }
                        w.field_f64("noise_extra_db", p.noise_extra_db);
                        w.field_u64("beacon_every", p.beacon_every);
                    })
                });
            }
        });
        w.field_arr("rows", |w| {
            for row in &report.rows {
                w.elem(|w| w.obj(|w| write_row(w, row)));
            }
        });
    });
    w.finish()
}

/// Renders one finished run (summary + end-state digest) to a canonical
/// document — the byte-comparison unit of [`resume_check`].
fn final_state_document(summary: &RunSummary, engine: &Engine) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_obj("summary", |w| write_run_summary(w, summary));
        w.field_str("state_digest", &format!("{:016x}", engine.state_digest()));
    });
    w.finish()
}

/// Runs the canonical regime arm straight through, then again interrupted
/// at one third of the run — snapshot, restore, resume — and returns both
/// final-state documents. The two must be byte-identical: the snapshot
/// carries the *entire* engine state (world, rng, detector tracks, trace
/// digest), so resuming can neither lose nor replay a single tick.
pub fn resume_check(quick: bool, seed: u64) -> (String, String) {
    let effort = Effort::new(quick);
    let build = || {
        let mut engine = Engine::new(
            base_scenario("regime/resume", effort)
                .seed(seed)
                .regimes(plan_for(effort))
                .build(),
        );
        let insider = arm_params("insider-fdi").expect("an attack arm");
        engine.add_attack(insider.build(effort.duration));
        engine.attach_detector_config(profile_for("regime-aware"));
        engine.attach_tracer(TraceRecorder::new());
        engine
    };

    let mut straight = build();
    let straight_summary = straight.run();
    let straight_doc = final_state_document(&straight_summary, &straight);

    let mut interrupted = build();
    let scenario = interrupted.scenario().clone();
    let total = steps_for(scenario.duration, scenario.comm_step);
    interrupted.fast_forward(total / 3);
    let snapshot = interrupted.snapshot().expect("regime engine snapshots");
    drop(interrupted);
    let mut resumed = snapshot.restore().expect("snapshot restores");
    let resumed_summary = resumed.run();
    let resumed_doc = final_state_document(&resumed_summary, &resumed);

    (straight_doc, resumed_doc)
}

/// The `regimes` subcommand.
pub const COMMAND: Command = Command {
    name: "regimes",
    summary: "detection quality across driving regimes, written to REGIME_<label>.json",
    operands: &[],
    flags: &[
        cli::QUICK,
        cli::WORKERS,
        cli::OUT,
        cli::CHECK_GOLDEN,
        Flag::value(
            "--seed",
            "N",
            "pin the run seed (default: the experiment base seed)",
        ),
        Flag::switch(
            "--resume-check",
            "also check snapshot/restore/resume byte identity (REGIME_resume_*.json)",
        ),
    ],
    run: cli_main,
};

fn cli_main(args: &mut Args) -> Result<(), Exit> {
    let workers = args.workers()?;
    let seed = args.parse("--seed")?;
    let quick = args.quick();
    eprintln!(
        "running the regime grid ({} effort, {workers} workers)...",
        args.label()
    );
    let report = run_with(quick, workers, seed);
    for row in &report.rows {
        println!(
            "{:<14} {:<12} detected {}  fp {:>3}  per-phase fp {}",
            row.profile,
            row.attack,
            row.detection.detected,
            row.detection.false_positives,
            row.phases
                .iter()
                .map(|p| format!("{}:{}", p.label, p.false_positives))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    let document = to_canonical_json(&report);
    args.write(&format!("REGIME_{}.json", args.label()), &document)?;
    args.check_golden(&document, golden::Tolerance::snapshot());

    if args.switch("--resume-check") {
        let (straight, resumed) = resume_check(quick, seed.unwrap_or(EXPERIMENT_BASE_SEED));
        args.write("REGIME_resume_straight.json", &straight)?;
        args.write("REGIME_resume_resumed.json", &resumed)?;
        if straight == resumed {
            eprintln!("resume check: straight and resumed runs are byte-identical");
        } else {
            args.fail("resume check FAILED: straight and resumed documents differ");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::harness::golden::Tolerance;
    use std::path::{Path, PathBuf};

    fn golden_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/regime_quick.json")
    }

    fn row<'a>(report: &'a RegimeReport, profile: &str, attack: &str) -> &'a RegimeRow {
        report
            .rows
            .iter()
            .find(|r| r.profile == profile && r.attack == attack)
            .unwrap()
    }

    #[test]
    fn cruise_tuning_degrades_in_stop_and_go_and_matches_golden() {
        let report = run(true);
        assert_eq!(report.rows.len(), PROFILES.len() * ATTACKS.len());

        // The core claim: regime-blind cruise tuning mistakes honest
        // stop-and-go braking for falsified claims; the regime-aware
        // profile, identical in the cruise phase, stays quiet there.
        let cruise = row(&report, "cruise", "benign");
        let aware = row(&report, "regime-aware", "benign");
        assert!(
            cruise.phase("stop-and-go").false_positives
                > aware.phase("stop-and-go").false_positives,
            "cruise tuning must pay false positives in stop-and-go: cruise {} vs aware {}",
            cruise.phase("stop-and-go").false_positives,
            aware.phase("stop-and-go").false_positives
        );
        // Both profiles share the cruise-phase tuning, so neither fires on
        // the honest cruise phase.
        assert_eq!(cruise.phase("cruise").false_positives, 0);
        assert_eq!(aware.phase("cruise").false_positives, 0);

        // Context-awareness must not cost the detection that matters: the
        // insider falsifier (starting mid-cruise) is still caught.
        for profile in PROFILES {
            let r = row(&report, profile, "insider-fdi");
            assert!(r.detection.detected, "{profile} must detect insider-fdi");
            assert!(
                r.detection.true_positives > 0,
                "{profile} insider-fdi true positives"
            );
        }

        golden::assert_matches(
            &golden_path(),
            &to_canonical_json(&report),
            Tolerance::snapshot(),
        );
    }

    #[test]
    fn document_is_identical_across_worker_counts() {
        let serial = run_with(true, 1, None);
        let parallel = run_with(true, 8, None);
        assert_eq!(to_canonical_json(&serial), to_canonical_json(&parallel));
    }

    #[test]
    fn interrupted_run_resumes_byte_identically() {
        let (straight, resumed) = resume_check(true, EXPERIMENT_BASE_SEED);
        assert_eq!(
            straight, resumed,
            "snapshot/restore/resume must reproduce the straight run byte for byte"
        );
        // The document pins the trace digest too (a tracer was attached).
        assert!(straight.contains("\"trace\""));
    }
}
