//! The campaign evaluation cell: one tuned-attack candidate scored
//! against the Table IV detection pipeline.
//!
//! The adversarial campaign (crates/campaign) searches each attack's
//! [`AttackParams`] space for *stealth-optimal* configurations — parameter
//! assignments that keep the online detector quiet while still damaging
//! the platoon. This module is the shared cell both executors run: the
//! in-process batch path and the `platoon-server` job service
//! (`JobSpec::Campaign`) call [`evaluate_candidate`] and serialise the
//! result through the same canonical document, so a cached server result
//! is byte-identical to a local one.
//!
//! Scoring is fixed and documented here, not in the driver:
//!
//! * **stealth oracle** ([`CandidateOutcome::detection_score`], minimise) —
//!   `5·detected + true_positives` against the *default* Table IV pipeline,
//!   so "ever caught at all" dominates and sustained alarm volume breaks
//!   ties;
//! * **payoff** ([`CandidateOutcome::damage`], maximise) — the attack's own
//!   Table II/III impact scalar plus the safety terms every attack shares:
//!   collisions (heavily weighted), emergency-braking exposure (time-to-
//!   collision under the 2 s AEB trigger band), and safety-margin erosion
//!   (bumper gap pushed under 10 m).

use super::common::{build_arm, impact_of, Effort};
use super::table4::profile_for;
use platoon_attacks::prelude::AttackParams;
use platoon_sim::harness::json::{self, Value};
use platoon_sim::prelude::score_alerts;

/// Collision weight in [`CandidateOutcome::damage`] — one crash outweighs
/// any continuous-metric gain.
pub const COLLISION_WEIGHT: f64 = 100.0;

/// The TTC band under which an AEB would have fired (seconds).
pub const AEB_TTC_S: f64 = 2.0;

/// The bumper gap under which spacing is a violation (metres).
pub const SAFE_GAP_M: f64 = 10.0;

/// Detection weight for "was the attack detected at all" in
/// [`CandidateOutcome::detection_score`].
pub const DETECTED_WEIGHT: f64 = 5.0;

/// Everything the campaign needs to know about one evaluated candidate.
///
/// The struct stores raw measurements; the two campaign objectives are
/// derived ([`detection_score`](Self::detection_score),
/// [`damage`](Self::damage)) so the scoring formula lives in exactly one
/// place.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateOutcome {
    /// Whether the default pipeline detected the attack at all.
    pub detected: bool,
    /// True positives scored against ground truth.
    pub true_positives: u64,
    /// False positives (benign-floor noise plus misattributions).
    pub false_positives: u64,
    /// Total alerts raised.
    pub alerts: u64,
    /// Seconds from attack start to first true positive (∞ if never).
    pub latency_s: f64,
    /// The attack's own Table II impact scalar
    /// ([`super::common::impact_of`] units, per attack).
    pub impact: f64,
    /// Collisions observed.
    pub collisions: u64,
    /// Minimum bumper gap observed, metres.
    pub min_gap: f64,
    /// Minimum time-to-collision observed, seconds (∞ if never closing).
    pub min_ttc: f64,
    /// Maximum absolute spacing error, metres.
    pub max_spacing_error: f64,
}

impl CandidateOutcome {
    /// The stealth objective (minimise): detection presence, heavily
    /// weighted, plus the sustained true-positive volume, plus a
    /// timeliness term — `1/(1+latency)` — so that *delaying* detection
    /// counts as stealth even when detection itself is inevitable (the
    /// same latency axis Table IV reports as a first-class quality
    /// metric). An undetected run scores exactly 0.
    pub fn detection_score(&self) -> f64 {
        let timeliness = if self.latency_s.is_finite() {
            1.0 / (1.0 + self.latency_s.max(0.0))
        } else {
            0.0
        };
        DETECTED_WEIGHT * (self.detected as u64 as f64) + self.true_positives as f64 + timeliness
    }

    /// The payoff objective (maximise): per-attack impact plus the shared
    /// safety terms (collisions, AEB-band TTC exposure, safety-margin
    /// erosion).
    pub fn damage(&self) -> f64 {
        self.impact
            + COLLISION_WEIGHT * self.collisions as f64
            + (AEB_TTC_S - self.min_ttc).max(0.0)
            + (SAFE_GAP_M - self.min_gap).max(0.0)
    }

    /// Writes the measurement fields through an existing writer (the
    /// campaign document embeds candidates inside larger objects).
    pub fn write_fields(&self, w: &mut json::Writer) {
        w.field_bool("detected", self.detected);
        w.field_u64("true_positives", self.true_positives);
        w.field_u64("false_positives", self.false_positives);
        w.field_u64("alerts", self.alerts);
        w.field_f64("latency_s", self.latency_s);
        w.field_f64("impact", self.impact);
        w.field_u64("collisions", self.collisions);
        w.field_f64("min_gap", self.min_gap);
        w.field_f64("min_ttc", self.min_ttc);
        w.field_f64("max_spacing_error", self.max_spacing_error);
        w.field_f64("detection_score", self.detection_score());
        w.field_f64("damage", self.damage());
    }

    /// Decodes the fields written by [`write_fields`](Self::write_fields)
    /// from a parsed object (derived scores are recomputed, not trusted).
    pub fn from_json(v: &Value) -> Result<CandidateOutcome, String> {
        let num = |name: &str| -> Result<f64, String> {
            v.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("candidate outcome needs numeric {name:?}"))
        };
        let detected = match v.get("detected") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("candidate outcome needs boolean \"detected\"".into()),
        };
        Ok(CandidateOutcome {
            detected,
            true_positives: num("true_positives")? as u64,
            false_positives: num("false_positives")? as u64,
            alerts: num("alerts")? as u64,
            latency_s: num("latency_s")?,
            impact: num("impact")?,
            collisions: num("collisions")? as u64,
            min_gap: num("min_gap")?,
            min_ttc: num("min_ttc")?,
            max_spacing_error: num("max_spacing_error")?,
        })
    }
}

/// The self-describing result document of one campaign cell — what
/// `JobSpec::Campaign` returns and the in-process path memoises. Compact,
/// canonical, and independent of which executor produced it.
pub fn outcome_document(
    params: &AttackParams,
    quick: bool,
    seed: u64,
    o: &CandidateOutcome,
) -> String {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_str("attack", params.attack());
        w.field_obj("params", |w| {
            for (spec, &v) in params.space().iter().zip(params.values()) {
                w.field_f64(spec.name, v);
            }
        });
        w.field_bool("quick", quick);
        w.field_str("seed", &seed.to_string());
        o.write_fields(w);
    });
    w.finish()
}

/// Parses an [`outcome_document`] back to its candidate outcome (the
/// params travel alongside in the document's `attack`/`params` fields and
/// can be recovered with [`AttackParams::from_json`]).
pub fn parse_outcome(text: &str) -> Result<CandidateOutcome, String> {
    CandidateOutcome::from_json(&json::parse(text)?)
}

/// Runs one campaign cell: the Table IV arm of the candidate's attack
/// ([`build_arm`]) under its tuned parameters, the default detection
/// pipeline attached, scored against the candidate's own ground-truth
/// timing ([`AttackParams::truth`]).
pub fn evaluate_candidate(params: &AttackParams, quick: bool, seed: u64) -> CandidateOutcome {
    let effort = Effort::new(quick);
    let attack = params.attack();
    let label = format!("campaign/{attack}");
    let mut engine = build_arm(&label, attack, Some(params), None, effort, seed);
    engine.attach_detector_config(profile_for("default"));
    let summary = engine.run();
    let truth = params.truth(effort.duration, engine.world());
    let det = score_alerts(engine.alerts(), &truth);
    let impact = impact_of(attack, &engine, &summary);
    CandidateOutcome {
        detected: det.detected,
        true_positives: det.true_positives as u64,
        false_positives: det.false_positives as u64,
        alerts: det.alerts as u64,
        latency_s: det.first_detection_latency,
        impact,
        collisions: summary.collisions as u64,
        min_gap: summary.min_gap,
        min_ttc: summary.min_ttc,
        max_spacing_error: summary.max_spacing_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::EXPERIMENT_BASE_SEED;
    use crate::experiments::table4;

    #[test]
    fn default_candidates_evaluate_for_every_attack() {
        for name in platoon_attacks::params::searchable_attacks() {
            let p = AttackParams::defaults(name).unwrap();
            let o = evaluate_candidate(&p, true, 2021);
            assert!(o.detection_score().is_finite(), "{name}");
            assert!(o.damage().is_finite(), "{name}");
            assert!(o.damage() >= 0.0 || o.impact < 0.0, "{name}: {o:?}");
        }
    }

    #[test]
    fn outcome_document_round_trips() {
        let p = AttackParams::defaults("insider-fdi").unwrap();
        let o = evaluate_candidate(&p, true, 7);
        let doc = outcome_document(&p, true, 7, &o);
        let back = parse_outcome(&doc).unwrap();
        assert_eq!(back, o);
        assert_eq!(outcome_document(&p, true, 7, &back), doc);
        // The params travel inside the document.
        let v = json::parse(&doc).unwrap();
        assert_eq!(AttackParams::from_json(&v).unwrap(), p);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = AttackParams::defaults("impersonation").unwrap();
        let a = evaluate_candidate(&p, true, 2021);
        let b = evaluate_candidate(&p, true, 2021);
        assert_eq!(
            outcome_document(&p, true, 2021, &a),
            outcome_document(&p, true, 2021, &b)
        );
    }

    #[test]
    fn default_candidates_score_like_table_iv() {
        // The campaign's default candidate is Table IV's default-profile
        // arm: same builder, same truth, so the same detection outcome.
        let seed = EXPERIMENT_BASE_SEED;
        for desc in platoon_attacks::registry::catalog() {
            let p = AttackParams::defaults(desc.name).unwrap();
            let o = evaluate_candidate(&p, true, seed);
            let d = table4::detection_arm(desc.name, "default", Effort::quick(), seed);
            assert_eq!(
                (
                    o.detected,
                    o.true_positives,
                    o.false_positives,
                    o.alerts,
                    o.latency_s.to_bits()
                ),
                (
                    d.detected,
                    d.true_positives as u64,
                    d.false_positives as u64,
                    d.alerts as u64,
                    d.first_detection_latency.to_bits()
                ),
                "{}",
                desc.name
            );
        }
    }
}
