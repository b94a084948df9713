//! Run metrics: everything an experiment reports about a simulation,
//! including detection-quality scoring of the alert stream against
//! ground-truth attack labels.

use crate::perf::PerfCounters;
use crate::trace::TraceDigest;
use platoon_crypto::cert::PrincipalId;
use platoon_detect::fusion::{Alert, AlertTarget};
use platoon_dynamics::safety::SafetyMonitor;
use platoon_dynamics::stability::{StringStabilityReport, TimeSeries};
use platoon_proto::maneuver::ManeuverStats;

/// Collected continuously during a run.
#[derive(Clone, Debug)]
pub struct MetricsCollector {
    /// Per-follower spacing-error series (index 0 = first follower).
    pub spacing_errors: Vec<TimeSeries>,
    /// Per-vehicle speed series.
    pub speeds: Vec<TimeSeries>,
    /// Safety monitoring.
    pub safety: SafetyMonitor,
    /// Beacon ticks on which the leader (`vehicles[0]`) was enabled.
    pub leader_beacons: u64,
    /// Ticks on which a frame from the leader's radio node reached the
    /// tail's (`vehicles[n - 1]`), counted once per tick.
    pub leader_tail_deliveries: u64,
    /// Fraction-of-time accumulator: platoon fragmented (more than one
    /// platoon id present).
    fragmented_time: f64,
    /// Total time accumulated.
    total_time: f64,
    /// Time with any vehicle's platooning service down.
    service_down_time: f64,
    /// Per-step age of the tail vehicle's leader information (capped).
    pub tail_leader_age: TimeSeries,
}

impl MetricsCollector {
    /// Collector for a platoon of `n` vehicles sampling at `dt`.
    pub fn new(n: usize, dt: f64) -> Self {
        MetricsCollector {
            spacing_errors: (0..n.saturating_sub(1))
                .map(|_| TimeSeries::new(dt))
                .collect(),
            speeds: (0..n).map(|_| TimeSeries::new(dt)).collect(),
            safety: SafetyMonitor::new(n.saturating_sub(1)),
            leader_beacons: 0,
            leader_tail_deliveries: 0,
            fragmented_time: 0.0,
            total_time: 0.0,
            service_down_time: 0.0,
            tail_leader_age: TimeSeries::new(dt),
        }
    }

    /// Records a fragmentation/service observation for a step of length `dt`.
    pub fn record_step_state(&mut self, dt: f64, fragmented: bool, any_service_down: bool) {
        self.total_time += dt;
        if fragmented {
            self.fragmented_time += dt;
        }
        if any_service_down {
            self.service_down_time += dt;
        }
    }

    /// Fraction of the run the platoon spent fragmented.
    pub fn fragmented_fraction(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        self.fragmented_time / self.total_time
    }

    /// Fraction of the run with at least one platooning service down.
    pub fn service_down_fraction(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        self.service_down_time / self.total_time
    }

    /// Leader-to-tail packet delivery ratio: the ticks on which the tail
    /// heard the leader over the leader's beacon ticks, or 0 when the leader
    /// never beaconed.
    pub fn leader_tail_pdr(&self) -> f64 {
        if self.leader_beacons == 0 {
            return 0.0;
        }
        self.leader_tail_deliveries as f64 / self.leader_beacons as f64
    }

    /// Builds the string-stability report from the recorded errors.
    pub fn stability(&self) -> StringStabilityReport {
        StringStabilityReport::from_errors(&self.spacing_errors)
    }
}

/// Summary of a completed run — the unit the experiment harness tabulates.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Scenario label.
    pub label: String,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// Number of vehicles.
    pub vehicles: usize,
    /// Maximum absolute spacing error over all followers, metres.
    pub max_spacing_error: f64,
    /// Total oscillation energy (m²·s).
    pub oscillation_energy: f64,
    /// Worst follower-to-follower L∞ amplification ratio.
    pub worst_amplification: f64,
    /// Whether the platoon stayed L∞ string stable (5% tolerance).
    pub string_stable: bool,
    /// Collisions observed.
    pub collisions: usize,
    /// Minimum bumper gap observed, metres.
    pub min_gap: f64,
    /// Minimum time-to-collision observed, seconds (∞ if never closing).
    pub min_ttc: f64,
    /// Mean fleet fuel consumption, litres per 100 km.
    pub fuel_l_per_100km: f64,
    /// Beacon packet-delivery ratio from the leader to the last vehicle.
    pub leader_tail_pdr: f64,
    /// Mean age of the tail vehicle's leader information, seconds (capped
    /// at 10 s when no beacon has been heard) — the cooperative-data
    /// freshness metric the hybrid-relay experiments report.
    pub tail_leader_age_mean: f64,
    /// Fraction of the run spent fragmented into >1 platoon.
    pub fragmented_fraction: f64,
    /// Fraction of the run with a platooning service down.
    pub service_down_fraction: f64,
    /// Manoeuvre statistics snapshot.
    pub maneuvers: ManeuverStats,
    /// Messages rejected by defenses.
    pub rejected_messages: usize,
    /// Misbehaviour detections raised.
    pub detections: usize,
    /// Mean absolute spacing error, metres.
    pub mean_abs_spacing_error: f64,
    /// Deterministic engine work counters (see [`crate::perf`]).
    pub perf: PerfCounters,
    /// Events dropped by the bounded [`EventLog`](crate::events::EventLog)
    /// after it saturated. Non-zero means the `collisions`/`detections`
    /// tallies above are *lower bounds* — surfaced here (and in the golden
    /// snapshots) so saturation can never silently undercount again.
    pub events_dropped: u64,
    /// Digest of the attached per-tick trace, when a
    /// [`TraceRecorder`](crate::trace::TraceRecorder) was attached.
    pub trace: Option<TraceDigest>,
}

impl RunSummary {
    /// Renders a compact single-line summary for console tables.
    pub fn one_line(&self) -> String {
        format!(
            "{:<28} err(max/mean) {:>6.2}/{:>5.2} m  amp {:>5.2}  col {:>2}  gap {:>6.2} m  pdr {:>5.3}  frag {:>4.2}",
            self.label,
            self.max_spacing_error,
            self.mean_abs_spacing_error,
            self.worst_amplification,
            self.collisions,
            if self.min_gap.is_finite() { self.min_gap } else { f64::NAN },
            self.leader_tail_pdr,
            self.fragmented_fraction,
        )
    }
}

/// Ground-truth labelling of a run: which identities actually misbehaved
/// and from when. The engine scores the detection pipeline's alert stream
/// against this to produce a [`DetectionSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct TruthLabels {
    /// Human-readable attack name (golden-table row key).
    pub attack: String,
    /// When the attack became active, seconds (`f64::INFINITY` for a
    /// benign run: every alert is then a false positive).
    pub start: f64,
    /// Whether the attack manifests as a channel-level condition (jamming,
    /// flooding) so unattributed channel alarms count as true positives.
    pub channel_attack: bool,
    /// Specific guilty identities (insiders, impersonated victims, the
    /// malware-disabled vehicle).
    pub guilty: Vec<PrincipalId>,
    /// If set, every identity at or above this id is fabricated and
    /// guilty — covers Sybil ghost ranges and join-flood id blocks without
    /// enumerating hundreds of principals.
    pub guilty_from: Option<u64>,
}

impl TruthLabels {
    /// Labels for a run with no attack: any alert is a false positive.
    pub fn benign(label: &str) -> Self {
        TruthLabels {
            attack: label.to_string(),
            start: f64::INFINITY,
            channel_attack: false,
            guilty: Vec::new(),
            guilty_from: None,
        }
    }

    /// Whether an identity is labelled guilty.
    pub fn is_guilty(&self, principal: PrincipalId) -> bool {
        self.guilty.contains(&principal)
            || self.guilty_from.is_some_and(|floor| principal.0 >= floor)
    }
}

/// Detection-quality metrics for one run: the alert stream scored against
/// [`TruthLabels`]. This is what the Table-IV experiment tabulates.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectionSummary {
    /// Total alerts raised.
    pub alerts: usize,
    /// Alerts at/after attack start implicating a guilty party (or the
    /// channel, for channel-level attacks).
    pub true_positives: usize,
    /// Everything else, including any alert before the attack started.
    pub false_positives: usize,
    /// Whether the attack was detected at all.
    pub detected: bool,
    /// Seconds from attack start to the first true positive
    /// (`f64::INFINITY` if never detected).
    pub first_detection_latency: f64,
    /// Fraction of sender-attributed alerts (at/after start) naming a
    /// guilty identity (`f64::NAN` when there are none to judge).
    pub attribution_accuracy: f64,
}

/// Canonical per-frame (or per-run) mean: `total / count`, clamped for the
/// zero-denominator case.
///
/// A fault window can drop *every* frame of a link, and a crash-isolated grid
/// arm can lose *every* run — both leave nothing to average. Raw IEEE
/// division would hand the serializer `0.0 / 0.0` (a NaN whose sign bit is
/// unspecified) or a spurious ±∞ from `x / 0`; this helper pins the empty
/// case, and any NaN result, to the canonical positive quiet `f64::NAN` so
/// golden documents stay byte-stable and encode as the `"nan"` / `"inf"` /
/// `"-inf"` strings the [`harness::json`](crate::harness::json) writer
/// already supports.
pub fn per_frame_ratio(total: f64, count: u64) -> f64 {
    if count == 0 {
        return f64::NAN;
    }
    let ratio = total / count as f64;
    if ratio.is_nan() {
        f64::NAN
    } else {
        ratio
    }
}

/// Scores an alert stream against ground truth.
pub fn score_alerts(alerts: &[Alert], truth: &TruthLabels) -> DetectionSummary {
    let mut true_positives = 0;
    let mut false_positives = 0;
    let mut first_latency = f64::INFINITY;
    let mut attributed = 0usize;
    let mut attributed_correct = 0usize;
    for alert in alerts {
        let in_window = alert.time >= truth.start;
        let hit = in_window
            && match alert.target {
                AlertTarget::Sender(p) => truth.is_guilty(p),
                AlertTarget::Channel => truth.channel_attack,
            };
        if hit {
            true_positives += 1;
            first_latency = first_latency.min(alert.time - truth.start);
        } else {
            false_positives += 1;
        }
        if in_window {
            if let AlertTarget::Sender(p) = alert.target {
                attributed += 1;
                if truth.is_guilty(p) {
                    attributed_correct += 1;
                }
            }
        }
    }
    DetectionSummary {
        alerts: alerts.len(),
        true_positives,
        false_positives,
        detected: true_positives > 0,
        first_detection_latency: first_latency,
        attribution_accuracy: per_frame_ratio(attributed_correct as f64, attributed as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_sizes_follow_platoon() {
        let c = MetricsCollector::new(5, 0.1);
        assert_eq!(c.spacing_errors.len(), 4);
        assert_eq!(c.speeds.len(), 5);
    }

    #[test]
    fn fragmentation_fraction_accumulates() {
        let mut c = MetricsCollector::new(3, 0.1);
        for i in 0..10 {
            c.record_step_state(0.1, i >= 5, false);
        }
        assert!((c.fragmented_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(c.service_down_fraction(), 0.0);
    }

    #[test]
    fn empty_collector_fractions_are_zero() {
        let c = MetricsCollector::new(2, 0.1);
        assert_eq!(c.fragmented_fraction(), 0.0);
        assert_eq!(c.service_down_fraction(), 0.0);
    }

    #[test]
    fn zero_duration_run_has_no_division_artifacts() {
        // A run that never advances time: every derived quantity must come
        // out finite (availability fractions, stability, safety), never NaN
        // from a 0/0.
        let mut c = MetricsCollector::new(4, 0.1);
        // Zero-length steps still count as observations of zero duration.
        c.record_step_state(0.0, true, true);
        c.record_step_state(0.0, false, true);
        assert_eq!(c.fragmented_fraction(), 0.0);
        assert_eq!(c.service_down_fraction(), 0.0);
        assert!(c.fragmented_fraction().is_finite());
        assert!(c.service_down_fraction().is_finite());

        let r = c.stability();
        assert!(r.total_energy.is_finite());
        assert!(r.worst_amplification().is_finite());
        assert!(
            r.is_string_stable(0.05),
            "empty errors are trivially stable"
        );
        assert_eq!(c.safety.collision_count(), 0);
        assert_eq!(c.leader_tail_pdr(), 0.0, "no beacons, no 0/0");
    }

    #[test]
    fn single_vehicle_collector_degenerate() {
        // One vehicle: no follower, hence no spacing series, no gaps and a
        // trivially stable report — but speeds are still tracked.
        let c = MetricsCollector::new(1, 0.1);
        assert!(c.spacing_errors.is_empty());
        assert_eq!(c.speeds.len(), 1);
        let r = c.stability();
        assert!(r.is_string_stable(0.0));
        assert!(r.linf_errors.is_empty());
        assert!(r.linf_amplification.is_empty());
        assert_eq!(r.total_energy, 0.0);
        assert!(c.safety.is_collision_free());
    }

    #[test]
    fn zero_vehicle_collector_does_not_underflow() {
        // `n = 0` exercises the saturating_sub paths.
        let c = MetricsCollector::new(0, 0.1);
        assert!(c.spacing_errors.is_empty());
        assert!(c.speeds.is_empty());
        assert!(c.stability().is_string_stable(0.0));
    }

    #[test]
    fn one_line_render_tolerates_non_finite_gaps() {
        // A run with no closing pair leaves min_gap/min_ttc at +∞; the
        // console rendering must not panic or print garbage widths.
        let s = RunSummary {
            label: "degenerate".into(),
            duration: 0.0,
            vehicles: 1,
            max_spacing_error: 0.0,
            oscillation_energy: 0.0,
            worst_amplification: 0.0,
            string_stable: true,
            collisions: 0,
            min_gap: f64::INFINITY,
            min_ttc: f64::INFINITY,
            fuel_l_per_100km: 0.0,
            leader_tail_pdr: 0.0,
            tail_leader_age_mean: 0.0,
            fragmented_fraction: 0.0,
            service_down_fraction: 0.0,
            maneuvers: Default::default(),
            rejected_messages: 0,
            detections: 0,
            mean_abs_spacing_error: 0.0,
            perf: PerfCounters::default(),
            events_dropped: 0,
            trace: None,
        };
        let line = s.one_line();
        assert!(line.contains("degenerate"));
        assert!(line.contains("NaN"), "infinite gap renders as NaN marker");
    }

    fn alert(time: f64, target: AlertTarget) -> Alert {
        Alert {
            time,
            target,
            score: 1.0,
            contributors: vec![("kinematic", 1.0)],
        }
    }

    #[test]
    fn scoring_separates_tp_fp_and_latency() {
        let truth = TruthLabels {
            attack: "sybil".into(),
            start: 5.0,
            channel_attack: false,
            guilty: vec![],
            guilty_from: Some(7000),
        };
        let alerts = vec![
            alert(4.0, AlertTarget::Sender(PrincipalId(7000))), // pre-start: FP
            alert(6.5, AlertTarget::Sender(PrincipalId(7001))), // TP
            alert(7.0, AlertTarget::Sender(PrincipalId(2))),    // honest: FP
            alert(8.0, AlertTarget::Channel),                   // not a channel attack: FP
        ];
        let s = score_alerts(&alerts, &truth);
        assert_eq!(s.alerts, 4);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_positives, 3);
        assert!(s.detected);
        assert!((s.first_detection_latency - 1.5).abs() < 1e-12);
        assert!((s.attribution_accuracy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn benign_truth_marks_every_alert_false() {
        let truth = TruthLabels::benign("benign");
        let s = score_alerts(&[alert(1.0, AlertTarget::Sender(PrincipalId(1)))], &truth);
        assert!(!s.detected);
        assert_eq!(s.false_positives, 1);
        assert!(s.first_detection_latency.is_infinite());
        assert!(s.attribution_accuracy.is_nan());
    }

    #[test]
    fn zero_frame_fault_window_clamps_to_canonical_nan() {
        // A fault window that drops every delivered frame leaves nothing to
        // average: the ratio must clamp to the canonical positive quiet NaN
        // (not a platform-dependent 0.0/0.0 bit pattern) and serialize as
        // the golden writer's "nan" string.
        let ratio = per_frame_ratio(0.0, 0);
        assert!(ratio.is_nan());
        assert!(ratio.is_sign_positive(), "canonical quiet NaN, not -NaN");
        let mut w = crate::harness::json::Writer::new();
        w.obj(|w| w.field_f64("mean_latency", ratio));
        let text = w.finish();
        assert!(text.contains("\"nan\""), "{text}");
        let v = crate::harness::json::parse(&text).unwrap();
        assert!(v.get("mean_latency").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn per_frame_ratio_divides_and_canonicalizes() {
        assert_eq!(per_frame_ratio(6.0, 3), 2.0);
        // An infinite total (e.g. a never-detected latency) stays the
        // canonical "inf" encoding rather than tripping the clamp.
        assert_eq!(per_frame_ratio(f64::INFINITY, 2), f64::INFINITY);
        // Any NaN result normalizes to the positive quiet NaN.
        assert!(per_frame_ratio(-f64::NAN, 4).is_sign_positive());
        assert!(per_frame_ratio(f64::NAN, 1).is_nan());
    }

    #[test]
    fn channel_attacks_accept_channel_alarms() {
        let truth = TruthLabels {
            attack: "jamming".into(),
            start: 3.0,
            channel_attack: true,
            guilty: vec![],
            guilty_from: None,
        };
        let s = score_alerts(&[alert(4.0, AlertTarget::Channel)], &truth);
        assert_eq!(s.true_positives, 1);
        assert!(
            s.attribution_accuracy.is_nan(),
            "no sender-attributed alerts"
        );
    }
}
