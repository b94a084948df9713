//! Deterministic per-tick tracing: the record types, the bounded JSONL
//! [`TraceRecorder`] and the [`diff_traces`] helper.
//!
//! The paper's §V attack-effect claims (oscillation, disband, blocked
//! joins) are *temporal* stories, but a [`RunSummary`](crate::metrics::RunSummary)
//! only exposes end-of-run aggregates — when a golden diverges or a
//! detector misfires there is no way to see which tick and which phase
//! (fault → attack → medium → defense → detector → dynamics) went wrong.
//! A [`TraceRecorder`] attached via [`Engine::attach_tracer`](crate::engine::Engine::attach_tracer)
//! receives one [`TraceRecord`] per phase event, each stamped with the
//! tick index and the tick-derived simulation time only (never wall
//! clock), so two runs of the same scenario and seed produce *identical*
//! record streams regardless of worker count, machine or load.
//! [`diff_traces`] then turns "golden mismatch" debugging into a
//! one-command answer: the first diverging line with its tick and phase.
//!
//! Attach a recorder, run the scenario, then
//! [`Engine::take_tracer`](crate::engine::Engine::take_tracer) to extract
//! the JSONL text:
//!
//! ```
//! use platoon_sim::prelude::*;
//!
//! let scenario = Scenario::builder()
//!     .label("traced")
//!     .vehicles(4)
//!     .duration(2.0)
//!     .build();
//! let mut engine = Engine::new(scenario);
//! engine.attach_tracer(TraceRecorder::new());
//! let summary = engine.run();
//! let recorder = engine.take_tracer().unwrap();
//! assert_eq!(summary.trace, Some(recorder.digest()));
//! assert!(recorder.to_jsonl().lines().count() > 0);
//! ```

use crate::harness::json::{self, Writer};
use crate::harness::{fnv1a_fold, FNV_OFFSET};

/// The engine phase a trace record was emitted from, in step order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// Pre-phase: driving-regime phase transitions (emitted only when the
    /// scenario carries a [`RegimePlan`](crate::regime::RegimePlan)).
    Regime,
    /// Phase 0: benign fault application.
    Fault,
    /// Phase 1–2: adversary world mutation and on-air frame tampering.
    Attack,
    /// Phase 2: the radio medium's delivery decision.
    Medium,
    /// Phase 3: defense verdicts on received messages.
    Defense,
    /// Phase 4: misbehaviour detections and pipeline alerts.
    Detector,
    /// Phase 5: dynamics-level safety events.
    Dynamics,
}

impl TracePhase {
    /// Stable lowercase name used in the canonical JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            TracePhase::Regime => "regime",
            TracePhase::Fault => "fault",
            TracePhase::Attack => "attack",
            TracePhase::Medium => "medium",
            TracePhase::Defense => "defense",
            TracePhase::Detector => "detector",
            TracePhase::Dynamics => "dynamics",
        }
    }
}

/// What happened — the phase-specific payload of a [`TraceRecord`].
#[derive(Clone, Debug, PartialEq)]
pub enum TraceDetail {
    /// A driving-regime phase became active this tick.
    RegimeEnter {
        /// The phase's label from the plan.
        label: String,
    },
    /// A plugged-in fault's `apply` hook ran this tick.
    FaultApplied {
        /// The fault's stable name.
        fault: &'static str,
    },
    /// The tick's outgoing frame tally after `Attack::on_air`.
    AttackFrames {
        /// Frames built by honest nodes before attacks touched the air.
        honest: u64,
        /// Frames handed to the medium after every `on_air` hook
        /// (injected frames raise it above `honest`; a dropping attack
        /// can lower it).
        total: u64,
    },
    /// The medium's per-tick delivery decision.
    MediumStep {
        /// Frames offered to the medium.
        offered: u64,
        /// (frame, receiver) pairs that decoded successfully.
        delivered: u64,
        /// (frame, receiver) pairs lost to SINR failure.
        lost: u64,
        /// Maximum delivery latency this tick, seconds (canonical NaN
        /// when nothing was delivered — the same convention as
        /// [`per_frame_ratio`](crate::metrics::per_frame_ratio)).
        max_latency: f64,
    },
    /// A received message was rejected (engine auth or a defense filter).
    DefenseVerdict {
        /// Receiving vehicle index.
        receiver: u64,
        /// Claimed sender principal id.
        sender: u64,
        /// The reject reason's `Debug` rendering.
        reason: String,
    },
    /// A misbehaviour detection fired.
    DetectorAlert {
        /// The accused principal id; `None` for an unattributed
        /// channel-level alarm.
        suspect: Option<u64>,
    },
    /// A dynamics-level safety event.
    SafetyEvent {
        /// Stable event kind (`"collision"`, `"service-down"`).
        kind: &'static str,
        /// The vehicle index involved.
        vehicle: u64,
    },
}

impl TraceDetail {
    /// Stable kind tag used in the canonical JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceDetail::RegimeEnter { .. } => "regime_enter",
            TraceDetail::FaultApplied { .. } => "fault_applied",
            TraceDetail::AttackFrames { .. } => "attack_frames",
            TraceDetail::MediumStep { .. } => "medium_step",
            TraceDetail::DefenseVerdict { .. } => "defense_verdict",
            TraceDetail::DetectorAlert { .. } => "detector_alert",
            TraceDetail::SafetyEvent { .. } => "safety_event",
        }
    }
}

/// One phase-scoped trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Communication-step index (0-based).
    pub tick: u64,
    /// Simulation time at the start of the tick, seconds. Derived from
    /// the tick index and the scenario's step length — never wall clock.
    pub time: f64,
    /// The emitting phase.
    pub phase: TracePhase,
    /// The phase-specific payload.
    pub detail: TraceDetail,
}

impl TraceRecord {
    /// Renders the record as one compact canonical-JSON line (no trailing
    /// newline): fixed field order, `{:?}` floats, non-finite floats as
    /// `"nan"`/`"inf"`/`"-inf"` strings. Byte-stable for identical
    /// records, which is what trace files' worker-count invariance and
    /// the digest hash rest on.
    pub fn to_canonical_line(&self) -> String {
        let mut w = Writer::compact();
        w.obj(|w| {
            w.field_u64("tick", self.tick);
            w.field_f64("time", self.time);
            w.field_str("phase", self.phase.name());
            w.field_obj("detail", |w| {
                w.field_str("kind", self.detail.kind());
                match &self.detail {
                    TraceDetail::RegimeEnter { label } => {
                        w.field_str("label", label);
                    }
                    TraceDetail::FaultApplied { fault } => {
                        w.field_str("fault", fault);
                    }
                    TraceDetail::AttackFrames { honest, total } => {
                        w.field_u64("honest", *honest);
                        w.field_u64("total", *total);
                    }
                    TraceDetail::MediumStep {
                        offered,
                        delivered,
                        lost,
                        max_latency,
                    } => {
                        w.field_u64("offered", *offered);
                        w.field_u64("delivered", *delivered);
                        w.field_u64("lost", *lost);
                        w.field_f64("max_latency", *max_latency);
                    }
                    TraceDetail::DefenseVerdict {
                        receiver,
                        sender,
                        reason,
                    } => {
                        w.field_u64("receiver", *receiver);
                        w.field_u64("sender", *sender);
                        w.field_str("reason", reason);
                    }
                    TraceDetail::DetectorAlert { suspect } => match suspect {
                        Some(p) => w.field_u64("suspect", *p),
                        None => w.field_str("suspect", "channel"),
                    },
                    TraceDetail::SafetyEvent { kind, vehicle } => {
                        w.field_str("event", kind);
                        w.field_u64("vehicle", *vehicle);
                    }
                }
            });
        });
        w.finish()
    }
}

/// Summary of a recorded trace, folded into the run's
/// [`RunSummary`](crate::metrics::RunSummary) (and therefore the golden
/// snapshots) when a tracer is attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceDigest {
    /// Total records emitted (including any dropped past capacity).
    pub records: u64,
    /// Records dropped after the recorder's bound was hit.
    pub dropped: u64,
    /// FNV-1a hash over every emitted record's canonical line (dropped
    /// records included), so the digest pins the *full* stream even when
    /// the retained file is truncated.
    pub hash: u64,
}

impl TraceDigest {
    /// Canonical field-by-field rendering. The hash encodes as a 16-digit
    /// hex string: golden comparison parses bare numbers as `f64`, which
    /// cannot represent every u64 exactly, so a string keeps the gate
    /// exact.
    pub fn write_canonical(&self, w: &mut Writer) {
        w.field_u64("records", self.records);
        w.field_u64("dropped", self.dropped);
        w.field_str("hash", &format!("{:016x}", self.hash));
    }
}

/// Default retained-line bound: generous enough for any experiment in this
/// workspace (a 60 s full-effort scenario emits a few thousand records)
/// while still bounding a pathological alert storm.
pub const DEFAULT_CAPACITY: usize = 1_000_000;

/// A deterministic, bounded trace recorder.
///
/// Every [`TraceRecord`] is rendered *eagerly* to its compact canonical-JSON
/// line (so retained bytes cannot drift from what was emitted) and folded
/// into a running FNV-1a digest. The digest covers the **full** stream —
/// records dropped past the [`with_capacity`](Self::with_capacity) bound
/// still hash — so the [`TraceDigest`] in a run summary pins the entire
/// trace even when the retained file is truncated. Determinism is
/// inherited from the record stream: no wall clock, no thread ids, no
/// randomness.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    lines: Vec<String>,
    capacity: usize,
    records: u64,
    dropped: u64,
    hash: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder retaining at most [`DEFAULT_CAPACITY`] lines.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` lines (later records are
    /// hashed and counted, but their lines are dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            lines: Vec::new(),
            capacity,
            records: 0,
            dropped: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Receives one record. The engine calls it in emission order within a
    /// tick and in tick order across the run.
    pub fn record(&mut self, record: &TraceRecord) {
        let line = record.to_canonical_line();
        self.records += 1;
        // Delimit lines in the hash stream the same way the file does.
        self.hash = fnv1a_fold(fnv1a_fold(self.hash, line.as_bytes()), b"\n");
        if self.lines.len() < self.capacity {
            self.lines.push(line);
        } else {
            self.dropped += 1;
        }
    }

    /// Retained canonical lines, in emission order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The digest of everything recorded so far.
    pub fn digest(&self) -> TraceDigest {
        TraceDigest {
            records: self.records,
            dropped: self.dropped,
            hash: self.hash,
        }
    }

    /// The retained trace as a JSONL document (one canonical line per
    /// record, trailing newline; empty string when nothing was retained).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Marker used in a [`Divergence`] for the side whose trace ended first.
pub const END_OF_TRACE: &str = "<end of trace>";

/// The first point where two traces disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// The differing record's tick, when either side parses as a trace
    /// record (taken from the left side if present, else the right).
    pub tick: Option<u64>,
    /// The differing record's phase, same preference.
    pub phase: Option<String>,
    /// The left trace's line ([`END_OF_TRACE`] if it ended first).
    pub left: String,
    /// The right trace's line ([`END_OF_TRACE`] if it ended first).
    pub right: String,
}

impl Divergence {
    /// One-line human rendering: `line 12 (tick 7, phase medium): ...`.
    pub fn describe(&self) -> String {
        let at = match (&self.tick, &self.phase) {
            (Some(t), Some(p)) => format!(" (tick {t}, phase {p})"),
            (Some(t), None) => format!(" (tick {t})"),
            _ => String::new(),
        };
        format!(
            "line {}{at}:\n  left:  {}\n  right: {}",
            self.line, self.left, self.right
        )
    }
}

/// Extracts `(tick, phase)` from a canonical trace line, if it parses.
fn tick_and_phase(line: &str) -> (Option<u64>, Option<String>) {
    let Ok(v) = json::parse(line) else {
        return (None, None);
    };
    let tick = v
        .get("tick")
        .and_then(|t| t.as_f64())
        .map(|t| t.round() as u64);
    let phase = v.get("phase").and_then(|p| match p {
        json::Value::Str(s) => Some(s.clone()),
        _ => None,
    });
    (tick, phase)
}

/// Compares two JSONL traces line by line and returns the first
/// divergence, or `None` when they are identical.
///
/// Byte-level comparison: the whole point of the canonical encoding is
/// that equal runs produce equal bytes, so anything subtler would paper
/// over real nondeterminism. A missing line (one trace ended first) is a
/// divergence whose shorter side reads [`END_OF_TRACE`].
pub fn diff_traces(left: &str, right: &str) -> Option<Divergence> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (l.next(), r.next()) {
            (None, None) => return None,
            (a, b) if a == b => continue,
            (a, b) => {
                let left_line = a.unwrap_or(END_OF_TRACE).to_string();
                let right_line = b.unwrap_or(END_OF_TRACE).to_string();
                // Prefer the side that still has a record to name tick/phase.
                let (tick, phase) = match (a, b) {
                    (Some(a), _) => tick_and_phase(a),
                    (None, Some(b)) => tick_and_phase(b),
                    (None, None) => unreachable!("handled above"),
                };
                return Some(Divergence {
                    line,
                    tick,
                    phase,
                    left: left_line,
                    right: right_line,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_lines_are_single_line_and_parse() {
        let records = [
            TraceRecord {
                tick: 0,
                time: 0.0,
                phase: TracePhase::Fault,
                detail: TraceDetail::FaultApplied {
                    fault: "sensor-outage",
                },
            },
            TraceRecord {
                tick: 3,
                time: 0.3,
                phase: TracePhase::Medium,
                detail: TraceDetail::MediumStep {
                    offered: 6,
                    delivered: 0,
                    lost: 30,
                    max_latency: f64::NAN,
                },
            },
            TraceRecord {
                tick: 9,
                time: 0.9,
                phase: TracePhase::Detector,
                detail: TraceDetail::DetectorAlert { suspect: None },
            },
        ];
        for r in &records {
            let line = r.to_canonical_line();
            assert!(!line.contains('\n'), "JSONL line must be single-line");
            let v = json::parse(&line).expect("line parses");
            assert_eq!(v.get("tick").unwrap().as_f64(), Some(r.tick as f64));
            assert_eq!(
                v.get("phase"),
                Some(&json::Value::Str(r.phase.name().into()))
            );
            let detail = v.get("detail").expect("detail object");
            assert_eq!(
                detail.get("kind"),
                Some(&json::Value::Str(r.detail.kind().into()))
            );
        }
        // The empty-delivery tick carries the canonical "nan" encoding.
        let line = records[1].to_canonical_line();
        assert!(line.contains("\"max_latency\": \"nan\""), "{line}");
    }

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let phases = [
            TracePhase::Regime,
            TracePhase::Fault,
            TracePhase::Attack,
            TracePhase::Medium,
            TracePhase::Defense,
            TracePhase::Detector,
            TracePhase::Dynamics,
        ];
        let names: Vec<&str> = phases.iter().map(TracePhase::name).collect();
        assert_eq!(
            names,
            ["regime", "fault", "attack", "medium", "defense", "detector", "dynamics"]
        );
    }

    #[test]
    fn digest_hash_encodes_as_exact_hex_string() {
        let d = TraceDigest {
            records: 12,
            dropped: 2,
            hash: 0x00ab_cdef_1234_5678,
        };
        let mut w = Writer::new();
        w.obj(|w| d.write_canonical(w));
        let text = w.finish();
        assert!(text.contains("\"hash\": \"00abcdef12345678\""), "{text}");
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("records").unwrap().as_f64(), Some(12.0));
    }

    fn medium_record(tick: u64, delivered: u64) -> TraceRecord {
        TraceRecord {
            tick,
            time: tick as f64 * 0.1,
            phase: TracePhase::Medium,
            detail: TraceDetail::MediumStep {
                offered: 4,
                delivered,
                lost: 0,
                max_latency: 0.0021,
            },
        }
    }

    #[test]
    fn recorder_retains_lines_in_order_and_digests() {
        let mut r = TraceRecorder::new();
        for tick in 0..5 {
            r.record(&medium_record(tick, 12));
        }
        assert_eq!(r.lines().len(), 5);
        let d = r.digest();
        assert_eq!(d.records, 5);
        assert_eq!(d.dropped, 0);
        assert!(r.to_jsonl().ends_with('\n'));
        assert_eq!(r.to_jsonl().lines().count(), 5);
        // The digest is a pure function of the record stream.
        let mut again = TraceRecorder::new();
        for tick in 0..5 {
            again.record(&medium_record(tick, 12));
        }
        assert_eq!(again.digest(), d);
    }

    #[test]
    fn over_capacity_records_are_hashed_but_not_retained() {
        let mut bounded = TraceRecorder::with_capacity(3);
        let mut unbounded = TraceRecorder::new();
        for tick in 0..10 {
            bounded.record(&medium_record(tick, 12));
            unbounded.record(&medium_record(tick, 12));
        }
        assert_eq!(bounded.lines().len(), 3);
        assert_eq!(bounded.digest().dropped, 7);
        assert_eq!(bounded.digest().records, 10);
        // The digest pins the FULL stream, truncated file or not.
        assert_eq!(bounded.digest().hash, unbounded.digest().hash);
    }

    #[test]
    fn different_streams_hash_differently() {
        let mut a = TraceRecorder::new();
        let mut b = TraceRecorder::new();
        a.record(&medium_record(1, 12));
        b.record(&medium_record(2, 12));
        assert_ne!(a.digest().hash, b.digest().hash);
        assert_ne!(a.digest().hash, TraceRecorder::new().digest().hash);
    }

    #[test]
    fn empty_recorder_digest_is_the_fnv_offset() {
        let r = TraceRecorder::new();
        let d = r.digest();
        assert_eq!(d.records, 0);
        assert_eq!(d.hash, FNV_OFFSET);
        assert_eq!(r.to_jsonl(), "");
    }

    fn jsonl(ticks: &[(u64, u64)]) -> String {
        let mut r = TraceRecorder::new();
        for &(tick, delivered) in ticks {
            r.record(&medium_record(tick, delivered));
        }
        r.to_jsonl()
    }

    #[test]
    fn identical_traces_do_not_diverge() {
        let a = jsonl(&[(0, 12), (1, 11), (2, 12)]);
        assert_eq!(diff_traces(&a, &a), None);
        assert_eq!(diff_traces("", ""), None);
    }

    #[test]
    fn first_divergence_names_line_tick_and_phase() {
        let a = jsonl(&[(0, 12), (1, 11), (2, 12)]);
        let b = jsonl(&[(0, 12), (1, 9), (2, 12)]);
        let d = diff_traces(&a, &b).expect("traces differ");
        assert_eq!(d.line, 2);
        assert_eq!(d.tick, Some(1));
        assert_eq!(d.phase.as_deref(), Some("medium"));
        assert!(d.describe().contains("tick 1"), "{}", d.describe());
        assert!(d.describe().contains("phase medium"));
    }

    #[test]
    fn truncated_trace_diverges_at_the_missing_line() {
        let a = jsonl(&[(0, 12), (1, 11)]);
        let b = jsonl(&[(0, 12)]);
        let d = diff_traces(&a, &b).expect("lengths differ");
        assert_eq!(d.line, 2);
        assert_eq!(d.right, END_OF_TRACE);
        assert_eq!(d.tick, Some(1), "tick comes from the surviving side");
        // Symmetric the other way round.
        let d = diff_traces(&b, &a).expect("lengths differ");
        assert_eq!(d.left, END_OF_TRACE);
        assert_eq!(d.tick, Some(1));
    }

    #[test]
    fn non_record_lines_still_diff_without_tick() {
        let d = diff_traces("not json\n", "also not json\n").expect("differ");
        assert_eq!(d.line, 1);
        assert_eq!(d.tick, None);
        assert_eq!(d.phase, None);
    }
}
