//! Deterministic per-tick tracing: the hook trait and record types.
//!
//! The paper's §V attack-effect claims (oscillation, disband, blocked
//! joins) are *temporal* stories, but a [`RunSummary`](crate::metrics::RunSummary)
//! only exposes end-of-run aggregates — when a golden diverges or a
//! detector misfires there is no way to see which tick and which phase
//! (fault → attack → medium → defense → detector → dynamics) went wrong.
//! A [`Tracer`] attached via [`Engine::attach_tracer`](crate::engine::Engine::attach_tracer)
//! receives one [`TraceRecord`] per phase event, each stamped with the
//! tick index and the tick-derived simulation time only (never wall
//! clock), so two runs of the same scenario and seed produce *identical*
//! record streams regardless of worker count, machine or load.
//!
//! This module follows the same split as [`fault`](crate::fault) and
//! [`attack`](crate::attack): the trait and record types live in
//! `platoon-sim` (so the engine can emit without a dependency cycle),
//! while the bounded JSONL recorder and the trace-diff helper live in the
//! `platoon-trace` crate.

use crate::harness::json::Writer;
use std::any::Any;

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

/// A per-tick trace sink, attached to the engine alongside attacks,
/// defenses and faults via
/// [`Engine::attach_tracer`](crate::engine::Engine::attach_tracer).
///
/// Implementations must be deterministic functions of the record stream:
/// no wall clock, no thread ids, no randomness — the whole point is that
/// traces are byte-identical across worker counts and machines.
pub trait Tracer: std::fmt::Debug + Send {
    /// Receives one record. Called in emission order within a tick and in
    /// tick order across the run.
    fn record(&mut self, record: &TraceRecord);

    /// The digest of everything recorded so far.
    fn digest(&self) -> TraceDigest;

    /// Downcasting support (extract a concrete recorder after a run).
    fn as_any(&self) -> &dyn Any;

    /// Clones the tracer (including every record buffered so far) into a
    /// fresh box, for engine snapshots. `None` means the tracer does not
    /// support snapshotting; engines carrying it cannot be checkpointed.
    fn clone_box(&self) -> Option<Box<dyn Tracer>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::json;

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
}
