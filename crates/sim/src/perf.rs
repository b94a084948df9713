//! Lightweight engine performance counters.
//!
//! The engine increments these on its hot path (frame building, delivery
//! processing, detector ingest, control computation); they cost a handful
//! of integer adds per step and are *deterministic*: for a fixed scenario
//! and seed every counter is reproduced exactly, regardless of worker
//! count, machine or wall-clock speed. That determinism is what lets the
//! perf grid (`platoon_core::perf`) pin counter totals exactly in a golden
//! file; wall time is measured by the benchmark, not here.

/// Deterministic per-run engine work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Communication steps executed.
    pub ticks: u64,
    /// Frames handed to the medium (beacons, hybrid copies, relays and
    /// manoeuvre messages; attack-injected frames excluded).
    pub frames_built: u64,
    /// Payload bytes actually *encoded* (sealed envelopes). Hybrid copies
    /// and relays share the encoded bytes instead of re-encoding them.
    pub bytes_encoded: u64,
    /// Payload bytes summed over every frame built, counting shared
    /// payloads once per frame — what a clone-per-frame builder would have
    /// copied.
    pub frame_bytes: u64,
    /// Frames that *shared* an already-encoded payload instead of cloning
    /// it (hybrid channel copies, VLC relays): each one is an allocation
    /// plus a byte copy the arena avoided.
    pub payload_clones_avoided: u64,
    /// Deliveries the engine processed (after the medium's channel model).
    pub deliveries: u64,
    /// Observations fed to the misbehaviour-detection pipeline (beacon,
    /// control and sensor observations plus per-step ticks).
    pub detector_observations: u64,
    /// Controller commands computed.
    pub commands_computed: u64,
}

impl PerfCounters {
    /// Adds another run's counters (for batch totals).
    pub fn accumulate(&mut self, other: &PerfCounters) {
        self.ticks += other.ticks;
        self.frames_built += other.frames_built;
        self.bytes_encoded += other.bytes_encoded;
        self.frame_bytes += other.frame_bytes;
        self.payload_clones_avoided += other.payload_clones_avoided;
        self.deliveries += other.deliveries;
        self.detector_observations += other.detector_observations;
        self.commands_computed += other.commands_computed;
    }

    /// Writes the counters as a canonical-JSON object body (fixed field
    /// order, integers only — byte-stable by construction).
    pub fn write_canonical(&self, w: &mut crate::harness::json::Writer) {
        w.field_u64("ticks", self.ticks);
        w.field_u64("frames_built", self.frames_built);
        w.field_u64("bytes_encoded", self.bytes_encoded);
        w.field_u64("frame_bytes", self.frame_bytes);
        w.field_u64("payload_clones_avoided", self.payload_clones_avoided);
        w.field_u64("deliveries", self.deliveries);
        w.field_u64("detector_observations", self.detector_observations);
        w.field_u64("commands_computed", self.commands_computed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_every_field() {
        let a = PerfCounters {
            ticks: 1,
            frames_built: 2,
            bytes_encoded: 3,
            frame_bytes: 4,
            payload_clones_avoided: 5,
            deliveries: 6,
            detector_observations: 7,
            commands_computed: 8,
        };
        let mut total = a;
        total.accumulate(&a);
        assert_eq!(
            total,
            PerfCounters {
                ticks: 2,
                frames_built: 4,
                bytes_encoded: 6,
                frame_bytes: 8,
                payload_clones_avoided: 10,
                deliveries: 12,
                detector_observations: 14,
                commands_computed: 16,
            }
        );
    }

    #[test]
    fn canonical_rendering_is_stable() {
        let mut w = crate::harness::json::Writer::new();
        let c = PerfCounters::default();
        w.obj(|w| c.write_canonical(w));
        let text = w.finish();
        assert!(text.contains("\"ticks\": 0"));
        assert!(text.contains("\"payload_clones_avoided\": 0"));
        // Parses back through the canonical parser.
        crate::harness::json::parse(&text).expect("canonical counters parse");
    }
}
