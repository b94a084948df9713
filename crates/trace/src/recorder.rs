//! The bounded JSONL trace recorder.

use platoon_sim::harness::{fnv1a_fold, FNV_OFFSET};
use platoon_sim::trace::{TraceDigest, TraceRecord, Tracer};
use std::any::Any;

/// Default retained-line bound: generous enough for any experiment in this
/// workspace (a 60 s full-effort scenario emits a few thousand records)
/// while still bounding a pathological alert storm.
pub const DEFAULT_CAPACITY: usize = 1_000_000;

/// A deterministic, bounded trace recorder.
///
/// Every [`TraceRecord`] is rendered *eagerly* to its compact canonical-JSON
/// line (so retained bytes cannot drift from what was emitted) and folded
/// into a running FNV-1a digest. The digest covers the **full** stream —
/// records dropped past [`capacity`](Self::capacity) still hash — so the
/// [`TraceDigest`] in a run summary pins the entire trace even when the
/// retained file is truncated. Determinism is inherited from the record
/// stream: no wall clock, no thread ids, no randomness.
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

    /// The retained-line bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained canonical lines, in emission order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Records dropped past the bound (still counted and hashed).
    pub fn dropped(&self) -> u64 {
        self.dropped
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

    fn fold(&mut self, line: &str) {
        // Delimit lines in the hash stream the same way the file does.
        self.hash = fnv1a_fold(fnv1a_fold(self.hash, line.as_bytes()), b"\n");
    }
}

impl Tracer for TraceRecorder {
    fn record(&mut self, record: &TraceRecord) {
        let line = record.to_canonical_line();
        self.records += 1;
        self.fold(&line);
        if self.lines.len() < self.capacity {
            self.lines.push(line);
        } else {
            self.dropped += 1;
        }
    }

    fn digest(&self) -> TraceDigest {
        TraceRecorder::digest(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Tracer>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::trace::{TraceDetail, TracePhase};

    fn record(tick: u64) -> TraceRecord {
        TraceRecord {
            tick,
            time: tick as f64 * 0.1,
            phase: TracePhase::Medium,
            detail: TraceDetail::MediumStep {
                offered: 4,
                delivered: 12,
                lost: 0,
                max_latency: 0.0021,
            },
        }
    }

    #[test]
    fn recorder_retains_lines_in_order_and_digests() {
        let mut r = TraceRecorder::new();
        for tick in 0..5 {
            r.record(&record(tick));
        }
        assert_eq!(r.lines().len(), 5);
        assert_eq!(r.dropped(), 0);
        let d = r.digest();
        assert_eq!(d.records, 5);
        assert_eq!(d.dropped, 0);
        assert!(r.to_jsonl().ends_with('\n'));
        assert_eq!(r.to_jsonl().lines().count(), 5);
        // The digest is a pure function of the record stream.
        let mut again = TraceRecorder::new();
        for tick in 0..5 {
            again.record(&record(tick));
        }
        assert_eq!(again.digest(), d);
    }

    #[test]
    fn over_capacity_records_are_hashed_but_not_retained() {
        let mut bounded = TraceRecorder::with_capacity(3);
        let mut unbounded = TraceRecorder::new();
        for tick in 0..10 {
            bounded.record(&record(tick));
            unbounded.record(&record(tick));
        }
        assert_eq!(bounded.lines().len(), 3);
        assert_eq!(bounded.dropped(), 7);
        assert_eq!(bounded.digest().records, 10);
        // The digest pins the FULL stream, truncated file or not.
        assert_eq!(bounded.digest().hash, unbounded.digest().hash);
    }

    #[test]
    fn different_streams_hash_differently() {
        let mut a = TraceRecorder::new();
        let mut b = TraceRecorder::new();
        a.record(&record(1));
        b.record(&record(2));
        assert_ne!(a.digest().hash, b.digest().hash);
        // Line-delimited folding: two records are not the same as one
        // record whose line is their concatenation.
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
}
