//! Anti-replay protection: timestamp freshness windows and sequence-number
//! sliding windows.
//!
//! §V-A.1 of the paper describes the replay attack — re-injecting a recorded
//! "close the gap" command after the leader has ordered "back off", making
//! the platoon oscillate. Both standard countermeasures are implemented so
//! the benchmark harness can ablate them (experiment F1 in DESIGN.md):
//!
//! * [`TimestampWindow`] — accept a message only if its timestamp is within
//!   `max_age` of local time and newer than the last accepted one per sender.
//! * [`SequenceWindow`] — a sliding bitmap over per-sender sequence numbers
//!   (the IPsec-style anti-replay window), robust to reordering.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Outcome of an anti-replay check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Message is fresh; state was advanced.
    Fresh,
    /// Message is a replay or duplicate.
    Replayed,
    /// Message is too old to evaluate (outside the window).
    Stale,
}

impl ReplayVerdict {
    /// Whether the message should be accepted.
    pub fn is_fresh(self) -> bool {
        self == ReplayVerdict::Fresh
    }
}

impl fmt::Display for ReplayVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayVerdict::Fresh => f.write_str("fresh"),
            ReplayVerdict::Replayed => f.write_str("replayed"),
            ReplayVerdict::Stale => f.write_str("stale"),
        }
    }
}

/// Timestamp-based freshness filter, keyed by sender.
///
/// # Examples
///
/// ```
/// use platoon_crypto::replay::{TimestampWindow, ReplayVerdict};
///
/// let mut w = TimestampWindow::new(0.5);
/// assert_eq!(w.check(1u64, 10.0, 10.1), ReplayVerdict::Fresh);
/// // Replaying the same (or older) timestamp is rejected.
/// assert_eq!(w.check(1u64, 10.0, 10.2), ReplayVerdict::Replayed);
/// // A message far older than `max_age` is stale.
/// assert_eq!(w.check(1u64, 5.0, 10.3), ReplayVerdict::Stale);
/// ```
#[derive(Clone, Debug)]
pub struct TimestampWindow<S: Eq + Hash> {
    max_age: f64,
    last_accepted: HashMap<S, f64>,
}

impl<S: Eq + Hash> TimestampWindow<S> {
    /// Creates a filter accepting messages at most `max_age` seconds old.
    ///
    /// # Panics
    ///
    /// Panics if `max_age` is not positive.
    pub fn new(max_age: f64) -> Self {
        assert!(max_age > 0.0, "max_age must be positive");
        TimestampWindow {
            max_age,
            last_accepted: HashMap::new(),
        }
    }

    /// Checks a message carrying `timestamp` from `sender`, at local time `now`.
    pub fn check(&mut self, sender: S, timestamp: f64, now: f64) -> ReplayVerdict {
        if now - timestamp > self.max_age {
            return ReplayVerdict::Stale;
        }
        match self.last_accepted.get(&sender) {
            Some(&last) if timestamp <= last => ReplayVerdict::Replayed,
            _ => {
                self.last_accepted.insert(sender, timestamp);
                ReplayVerdict::Fresh
            }
        }
    }

    /// The configured maximum acceptable age in seconds.
    pub fn max_age(&self) -> f64 {
        self.max_age
    }

    /// Forgets all per-sender state (e.g. after a platoon reform).
    pub fn reset(&mut self) {
        self.last_accepted.clear();
    }
}

/// IPsec-style sliding sequence-number window, keyed by sender.
///
/// Accepts each sequence number at most once; tolerates reordering up to the
/// window width; rejects numbers older than the window.
///
/// # Examples
///
/// ```
/// use platoon_crypto::replay::{SequenceWindow, ReplayVerdict};
///
/// let mut w = SequenceWindow::new(64);
/// assert!(w.check("veh1", 5).is_fresh());
/// assert!(w.check("veh1", 3).is_fresh());      // reordered but inside window
/// assert_eq!(w.check("veh1", 5), ReplayVerdict::Replayed);
/// ```
#[derive(Clone, Debug)]
pub struct SequenceWindow<S: Eq + Hash> {
    width: u64,
    state: HashMap<S, SeqState>,
}

#[derive(Clone, Copy, Debug, Default)]
struct SeqState {
    /// Highest sequence number seen.
    max_seq: u64,
    /// Bit i set ⇔ (max_seq - i) has been seen. Bit 0 is max_seq itself.
    bitmap: u64,
    /// Whether any number has been seen yet.
    seen_any: bool,
}

impl<S: Eq + Hash> SequenceWindow<S> {
    /// Creates a window of `width` sequence numbers (max 64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(width: u64) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        SequenceWindow {
            width,
            state: HashMap::new(),
        }
    }

    /// Checks sequence number `seq` from `sender`.
    pub fn check(&mut self, sender: S, seq: u64) -> ReplayVerdict {
        let st = self.state.entry(sender).or_default();
        if !st.seen_any {
            st.seen_any = true;
            st.max_seq = seq;
            st.bitmap = 1;
            return ReplayVerdict::Fresh;
        }
        if seq > st.max_seq {
            let shift = seq - st.max_seq;
            st.bitmap = if shift >= 64 { 0 } else { st.bitmap << shift };
            st.bitmap |= 1;
            st.max_seq = seq;
            ReplayVerdict::Fresh
        } else {
            let offset = st.max_seq - seq;
            if offset >= self.width {
                return ReplayVerdict::Stale;
            }
            let mask = 1u64 << offset;
            if st.bitmap & mask != 0 {
                ReplayVerdict::Replayed
            } else {
                st.bitmap |= mask;
                ReplayVerdict::Fresh
            }
        }
    }

    /// The window width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Forgets all per-sender state.
    pub fn reset(&mut self) {
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_monotonic_accept() {
        let mut w: TimestampWindow<u32> = TimestampWindow::new(1.0);
        assert!(w.check(1, 1.0, 1.0).is_fresh());
        assert!(w.check(1, 1.1, 1.1).is_fresh());
        assert!(w.check(1, 1.2, 1.25).is_fresh());
    }

    #[test]
    fn timestamp_replay_rejected() {
        let mut w: TimestampWindow<u32> = TimestampWindow::new(5.0);
        assert!(w.check(1, 2.0, 2.0).is_fresh());
        assert_eq!(w.check(1, 2.0, 2.5), ReplayVerdict::Replayed);
        assert_eq!(w.check(1, 1.5, 2.5), ReplayVerdict::Replayed);
    }

    #[test]
    fn timestamp_per_sender_independent() {
        let mut w: TimestampWindow<u32> = TimestampWindow::new(5.0);
        assert!(w.check(1, 2.0, 2.0).is_fresh());
        assert!(w.check(2, 2.0, 2.0).is_fresh());
    }

    #[test]
    fn timestamp_stale_rejected() {
        let mut w: TimestampWindow<u32> = TimestampWindow::new(0.5);
        assert_eq!(w.check(1, 1.0, 2.0), ReplayVerdict::Stale);
    }

    #[test]
    fn timestamp_reset_forgets() {
        let mut w: TimestampWindow<u32> = TimestampWindow::new(5.0);
        assert!(w.check(1, 2.0, 2.0).is_fresh());
        w.reset();
        assert!(w.check(1, 2.0, 2.0).is_fresh());
    }

    #[test]
    #[should_panic(expected = "max_age")]
    fn timestamp_zero_age_panics() {
        let _w: TimestampWindow<u32> = TimestampWindow::new(0.0);
    }

    #[test]
    fn sequence_in_order() {
        let mut w: SequenceWindow<u32> = SequenceWindow::new(32);
        for seq in 0..100 {
            assert!(w.check(1, seq).is_fresh(), "seq {seq}");
        }
    }

    #[test]
    fn sequence_duplicate_rejected() {
        let mut w: SequenceWindow<u32> = SequenceWindow::new(32);
        assert!(w.check(1, 10).is_fresh());
        assert_eq!(w.check(1, 10), ReplayVerdict::Replayed);
    }

    #[test]
    fn sequence_reorder_within_window() {
        let mut w: SequenceWindow<u32> = SequenceWindow::new(8);
        assert!(w.check(1, 10).is_fresh());
        assert!(w.check(1, 7).is_fresh());
        assert!(w.check(1, 9).is_fresh());
        assert_eq!(w.check(1, 7), ReplayVerdict::Replayed);
    }

    #[test]
    fn sequence_too_old_is_stale() {
        let mut w: SequenceWindow<u32> = SequenceWindow::new(8);
        assert!(w.check(1, 100).is_fresh());
        assert_eq!(w.check(1, 92), ReplayVerdict::Stale);
        assert!(w.check(1, 93).is_fresh());
    }

    #[test]
    fn sequence_large_jump_clears_bitmap() {
        let mut w: SequenceWindow<u32> = SequenceWindow::new(64);
        assert!(w.check(1, 1).is_fresh());
        assert!(w.check(1, 1000).is_fresh());
        assert_eq!(w.check(1, 1000), ReplayVerdict::Replayed);
        // 999 was never seen and is inside the window.
        assert!(w.check(1, 999).is_fresh());
    }

    #[test]
    fn sequence_per_sender_independent() {
        let mut w: SequenceWindow<&str> = SequenceWindow::new(16);
        assert!(w.check("a", 5).is_fresh());
        assert!(w.check("b", 5).is_fresh());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn sequence_zero_width_panics() {
        let _w: SequenceWindow<u32> = SequenceWindow::new(0);
    }
}
