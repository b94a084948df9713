//! Cumulative link statistics: packet delivery ratio, latency and beacon age
//! tracking — the availability metrics of the jamming and DoS experiments.

use crate::hash::FxHashMap;
use crate::message::NodeId;
use std::collections::HashMap;

/// Cumulative per-link and aggregate delivery statistics.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Frames offered per sender.
    offered: FxHashMap<NodeId, u64>,
    /// (sender → receiver) successful deliveries.
    delivered: FxHashMap<(NodeId, NodeId), u64>,
    /// Sum and count of delivery latencies.
    latency_sum: f64,
    latency_count: u64,
    /// Maximum observed latency.
    latency_max: f64,
}

impl LinkStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a frame offered by `sender` to the medium.
    pub fn record_offer(&mut self, sender: NodeId) {
        *self.offered.entry(sender).or_insert(0) += 1;
    }

    /// Records a successful delivery with its latency.
    pub fn record_delivery(&mut self, sender: NodeId, receiver: NodeId, latency: f64) {
        *self.delivered.entry((sender, receiver)).or_insert(0) += 1;
        self.latency_sum += latency;
        self.latency_count += 1;
        self.latency_max = self.latency_max.max(latency);
    }

    /// Packet delivery ratio for a directed link, or `None` if the sender
    /// never transmitted.
    pub fn pdr(&self, sender: NodeId, receiver: NodeId) -> Option<f64> {
        let offered = *self.offered.get(&sender)?;
        if offered == 0 {
            return None;
        }
        let delivered = self
            .delivered
            .get(&(sender, receiver))
            .copied()
            .unwrap_or(0);
        Some(delivered as f64 / offered as f64)
    }

    /// Aggregate PDR over all links from `sender` to the given receivers.
    pub fn broadcast_pdr(&self, sender: NodeId, receivers: &[NodeId]) -> Option<f64> {
        let offered = *self.offered.get(&sender)? as f64;
        if offered == 0.0 || receivers.is_empty() {
            return None;
        }
        let delivered: u64 = receivers
            .iter()
            .map(|r| self.delivered.get(&(sender, *r)).copied().unwrap_or(0))
            .sum();
        Some(delivered as f64 / (offered * receivers.len() as f64))
    }

    /// Mean delivery latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.latency_count == 0 {
            return 0.0;
        }
        self.latency_sum / self.latency_count as f64
    }

    /// Maximum observed latency in seconds, or the canonical positive
    /// quiet NaN when nothing has been delivered.
    ///
    /// The field defaults to `0.0`, so returning it raw used to make a
    /// zero-delivery run (total jamming, a blackout window covering the
    /// whole run) report a *perfect* max latency of 0.0 — indistinguishable
    /// from instant delivery. NaN is the convention the rest of the
    /// workspace uses for "nothing to measure" (cf. `per_frame_ratio` in
    /// `platoon-sim`), and the canonical JSON writer encodes it as the
    /// `"nan"` string.
    pub fn max_latency(&self) -> f64 {
        if self.latency_count == 0 {
            return f64::NAN;
        }
        self.latency_max
    }

    /// Total frames offered by all senders.
    pub fn total_offered(&self) -> u64 {
        self.offered.values().sum()
    }

    /// Total successful deliveries.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.values().sum()
    }
}

/// Tracks the age of the freshest information received from each peer — the
/// beacon-age metric used to detect communication loss.
#[derive(Clone, Debug, Default)]
pub struct BeaconAgeTracker {
    last_heard: HashMap<NodeId, f64>,
}

impl BeaconAgeTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records hearing from `peer` at time `now`.
    pub fn heard(&mut self, peer: NodeId, now: f64) {
        let entry = self.last_heard.entry(peer).or_insert(now);
        *entry = entry.max(now);
    }

    /// Age of the last beacon from `peer`, or `None` if never heard.
    pub fn age(&self, peer: NodeId, now: f64) -> Option<f64> {
        self.last_heard.get(&peer).map(|t| (now - t).max(0.0))
    }

    /// Peers whose beacons are older than `timeout` (or never heard among
    /// `expected`).
    pub fn silent_peers(&self, expected: &[NodeId], now: f64, timeout: f64) -> Vec<NodeId> {
        expected
            .iter()
            .copied()
            .filter(|p| self.age(*p, now).is_none_or(|a| a > timeout))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdr_counts_correctly() {
        let mut s = LinkStats::new();
        for _ in 0..10 {
            s.record_offer(NodeId(1));
        }
        for _ in 0..7 {
            s.record_delivery(NodeId(1), NodeId(2), 0.001);
        }
        assert_eq!(s.pdr(NodeId(1), NodeId(2)), Some(0.7));
        assert_eq!(s.pdr(NodeId(1), NodeId(3)), Some(0.0));
        assert_eq!(s.pdr(NodeId(9), NodeId(2)), None);
    }

    #[test]
    fn broadcast_pdr_averages_over_receivers() {
        let mut s = LinkStats::new();
        for _ in 0..10 {
            s.record_offer(NodeId(1));
        }
        for _ in 0..10 {
            s.record_delivery(NodeId(1), NodeId(2), 0.001);
        }
        for _ in 0..5 {
            s.record_delivery(NodeId(1), NodeId(3), 0.001);
        }
        let pdr = s.broadcast_pdr(NodeId(1), &[NodeId(2), NodeId(3)]).unwrap();
        assert!((pdr - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_stats() {
        let mut s = LinkStats::new();
        s.record_offer(NodeId(1));
        s.record_delivery(NodeId(1), NodeId(2), 0.002);
        s.record_delivery(NodeId(1), NodeId(3), 0.004);
        assert!((s.mean_latency() - 0.003).abs() < 1e-12);
        assert_eq!(s.max_latency(), 0.004);
    }

    #[test]
    fn totals() {
        let mut s = LinkStats::new();
        s.record_offer(NodeId(1));
        s.record_offer(NodeId(2));
        s.record_delivery(NodeId(1), NodeId(2), 0.001);
        assert_eq!(s.total_offered(), 2);
        assert_eq!(s.total_delivered(), 1);
    }

    #[test]
    fn beacon_age_tracks_freshest() {
        let mut t = BeaconAgeTracker::new();
        t.heard(NodeId(1), 1.0);
        t.heard(NodeId(1), 3.0);
        t.heard(NodeId(1), 2.0); // out of order: keeps the max
        assert_eq!(t.age(NodeId(1), 4.0), Some(1.0));
        assert_eq!(t.age(NodeId(2), 4.0), None);
    }

    #[test]
    fn silent_peers_detected() {
        let mut t = BeaconAgeTracker::new();
        t.heard(NodeId(1), 10.0);
        t.heard(NodeId(2), 1.0);
        let silent = t.silent_peers(&[NodeId(1), NodeId(2), NodeId(3)], 10.5, 1.0);
        assert_eq!(silent, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn empty_stats_safe_defaults() {
        let s = LinkStats::new();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.total_offered(), 0);
    }

    #[test]
    fn zero_delivery_max_latency_is_canonical_nan() {
        // Regression: `max_latency` used to return the 0.0 default when
        // nothing was delivered, reporting a *perfect* maximum for a run
        // whose channel was completely dead.
        let empty = LinkStats::new();
        assert!(empty.max_latency().is_nan());
        assert!(
            empty.max_latency().is_sign_positive(),
            "canonical positive quiet NaN, not -NaN"
        );

        // Offers alone measure nothing either — only deliveries do.
        let mut offered_only = LinkStats::new();
        offered_only.record_offer(NodeId(1));
        assert!(offered_only.max_latency().is_nan());

        // One delivery flips it to a real measurement (even a 0.0 one).
        let mut s = LinkStats::new();
        s.record_delivery(NodeId(1), NodeId(2), 0.0);
        assert_eq!(s.max_latency(), 0.0);
        s.record_delivery(NodeId(1), NodeId(3), 0.004);
        assert_eq!(s.max_latency(), 0.004);
    }
}
