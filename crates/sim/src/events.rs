//! Typed event log: the audit trail of a simulation run.

use crate::defense::RejectReason;
use platoon_crypto::cert::PrincipalId;
use platoon_proto::messages::PlatoonId;

/// A notable occurrence during a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A received message was rejected by a defense.
    MessageRejected {
        /// Receiving vehicle index.
        receiver: usize,
        /// Claimed sender.
        sender: PrincipalId,
        /// Why.
        reason: RejectReason,
    },
    /// A join request was accepted.
    JoinAccepted {
        /// The joiner.
        requester: PrincipalId,
        /// Reserved slot.
        slot: usize,
    },
    /// A join request was denied or dropped.
    JoinRefused {
        /// The requester.
        requester: PrincipalId,
    },
    /// A pending join expired without the vehicle arriving (ghost).
    JoinExpired {
        /// The no-show requester.
        requester: PrincipalId,
    },
    /// The platoon split.
    Split {
        /// Index at which it split.
        at_index: usize,
        /// Id of the new trailing platoon.
        new_platoon: PlatoonId,
    },
    /// A collision occurred.
    Collision {
        /// Striking (rear) vehicle index.
        rear_index: usize,
    },
    /// A misbehaviour detection fired.
    Detection {
        /// The accused principal.
        suspect: PrincipalId,
    },
    /// A channel-level misbehaviour alarm with no attributable sender
    /// (jamming, manoeuvre-channel flooding).
    ChannelAlarm,
    /// A vehicle's platooning service went down (malware).
    ServiceDown {
        /// The affected vehicle index.
        vehicle: usize,
    },
}

/// A timestamped event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoggedEvent {
    /// Simulation time in seconds.
    pub time: f64,
    /// The event.
    pub event: Event,
}

/// Bounded event log.
#[derive(Clone, Debug)]
pub struct EventLog {
    events: Vec<LoggedEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(100_000)
    }
}

impl EventLog {
    /// A log retaining at most `capacity` events (later events are counted
    /// but dropped).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event at `time`.
    pub fn push(&mut self, time: f64, event: Event) {
        if self.events.len() < self.capacity {
            self.events.push(LoggedEvent { time, event });
        } else {
            self.dropped += 1;
        }
    }

    /// All retained events in order.
    pub fn events(&self) -> &[LoggedEvent] {
        &self.events
    }

    /// Number of events dropped after the log filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Counts events matching a predicate.
    ///
    /// # Panics
    ///
    /// Panics when the log has saturated (`dropped > 0`): a count over a
    /// truncated log silently undercounts, which is exactly how saturated
    /// collision/detection tallies used to leak into run summaries
    /// unnoticed. Callers that can accept a lower bound must say so
    /// explicitly via [`count_retained`](Self::count_retained).
    pub fn count(&self, pred: impl FnMut(&Event) -> bool) -> usize {
        assert_eq!(
            self.dropped, 0,
            "EventLog::count on a saturated log ({} events dropped past a capacity of {}): \
             the tally would silently undercount; use count_retained() to accept the lower bound",
            self.dropped, self.capacity
        );
        self.count_retained(pred)
    }

    /// Counts retained events matching a predicate — an explicit *lower
    /// bound* once the log has saturated (check [`dropped`](Self::dropped)).
    pub fn count_retained(&self, mut pred: impl FnMut(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.event)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order() {
        let mut log = EventLog::new(10);
        log.push(1.0, Event::Collision { rear_index: 2 });
        log.push(
            2.0,
            Event::Detection {
                suspect: PrincipalId(5),
            },
        );
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].time, 1.0);
    }

    #[test]
    fn log_bounds_capacity() {
        let mut log = EventLog::new(2);
        for i in 0..5 {
            log.push(i as f64, Event::Collision { rear_index: i });
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn count_filters() {
        let mut log = EventLog::new(10);
        log.push(1.0, Event::Collision { rear_index: 1 });
        log.push(2.0, Event::Collision { rear_index: 2 });
        log.push(
            3.0,
            Event::Detection {
                suspect: PrincipalId(1),
            },
        );
        assert_eq!(log.count(|e| matches!(e, Event::Collision { .. })), 2);
    }

    #[test]
    fn saturated_count_fails_loudly_but_count_retained_saturates() {
        // Regression: `count` on a saturated log used to return the
        // retained-only tally as if it were exact, so summaries silently
        // undercounted once capacity was hit.
        let mut log = EventLog::new(3);
        for i in 0..5 {
            log.push(i as f64, Event::Collision { rear_index: i });
        }
        assert_eq!(log.dropped(), 2);
        let err = std::panic::catch_unwind(|| log.count(|e| matches!(e, Event::Collision { .. })))
            .expect_err("count on a saturated log must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            msg.contains("saturated"),
            "diagnostic names the cause: {msg}"
        );
        assert!(
            msg.contains("count_retained"),
            "points at the escape hatch: {msg}"
        );
        // The explicit lower-bound accessor still works.
        assert_eq!(
            log.count_retained(|e| matches!(e, Event::Collision { .. })),
            3
        );
    }
}
