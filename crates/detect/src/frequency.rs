//! Beacon-frequency and silence monitoring — the DoS/jamming detector.
//!
//! Three behaviours, all per observer:
//!
//! * **Flooding** — a sender beaconing far above the nominal rate, or the
//!   manoeuvre channel carrying an implausible message rate (join floods).
//! * **Selective silence** — one expected member going quiet while the
//!   observer still hears everyone else: the signature of a crashed or
//!   malware-disabled vehicle (and of targeted jamming).
//! * **Channel outage** — the observer hearing *nothing* for a sustained
//!   interval: broadband jamming or a dead radio. Attributed to the
//!   channel, not to any sender.
//!
//! Silence findings are episode-based: one report per quiet spell, re-armed
//! when the party is heard again, so a dead vehicle does not flood the
//! fusion layer every tick.

use crate::detector::{Detector, Evidence};
use crate::fusion::AlertTarget;
use crate::observation::{BeaconObservation, ControlObservation, TickContext};
use std::collections::BTreeMap;

/// Tuning for the frequency/silence detector.
#[derive(Clone, Debug)]
pub struct FrequencyConfig {
    /// Quiet interval after which a member counts as silent, seconds.
    pub silence_timeout: f64,
    /// Grace period at stream start before silence findings, seconds.
    pub warmup: f64,
    /// Beacon-rate multiple of nominal that counts as flooding.
    pub flood_factor: f64,
    /// Nominal per-sender beacon rate, Hz. The engine attach path overrides
    /// this with the scenario's configured rate (`1 / comm_step`).
    pub nominal_rate_hz: f64,
    /// Manoeuvre messages per second (per observer) that count as a flood.
    pub control_rate_limit: u32,
    /// Evidence strength for one selective-silence episode.
    pub selective_strength: f64,
    /// Evidence strength for one channel-outage episode (per observer).
    pub outage_strength: f64,
}

impl Default for FrequencyConfig {
    fn default() -> Self {
        FrequencyConfig {
            silence_timeout: 2.0,
            warmup: 1.0,
            flood_factor: 3.0,
            nominal_rate_hz: 10.0,
            control_rate_limit: 20,
            selective_strength: 0.34,
            outage_strength: 0.5,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct RateWindow {
    start: f64,
    count: u32,
    reported: bool,
}

/// Streaming beacon-frequency and silence detector.
#[derive(Clone, Debug, Default)]
pub struct FrequencyDetector {
    config: FrequencyConfig,
    // Last time each (observer, sender) pair was heard, plus the silence
    // episode flag.
    last_heard: BTreeMap<(usize, u64), (f64, bool)>,
    // Last time each observer heard anyone, plus the outage episode flag.
    last_any: BTreeMap<usize, (f64, bool)>,
    // Per-(observer, sender) one-second beacon-rate windows.
    beacon_rate: BTreeMap<(usize, u64), RateWindow>,
    // Per-observer one-second manoeuvre-rate windows.
    control_rate: BTreeMap<usize, RateWindow>,
}

impl FrequencyDetector {
    /// Creates the detector with the given tuning.
    pub fn new(config: FrequencyConfig) -> Self {
        FrequencyDetector {
            config,
            ..Default::default()
        }
    }

    fn heard(&mut self, observer: usize, sender: u64, time: f64) {
        self.last_heard.insert((observer, sender), (time, false));
        self.last_any.insert(observer, (time, false));
    }

    fn bump(window: &mut RateWindow, time: f64, limit: u32) -> bool {
        if time - window.start >= 1.0 {
            *window = RateWindow {
                start: time,
                count: 1,
                reported: false,
            };
            return false;
        }
        window.count += 1;
        if window.count > limit && !window.reported {
            window.reported = true;
            return true;
        }
        false
    }
}

impl Detector for FrequencyDetector {
    fn name(&self) -> &'static str {
        "frequency"
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }

    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        self.heard(obs.ctx.observer, obs.sender.0, obs.time);
        let limit = (self.config.flood_factor * self.config.nominal_rate_hz).max(1.0) as u32;
        let window = self
            .beacon_rate
            .entry((obs.ctx.observer, obs.sender.0))
            .or_insert(RateWindow {
                start: obs.time,
                count: 0,
                reported: false,
            });
        if Self::bump(window, obs.time, limit) {
            sink.push(Evidence {
                time: obs.time,
                target: AlertTarget::Sender(obs.sender),
                detector: self.name(),
                strength: 0.6,
            });
        }
    }

    fn observe_control(&mut self, obs: &ControlObservation, sink: &mut Vec<Evidence>) {
        self.heard(obs.ctx.observer, obs.sender.0, obs.time);
        let window = self
            .control_rate
            .entry(obs.ctx.observer)
            .or_insert(RateWindow {
                start: obs.time,
                count: 0,
                reported: false,
            });
        if Self::bump(window, obs.time, self.config.control_rate_limit) {
            sink.push(Evidence {
                time: obs.time,
                target: AlertTarget::Channel,
                detector: self.name(),
                strength: 0.7,
            });
        }
    }

    fn tick(&mut self, ctx: &TickContext<'_>, sink: &mut Vec<Evidence>) {
        if ctx.now < self.config.warmup + self.config.silence_timeout {
            return;
        }
        for &observer in ctx.observers {
            let (any_last, any_flagged) = self
                .last_any
                .get(&observer)
                .copied()
                .unwrap_or((0.0, false));
            let outage = ctx.now - any_last > self.config.silence_timeout;
            if outage && !any_flagged {
                self.last_any.insert(observer, (any_last, true));
                sink.push(Evidence {
                    time: ctx.now,
                    target: AlertTarget::Channel,
                    detector: self.name(),
                    strength: self.config.outage_strength,
                });
            }
            if outage {
                // Hearing nobody is a channel problem; per-member silence
                // findings would just smear the blame over every sender.
                continue;
            }
            for (idx, member) in ctx.members.iter().enumerate() {
                if idx == observer {
                    continue; // nobody hears their own transmissions
                }
                let key = (observer, member.0);
                let (last, flagged) = self.last_heard.get(&key).copied().unwrap_or((0.0, false));
                if ctx.now - last > self.config.silence_timeout {
                    if !flagged {
                        self.last_heard.insert(key, (last, true));
                        sink.push(Evidence {
                            time: ctx.now,
                            target: AlertTarget::Sender(*member),
                            detector: self.name(),
                            strength: self.config.selective_strength,
                        });
                    }
                } else if flagged {
                    self.last_heard.insert(key, (last, false));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::PrincipalId;

    fn tick_ctx<'a>(
        now: f64,
        members: &'a [PrincipalId],
        observers: &'a [usize],
    ) -> TickContext<'a> {
        TickContext {
            now,
            comm_step: 0.1,
            members,
            observers,
        }
    }

    #[test]
    fn steady_beaconing_is_silent() {
        let mut det = FrequencyDetector::default();
        let mut sink = Vec::new();
        let members = [PrincipalId(1), PrincipalId(2)];
        for step in 0..100u64 {
            let t = step as f64 * 0.1;
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(1), 1),
                &mut sink,
            );
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(2), 0),
                &mut sink,
            );
            det.tick(&tick_ctx(t, &members, &[0, 1]), &mut sink);
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn member_going_quiet_is_reported_once_per_episode() {
        let mut det = FrequencyDetector::default();
        let mut sink = Vec::new();
        let members = [PrincipalId(1), PrincipalId(2), PrincipalId(3)];
        for step in 0..120u64 {
            let t = step as f64 * 0.1;
            // Observers 0 and 1 keep hearing each other; member 3 (vehicle 2)
            // stops beaconing at t=5.
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(2), 0),
                &mut sink,
            );
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(1), 1),
                &mut sink,
            );
            if t < 5.0 {
                det.observe_beacon(
                    &BeaconObservation::plausible(t, PrincipalId(3), 0),
                    &mut sink,
                );
                det.observe_beacon(
                    &BeaconObservation::plausible(t, PrincipalId(3), 1),
                    &mut sink,
                );
            }
            det.tick(&tick_ctx(t, &members, &[0, 1]), &mut sink);
        }
        // Exactly one selective-silence report per observer, no outage
        // alarms (both observers still hear someone).
        assert!(sink
            .iter()
            .all(|e| e.target == AlertTarget::Sender(PrincipalId(3))));
        assert_eq!(sink.len(), 2);
        assert!(sink.iter().all(|e| e.time > 7.0 - 1e-9));
    }

    #[test]
    fn total_silence_is_a_channel_alarm() {
        let mut det = FrequencyDetector::default();
        let mut sink = Vec::new();
        let members = [PrincipalId(1), PrincipalId(2)];
        for step in 0..60u64 {
            let t = step as f64 * 0.1;
            det.tick(&tick_ctx(t, &members, &[0, 1]), &mut sink);
        }
        // One outage episode per observer, no per-sender blame smearing.
        assert_eq!(sink.len(), 2);
        assert!(sink.iter().all(|e| e.target == AlertTarget::Channel));
    }

    #[test]
    fn beacon_flood_is_reported() {
        let mut det = FrequencyDetector::default();
        let mut sink = Vec::new();
        for i in 0..60u64 {
            let t = 2.0 + i as f64 * 0.01; // 100 Hz burst
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(5), 0),
                &mut sink,
            );
        }
        assert_eq!(sink.len(), 1, "one report per rate window");
        assert_eq!(sink[0].target, AlertTarget::Sender(PrincipalId(5)));
    }

    #[test]
    fn benign_20hz_beaconing_is_silent_once_rate_is_configured() {
        // Regression: the flood limit used to hardcode a 10 Hz nominal
        // rate, so 20 Hz benign beaconing (20/s < 3×20 but < 3×10 fails
        // only above 30/s — two streams per observer tipped it) must stay
        // silent when the configured rate matches the scenario.
        let mut det = FrequencyDetector::new(FrequencyConfig {
            nominal_rate_hz: 20.0,
            ..Default::default()
        });
        let mut sink = Vec::new();
        for step in 0..200u64 {
            let t = step as f64 * 0.05; // 20 Hz
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(1), 0),
                &mut sink,
            );
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(2), 0),
                &mut sink,
            );
        }
        assert!(sink.is_empty(), "benign 20 Hz flagged: {sink:?}");
    }

    #[test]
    fn hardcoded_rate_assumption_would_flag_fast_benign_beaconing() {
        // The pre-fix behaviour, pinned so the bug cannot silently return:
        // with the default 10 Hz nominal a *benign* 40 Hz stream (plausible
        // for dense sensor-grade beaconing) trips the flood limit, while a
        // correctly configured 40 Hz nominal stays silent.
        let benign_40hz = |config: FrequencyConfig| {
            let mut det = FrequencyDetector::new(config);
            let mut sink = Vec::new();
            for step in 0..80u64 {
                let t = step as f64 * 0.025; // 40 Hz
                det.observe_beacon(
                    &BeaconObservation::plausible(t, PrincipalId(1), 0),
                    &mut sink,
                );
            }
            sink.len()
        };
        assert!(
            benign_40hz(FrequencyConfig::default()) > 0,
            "10 Hz assumption must flag a 40 Hz benign stream (the old bug)"
        );
        assert_eq!(
            benign_40hz(FrequencyConfig {
                nominal_rate_hz: 40.0,
                ..Default::default()
            }),
            0,
            "configured 40 Hz nominal must stay silent"
        );
    }

    #[test]
    fn genuine_flood_is_still_caught_at_20hz_nominal() {
        let mut det = FrequencyDetector::new(FrequencyConfig {
            nominal_rate_hz: 20.0,
            ..Default::default()
        });
        let mut sink = Vec::new();
        for i in 0..100u64 {
            let t = 2.0 + i as f64 * 0.005; // 200 Hz burst > 3×20
            det.observe_beacon(
                &BeaconObservation::plausible(t, PrincipalId(5), 0),
                &mut sink,
            );
        }
        assert_eq!(sink.len(), 1, "one report per rate window");
        assert_eq!(sink[0].target, AlertTarget::Sender(PrincipalId(5)));
    }

    #[test]
    fn control_flood_is_a_channel_alarm() {
        let mut det = FrequencyDetector::default();
        let mut sink = Vec::new();
        for i in 0..40u64 {
            let mut obs =
                BeaconObservation::plausible(2.0 + i as f64 * 0.01, PrincipalId(100 + i), 0);
            obs.ctx.observer = 0;
            let control = ControlObservation {
                time: obs.time,
                sender: obs.sender,
                kind: crate::observation::ControlKind::JoinRequest {
                    claimed_position: 0.0,
                },
                timestamp: obs.time,
                rssi_dbm: obs.rssi_dbm,
                channel: obs.channel,
                auth: obs.auth,
                ctx: obs.ctx,
            };
            det.observe_control(&control, &mut sink);
        }
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].target, AlertTarget::Channel);
    }
}
