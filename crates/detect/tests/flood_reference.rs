//! A join flood — thousands of first-seen identities, several observers per
//! step — through the fusion layer's track index and the identity
//! detector's front-popped burst window, each against a test-local copy of
//! the form it replaced: a linear scan over every track with one decay
//! factor computed per track, and a burst window pruned by `retain`. Both
//! pairs must agree bit for bit.

use platoon_crypto::cert::PrincipalId;
use platoon_detect::prelude::*;

/// A deterministic xorshift stream for the synthetic flood.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Debug)]
struct ScanTrack {
    target: AlertTarget,
    score: f64,
    last_update: f64,
    flagged: bool,
    contributors: Vec<(&'static str, f64)>,
}

/// `Fusion` with a linear scan for each target's track and a decay factor
/// computed for every track at every tick.
struct ScanFusion {
    config: FusionConfig,
    tracks: Vec<ScanTrack>,
}

impl ScanFusion {
    fn decay(config: &FusionConfig, track: &mut ScanTrack, now: f64) {
        let dt = now - track.last_update;
        if dt > 0.0 && config.half_life > 0.0 {
            let factor = 0.5f64.powf(dt / config.half_life);
            track.score *= factor;
            for (_, c) in &mut track.contributors {
                *c *= factor;
            }
        }
        track.last_update = track.last_update.max(now);
        if track.flagged && track.score < config.clear_threshold {
            track.flagged = false;
        }
    }

    fn ingest(&mut self, evidence: &Evidence) -> Option<Alert> {
        let config = &self.config;
        let idx = match self.tracks.iter().position(|t| t.target == evidence.target) {
            Some(idx) => idx,
            None => {
                self.tracks.push(ScanTrack {
                    target: evidence.target,
                    score: 0.0,
                    last_update: evidence.time,
                    flagged: false,
                    contributors: Vec::new(),
                });
                self.tracks.len() - 1
            }
        };
        let track = &mut self.tracks[idx];
        Self::decay(config, track, evidence.time);
        let weight = config
            .weights
            .iter()
            .find(|(name, _)| *name == evidence.detector)
            .map(|(_, w)| *w)
            .unwrap_or(1.0);
        let add = weight * evidence.strength;
        track.score += add;
        match track
            .contributors
            .iter_mut()
            .find(|(name, _)| *name == evidence.detector)
        {
            Some((_, c)) => *c += add,
            None => track.contributors.push((evidence.detector, add)),
        }
        if !track.flagged && track.score >= config.raise_threshold {
            track.flagged = true;
            return Some(Alert {
                time: evidence.time,
                target: track.target,
                score: track.score,
                contributors: track.contributors.clone(),
            });
        }
        None
    }

    fn tick(&mut self, now: f64) {
        for track in &mut self.tracks {
            Self::decay(&self.config, track, now);
        }
    }

    fn score(&self, target: AlertTarget) -> f64 {
        self.tracks
            .iter()
            .find(|t| t.target == target)
            .map(|t| t.score)
            .unwrap_or(0.0)
    }

    fn is_flagged(&self, target: AlertTarget) -> bool {
        self.tracks.iter().any(|t| t.target == target && t.flagged)
    }
}

/// An alert with every float as its bits.
type AlertBits = (u64, AlertTarget, u64, Vec<(&'static str, u64)>);

fn bits(alert: &Alert) -> AlertBits {
    (
        alert.time.to_bits(),
        alert.target,
        alert.score.to_bits(),
        alert
            .contributors
            .iter()
            .map(|&(name, c)| (name, c.to_bits()))
            .collect(),
    )
}

const STEP: f64 = 0.1;
const STEPS: usize = 400;
const NEW_PER_STEP: u64 = 10;
const OBSERVERS: usize = 3;

#[test]
fn indexed_fusion_matches_the_linear_scan_under_a_join_flood() {
    let config = FusionConfig {
        weights: vec![("identity", 0.8), ("frequency", 1.5)],
        ..FusionConfig::default()
    };
    let mut fusion = Fusion::new(config.clone());
    let mut scan = ScanFusion {
        config,
        tracks: Vec::new(),
    };
    let mut rng = Stream(0x9e37_79b9_7f4a_7c15);
    let detectors = ["identity", "kinematic", "frequency"];
    let mut targets = vec![AlertTarget::Channel];
    let mut alerted = std::collections::BTreeSet::new();
    let (mut alerts, mut reraised) = (0, 0);
    // Time accumulates the way the engine's clock does, so the gaps between
    // ticks differ in their low bits. A quarter of the evidence lands half a
    // step after its tick, so one tick also decays tracks over different
    // gaps.
    let mut now = 0.0;
    for step in 0..STEPS {
        let first_new = 1_000 + step as u64 * NEW_PER_STEP;
        targets.extend(
            (first_new..first_new + NEW_PER_STEP).map(|id| AlertTarget::Sender(PrincipalId(id))),
        );
        for _observer in 0..OBSERVERS {
            let mut batch: Vec<AlertTarget> =
                targets[targets.len() - NEW_PER_STEP as usize..].to_vec();
            // Targets seen before, the channel among them.
            for _ in 0..6 {
                batch.push(targets[rng.below(targets.len() as u64) as usize]);
            }
            batch.push(AlertTarget::Channel);
            for target in batch {
                let late = rng.below(4) == 0;
                let evidence = Evidence {
                    time: if late { now + STEP / 2.0 } else { now },
                    target,
                    detector: detectors[rng.below(3) as usize],
                    strength: 0.05 + 0.55 * rng.unit(),
                };
                let got = fusion.ingest(&evidence);
                let want = scan.ingest(&evidence);
                assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "at {now}");
                if let Some(alert) = got {
                    alerts += 1;
                    reraised += usize::from(!alerted.insert(alert.target));
                }
            }
        }
        fusion.tick(now);
        scan.tick(now);
        if step % 50 == 49 {
            for &target in &targets {
                assert_eq!(fusion.score(target).to_bits(), scan.score(target).to_bits());
                assert_eq!(fusion.is_flagged(target), scan.is_flagged(target));
            }
        }
        now += STEP;
    }
    assert!(targets.len() > 3_000, "{} identities", targets.len());
    let never_seen = AlertTarget::Sender(PrincipalId(1));
    assert_eq!(fusion.score(never_seen), 0.0);
    assert!(!fusion.is_flagged(never_seen));
    let flagged = targets.iter().filter(|&&t| fusion.is_flagged(t)).count();
    assert!(
        alerts > 1_000 && reraised > 0,
        "{alerts} alerts, {reraised} re-raised"
    );
    assert!(flagged > 0 && flagged < targets.len(), "{flagged} flagged");
}

/// The identity detector's new-identity burst accounting with its window
/// pruned by `retain`.
struct RetainBurst {
    config: IdentityConfig,
    recent_new: Vec<(f64, u64)>,
    seen: std::collections::BTreeMap<u64, f64>,
    burst_tagged: std::collections::BTreeMap<u64, f64>,
}

impl RetainBurst {
    fn check(&mut self, time: f64, sender: u64, sink: &mut Vec<Evidence>) {
        let evidence = |id: u64, strength: f64| Evidence {
            time,
            target: AlertTarget::Sender(PrincipalId(id)),
            detector: "identity",
            strength,
        };
        if let std::collections::btree_map::Entry::Vacant(slot) = self.seen.entry(sender) {
            slot.insert(time);
            if time >= self.config.warmup {
                self.recent_new
                    .retain(|(t, _)| time - *t <= self.config.new_id_window);
                self.recent_new.push((time, sender));
                if self.recent_new.len() == self.config.new_id_limit + 1 {
                    let tagged: Vec<u64> = self.recent_new.iter().map(|(_, id)| *id).collect();
                    for id in tagged {
                        self.burst_tagged.entry(id).or_insert(time);
                        sink.push(evidence(id, 0.5));
                    }
                } else if self.recent_new.len() > self.config.new_id_limit + 1 {
                    self.burst_tagged.entry(sender).or_insert(time);
                    sink.push(evidence(sender, 0.5));
                }
            }
        } else if let Some(&tagged_at) = self.burst_tagged.get(&sender) {
            if time - tagged_at <= self.config.new_id_window {
                sink.push(evidence(sender, 0.2));
            } else {
                self.burst_tagged.remove(&sender);
            }
        }
    }
}

type EvidenceBits = (u64, AlertTarget, &'static str, u64);

fn evidence_bits(sink: &[Evidence]) -> Vec<EvidenceBits> {
    sink.iter()
        .map(|e| (e.time.to_bits(), e.target, e.detector, e.strength.to_bits()))
        .collect()
}

#[test]
fn front_popped_burst_window_matches_retain_under_a_join_flood() {
    let configs = [
        IdentityConfig::default(),
        // A window short enough that bursts open, drain and reopen.
        IdentityConfig {
            new_id_window: 0.35,
            new_id_limit: 2,
            ..IdentityConfig::default()
        },
    ];
    for config in configs {
        let mut detector = IdentityDetector::new(config.clone());
        let mut reference = RetainBurst {
            config: config.clone(),
            recent_new: Vec::new(),
            seen: Default::default(),
            burst_tagged: Default::default(),
        };
        let mut rng = Stream(0x2545_f491_4f6c_dd1d);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = 0.0;
        let mut flood = 0u64;
        for step in 0..500 {
            // The roster beacons throughout; the flood starts after warmup,
            // each ghost sending for a few steps, and now and then an old
            // ghost returns after its tag has lapsed.
            let mut senders: Vec<u64> = (1..=8).collect();
            if step >= 30 {
                let arrivals = if step % 40 < 30 {
                    NEW_PER_STEP
                } else {
                    rng.below(2)
                };
                flood += arrivals;
                let recent = flood.saturating_sub(3 * NEW_PER_STEP);
                senders.extend((recent..flood).map(|g| 10_000 + g));
                if flood > 0 {
                    senders.push(10_000 + rng.below(flood));
                }
            }
            for observer in 0..OBSERVERS {
                for &sender in &senders {
                    let obs = BeaconObservation::plausible(now, PrincipalId(sender), observer);
                    detector.observe_beacon(&obs, &mut got);
                    reference.check(now, sender, &mut want);
                }
            }
            now += STEP;
        }
        assert!(flood > 3_000, "{flood} identities");
        assert_eq!(evidence_bits(&got), evidence_bits(&want), "{config:?}");
        let opened = want.iter().filter(|e| e.strength == 0.5).count();
        let continued = want.iter().filter(|e| e.strength == 0.2).count();
        assert!(opened > 3_000 && continued > 0, "{opened} / {continued}");
    }
}
