//! Weighted evidence fusion with hysteresis.
//!
//! Fusion keeps one decaying suspicion score per target. Each piece of
//! [`Evidence`] adds `weight(detector) ×
//! strength`; scores decay exponentially between contributions. When a
//! score crosses the raise threshold an [`Alert`] fires, and the target
//! stays flagged — no re-alerting — until its score decays back below the
//! clear threshold (hysteresis).
//!
//! Tracks live in a vector in first-seen order and alerts are raised at
//! ingest time, so the alert stream is a pure function of the evidence
//! stream — no hash-map iteration anywhere. A hash index finds a target's
//! track, so a join flood's thousands of identities cost one lookup per
//! piece of evidence, not a scan.

use crate::detector::Evidence;
use platoon_crypto::cert::PrincipalId;
use platoon_v2x::hash::FxHashMap;

/// Who an alert or a piece of evidence implicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertTarget {
    /// A specific claimed sender identity.
    Sender(PrincipalId),
    /// The channel itself (jamming / flooding with no attributable sender).
    Channel,
}

/// A raised verdict: the fused score crossed the raise threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// When the triggering evidence was observed, seconds.
    pub time: f64,
    /// Who is implicated.
    pub target: AlertTarget,
    /// The fused score at raise time.
    pub score: f64,
    /// Per-detector accumulated (weighted, decayed) contributions at raise
    /// time, in first-contribution order.
    pub contributors: Vec<(&'static str, f64)>,
}

/// Fusion tuning: detector weights plus the hysteresis thresholds.
#[derive(Clone, Debug)]
pub struct FusionConfig {
    /// Per-detector weights; detectors not listed weigh 1.0.
    pub weights: Vec<(&'static str, f64)>,
    /// Score at which an unflagged target raises an alert.
    pub raise_threshold: f64,
    /// Score below which a flagged target re-arms.
    pub clear_threshold: f64,
    /// Exponential-decay half-life of suspicion, seconds.
    pub half_life: f64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            weights: Vec::new(),
            raise_threshold: 1.0,
            clear_threshold: 0.3,
            half_life: 3.0,
        }
    }
}

impl FusionConfig {
    fn weight(&self, detector: &str) -> f64 {
        self.weights
            .iter()
            .find(|(name, _)| *name == detector)
            .map(|(_, w)| *w)
            .unwrap_or(1.0)
    }
}

#[derive(Clone, Debug)]
struct Track {
    target: AlertTarget,
    score: f64,
    last_update: f64,
    flagged: bool,
    contributors: Vec<(&'static str, f64)>,
}

/// The last decay factor computed, with the bits of its `dt`: within one
/// [`Fusion::tick`] most tracks were last updated at the same time, so
/// most share one factor.
#[derive(Default)]
struct LastFactor(Option<(u64, f64)>);

impl LastFactor {
    fn get(&mut self, dt: f64, half_life: f64) -> f64 {
        match self.0 {
            Some((bits, factor)) if bits == dt.to_bits() => factor,
            _ => {
                let factor = 0.5f64.powf(dt / half_life);
                self.0 = Some((dt.to_bits(), factor));
                factor
            }
        }
    }
}

/// The fusion engine: per-target decaying scores with hysteresis.
#[derive(Clone, Debug)]
pub struct Fusion {
    config: FusionConfig,
    /// In first-seen order.
    tracks: Vec<Track>,
    /// Each target's position in `tracks`, for lookups only.
    index: FxHashMap<AlertTarget, usize>,
}

impl Fusion {
    /// Creates a fusion engine with the given tuning.
    pub fn new(config: FusionConfig) -> Self {
        Fusion {
            config,
            tracks: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    fn decay(config: &FusionConfig, track: &mut Track, now: f64, factors: &mut LastFactor) {
        let dt = now - track.last_update;
        if dt > 0.0 && config.half_life > 0.0 {
            let factor = factors.get(dt, config.half_life);
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

    /// Feeds one piece of evidence; returns an alert if the target's score
    /// just crossed the raise threshold.
    pub fn ingest(&mut self, evidence: &Evidence) -> Option<Alert> {
        let config = &self.config;
        let tracks = &mut self.tracks;
        let idx = *self.index.entry(evidence.target).or_insert_with(|| {
            tracks.push(Track {
                target: evidence.target,
                score: 0.0,
                last_update: evidence.time,
                flagged: false,
                contributors: Vec::new(),
            });
            tracks.len() - 1
        });
        let track = &mut self.tracks[idx];
        Self::decay(config, track, evidence.time, &mut LastFactor::default());
        let add = config.weight(evidence.detector) * evidence.strength;
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

    /// Advances time: decays all tracks and re-arms any that cleared.
    pub fn tick(&mut self, now: f64) {
        let mut factors = LastFactor::default();
        for track in &mut self.tracks {
            Self::decay(&self.config, track, now, &mut factors);
        }
    }

    fn track(&self, target: AlertTarget) -> Option<&Track> {
        self.index.get(&target).map(|&idx| &self.tracks[idx])
    }

    /// Current fused score for a target (0.0 if never seen).
    pub fn score(&self, target: AlertTarget) -> f64 {
        self.track(target).map_or(0.0, |t| t.score)
    }

    /// Whether a target is currently flagged (alerted, not yet cleared).
    pub fn is_flagged(&self, target: AlertTarget) -> bool {
        self.track(target).is_some_and(|t| t.flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, id: u64, strength: f64) -> Evidence {
        Evidence {
            time,
            target: AlertTarget::Sender(PrincipalId(id)),
            detector: "kinematic",
            strength,
        }
    }

    #[test]
    fn raises_once_then_holds_until_cleared() {
        let mut fusion = Fusion::new(FusionConfig::default());
        assert!(fusion.ingest(&ev(0.0, 9, 0.6)).is_none());
        let alert = fusion.ingest(&ev(0.1, 9, 0.6)).expect("crosses threshold");
        assert_eq!(alert.target, AlertTarget::Sender(PrincipalId(9)));
        assert!(alert.score >= 1.0);
        // Still hot: more evidence does not re-alert.
        assert!(fusion.ingest(&ev(0.2, 9, 0.9)).is_none());
        assert!(fusion.is_flagged(AlertTarget::Sender(PrincipalId(9))));
        // After a long quiet spell the track clears and can re-raise.
        fusion.tick(60.0);
        assert!(!fusion.is_flagged(AlertTarget::Sender(PrincipalId(9))));
        assert!(fusion.ingest(&ev(60.1, 9, 1.0)).is_some());
    }

    #[test]
    fn scores_decay_between_contributions() {
        let mut fusion = Fusion::new(FusionConfig::default());
        fusion.ingest(&ev(0.0, 4, 0.9));
        // One half-life later the 0.9 has decayed to 0.45; adding 0.5 stays
        // under the raise threshold.
        assert!(fusion.ingest(&ev(3.0, 4, 0.5)).is_none());
        assert!(fusion.score(AlertTarget::Sender(PrincipalId(4))) < 1.0);
    }

    #[test]
    fn weights_scale_contributions() {
        let config = FusionConfig {
            weights: vec![("kinematic", 2.0)],
            ..Default::default()
        };
        let mut fusion = Fusion::new(config);
        let alert = fusion.ingest(&ev(0.0, 2, 0.5)).expect("weighted to 1.0");
        assert_eq!(alert.contributors, vec![("kinematic", 1.0)]);
    }

    #[test]
    fn channel_and_sender_tracks_are_independent() {
        let mut fusion = Fusion::new(FusionConfig::default());
        fusion.ingest(&Evidence {
            time: 0.0,
            target: AlertTarget::Channel,
            detector: "frequency",
            strength: 0.9,
        });
        assert_eq!(fusion.score(AlertTarget::Sender(PrincipalId(1))), 0.0);
        assert!(fusion.score(AlertTarget::Channel) > 0.0);
    }
}
