//! Experiment F7c — location privacy and pseudonym changes (§III, §VI-B.2).
//!
//! > "The information can be used to track vehicles, goods, and vehicles'
//! > drivers ... Various mechanisms exist to address privacy attacks,
//! > including pseudonymous authentications \[25\] ... and random pseudonym
//! > updates \[27\]."
//!
//! The experiment quantifies what pseudonym changes actually buy against a
//! trajectory-linking tracker. Vehicles stream beacons (pseudonymous id +
//! GPS-noised position); the tracker links a disappearing pseudonym to the
//! appearing one whose position best continues the trajectory. Two change
//! disciplines are compared:
//!
//! * **staggered** — each vehicle changes on its own schedule (naive
//!   periodic changes);
//! * **synchronised** — all vehicles in radio range change in the same
//!   beacon interval (the cooperative / mix-zone discipline of Pan & Li
//!   \[27\], modelled by [`ChangePolicy::NeighborTriggered`]).
//!
//! Expected shape: staggered changes are linked almost perfectly at any
//! density (the lone changer is trivially re-identified); synchronised
//! changes degrade the tracker as density grows, because the mix zone
//! offers many equally-plausible continuations.

use super::{Figure, Series};
use platoon_crypto::pseudonym::ChangePolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When pseudonym changes happen relative to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeDiscipline {
    /// Each vehicle changes on its own staggered schedule.
    Staggered,
    /// All vehicles change within the same beacon interval (mix zone).
    Synchronised,
}

/// Result of one tracking run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackingOutcome {
    /// Pseudonym-change events the tracker had to bridge.
    pub change_events: usize,
    /// Fraction of changes correctly linked to the right vehicle.
    pub linkage_accuracy: f64,
}

/// Simulates `n_vehicles` driving in loose traffic for `duration` seconds
/// with the given change discipline, and runs the linking tracker.
pub fn run_tracking(
    n_vehicles: usize,
    discipline: ChangeDiscipline,
    duration: f64,
    seed: u64,
) -> TrackingOutcome {
    assert!(n_vehicles >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let dt = 0.1;
    let gps_noise = 1.5;
    let change_period = 20.0;

    // Vehicles share a fixed radio-range road segment, so density compresses
    // the spacing — the geometric condition for a mix zone to work.
    let segment = 240.0;
    let spacing = segment / n_vehicles as f64;
    let mut positions: Vec<f64> = (0..n_vehicles)
        .map(|i| i as f64 * spacing + rng.gen_range(-2.0..2.0))
        .collect();
    let speeds: Vec<f64> = (0..n_vehicles)
        .map(|_| 25.0 + rng.gen_range(-1.0..1.0))
        .collect();
    let mut pseudonyms: Vec<u64> = (0..n_vehicles as u64).map(|i| 10_000 + i).collect();
    let mut next_pseudonym = 50_000u64;
    // Per-vehicle next change time (staggered) or shared epoch (synchronised).
    let mut change_at: Vec<f64> = match discipline {
        ChangeDiscipline::Staggered => (0..n_vehicles)
            .map(|i| change_period * (0.5 + i as f64 / n_vehicles as f64))
            .collect(),
        ChangeDiscipline::Synchronised => vec![change_period; n_vehicles],
    };

    // Tracker state: per tracked pseudonym, the last observed position.
    let mut tracks: Vec<(u64, f64)> = pseudonyms
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, positions[i]))
        .collect();

    let mut change_events = 0usize;
    let mut correct_links = 0usize;
    let mut t = 0.0;
    while t < duration {
        t += dt;
        for p in positions.iter_mut().zip(&speeds) {
            *p.0 += p.1 * dt;
        }

        // Collect this step's changes (old id, new id, vehicle).
        let mut changes: Vec<(u64, u64, usize)> = Vec::new();
        for v in 0..n_vehicles {
            if t >= change_at[v] {
                let old = pseudonyms[v];
                pseudonyms[v] = next_pseudonym;
                next_pseudonym += 1;
                change_at[v] += change_period;
                changes.push((old, pseudonyms[v], v));
            }
        }

        // Tracker observes all beacons this step.
        let observations: Vec<(u64, f64)> = (0..n_vehicles)
            .map(|v| (pseudonyms[v], positions[v] + gps_noise * gauss(&mut rng)))
            .collect();

        if !changes.is_empty() {
            // Identify vanished tracks and new ids, link greedily by
            // predicted-position proximity. A link is scored correct when
            // the matched old pseudonym and the new one belong to the same
            // physical vehicle (instantaneous re-identification).
            let new_ids: Vec<(u64, f64)> = observations
                .iter()
                .filter(|(id, _)| !tracks.iter().any(|(tid, _)| tid == id))
                .copied()
                .collect();
            let mut vanished: Vec<(u64, f64)> = tracks
                .iter()
                .filter(|(tid, _)| !observations.iter().any(|(id, _)| id == tid))
                .copied()
                .collect();
            for (new_id, new_pos) in &new_ids {
                if vanished.is_empty() {
                    break;
                }
                // Dead-reckon each vanished track one step forward and pick
                // the closest.
                let (best_idx, _) = vanished
                    .iter()
                    .enumerate()
                    .map(|(i, (_, pos))| (i, (pos + 25.0 * dt - new_pos).abs()))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty");
                let (matched_old_id, _) = vanished.remove(best_idx);
                change_events += 1;
                let new_owner = changes
                    .iter()
                    .find(|(_, nid, _)| nid == new_id)
                    .map(|c| c.2);
                let old_owner = changes
                    .iter()
                    .find(|(oid, _, _)| *oid == matched_old_id)
                    .map(|c| c.2);
                if new_owner.is_some() && new_owner == old_owner {
                    correct_links += 1;
                }
            }
            // Reset the tracker's id set to what is currently observed.
            tracks.retain(|(tid, _)| observations.iter().any(|(id, _)| id == tid));
            for (id, pos) in &observations {
                if !tracks.iter().any(|(tid, _)| tid == id) {
                    tracks.push((*id, *pos));
                }
            }
        }
        // Update tracked positions.
        for track in tracks.iter_mut() {
            if let Some((_, pos)) = observations.iter().find(|(id, _)| *id == track.0) {
                track.1 = *pos;
            }
        }
    }

    TrackingOutcome {
        change_events,
        linkage_accuracy: if change_events == 0 {
            1.0
        } else {
            correct_links as f64 / change_events as f64
        },
    }
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// F7c — tracker linkage accuracy vs traffic density for the two change
/// disciplines.
pub fn fig_pseudonym_privacy(quick: bool) -> Figure {
    let densities: Vec<usize> = if quick {
        vec![2, 6, 12]
    } else {
        vec![2, 4, 6, 8, 12, 16, 24]
    };
    let duration = if quick { 120.0 } else { 300.0 };
    let mut staggered = Vec::new();
    let mut synchronised = Vec::new();
    for &n in &densities {
        let s = run_tracking(n, ChangeDiscipline::Staggered, duration, 7);
        staggered.push((n as f64, s.linkage_accuracy));
        let y = run_tracking(n, ChangeDiscipline::Synchronised, duration, 7);
        synchronised.push((n as f64, y.linkage_accuracy));
    }
    Figure {
        id: "F7c".into(),
        title: "Pseudonym changes vs a trajectory-linking tracker".into(),
        x_label: "vehicles in radio range".into(),
        y_label: "tracker linkage accuracy".into(),
        series: vec![
            Series {
                name: "staggered changes".into(),
                points: staggered,
            },
            Series {
                name: "synchronised changes (mix zone)".into(),
                points: synchronised,
            },
        ],
        expected_shape: "staggered changes are linked near-perfectly at every density; \
                         synchronised changes degrade the tracker as density grows (Pan & \
                         Li's cooperative-change argument [27])"
            .into(),
    }
}

/// The change policy this experiment motivates, for documentation parity
/// with `platoon_crypto::pseudonym`.
pub fn recommended_policy() -> ChangePolicy {
    ChangePolicy::NeighborTriggered {
        min_neighbors: 3,
        min_interval: 20.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_changes_are_trivially_linkable() {
        let out = run_tracking(6, ChangeDiscipline::Staggered, 120.0, 1);
        assert!(out.change_events >= 20, "events: {}", out.change_events);
        assert!(
            out.linkage_accuracy > 0.9,
            "a lone changer is re-identified: {}",
            out.linkage_accuracy
        );
    }

    #[test]
    fn synchronised_changes_confuse_the_tracker_at_density() {
        let sparse = run_tracking(2, ChangeDiscipline::Synchronised, 120.0, 1);
        let dense = run_tracking(16, ChangeDiscipline::Synchronised, 120.0, 1);
        assert!(
            dense.linkage_accuracy < sparse.linkage_accuracy,
            "density must hurt the tracker: dense {} vs sparse {}",
            dense.linkage_accuracy,
            sparse.linkage_accuracy
        );
        assert!(
            dense.linkage_accuracy < 0.8,
            "a 16-vehicle mix zone should defeat many links: {}",
            dense.linkage_accuracy
        );
    }

    #[test]
    fn figure_has_both_series() {
        let fig = fig_pseudonym_privacy(true);
        assert!(fig.series_named("staggered changes").is_some());
        assert!(fig
            .series_named("synchronised changes (mix zone)")
            .is_some());
        for s in &fig.series {
            for (_, acc) in &s.points {
                assert!((0.0..=1.0).contains(acc));
            }
        }
    }

    #[test]
    fn single_vehicle_degenerate() {
        let out = run_tracking(1, ChangeDiscipline::Synchronised, 60.0, 2);
        // A single vehicle is always linkable.
        assert!(out.linkage_accuracy > 0.99);
    }
}
