//! Experiment T3: Table III backed by measurements.
//!
//! For every (mechanism, attack) pair the paper's Table III claims the
//! mechanism mitigates, run the attack with and without the mechanism and
//! report the **mitigation factor** — defended impact divided by undefended
//! impact (lower is better; 1.0 = no effect).

use super::common::{arm_outcome, ArmOutcome, Effort, EXPERIMENT_BASE_SEED};
use crate::tables::{num, TextTable};
use platoon_sim::harness::Batch;
use std::collections::HashMap;

/// Measured result for one (mechanism, attack) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Table3Cell {
    /// Mechanism machine name.
    pub mechanism: String,
    /// Attack machine name.
    pub attack: String,
    /// Undefended impact.
    pub undefended: f64,
    /// Defended impact.
    pub defended: f64,
}

impl Table3Cell {
    /// Defended ÷ undefended impact (0 = fully mitigated, 1 = no effect).
    pub fn mitigation_factor(&self) -> f64 {
        if self.undefended.abs() < 1e-9 {
            return if self.defended.abs() < 1e-9 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        self.defended / self.undefended
    }
}

/// The flattened Table III claim matrix: every `(mechanism, attack,
/// variant)` triple the experiment measures, in row order. `variant` is the
/// mechanism actually instantiated (`mechanism_variant`). Public so the
/// job service can enumerate the grid without re-deriving the claim logic.
pub fn pairs() -> Vec<(String, String, String)> {
    let mut pairs = Vec::new();
    for mech in platoon_defense::registry::catalog() {
        for attack in mech.mitigates {
            pairs.push((
                mech.name.to_string(),
                attack.to_string(),
                mechanism_variant(mech.name, attack),
            ));
        }
        // The "keys" row also claims eavesdropping protection (encryption).
        if mech.name == "keys" && !mech.mitigates.contains(&"eavesdrop") {
            pairs.push((
                "keys".to_string(),
                "eavesdrop".to_string(),
                "keys-encrypted".to_string(),
            ));
        }
    }
    pairs
}

/// The distinct attacks of [`pairs`], in first-appearance order — each
/// contributes exactly one undefended arm to the batch.
pub fn distinct_attacks() -> Vec<String> {
    let mut attacks: Vec<String> = Vec::new();
    for (_, attack, _) in pairs() {
        if !attacks.contains(&attack) {
            attacks.push(attack);
        }
    }
    attacks
}

/// Mechanism override for specific pairs where the generic mapping needs a
/// variant (e.g. confidentiality requires the encrypting key mode).
fn mechanism_variant(mechanism: &str, attack: &str) -> String {
    match (mechanism, attack) {
        ("keys", "eavesdrop") => "keys-encrypted".to_string(),
        // Control algorithms split into detection (VPD-ADA [10]) and
        // resilience ([7]); replay and insider FDI are the resilience cases
        // (their forged streams carry honest identities, so eviction-style
        // detection would trade the attack for radar fallback).
        ("control-algorithms", "replay") | ("control-algorithms", "insider-fdi") => {
            "control-mitigation".to_string()
        }
        _ => mechanism.to_string(),
    }
}

/// Runs the full Table III matrix.
///
/// The (mechanism, attack) pair list is flattened into one harness batch:
/// every *distinct* attack contributes a single undefended arm (the serial
/// driver re-ran it once per mechanism — deduplicating removes ~40% of the
/// runs) and every pair contributes one defended arm. Every arm pins the
/// canonical [`EXPERIMENT_BASE_SEED`], so the matrix keeps the published
/// numbers, is identical for any worker count, and the undefended labels
/// match Table II's for cross-table consistency.
pub fn run(quick: bool) -> Vec<Table3Cell> {
    let effort = Effort::new(quick);

    // Flatten the claim matrix first, so the batch can be built in one pass.
    let pairs = pairs();
    let attacks = distinct_attacks();

    let mut batch: Batch<ArmOutcome> = Batch::new(EXPERIMENT_BASE_SEED);
    for attack in &attacks {
        let attack = attack.clone();
        batch.push_with_seed(
            format!("{attack}/undefended"),
            EXPERIMENT_BASE_SEED,
            move |seed| arm_outcome(&attack, None, effort, seed),
        );
    }
    for (_, attack, variant) in &pairs {
        let (attack, variant) = (attack.clone(), variant.clone());
        batch.push_with_seed(
            format!("{attack}/{variant}"),
            EXPERIMENT_BASE_SEED,
            move |seed| arm_outcome(&attack, Some(&variant), effort, seed),
        );
    }
    let entries = batch.run(platoon_sim::harness::default_workers());

    let undefended: HashMap<&str, f64> = attacks
        .iter()
        .zip(&entries)
        .map(|(attack, entry)| (attack.as_str(), entry.value.impact))
        .collect();
    pairs
        .iter()
        .zip(&entries[attacks.len()..])
        .map(|((mech, attack, _), defended)| Table3Cell {
            mechanism: mech.to_string(),
            attack: attack.to_string(),
            undefended: undefended[attack.as_str()],
            defended: defended.value.impact,
        })
        .collect()
}

/// Renders the measured Table III.
pub fn render(cells: &[Table3Cell]) -> TextTable {
    let mut t = TextTable::new(
        "Table III (measured) — mechanism × attack mitigation factors (defended/undefended; lower is better)",
        &["Mechanism", "Attack", "Undefended", "Defended", "Mitigation factor"],
    );
    for c in cells {
        t.row(vec![
            c.mechanism.clone(),
            c.attack.clone(),
            num(c.undefended, 2),
            num(c.defended, 2),
            num(c.mitigation_factor(), 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pairs for which the mechanism is expected to be strongly effective
    /// (mitigation factor well below 1). Some claimed pairs in the paper are
    /// weaker (e.g. PKI vs replay without freshness would be 1.0 — our
    /// "keys" arm includes anti-replay, so it is strong).
    const STRONG_PAIRS: &[(&str, &str)] = &[
        ("keys", "replay"),
        ("keys", "sybil"),
        ("keys", "fake-maneuver"),
        ("keys", "impersonation"),
        ("keys", "eavesdrop"),
        ("keys", "dos-join-flood"),
        ("rsu-gatekeeper", "dos-join-flood"),
        ("rsu-gatekeeper", "sybil"),
        // NOT listed: (rsu-gatekeeper, impersonation). The RSU behaviour
        // monitor *detects* the impersonated stream (see the defense tests)
        // but inline mitigation is impossible without knowing which frame
        // is genuine — the remedy is TA revocation, i.e. the "keys" row.
        // The matrix reports its honest ≈1.0 factor.
        ("control-algorithms", "replay"),
        ("hybrid-sp-vlc", "jamming"),
        ("hybrid-sp-vlc", "fake-maneuver"),
        ("onboard-hardening", "malware"),
    ];

    #[test]
    fn strong_pairs_mitigate_substantially() {
        let cells = run(true);
        for (mech, attack) in STRONG_PAIRS {
            let cell = cells
                .iter()
                .find(|c| c.mechanism == *mech && c.attack == *attack)
                .unwrap_or_else(|| panic!("missing cell {mech}×{attack}"));
            assert!(
                cell.mitigation_factor() < 0.6,
                "{mech} vs {attack}: factor {} (u {}, d {})",
                cell.mitigation_factor(),
                cell.undefended,
                cell.defended
            );
        }
    }

    #[test]
    fn matrix_covers_every_claimed_pair() {
        let cells = run(true);
        for mech in platoon_defense::registry::catalog() {
            for attack in mech.mitigates {
                assert!(
                    cells
                        .iter()
                        .any(|c| c.mechanism == mech.name && c.attack == *attack),
                    "missing {0}×{attack}",
                    mech.name
                );
            }
        }
        let rendered = render(&cells).render();
        assert!(rendered.contains("Mitigation factor"));
    }
}
