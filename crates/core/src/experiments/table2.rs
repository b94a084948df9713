//! Experiment T2: Table II backed by measurements.
//!
//! The paper's Table II asserts, per attack, which security attribute is
//! compromised and what happens to the platoon. This experiment runs every
//! catalogued attack against the canonical platoon and reports the measured
//! impact next to a clean baseline — turning the table's prose claims into
//! numbers.

use super::common::{
    arm_outcome, build_arm, impact_of, impact_unit, ArmOutcome, Effort, EXPERIMENT_BASE_SEED,
};
use crate::tables::{num, TextTable};
use platoon_sim::harness::{json, Batch};

/// Measured result for one Table II row.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// Attack machine name.
    pub attack: String,
    /// Display name (paper row).
    pub display_name: String,
    /// Compromised attribute.
    pub attribute: String,
    /// Impact metric name.
    pub metric: &'static str,
    /// Impact with the attack active.
    pub attacked: f64,
    /// Impact of the clean baseline (same metric).
    pub baseline: f64,
}

/// Runs the full Table II measurement.
///
/// Every (attacked, baseline) arm is an independent job on the experiment
/// harness, pinned to the canonical [`EXPERIMENT_BASE_SEED`] so the table
/// keeps the published numbers and stays identical for any worker count.
/// The undefended-arm labels match Table III's, which keeps the two tables'
/// shared measurements consistent.
pub fn run(quick: bool) -> Vec<Table2Row> {
    let effort = Effort::new(quick);
    let catalog = platoon_attacks::registry::catalog();
    let mut batch: Batch<ArmOutcome> = Batch::new(EXPERIMENT_BASE_SEED);
    for desc in &catalog {
        // The sensor row covers both radar spoofing and GPS spoofing; run
        // the radar variant here (the GPS variant is F6's subject).
        let attack = desc.name;
        batch.push_with_seed(
            format!("{attack}/undefended"),
            EXPERIMENT_BASE_SEED,
            move |seed| arm_outcome(attack, None, effort, seed),
        );
        // Baseline: same scenario, no attack (except the DoS baseline which
        // keeps the legitimate joiner so the metric is comparable).
        batch.push_with_seed(
            format!("{attack}/baseline"),
            EXPERIMENT_BASE_SEED,
            move |seed| baseline_outcome(attack, effort, seed),
        );
    }
    let entries = batch.run(platoon_sim::harness::default_workers());

    catalog
        .iter()
        .zip(entries.chunks(2))
        .map(|(desc, pair)| Table2Row {
            attack: desc.name.to_string(),
            display_name: desc.display_name.to_string(),
            attribute: desc.attribute.to_string(),
            metric: impact_unit(desc.name),
            attacked: pair[0].value.impact,
            baseline: pair[1].value.impact,
        })
        .collect()
}

/// The clean-baseline arm paired with an attack row: same scenario and
/// workload, no attack (except the DoS baseline, which keeps the legitimate
/// joiner so the latency metric stays comparable). Public so the job
/// service can execute Table II cells by name.
pub fn baseline_outcome(attack: &str, effort: Effort, seed: u64) -> ArmOutcome {
    let label = format!("{attack}/baseline");
    let mut engine = build_arm(&label, attack, None, None, effort, seed);
    let summary = engine.run();
    // The baseline for confidentiality is "the eavesdropper exists but the
    // platoon encrypts": measured in F7; here the clean baseline is simply
    // zero beacons read (no listener).
    let impact = if attack == "eavesdrop" {
        0.0
    } else {
        impact_of(attack, &engine, &summary)
    };
    ArmOutcome { summary, impact }
}

/// Canonical JSON rendering of the measured rows — the golden-snapshot
/// document for the Table II attack-effect runs.
pub fn to_canonical_json(rows: &[Table2Row]) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_u64("base_seed", EXPERIMENT_BASE_SEED);
        w.field_arr("rows", |w| {
            for r in rows {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("attack", &r.attack);
                        w.field_str("attribute", &r.attribute);
                        w.field_str("metric", r.metric);
                        w.field_f64("baseline", r.baseline);
                        w.field_f64("attacked", r.attacked);
                    })
                });
            }
        });
    });
    w.finish()
}

/// Renders the measured Table II.
pub fn render(rows: &[Table2Row]) -> TextTable {
    let mut t = TextTable::new(
        "Table II (measured) — attacks on platoons, attribute compromised, measured impact",
        &[
            "Attack",
            "Attribute",
            "Impact metric",
            "Baseline",
            "Attacked",
            "Ratio",
        ],
    );
    for r in rows {
        let ratio = if r.baseline.abs() > 1e-9 {
            num(r.attacked / r.baseline, 1)
        } else if r.attacked.abs() < 1e-9 {
            "1.0".to_string()
        } else {
            "inf".to_string()
        };
        t.row(vec![
            r.display_name.clone(),
            r.attribute.clone(),
            r.metric.to_string(),
            num(r.baseline, 2),
            num(r.attacked, 2),
            ratio,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_attack_shows_measured_impact_above_baseline() {
        let rows = run(true);
        assert_eq!(rows.len(), platoon_attacks::registry::catalog().len());
        for r in &rows {
            assert!(
                r.attacked > r.baseline,
                "{} must measurably hurt: attacked {} vs baseline {}",
                r.attack,
                r.attacked,
                r.baseline
            );
        }
        let rendered = render(&rows).render();
        assert!(rendered.contains("Sybil"));
        assert!(rendered.contains("Jamming"));
    }

    #[test]
    fn quick_table_matches_golden() {
        use platoon_sim::harness::golden::{self, Tolerance};
        let rows = run(true);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/table2_quick.json");
        golden::assert_matches(&path, &to_canonical_json(&rows), Tolerance::snapshot());
    }
}
