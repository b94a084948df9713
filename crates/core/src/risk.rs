//! Risk assessment framework — the paper's open challenge §VI-B.4.
//!
//! > "Various standards are available to perform a risk assessment in
//! > VANET, such as SAE J3061 \[37\] and ISO/SAE 21434 \[38\]. However, how
//! > these standards will be applied within the platoons to perform risk
//! > assessment is an open challenge."
//!
//! This module *answers* that challenge for the attack catalogue: an
//! ISO/SAE 21434-style TARA (threat analysis and risk assessment) with
//! attack-feasibility rating (elapsed time, expertise, knowledge of the
//! target, equipment) and multi-dimensional impact rating (safety,
//! operational, financial, privacy). The feasibility inputs are grounded in
//! *measured* properties of the attack implementations where possible
//! (experiment ids cross-referenced per entry).

use crate::tables::TextTable;

/// Attack-feasibility rating factors (lower total = easier attack), after
/// ISO/SAE 21434 Annex G / the attack-potential method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Feasibility {
    /// Elapsed time to mount the attack: 0 (hours) ..= 3 (months).
    pub elapsed_time: u8,
    /// Required expertise: 0 (layman) ..= 3 (multiple experts).
    pub expertise: u8,
    /// Required knowledge of the target: 0 (public) ..= 3 (critical secrets).
    pub knowledge: u8,
    /// Required equipment: 0 (standard) ..= 3 (bespoke/multiple bespoke).
    pub equipment: u8,
}

impl Feasibility {
    /// Total attack-potential score (0..=12).
    pub fn score(&self) -> u8 {
        self.elapsed_time + self.expertise + self.knowledge + self.equipment
    }

    /// Feasibility class: high (easy), medium, low (hard).
    pub fn class(&self) -> FeasibilityClass {
        match self.score() {
            0..=3 => FeasibilityClass::High,
            4..=7 => FeasibilityClass::Medium,
            _ => FeasibilityClass::Low,
        }
    }
}

/// Feasibility classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeasibilityClass {
    /// Easy to mount (high likelihood).
    High,
    /// Moderate effort.
    Medium,
    /// Hard to mount (low likelihood).
    Low,
}

impl FeasibilityClass {
    fn level(self) -> u8 {
        match self {
            FeasibilityClass::High => 3,
            FeasibilityClass::Medium => 2,
            FeasibilityClass::Low => 1,
        }
    }
}

/// Impact severity per ISO/SAE 21434 damage categories, 0 (negligible) ..=
/// 3 (severe).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Impact {
    /// Safety consequences (collisions, injuries).
    pub safety: u8,
    /// Operational consequences (platoon disband, efficiency loss).
    pub operational: u8,
    /// Financial consequences (fuel, service charges, theft).
    pub financial: u8,
    /// Privacy consequences (tracking, data theft).
    pub privacy: u8,
}

impl Impact {
    /// Overall severity: the maximum across categories (21434 takes the
    /// controlling category).
    pub fn severity(&self) -> u8 {
        self.safety
            .max(self.operational)
            .max(self.financial)
            .max(self.privacy)
    }
}

/// Risk levels from the 21434-style risk matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RiskLevel {
    /// Acceptable without further treatment.
    Low,
    /// Treat when practical.
    Medium,
    /// Requires treatment.
    High,
    /// Requires immediate treatment.
    Critical,
}

/// Combines feasibility and impact through the risk matrix.
pub fn risk_level(feasibility: FeasibilityClass, impact_severity: u8) -> RiskLevel {
    let l = feasibility.level(); // 1..=3
    let s = impact_severity.min(3); // 0..=3
    match l * s {
        0..=1 => RiskLevel::Low,
        2..=3 => RiskLevel::Medium,
        4..=6 => RiskLevel::High,
        _ => RiskLevel::Critical,
    }
}

/// A full TARA entry for one catalogued attack.
#[derive(Clone, Debug, PartialEq)]
pub struct RiskEntry {
    /// Attack machine name (attack-registry key).
    pub attack: &'static str,
    /// Display name.
    pub display_name: &'static str,
    /// Feasibility rating with rationale.
    pub feasibility: Feasibility,
    /// Why the feasibility was rated this way.
    pub feasibility_rationale: &'static str,
    /// Impact rating.
    pub impact: Impact,
    /// Why the impact was rated this way (citing the measuring experiment).
    pub impact_rationale: &'static str,
}

impl RiskEntry {
    /// The resulting risk level.
    pub fn risk(&self) -> RiskLevel {
        risk_level(self.feasibility.class(), self.impact.severity())
    }
}

/// The full TARA over the Table II catalogue.
pub fn assessment() -> Vec<RiskEntry> {
    vec![
        RiskEntry {
            attack: "jamming",
            display_name: "Jamming",
            feasibility: Feasibility {
                elapsed_time: 0,
                expertise: 0,
                knowledge: 0,
                equipment: 1,
            },
            feasibility_rationale: "Only the public channel frequency is needed (§V-B: 'the \
                most straightforward way'); cheap SDR hardware suffices.",
            impact: Impact {
                safety: 1,
                operational: 3,
                financial: 2,
                privacy: 0,
            },
            impact_rationale: "F2: PDR collapses and gaps open to radar-fallback distances; \
                platooning benefit lost, but radar keeps the string collision-free.",
        },
        RiskEntry {
            attack: "replay",
            display_name: "Replay",
            feasibility: Feasibility {
                elapsed_time: 0,
                expertise: 1,
                knowledge: 0,
                equipment: 1,
            },
            feasibility_rationale: "Record-and-retransmit needs no keys; frames remain valid \
                wherever freshness is unchecked (F1 shows PKI alone does not stop it).",
            impact: Impact {
                safety: 2,
                operational: 3,
                financial: 2,
                privacy: 0,
            },
            impact_rationale: "F1: oscillation energy grows by several x; sustained spacing \
                errors >10 m; collision-adjacent minimum gaps under aggressive replays.",
        },
        RiskEntry {
            attack: "sybil",
            display_name: "Sybil",
            feasibility: Feasibility {
                elapsed_time: 1,
                expertise: 1,
                knowledge: 1,
                equipment: 1,
            },
            feasibility_rationale: "One radio fabricates many identities; needs protocol \
                knowledge and, under PKI, stolen credentials per ghost (F3 PKI arm blocks it).",
            impact: Impact {
                safety: 1,
                operational: 3,
                financial: 2,
                privacy: 0,
            },
            impact_rationale: "F3: phantom roster members block legitimate joins and force \
                interior gaps tens of metres wide.",
        },
        RiskEntry {
            attack: "fake-maneuver",
            display_name: "Fake manoeuvre",
            feasibility: Feasibility {
                elapsed_time: 0,
                expertise: 1,
                knowledge: 1,
                equipment: 1,
            },
            feasibility_rationale: "A single forged split/leave/gap message suffices where \
                messages are unauthenticated; message formats are public.",
            impact: Impact {
                safety: 1,
                operational: 3,
                financial: 2,
                privacy: 0,
            },
            impact_rationale: "F5: one forged split fragments the platoon for the rest of the \
                run; forged gaps waste ~30 m of spacing per injection.",
        },
        RiskEntry {
            attack: "dos-join-flood",
            display_name: "Denial of Service",
            feasibility: Feasibility {
                elapsed_time: 0,
                expertise: 0,
                knowledge: 1,
                equipment: 1,
            },
            feasibility_rationale: "§V-D: a single platoon is a small target — 'an attacker \
                does not need as much equipment to carry out such an attack'.",
            impact: Impact {
                safety: 0,
                operational: 2,
                financial: 2,
                privacy: 0,
            },
            impact_rationale: "F4: legitimate joins starved or delayed by >2x; existing \
                members unaffected.",
        },
        RiskEntry {
            attack: "impersonation",
            display_name: "Impersonation",
            feasibility: Feasibility {
                elapsed_time: 1,
                expertise: 1,
                knowledge: 2,
                equipment: 1,
            },
            feasibility_rationale: "Requires a stolen or forged identity (§V-F); under PKI \
                additionally the victim's signing key.",
            impact: Impact {
                safety: 2,
                operational: 2,
                financial: 2,
                privacy: 1,
            },
            impact_rationale: "F8: phantom braking under a stolen identity disturbs the \
                string and destroys the victim's reputation (trust eviction).",
        },
        RiskEntry {
            attack: "eavesdrop",
            display_name: "Eavesdropping",
            feasibility: Feasibility {
                elapsed_time: 0,
                expertise: 0,
                knowledge: 0,
                equipment: 0,
            },
            feasibility_rationale: "Entirely passive reception of an open broadcast channel; \
                CAM-style beacons are authenticated, not encrypted.",
            impact: Impact {
                safety: 0,
                operational: 0,
                financial: 1,
                privacy: 3,
            },
            impact_rationale: "F7: full trajectory reconstruction of any member to GPS-noise \
                accuracy; cargo/route information exposed (§V-E).",
        },
        RiskEntry {
            attack: "sensor-spoof",
            display_name: "Sensor jamming/spoofing",
            feasibility: Feasibility {
                elapsed_time: 1,
                expertise: 2,
                knowledge: 1,
                equipment: 2,
            },
            feasibility_rationale: "Per-sensor physical attacks (laser blinding, GPS \
                overpowering) need proximity and speciality equipment (§V-G).",
            impact: Impact {
                safety: 3,
                operational: 2,
                financial: 1,
                privacy: 0,
            },
            impact_rationale: "F6: a 15 m radar bias drives the victim into its predecessor \
                unless fusion/mitigation intervenes — the highest safety severity measured.",
        },
        RiskEntry {
            attack: "malware",
            display_name: "Malware",
            feasibility: Feasibility {
                elapsed_time: 2,
                expertise: 2,
                knowledge: 2,
                equipment: 1,
            },
            feasibility_rationale: "Requires an initial access vector (OBD, media, wireless \
                stack exploit) and engineering effort (§V-H).",
            impact: Impact {
                safety: 2,
                operational: 3,
                financial: 3,
                privacy: 2,
            },
            impact_rationale: "F9: epidemic spread disables platooning fleet-wide and can \
                stage every other attack ('more malicious attacks are then possible').",
        },
        RiskEntry {
            attack: "insider-fdi",
            display_name: "False data injection (insider)",
            feasibility: Feasibility {
                elapsed_time: 1,
                expertise: 1,
                knowledge: 1,
                equipment: 0,
            },
            feasibility_rationale: "A legitimate member with valid keys simply lies; no \
                cryptographic barrier exists by construction.",
            impact: Impact {
                safety: 2,
                operational: 3,
                financial: 2,
                privacy: 0,
            },
            impact_rationale: "F1: signed lies pass PKI verification and destabilise the \
                string; only behavioural detection (VPD-ADA/trust) responds.",
        },
    ]
}

/// Renders the risk-assessment table (experiment F11).
pub fn render_risk_table() -> TextTable {
    let mut t = TextTable::new(
        "Risk assessment (ISO/SAE 21434-style TARA over the Table II catalogue)",
        &[
            "Attack",
            "Feasibility",
            "Impact (S/O/F/P)",
            "Severity",
            "Risk",
        ],
    );
    let mut entries = assessment();
    entries.sort_by_key(|e| std::cmp::Reverse(e.risk()));
    for e in entries {
        t.row(vec![
            e.display_name.to_string(),
            format!("{:?} (AP {})", e.feasibility.class(), e.feasibility.score()),
            format!(
                "{}/{}/{}/{}",
                e.impact.safety, e.impact.operational, e.impact.financial, e.impact.privacy
            ),
            e.impact.severity().to_string(),
            format!("{:?}", e.risk()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_attacks::registry as attack_registry;

    #[test]
    fn every_catalogued_attack_is_assessed() {
        let assessed: Vec<&str> = assessment().iter().map(|e| e.attack).collect();
        for attack in attack_registry::catalog() {
            assert!(
                assessed.contains(&attack.name),
                "attack {} lacks a risk entry",
                attack.name
            );
        }
        assert_eq!(assessed.len(), attack_registry::catalog().len());
    }

    #[test]
    fn feasibility_classes_partition_scores() {
        for score in 0..=12u8 {
            let f = Feasibility {
                elapsed_time: score.min(3),
                expertise: score.saturating_sub(3).min(3),
                knowledge: score.saturating_sub(6).min(3),
                equipment: score.saturating_sub(9).min(3),
            };
            assert_eq!(f.score(), score);
            let _ = f.class(); // must not panic anywhere in range
        }
    }

    #[test]
    fn risk_matrix_is_monotone() {
        // Higher feasibility never lowers risk at fixed severity, and vice
        // versa.
        let classes = [
            FeasibilityClass::Low,
            FeasibilityClass::Medium,
            FeasibilityClass::High,
        ];
        for s in 0..=3u8 {
            for w in classes.windows(2) {
                assert!(risk_level(w[0], s) <= risk_level(w[1], s));
            }
        }
        for c in classes {
            for s in 0..3u8 {
                assert!(risk_level(c, s) <= risk_level(c, s + 1));
            }
        }
    }

    #[test]
    fn eavesdropping_is_high_feasibility() {
        let e = assessment()
            .into_iter()
            .find(|e| e.attack == "eavesdrop")
            .unwrap();
        assert_eq!(e.feasibility.class(), FeasibilityClass::High);
        assert_eq!(e.impact.privacy, 3);
    }

    #[test]
    fn sensor_spoofing_has_top_safety_severity() {
        let e = assessment()
            .into_iter()
            .find(|e| e.attack == "sensor-spoof")
            .unwrap();
        assert_eq!(e.impact.safety, 3);
    }

    #[test]
    fn render_sorts_by_risk_descending() {
        let t = render_risk_table();
        assert_eq!(t.len(), assessment().len());
        // The Risk column (last cell) must be non-increasing.
        let order = |cell: &str| match cell {
            "Critical" => 3,
            "High" => 2,
            "Medium" => 1,
            _ => 0,
        };
        let risks: Vec<i32> = t.rows.iter().map(|r| order(r.last().unwrap())).collect();
        assert!(
            risks.windows(2).all(|w| w[0] >= w[1]),
            "risk column must be sorted descending: {risks:?}"
        );
    }

    #[test]
    fn corner_risk_levels() {
        assert_eq!(risk_level(FeasibilityClass::Low, 0), RiskLevel::Low);
        assert_eq!(risk_level(FeasibilityClass::High, 3), RiskLevel::Critical);
        assert_eq!(risk_level(FeasibilityClass::Medium, 2), RiskLevel::High);
    }
}
