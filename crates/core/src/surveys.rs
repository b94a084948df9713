//! Table I of the paper as data: the related surveys addressing
//! cybersecurity aspects of CAV, VANETs and platoons, with the attacks each
//! one discusses.
//!
//! This registry is what lets the repository *regenerate* Table I (and the
//! attack-coverage matrix implied by it) instead of merely citing it.

use crate::tables::TextTable;

/// One row of Table I: a prior survey and its coverage.
#[derive(Clone, Debug, PartialEq)]
pub struct SurveyEntry {
    /// Citation key, e.g. `"Isaac et al., 2010 \[18\]"`.
    pub citation: &'static str,
    /// Publication year.
    pub year: u32,
    /// The paper's summary of the survey's key points and ideas.
    pub key_points: &'static str,
    /// Attacks discussed, normalised to short labels.
    pub attacks_discussed: &'static [&'static str],
    /// Whether the survey addresses platoons specifically (the gap the
    /// reproduced paper fills: most do not).
    pub covers_platoons: bool,
}

/// The Table I survey registry, in the paper's row order.
pub fn catalog() -> Vec<SurveyEntry> {
    vec![
        SurveyEntry {
            citation: "Isaac et al., 2010 [18]",
            year: 2010,
            key_points: "Detailed discussion of attacks; structures attacks and mechanisms \
                         using a cryptography-related classification: anonymity, key \
                         management, privacy, reputation and location.",
            attacks_discussed: &[
                "brute force",
                "misbehaving & malicious vehicles",
                "traffic analysis",
                "illusion",
                "position forging",
                "sybil",
            ],
            covers_platoons: false,
        },
        SurveyEntry {
            citation: "Checkoway et al., 2011 [21]",
            year: 2011,
            key_points: "Investigation of vehicle attack surfaces, classified by the range \
                         the attacker needs: indirect physical access, short-range wireless, \
                         long-range wireless.",
            attacks_discussed: &[
                "CD-based malware",
                "bluetooth",
                "remote keyless entry",
                "infrared ID",
                "cellular",
                "TPMS",
            ],
            covers_platoons: false,
        },
        SurveyEntry {
            citation: "AL-Kahtani et al., 2012 [12]",
            year: 2012,
            key_points: "Describes a variety of attacks with detailed explanations of how \
                         they compromise networks; attacks mapped to the security \
                         requirement broken (integrity, authentication, availability, \
                         confidentiality).",
            attacks_discussed: &[
                "bogus information",
                "dos",
                "masquerading",
                "blackhole",
                "malware",
                "spamming",
                "timing",
                "gps spoofing",
                "man-in-the-middle",
                "sybil",
                "wormhole",
                "illusion",
                "impersonation",
            ],
            covers_platoons: false,
        },
        SurveyEntry {
            citation: "Mejri et al., 2014 [22]",
            year: 2014,
            key_points: "Outline of privacy and security challenges facing VANETs; attacks \
                         grouped by broken attribute: availability, authenticity & \
                         identification, confidentiality, integrity & data trust, \
                         non-repudiation/accountability.",
            attacks_discussed: &[
                "dos",
                "jamming",
                "greedy behaviour",
                "malware",
                "broadcast tampering",
                "blackhole",
                "spamming",
                "eavesdrop",
                "sybil",
                "gps spoofing",
                "masquerade",
                "replay",
                "tunneling",
                "key/certificate replication",
                "position faking",
                "message alteration",
                "information gathering",
                "traffic analysis",
                "loss of event traceability",
            ],
            covers_platoons: false,
        },
        SurveyEntry {
            citation: "Parkinson et al., 2017 [13]",
            year: 2017,
            key_points: "Considers a wide range of threats to CAVs and platoons; structured \
                         around threats to vehicles, human aspects and infrastructure.",
            attacks_discussed: &[
                "sensor spoofing",
                "jamming",
                "dos",
                "malware",
                "FDI on CAN",
                "TPMS",
                "information theft",
                "location tracking",
                "bad driver",
                "communication jamming",
                "password & key attacks",
                "phishing",
                "rogue updates",
            ],
            covers_platoons: true,
        },
        SurveyEntry {
            citation: "Zhaojun et al., 2018 [11]",
            year: 2018,
            key_points: "In-depth discussion of VANET security and privacy including attacks \
                         and mechanisms, grouped by broken attribute: availability, \
                         authenticity, confidentiality, integrity, non-repudiation.",
            attacks_discussed: &[
                "dos",
                "jamming",
                "malware",
                "broadcast tampering",
                "blackhole/greyhole",
                "greedy behaviour",
                "spamming",
                "eavesdrop",
                "traffic analysis",
                "sybil",
                "tunneling",
                "gps spoofing",
                "freeriding",
                "message falsification",
                "masquerade",
                "replay",
                "repudiation",
            ],
            covers_platoons: false,
        },
        SurveyEntry {
            citation: "Harkness et al., 2020 [19]",
            year: 2020,
            key_points: "Investigation of ITS security with recommendations for securing \
                         test-beds based on in-depth risk analysis.",
            attacks_discussed: &[
                "sensor spoofing",
                "jamming",
                "information theft",
                "eavesdropping",
                "malware",
            ],
            covers_platoons: false,
        },
        SurveyEntry {
            citation: "Hussain et al., 2020 [20]",
            year: 2020,
            key_points: "VANET trust management: identifies up-to-date open research \
                         questions; discusses REPLACE [6], a trust-based platoon service \
                         recommendation scheme.",
            attacks_discussed: &[],
            covers_platoons: true,
        },
    ]
}

/// Renders Table I.
pub fn render_table1() -> TextTable {
    let mut t = TextTable::new(
        "Table I — Related surveys addressing cybersecurity of CAV, VANETs and platoons",
        &["Survey", "Year", "Platoons?", "# attacks", "Key points"],
    );
    for s in catalog() {
        let mut key = s.key_points.to_string();
        if key.len() > 70 {
            key.truncate(67);
            key.push_str("...");
        }
        t.row(vec![
            s.citation.to_string(),
            s.year.to_string(),
            if s.covers_platoons { "yes" } else { "no" }.to_string(),
            s.attacks_discussed.len().to_string(),
            key,
        ]);
    }
    t
}

/// The coverage matrix behind the paper's gap analysis: which of the nine
/// Table II platoon attacks each survey touches.
pub fn render_coverage_matrix() -> TextTable {
    let attack_labels = [
        ("sybil", "sybil"),
        ("replay", "replay"),
        ("jamming", "jamming"),
        ("eavesdrop", "eavesdrop"),
        ("dos", "dos"),
        ("impersonation", "impersonation"),
        ("sensor spoofing", "sensor-spoof"),
        ("malware", "malware"),
        ("gps spoofing", "gps-spoof"),
    ];
    let mut cols: Vec<&str> = vec!["Survey"];
    cols.extend(attack_labels.iter().map(|(l, _)| *l));
    let mut t = TextTable::new("Table I coverage matrix (survey × platoon attack)", &cols);
    for s in catalog() {
        let mut row = vec![s.citation.to_string()];
        for (label, _) in &attack_labels {
            let hit = s.attacks_discussed.iter().any(|a| {
                a.contains(label)
                    || (label.contains("impersonation")
                        && (a.contains("masquerad") || a.contains("impersonation")))
                    || (label.contains("eavesdrop") && a.contains("eavesdrop"))
            });
            row.push(if hit { "x" } else { "" }.to_string());
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_eight_table_i_rows() {
        assert_eq!(catalog().len(), 8);
    }

    #[test]
    fn years_are_chronological() {
        let years: Vec<u32> = catalog().iter().map(|s| s.year).collect();
        let mut sorted = years.clone();
        sorted.sort();
        assert_eq!(years, sorted, "Table I is ordered chronologically");
    }

    #[test]
    fn only_two_surveys_touch_platoons() {
        // The paper's gap claim: "majority of these studies do not discuss
        // attacks specifically for platoons".
        let covering = catalog().iter().filter(|s| s.covers_platoons).count();
        assert_eq!(covering, 2);
    }

    #[test]
    fn render_produces_a_row_per_survey() {
        assert_eq!(render_table1().len(), 8);
        assert_eq!(render_coverage_matrix().len(), 8);
    }

    #[test]
    fn coverage_matrix_marks_known_hits() {
        let rendered = render_coverage_matrix().render();
        // Mejri 2014 covers replay, jamming, sybil, dos, eavesdrop.
        let mejri_line = rendered
            .lines()
            .find(|l| l.contains("Mejri"))
            .expect("row exists");
        assert!(mejri_line.matches('x').count() >= 5, "{mejri_line}");
    }
}
