//! The defense mechanism registry: Table III of the paper as data, bound to
//! the modules that implement each mechanism.

/// One row of Table III.
#[derive(Clone, Debug, PartialEq)]
pub struct MechanismDescriptor {
    /// Machine name, matching `Defense::name()` where a module exists.
    pub name: &'static str,
    /// Display name as used in the paper's Table III.
    pub display_name: &'static str,
    /// Attacks the mechanism targets, by attack-registry machine name.
    pub mitigates: &'static [&'static str],
    /// The paper's stated open challenge for the mechanism.
    pub open_challenge: &'static str,
    /// Paper section describing it.
    pub section: &'static str,
    /// Implementing modules / scenario knobs in this repository.
    pub module: &'static str,
    /// Experiments measuring it.
    pub experiments: &'static str,
}

/// The full Table III catalogue, in the paper's row order.
pub fn catalog() -> Vec<MechanismDescriptor> {
    vec![
        MechanismDescriptor {
            name: "keys",
            display_name: "Secret and Public Keys",
            mitigates: &[
                "eavesdrop",
                "fake-maneuver",
                "replay",
                "sybil",
                "impersonation",
                "dos-join-flood",
            ],
            open_challenge: "Large scale testing of current methods of key creation and \
                             distribution to compare effectiveness against the cost.",
            section: "VI-A.1",
            module: "scenario AuthMode::{GroupMac, Pki} + platoon_defense::anti_replay + \
                     platoon_crypto::key_agreement",
            experiments: "F1, F3, F5, F7, F8, T3",
        },
        MechanismDescriptor {
            name: "rsu-gatekeeper",
            display_name: "Roadside Units (RSU)",
            mitigates: &["impersonation", "fake-maneuver", "dos-join-flood", "sybil"],
            open_challenge: "More research into RSU network security and identification of \
                             rogue RSUs.",
            section: "VI-A.2",
            module: "platoon_defense::rsu",
            experiments: "F4, T3",
        },
        MechanismDescriptor {
            name: "control-algorithms",
            display_name: "Control Algorithms",
            mitigates: &[
                "dos-join-flood",
                "sybil",
                "replay",
                "fake-maneuver",
                "insider-fdi",
                "sensor-spoof",
            ],
            open_challenge: "Where in the network is the most efficient place to deploy and \
                             use the algorithms.",
            section: "VI-A.3",
            module: "platoon_defense::{vpd_ada, mitigation}",
            experiments: "F1, F6, T3",
        },
        MechanismDescriptor {
            name: "hybrid-sp-vlc",
            display_name: "Hybrid Communications",
            mitigates: &["jamming", "sybil", "replay", "fake-maneuver"],
            open_challenge: "The use of VLC and wireless radio communications between V2I is \
                             lacking.",
            section: "VI-A.4",
            module: "platoon_defense::hybrid + scenario CommsMode::{HybridVlc, HybridCv2x}",
            experiments: "F2, F5, T3",
        },
        MechanismDescriptor {
            name: "onboard-hardening",
            display_name: "Securing Onboard Systems",
            mitigates: &["malware", "sensor-spoof"],
            open_challenge: "Most effective means to deploy such security measures without \
                             affecting response.",
            section: "VI-A.5",
            module: "platoon_defense::onboard",
            experiments: "F9, F6, T3",
        },
        MechanismDescriptor {
            name: "trust",
            display_name: "Trust Management (REPLACE [6])",
            mitigates: &["impersonation", "insider-fdi", "sybil"],
            open_challenge: "How trust can be integrated within platoons is largely missing \
                             from the literature (§III).",
            section: "III / VI-B.3",
            module: "platoon_defense::trust",
            experiments: "F8, T3",
        },
    ]
}

/// Looks up a mechanism by machine name.
pub fn descriptor(name: &str) -> Option<MechanismDescriptor> {
    catalog().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_five_table_iii_rows() {
        let c = catalog();
        for name in [
            "keys",
            "rsu-gatekeeper",
            "control-algorithms",
            "hybrid-sp-vlc",
            "onboard-hardening",
        ] {
            assert!(descriptor(name).is_some(), "missing {name}");
        }
        assert!(c.len() >= 5);
    }

    #[test]
    fn every_mitigated_attack_exists_in_the_attack_registry() {
        for mech in catalog() {
            for attack in mech.mitigates {
                assert!(
                    platoon_attacks::registry::descriptor(attack).is_some(),
                    "{} claims to mitigate unknown attack {attack}",
                    mech.name
                );
            }
        }
    }

    #[test]
    fn every_table_ii_attack_has_at_least_one_mitigation() {
        let mechanisms = catalog();
        for attack in platoon_attacks::registry::catalog() {
            let covered = mechanisms
                .iter()
                .any(|m| m.mitigates.contains(&attack.name))
                // Eavesdropping is mitigated by keys (encryption), listed
                // under "keys" in Table III.
                || attack.name == "eavesdrop";
            assert!(covered, "no mechanism mitigates {}", attack.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let c = catalog();
        let mut names: Vec<_> = c.iter().map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), c.len());
    }
}
