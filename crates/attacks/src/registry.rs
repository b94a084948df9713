//! The canonical attack registry: Table II of the paper as data, with each
//! row bound to the module that implements it.

use platoon_sim::attack::SecurityAttribute;

/// Platoon assets an attack targets (the §IV asset inventory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Asset {
    /// The platoon leader.
    Leader,
    /// Platoon member vehicles.
    Members,
    /// Vehicles joining or leaving.
    JoinLeave,
    /// Roadside units.
    Rsu,
    /// The trusted authority / platoon service provider.
    TrustedAuthority,
    /// On-board sensors.
    Sensors,
    /// The V2V/V2I wireless channel itself.
    Channel,
}

/// One row of the canonical attack catalogue (Table II).
#[derive(Clone, Debug, PartialEq)]
pub struct AttackDescriptor {
    /// Machine name, matching `Attack::name()` of the implementation.
    pub name: &'static str,
    /// Display name as used in the paper's Table II.
    pub display_name: &'static str,
    /// Security attribute compromised (§IV classification).
    pub attribute: SecurityAttribute,
    /// Assets targeted.
    pub assets: &'static [Asset],
    /// Paper section describing the attack.
    pub section: &'static str,
    /// The paper's summary of how the attack compromises the platoon.
    pub summary: &'static str,
    /// Paper references backing the row.
    pub references: &'static [&'static str],
    /// The implementing module path in this repository.
    pub module: &'static str,
    /// The experiment (DESIGN.md id) that measures the attack's impact.
    pub experiment: &'static str,
}

/// The full Table II catalogue, in the paper's row order.
pub fn catalog() -> Vec<AttackDescriptor> {
    vec![
        AttackDescriptor {
            name: "sybil",
            display_name: "Sybil attack",
            attribute: SecurityAttribute::Authenticity,
            assets: &[Asset::Leader, Asset::Members, Asset::Rsu],
            section: "V-A.2",
            summary: "An attacker within the platoon makes ghost vehicles that try to get \
                      accepted into the platoon, destabilising it and preventing members from \
                      joining.",
            references: &["[3]", "[6]"],
            module: "platoon_attacks::sybil",
            experiment: "F3",
        },
        AttackDescriptor {
            name: "fake-maneuver",
            display_name: "Fake manoeuvre attack",
            attribute: SecurityAttribute::Integrity,
            assets: &[Asset::Members, Asset::Rsu],
            section: "V-A.3",
            summary: "Fake manoeuvre requests break the platoon into smaller platoons or create \
                      entrance gaps for nonexistent vehicles; members can also be removed.",
            references: &["[17]", "[32]"],
            module: "platoon_attacks::fake_maneuver",
            experiment: "F5",
        },
        AttackDescriptor {
            name: "replay",
            display_name: "Replay attack",
            attribute: SecurityAttribute::Integrity,
            assets: &[Asset::Leader, Asset::Members, Asset::JoinLeave, Asset::Rsu],
            section: "V-A.1",
            summary: "Old messages replayed into the network make the platoon unstable as \
                      members receive conflicting information.",
            references: &["[2]", "[10]"],
            module: "platoon_attacks::replay",
            experiment: "F1",
        },
        AttackDescriptor {
            name: "jamming",
            display_name: "Jamming",
            attribute: SecurityAttribute::Availability,
            assets: &[Asset::Channel],
            section: "V-B",
            summary: "Flooding platoon frequencies with noise prevents all communication; \
                      members can no longer communicate and the platoon disbands.",
            references: &["[2]"],
            module: "platoon_attacks::jamming",
            experiment: "F2",
        },
        AttackDescriptor {
            name: "eavesdrop",
            display_name: "Eavesdropping",
            attribute: SecurityAttribute::Confidentiality,
            assets: &[Asset::Channel, Asset::Members, Asset::Leader],
            section: "V-C",
            summary: "An attacker understands the information transmitted within the platoon, \
                      leading to data theft and privacy violation.",
            references: &["[34]"],
            module: "platoon_attacks::eavesdrop",
            experiment: "F7",
        },
        AttackDescriptor {
            name: "dos-join-flood",
            display_name: "Denial of Service",
            attribute: SecurityAttribute::Availability,
            assets: &[Asset::Leader, Asset::JoinLeave, Asset::Rsu],
            section: "V-D",
            summary: "Prevents users from joining or creating a platoon by flooding it with \
                      more requests than the system can clear.",
            references: &["[33]"],
            module: "platoon_attacks::dos",
            experiment: "F4",
        },
        AttackDescriptor {
            name: "impersonation",
            display_name: "Impersonation",
            attribute: SecurityAttribute::Integrity,
            assets: &[Asset::Members, Asset::Rsu, Asset::TrustedAuthority],
            section: "V-F",
            summary: "An attacker poses as a different individual in the network, leading to \
                      false representation and reputation damage.",
            references: &["[6]"],
            module: "platoon_attacks::impersonation",
            experiment: "F8",
        },
        AttackDescriptor {
            name: "sensor-spoof",
            display_name: "Jamming and spoofing sensors",
            attribute: SecurityAttribute::Authenticity,
            assets: &[Asset::Sensors],
            section: "V-G",
            summary: "Malware or direct attacks on sensors (GPS, radar, cameras, TPMS) lead to \
                      false sensing.",
            references: &["[13]", "[31]"],
            module: "platoon_attacks::{sensor_spoof, gps_spoof}",
            experiment: "F6",
        },
        AttackDescriptor {
            name: "malware",
            display_name: "Malware",
            attribute: SecurityAttribute::Availability,
            assets: &[Asset::Members, Asset::Rsu, Asset::TrustedAuthority],
            section: "V-H",
            summary: "Prevents users from being able to platoon; malware can also carry out \
                      other attacks such as data theft, sensor spoofing and DoS.",
            references: &["[6]", "[13]"],
            module: "platoon_attacks::malware",
            experiment: "F9",
        },
        AttackDescriptor {
            name: "insider-fdi",
            display_name: "False data injection (insider)",
            attribute: SecurityAttribute::Integrity,
            assets: &[Asset::Members, Asset::Leader],
            section: "V-A",
            summary: "An attacker that is part of the platoon deliberately transmits false or \
                      misleading information; members react believing it is legitimate.",
            references: &["[2]", "[9]", "[10]"],
            module: "platoon_attacks::falsification",
            experiment: "F1/F6",
        },
    ]
}

/// Looks up a descriptor by machine name.
pub fn descriptor(name: &str) -> Option<AttackDescriptor> {
    catalog().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_nine_table_ii_rows_plus_fdi() {
        let c = catalog();
        assert_eq!(c.len(), 10);
        // Table II's nine named rows:
        for name in [
            "sybil",
            "fake-maneuver",
            "replay",
            "jamming",
            "eavesdrop",
            "dos-join-flood",
            "impersonation",
            "sensor-spoof",
            "malware",
        ] {
            assert!(descriptor(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn every_attribute_class_is_represented() {
        let c = catalog();
        for attr in [
            SecurityAttribute::Authenticity,
            SecurityAttribute::Integrity,
            SecurityAttribute::Availability,
            SecurityAttribute::Confidentiality,
        ] {
            assert!(
                c.iter().any(|d| d.attribute == attr),
                "no attack for {attr:?}"
            );
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

    #[test]
    fn descriptors_match_implementations() {
        use platoon_sim::attack::Attack;
        let pairs: Vec<(&str, SecurityAttribute)> = vec![
            (
                crate::replay::ReplayAttack::new(Default::default()).name(),
                crate::replay::ReplayAttack::new(Default::default()).attribute(),
            ),
            (
                crate::sybil::SybilAttack::new(Default::default()).name(),
                crate::sybil::SybilAttack::new(Default::default()).attribute(),
            ),
            (
                crate::jamming::JammingAttack::new(Default::default()).name(),
                crate::jamming::JammingAttack::new(Default::default()).attribute(),
            ),
            (
                crate::dos::JoinFloodAttack::new(Default::default()).name(),
                crate::dos::JoinFloodAttack::new(Default::default()).attribute(),
            ),
        ];
        for (name, attr) in pairs {
            let d = descriptor(name).unwrap_or_else(|| panic!("no descriptor for {name}"));
            assert_eq!(d.attribute, attr, "{name} attribute mismatch");
        }
    }

    #[test]
    fn lookup_missing_returns_none() {
        assert!(descriptor("wormhole").is_none());
    }
}
