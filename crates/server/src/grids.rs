//! The experiment grids expressed as job batches.
//!
//! Each named grid enumerates exactly the arms the corresponding
//! launch-and-exit driver in `platoon-core` runs, using the same public
//! enumeration APIs (`table3::pairs`, `table4::arm_names`,
//! `perf::cell_labels`, `corridor::grid`, ...) — so a grid submitted
//! through the service warms the cache for the very cells the classic
//! drivers compute, and the two can never quietly drift apart.
//!
//! Note the cross-grid sharing this buys: Table III's undefended arms are
//! spelled identically to Table II's attacked arms, so submitting `table2`
//! then `table3` executes each shared arm once.

use crate::job::JobSpec;
use platoon_core::experiments::common::EXPERIMENT_BASE_SEED;
use platoon_core::experiments::{corridor, regimes, robustness, table3, table4};
use platoon_sim::harness::derive_seed;

/// The grid names [`experiment_grid`] accepts.
pub const EXPERIMENTS: [&str; 9] = [
    "table2",
    "table3",
    "table4",
    "robustness",
    "perf",
    "dataset",
    "regimes",
    "corridor",
    "smoke",
];

/// Builds the named experiment grid at the given effort.
pub fn experiment_grid(name: &str, quick: bool) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    match name {
        "table2" => {
            for desc in platoon_attacks::registry::catalog() {
                jobs.push(JobSpec::Arm {
                    attack: desc.name.to_string(),
                    mechanism: None,
                    quick,
                    seed: EXPERIMENT_BASE_SEED,
                });
                jobs.push(JobSpec::Baseline {
                    attack: desc.name.to_string(),
                    quick,
                    seed: EXPERIMENT_BASE_SEED,
                });
            }
        }
        "table3" => {
            for attack in table3::distinct_attacks() {
                jobs.push(JobSpec::Arm {
                    attack,
                    mechanism: None,
                    quick,
                    seed: EXPERIMENT_BASE_SEED,
                });
            }
            for (_mechanism, attack, variant) in table3::pairs() {
                jobs.push(JobSpec::Arm {
                    attack,
                    mechanism: Some(variant),
                    quick,
                    seed: EXPERIMENT_BASE_SEED,
                });
            }
        }
        "table4" => {
            for config in table4::CONFIGS {
                for attack in table4::arm_names() {
                    for s in 0..table4::SEEDS_PER_ARM {
                        jobs.push(JobSpec::Detection {
                            attack: attack.clone(),
                            config: config.to_string(),
                            quick,
                            seed: EXPERIMENT_BASE_SEED + s,
                        });
                    }
                }
            }
        }
        "robustness" => {
            for fault in robustness::FAULTS {
                for attack in robustness::ATTACKS {
                    for s in 0..robustness::SEEDS_PER_ARM {
                        jobs.push(JobSpec::Robustness {
                            fault: fault.to_string(),
                            attack: attack.to_string(),
                            quick,
                            seed: EXPERIMENT_BASE_SEED + s,
                        });
                    }
                }
            }
        }
        "perf" => {
            for cell in platoon_core::perf::cell_labels() {
                jobs.push(JobSpec::Perf {
                    cell: cell.to_string(),
                    quick,
                });
            }
        }
        "dataset" => {
            for attack in table4::arm_names() {
                for s in 0..platoon_dataset::factory::seeds_per_cell(quick) {
                    jobs.push(JobSpec::Dataset {
                        attack: attack.clone(),
                        quick,
                        seed: EXPERIMENT_BASE_SEED + s,
                    });
                }
            }
        }
        "regimes" => {
            for profile in regimes::PROFILES {
                for attack in regimes::ATTACKS {
                    jobs.push(JobSpec::Regime {
                        profile: profile.to_string(),
                        attack: attack.to_string(),
                        quick,
                        seed: EXPERIMENT_BASE_SEED,
                    });
                }
            }
        }
        "corridor" => {
            for cell in corridor::grid(quick) {
                jobs.push(JobSpec::Corridor {
                    label: cell.label.to_string(),
                    per: cell.per,
                    platoons: cell.platoons,
                    duration: cell.duration,
                    horizon: cell.horizon,
                    seed: derive_seed(cell.label, corridor::CORRIDOR_BASE_SEED),
                });
            }
        }
        // A cheap cross-section of every job kind except the corridor
        // (whose cells dominate wall time): the golden unit for the
        // service determinism tests.
        "smoke" => {
            jobs.push(JobSpec::Arm {
                attack: "jamming".into(),
                mechanism: None,
                quick,
                seed: EXPERIMENT_BASE_SEED,
            });
            jobs.push(JobSpec::Baseline {
                attack: "jamming".into(),
                quick,
                seed: EXPERIMENT_BASE_SEED,
            });
            jobs.push(JobSpec::Detection {
                attack: "sybil".into(),
                config: "default".into(),
                quick,
                seed: EXPERIMENT_BASE_SEED,
            });
            jobs.push(JobSpec::Detection {
                attack: "benign".into(),
                config: "strict".into(),
                quick,
                seed: EXPERIMENT_BASE_SEED,
            });
            jobs.push(JobSpec::Robustness {
                fault: "none".into(),
                attack: "benign".into(),
                quick,
                seed: EXPERIMENT_BASE_SEED,
            });
            jobs.push(JobSpec::Robustness {
                fault: "burst-loss".into(),
                attack: "impersonation".into(),
                quick,
                seed: EXPERIMENT_BASE_SEED,
            });
            jobs.push(JobSpec::Perf {
                cell: "perf/acc/none/dsrc".into(),
                quick,
            });
            jobs.push(JobSpec::Perf {
                cell: "perf/cacc/pki/dsrc+detect".into(),
                quick,
            });
            jobs.push(JobSpec::Dataset {
                attack: "insider-fdi".into(),
                quick,
                seed: EXPERIMENT_BASE_SEED,
            });
        }
        other => {
            return Err(format!(
                "unknown experiment {other:?} (expected one of {})",
                EXPERIMENTS.join(", ")
            ))
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::cache_key;
    use std::collections::HashSet;

    #[test]
    fn every_grid_builds_and_labels_are_unique_within_it() {
        for name in EXPERIMENTS {
            let jobs = experiment_grid(name, true).expect(name);
            assert!(!jobs.is_empty(), "{name} grid is empty");
            let labels: HashSet<String> = jobs.iter().map(JobSpec::label).collect();
            assert_eq!(labels.len(), jobs.len(), "{name} has duplicate labels");
        }
        assert!(experiment_grid("bogus", true).is_err());
    }

    #[test]
    fn quick_grid_keys_never_collide() {
        // The collision-resistance sanity check over every key the quick
        // grids can produce: all distinct specs must map to distinct
        // 64-bit keys (table2/table3 intentionally share their undefended
        // arms — identical specs, identical keys — so dedup by spec
        // first).
        let mut specs = Vec::new();
        for name in EXPERIMENTS {
            specs.extend(experiment_grid(name, true).unwrap());
        }
        for name in EXPERIMENTS {
            specs.extend(experiment_grid(name, false).unwrap());
        }
        let mut seen: Vec<(u64, JobSpec)> = Vec::new();
        for spec in specs {
            let key = cache_key(&spec);
            if let Some((_, prior)) = seen.iter().find(|(k, _)| *k == key) {
                assert_eq!(
                    prior, &spec,
                    "distinct specs collided on key {key:016x}: {prior:?} vs {spec:?}"
                );
            } else {
                seen.push((key, spec));
            }
        }
    }

    #[test]
    fn table2_and_table3_share_their_undefended_arms() {
        let t2 = experiment_grid("table2", true).unwrap();
        let t3 = experiment_grid("table3", true).unwrap();
        let t2_keys: HashSet<u64> = t2.iter().map(cache_key).collect();
        let shared = t3
            .iter()
            .filter(|s| t2_keys.contains(&cache_key(s)))
            .count();
        assert!(
            shared > 0,
            "table3's undefended arms should hit table2's cache entries"
        );
    }
}
