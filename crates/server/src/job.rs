//! The job vocabulary: what the service can run, how a job is spelled in
//! canonical JSON, and how it is keyed in the result cache.
//!
//! A [`JobSpec`] names one experiment arm from `platoon-core` — a Table
//! II/III arm, a Table IV detection run, a robustness cell, a perf-grid
//! cell, or a corridor cell. The spec is the *complete* input of the run:
//! the workspace's simulations are deterministic given (spec, seed), so a
//! spec's canonical JSON plus the running code version is a sound
//! content address for the result ([`cache_key`]).
//!
//! Seeds are encoded as **decimal strings**, not JSON numbers: the
//! workspace's minimal parser reads numbers as `f64`, and label-derived
//! corridor seeds use all 64 bits — well past the 2^53 range where `f64`
//! stays exact. Strings round-trip losslessly.

use platoon_attacks::prelude::AttackParams;
use platoon_core::experiments::common::Effort;
use platoon_sim::harness::json::{self, Value};
use platoon_sim::harness::{fnv1a, write_detection_summary, write_run_summary};

/// The version string folded into every cache key. Bump the crate version
/// (or change this scheme) and every previously cached result misses —
/// results are only reusable across runs of the *same* code.
pub const CODE_VERSION: &str = concat!("platoon-server/", env!("CARGO_PKG_VERSION"));

/// One runnable unit of work: an experiment arm by name.
///
/// Every variant carries everything the run depends on and nothing it does
/// not: harness worker counts and corridor engine-thread counts are
/// deliberately absent because results are invariant to both (so a result
/// computed at any width answers every future width).
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// A Table II/III experiment arm: one attack against the canonical
    /// platoon, optionally defended by a mechanism variant.
    Arm {
        /// Attack machine name (`platoon-attacks` registry).
        attack: String,
        /// Mechanism variant, `None` = undefended.
        mechanism: Option<String>,
        /// Quick vs full effort.
        quick: bool,
        /// Scenario seed.
        seed: u64,
    },
    /// A Table II clean-baseline arm paired with an attack row.
    Baseline {
        /// Attack machine name the baseline pairs with.
        attack: String,
        /// Quick vs full effort.
        quick: bool,
        /// Scenario seed.
        seed: u64,
    },
    /// A Table IV detection-quality arm.
    Detection {
        /// Attack machine name (or `benign`).
        attack: String,
        /// Detector configuration (`default` / `strict`).
        config: String,
        /// Quick vs full effort.
        quick: bool,
        /// Scenario seed.
        seed: u64,
    },
    /// A robustness cell: detection quality under a benign fault.
    Robustness {
        /// Fault arm name (`none` for the clean control).
        fault: String,
        /// Attack arm name (`benign` or `impersonation`).
        attack: String,
        /// Quick vs full effort.
        quick: bool,
        /// Scenario seed.
        seed: u64,
    },
    /// One perf-grid cell — the deterministic counter projection only
    /// (wall times are machine noise and have no place in a cache).
    Perf {
        /// Grid cell label (e.g. `perf/cacc/pki/dsrc`).
        cell: String,
        /// Quick vs full effort.
        quick: bool,
    },
    /// One adversarial-campaign cell: a tuned attack candidate scored
    /// against the default detection pipeline (stealth vs damage). The
    /// campaign driver submits thousands of these per search, so this is
    /// the variant the content-addressed cache earns its keep on:
    /// grid-pass cells resurface verbatim across generations and across
    /// re-runs of the same campaign seed.
    Campaign {
        /// The candidate: attack name plus its snapped knob values.
        params: AttackParams,
        /// Quick vs full effort.
        quick: bool,
        /// Scenario seed.
        seed: u64,
    },
    /// One dataset export cell: a (attack arm, seed) run tapped for
    /// labeled per-beacon feature rows. The cached result carries the
    /// cell's row/positive counts and the FNV-1a digest of its
    /// single-cell columnar shard — enough for a driver to dedup export
    /// work and verify a shard it already holds without re-running the
    /// simulation.
    Dataset {
        /// Attack arm name (or `benign`).
        attack: String,
        /// Quick vs full effort.
        quick: bool,
        /// Scenario seed.
        seed: u64,
    },
    /// One regime-experiment cell: a (detector profile, attack) run over
    /// the canonical piecewise driving-regime plan, scored whole-run and
    /// per-phase.
    Regime {
        /// Detector profile name (`cruise` / `regime-aware`).
        profile: String,
        /// Attack arm name (or `benign`).
        attack: String,
        /// Quick vs full effort.
        quick: bool,
        /// Scenario seed.
        seed: u64,
    },
    /// One corridor-grid cell: a multi-platoon corridor world.
    Corridor {
        /// Cell label (e.g. `corridor/indexed/6x8`).
        label: String,
        /// Trucks per platoon.
        per: usize,
        /// Platoon count.
        platoons: usize,
        /// Run duration in seconds.
        duration: f64,
        /// Radio horizon in metres; `None` = all-pairs.
        horizon: Option<f64>,
        /// Scenario seed.
        seed: u64,
    },
}

impl JobSpec {
    /// A human-readable label for progress output and batch documents.
    /// Unique within every grid [`crate::grids`] builds.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Arm {
                attack, mechanism, ..
            } => format!(
                "arm/{attack}/{}",
                mechanism.as_deref().unwrap_or("undefended")
            ),
            JobSpec::Baseline { attack, .. } => format!("baseline/{attack}"),
            JobSpec::Detection {
                attack,
                config,
                seed,
                ..
            } => format!("detect/{attack}/{config}/{seed}"),
            JobSpec::Robustness {
                fault,
                attack,
                seed,
                ..
            } => format!("robust/{fault}/{attack}/{seed}"),
            JobSpec::Perf { cell, .. } => cell.clone(),
            JobSpec::Campaign { params, seed, .. } => format!(
                "campaign/{}/{:08x}/{seed}",
                params.attack(),
                fnv1a(params.canonical_json().as_bytes()) as u32
            ),
            JobSpec::Dataset { attack, seed, .. } => format!("dataset/{attack}/{seed}"),
            JobSpec::Regime {
                profile,
                attack,
                seed,
                ..
            } => format!("regime/{profile}/{attack}/{seed}"),
            JobSpec::Corridor { label, .. } => label.clone(),
        }
    }

    /// The canonical compact-JSON spelling of the spec: fixed field order,
    /// seeds as decimal strings. This is the protocol wire form *and* the
    /// cache-key input — the two must never diverge, so there is only one.
    pub fn to_canonical_json(&self) -> String {
        let mut w = json::Writer::compact();
        w.obj(|w| match self {
            JobSpec::Arm {
                attack,
                mechanism,
                quick,
                seed,
            } => {
                w.field_str("kind", "arm");
                w.field_str("attack", attack);
                if let Some(mechanism) = mechanism {
                    w.field_str("mechanism", mechanism);
                }
                w.field_bool("quick", *quick);
                w.field_str("seed", &seed.to_string());
            }
            JobSpec::Baseline {
                attack,
                quick,
                seed,
            } => {
                w.field_str("kind", "baseline");
                w.field_str("attack", attack);
                w.field_bool("quick", *quick);
                w.field_str("seed", &seed.to_string());
            }
            JobSpec::Detection {
                attack,
                config,
                quick,
                seed,
            } => {
                w.field_str("kind", "detection");
                w.field_str("attack", attack);
                w.field_str("config", config);
                w.field_bool("quick", *quick);
                w.field_str("seed", &seed.to_string());
            }
            JobSpec::Robustness {
                fault,
                attack,
                quick,
                seed,
            } => {
                w.field_str("kind", "robustness");
                w.field_str("fault", fault);
                w.field_str("attack", attack);
                w.field_bool("quick", *quick);
                w.field_str("seed", &seed.to_string());
            }
            JobSpec::Perf { cell, quick } => {
                w.field_str("kind", "perf");
                w.field_str("cell", cell);
                w.field_bool("quick", *quick);
            }
            JobSpec::Campaign {
                params,
                quick,
                seed,
            } => {
                w.field_str("kind", "campaign");
                w.field_raw("candidate", &params.canonical_json());
                w.field_bool("quick", *quick);
                w.field_str("seed", &seed.to_string());
            }
            JobSpec::Dataset {
                attack,
                quick,
                seed,
            } => {
                w.field_str("kind", "dataset");
                w.field_str("attack", attack);
                w.field_bool("quick", *quick);
                w.field_str("seed", &seed.to_string());
            }
            JobSpec::Regime {
                profile,
                attack,
                quick,
                seed,
            } => {
                w.field_str("kind", "regime");
                w.field_str("profile", profile);
                w.field_str("attack", attack);
                w.field_bool("quick", *quick);
                w.field_str("seed", &seed.to_string());
            }
            JobSpec::Corridor {
                label,
                per,
                platoons,
                duration,
                horizon,
                seed,
            } => {
                w.field_str("kind", "corridor");
                w.field_str("label", label);
                w.field_u64("per", *per as u64);
                w.field_u64("platoons", *platoons as u64);
                w.field_f64("duration", *duration);
                if let Some(h) = horizon {
                    w.field_f64("horizon", *h);
                }
                w.field_str("seed", &seed.to_string());
            }
        });
        w.finish()
    }

    /// Decodes a spec from a parsed JSON value (the inverse of
    /// [`JobSpec::to_canonical_json`]).
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        let kind = str_field(v, "kind")?;
        match kind.as_str() {
            "arm" => Ok(JobSpec::Arm {
                attack: str_field(v, "attack")?,
                mechanism: opt_str_field(v, "mechanism"),
                quick: bool_field(v, "quick")?,
                seed: seed_field(v, "seed")?,
            }),
            "baseline" => Ok(JobSpec::Baseline {
                attack: str_field(v, "attack")?,
                quick: bool_field(v, "quick")?,
                seed: seed_field(v, "seed")?,
            }),
            "detection" => Ok(JobSpec::Detection {
                attack: str_field(v, "attack")?,
                config: str_field(v, "config")?,
                quick: bool_field(v, "quick")?,
                seed: seed_field(v, "seed")?,
            }),
            "robustness" => Ok(JobSpec::Robustness {
                fault: str_field(v, "fault")?,
                attack: str_field(v, "attack")?,
                quick: bool_field(v, "quick")?,
                seed: seed_field(v, "seed")?,
            }),
            "perf" => Ok(JobSpec::Perf {
                cell: str_field(v, "cell")?,
                quick: bool_field(v, "quick")?,
            }),
            "campaign" => Ok(JobSpec::Campaign {
                params: AttackParams::from_json(
                    v.get("candidate")
                        .ok_or("campaign spec needs a \"candidate\" object")?,
                )?,
                quick: bool_field(v, "quick")?,
                seed: seed_field(v, "seed")?,
            }),
            "dataset" => Ok(JobSpec::Dataset {
                attack: str_field(v, "attack")?,
                quick: bool_field(v, "quick")?,
                seed: seed_field(v, "seed")?,
            }),
            "regime" => Ok(JobSpec::Regime {
                profile: str_field(v, "profile")?,
                attack: str_field(v, "attack")?,
                quick: bool_field(v, "quick")?,
                seed: seed_field(v, "seed")?,
            }),
            "corridor" => Ok(JobSpec::Corridor {
                label: str_field(v, "label")?,
                per: usize_field(v, "per")?,
                platoons: usize_field(v, "platoons")?,
                duration: f64_field(v, "duration")?,
                horizon: v.get("horizon").and_then(Value::as_f64),
                seed: seed_field(v, "seed")?,
            }),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }

    /// Parses a spec from its canonical-JSON text.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&json::parse(text)?)
    }

    /// Runs the job to its canonical compact result document.
    ///
    /// This is the job body the service hands to
    /// [`execute_job`](platoon_sim::exec::execute_job) — it runs under
    /// `catch_unwind`, so unknown attack/mechanism/cell names (which panic
    /// in `platoon-core`) degrade to a failed job, never a dead worker.
    /// Documents carry only deterministic fields (no wall times), so any
    /// two executions of the same spec are byte-identical — the property
    /// the whole cache rests on.
    pub fn execute(&self, engine_threads: usize) -> String {
        use platoon_core::experiments::{campaign, corridor, robustness, table2, table4};

        let mut w = json::Writer::compact();
        match self {
            JobSpec::Arm {
                attack,
                mechanism,
                quick,
                seed,
            } => {
                let out = platoon_core::experiments::common::arm_outcome(
                    attack,
                    mechanism.as_deref(),
                    Effort::new(*quick),
                    *seed,
                );
                w.obj(|w| {
                    w.field_str("label", &self.label());
                    w.field_str("seed", &seed.to_string());
                    w.field_f64("impact", out.impact);
                    w.field_obj("summary", |w| write_run_summary(w, &out.summary));
                });
            }
            JobSpec::Baseline {
                attack,
                quick,
                seed,
            } => {
                let out = table2::baseline_outcome(attack, Effort::new(*quick), *seed);
                w.obj(|w| {
                    w.field_str("label", &self.label());
                    w.field_str("seed", &seed.to_string());
                    w.field_f64("impact", out.impact);
                    w.field_obj("summary", |w| write_run_summary(w, &out.summary));
                });
            }
            JobSpec::Detection {
                attack,
                config,
                quick,
                seed,
            } => {
                let d = table4::detection_arm(attack, config, Effort::new(*quick), *seed);
                w.obj(|w| {
                    w.field_str("label", &self.label());
                    w.field_str("seed", &seed.to_string());
                    w.field_obj("detection", |w| write_detection_summary(w, &d));
                });
            }
            JobSpec::Robustness {
                fault,
                attack,
                quick,
                seed,
            } => {
                let cell = robustness::robustness_arm(fault, attack, Effort::new(*quick), *seed);
                w.obj(|w| {
                    w.field_str("label", &self.label());
                    w.field_str("seed", &seed.to_string());
                    w.field_obj("detection", |w| write_detection_summary(w, &cell.detection));
                    w.field_obj("summary", |w| write_run_summary(w, &cell.summary));
                });
            }
            JobSpec::Perf { cell, quick } => {
                let (seed, counters) = platoon_core::perf::run_cell(cell, *quick)
                    .unwrap_or_else(|| panic!("unknown perf cell {cell:?}"));
                w.obj(|w| {
                    w.field_str("label", cell);
                    w.field_str("seed", &seed.to_string());
                    w.field_obj("perf", |w| counters.write_canonical(w));
                });
            }
            JobSpec::Campaign {
                params,
                quick,
                seed,
            } => {
                let out = campaign::evaluate_candidate(params, *quick, *seed);
                // The campaign document is already canonical compact JSON;
                // return it verbatim so the in-process evaluation path and
                // a cached server result can never diverge by a byte.
                return campaign::outcome_document(params, *quick, *seed, &out);
            }
            JobSpec::Dataset {
                attack,
                quick,
                seed,
            } => {
                let label = self.label();
                let cell = platoon_dataset::factory::export_cell(
                    attack,
                    Effort::new(*quick),
                    *seed,
                    &label,
                );
                let shard = platoon_dataset::columnar::Shard { cells: vec![cell] };
                w.obj(|w| {
                    w.field_str("label", &label);
                    w.field_str("seed", &seed.to_string());
                    w.field_u64("rows", shard.rows() as u64);
                    w.field_u64("positives", shard.positives());
                    w.field_str("digest", &format!("{:016x}", shard.digest()));
                });
            }
            JobSpec::Regime {
                profile,
                attack,
                quick,
                seed,
            } => {
                let row = platoon_core::experiments::regimes::regime_arm(
                    profile,
                    attack,
                    Effort::new(*quick),
                    *seed,
                );
                w.obj(|w| {
                    w.field_str("label", &self.label());
                    w.field_str("seed", &seed.to_string());
                    platoon_core::experiments::regimes::write_row(w, &row);
                });
            }
            JobSpec::Corridor {
                label,
                per,
                platoons,
                duration,
                horizon,
                seed,
            } => {
                let run = corridor::corridor_arm(
                    label,
                    *per,
                    *platoons,
                    *duration,
                    horizon.unwrap_or(f64::INFINITY),
                    engine_threads,
                    *seed,
                );
                w.obj(|w| {
                    w.field_str("label", label);
                    w.field_str("seed", &seed.to_string());
                    w.field_u64("vehicles", run.vehicles as u64);
                    w.field_u64("pairs_considered", run.pairs_considered);
                    w.field_obj("summary", |w| write_run_summary(w, &run.summary));
                });
            }
        }
        w.finish()
    }
}

/// The content address of a spec's result: FNV-1a over the canonical JSON
/// of `{code_version, spec}`. Two specs collide only if their canonical
/// spellings hash together — the quick-grid sanity test pins distinctness
/// over every grid the service ships.
pub fn cache_key(spec: &JobSpec) -> u64 {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_str("code_version", CODE_VERSION);
        w.field_raw("spec", &spec.to_canonical_json());
    });
    fnv1a(w.finish().as_bytes())
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("job spec needs a string {key:?} field")),
    }
}

fn opt_str_field(v: &Value, key: &str) -> Option<String> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("job spec needs a boolean {key:?} field")),
    }
}

/// Seeds travel as decimal strings (see the module docs); accept a plain
/// number too for hand-written requests with small seeds.
fn seed_field(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::Str(s)) => s
            .parse::<u64>()
            .map_err(|e| format!("{key:?} is not a decimal u64: {e}")),
        Some(Value::Num(x)) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
            Ok(*x as u64)
        }
        _ => Err(format!("job spec needs a seed string in {key:?}")),
    }
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    match v.get(key).and_then(Value::as_f64) {
        Some(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as usize),
        _ => Err(format!("job spec needs an integer {key:?} field")),
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("job spec needs a number {key:?} field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_specs() -> Vec<JobSpec> {
        vec![
            JobSpec::Arm {
                attack: "jamming".into(),
                mechanism: None,
                quick: true,
                seed: 2021,
            },
            JobSpec::Arm {
                attack: "replay".into(),
                mechanism: Some("keys".into()),
                quick: true,
                seed: 2021,
            },
            JobSpec::Baseline {
                attack: "jamming".into(),
                quick: false,
                seed: 7,
            },
            JobSpec::Detection {
                attack: "sybil".into(),
                config: "strict".into(),
                quick: true,
                seed: 2023,
            },
            JobSpec::Robustness {
                fault: "burst-loss".into(),
                attack: "benign".into(),
                quick: true,
                seed: 2022,
            },
            JobSpec::Perf {
                cell: "perf/cacc/pki/dsrc".into(),
                quick: true,
            },
            JobSpec::Campaign {
                params: AttackParams::defaults("jamming").unwrap(),
                quick: true,
                seed: 2021,
            },
            JobSpec::Campaign {
                params: AttackParams::from_values("insider-fdi", &[0.5, -2.0, 1.0, 3.0]).unwrap(),
                quick: true,
                seed: 2021,
            },
            JobSpec::Dataset {
                attack: "insider-fdi".into(),
                quick: true,
                seed: 2021,
            },
            JobSpec::Regime {
                profile: "regime-aware".into(),
                attack: "benign".into(),
                quick: true,
                seed: 2021,
            },
            JobSpec::Corridor {
                label: "corridor/indexed/6x8".into(),
                per: 8,
                platoons: 6,
                duration: 20.0,
                horizon: Some(750.0),
                seed: 0xdead_beef_cafe_f00d, // full 64 bits must survive
            },
            JobSpec::Corridor {
                label: "corridor/allpairs/6x8".into(),
                per: 8,
                platoons: 6,
                duration: 20.0,
                horizon: None,
                seed: u64::MAX,
            },
        ]
    }

    #[test]
    fn specs_round_trip_byte_identically() {
        for spec in sample_specs() {
            let text = spec.to_canonical_json();
            let back = JobSpec::parse(&text).expect("spec parses");
            assert_eq!(back, spec, "decode inverts encode: {text}");
            assert_eq!(back.to_canonical_json(), text, "re-encode is stable");
        }
    }

    #[test]
    fn sample_keys_are_distinct_and_version_scoped() {
        let keys: Vec<u64> = sample_specs().iter().map(cache_key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "sample specs must not collide");
        // The key covers the code version: a spec alone hashes differently.
        let spec = &sample_specs()[0];
        assert_ne!(
            cache_key(spec),
            fnv1a(spec.to_canonical_json().as_bytes()),
            "cache keys must be scoped to the code version"
        );
    }

    #[test]
    fn quick_and_full_effort_key_differently() {
        let quick = JobSpec::Perf {
            cell: "perf/acc/none/dsrc".into(),
            quick: true,
        };
        let full = JobSpec::Perf {
            cell: "perf/acc/none/dsrc".into(),
            quick: false,
        };
        assert_ne!(cache_key(&quick), cache_key(&full));
    }
}
