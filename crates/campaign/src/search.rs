//! The campaign driver: grid pass → evolutionary refinement → Pareto
//! frontier, all derived from one campaign seed.
//!
//! ## Determinism contract
//!
//! Everything the search does is a pure function of
//! ([`CampaignConfig`], the code version):
//!
//! * the grid pass enumerates quantile levels in declared knob order and
//!   subsamples oversized grids by a fixed stride;
//! * the refinement rng is seeded per attack from
//!   `campaign_seed ^ fnv1a(attack)`, and every generation draws exactly
//!   `children_per_gen` (tournament + mutation) samples regardless of what
//!   the evaluations returned;
//! * candidate evaluation is a [`JobSpec::Campaign`] cell whose result
//!   document is canonical, so local and cached-server execution are
//!   byte-identical;
//! * every ranking tie breaks on the candidate's canonical JSON.
//!
//! Two runs with the same seed therefore submit the same cells in the
//! same order and render the same document — which is exactly what lets
//! the server's content-addressed cache absorb a replay wholesale.

use platoon_attacks::params::{param_space, searchable_attacks, AttackParams, ParamKind};
use platoon_core::experiments::campaign::{parse_outcome, CandidateOutcome};
use platoon_core::experiments::common::EXPERIMENT_BASE_SEED;
use platoon_server::job::JobSpec;
use platoon_server::net::Client;
use platoon_server::service::{Service, ServiceConfig};
use platoon_sim::harness::{fnv1a, json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Everything one campaign depends on.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Quick vs full effort per evaluation run.
    pub quick: bool,
    /// The seed every random draw of the search derives from.
    pub campaign_seed: u64,
    /// The scenario seed every candidate is evaluated under.
    pub eval_seed: u64,
    /// Attacks to search (machine names with a declared parameter space).
    pub attacks: Vec<String>,
    /// Grid levels per continuous/integer knob in the coarse pass.
    pub grid_levels: usize,
    /// Cap on grid cells per attack (oversized grids are stride-sampled).
    pub grid_cap: usize,
    /// Survivor population between generations.
    pub population: usize,
    /// Refinement generations.
    pub generations: usize,
    /// Mutated children proposed per generation.
    pub children_per_gen: usize,
    /// Initial mutation width as a fraction of each knob's range
    /// (decays by [`SIGMA_DECAY`] per generation).
    pub sigma0: f64,
}

/// Per-generation decay of the mutation width.
pub const SIGMA_DECAY: f64 = 0.6;

impl CampaignConfig {
    /// The canonical campaign at an effort level: quick searches three
    /// representative attacks on a small budget (the golden grid); full
    /// searches every catalogued attack.
    pub fn new(quick: bool, campaign_seed: u64) -> CampaignConfig {
        let attacks: Vec<String> = if quick {
            ["impersonation", "sensor-spoof", "insider-fdi"]
                .map(String::from)
                .to_vec()
        } else {
            searchable_attacks().iter().map(|s| s.to_string()).collect()
        };
        CampaignConfig {
            quick,
            campaign_seed,
            eval_seed: EXPERIMENT_BASE_SEED,
            attacks,
            grid_levels: if quick { 2 } else { 3 },
            grid_cap: if quick { 12 } else { 60 },
            population: if quick { 4 } else { 8 },
            generations: if quick { 2 } else { 5 },
            children_per_gen: if quick { 8 } else { 16 },
            sigma0: 0.18,
        }
    }
}

/// One evaluated point of the search space.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The parameter assignment.
    pub params: AttackParams,
    /// Where the candidate came from: `grid`, `default`, or `refine/g<N>`.
    pub origin: String,
    /// Its measured outcome.
    pub outcome: CandidateOutcome,
}

impl Candidate {
    /// The scalar selection fitness: damage discounted by detection.
    /// Selection needs one axis; the *report* keeps both (the frontier).
    pub fn fitness(&self) -> f64 {
        self.outcome.damage() / (1.0 + self.outcome.detection_score())
    }
}

/// The searched result for one attack.
#[derive(Clone, Debug)]
pub struct AttackCampaign {
    /// Attack machine name.
    pub attack: String,
    /// Unique candidates evaluated.
    pub cells: usize,
    /// The fittest grid-pass candidate.
    pub best_grid: Candidate,
    /// The fittest refined candidate, if any generation produced one.
    pub best_refined: Option<Candidate>,
    /// Whether some refined candidate *strictly dominates* the best grid
    /// candidate: lower detection score **and** higher damage.
    pub refined_dominates: bool,
    /// The stealth-vs-impact Pareto frontier (non-dominated candidates,
    /// by ascending detection score).
    pub frontier: Vec<Candidate>,
}

/// A finished campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Quick vs full effort.
    pub quick: bool,
    /// The campaign seed.
    pub campaign_seed: u64,
    /// The evaluation scenario seed.
    pub eval_seed: u64,
    /// Unique candidates evaluated across all attacks.
    pub total_cells: usize,
    /// Per-attack results, in [`CampaignConfig::attacks`] order.
    pub attacks: Vec<AttackCampaign>,
}

/// Where candidate cells are evaluated: an in-process job service (with
/// its enqueue-time dedup and result cache), or a remote `platoon-server`
/// over TCP. Both run the same [`JobSpec::Campaign`] cell and return the
/// same canonical documents, so the choice cannot change the report.
pub enum Evaluator {
    /// In-process service (memory-only cache).
    Local(Service),
    /// Remote server client.
    Remote(Client),
}

impl Evaluator {
    /// Starts an in-process service with `workers` threads and a
    /// memory-only cache (a campaign re-evaluates nothing *within* a run
    /// thanks to its own archive; the cache still coalesces duplicate
    /// in-flight submissions).
    pub fn local(workers: usize) -> Evaluator {
        let config = ServiceConfig {
            workers,
            ..ServiceConfig::default()
        };
        Evaluator::Local(Service::start(config).expect("memory-only service cannot fail to open"))
    }

    /// Connects to a remote `platoon-server`, checking its code version
    /// matches ours (a version-skewed server would compute under different
    /// scoring and poison the campaign).
    pub fn connect(addr: &str) -> Result<Evaluator, String> {
        let mut client = Client::connect(addr, Some(std::time::Duration::from_secs(5)))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        let version = client.ping()?;
        if version != platoon_server::job::CODE_VERSION {
            return Err(format!(
                "server runs {version}, this binary is {} — refusing a version-skewed campaign",
                platoon_server::job::CODE_VERSION
            ));
        }
        Ok(Evaluator::Remote(client))
    }

    /// Evaluates a batch of cells to their outcomes, in submission order.
    fn evaluate(&mut self, specs: Vec<JobSpec>) -> Result<Vec<CandidateOutcome>, String> {
        let docs: Vec<String> = match self {
            Evaluator::Local(service) => service
                .run_batch(specs)
                .into_iter()
                .map(|r| {
                    r.document.map(|d| d.to_string()).ok_or_else(|| {
                        format!(
                            "cell {} failed: {}",
                            r.label,
                            r.error.unwrap_or_else(|| "no document".into())
                        )
                    })
                })
                .collect::<Result<_, _>>()?,
            Evaluator::Remote(client) => {
                let mut results = client.submit(&specs)?;
                results.sort_by_key(|r| r.index);
                results
                    .into_iter()
                    .map(|r| {
                        r.document.ok_or_else(|| {
                            format!(
                                "cell {} failed: {}",
                                r.label,
                                r.error.unwrap_or_else(|| "no document".into())
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        docs.iter().map(|d| parse_outcome(d)).collect()
    }
}

/// The coarse grid: quantile levels per knob (booleans take both values),
/// Cartesian product, stride-sampled down to `cap` cells, with the
/// all-defaults candidate always included (first).
pub fn grid_candidates(attack: &str, levels: usize, cap: usize) -> Vec<AttackParams> {
    let space = param_space(attack).expect("campaign attacks always have a space");
    let axes: Vec<Vec<f64>> = space
        .iter()
        .map(|spec| {
            let raw: Vec<f64> = match spec.kind {
                ParamKind::Boolean => vec![0.0, 1.0],
                ParamKind::Continuous | ParamKind::Integer => (0..levels.max(1))
                    .map(|i| {
                        spec.min + (spec.max - spec.min) * (i as f64 + 0.5) / levels.max(1) as f64
                    })
                    .collect(),
            };
            // Snapping can collapse adjacent integer levels; keep distinct.
            let mut snapped: Vec<f64> = raw.into_iter().map(|v| spec.snap(v)).collect();
            snapped.dedup();
            snapped
        })
        .collect();
    let total: usize = axes.iter().map(Vec::len).product();
    let take = total.min(cap.max(1));
    let mut out = vec![AttackParams::defaults(attack).expect("space exists")];
    let mut seen: HashMap<String, ()> = HashMap::new();
    seen.insert(out[0].canonical_json(), ());
    for k in 0..take {
        // Fixed-stride subsample of the row-major product (covers the
        // whole grid evenly; k * total / take is strictly increasing).
        let mut index = k * total / take;
        let mut values = Vec::with_capacity(axes.len());
        for axis in axes.iter().rev() {
            values.push(axis[index % axis.len()]);
            index /= axis.len();
        }
        values.reverse();
        let params = AttackParams::from_values(attack, &values).expect("axis values are in space");
        if seen.insert(params.canonical_json(), ()).is_none() {
            out.push(params);
        }
    }
    out
}

/// Deterministic index pick in `[0, n)` from the campaign rng.
fn pick(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n)
}

/// Ranks archive indices by descending fitness, canonical JSON as the
/// tiebreak (total order ⇒ stable result across platforms).
fn ranked(archive: &[Candidate], indices: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut v: Vec<usize> = indices.collect();
    v.sort_by(|&a, &b| {
        archive[b]
            .fitness()
            .total_cmp(&archive[a].fitness())
            .then_with(|| {
                archive[a]
                    .params
                    .canonical_json()
                    .cmp(&archive[b].params.canonical_json())
            })
    });
    v
}

/// `a` strictly dominates `b` on (stealth, damage)?
fn dominates(a: &CandidateOutcome, b: &CandidateOutcome) -> bool {
    a.detection_score() < b.detection_score() && a.damage() > b.damage()
}

/// Non-dominated subset of the archive: no other candidate is at least as
/// stealthy *and* at least as damaging with one strict improvement.
fn pareto_frontier(archive: &[Candidate]) -> Vec<Candidate> {
    let mut frontier: Vec<Candidate> = archive
        .iter()
        .filter(|c| {
            !archive.iter().any(|other| {
                let (o, s) = (&other.outcome, &c.outcome);
                o.detection_score() <= s.detection_score()
                    && o.damage() >= s.damage()
                    && (o.detection_score() < s.detection_score() || o.damage() > s.damage())
            })
        })
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.outcome
            .detection_score()
            .total_cmp(&b.outcome.detection_score())
            .then(b.outcome.damage().total_cmp(&a.outcome.damage()))
            .then_with(|| a.params.canonical_json().cmp(&b.params.canonical_json()))
    });
    frontier
}

/// Searches one attack: grid pass, then `generations` rounds of
/// tournament-3 selection + Gaussian mutation over the survivor
/// population.
fn search_attack(
    attack: &str,
    config: &CampaignConfig,
    evaluator: &mut Evaluator,
) -> Result<AttackCampaign, String> {
    let spec_of = |params: &AttackParams| JobSpec::Campaign {
        params: params.clone(),
        quick: config.quick,
        seed: config.eval_seed,
    };
    let mut archive: Vec<Candidate> = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();

    // Phase 1: the coarse grid (defaults candidate first).
    let grid = grid_candidates(attack, config.grid_levels, config.grid_cap);
    let outcomes = evaluator.evaluate(grid.iter().map(&spec_of).collect())?;
    for (i, (params, outcome)) in grid.into_iter().zip(outcomes).enumerate() {
        seen.insert(params.canonical_json(), archive.len());
        archive.push(Candidate {
            params,
            origin: if i == 0 {
                "default".into()
            } else {
                "grid".into()
            },
            outcome,
        });
    }
    let best_grid_idx = ranked(&archive, 0..archive.len())[0];

    // Phase 2: evolutionary refinement. Every generation draws the same
    // number of rng samples whatever the evaluations said, so the stream
    // stays aligned across replays by construction.
    let mut rng = StdRng::seed_from_u64(config.campaign_seed ^ fnv1a(attack.as_bytes()));
    let mut population = ranked(&archive, 0..archive.len());
    population.truncate(config.population.max(1));
    for g in 0..config.generations {
        let sigma = config.sigma0 * SIGMA_DECAY.powi(g as i32);
        let mut children: Vec<AttackParams> = Vec::with_capacity(config.children_per_gen);
        for _ in 0..config.children_per_gen {
            // Tournament-3 over the survivor population.
            let parent = (0..3)
                .map(|_| population[pick(&mut rng, population.len())])
                .min_by(|&a, &b| {
                    archive[b]
                        .fitness()
                        .total_cmp(&archive[a].fitness())
                        .then_with(|| {
                            archive[a]
                                .params
                                .canonical_json()
                                .cmp(&archive[b].params.canonical_json())
                        })
                })
                .expect("tournament is non-empty");
            children.push(archive[parent].params.mutate(&mut rng, sigma));
        }
        // Only genuinely new points cost an evaluation; repeats (within
        // the generation or against the archive) are search no-ops.
        let mut fresh: Vec<AttackParams> = Vec::new();
        for child in children {
            let key = child.canonical_json();
            if !seen.contains_key(&key) && !fresh.iter().any(|f| f.canonical_json() == key) {
                fresh.push(child);
            }
        }
        let outcomes = evaluator.evaluate(fresh.iter().map(&spec_of).collect())?;
        for (params, outcome) in fresh.into_iter().zip(outcomes) {
            seen.insert(params.canonical_json(), archive.len());
            archive.push(Candidate {
                params,
                origin: format!("refine/g{g}"),
                outcome,
            });
        }
        population = ranked(&archive, 0..archive.len());
        population.truncate(config.population.max(1));
    }

    let best_grid = archive[best_grid_idx].clone();
    let refined: Vec<usize> = (0..archive.len())
        .filter(|&i| archive[i].origin.starts_with("refine/"))
        .collect();
    let best_refined = ranked(&archive, refined.iter().copied())
        .first()
        .map(|&i| archive[i].clone());
    let refined_dominates = refined
        .iter()
        .any(|&i| dominates(&archive[i].outcome, &best_grid.outcome));
    Ok(AttackCampaign {
        attack: attack.to_string(),
        cells: archive.len(),
        best_grid,
        best_refined,
        refined_dominates,
        frontier: pareto_frontier(&archive),
    })
}

/// Runs the whole campaign over the configured attacks.
pub fn run_campaign(
    config: &CampaignConfig,
    evaluator: &mut Evaluator,
) -> Result<CampaignReport, String> {
    let mut attacks = Vec::with_capacity(config.attacks.len());
    for attack in &config.attacks {
        attacks.push(search_attack(attack, config, evaluator)?);
    }
    Ok(CampaignReport {
        quick: config.quick,
        campaign_seed: config.campaign_seed,
        eval_seed: config.eval_seed,
        total_cells: attacks.iter().map(|a| a.cells).sum(),
        attacks,
    })
}

fn write_candidate(w: &mut json::Writer, c: &Candidate) {
    w.field_str("origin", &c.origin);
    w.field_obj("params", |w| {
        for (spec, &v) in c.params.space().iter().zip(c.params.values()) {
            w.field_f64(spec.name, v);
        }
    });
    c.outcome.write_fields(w);
}

/// Canonical JSON rendering of the campaign — the `CAMPAIGN_<label>.json`
/// document and the golden-snapshot input. Contains only deterministic
/// fields: cache hit counts and wall times never appear (they depend on
/// what a server happened to have cached).
pub fn to_canonical_json(report: &CampaignReport) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_str("campaign_seed", &report.campaign_seed.to_string());
        w.field_str("eval_seed", &report.eval_seed.to_string());
        w.field_bool("quick", report.quick);
        w.field_u64("total_cells", report.total_cells as u64);
        w.field_arr("attacks", |w| {
            for a in &report.attacks {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("attack", &a.attack);
                        w.field_u64("cells", a.cells as u64);
                        w.field_bool("refined_dominates", a.refined_dominates);
                        w.field_obj("best_grid", |w| write_candidate(w, &a.best_grid));
                        if let Some(r) = &a.best_refined {
                            w.field_obj("best_refined", |w| write_candidate(w, r));
                        }
                        w.field_arr("frontier", |w| {
                            for c in &a.frontier {
                                w.elem(|w| w.obj(|w| write_candidate(w, c)));
                            }
                        });
                    })
                });
            }
        });
    });
    w.finish()
}

/// Renders the campaign as an aligned text table (one row per attack).
pub fn render(report: &CampaignReport) -> platoon_core::tables::TextTable {
    use platoon_core::tables::{num, TextTable};
    let mut t = TextTable::new(
        "Adversarial campaign — tuned stealth vs damage per attack (default detector)",
        &[
            "Attack",
            "Cells",
            "Frontier",
            "Grid det/dmg",
            "Refined det/dmg",
            "Dominates?",
        ],
    );
    for a in &report.attacks {
        let g = &a.best_grid.outcome;
        let refined = a
            .best_refined
            .as_ref()
            .map(|r| {
                format!(
                    "{}/{}",
                    num(r.outcome.detection_score(), 1),
                    num(r.outcome.damage(), 2)
                )
            })
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            a.attack.clone(),
            a.cells.to_string(),
            a.frontier.len().to_string(),
            format!("{}/{}", num(g.detection_score(), 1), num(g.damage(), 2)),
            refined,
            if a.refined_dominates { "yes" } else { "no" }.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::harness::golden;
    use std::path::{Path, PathBuf};

    fn golden_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/campaign_quick.json")
    }

    #[test]
    fn grid_respects_cap_and_includes_defaults() {
        for attack in searchable_attacks() {
            let grid = grid_candidates(attack, 3, 10);
            assert!(grid.len() <= 11, "{attack}: {} cells", grid.len());
            assert_eq!(grid[0], AttackParams::defaults(attack).unwrap());
            let mut keys: Vec<String> = grid.iter().map(|p| p.canonical_json()).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), grid.len(), "{attack}: duplicate grid cells");
        }
    }

    #[test]
    fn quick_campaign_matches_golden_and_refinement_pays_off() {
        let config = CampaignConfig::new(true, EXPERIMENT_BASE_SEED);
        let mut evaluator = Evaluator::local(platoon_sim::harness::default_workers());
        let report = run_campaign(&config, &mut evaluator).expect("campaign runs");

        // A replay on the same evaluator must reproduce the document
        // byte-for-byte: the search resubmits exactly the same cells (all
        // now cache hits), and hit documents are canonical.
        let replay = run_campaign(&config, &mut evaluator).expect("replay runs");
        assert_eq!(
            to_canonical_json(&replay),
            to_canonical_json(&report),
            "same campaign seed must replay byte-identically"
        );

        for a in &report.attacks {
            assert!(!a.frontier.is_empty(), "{}: empty frontier", a.attack);
            assert!(a.cells >= 2, "{}: degenerate search", a.attack);
        }
        // The acceptance bar: refinement must beat the grid outright
        // somewhere — lower detection score AND higher damage.
        assert!(
            report.attacks.iter().any(|a| a.refined_dominates),
            "no refined candidate strictly dominates its grid best: {}",
            render(&report).render()
        );

        golden::assert_matches(&golden_path(), &to_canonical_json(&report));
    }
}
