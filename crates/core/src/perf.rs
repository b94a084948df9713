//! The perf grid: a fixed scenario × seed grid run through the experiment
//! harness, recording the engine's deterministic [`PerfCounters`] per cell
//! in a canonical-JSON `BENCH_<label>.json` document.
//!
//! Cell seeds derive from the cell labels
//! ([`platoon_sim::harness::derive_seed`]), so the document is
//! byte-identical across worker counts and machines. It is compared exactly
//! against `tests/golden/bench_counters.json`: any drift means the engine's
//! work content changed, and intended changes refresh the golden with
//! `UPDATE_GOLDEN=1`. Nothing here reads a clock; wall time is measured by
//! the `perfbench/` package, parent commit against change.
//!
//! The root binary's `perf` command ([`COMMAND`]) runs the grid and writes
//! the document; the golden is checked by this module's test.

use platoon_detect::pipeline::PipelineConfig;
use platoon_sim::cli::{self, Args, Command, Exit};
use platoon_sim::engine::Engine;
use platoon_sim::harness::{json, Batch};
use platoon_sim::perf::PerfCounters;
use platoon_sim::prelude::{AuthMode, CommsMode, ControllerKind, Scenario};

/// Base seed of the perf grid; cell seeds derive from it and the labels.
pub const PERF_BASE_SEED: u64 = 0xBE2C;

/// One cell of the perf grid: a scenario plus whether the detection
/// pipeline rides along (it changes what the hot path does, so the grid
/// covers both).
struct CellSpec {
    label: &'static str,
    controller: ControllerKind,
    auth: AuthMode,
    comms: CommsMode,
    detect: bool,
}

/// The fixed grid: controller and auth variety on the plain DSRC path,
/// the two hybrid modes (payload sharing across channels, VLC relaying),
/// and one cell with the full detection pipeline attached.
const GRID: &[CellSpec] = &[
    CellSpec {
        label: "perf/acc/none/dsrc",
        controller: ControllerKind::Acc,
        auth: AuthMode::None,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/none/dsrc",
        controller: ControllerKind::Cacc,
        auth: AuthMode::None,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/ploeg/none/dsrc",
        controller: ControllerKind::Ploeg,
        auth: AuthMode::None,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/pki/dsrc",
        controller: ControllerKind::Cacc,
        auth: AuthMode::Pki,
        comms: CommsMode::DsrcOnly,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/mac/vlc",
        controller: ControllerKind::Cacc,
        auth: AuthMode::GroupMac,
        comms: CommsMode::HybridVlc,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/mac/cv2x",
        controller: ControllerKind::Cacc,
        auth: AuthMode::GroupMac,
        comms: CommsMode::HybridCv2x,
        detect: false,
    },
    CellSpec {
        label: "perf/cacc/pki/dsrc+detect",
        controller: ControllerKind::Cacc,
        auth: AuthMode::Pki,
        comms: CommsMode::DsrcOnly,
        detect: true,
    },
];

/// One grid cell's result.
#[derive(Clone, Debug)]
pub struct PerfCell {
    /// The cell label (seed derivation input).
    pub label: String,
    /// The derived seed the cell ran with.
    pub seed: u64,
    /// The engine's deterministic work counters.
    pub counters: PerfCounters,
}

/// A completed perf run: every grid cell plus aggregate totals.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Document label: `quick` or `full`.
    pub label: String,
    /// The grid base seed.
    pub base_seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<PerfCell>,
    /// Counter totals across all cells.
    pub totals: PerfCounters,
}

/// The grid's cell labels, in grid order. Public so the job service can
/// enumerate the perf grid without re-deriving it.
pub fn cell_labels() -> Vec<&'static str> {
    GRID.iter().map(|spec| spec.label).collect()
}

/// One cell's engine run, reduced to its work counters.
fn run_cell_spec(spec: &CellSpec, quick: bool, seed: u64) -> PerfCounters {
    let (vehicles, duration) = if quick { (4, 20.0) } else { (8, 120.0) };
    let mut scenario = Scenario::builder()
        .label(spec.label)
        .vehicles(vehicles)
        .controller(spec.controller)
        .auth(spec.auth)
        .comms(spec.comms)
        .duration(duration)
        .build();
    scenario.seed = seed;
    let mut engine = Engine::new(scenario);
    if spec.detect {
        engine.attach_detector_config(PipelineConfig::default_profile());
    }
    engine.run();
    *engine.perf()
}

/// Runs a single grid cell by label with the grid's canonical label-derived
/// seed, returning `(seed, counters)`. `None` for an unknown label. Public
/// for the job service.
pub fn run_cell(label: &str, quick: bool) -> Option<(u64, PerfCounters)> {
    let spec = GRID.iter().find(|spec| spec.label == label)?;
    let seed = platoon_sim::harness::derive_seed(label, PERF_BASE_SEED);
    Some((seed, run_cell_spec(spec, quick, seed)))
}

/// Runs the perf grid on `workers` batch workers. `quick` shrinks the
/// per-cell duration so the whole grid finishes in seconds.
pub fn run(quick: bool, workers: usize) -> PerfReport {
    let mut batch: Batch<PerfCounters> = Batch::new(PERF_BASE_SEED);
    for spec in GRID {
        batch.push(spec.label, move |seed| run_cell_spec(spec, quick, seed));
    }

    let mut totals = PerfCounters::default();
    let cells = batch
        .run(workers)
        .into_iter()
        .map(|entry| {
            totals.accumulate(&entry.value);
            PerfCell {
                label: entry.label,
                seed: entry.seed,
                counters: entry.value,
            }
        })
        .collect();

    PerfReport {
        label: if quick { "quick" } else { "full" }.to_string(),
        base_seed: PERF_BASE_SEED,
        cells,
        totals,
    }
}

impl PerfReport {
    /// The canonical document: labels, seeds and counters. Byte-identical
    /// for every worker count and machine; this is what the checked-in
    /// counters golden pins.
    pub fn counters_document(&self) -> String {
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_u64("base_seed", self.base_seed);
            w.field_arr("cells", |w| {
                for c in &self.cells {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("label", &c.label);
                            w.field_u64("seed", c.seed);
                            w.field_obj("perf", |w| c.counters.write_canonical(w));
                        })
                    });
                }
            });
            w.field_obj("totals", |w| self.totals.write_canonical(w));
        });
        w.finish()
    }
}

/// The `perf` subcommand: writes the counters document.
pub const COMMAND: Command = Command {
    name: "perf",
    summary: "the perf grid's work counters, written to BENCH_<label>.json",
    operands: &[],
    flags: &[cli::QUICK, cli::WORKERS, cli::OUT],
    run: cli_main,
};

fn cli_main(args: &mut Args) -> Result<(), Exit> {
    let workers = args.workers()?;
    eprintln!(
        "running perf grid ({} effort, {workers} workers)...",
        args.label()
    );
    let report = run(args.quick(), workers);
    args.write(
        &format!("BENCH_{}.json", report.label),
        report.counters_document(),
    )?;
    eprintln!("{} cells", report.cells.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::harness::golden;

    #[test]
    fn quick_grid_counters_are_worker_count_invariant() {
        let one = run(true, 1);
        let eight = run(true, 8);
        assert_eq!(one.counters_document(), eight.counters_document());
        assert_eq!(one.totals, eight.totals);
        // The hot path really did avoid clones somewhere in the grid (the
        // hybrid cells share payloads across channels).
        assert!(one.totals.payload_clones_avoided > 0);
        assert!(one.totals.frames_built > 0);
        // The detect cell contributed pipeline observations.
        assert!(one.totals.detector_observations > 0);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/bench_counters.json");
        golden::assert_matches(&path, &one.counters_document());
    }
}
