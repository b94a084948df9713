//! # platoon-bench
//!
//! Criterion timing of the simulator, crypto substrate and experiment
//! suite (`cargo bench -p platoon-bench`). The table and figure report is
//! the root binary's `report` command.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use platoon_sim::harness::{Batch, BatchReport};
use platoon_sim::prelude::{AuthMode, ControllerKind, RunSummary, Scenario};

/// Base seed of the canonical benchmark batch ([`bench_batch`]).
pub const BENCH_BASE_SEED: u64 = 77;

/// The canonical benchmark batch: a controller × auth sweep of short runs,
/// sized so worker-count scaling is visible without dominating `cargo bench`.
/// Seeds derive from the cell labels, so the resulting [`BatchReport`] is
/// identical for every worker count — which [`bench_report`]'s callers (and
/// the `harness` bench group) rely on when comparing timings.
pub fn bench_batch() -> Batch<RunSummary> {
    let mut batch = Batch::new(BENCH_BASE_SEED);
    for controller in [
        ControllerKind::Acc,
        ControllerKind::Cacc,
        ControllerKind::Ploeg,
    ] {
        for auth in [AuthMode::None, AuthMode::Pki] {
            batch.push_scenario(
                Scenario::builder()
                    .label(format!("bench/{controller:?}/{auth:?}"))
                    .vehicles(4)
                    .controller(controller)
                    .auth(auth)
                    .duration(10.0)
                    .build(),
            );
        }
    }
    batch
}

/// Runs [`bench_batch`] on `workers` threads and returns the report.
pub fn bench_report(workers: usize) -> BatchReport {
    bench_batch().run_report(workers)
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_batch_report_is_worker_count_invariant() {
        let serial = super::bench_report(1).to_canonical_json();
        let parallel = super::bench_report(4).to_canonical_json();
        assert_eq!(serial, parallel);
    }
}
