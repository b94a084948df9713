//! # platoon-dataset
//!
//! The ML dataset factory (ROADMAP item 4): turns deterministic simulation
//! runs into the labeled per-beacon dataset that Iqbal et al. argue the
//! VANET-security field lacks, and closes the loop with an honest
//! learned-vs-engineered detector comparison.
//!
//! * [`columnar`] — the compact columnar binary shard format: canonical
//!   JSON header, column-major `f32` feature columns, `u32` cell and `u8`
//!   label columns, trailing FNV-1a digest. Built to sustain
//!   corridor-scale worlds — no per-row JSON anywhere.
//! * [`factory`] — the export grid: one cell per (attack arm × seed), run
//!   on the deterministic [`Batch`](platoon_sim::harness::Batch) harness
//!   (byte-identical shards at any worker count), rows labeled from
//!   [`TruthLabels`](platoon_sim::metrics::TruthLabels), deterministic
//!   seed-split train/test shards, logistic-regression training on the
//!   train split, and Table IV-style scoring of the learned detector
//!   head-to-head with the rule-based pipeline.
//! * [`cli`] — the `dataset` subcommand: writes the shards plus the
//!   canonical `DATASET_<label>.json` summary (golden-pinned by its test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod columnar;
pub mod factory;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::columnar::{CellBlock, Shard};
    pub use crate::factory::{evaluate, run_with, DatasetReport, EvalMetrics};
}
