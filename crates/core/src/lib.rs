//! # platoon-core
//!
//! The synthesis layer of the reproduction of Taylor et al., *"Vehicular
//! Platoon Communication: Cybersecurity Threats and Open Challenges"*
//! (DSN-W 2021): taxonomy registries, the risk-assessment framework, and
//! the experiment runner that regenerates every table and figure.
//!
//! * [`surveys`] — Table I (related surveys) as data, with the coverage
//!   matrix behind the paper's gap analysis.
//! * [`risk`] — the ISO/SAE 21434-style TARA answering the paper's §VI-B.4
//!   open challenge for the full attack catalogue.
//! * [`experiments`] — T2/T3 (the measured Tables II and III), T4 (the
//!   detection-quality table for the `platoon-detect` pipeline) and F1–F10
//!   (the per-attack impact sweeps); see DESIGN.md §3 for the index.
//! * [`tables`] — plain-text table rendering.
//! * [`perf`] — the machine-readable perf pipeline: the fixed scenario grid
//!   behind `BENCH_*.json`, the counters golden and the CI wall-time gate.
//! * [`report`] — every table and figure as one text report
//!   (`cargo run --release -- report`).
//!
//! # Examples
//!
//! Regenerate the risk table and a quick Table II measurement:
//!
//! ```no_run
//! use platoon_core::risk;
//! use platoon_core::experiments::table2;
//!
//! println!("{}", risk::render_risk_table().render());
//! let rows = table2::run(true);
//! println!("{}", table2::render(&rows).render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod report;
pub mod risk;
pub mod surveys;
pub mod tables;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::experiments::{
        ablations, common::Effort, figures, privacy, table2, table3, table4, Figure, Series,
    };
    pub use crate::risk::{
        assessment, render_risk_table, Feasibility, FeasibilityClass, Impact, RiskEntry, RiskLevel,
    };
    pub use crate::surveys::{catalog as survey_catalog, render_coverage_matrix, render_table1};
    pub use crate::tables::{num, TextTable};
}
