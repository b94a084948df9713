//! # platoon-faults
//!
//! First-class **benign fault injection** for the platoon simulator.
//!
//! The paper's open challenges (§VI-B) ask how platoon security mechanisms
//! behave under *realistic degraded conditions* — rain fade, flaky sensors,
//! infrastructure outages — not just on clean channels. Ghosh et al.'s
//! detection-isolation work sharpens the point: a detector that cannot tell
//! a benign fault from an attack is operationally useless. This crate turns
//! what used to be ad-hoc `Attack`-trait hacks in the integration tests into
//! a composable subsystem, so any experiment cell can run
//! attack × defense × fault.
//!
//! * [`FaultWindow`] — a half-open `[start, end)` activity interval.
//! * [`faults`] — the concrete taxonomy: [`BurstPacketLoss`],
//!   [`NoiseFloorRamp`], [`SensorOutage`], [`ClockSkew`], [`RsuBlackout`].
//!   Every fault is *scoped*: whatever world state it overwrites is saved
//!   and guaranteed restored, either when its window closes or at
//!   end-of-run via [`Fault::restore`].
//! * [`schedule`] — [`FaultSchedule`]: a deterministic, seed-derived mix of
//!   the above, installable on an [`Engine`](platoon_sim::prelude::Engine)
//!   in one call. Same seed, same schedule — batch grids stay worker-count
//!   invariant.
//!
//! The [`Fault`] hook trait itself lives in [`platoon_sim::fault`] (so the
//! engine can host faults without a dependency cycle) and is re-exported
//! here.
//!
//! # Examples
//!
//! ```
//! use platoon_faults::{BurstPacketLoss, FaultWindow};
//! use platoon_sim::prelude::*;
//!
//! let scenario = Scenario::builder()
//!     .label("rain-fade")
//!     .vehicles(5)
//!     .duration(20.0)
//!     .build();
//! let mut engine = Engine::new(scenario);
//! engine.add_fault(Box::new(BurstPacketLoss::new(
//!     vec![FaultWindow::new(5.0, 10.0)],
//!     25.0,
//! )));
//! let summary = engine.run();
//! assert_eq!(summary.collisions, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod schedule;
pub mod window;

pub use faults::{
    BurstPacketLoss, ClockSkew, NoiseFloorRamp, RsuBlackout, SensorChannel, SensorOutage,
};
pub use platoon_sim::fault::{Fault, NoFault};
pub use schedule::FaultSchedule;
pub use window::FaultWindow;
