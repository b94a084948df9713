//! The benign-fault hook trait.
//!
//! Attacks model adversaries; **faults** model the environment misbehaving on
//! its own — rain fade, a flaky radar, an RSU power cut. The paper's open
//! challenges (§VI-B) call for evaluating platoon security under exactly these
//! degraded-but-honest conditions, because a detector that cannot tell a
//! benign fault from an attack is operationally useless.
//!
//! A [`Fault`] is a deterministic world mutator: the engine calls
//! [`Fault::apply`] at the start of every communication step (before any
//! [`Attack`](crate::attack::Attack) hook) and [`Fault::restore`] once when
//! the run finishes, so scoped faults can guarantee they leave the world as
//! they found it even when a run ends mid-window.
//!
//! Concrete faults (burst packet loss, noise-floor ramps, sensor outages,
//! clock skew, RSU blackouts) and the seed-derived `FaultSchedule` live in
//! the `platoon-faults` crate; the trait lives here so the engine can host
//! them without a dependency cycle.

use crate::world::World;
use std::fmt::Debug;

/// A pluggable benign fault.
///
/// Faults receive **no RNG**: all nondeterminism must be baked into the
/// fault's own state when it is constructed (e.g. from a seed-derived
/// schedule), so a run with faults stays bit-reproducible for a seed and
/// worker-count invariant in batch grids.
pub trait Fault: Debug {
    /// Short stable identifier, used in labels and reports.
    fn name(&self) -> &'static str;

    /// Mutates the world at the start of the step beginning at time `now`.
    ///
    /// Called before any attack's `before_comm`, every communication step.
    /// Implementations that toggle state on window boundaries should save
    /// whatever they overwrite and put it back when the window closes.
    fn apply(&mut self, world: &mut World, now: f64);

    /// Undoes any still-active mutation.
    ///
    /// Called by [`Engine::run`](crate::engine::Engine::run) after the step
    /// loop (and available to manual steppers via
    /// [`Engine::restore_faults`](crate::engine::Engine::restore_faults)).
    /// Must be idempotent: the default does nothing.
    fn restore(&mut self, world: &mut World) {
        let _ = world;
    }

    /// Clones the fault (including accumulated delta/saved state) into a
    /// fresh box, for engine snapshots.
    fn clone_box(&self) -> Box<dyn Fault>;
}

impl Clone for Box<dyn Fault> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The no-op fault (a placeholder analogous to
/// [`NoAttack`](crate::attack::NoAttack)).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFault;

impl Fault for NoFault {
    fn name(&self) -> &'static str {
        "none"
    }

    fn apply(&mut self, _world: &mut World, _now: f64) {}

    fn clone_box(&self) -> Box<dyn Fault> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::{Engine, Scenario, TraceRecorder};

    /// A fault that raises the noise floor for the whole run and restores it
    /// at the end — the minimal scoped-mutation shape concrete faults follow.
    #[derive(Clone, Debug)]
    struct NoisyRun {
        saved: Option<f64>,
    }

    impl Fault for NoisyRun {
        fn name(&self) -> &'static str {
            "noisy-run"
        }
        fn apply(&mut self, world: &mut World, _now: f64) {
            if self.saved.is_none() {
                self.saved = Some(world.medium.dsrc.noise_floor_dbm);
                world.medium.dsrc.noise_floor_dbm += 20.0;
            }
        }
        fn restore(&mut self, world: &mut World) {
            if let Some(saved) = self.saved.take() {
                world.medium.dsrc.noise_floor_dbm = saved;
            }
        }
        fn clone_box(&self) -> Box<dyn Fault> {
            Box::new(self.clone())
        }
    }

    fn quick(label: &str) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(4)
            .duration(10.0)
            .seed(9)
            .build()
    }

    #[test]
    fn faults_run_every_step_and_are_restored_after_run() {
        let mut engine = Engine::new(quick("fault-hook"));
        let clean_floor = engine.world().medium.dsrc.noise_floor_dbm;
        engine.add_fault(Box::new(NoisyRun { saved: None }));
        engine.attach_tracer(TraceRecorder::new());
        engine.run();
        let applied = engine
            .take_tracer()
            .expect("tracer attached above")
            .lines()
            .iter()
            .filter(|line| line.contains("\"fault_applied\""))
            .count();
        assert_eq!(applied as u64, engine.steps_run());
        assert_eq!(
            engine.world().medium.dsrc.noise_floor_dbm,
            clean_floor,
            "the run must hand the world back unmodified"
        );
    }

    #[test]
    fn faults_degrade_the_channel_before_attacks_see_it() {
        let clean = Engine::new(quick("fault-clean")).run();
        let mut engine = Engine::new(quick("fault-clean"));
        engine.add_fault(Box::new(NoisyRun { saved: None }));
        let faulty = engine.run();
        assert!(
            faulty.leader_tail_pdr < clean.leader_tail_pdr,
            "+20 dB noise floor must cost deliveries: {} !< {}",
            faulty.leader_tail_pdr,
            clean.leader_tail_pdr
        );
    }

    #[test]
    fn restore_faults_is_idempotent_and_manual_steppers_can_call_it() {
        let mut engine = Engine::new(quick("fault-manual"));
        let clean_floor = engine.world().medium.dsrc.noise_floor_dbm;
        engine.add_fault(Box::new(NoisyRun { saved: None }));
        engine.step();
        assert!(engine.world().medium.dsrc.noise_floor_dbm > clean_floor);
        engine.restore_faults();
        engine.restore_faults();
        assert_eq!(engine.world().medium.dsrc.noise_floor_dbm, clean_floor);
    }

    #[test]
    fn no_fault_is_a_no_op() {
        let mut engine = Engine::new(quick("fault-noop"));
        engine.add_fault(Box::new(NoFault));
        let with = engine.run();
        let without = Engine::new(quick("fault-noop")).run();
        assert_eq!(with, without);
    }
}
