//! The concrete benign-fault taxonomy.
//!
//! Every fault here is **scoped**: it tracks exactly what it changed in the
//! world and undoes it, either when its activity window closes or — if the
//! run ends mid-window — in [`Fault::restore`], which
//! [`Engine::run`](platoon_sim::prelude::Engine::run) calls after the step
//! loop. Channel faults apply *deltas* to the noise floor rather than
//! overwriting it, so they compose with jamming attacks and with each other.

use crate::window::{any_active, FaultWindow};
use platoon_dynamics::sensors::SensorFault;
use platoon_sim::fault::Fault;
use platoon_sim::world::{Rsu, World};
use platoon_v2x::vlc::VLC_OUTAGE_PER_DB;

/// Rain-fade style burst packet loss: raises the DSRC noise floor by a fixed
/// number of dB while any window is active.
#[derive(Clone, Debug)]
pub struct BurstPacketLoss {
    windows: Vec<FaultWindow>,
    extra_noise_dbm: f64,
    applied: bool,
}

impl BurstPacketLoss {
    /// A burst-loss fault active during `windows`, adding `extra_noise_dbm`
    /// (typically 15–30 dB: enough to drop most frames at platoon ranges).
    pub fn new(windows: Vec<FaultWindow>, extra_noise_dbm: f64) -> Self {
        BurstPacketLoss {
            windows,
            extra_noise_dbm,
            applied: false,
        }
    }
}

impl Fault for BurstPacketLoss {
    fn name(&self) -> &'static str {
        "burst-loss"
    }

    fn apply(&mut self, world: &mut World, now: f64) {
        let active = any_active(&self.windows, now);
        if active && !self.applied {
            world.medium.dsrc.noise_floor_dbm += self.extra_noise_dbm;
            self.applied = true;
        } else if !active && self.applied {
            world.medium.dsrc.noise_floor_dbm -= self.extra_noise_dbm;
            self.applied = false;
        }
    }

    fn restore(&mut self, world: &mut World) {
        if self.applied {
            world.medium.dsrc.noise_floor_dbm -= self.extra_noise_dbm;
            self.applied = false;
        }
    }

    fn clone_box(&self) -> Box<dyn Fault> {
        Box::new(self.clone())
    }
}

/// A slow channel degradation: the noise environment climbs linearly from
/// `start` at `rate_db_per_s`, capped at `cap_db` above its base value.
/// The dB figure raises the DSRC noise floor directly and degrades the
/// optical channel too, at [`VLC_OUTAGE_PER_DB`] ambient-outage
/// probability per dB (the optical link has no RF noise floor to raise),
/// so a hybrid DSRC+VLC platoon driving into fog loses both links.
///
/// Models the gradual onsets (weather fronts, growing interference) that
/// threshold detectors confuse with low-power jamming.
#[derive(Clone, Debug)]
pub struct NoiseFloorRamp {
    start: f64,
    rate_db_per_s: f64,
    cap_db: f64,
    applied_db: f64,
    applied_outage: f64,
}

impl NoiseFloorRamp {
    /// A ramp beginning at `start` seconds, climbing `rate_db_per_s` up to
    /// `cap_db` total, degrading every active medium.
    pub fn new(start: f64, rate_db_per_s: f64, cap_db: f64) -> Self {
        NoiseFloorRamp {
            start,
            rate_db_per_s,
            cap_db,
            applied_db: 0.0,
            applied_outage: 0.0,
        }
    }
}

impl Fault for NoiseFloorRamp {
    fn name(&self) -> &'static str {
        "noise-ramp"
    }

    fn apply(&mut self, world: &mut World, now: f64) {
        let target_db = if now < self.start {
            0.0
        } else {
            (self.rate_db_per_s * (now - self.start)).clamp(0.0, self.cap_db)
        };
        world.medium.dsrc.noise_floor_dbm += target_db - self.applied_db;
        self.applied_db = target_db;
        let outage = target_db * VLC_OUTAGE_PER_DB;
        world.medium.vlc.ambient_outage_prob += outage - self.applied_outage;
        self.applied_outage = outage;
    }

    fn restore(&mut self, world: &mut World) {
        world.medium.dsrc.noise_floor_dbm -= self.applied_db;
        self.applied_db = 0.0;
        world.medium.vlc.ambient_outage_prob -= self.applied_outage;
        self.applied_outage = 0.0;
    }

    fn clone_box(&self) -> Box<dyn Fault> {
        Box::new(self.clone())
    }
}

/// Which on-board sensor a [`SensorOutage`] silences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SensorChannel {
    /// The forward radar.
    Radar,
    /// The GPS receiver.
    Gps,
    /// The forward LiDAR.
    Lidar,
}

/// A scoped sensor outage: one vehicle's sensor reads nothing while any
/// window is active.
///
/// Unlike the old test-local `RadarFlaker` hack, the outage *saves whatever
/// fault state the sensor already carried* (e.g. a bias injected by an
/// attack) and puts it back when the window closes — or at end-of-run if
/// the run stops mid-window — so no fault state ever leaks out of the run.
#[derive(Clone, Debug)]
pub struct SensorOutage {
    vehicle: usize,
    channel: SensorChannel,
    windows: Vec<FaultWindow>,
    saved: Option<SensorFault>,
}

impl SensorOutage {
    /// An outage of `vehicle`'s `channel` sensor during `windows`.
    pub fn new(vehicle: usize, channel: SensorChannel, windows: Vec<FaultWindow>) -> Self {
        SensorOutage {
            vehicle,
            channel,
            windows,
            saved: None,
        }
    }

    /// Convenience: a radar outage (the common degraded-sensing case).
    pub fn radar(vehicle: usize, windows: Vec<FaultWindow>) -> Self {
        SensorOutage::new(vehicle, SensorChannel::Radar, windows)
    }

    fn slot<'w>(&self, world: &'w mut World) -> Option<&'w mut SensorFault> {
        let v = world.vehicles.get_mut(self.vehicle)?;
        Some(match self.channel {
            SensorChannel::Radar => &mut v.sensors.radar.fault,
            SensorChannel::Gps => &mut v.sensors.gps.fault,
            SensorChannel::Lidar => &mut v.sensors.lidar.fault,
        })
    }
}

impl Fault for SensorOutage {
    fn name(&self) -> &'static str {
        "sensor-outage"
    }

    fn apply(&mut self, world: &mut World, now: f64) {
        let active = any_active(&self.windows, now);
        let saved = self.saved;
        let Some(slot) = self.slot(world) else { return };
        if active && saved.is_none() {
            self.saved = Some(*slot);
            *slot = SensorFault::Outage;
        } else if !active {
            if let Some(prior) = saved {
                *slot = prior;
                self.saved = None;
            }
        }
    }

    fn restore(&mut self, world: &mut World) {
        let saved = self.saved;
        if let (Some(prior), Some(slot)) = (saved, self.slot(world)) {
            *slot = prior;
            self.saved = None;
        }
    }

    fn clone_box(&self) -> Box<dyn Fault> {
        Box::new(self.clone())
    }
}

/// A drifting local clock: from `start` on, the victim perceives stored
/// beacons as progressively older (its receive timestamps age at
/// `skew_s_per_s` extra seconds per simulated second).
///
/// Degrades communication *freshness* without touching the channel — the
/// failure mode that trips beacon-age plausibility checks. The mutation is
/// transient (fresh beacons overwrite the stored state every step), so
/// there is nothing to undo at end-of-run.
#[derive(Clone, Debug)]
pub struct ClockSkew {
    vehicle: usize,
    start: f64,
    skew_s_per_s: f64,
    last_now: Option<f64>,
}

impl ClockSkew {
    /// A clock-skew fault on `vehicle` beginning at `start` seconds.
    pub fn new(vehicle: usize, start: f64, skew_s_per_s: f64) -> Self {
        ClockSkew {
            vehicle,
            start,
            skew_s_per_s,
            last_now: None,
        }
    }
}

impl Fault for ClockSkew {
    fn name(&self) -> &'static str {
        "clock-skew"
    }

    fn apply(&mut self, world: &mut World, now: f64) {
        if now < self.start {
            return;
        }
        let dt = self.last_now.map_or(0.0, |t| (now - t).max(0.0));
        self.last_now = Some(now);
        if dt <= 0.0 {
            return;
        }
        let shift = self.skew_s_per_s * dt;
        if let Some(v) = world.vehicles.get_mut(self.vehicle) {
            if let Some(h) = v.comm.predecessor.as_mut() {
                h.heard_at -= shift;
            }
            if let Some(h) = v.comm.leader.as_mut() {
                h.heard_at -= shift;
            }
        }
    }

    fn restore(&mut self, _world: &mut World) {
        // Nothing to undo: the backdating is transient (fresh beacons
        // overwrite the stored timestamps every step). Critically,
        // `last_now` must survive restore — `restore_faults` may run
        // mid-run (manual steppers, snapshot bookkeeping), and resetting
        // the reference would swallow one tick's worth of skew on the
        // next `apply`, diverging a restored-then-stepped run from an
        // uninterrupted one.
    }

    fn clone_box(&self) -> Box<dyn Fault> {
        Box::new(self.clone())
    }
}

/// An infrastructure power cut: every RSU disappears from the world while a
/// window is active and reappears — exactly as it was — afterwards.
#[derive(Clone, Debug)]
pub struct RsuBlackout {
    windows: Vec<FaultWindow>,
    saved: Option<Vec<Rsu>>,
}

impl RsuBlackout {
    /// A blackout of all RSUs during `windows`.
    pub fn new(windows: Vec<FaultWindow>) -> Self {
        RsuBlackout {
            windows,
            saved: None,
        }
    }
}

impl Fault for RsuBlackout {
    fn name(&self) -> &'static str {
        "rsu-blackout"
    }

    fn apply(&mut self, world: &mut World, now: f64) {
        let active = any_active(&self.windows, now);
        if active && self.saved.is_none() {
            self.saved = Some(std::mem::take(&mut world.rsus));
        } else if !active {
            if let Some(rsus) = self.saved.take() {
                world.rsus = rsus;
            }
        }
    }

    fn restore(&mut self, world: &mut World) {
        if let Some(rsus) = self.saved.take() {
            world.rsus = rsus;
        }
    }

    fn clone_box(&self) -> Box<dyn Fault> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::prelude::*;

    fn quick(label: &str) -> ScenarioBuilder {
        Scenario::builder()
            .label(label)
            .vehicles(5)
            .duration(20.0)
            .seed(31)
    }

    /// Channel faults restore by subtracting the delta they added, so the
    /// floor comes back to within FP rounding (~1e-13 dB), not bit-exactly.
    fn assert_close(a: f64, b: f64, what: &str) {
        assert!((a - b).abs() < 1e-9, "{what}: {a} vs {b}");
    }

    #[test]
    fn burst_loss_drops_frames_then_hands_the_channel_back() {
        let clean = Engine::new(quick("burst").build()).run();
        let mut engine = Engine::new(quick("burst").build());
        let clean_floor = engine.world().medium.dsrc.noise_floor_dbm;
        engine.add_fault(Box::new(BurstPacketLoss::new(
            vec![FaultWindow::new(5.0, 12.0)],
            25.0,
        )));
        let faulty = engine.run();
        assert!(
            faulty.leader_tail_pdr < clean.leader_tail_pdr,
            "a 25 dB burst must cost deliveries: {} !< {}",
            faulty.leader_tail_pdr,
            clean.leader_tail_pdr
        );
        assert_close(
            engine.world().medium.dsrc.noise_floor_dbm,
            clean_floor,
            "noise floor restored after the window",
        );
        assert_eq!(faulty.collisions, 0, "benign faults must not crash trucks");
    }

    #[test]
    fn burst_loss_restores_even_when_the_run_ends_mid_window() {
        let mut engine = Engine::new(quick("burst-open").build());
        let clean_floor = engine.world().medium.dsrc.noise_floor_dbm;
        // Window extends past the end of the run: only `restore` can undo it.
        engine.add_fault(Box::new(BurstPacketLoss::new(
            vec![FaultWindow::new(5.0, 1e9)],
            25.0,
        )));
        engine.run();
        assert_close(
            engine.world().medium.dsrc.noise_floor_dbm,
            clean_floor,
            "end-of-run restore closes the still-open window",
        );
    }

    #[test]
    fn noise_ramp_degrades_gradually_and_restores() {
        let mut engine = Engine::new(quick("ramp").build());
        let clean_floor = engine.world().medium.dsrc.noise_floor_dbm;
        engine.add_fault(Box::new(NoiseFloorRamp::new(2.0, 1.0, 14.0)));
        for _ in 0..60 {
            engine.step();
        }
        let mid = engine.world().medium.dsrc.noise_floor_dbm - clean_floor;
        assert!(
            (3.0..=4.1).contains(&mid),
            "at t=6s a 1 dB/s ramp from t=2s sits near +4 dB, got {mid}"
        );
        for _ in 0..140 {
            engine.step();
        }
        let late = engine.world().medium.dsrc.noise_floor_dbm - clean_floor;
        assert!((13.9..=14.1).contains(&late), "cap reached, got {late}");
        engine.restore_faults();
        assert_close(
            engine.world().medium.dsrc.noise_floor_dbm,
            clean_floor,
            "ramp contribution removed",
        );
    }

    #[test]
    fn sensor_outage_saves_and_restores_prior_fault_state() {
        use platoon_dynamics::sensors::SensorFault;
        let mut engine = Engine::new(quick("outage").build());
        // The victim's radar already carries a bias (say, from an attack or
        // a prior fault): the outage must not erase it.
        engine.world_mut().vehicles[2].sensors.radar.fault = SensorFault::Bias { offset: 0.7 };
        engine.add_fault(Box::new(SensorOutage::radar(
            2,
            vec![FaultWindow::new(4.0, 9.0)],
        )));
        // Step into the window.
        for _ in 0..50 {
            engine.step();
        }
        assert_eq!(
            engine.world().vehicles[2].sensors.radar.fault,
            SensorFault::Outage,
            "outage active inside the window"
        );
        // Step past the window close.
        for _ in 0..50 {
            engine.step();
        }
        assert_eq!(
            engine.world().vehicles[2].sensors.radar.fault,
            SensorFault::Bias { offset: 0.7 },
            "the pre-existing fault state comes back"
        );
    }

    #[test]
    fn sensor_outage_restores_when_the_run_ends_mid_window() {
        use platoon_dynamics::sensors::SensorFault;
        let mut engine = Engine::new(quick("outage-open").build());
        engine.add_fault(Box::new(SensorOutage::radar(
            3,
            vec![FaultWindow::new(4.0, 1e9)],
        )));
        let summary = engine.run();
        assert_eq!(
            engine.world().vehicles[3].sensors.radar.fault,
            SensorFault::None,
            "end-of-run restore closes the still-open window"
        );
        assert_eq!(summary.collisions, 0);
    }

    #[test]
    fn clock_skew_backdates_stored_beacons() {
        let mut engine = Engine::new(quick("skew-mech").build());
        let victim = engine.world().vehicles.len() - 1;
        // Let the platoon exchange beacons so the tail has a stored leader.
        for _ in 0..50 {
            engine.step();
        }
        let before = engine.world().vehicles[victim]
            .comm
            .leader
            .expect("tail heard the leader")
            .heard_at;
        let now = engine.world().time;
        let mut skew = ClockSkew::new(victim, 0.0, 2.0);
        skew.apply(engine.world_mut(), now); // establishes the reference
        skew.apply(engine.world_mut(), now + 0.1);
        let after = engine.world().vehicles[victim]
            .comm
            .leader
            .unwrap()
            .heard_at;
        assert_close(before - after, 0.2, "2 s/s over 0.1 s backdates 0.2 s");
    }

    #[test]
    fn clock_skew_amplifies_staleness_under_loss() {
        // On a clean channel fresh beacons overwrite the backdated state
        // every step, so skew alone is invisible; during an outage the
        // stored beacon is all the victim has, and its perceived age must
        // grow faster than real time.
        let burst = || BurstPacketLoss::new(vec![FaultWindow::new(5.0, 13.0)], 30.0);
        let mut lossy = Engine::new(quick("skew-loss").build());
        lossy.add_fault(Box::new(burst()));
        let lossy = lossy.run();
        let mut skewed = Engine::new(quick("skew-loss").build());
        skewed.add_fault(Box::new(burst()));
        let victim = skewed.world().vehicles.len() - 1;
        skewed.add_fault(Box::new(ClockSkew::new(victim, 0.0, 3.0)));
        let skewed = skewed.run();
        assert!(
            skewed.tail_leader_age_mean > lossy.tail_leader_age_mean,
            "skew must age the tail's leader view beyond the outage alone: {} !> {}",
            skewed.tail_leader_age_mean,
            lossy.tail_leader_age_mean
        );
        assert_eq!(skewed.collisions, 0);
    }

    #[test]
    fn noise_ramp_degrades_the_vlc_channel_in_hybrid_scenarios() {
        // The ramp historically raised only the DSRC floor, so a hybrid
        // platoon sailed through weather on a pristine optical channel.
        let clean = Engine::new(quick("ramp-hybrid").comms(CommsMode::HybridVlc).build()).run();
        let mut engine = Engine::new(quick("ramp-hybrid").comms(CommsMode::HybridVlc).build());
        let base_outage = engine.world().medium.vlc.ambient_outage_prob;
        engine.add_fault(Box::new(NoiseFloorRamp::new(2.0, 2.0, 20.0)));
        for _ in 0..150 {
            engine.step();
        }
        let applied = engine.world().medium.vlc.ambient_outage_prob - base_outage;
        assert_close(
            applied,
            20.0 * platoon_v2x::vlc::VLC_OUTAGE_PER_DB,
            "at the cap the VLC outage carries the full dB mapping",
        );
        engine.restore_faults();
        assert_close(
            engine.world().medium.vlc.ambient_outage_prob,
            base_outage,
            "VLC contribution removed",
        );
        let mut faulty = Engine::new(quick("ramp-hybrid").comms(CommsMode::HybridVlc).build());
        faulty.add_fault(Box::new(NoiseFloorRamp::new(2.0, 2.0, 20.0)));
        let faulty = faulty.run();
        assert!(
            faulty.leader_tail_pdr < clean.leader_tail_pdr,
            "a 20 dB ramp must cost deliveries even with the optical fallback: {} !< {}",
            faulty.leader_tail_pdr,
            clean.leader_tail_pdr
        );
    }

    #[test]
    fn restore_is_idempotent_and_safe_to_step_after() {
        // `restore_faults` may run mid-run (manual steppers, snapshot
        // bookkeeping). Re-applying after a restore — or restoring twice —
        // must behave exactly like an uninterrupted run.
        let victim = 4;
        let build = || {
            let mut engine = Engine::new(quick("restore-mid").build());
            engine.add_fault(Box::new(ClockSkew::new(victim, 0.0, 3.0)));
            engine.add_fault(Box::new(SensorOutage::radar(
                2,
                vec![FaultWindow::new(4.0, 1e9)],
            )));
            engine.add_fault(Box::new(BurstPacketLoss::new(
                vec![FaultWindow::new(5.0, 13.0)],
                30.0,
            )));
            engine
        };
        let mut straight = build();
        let straight = straight.run();

        let mut interrupted = build();
        for _ in 0..80 {
            interrupted.step();
        }
        interrupted.restore_faults();
        interrupted.restore_faults(); // double restore must be a no-op
        let interrupted = interrupted.run();

        assert_eq!(
            straight, interrupted,
            "mid-run restore_faults must not perturb the rest of the run"
        );
    }

    #[test]
    fn rsu_blackout_removes_and_restores_infrastructure() {
        let scenario = quick("blackout")
            .rsu((150.0, 8.0))
            .rsu((450.0, 8.0))
            .build();
        let mut engine = Engine::new(scenario);
        let before = engine.world().rsus.clone();
        assert_eq!(before.len(), 2);
        engine.add_fault(Box::new(RsuBlackout::new(vec![FaultWindow::new(3.0, 1e9)])));
        for _ in 0..40 {
            engine.step();
        }
        assert!(
            engine.world().rsus.is_empty(),
            "all RSUs dark during the blackout"
        );
        engine.restore_faults();
        let after = engine.world().rsus.clone();
        assert_eq!(after.len(), 2, "infrastructure restored");
        assert_eq!(after[0].node, before[0].node);
        assert_eq!(after[1].position, before[1].position);
    }
}
