//! Fuel consumption model with platooning drag reduction.
//!
//! §I–II of the paper motivate platooning with fuel savings and CO₂
//! reduction; experiment F10 reproduces that motivation curve (saving vs
//! inter-vehicle gap). The model is a physics-based power balance:
//!
//! ```text
//! P = (F_roll + F_drag·(1 − η(gap, pos)) + m·a)·v      [traction power]
//! fuel_rate = idle + P⁺ / (η_engine · E_diesel)
//! ```
//!
//! with the drag-reduction factor `η` taken from the published truck
//! -platooning CFD/track studies (e.g. the ENSEMBLE and PATH measurements):
//! a trailing truck at a 10 m gap sees roughly 30–40 % drag reduction, the
//! lead truck a smaller benefit, and the effect decays roughly exponentially
//! with gap.

use crate::vehicle::VehicleParams;

/// Air density at sea level, kg/m³.
const AIR_DENSITY: f64 = 1.225;
/// Rolling resistance coefficient for truck tyres.
const ROLLING_COEFF: f64 = 0.006;
/// Gravitational acceleration, m/s².
const GRAVITY: f64 = 9.81;
/// Diesel lower heating value, J/L.
const DIESEL_ENERGY: f64 = 35.8e6;
/// Overall engine + driveline efficiency.
const ENGINE_EFFICIENCY: f64 = 0.40;
/// Idle fuel burn, L/s.
const IDLE_RATE: f64 = 0.0008;

/// Position of a vehicle within the platoon for drag purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatoonPosition {
    /// Driving alone (no drag reduction).
    Solo,
    /// Leading a platoon (small rear-wake benefit).
    Leader,
    /// Following within a platoon (large benefit, gap-dependent).
    Follower,
}

/// Drag-reduction factor `η ∈ [0, 1)` for a vehicle at the given bumper gap.
///
/// Calibrated to the published truck measurements: followers get ≈ 0.45 of
/// their drag removed at touching distance, decaying with a 22 m length
/// scale; leaders get ≈ 0.10 at short gaps.
///
/// # Examples
///
/// ```
/// use platoon_dynamics::fuel::{drag_reduction, PlatoonPosition};
///
/// let close = drag_reduction(PlatoonPosition::Follower, 8.0);
/// let far = drag_reduction(PlatoonPosition::Follower, 60.0);
/// assert!(close > far);
/// assert_eq!(drag_reduction(PlatoonPosition::Solo, 8.0), 0.0);
/// ```
pub fn drag_reduction(position: PlatoonPosition, gap: f64) -> f64 {
    let gap = gap.max(0.0);
    match position {
        PlatoonPosition::Solo => 0.0,
        PlatoonPosition::Leader => 0.10 * (-gap / 15.0).exp(),
        PlatoonPosition::Follower => 0.45 * (-gap / 22.0).exp(),
    }
}

/// Instantaneous fuel rate in litres/second.
///
/// Negative traction power (engine braking / regenerative conditions) burns
/// only idle fuel.
pub fn fuel_rate(
    params: &VehicleParams,
    speed: f64,
    accel: f64,
    position: PlatoonPosition,
    gap: f64,
) -> f64 {
    let f_roll = ROLLING_COEFF * params.mass * GRAVITY;
    let eta = drag_reduction(position, gap);
    let f_drag = 0.5 * AIR_DENSITY * params.drag_area * speed * speed * (1.0 - eta);
    let f_inertia = params.mass * accel;
    let power = (f_roll + f_drag + f_inertia) * speed;
    IDLE_RATE + power.max(0.0) / (ENGINE_EFFICIENCY * DIESEL_ENERGY)
}

/// Accumulates fuel burned by one vehicle over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FuelMeter {
    /// Total litres burned.
    pub litres: f64,
    /// Total metres travelled.
    pub metres: f64,
}

impl FuelMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one simulation step.
    pub fn record(
        &mut self,
        params: &VehicleParams,
        speed: f64,
        accel: f64,
        position: PlatoonPosition,
        gap: f64,
        dt: f64,
    ) {
        self.litres += fuel_rate(params, speed, accel, position, gap) * dt;
        self.metres += speed * dt;
    }

    /// Consumption in litres per 100 km (∞ if no distance covered).
    pub fn litres_per_100km(&self) -> f64 {
        if self.metres <= 0.0 {
            return f64::INFINITY;
        }
        self.litres / self.metres * 100_000.0
    }
}

/// Relative fuel saving of `platooning` vs `solo` consumption (fraction).
pub fn fuel_saving(solo_l_per_100km: f64, platoon_l_per_100km: f64) -> f64 {
    if solo_l_per_100km <= 0.0 {
        return 0.0;
    }
    1.0 - platoon_l_per_100km / solo_l_per_100km
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truck() -> VehicleParams {
        VehicleParams::truck()
    }

    #[test]
    fn follower_benefits_more_than_leader() {
        for gap in [5.0, 10.0, 20.0] {
            assert!(
                drag_reduction(PlatoonPosition::Follower, gap)
                    > drag_reduction(PlatoonPosition::Leader, gap)
            );
        }
    }

    #[test]
    fn reduction_decays_with_gap() {
        let mut last = 1.0;
        for gap in [0.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let eta = drag_reduction(PlatoonPosition::Follower, gap);
            assert!(eta < last);
            assert!((0.0..1.0).contains(&eta));
            last = eta;
        }
    }

    #[test]
    fn negative_gap_clamped() {
        assert_eq!(
            drag_reduction(PlatoonPosition::Follower, -5.0),
            drag_reduction(PlatoonPosition::Follower, 0.0)
        );
    }

    #[test]
    fn cruising_truck_burns_plausible_fuel() {
        // A solo 30 t truck at 25 m/s (90 km/h) burns roughly 25-45 L/100km.
        let mut meter = FuelMeter::new();
        let p = truck();
        for _ in 0..36_000 {
            meter.record(&p, 25.0, 0.0, PlatoonPosition::Solo, 0.0, 0.1);
        }
        let rate = meter.litres_per_100km();
        assert!(
            (15.0..60.0).contains(&rate),
            "implausible consumption: {rate} L/100km"
        );
    }

    #[test]
    fn platooning_saves_fuel() {
        let p = truck();
        let mut solo = FuelMeter::new();
        let mut follow = FuelMeter::new();
        for _ in 0..10_000 {
            solo.record(&p, 25.0, 0.0, PlatoonPosition::Solo, 0.0, 0.1);
            follow.record(&p, 25.0, 0.0, PlatoonPosition::Follower, 10.0, 0.1);
        }
        let saving = fuel_saving(solo.litres_per_100km(), follow.litres_per_100km());
        assert!(
            (0.05..0.40).contains(&saving),
            "saving {saving} outside the published 5-40% band"
        );
    }

    #[test]
    fn saving_shrinks_with_gap() {
        let p = truck();
        let run = |gap: f64| {
            let mut m = FuelMeter::new();
            for _ in 0..1000 {
                m.record(&p, 25.0, 0.0, PlatoonPosition::Follower, gap, 0.1);
            }
            m.litres_per_100km()
        };
        assert!(run(5.0) < run(20.0));
        assert!(run(20.0) < run(80.0));
    }

    #[test]
    fn acceleration_costs_fuel() {
        let p = truck();
        let cruising = fuel_rate(&p, 20.0, 0.0, PlatoonPosition::Solo, 0.0);
        let accelerating = fuel_rate(&p, 20.0, 1.0, PlatoonPosition::Solo, 0.0);
        assert!(accelerating > cruising * 2.0);
    }

    #[test]
    fn braking_burns_only_idle() {
        let p = truck();
        let braking = fuel_rate(&p, 20.0, -3.0, PlatoonPosition::Solo, 0.0);
        assert!((braking - IDLE_RATE).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_reports_infinity() {
        assert!(FuelMeter::new().litres_per_100km().is_infinite());
    }

    #[test]
    fn oscillation_burns_more_than_steady() {
        // The replay attack's efficiency claim: oscillating speed costs fuel.
        let p = truck();
        let mut steady = FuelMeter::new();
        let mut oscillating = FuelMeter::new();
        for i in 0..10_000 {
            let t = i as f64 * 0.1;
            steady.record(&p, 25.0, 0.0, PlatoonPosition::Follower, 10.0, 0.1);
            let a = 1.0 * (t * 0.8).sin();
            let v = 25.0 - 1.25 * (t * 0.8).cos();
            oscillating.record(&p, v, a, PlatoonPosition::Follower, 10.0, 0.1);
        }
        assert!(oscillating.litres_per_100km() > steady.litres_per_100km());
    }
}
