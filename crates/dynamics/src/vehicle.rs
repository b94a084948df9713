//! Longitudinal vehicle model: a point-mass with first-order powertrain lag.
//!
//! This is the same abstraction Plexe \[39\] uses for platooning studies: each
//! vehicle tracks position `x`, speed `v` and realised acceleration `a`; a
//! commanded acceleration `u` passes through a first-order lag
//! `ȧ = (u − a)/τ` modelling engine/brake actuation, then is clamped to the
//! physical acceleration envelope before integration.

/// Static parameters of a vehicle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VehicleParams {
    /// Vehicle length in metres (bumper to bumper).
    pub length: f64,
    /// Gross mass in kilograms (used by the fuel model).
    pub mass: f64,
    /// Maximum acceleration in m/s².
    pub max_accel: f64,
    /// Maximum deceleration (braking) in m/s², expressed positive.
    pub max_decel: f64,
    /// Powertrain first-order lag time constant τ in seconds.
    pub engine_tau: f64,
    /// Maximum speed in m/s.
    pub max_speed: f64,
    /// Aerodynamic drag coefficient times frontal area, `Cd·A` in m².
    pub drag_area: f64,
}

impl VehicleParams {
    /// Typical heavy truck, the platform truck-platooning targets (§I of the
    /// paper motivates platooning with freight).
    pub fn truck() -> Self {
        VehicleParams {
            length: 16.5,
            mass: 30_000.0,
            max_accel: 1.5,
            max_decel: 6.0,
            engine_tau: 0.5,
            max_speed: 33.0,
            drag_area: 7.5,
        }
    }

    /// Typical passenger car.
    pub fn car() -> Self {
        VehicleParams {
            length: 4.5,
            mass: 1_500.0,
            max_accel: 3.0,
            max_decel: 8.0,
            engine_tau: 0.3,
            max_speed: 50.0,
            drag_area: 0.7,
        }
    }
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self::truck()
    }
}

/// Dynamic state of a vehicle on a single-lane longitudinal axis.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct VehicleState {
    /// Position of the front bumper in metres.
    pub position: f64,
    /// Speed in m/s (never negative; vehicles do not reverse).
    pub speed: f64,
    /// Realised acceleration in m/s².
    pub accel: f64,
}

/// A vehicle: parameters, state and the pending acceleration command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vehicle {
    /// Static parameters.
    pub params: VehicleParams,
    /// Current dynamic state.
    pub state: VehicleState,
    /// Last commanded acceleration `u` (before lag and clamping).
    pub command: f64,
}

impl Vehicle {
    /// Creates a vehicle at `position` travelling at `speed`.
    pub fn new(params: VehicleParams, position: f64, speed: f64) -> Self {
        Vehicle {
            params,
            state: VehicleState {
                position,
                speed,
                accel: 0.0,
            },
            command: 0.0,
        }
    }

    /// Sets the commanded acceleration for the next integration step.
    pub fn set_command(&mut self, u: f64) {
        self.command = u;
    }

    /// Advances the state by `dt` seconds using semi-implicit Euler with
    /// first-order actuation lag.
    ///
    /// The realised acceleration relaxes toward the (clamped) command with
    /// time constant `engine_tau`; speed is clamped to `[0, max_speed]`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive and finite");
        let p = &self.params;
        let u = self.command.clamp(-p.max_decel, p.max_accel);

        // First-order lag: a' = a + (u - a) * dt/tau  (exact discretisation).
        let alpha = 1.0 - (-dt / p.engine_tau).exp();
        let mut a = self.state.accel + (u - self.state.accel) * alpha;
        a = a.clamp(-p.max_decel, p.max_accel);

        let mut v = self.state.speed + a * dt;
        if v < 0.0 {
            // Vehicle has come to rest within the step; do not reverse.
            v = 0.0;
            a = (v - self.state.speed) / dt;
        }
        if v > p.max_speed {
            v = p.max_speed;
            a = (v - self.state.speed) / dt;
        }

        // Trapezoidal position update for second-order accuracy.
        self.state.position += 0.5 * (self.state.speed + v) * dt;
        self.state.speed = v;
        self.state.accel = a;
    }

    /// Bumper-to-bumper gap from this vehicle to a predecessor state.
    ///
    /// Positive when there is clear road between them; `<= 0` means contact.
    pub fn gap_to(&self, predecessor: &Vehicle) -> f64 {
        predecessor.state.position - predecessor.params.length - self.state.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn veh(v0: f64) -> Vehicle {
        Vehicle::new(VehicleParams::car(), 0.0, v0)
    }

    #[test]
    fn constant_speed_without_command() {
        let mut v = veh(20.0);
        for _ in 0..100 {
            v.step(0.01);
        }
        assert!((v.state.speed - 20.0).abs() < 1e-9);
        assert!((v.state.position - 20.0).abs() < 1e-6);
    }

    #[test]
    fn accelerates_toward_command_with_lag() {
        let mut v = veh(10.0);
        v.set_command(2.0);
        v.step(0.01);
        // After one small step the realised accel is between 0 and command.
        assert!(v.state.accel > 0.0 && v.state.accel < 2.0);
        for _ in 0..500 {
            v.step(0.01);
        }
        // After many time constants, realised accel converges to the command.
        assert!((v.state.accel - 2.0).abs() < 1e-3);
    }

    #[test]
    fn command_clamped_to_envelope() {
        let mut v = veh(20.0);
        v.set_command(100.0);
        for _ in 0..1000 {
            v.step(0.01);
        }
        assert!(v.state.accel <= v.params.max_accel + 1e-9);
    }

    #[test]
    fn braking_stops_at_zero_speed() {
        let mut v = veh(5.0);
        v.set_command(-100.0);
        for _ in 0..1000 {
            v.step(0.01);
        }
        assert_eq!(v.state.speed, 0.0);
        assert!(
            v.state.position > 0.0,
            "travelled some distance while stopping"
        );
    }

    #[test]
    fn speed_capped_at_max() {
        let mut v = veh(49.0);
        v.set_command(3.0);
        for _ in 0..2000 {
            v.step(0.01);
        }
        assert!(v.state.speed <= v.params.max_speed + 1e-9);
    }

    #[test]
    fn gap_to_accounts_for_length() {
        let params = VehicleParams::car();
        let front = Vehicle::new(params, 100.0, 20.0);
        let rear = Vehicle::new(params, 80.0, 20.0);
        assert!((rear.gap_to(&front) - (100.0 - params.length - 80.0)).abs() < 1e-12);
    }

    #[test]
    fn truck_is_heavier_and_slower_than_car() {
        let t = VehicleParams::truck();
        let c = VehicleParams::car();
        assert!(t.mass > c.mass);
        assert!(t.max_accel < c.max_accel);
    }

    #[test]
    #[should_panic(expected = "dt")]
    fn zero_dt_panics() {
        veh(1.0).step(0.0);
    }

    #[test]
    fn braking_distance_physically_plausible() {
        // From 25 m/s with 8 m/s² max braking, ideal distance is v²/2a ≈ 39 m.
        // Actuation lag adds a bit.
        let mut v = veh(25.0);
        v.set_command(-8.0);
        let mut steps = 0;
        while v.state.speed > 0.0 && steps < 10_000 {
            v.step(0.01);
            steps += 1;
        }
        assert!(
            v.state.position > 35.0 && v.state.position < 60.0,
            "braking distance {:.1} m out of range",
            v.state.position
        );
    }
}
