//! Typed, searchable parameter surfaces for every catalogued attack.
//!
//! The registry ([`crate::registry`]) fixes each attack's *shape*; this
//! module exposes each attack's *tunable knobs* as a flat, bounded vector —
//! the interface the adversarial campaign search drives. Every knob is an
//! `f64` inside a declared `[min, max]` range ([`ParamSpec`]); integer and
//! boolean knobs are snapped on construction so any in-bounds vector spells
//! a single canonical value. Timing knobs are expressed as *fractions of
//! the run duration* (`*_frac`), which keeps one parameter space valid for
//! quick and full efforts alike.
//!
//! [`AttackParams`] is the canonical-JSON unit the search, the job server
//! and the campaign documents all share: construction clamps and snaps, so
//! encode → parse → encode is byte-identical, and a seeded Gaussian
//! [`mutate`](AttackParams::mutate) can never leave the declared bounds.
//!
//! # Examples
//!
//! ```
//! use platoon_attacks::params::AttackParams;
//! use platoon_sim::attack::Attack;
//!
//! let p = AttackParams::defaults("jamming").unwrap();
//! let text = p.canonical_json();
//! assert_eq!(AttackParams::parse(&text).unwrap().canonical_json(), text);
//! let attack = p.build(30.0); // a Box<dyn Attack> for a 30 s run
//! assert_eq!(attack.name(), "jamming");
//! ```
//!
//! [`AttackParams::truth`] labels a finished run of the attack it builds,
//! reading the attack start off the same timing knob `build` schedules it
//! from.

use crate::prelude::*;
use platoon_crypto::cert::PrincipalId;
use platoon_sim::attack::Attack;
use platoon_sim::harness::json::{self, Value};
use platoon_sim::metrics::TruthLabels;
use platoon_sim::world::World;
use platoon_v2x::jamming::JammingStrategy;
use rand::rngs::StdRng;
use rand::Rng;

/// How a parameter's raw `f64` maps to its attack-config value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// Used as-is.
    Continuous,
    /// Rounded to the nearest integer on construction.
    Integer,
    /// Snapped to `0.0` / `1.0` (threshold `0.5`) on construction.
    Boolean,
}

/// One tunable knob: its name, canonical range and default.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParamSpec {
    /// Knob name (stable: part of the canonical-JSON spelling).
    pub name: &'static str,
    /// Value interpretation.
    pub kind: ParamKind,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// The canonical starting point (mirrors the Table II/IV arm where the
    /// attack has one).
    pub default: f64,
}

impl ParamSpec {
    const fn cont(name: &'static str, min: f64, max: f64, default: f64) -> Self {
        ParamSpec {
            name,
            kind: ParamKind::Continuous,
            min,
            max,
            default,
        }
    }

    const fn int(name: &'static str, min: f64, max: f64, default: f64) -> Self {
        ParamSpec {
            name,
            kind: ParamKind::Integer,
            min,
            max,
            default,
        }
    }

    const fn boolean(name: &'static str, default: f64) -> Self {
        ParamSpec {
            name,
            kind: ParamKind::Boolean,
            min: 0.0,
            max: 1.0,
            default,
        }
    }

    /// Clamps into bounds and snaps integers/booleans to their canonical
    /// representative. NaN pins to the default (a mutation can never produce
    /// one, but a hand-written document can).
    pub fn snap(&self, raw: f64) -> f64 {
        let v = if raw.is_nan() { self.default } else { raw };
        let v = v.clamp(self.min, self.max);
        match self.kind {
            ParamKind::Continuous => v,
            ParamKind::Integer => v.round(),
            ParamKind::Boolean => {
                if v >= 0.5 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// The parameter space of an attack, `None` if the name is unknown.
///
/// Every machine name in the registry catalogue is covered (plus
/// `gps-spoof`, the second module of the sensor row), so the campaign can
/// search any attack without bespoke plumbing.
pub fn param_space(attack: &str) -> Option<&'static [ParamSpec]> {
    const REPLAY: &[ParamSpec] = &[
        ParamSpec::cont("replay_frac", 0.15, 0.7, 0.2),
        ParamSpec::cont("replay_rate", 5.0, 80.0, 50.0),
        ParamSpec::cont("power_dbm", 10.0, 33.0, 23.0),
    ];
    const SYBIL: &[ParamSpec] = &[
        ParamSpec::int("ghost_count", 1.0, 8.0, 5.0),
        ParamSpec::cont("start_frac", 0.1, 0.6, 0.2),
        ParamSpec::cont("request_period", 0.25, 4.0, 1.0),
        ParamSpec::boolean("claim_mid_platoon", 1.0),
    ];
    const FAKE_MANEUVER: &[ParamSpec] = &[
        ParamSpec::cont("inject_frac", 0.1, 0.7, 0.2),
        ParamSpec::cont("repeat_period", 0.0, 8.0, 0.0),
    ];
    const JAMMING: &[ParamSpec] = &[
        ParamSpec::cont("start_frac", 0.1, 0.6, 0.2),
        ParamSpec::cont("power_dbm", 5.0, 36.0, 33.0),
        ParamSpec::cont("duty_cycle", 0.05, 1.0, 1.0),
        ParamSpec::cont("period_s", 0.5, 6.0, 2.0),
        ParamSpec::cont("lateral_offset", 2.0, 20.0, 6.0),
    ];
    const EAVESDROP: &[ParamSpec] = &[
        ParamSpec::cont("lateral_offset", 2.0, 40.0, 8.0),
        ParamSpec::cont("longitudinal_offset", -120.0, 120.0, 0.0),
    ];
    const DOS: &[ParamSpec] = &[
        ParamSpec::cont("rate_per_second", 5.0, 200.0, 100.0),
        ParamSpec::cont("start_frac", 0.05, 0.5, 0.1),
        ParamSpec::cont("end_frac", 0.2, 1.0, 1.0),
    ];
    const IMPERSONATION: &[ParamSpec] = &[
        ParamSpec::cont("start_frac", 0.15, 0.7, 0.2),
        ParamSpec::cont("duration_frac", 0.05, 0.6, 0.3),
        ParamSpec::cont("phantom_accel", -8.0, -0.5, -6.0),
        ParamSpec::cont("rate", 1.0, 25.0, 10.0),
    ];
    const SENSOR_SPOOF: &[ParamSpec] = &[
        ParamSpec::cont("bias_m", 0.5, 15.0, 8.0),
        ParamSpec::cont("start_frac", 0.15, 0.7, 0.2),
        ParamSpec::boolean("also_lidar", 0.0),
    ];
    const GPS_SPOOF: &[ParamSpec] = &[
        ParamSpec::cont("drift_rate", 0.1, 5.0, 1.0),
        ParamSpec::cont("start_frac", 0.15, 0.7, 0.2),
    ];
    const MALWARE: &[ParamSpec] = &[
        ParamSpec::cont("spread_prob", 0.02, 1.0, 0.15),
        ParamSpec::cont("infect_frac", 0.05, 0.5, 0.1),
        ParamSpec::cont("incubation", 0.5, 10.0, 5.0),
    ];
    const INSIDER_FDI: &[ParamSpec] = &[
        ParamSpec::cont("start_frac", 0.15, 0.7, 0.2),
        ParamSpec::cont("accel_offset", -6.0, 0.0, -4.0),
        ParamSpec::cont("speed_offset", -5.0, 5.0, 0.0),
        ParamSpec::cont("position_offset", -20.0, 20.0, 0.0),
    ];
    Some(match attack {
        "replay" => REPLAY,
        "sybil" => SYBIL,
        "fake-maneuver" => FAKE_MANEUVER,
        "jamming" => JAMMING,
        "eavesdrop" => EAVESDROP,
        "dos-join-flood" => DOS,
        "impersonation" => IMPERSONATION,
        "sensor-spoof" => SENSOR_SPOOF,
        "gps-spoof" => GPS_SPOOF,
        "malware" => MALWARE,
        "insider-fdi" => INSIDER_FDI,
        _ => return None,
    })
}

/// Every attack name with a declared parameter space, in registry order
/// (with `gps-spoof` appended after its sibling `sensor-spoof`).
pub fn searchable_attacks() -> Vec<&'static str> {
    let mut names = Vec::new();
    for d in crate::registry::catalog() {
        names.push(d.name);
        if d.name == "sensor-spoof" {
            names.push("gps-spoof");
        }
    }
    debug_assert!(names.iter().all(|n| param_space(n).is_some()));
    names
}

/// A concrete, bounded parameter assignment for one attack — the canonical
/// search-space point. Construction always snaps every value through its
/// [`ParamSpec`], so two `AttackParams` are equal iff their canonical JSON
/// is byte-identical.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackParams {
    attack: String,
    values: Vec<f64>,
}

impl AttackParams {
    /// The canonical starting point: every knob at its declared default.
    pub fn defaults(attack: &str) -> Result<AttackParams, String> {
        let space = space_of(attack)?;
        Ok(AttackParams {
            attack: attack.to_string(),
            values: space.iter().map(|s| s.default).collect(),
        })
    }

    /// Builds from a raw value vector (one per [`ParamSpec`], in space
    /// order), clamping and snapping each into bounds.
    pub fn from_values(attack: &str, raw: &[f64]) -> Result<AttackParams, String> {
        let space = space_of(attack)?;
        if raw.len() != space.len() {
            return Err(format!(
                "{attack} takes {} parameter(s), got {}",
                space.len(),
                raw.len()
            ));
        }
        Ok(AttackParams {
            attack: attack.to_string(),
            values: space.iter().zip(raw).map(|(s, &v)| s.snap(v)).collect(),
        })
    }

    /// The attack machine name.
    pub fn attack(&self) -> &str {
        &self.attack
    }

    /// The snapped values, in [`param_space`] order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The parameter space this assignment lives in.
    pub fn space(&self) -> &'static [ParamSpec] {
        param_space(&self.attack).expect("constructed AttackParams always has a space")
    }

    /// Value of a named knob. Panics on an unknown name (a programming
    /// error: names are static).
    pub fn get(&self, name: &str) -> f64 {
        let idx = self
            .space()
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("{} has no parameter {name:?}", self.attack));
        self.values[idx]
    }

    /// Canonical compact-JSON spelling: attack name then every knob in
    /// space order. This is the wire form, the cache-key input and the
    /// campaign-document form — there is only one.
    pub fn canonical_json(&self) -> String {
        let mut w = json::Writer::compact();
        self.write_canonical(&mut w);
        w.finish()
    }

    /// Writes the canonical object through an existing writer (for
    /// embedding in larger documents).
    pub fn write_canonical(&self, w: &mut json::Writer) {
        w.obj(|w| {
            w.field_str("attack", &self.attack);
            w.field_obj("params", |w| {
                for (spec, &v) in self.space().iter().zip(&self.values) {
                    w.field_f64(spec.name, v);
                }
            });
        });
    }

    /// Decodes from a parsed JSON value (the inverse of
    /// [`canonical_json`](Self::canonical_json)). Unknown knobs are
    /// rejected; missing knobs take their defaults (forward compatibility
    /// for spaces that grow).
    pub fn from_json(v: &Value) -> Result<AttackParams, String> {
        let attack = match v.get("attack") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("attack params need a string \"attack\" field".into()),
        };
        let space = space_of(&attack)?;
        let params = v
            .get("params")
            .ok_or("attack params need a \"params\" object")?;
        let Value::Obj(fields) = params else {
            return Err("\"params\" must be an object".into());
        };
        for (name, _) in fields {
            if !space.iter().any(|s| s.name == name) {
                return Err(format!("{attack} has no parameter {name:?}"));
            }
        }
        let values = space
            .iter()
            .map(|s| {
                let raw = match params.get(s.name) {
                    None => s.default,
                    Some(field) => field
                        .as_f64()
                        .ok_or_else(|| format!("parameter {:?} must be a number", s.name))?,
                };
                Ok(s.snap(raw))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(AttackParams { attack, values })
    }

    /// Parses the canonical-JSON text form.
    pub fn parse(text: &str) -> Result<AttackParams, String> {
        AttackParams::from_json(&json::parse(text)?)
    }

    /// A Gaussian-perturbed neighbour: each knob moves by
    /// `N(0, sigma_frac · range)` and is snapped back into bounds. The rng
    /// is the caller's (campaign-seed-derived) stream, so mutation is as
    /// replayable as everything else.
    pub fn mutate(&self, rng: &mut StdRng, sigma_frac: f64) -> AttackParams {
        let space = self.space();
        let values = space
            .iter()
            .zip(&self.values)
            .map(|(spec, &v)| {
                let range = spec.max - spec.min;
                spec.snap(v + gaussian(rng) * sigma_frac * range)
            })
            .collect();
        AttackParams {
            attack: self.attack.clone(),
            values,
        }
    }

    /// Instantiates the attack for a run of `duration` simulated seconds
    /// (the `*_frac` timing knobs scale by it). Non-searched fields keep
    /// their canonical defaults, so identical params always build identical
    /// attacks.
    pub fn build(&self, duration: f64) -> Box<dyn Attack> {
        let d = duration;
        match self.attack.as_str() {
            "replay" => Box::new(ReplayAttack::new(ReplayConfig {
                record_from: 0.0,
                replay_from: self.get("replay_frac") * d,
                replay_rate: self.get("replay_rate"),
                power_dbm: self.get("power_dbm"),
                ..Default::default()
            })),
            "sybil" => Box::new(SybilAttack::new(SybilConfig {
                ghost_count: self.get("ghost_count") as usize,
                start: self.get("start_frac") * d,
                request_period: self.get("request_period"),
                claim_mid_platoon: self.get("claim_mid_platoon") >= 0.5,
                ..Default::default()
            })),
            "fake-maneuver" => Box::new(FakeManeuverAttack::new(FakeManeuverConfig {
                inject_at: self.get("inject_frac") * d,
                repeat_period: self.get("repeat_period"),
                ..Default::default()
            })),
            "jamming" => {
                let duty = self.get("duty_cycle");
                let period = self.get("period_s");
                Box::new(JammingAttack::new(JammingConfig {
                    start: self.get("start_frac") * d,
                    power_dbm: self.get("power_dbm"),
                    lateral_offset: self.get("lateral_offset"),
                    strategy: if duty >= 1.0 {
                        JammingStrategy::Continuous
                    } else {
                        JammingStrategy::Periodic {
                            on: duty * period,
                            off: (1.0 - duty) * period,
                        }
                    },
                    ..Default::default()
                }))
            }
            "eavesdrop" => Box::new(EavesdropAttack::new(EavesdropConfig {
                lateral_offset: self.get("lateral_offset"),
                longitudinal_offset: self.get("longitudinal_offset"),
                ..Default::default()
            })),
            "dos-join-flood" => Box::new(JoinFloodAttack::new(JoinFloodConfig {
                rate_per_second: self.get("rate_per_second"),
                start: self.get("start_frac") * d,
                end: self.get("end_frac") * d,
                ..Default::default()
            })),
            "impersonation" => Box::new(ImpersonationAttack::new(ImpersonationConfig {
                start: self.get("start_frac") * d,
                duration: self.get("duration_frac") * d,
                phantom_accel: self.get("phantom_accel"),
                rate: self.get("rate"),
                ..Default::default()
            })),
            "sensor-spoof" => Box::new(SensorSpoofAttack::new(SensorSpoofConfig {
                mode: SensorAttackMode::Spoof {
                    bias: self.get("bias_m"),
                },
                start: self.get("start_frac") * d,
                also_lidar: self.get("also_lidar") >= 0.5,
                ..Default::default()
            })),
            "gps-spoof" => Box::new(GpsSpoofAttack::new(GpsSpoofConfig {
                drift_rate: self.get("drift_rate"),
                start: self.get("start_frac") * d,
                ..Default::default()
            })),
            "malware" => Box::new(MalwareAttack::new(MalwareConfig {
                spread_prob: self.get("spread_prob"),
                infect_at: self.get("infect_frac") * d,
                incubation: self.get("incubation"),
                ..Default::default()
            })),
            "insider-fdi" => Box::new(FalsificationAttack::new(FalsificationConfig {
                start: self.get("start_frac") * d,
                lie: BeaconLieConfig {
                    position_offset: self.get("position_offset"),
                    speed_offset: self.get("speed_offset"),
                    accel_offset: self.get("accel_offset"),
                },
                ..Default::default()
            })),
            other => unreachable!("AttackParams constructed for unknown attack {other}"),
        }
    }

    /// Ground-truth labels for a finished run of [`build`](Self::build)'s
    /// attack over `duration` seconds. The attack start comes from the
    /// timing knob that scheduled it, so a tuned late start cannot launder
    /// true positives into false ones. `world` is the run's end state: it
    /// names the victims and the vehicles malware infected.
    pub fn truth(&self, duration: f64, world: &World) -> TruthLabels {
        let start_of = |knob: &str| self.get(knob) * duration;
        let mut truth = TruthLabels {
            attack: self.attack.clone(),
            start: 0.0,
            channel_attack: false,
            guilty: Vec::new(),
            guilty_from: None,
        };
        match self.attack.as_str() {
            // Passive listener from the first tick: nothing on the air to
            // flag, so any alert is false.
            "eavesdrop" => {}
            // One forged manoeuvre frame under the leader's identity.
            "fake-maneuver" => {
                truth.start = start_of("inject_frac");
                truth.guilty = vec![world.vehicles[0].principal];
            }
            "replay" => {
                // The replayed frames are verbatim member traffic; alerts
                // name the replayed identities, so every member is a valid
                // blame target once the replays start.
                truth.start = start_of("replay_frac");
                truth.guilty = world.vehicles.iter().map(|v| v.principal).collect();
            }
            "sybil" => {
                truth.start = start_of("start_frac");
                truth.guilty_from = Some(7_000);
            }
            "jamming" => {
                truth.start = start_of("start_frac");
                truth.channel_attack = true;
            }
            "dos-join-flood" => {
                truth.start = start_of("start_frac");
                truth.channel_attack = true;
                truth.guilty_from = Some(8_000);
            }
            "impersonation" => {
                truth.start = start_of("start_frac");
                truth.guilty = vec![PrincipalId(1)];
            }
            "sensor-spoof" | "gps-spoof" => {
                truth.start = start_of("start_frac");
                truth.guilty = vec![world.vehicles[2].principal];
            }
            "malware" => {
                truth.start = start_of("infect_frac");
                truth.guilty = world
                    .vehicles
                    .iter()
                    .filter(|v| v.infected)
                    .map(|v| v.principal)
                    .collect();
            }
            "insider-fdi" => {
                truth.start = start_of("start_frac");
                truth.guilty = vec![PrincipalId(2)];
            }
            other => unreachable!("AttackParams constructed for unknown attack {other}"),
        }
        truth
    }
}

fn space_of(attack: &str) -> Result<&'static [ParamSpec], String> {
    param_space(attack).ok_or_else(|| format!("no parameter space for attack {attack:?}"))
}

/// One standard-normal draw (Box–Muller over the caller's deterministic
/// stream; both uniforms are consumed every call so the stream advances by
/// a fixed amount regardless of the value).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::prelude::{Engine, Scenario};
    use rand::SeedableRng;

    #[test]
    fn every_registry_attack_is_searchable_and_builds() {
        for name in searchable_attacks() {
            let p = AttackParams::defaults(name).unwrap();
            let attack = p.build(30.0);
            // gps-spoof rides under the sensor row's separate module name.
            assert!(!attack.name().is_empty(), "{name}");
            assert_eq!(p.values().len(), param_space(name).unwrap().len());
        }
    }

    #[test]
    fn truth_follows_each_timing_knob() {
        const TIMING_KNOBS: [&str; 4] = ["start_frac", "inject_frac", "replay_frac", "infect_frac"];
        let duration = 30.0;
        let engine = Engine::new(Scenario::builder().vehicles(6).duration(duration).build());
        for name in searchable_attacks() {
            let defaults = AttackParams::defaults(name).unwrap();
            let knob = defaults
                .space()
                .iter()
                .position(|s| TIMING_KNOBS.contains(&s.name));
            let Some(knob) = knob else {
                // The passive listener runs from the first tick.
                assert_eq!(name, "eavesdrop", "{name} has no timing knob");
                assert_eq!(defaults.truth(duration, engine.world()).start, 0.0);
                continue;
            };
            let spec = defaults.space()[knob];
            for level in [spec.min, spec.default, spec.max] {
                let mut values = defaults.values().to_vec();
                values[knob] = level;
                let p = AttackParams::from_values(name, &values).unwrap();
                let truth = p.truth(duration, engine.world());
                assert_eq!(truth.start, level * duration, "{name}.{}", spec.name);
                assert_eq!(truth.attack, name);
            }
        }
        // The insider lies under its own principal.
        let insider = AttackParams::defaults("insider-fdi").unwrap();
        assert_eq!(
            insider.truth(duration, engine.world()).guilty,
            vec![PrincipalId(2)]
        );
    }

    #[test]
    fn canonical_json_round_trips() {
        for name in searchable_attacks() {
            let p = AttackParams::defaults(name).unwrap();
            let text = p.canonical_json();
            let back = AttackParams::parse(&text).unwrap();
            assert_eq!(back, p, "{text}");
            assert_eq!(back.canonical_json(), text);
        }
    }

    #[test]
    fn construction_snaps_out_of_range_and_discrete_values() {
        let p = AttackParams::from_values("sybil", &[3.7, 9.0, -1.0, 0.49]).unwrap();
        assert_eq!(p.get("ghost_count"), 4.0, "integer knob rounds");
        assert_eq!(p.get("start_frac"), 0.6, "clamped to max");
        assert_eq!(p.get("request_period"), 0.25, "clamped to min");
        assert_eq!(p.get("claim_mid_platoon"), 0.0, "boolean thresholds");
    }

    #[test]
    fn nan_values_pin_to_defaults() {
        let p = AttackParams::from_values("jamming", &[f64::NAN; 5]).unwrap();
        assert_eq!(p, AttackParams::defaults("jamming").unwrap());
    }

    #[test]
    fn missing_knobs_default_but_unknown_knobs_reject() {
        let p =
            AttackParams::parse(r#"{"attack": "jamming", "params": {"power_dbm": 20.0}}"#).unwrap();
        assert_eq!(p.get("power_dbm"), 20.0);
        assert_eq!(p.get("duty_cycle"), 1.0, "missing knob takes default");
        let err = AttackParams::parse(r#"{"attack": "jamming", "params": {"warp": 9.0}}"#);
        assert!(err.is_err());
        assert!(AttackParams::defaults("wormhole").is_err());
    }

    #[test]
    fn mutation_is_seeded_and_stays_in_bounds() {
        let base = AttackParams::defaults("impersonation").unwrap();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let ma = base.mutate(&mut a, 0.3);
        let mb = base.mutate(&mut b, 0.3);
        assert_eq!(ma, mb, "same seed, same child");
        for _ in 0..200 {
            let child = base.mutate(&mut a, 5.0); // huge sigma: clamps must hold
            for (spec, &v) in child.space().iter().zip(child.values()) {
                assert!(v >= spec.min && v <= spec.max, "{}: {v}", spec.name);
            }
        }
    }
}
