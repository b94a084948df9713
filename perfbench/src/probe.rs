//! No-op probes on the engine's public `Attack` and `Defense` hooks.
//!
//! The engine calls its hooks at fixed points of every tick, so probes that
//! only read the clock split a tick into phases from outside the program:
//!
//! | phase        | from                           | to                              |
//! |--------------|--------------------------------|---------------------------------|
//! | `sim.pre`    | `Engine::step` entry           | first probe `before_comm`       |
//! | `sim.seal`   | first probe `before_comm`      | last probe `on_air`             |
//! | `sim.medium` | last probe `on_air`            | first probe `observe`           |
//! | `sim.rx`     | first probe `observe`          | defense probe `adjust_commands` |
//! | `sim.post`   | defense probe `adjust_commands`| `Engine::step` return           |
//!
//! `sim.pre` holds the regime and fault prelude; seal covers beacon
//! building, signing and encoding; medium the channel and its spatial
//! index; rx decode, verification, dedup digests, protocol handling,
//! detector ingest and the controllers; post command mitigation, the
//! detection pass and integration. The first probe is registered before
//! every other hook and the last after every other hook. Probes never touch
//! the world or the rng, so a probed run is byte-identical to a bare one.

use platoon_sim::prelude::{Attack, Defense, Engine, SecurityAttribute, World};
use platoon_v2x::message::{Delivery, Frame};
use rand::rngs::StdRng;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Phase span names in tick order, each with its share metric.
pub const PHASES: [(&str, &str); 5] = [
    ("sim.pre", "sim.pre_share"),
    ("sim.seal", "sim.seal_share"),
    ("sim.medium", "sim.medium_share"),
    ("sim.rx", "sim.rx_share"),
    ("sim.post", "sim.post_share"),
];

/// The probe timestamps of the tick in progress.
#[derive(Debug, Default)]
pub struct Marks {
    before_comm: Option<Instant>,
    on_air: Option<Instant>,
    observe: Option<Instant>,
    adjust: Option<Instant>,
}

/// Marks shared by the probes of one engine.
pub type SharedMarks = Rc<RefCell<Marks>>;

impl Marks {
    /// The six phase boundaries of the tick that ran from `start` to `end`,
    /// clearing the marks for the next tick. `None` when a probe did not
    /// fire or fired out of order.
    pub fn take_bounds(&mut self, start: Instant, end: Instant) -> Option<[Instant; 6]> {
        let taken = std::mem::take(self);
        let bounds = [
            start,
            taken.before_comm?,
            taken.on_air?,
            taken.observe?,
            taken.adjust?,
            end,
        ];
        bounds.windows(2).all(|w| w[0] <= w[1]).then_some(bounds)
    }
}

#[derive(Debug)]
struct AttackProbe {
    last: bool,
    marks: SharedMarks,
}

impl Attack for AttackProbe {
    fn name(&self) -> &'static str {
        if self.last {
            "probe-last"
        } else {
            "probe-first"
        }
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Availability
    }

    fn before_comm(&mut self, _world: &mut World, _rng: &mut StdRng) {
        if !self.last {
            self.marks.borrow_mut().before_comm = Some(Instant::now());
        }
    }

    fn on_air(&mut self, _world: &mut World, _rng: &mut StdRng, _frames: &mut Vec<Frame>) {
        if self.last {
            self.marks.borrow_mut().on_air = Some(Instant::now());
        }
    }

    fn observe(&mut self, _world: &mut World, _rng: &mut StdRng, _deliveries: &[Delivery]) {
        if !self.last {
            self.marks.borrow_mut().observe = Some(Instant::now());
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Debug)]
struct DefenseProbe {
    marks: SharedMarks,
}

impl Defense for DefenseProbe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn adjust_commands(&mut self, _world: &World, _commands: &mut [f64]) {
        self.marks.borrow_mut().adjust = Some(Instant::now());
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Registers the first attack probe and the defense probe; call before
/// adding any other hook.
pub fn attach_first(engine: &mut Engine, marks: &SharedMarks) {
    engine.add_attack(Box::new(AttackProbe {
        last: false,
        marks: Rc::clone(marks),
    }));
    engine.add_defense(Box::new(DefenseProbe {
        marks: Rc::clone(marks),
    }));
}

/// Registers the last attack probe; call after adding every other hook.
pub fn attach_last(engine: &mut Engine, marks: &SharedMarks) {
    engine.add_attack(Box::new(AttackProbe {
        last: true,
        marks: Rc::clone(marks),
    }));
}
