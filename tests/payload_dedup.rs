//! Metamorphic check on protocol dedup: a receiver that hears the same
//! sealed bytes twice in one step applies them once, whether the second
//! copy shares the first one's allocation or holds a fresh copy of its
//! bytes. This pins that dedup keys on content, not on the allocation.
//!
//! A detector pipeline is attached so that a second application of the
//! copy would also show up as an extra `perf.detector_observations`.
//!
//! The engine walks deliveries one frame at a time and takes frame
//! boundaries from `Delivery::frame`. Two frames with the same sender,
//! channel and allocation can land next to each other in the delivery list;
//! they are still two frames, and the second one's receivers are
//! deduplicated against the first's.

use platoon_security::prelude::*;
use platoon_security::sim::harness::{json, write_run_summary};
use platoon_security::v2x::message::{Delivery, Frame, Payload};
use rand::rngs::StdRng;
use std::any::Any;

/// Re-sends the first vehicle frame of every step, either sharing its
/// allocation or as a byte copy, and counts receivers that heard the
/// re-sent bytes twice in one step.
#[derive(Debug)]
struct Resend {
    byte_copy: bool,
    resent: Option<Payload>,
    heard_twice: u64,
}

impl Attack for Resend {
    fn name(&self) -> &'static str {
        "resend"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let Some(honest) = frames
            .iter()
            .find(|f| world.index_of_node(f.sender).is_some())
            .cloned()
        else {
            self.resent = None;
            return;
        };
        let payload = if self.byte_copy {
            honest.payload.to_vec().into()
        } else {
            honest.payload.clone()
        };
        self.resent = Some(honest.payload.clone());
        frames.push(Frame { payload, ..honest });
    }

    fn observe(&mut self, _world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let Some(resent) = &self.resent else { return };
        let mut receivers: Vec<NodeId> = deliveries
            .iter()
            .filter(|d| d.payload.as_slice() == resent.as_slice())
            .map(|d| d.receiver)
            .collect();
        receivers.sort();
        self.heard_twice += receivers.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Takes the first vehicle VLC frame of every step, and every other frame
/// with its bytes, off the air and puts the VLC frame back twice, back to
/// back: both copies share the original's allocation, or each is a byte
/// copy of its own. So the copies are the only frames with these bytes, and
/// a receiver that hears both must apply only the first. The VLC loop keeps
/// offer order, so the two copies' deliveries are adjacent; counts the
/// steps in which they were.
#[derive(Debug)]
struct VlcTwice {
    byte_copy: bool,
    adjacent: u64,
}

impl Attack for VlcTwice {
    fn name(&self) -> &'static str {
        "vlc-twice"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let Some(honest) = frames
            .iter()
            .find(|f| f.channel == ChannelKind::Vlc && world.index_of_node(f.sender).is_some())
            .cloned()
        else {
            return;
        };
        frames.retain(|f| f.payload.as_slice() != honest.payload.as_slice());
        for _ in 0..2 {
            let payload = if self.byte_copy {
                honest.payload.to_vec().into()
            } else {
                honest.payload.clone()
            };
            frames.push(Frame {
                payload,
                ..honest.clone()
            });
        }
    }

    fn observe(&mut self, _world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let copies = deliveries.windows(2).any(|w| {
            w[0].frame != w[1].frame
                && w[0].sender == w[1].sender
                && w[0].channel == w[1].channel
                && w[0].payload.as_slice() == w[1].payload.as_slice()
        });
        self.adjacent += u64::from(copies);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Canonical `RunSummary` JSON of a 6-truck PKI platoon under `attack`,
/// and the engine, to read the attack back.
fn run(comms: CommsMode, attack: Box<dyn Attack>, threads: usize) -> (String, Engine) {
    let scenario = Scenario::builder()
        .label("dedup/resend")
        .vehicles(6)
        .auth(AuthMode::Pki)
        .comms(comms)
        .duration(10.0)
        .seed(2021)
        .build();
    let mut engine = Engine::new(scenario);
    engine.set_threads(threads);
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.add_attack(attack);
    let summary = engine.run();
    let mut w = json::Writer::new();
    w.obj(|w| write_run_summary(w, &summary));
    (w.finish(), engine)
}

/// The resend run's summary and the attack's twice-heard count.
fn resend(byte_copy: bool, threads: usize) -> (String, u64) {
    let attack = Resend {
        byte_copy,
        resent: None,
        heard_twice: 0,
    };
    let (summary, engine) = run(CommsMode::DsrcOnly, Box::new(attack), threads);
    let heard_twice = engine.attacks()[0]
        .as_any()
        .downcast_ref::<Resend>()
        .expect("the resend attack")
        .heard_twice;
    (summary, heard_twice)
}

/// The VLC run's summary and the steps with adjacent copies.
fn vlc_twice(byte_copy: bool) -> (String, u64) {
    let attack = VlcTwice {
        byte_copy,
        adjacent: 0,
    };
    let (summary, engine) = run(CommsMode::HybridVlc, Box::new(attack), 1);
    let adjacent = engine.attacks()[0]
        .as_any()
        .downcast_ref::<VlcTwice>()
        .expect("the VLC attack")
        .adjacent;
    (summary, adjacent)
}

#[test]
fn dedup_keys_on_payload_content_not_on_the_allocation() {
    for threads in [1, 2] {
        let (shared, shared_twice) = resend(false, threads);
        let (copied, copied_twice) = resend(true, threads);
        assert!(
            shared_twice > 0,
            "the re-sent frame never reached a receiver twice in one step"
        );
        assert_eq!(shared_twice, copied_twice);
        assert_eq!(
            shared, copied,
            "a byte copy of a frame was applied differently from a shared one ({threads} threads)"
        );
    }
}

#[test]
fn adjacent_copies_of_one_frame_are_two_frames() {
    let (shared, shared_adjacent) = vlc_twice(false);
    let (copied, copied_adjacent) = vlc_twice(true);
    assert!(
        shared_adjacent > 0,
        "the two copies never reached a receiver back to back"
    );
    assert_eq!(shared_adjacent, copied_adjacent);
    assert_eq!(
        shared, copied,
        "adjacent copies sharing one allocation were applied differently from byte copies"
    );
}
