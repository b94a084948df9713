//! Metamorphic check on protocol dedup: a receiver that hears the same
//! sealed bytes twice in one step applies them once, whether the second
//! copy shares the first one's allocation or holds a fresh copy of its
//! bytes. The engine memoises each payload's dedup hash by allocation, so
//! this pins that dedup itself still keys on content.
//!
//! A detector pipeline is attached so that a second application of the
//! copy would also show up as an extra `perf.detector_observations`.

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

/// Canonical `RunSummary` JSON and the attack's twice-heard count.
fn run(byte_copy: bool, threads: usize) -> (String, u64) {
    let scenario = Scenario::builder()
        .label("dedup/resend")
        .vehicles(6)
        .auth(AuthMode::Pki)
        .duration(10.0)
        .seed(2021)
        .build();
    let mut engine = Engine::new(scenario);
    engine.set_threads(threads);
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.add_attack(Box::new(Resend {
        byte_copy,
        resent: None,
        heard_twice: 0,
    }));
    let summary = engine.run();
    let heard_twice = engine.attacks()[0]
        .as_any()
        .downcast_ref::<Resend>()
        .expect("the resend attack")
        .heard_twice;
    let mut w = json::Writer::new();
    w.obj(|w| write_run_summary(w, &summary));
    (w.finish(), heard_twice)
}

#[test]
fn dedup_keys_on_payload_content_not_on_the_allocation() {
    for threads in [1, 2] {
        let (shared, shared_twice) = run(false, threads);
        let (copied, copied_twice) = run(true, threads);
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
