//! Observers never steer a run: attaching a trace recorder changes only
//! `RunSummary::trace`, and attaching an observation sink changes nothing,
//! whether or not a detector pipeline is attached. Checked on the traced
//! experiment's arm (with a pipeline), a DoS arm and a small corridor
//! (both without one).

use platoon_core::experiments::common::{arm_params, build_arm, Effort, EXPERIMENT_BASE_SEED};
use platoon_core::experiments::corridor::{
    corridor_engine, drive_corridor, CORRIDOR_BASE_SEED, CORRIDOR_HORIZON_M,
};
use platoon_core::experiments::trace::{traced_engine, DEFAULT_ATTACK};
use platoon_detect::observation::MessageObservation;
use platoon_sim::harness::{json, write_run_summary};
use platoon_sim::prelude::{Engine, ObservationSink, RunSummary, TraceRecorder};
use std::any::Any;

/// A sink that only counts the observations it is handed.
#[derive(Debug, Default)]
struct CountingSink(usize);

impl ObservationSink for CountingSink {
    fn on_messages(&mut self, batch: &[MessageObservation]) {
        self.0 += batch.len();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn canonical(summary: &RunSummary) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| write_run_summary(w, summary));
    w.finish()
}

/// Runs the arm bare, with a trace recorder and with a sink, and compares
/// the three summaries.
fn assert_observers_are_inert(
    arm: &str,
    build: impl Fn() -> Engine,
    run: impl Fn(&mut Engine) -> RunSummary,
) {
    let bare = || {
        let mut engine = build();
        engine.take_tracer();
        engine
    };
    let plain = run(&mut bare());
    assert_eq!(plain.trace, None, "{arm}: the bare run carries no trace");

    let mut engine = bare();
    engine.attach_tracer(TraceRecorder::new());
    let mut traced = run(&mut engine);
    assert!(
        traced.trace.is_some(),
        "{arm}: the trace digest is folded in"
    );
    traced.trace = None;
    assert_eq!(
        canonical(&plain),
        canonical(&traced),
        "{arm}: a trace recorder changed the run"
    );

    let mut engine = bare();
    engine.attach_observation_sink(Box::new(CountingSink::default()));
    let tapped = run(&mut engine);
    let sink = engine.take_observation_sink().expect("sink attached above");
    let seen = sink.as_any().downcast_ref::<CountingSink>().unwrap().0;
    assert!(seen > 0, "{arm}: the sink saw no accepted message");
    assert_eq!(
        canonical(&plain),
        canonical(&tapped),
        "{arm}: an observation sink changed the run"
    );
}

#[test]
fn trace_recorders_and_observation_sinks_are_inert() {
    let effort = Effort::quick();
    assert_observers_are_inert(
        "trace/impersonation",
        || traced_engine(DEFAULT_ATTACK, effort, EXPERIMENT_BASE_SEED),
        Engine::run,
    );
    assert_observers_are_inert(
        "dos-join-flood/keys",
        || {
            let flood = arm_params("dos-join-flood");
            build_arm(
                "dos-join-flood/keys",
                "dos-join-flood",
                flood.as_ref(),
                Some("keys"),
                effort,
                9,
            )
        },
        Engine::run,
    );
    assert_observers_are_inert(
        "corridor/inert/2x5",
        || {
            corridor_engine(
                "corridor/inert/2x5",
                5,
                2,
                10.0,
                CORRIDOR_HORIZON_M,
                1,
                CORRIDOR_BASE_SEED,
            )
        },
        |engine| drive_corridor(engine).summary,
    );
}
