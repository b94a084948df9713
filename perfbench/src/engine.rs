//! The engine workloads: their scenarios, closed-loop episodes and the
//! traced phase profile.
//!
//! An episode builds a fresh engine, steps it through the scenario's fixed
//! tick count and renders its `RunSummary` as canonical JSON, so every
//! episode of a seed must produce the same bytes.

use crate::host::Reference;
use crate::probe::{self, SharedMarks, PHASES};
use crate::spans::Spans;
use crate::stats;
use crate::Report;
use platoon_core::experiments::common::{base_scenario, Effort};
use platoon_core::experiments::corridor::{
    corridor_scenario, CORRIDOR_HORIZON_M, PLATOON_SPACING_M,
};
use platoon_core::experiments::table4;
use platoon_crypto::cert::PrincipalId;
use platoon_detect::observation::MessageObservation;
use platoon_detect::pipeline::PipelineConfig;
use platoon_proto::messages::PlatoonId;
use platoon_sim::harness::{derive_seed, json, write_run_summary};
use platoon_sim::prelude::{
    steps_for, AuthMode, CommsMode, ControllerKind, Engine, JoinerAgent, JoinerCredentials,
    ObservationSink, PerfCounters, Scenario,
};
use platoon_v2x::message::NodeId;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Corridor shape: 500 platoons of 10 trucks.
const CORRIDOR_PER: usize = 10;
const CORRIDOR_PLATOONS: usize = 500;
/// Platoons in the corridor slice whose observations feed the detector
/// replay: the same density and horizon at a tenth of the length.
const SLICE_PLATOONS: usize = 50;

/// Which engine scenario a workload steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 8-truck CACC platoon, PKI signatures, hybrid SP-VLC, detectors on.
    Pki,
    /// The 500x10 indexed corridor with its joiner, split and merge.
    Corridor,
    /// One service-grid job: the Table IV benign cell with the default
    /// detector profile, as a service worker runs it.
    DetectionJob,
}

/// One engine workload at one benchmark seed.
#[derive(Clone, Debug)]
pub struct EngineWorkload {
    pub shape: Shape,
    /// The scenario seed, derived from the workload name and benchmark seed.
    pub seed: u64,
    /// Engine threads the workload runs at.
    pub threads: usize,
}

/// One finished episode.
#[derive(Clone, Debug)]
pub struct Episode {
    /// Canonical JSON of the `RunSummary` (perf counters included).
    pub summary: String,
    pub vehicles: usize,
    pub ticks: u64,
    /// `Engine::new` plus attachment.
    pub setup: Duration,
    /// From `Engine::new` to the rendered summary, less the host reference
    /// samples taken between ticks.
    pub total: Duration,
    /// Each `Engine::step` call.
    pub tick_times: Vec<Duration>,
    pub perf: PerfCounters,
    /// RF (frame, receiver) pairs the medium considered.
    pub pairs: u64,
}

impl Episode {
    /// Summed stepping time.
    pub fn stepping(&self) -> Duration {
        self.tick_times.iter().sum()
    }

    /// Vehicles x ticks per second of stepping.
    pub fn vehicle_ticks_per_s(&self) -> f64 {
        (self.vehicles as u64 * self.ticks) as f64 / self.stepping().as_secs_f64()
    }
}

impl EngineWorkload {
    pub fn new(shape: Shape, name: &str, seed: u64) -> Self {
        EngineWorkload {
            shape,
            seed: derive_seed(name, seed),
            threads: if shape == Shape::Corridor { 2 } else { 1 },
        }
    }

    fn scenario(&self) -> Scenario {
        match self.shape {
            Shape::Pki => Scenario::builder()
                .label("pki_platoon")
                .vehicles(8)
                .controller(ControllerKind::Cacc)
                .auth(AuthMode::Pki)
                .comms(CommsMode::HybridVlc)
                .duration(60.0)
                .seed(self.seed)
                .build(),
            Shape::Corridor => corridor_scenario(
                "corridor_5000",
                CORRIDOR_PER,
                CORRIDOR_PLATOONS,
                2.0,
                CORRIDOR_HORIZON_M,
            )
            .seed(self.seed)
            .build(),
            Shape::DetectionJob => base_scenario("benign/default", Effort::quick())
                .seed(self.seed)
                .build(),
        }
    }

    /// Builds the engine with the workload's hooks; with `marks`, the
    /// probes go first and last around them.
    fn build_with(
        &self,
        scenario: Scenario,
        threads: usize,
        marks: Option<&SharedMarks>,
    ) -> Engine {
        let mut engine = Engine::new(scenario);
        engine.set_threads(threads);
        if let Some(marks) = marks {
            probe::attach_first(&mut engine, marks);
        }
        match self.shape {
            Shape::Pki => engine.attach_detector_config(PipelineConfig::default_profile()),
            Shape::DetectionJob => engine.attach_detector_config(table4::profile_for("default")),
            Shape::Corridor => {
                // As the corridor experiment drives it: a legitimate joiner
                // alongside the lead platoon, positioned relative to the
                // world's tail (the rearmost platoon), hence a negative gap.
                let per = engine.scenario().vehicles;
                let platoons = engine.scenario().platoons;
                let span = (per * platoons) as f64 * 26.5
                    + platoons.saturating_sub(1) as f64 * PLATOON_SPACING_M;
                engine.add_attack(Box::new(
                    JoinerAgent::new(
                        PrincipalId(900_000),
                        NodeId(900_000),
                        JoinerCredentials::None,
                        PlatoonId(1),
                        2.0,
                    )
                    .with_trail_gap(per as f64 * 26.5 + 40.0 - span),
                ));
            }
        }
        if let Some(marks) = marks {
            probe::attach_last(&mut engine, marks);
        }
        engine
    }

    /// A fresh engine at the given thread count.
    pub fn build(&self, threads: usize, marks: Option<&SharedMarks>) -> Engine {
        self.build_with(self.scenario(), threads, marks)
    }

    /// Runs one episode. With `marks` and `spans`, each tick gets a span
    /// with the five probe phases as children, keyed by the tick index.
    /// With `host`, the reference kernel is sampled between ticks when due.
    pub fn episode(
        &self,
        threads: usize,
        marks: Option<&SharedMarks>,
        mut spans: Option<&mut Spans>,
        mut host: Option<&mut Reference>,
    ) -> Episode {
        let t0 = Instant::now();
        let mut engine = self.build(threads, marks);
        let setup = t0.elapsed();
        let scenario = engine.scenario();
        let ticks = steps_for(scenario.duration, scenario.comm_step);
        let per = scenario.vehicles;
        let mut tick_times = Vec::with_capacity(ticks as usize);
        let mut kernel = Duration::ZERO;
        for tick in 0..ticks {
            if self.shape == Shape::Corridor {
                // Split the lead platoon a third of the way in and merge
                // it back at two thirds.
                if tick == ticks / 3 {
                    let _ = engine.command_split(per / 2);
                }
                if tick == ticks * 2 / 3 {
                    engine.command_merge();
                }
            }
            let start = Instant::now();
            engine.step();
            let end = Instant::now();
            tick_times.push(end - start);
            if let (Some(marks), Some(spans)) = (marks, spans.as_deref_mut()) {
                let bounds = marks
                    .borrow_mut()
                    .take_bounds(start, end)
                    .expect("every probe fires once per tick, in order");
                let parent = spans.push("sim.tick", tick, None, start, end);
                for ((name, _), w) in PHASES.iter().zip(bounds.windows(2)) {
                    spans.push(name, tick, Some(parent), w[0], w[1]);
                }
            }
            if let Some(host) = host.as_deref_mut() {
                kernel += host.between();
            }
        }
        engine.restore_faults();
        let mut w = json::Writer::new();
        w.obj(|w| write_run_summary(w, &engine.summary()));
        let summary = w.finish();
        Episode {
            summary,
            vehicles: engine.world().vehicles.len(),
            ticks,
            setup,
            total: t0.elapsed() - kernel,
            tick_times,
            perf: *engine.perf(),
            pairs: engine.medium_pairs_considered(),
        }
    }

    /// Accepted-message observation batches (one per delivery round) from
    /// a run shaped like the workload: the workload's own scenario, or for
    /// the corridor a slice of it with the same density and horizon.
    pub fn observations(&self) -> Vec<Vec<MessageObservation>> {
        let scenario = match self.shape {
            Shape::Corridor => corridor_scenario(
                "corridor_5000/slice",
                CORRIDOR_PER,
                SLICE_PLATOONS,
                0.3,
                CORRIDOR_HORIZON_M,
            )
            .seed(self.seed)
            .build(),
            _ => self.scenario(),
        };
        let mut engine = self.build_with(scenario, 1, None);
        engine.attach_observation_sink(Box::new(Capture::default()));
        engine.run();
        let sink = engine
            .take_observation_sink()
            .expect("the capture sink stays attached");
        let capture = sink
            .as_any()
            .downcast_ref::<Capture>()
            .expect("the sink is a Capture");
        capture.0.clone()
    }
}

/// An observation sink that keeps every batch.
#[derive(Debug, Default)]
struct Capture(Vec<Vec<MessageObservation>>);

impl ObservationSink for Capture {
    fn on_messages(&mut self, batch: &[MessageObservation]) {
        if !batch.is_empty() {
            self.0.push(batch.to_vec());
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The untraced closed loop: episodes back to back while the next one can
/// end within `seconds` (at least one), then extra set-ups until there are
/// enough set-up samples for a median. The host reference is sampled around
/// every episode and between its ticks when due, and every time is reported
/// scaled by the samples around it (see `host`).
pub fn measure(wl: &EngineWorkload, seconds: f64, pin: Option<&str>, report: &mut Report) {
    const MIN_SETUPS: usize = 15;
    let start = Instant::now();
    let mut host = Reference::new();
    let (mut episodes, mut scales, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let mark = host.mark();
        crate::reset_peak_rss();
        episodes.push(wl.episode(wl.threads, None, None, Some(&mut host)));
        rss.push(crate::peak_rss_mb());
        scales.push(host.close(mark));
        if start.elapsed() + t.elapsed() > Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let mut setups: Vec<f64> = episodes
        .iter()
        .zip(&scales)
        .map(|(e, s)| e.setup.as_secs_f64() * s)
        .collect();
    let mark = host.mark();
    let mut extra = Vec::new();
    while setups.len() + extra.len() < MIN_SETUPS {
        let t0 = Instant::now();
        let engine = wl.build(wl.threads, None);
        extra.push(t0.elapsed().as_secs_f64());
        drop(engine);
    }
    if !extra.is_empty() {
        let s = host.close(mark);
        setups.extend(extra.iter().map(|t| t * s));
    }

    // At the default seed every episode must match the pinned digest; at
    // any other seed, the first episode.
    let first = crate::digest(&episodes[0].summary);
    report.note(format!("RunSummary digest {first}"));
    let expected = pin.map_or(first, str::to_string);
    for (i, e) in episodes.iter().enumerate() {
        let got = crate::digest(&e.summary);
        report.check(got == expected, || {
            format!("episode {i}: RunSummary digest {got}, expected {expected}")
        });
    }

    let ticks: Vec<f64> = episodes
        .iter()
        .zip(&scales)
        .flat_map(|(e, s)| e.tick_times.iter().map(move |t| t.as_secs_f64() * 1e3 * s))
        .collect();
    report.metric("setup_s", "s", &setups);
    let throughputs: Vec<f64> = episodes
        .iter()
        .zip(&scales)
        .map(|(e, s)| e.vehicle_ticks_per_s() / s)
        .collect();
    report.metric("vehicle_ticks_per_s", "1/s", &throughputs);
    let totals: Vec<f64> = episodes
        .iter()
        .zip(&scales)
        .map(|(e, s)| e.total.as_secs_f64() * s)
        .collect();
    report.metric("cold_batch_s", "s", &totals);
    report.metric("warm_batch_ms", "ms", &ticks);
    host.note(&scales, report);
    // The run's high-water mark: the highest episode's. Each episode's mark
    // depends on the allocator arenas that earlier sharding threads left
    // behind (75-124 MB per corridor episode), so the highest of a run is
    // steadier than any one episode's.
    let highest = rss.iter().copied().fold(0.0, f64::max);
    crate::report_peak_rss(highest, &rss, report);
}

/// What the traced engine pass hands to the kernel-share estimates.
pub struct SimProfile {
    /// Summed stepping time of the traced episodes.
    pub stepping_ns: u64,
    /// Deliveries over the traced episodes.
    pub deliveries: u64,
}

/// The traced engine pass: untraced reference episodes and, as many of
/// each, probed episodes and episodes at the other thread count. All must
/// render the same `RunSummary` bytes. The episode count aims at 1010
/// timed ticks (so the p99 has ten beyond it) with the three kinds together
/// fitting in `seconds`, but is at least one.
pub fn profile(
    wl: &EngineWorkload,
    seconds: f64,
    spans: &mut Spans,
    report: &mut Report,
) -> SimProfile {
    let first = wl.episode(wl.threads, None, None, None);
    let fit = (seconds / (3.0 * first.total.as_secs_f64())) as u64;
    let count = 1010u64.div_ceil(first.ticks).min(fit).max(1) as usize;
    // The three kinds of episode alternate, so a drift in host speed
    // weighs on each alike and cancels out of their ratios.
    let marks: SharedMarks = Rc::new(RefCell::new(probe::Marks::default()));
    let other_threads = if wl.threads == 1 { 2 } else { 1 };
    let (mut untraced, mut traced, mut other) = (vec![first], Vec::new(), Vec::new());
    for i in 0..count {
        if i > 0 {
            untraced.push(wl.episode(wl.threads, None, None, None));
        }
        traced.push(wl.episode(wl.threads, Some(&marks), Some(&mut *spans), None));
        other.push(wl.episode(other_threads, None, None, None));
    }

    let reference = &untraced[0].summary;
    for (what, e) in untraced
        .iter()
        .map(|e| ("untraced", e))
        .chain(traced.iter().map(|e| ("traced", e)))
        .chain(other.iter().map(|e| ("other-thread-count", e)))
    {
        report.check(&e.summary == reference, || {
            format!("{what} episode RunSummary differs from the untraced one")
        });
    }

    let throughput = |eps: &[Episode]| {
        let vt: u64 = eps.iter().map(|e| e.vehicles as u64 * e.ticks).sum();
        let secs: f64 = eps.iter().map(|e| e.stepping().as_secs_f64()).sum();
        vt as f64 / secs
    };
    let untraced_tp = throughput(&untraced);
    let traced_tp = throughput(&traced);
    let other_tp = throughput(&other);
    let (one, two) = if wl.threads == 1 {
        (untraced_tp, other_tp)
    } else {
        (other_tp, untraced_tp)
    };

    let tick_ms: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.tick_times.iter().map(|t| t.as_secs_f64() * 1e3))
        .collect();
    let (tail_pct, tail_ms) =
        stats::tail_percentile(&tick_ms).expect("traced pass times at least twenty ticks");
    let tick_ns = spans.total_ns("sim.tick") as f64;
    let selfs = spans.self_ns();
    let phase = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;

    let sum = |f: fn(&Episode) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let ticks = sum(|e| e.ticks);
    let frames = sum(|e| e.perf.frames_built);
    let deliveries = sum(|e| e.perf.deliveries);
    let pairs = sum(|e| e.pairs);
    let observations = sum(|e| e.perf.detector_observations);

    report.metric("sim.tick_p50_ms", "ms", &tick_ms);
    report.value("sim.tick_tail_ms", "ms", tail_ms);
    report.value("sim.tick_tail_pct", "pct", f64::from(tail_pct));
    report.value("sim.ticks_timed", "count", tick_ms.len() as f64);
    for (name, share) in PHASES {
        report.value(share, "ratio", phase(name) / tick_ns);
    }
    report.value("sim.seal_ns_per_frame", "ns", phase("sim.seal") / frames);
    report.value("sim.medium_ns_per_pair", "ns", phase("sim.medium") / pairs);
    report.value("sim.rx_ns_per_delivery", "ns", phase("sim.rx") / deliveries);
    report.value("sim.frames_per_tick", "count", frames / ticks);
    report.value("sim.deliveries_per_tick", "count", deliveries / ticks);
    report.value("sim.pairs_per_tick", "count", pairs / ticks);
    report.value("sim.observations_per_tick", "count", observations / ticks);
    report.value("sim.par_speedup", "ratio", two / one);
    report.value("v2x.delivery_ratio", "ratio", deliveries / pairs);
    report.value(
        "bench.trace_overhead",
        "ratio",
        traced_tp / untraced_tp - 1.0,
    );

    SimProfile {
        stepping_ns: traced.iter().map(|e| e.stepping().as_nanos() as u64).sum(),
        deliveries: deliveries as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_inert_and_their_phases_partition_every_tick() {
        let wl = EngineWorkload::new(Shape::Pki, "pki_platoon", 3);
        let bare = wl.episode(1, None, None, None);
        let marks: SharedMarks = Rc::new(RefCell::new(probe::Marks::default()));
        let mut spans = Spans::new(Instant::now());
        let probed = wl.episode(1, Some(&marks), Some(&mut spans), None);
        assert_eq!(bare.summary, probed.summary);

        let tick_ns = spans.total_ns("sim.tick");
        assert_eq!(u128::from(tick_ns), probed.stepping().as_nanos());
        let selfs = spans.self_ns();
        assert_eq!(selfs["sim.tick"], 0, "the phases cover each tick");
        let phase_ns: u64 = PHASES.iter().map(|(p, _)| selfs[p]).sum();
        assert_eq!(phase_ns, tick_ns);
        let shares: f64 = PHASES
            .iter()
            .map(|(p, _)| selfs[p] as f64 / tick_ns as f64)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
    }

    #[test]
    fn a_missing_probe_mark_yields_no_bounds() {
        let mut marks = probe::Marks::default();
        let t = Instant::now();
        assert!(marks.take_bounds(t, t).is_none());
    }
}
