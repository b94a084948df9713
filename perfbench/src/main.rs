//! The platoon-security benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pki_platoon|corridor_5000|service_grid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run that splits each layer out (see `README.md`). Both check the
//! program's outputs, print a human summary on stderr and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 0 only when every check passed.

mod engine;
mod host;
mod kernels;
mod probe;
mod service;
mod spans;
mod stats;

use engine::{EngineWorkload, Shape};
use platoon_crypto::sha256::Sha256;
use platoon_server::job::JobSpec;
use platoon_sim::harness::json;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed whose outputs are pinned below.
const DEFAULT_SEED: u64 = 2021;

/// SHA-256 of each workload's pinned output at [`DEFAULT_SEED`]: the
/// canonical `RunSummary` JSON of one episode for the engine workloads,
/// the batch document for `service_grid`.
const PINS: [(&str, &str); 3] = [
    (
        "pki_platoon",
        "7a2540c3551bed07fa41f8bd437cd75da3db72cde3e21ebe469b4b845bd92fce",
    ),
    (
        "corridor_5000",
        "ad6d1ec93da0c2c8d209d5b545472432f06fa2d142888d39576c942bd02ec6dc",
    ),
    (
        "service_grid",
        "596828692a2c309ec340f385e8a3dfb429866d2f8e72f1ade804a0cd25b1f55f",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PkiPlatoon,
    Corridor,
    ServiceGrid,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "pki_platoon" => Some(Workload::PkiPlatoon),
            "corridor_5000" => Some(Workload::Corridor),
            "service_grid" => Some(Workload::ServiceGrid),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PkiPlatoon => "pki_platoon",
            Workload::Corridor => "corridor_5000",
            Workload::ServiceGrid => "service_grid",
        }
    }

    /// The engine scenario the workload steps, or for the service the
    /// scenario its jobs run.
    fn engine(self, seed: u64) -> EngineWorkload {
        let shape = match self {
            Workload::PkiPlatoon => Shape::Pki,
            Workload::Corridor => Shape::Corridor,
            Workload::ServiceGrid => Shape::DetectionJob,
        };
        EngineWorkload::new(shape, self.name(), seed)
    }

    /// The job batch the traced run pushes through the service, and the
    /// engine threads its workers give each job: the grid itself, or one
    /// job of the engine workload's kind.
    fn service_batch(self, seed: u64) -> (Vec<JobSpec>, usize) {
        match self {
            Workload::PkiPlatoon => (
                vec![JobSpec::Perf {
                    cell: "perf/cacc/pki/dsrc+detect".into(),
                    quick: false,
                }],
                1,
            ),
            Workload::Corridor => (
                vec![JobSpec::Corridor {
                    label: "corridor_5000".into(),
                    per: 10,
                    platoons: 500,
                    duration: 0.3,
                    horizon: Some(platoon_core::experiments::corridor::CORRIDOR_HORIZON_M),
                    seed: self.engine(seed).seed,
                }],
                2,
            ),
            Workload::ServiceGrid => (service::grid(seed), 1),
        }
    }

    /// The digest the workload's output must have at [`DEFAULT_SEED`].
    fn pin(self) -> &'static str {
        PINS.iter()
            .find(|(name, _)| *name == self.name())
            .map(|(_, pin)| *pin)
            .expect("every workload has a pin")
    }

    /// Runs one untimed operation at [`DEFAULT_SEED`] and checks it against
    /// the pin, so that a run at any seed fails on a deterministic wrong
    /// output: one episode, or one cold pass of the service grid.
    fn check_pin(self, report: &mut Report) {
        let got = match self {
            Workload::ServiceGrid => service::cold_digest(DEFAULT_SEED),
            w => {
                let wl = w.engine(DEFAULT_SEED);
                Ok(digest(&wl.episode(wl.threads, None, None, None).summary))
            }
        };
        let pin = self.pin();
        report.check(got.as_deref() == Ok(pin), || {
            format!("seed {DEFAULT_SEED}: output digest {got:?}, pinned {pin}")
        });
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <pki_platoon|corridor_5000|service_grid> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("want 0 < seconds <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("want 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(DEFAULT_SEED),
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Counts one operation or output check; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Records a metric from one value.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    /// Records the median of `samples`, noting its quartiles and count.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let median = stats::median(samples);
        if samples.len() >= 2 {
            let (q1, q3) = stats::quartiles(samples);
            self.note(format!(
                "{name}: median {median:.6} {unit} (q1 {q1:.6}, q3 {q3:.6}, n {})",
                samples.len()
            ));
        }
        self.value(name, unit, median);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The result line. Every value must be a finite number.
    fn result_line(&self) -> String {
        let mut w = json::Writer::compact();
        w.obj(|w| {
            w.field_bool("correct", self.failed == 0);
            w.field_u64("attempted", self.attempted);
            w.field_u64("failed", self.failed);
            w.field_obj("metrics", |w| {
                for &(name, unit, value) in &self.metrics {
                    w.field_obj(name, |w| {
                        w.field_f64("value", value);
                        w.field_str("unit", unit);
                    });
                }
            });
        });
        w.finish()
    }
}

/// SHA-256 of a document, as hex.
pub fn digest(text: &str) -> String {
    Sha256::digest(text.as_bytes()).to_hex()
}

/// Where the run writes spans and its temporary cache directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Restarts the kernel's resident high-water mark from the current RSS, so
/// each closed-loop operation gets its own peak. Without the reset the
/// mark simply runs from process start, which still bounds the operation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The resident high-water mark in MB since the last reset.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Reports `peak_rss_mb` as `mb`, one of the per-operation high-water
/// marks `rss`, less the host reference's buffer, which stays resident all
/// run; notes the range of the marks.
pub fn report_peak_rss(mb: f64, rss: &[f64], report: &mut Report) {
    let low = rss.iter().copied().fold(f64::INFINITY, f64::min);
    let high = rss.iter().copied().fold(0.0, f64::max);
    let workload = |mb: f64| mb - host::BUFFER_MB;
    report.note(format!(
        "peak_rss_mb: {:.3} MB; per-operation marks {:.3}..{:.3} over {}",
        workload(mb),
        workload(low),
        workload(high),
        rss.len()
    ));
    report.value("peak_rss_mb", "MB", workload(mb));
}

/// The metric names and units `BENCHMARK.json` declares for this mode,
/// sorted.
fn declared_metrics(trace: bool) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(if trace { "per_layer" } else { "end_to_end" });
    let Some(json::Value::Arr(list)) = list else {
        panic!("BENCHMARK.json lacks its metric lists");
    };
    let text_of = |v: Option<&json::Value>| match v {
        Some(json::Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: expected a string, got {other:?}"),
    };
    let mut declared: Vec<(String, String)> = list
        .iter()
        .map(|m| (text_of(m.get("name")), text_of(m.get("unit"))))
        .collect();
    declared.sort();
    declared
}

/// The traced run: the engine phase profile, the kernel pass and the
/// server layer, each on inputs shaped like the workload's.
fn traced(workload: Workload, seed: u64, seconds: f64, spans: &mut Spans, report: &mut Report) {
    let wl = workload.engine(seed);
    let sim = engine::profile(&wl, seconds, spans, report);
    let k = kernels::measure(&wl, report);
    // Computed, not measured: standalone ns/op times the operation count,
    // over the traced stepping time. A PKI delivery verifies two Schnorr
    // signatures (certificate and message); the dedup digest runs once.
    let verifies = if wl.shape == Shape::Pki { 2.0 } else { 0.0 };
    let per_delivery = |ns: f64| ns * sim.deliveries as f64 / sim.stepping_ns as f64;
    report.value(
        "crypto.verify_est_share",
        "ratio",
        per_delivery(verifies * k.schnorr_verify_ns),
    );
    report.value(
        "crypto.sha256_est_share",
        "ratio",
        per_delivery(k.sha256_ns),
    );
    let (specs, threads) = workload.service_batch(seed);
    service::layer(&specs, threads, spans, report);
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = declared_metrics(args.trace);
    std::fs::create_dir_all(out_dir()).expect("create the output directory");
    let epoch = Instant::now();
    let mut report = Report::default();
    if args.trace {
        let mut spans = Spans::new(epoch);
        traced(
            args.workload,
            args.seed,
            args.seconds,
            &mut spans,
            &mut report,
        );
        let path = out_dir().join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, spans.to_jsonl()).expect("write the span log");
        report.note(format!("spans written to {}", path.display()));
    } else {
        let default = args.seed == DEFAULT_SEED;
        let pin = default.then(|| args.workload.pin());
        match args.workload {
            Workload::ServiceGrid => service::measure(args.seed, args.seconds, pin, &mut report),
            w => engine::measure(&w.engine(args.seed), args.seconds, pin, &mut report),
        }
        if !default {
            args.workload.check_pin(&mut report);
        }
    }

    let mut produced: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|&(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    produced.sort();
    if report.failed == 0 && produced != declared {
        eprintln!("metrics {produced:?} do not match BENCHMARK.json {declared:?}");
        return ExitCode::from(3);
    }
    let non_finite: Vec<&str> = report
        .metrics
        .iter()
        .filter(|m| !m.2.is_finite())
        .map(|m| m.0)
        .collect();
    for name in non_finite {
        report.check(false, || format!("{name} is not a finite number"));
    }

    eprintln!(
        "{} seed {} trace {}: {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        epoch.elapsed().as_secs_f64()
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for problem in &report.problems {
        eprintln!("  FAILED: {problem}");
    }
    eprintln!(
        "  error_rate: {} of {} operations failed",
        report.failed, report.attempted
    );
    println!("{}", report.result_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
