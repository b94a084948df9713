//! Deterministic parallel experiment harness with golden-summary snapshots.
//!
//! The experiment drivers (the scenario matrix, the Table II/III
//! reproductions, the report) all share the same shape: a batch of
//! independent scenario runs whose [`RunSummary`]s are tabulated afterwards.
//! This module gives that shape one engine:
//!
//! * [`Batch`] — a queue of labelled jobs executed across a `std::thread`
//!   worker pool. Each job receives a seed derived *only* from its label and
//!   the batch base seed ([`derive_seed`]), so results are identical
//!   regardless of worker count or scheduling order. Jobs are crash-isolated:
//!   a panicking job becomes a [`JobOutcome::Failed`] entry instead of
//!   taking down the batch.
//! * [`BatchReport`] — the collected summaries in submission order, with a
//!   canonical JSON rendering ([`BatchReport::to_canonical_json`]) that is
//!   byte-for-byte reproducible and records failed jobs explicitly.
//! * [`golden`] — snapshot regression: compare a canonical JSON document
//!   against a committed golden file byte for byte, refresh with
//!   `UPDATE_GOLDEN=1`, and fail with a readable per-path diff otherwise.
//! * [`json`] — the tiny canonical JSON writer and parser the above are
//!   built on (the workspace has no serialization framework, so
//!   serialization is explicit and therefore stable by construction).

use crate::exec;
use crate::metrics::{DetectionSummary, RunSummary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::Duration;

pub use crate::exec::JobOutcome;

/// The FNV-1a 64-bit offset basis: the digest of no bytes, and the seed of
/// every [`fnv1a_fold`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a 64-bit digest `hash`. Folding a
/// stream chunk by chunk gives the digest of the whole stream.
pub fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 64-bit FNV-1a over `bytes`: the workspace's one non-cryptographic
/// digest. Label-derived seeds, engine state and trace digests, dataset
/// shard checksums and the job server's cache keys all use it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Derives the per-job seed from the job label and the batch base seed.
///
/// FNV-1a over the label bytes, then mixed with the base seed through two
/// SplitMix64-style avalanche rounds. Pure function of `(label, base_seed)`:
/// neither worker count nor submission order can influence it, which is what
/// makes batch results scheduling-independent.
pub fn derive_seed(label: &str, base_seed: u64) -> u64 {
    let mut z = fnv1a(label.as_bytes()) ^ base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// The default worker-pool width: the machine's available parallelism,
/// falling back to 4 when it cannot be queried. Results never depend on
/// this — only wall-clock time does.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// One labelled unit of work: a closure from the derived seed to its result.
///
/// The closure owns everything it needs (scenario, attack/defense setup) and
/// builds the `Engine` *inside* the worker, so no shared mutable state exists
/// between jobs.
pub struct BatchJob<T> {
    /// Stable label; the seed is derived from it unless pinned.
    pub label: String,
    /// Pinned seed, bypassing label derivation (experiment drivers pin the
    /// canonical scenario seed so measured tables stay comparable across
    /// refactors; `None` = derive from the label).
    pub seed: Option<u64>,
    /// The work. Receives the job's seed.
    pub run: Box<dyn FnOnce(u64) -> T + Send>,
}

/// The result of one job, tagged with its label and derived seed.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchEntry<T> {
    /// The job's label.
    pub label: String,
    /// The seed the job ran with.
    pub seed: u64,
    /// What the job returned.
    pub value: T,
}

/// A batch of labelled jobs executed on a worker pool.
///
/// Generic over the job output so experiment drivers can return enriched
/// results (e.g. a summary plus a scalar impact extracted while the engine
/// is still alive); [`Batch<RunSummary>::run_report`] is the common case.
///
/// # Examples
///
/// ```
/// use platoon_sim::harness::Batch;
/// use platoon_sim::prelude::*;
///
/// let mut batch = Batch::new(2021);
/// for n in [3usize, 4] {
///     batch.push(format!("grid/{n}"), move |seed| {
///         let s = Scenario::builder()
///             .label(format!("grid/{n}"))
///             .vehicles(n)
///             .duration(5.0)
///             .seed(seed)
///             .build();
///         Engine::new(s).run()
///     });
/// }
/// let report = batch.run_report(2);
/// assert_eq!(report.entries.len(), 2);
/// assert_eq!(report.entries[0].label, "grid/3");
/// ```
pub struct Batch<T> {
    base_seed: u64,
    jobs: Vec<BatchJob<T>>,
}

impl<T: Send + 'static> Batch<T> {
    /// Creates an empty batch with the given base seed.
    pub fn new(base_seed: u64) -> Self {
        Batch {
            base_seed,
            jobs: Vec::new(),
        }
    }

    /// The batch base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues one job; its seed will be `derive_seed(label, base_seed)`.
    pub fn push(&mut self, label: impl Into<String>, run: impl FnOnce(u64) -> T + Send + 'static) {
        self.jobs.push(BatchJob {
            label: label.into(),
            seed: None,
            run: Box::new(run),
        });
    }

    /// Queues one job with a pinned seed instead of label derivation. The
    /// pinned seed is recorded in the entry (and any golden built from it),
    /// so reports stay honest about what actually ran.
    pub fn push_with_seed(
        &mut self,
        label: impl Into<String>,
        seed: u64,
        run: impl FnOnce(u64) -> T + Send + 'static,
    ) {
        self.jobs.push(BatchJob {
            label: label.into(),
            seed: Some(seed),
            run: Box::new(run),
        });
    }

    /// Executes every job across `workers` threads and returns the entries
    /// in *submission order* (never completion order).
    ///
    /// Strict façade over [`run_outcomes`](Self::run_outcomes): panics with
    /// the offending label and reason if any job failed, which is what the
    /// experiment drivers want (a measured table with silently missing cells
    /// would be worse than an abort). Batches that must degrade gracefully —
    /// the robustness grid, anything accepting injected crashes — call
    /// `run_outcomes` instead.
    pub fn run(self, workers: usize) -> Vec<BatchEntry<T>> {
        self.run_outcomes(workers)
            .into_iter()
            .map(|e| match e.value {
                JobOutcome::Ok(value) => BatchEntry {
                    label: e.label,
                    seed: e.seed,
                    value,
                },
                JobOutcome::Failed { reason } => {
                    panic!("batch job {:?} failed: {reason}", e.label)
                }
            })
            .collect()
    }

    /// Executes every job across `workers` threads with per-job crash
    /// isolation, returning one [`JobOutcome`] entry per job in *submission
    /// order* (never completion order).
    ///
    /// Work is handed out through an atomic cursor; each worker pops the
    /// next unclaimed job, runs it inside `catch_unwind` with its derived
    /// seed, and sends the outcome back tagged with its slot index. Because the
    /// seed depends only on `(label, base_seed)` and results are re-slotted
    /// by index, the returned vector is identical for any `workers >= 1`.
    ///
    /// A panicking job yields `Failed { reason }` carrying the panic message;
    /// every other job still runs and reports. Job-queue locks are taken
    /// poison-tolerantly, and a slot whose result never arrives is
    /// synthesized as `Failed` rather than aborting the collection — the
    /// harness itself has no panic path left on the job's account.
    pub fn run_outcomes(self, workers: usize) -> Vec<BatchEntry<JobOutcome<T>>> {
        let base_seed = self.base_seed;
        let n = self.jobs.len();
        // Label + seed survive outside the job slots so a job whose result
        // never arrives still yields a labelled Failed entry.
        let meta: Vec<(String, u64)> = self
            .jobs
            .iter()
            .map(|j| {
                let seed = j.seed.unwrap_or_else(|| derive_seed(&j.label, base_seed));
                (j.label.clone(), seed)
            })
            .collect();
        let jobs: Vec<Mutex<Option<BatchJob<T>>>> =
            self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, JobOutcome<T>)>();

        std::thread::scope(|scope| {
            for _ in 0..workers.max(1).min(n.max(1)) {
                let tx = tx.clone();
                let jobs = &jobs;
                let cursor = &cursor;
                let meta = &meta;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let claimed = jobs[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take();
                    let Some(job) = claimed else { continue };
                    let executed = exec::execute_job(job.run, meta[i].1, None, Duration::ZERO);
                    if tx.send((i, executed.outcome)).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<JobOutcome<T>>> = (0..n).map(|_| None).collect();
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
        slots
            .into_iter()
            .zip(meta)
            .map(|(slot, (label, seed))| {
                let value = slot.unwrap_or(JobOutcome::Failed {
                    reason: "job never reported a result".into(),
                });
                BatchEntry { label, seed, value }
            })
            .collect()
    }
}

impl Batch<RunSummary> {
    /// Convenience: queues a plain scenario run. The scenario's own seed is
    /// *replaced* by the derived seed, and its label becomes the job label.
    pub fn push_scenario(&mut self, scenario: crate::scenario::Scenario) {
        let label = scenario.label.clone();
        self.push(label, move |seed| {
            let mut scenario = scenario;
            scenario.seed = seed;
            crate::engine::Engine::new(scenario).run()
        });
    }

    /// Runs the batch and wraps the outcomes in a [`BatchReport`].
    ///
    /// Failed jobs (panics) do **not** abort the report — they
    /// appear as failed entries and render as `"error"` objects in the
    /// canonical JSON.
    pub fn run_report(self, workers: usize) -> BatchReport {
        let base_seed = self.base_seed;
        BatchReport {
            base_seed,
            entries: self.run_outcomes(workers),
        }
    }
}

/// A completed batch of [`RunSummary`]s (or per-job failures) in submission
/// order.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReport {
    /// The batch base seed the per-job seeds were derived from.
    pub base_seed: u64,
    /// One entry per job, in submission order.
    pub entries: Vec<BatchEntry<JobOutcome<RunSummary>>>,
}

impl BatchReport {
    /// Looks an entry up by label.
    pub fn entry(&self, label: &str) -> Option<&BatchEntry<JobOutcome<RunSummary>>> {
        self.entries.iter().find(|e| e.label == label)
    }

    /// The summary for a label, panicking with the label when the entry is
    /// missing or the job failed.
    pub fn summary(&self, label: &str) -> &RunSummary {
        self.entry(label)
            .unwrap_or_else(|| panic!("no batch entry labelled {label:?}"))
            .value
            .as_ok()
            .unwrap_or_else(|| panic!("batch entry {label:?} failed"))
    }

    /// Successful entries as `(entry, summary)` pairs, in submission order.
    pub fn summaries(
        &self,
    ) -> impl Iterator<Item = (&BatchEntry<JobOutcome<RunSummary>>, &RunSummary)> {
        self.entries
            .iter()
            .filter_map(|e| e.value.as_ok().map(|s| (e, s)))
    }

    /// Failed entries as `(label, reason)` pairs, in submission order.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .iter()
            .filter_map(|e| e.value.failure().map(|r| (e.label.as_str(), r)))
    }

    /// Renders the report as canonical JSON: fixed field order, `{:?}`
    /// (shortest round-trip) float formatting, non-finite floats as the
    /// strings `"inf"` / `"-inf"` / `"nan"`, two-space indentation. Byte
    /// stable for identical inputs, which is what the golden suite and the
    /// worker-count determinism guarantee rest on.
    ///
    /// Successful entries render exactly as they always have (`label`,
    /// `seed`, `summary`), so goldens recorded before crash isolation remain
    /// valid; a failed entry renders its reason under `"error"` instead of a
    /// `"summary"` object.
    pub fn to_canonical_json(&self) -> String {
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_u64("base_seed", self.base_seed);
            w.field_arr("entries", |w| {
                for e in &self.entries {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("label", &e.label);
                            w.field_u64("seed", e.seed);
                            match &e.value {
                                JobOutcome::Ok(s) => {
                                    w.field_obj("summary", |w| write_run_summary(w, s));
                                }
                                JobOutcome::Failed { reason } => {
                                    w.field_str("error", reason);
                                }
                            }
                        })
                    });
                }
            });
        });
        w.finish()
    }
}

/// Canonical field-by-field rendering of a [`RunSummary`] — the shared
/// document shape of the golden snapshots, the batch reports, and the job
/// service's cached results (which must stay byte-identical to a fresh
/// run's rendering).
pub fn write_run_summary(w: &mut json::Writer, s: &RunSummary) {
    w.field_str("label", &s.label);
    w.field_f64("duration", s.duration);
    w.field_u64("vehicles", s.vehicles as u64);
    w.field_f64("max_spacing_error", s.max_spacing_error);
    w.field_f64("mean_abs_spacing_error", s.mean_abs_spacing_error);
    w.field_f64("oscillation_energy", s.oscillation_energy);
    w.field_f64("worst_amplification", s.worst_amplification);
    w.field_bool("string_stable", s.string_stable);
    w.field_u64("collisions", s.collisions as u64);
    w.field_f64("min_gap", s.min_gap);
    w.field_f64("min_ttc", s.min_ttc);
    w.field_f64("fuel_l_per_100km", s.fuel_l_per_100km);
    w.field_f64("leader_tail_pdr", s.leader_tail_pdr);
    w.field_f64("tail_leader_age_mean", s.tail_leader_age_mean);
    w.field_f64("fragmented_fraction", s.fragmented_fraction);
    w.field_f64("service_down_fraction", s.service_down_fraction);
    w.field_obj("maneuvers", |w| {
        let m = &s.maneuvers;
        w.field_u64("join_requests", m.join_requests);
        w.field_u64("joins_accepted", m.joins_accepted);
        w.field_u64("joins_denied", m.joins_denied);
        w.field_u64("joins_dropped", m.joins_dropped);
        w.field_u64("joins_completed", m.joins_completed);
        w.field_u64("joins_timed_out", m.joins_timed_out);
        w.field_u64("leaves", m.leaves);
        w.field_u64("splits", m.splits);
        w.field_f64("wasted_gap_seconds", m.wasted_gap_seconds);
    });
    w.field_u64("rejected_messages", s.rejected_messages as u64);
    w.field_u64("detections", s.detections as u64);
    // Always 0. The key stays only because perfbench pins these bytes: the
    // pki_platoon and corridor_5000 digests and the service_grid document.
    w.field_u64("events_dropped", 0);
    w.field_obj("perf", |w| s.perf.write_canonical(w));
    // Rendered only when a tracer was attached, so untraced goldens keep
    // their exact historical shape.
    if let Some(trace) = &s.trace {
        w.field_obj("trace", |w| trace.write_canonical(w));
    }
}

/// Canonical field-by-field rendering of a [`DetectionSummary`], shared by
/// the job service's detection and robustness documents and the regime
/// rows.
pub fn write_detection_summary(w: &mut json::Writer, d: &DetectionSummary) {
    w.field_u64("alerts", d.alerts as u64);
    w.field_u64("true_positives", d.true_positives as u64);
    w.field_u64("false_positives", d.false_positives as u64);
    w.field_bool("detected", d.detected);
    w.field_f64("first_detection_latency", d.first_detection_latency);
    w.field_f64("attribution_accuracy", d.attribution_accuracy);
}

pub mod json {
    //! A canonical JSON writer and a minimal parser.
    //!
    //! The writer produces deterministic output (explicit field order,
    //! shortest-round-trip floats, non-finite floats as strings). The parser
    //! accepts exactly the documents the writer emits plus ordinary
    //! hand-edited JSON — enough to load goldens back for a per-path diff
    //! without an external dependency.

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (parsed as `f64`; also covers `"inf"`-style strings on
        /// the comparison path, see [`Value::as_f64`]).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, preserving insertion order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Member lookup on objects.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Numeric view: numbers verbatim, plus the writer's non-finite
        /// encodings (`"inf"`, `"-inf"`, `"nan"`).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                Value::Str(s) => match s.as_str() {
                    "inf" => Some(f64::INFINITY),
                    "-inf" => Some(f64::NEG_INFINITY),
                    "nan" => Some(f64::NAN),
                    _ => None,
                },
                _ => None,
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match parse_value(b, pos)? {
                        Value::Str(s) => s,
                        other => return Err(format!("object key must be a string, got {other:?}")),
                    };
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    let value = parse_value(b, pos)?;
                    fields.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let mut s = String::new();
                loop {
                    match b.get(*pos) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            *pos += 1;
                            return Ok(Value::Str(s));
                        }
                        Some(b'\\') => {
                            *pos += 1;
                            match b.get(*pos) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'/') => s.push('/'),
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                Some(b'r') => s.push('\r'),
                                Some(b'u') => {
                                    let hex =
                                        b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                        16,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    s.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                                    *pos += 4;
                                }
                                other => return Err(format!("bad escape {other:?}")),
                            }
                            *pos += 1;
                        }
                        Some(_) => {
                            // Copy the whole run up to the next quote or
                            // backslash at once. Both stop bytes are ASCII
                            // and the input came from a `&str`, so every run
                            // is whole UTF-8; checking only the run keeps the
                            // parse linear in the input.
                            let end = b[*pos..]
                                .iter()
                                .position(|&c| c == b'"' || c == b'\\')
                                .map_or(b.len(), |n| *pos + n);
                            let run =
                                std::str::from_utf8(&b[*pos..end]).map_err(|e| e.to_string())?;
                            s.push_str(run);
                            *pos = end;
                        }
                    }
                }
            }
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
        }
    }

    /// Canonical JSON writer: fixed field order, `{:?}` floats, non-finite
    /// floats as strings. [`Writer::new`] pretty-prints with a two-space
    /// indent (the golden-document shape); [`Writer::compact`] emits the
    /// same document on a single line (the JSONL trace-record shape).
    /// Both shapes parse back through [`parse`] identically.
    pub struct Writer {
        out: String,
        indent: usize,
        /// Whether the current container already has a member (comma logic).
        needs_comma: Vec<bool>,
        /// Pretty (indented, one member per line) vs compact (single line).
        pretty: bool,
    }

    impl Default for Writer {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Writer {
        /// Creates an empty pretty-printing writer.
        pub fn new() -> Self {
            Writer {
                out: String::new(),
                indent: 0,
                needs_comma: Vec::new(),
                pretty: true,
            }
        }

        /// Creates an empty single-line writer (for JSONL records).
        pub fn compact() -> Self {
            Writer {
                out: String::new(),
                indent: 0,
                needs_comma: Vec::new(),
                pretty: false,
            }
        }

        /// Finishes, returning the document — with a trailing newline when
        /// pretty, without one when compact (JSONL callers join lines
        /// themselves).
        pub fn finish(mut self) -> String {
            if self.pretty {
                self.out.push('\n');
            }
            self.out
        }

        fn newline_item(&mut self) {
            if let Some(last) = self.needs_comma.last_mut() {
                if *last {
                    self.out.push(',');
                    if !self.pretty {
                        self.out.push(' ');
                    }
                }
                *last = true;
            }
            if self.pretty && !self.needs_comma.is_empty() {
                self.out.push('\n');
                for _ in 0..self.indent {
                    self.out.push_str("  ");
                }
            }
        }

        fn open(&mut self, c: char) {
            self.out.push(c);
            self.indent += 1;
            self.needs_comma.push(false);
        }

        fn close(&mut self, c: char) {
            let had_items = self.needs_comma.pop().unwrap_or(false);
            self.indent -= 1;
            if self.pretty && had_items {
                self.out.push('\n');
                for _ in 0..self.indent {
                    self.out.push_str("  ");
                }
            }
            self.out.push(c);
        }

        /// Writes an object via the callback.
        pub fn obj(&mut self, f: impl FnOnce(&mut Writer)) {
            self.open('{');
            f(self);
            self.close('}');
        }

        fn key(&mut self, name: &str) {
            self.newline_item();
            self.push_string(name);
            self.out.push_str(": ");
        }

        /// Writes a string field.
        pub fn field_str(&mut self, name: &str, value: &str) {
            self.key(name);
            self.push_string(value);
        }

        /// Writes an unsigned integer field.
        pub fn field_u64(&mut self, name: &str, value: u64) {
            self.key(name);
            self.out.push_str(&value.to_string());
        }

        /// Writes a boolean field.
        pub fn field_bool(&mut self, name: &str, value: bool) {
            self.key(name);
            self.out.push_str(if value { "true" } else { "false" });
        }

        /// Writes a float field: `{:?}` for finite values (shortest string
        /// that round-trips), `"inf"` / `"-inf"` / `"nan"` otherwise.
        pub fn field_f64(&mut self, name: &str, value: f64) {
            self.key(name);
            self.push_f64(value);
        }

        /// Writes a float array element.
        pub fn push_f64(&mut self, value: f64) {
            if value.is_finite() {
                self.out.push_str(&format!("{value:?}"));
            } else if value.is_nan() {
                self.out.push_str("\"nan\"");
            } else if value > 0.0 {
                self.out.push_str("\"inf\"");
            } else {
                self.out.push_str("\"-inf\"");
            }
        }

        /// Writes a string array element.
        pub fn push_str(&mut self, value: &str) {
            self.push_string(value);
        }

        /// Writes a nested object field.
        pub fn field_obj(&mut self, name: &str, f: impl FnOnce(&mut Writer)) {
            self.key(name);
            self.obj(f);
        }

        /// Writes a field whose value is an *already-rendered* JSON
        /// document, verbatim.
        ///
        /// The caller owns the invariants: `raw` must be one complete JSON
        /// value with no trailing newline (compact-writer output qualifies).
        /// This is how the job service embeds cached result documents into
        /// batch reports without re-parsing them — byte preservation is the
        /// whole point of the cache.
        pub fn field_raw(&mut self, name: &str, raw: &str) {
            self.key(name);
            self.out.push_str(raw);
        }

        /// Writes an array field; use [`Writer::elem`] inside the callback.
        pub fn field_arr(&mut self, name: &str, f: impl FnOnce(&mut Writer)) {
            self.key(name);
            self.open('[');
            f(self);
            self.close(']');
        }

        /// Writes one array element via the callback.
        pub fn elem(&mut self, f: impl FnOnce(&mut Writer)) {
            self.newline_item();
            // The callback writes the value itself (object, field, …) —
            // suppress its own comma/newline logic for the first token.
            let depth = self.needs_comma.len();
            f(self);
            debug_assert_eq!(depth, self.needs_comma.len(), "unbalanced elem callback");
        }

        fn push_string(&mut self, s: &str) {
            self.out.push('"');
            for c in s.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\t' => self.out.push_str("\\t"),
                    '\r' => self.out.push_str("\\r"),
                    c if (c as u32) < 0x20 => self.out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }
    }
}

pub mod golden {
    //! Golden-snapshot comparison by bytes.
    //!
    //! `check` compares a document against a committed golden file: they
    //! match when their bytes are equal. A mismatch fails with one line per
    //! differing JSON path (or the first differing line, when either side
    //! is not JSON or only the formatting differs); setting
    //! `UPDATE_GOLDEN=1` rewrites the golden instead and passes.

    use super::json::{self, Value};
    use std::path::Path;

    /// Compares `actual` against the golden at `path`, byte for byte.
    ///
    /// With `UPDATE_GOLDEN=1` it writes `actual` to `path` and passes. A
    /// missing golden fails like a mismatch, so a mistyped path cannot
    /// turn a test into a no-op. A mismatch is an `Err` with a readable
    /// diff plus the refresh instructions.
    pub fn check(path: &Path, actual: &str) -> Result<(), String> {
        let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
        compare(path, actual, update)
    }

    /// Convenience for tests: panics with the diff on mismatch.
    pub fn assert_matches(path: &Path, actual: &str) {
        if let Err(diff) = check(path, actual) {
            panic!("{diff}");
        }
    }

    /// [`check`] with the refresh decision passed in.
    pub(super) fn compare(path: &Path, actual: &str, update: bool) -> Result<(), String> {
        const HINT: &str = "If the change is intended, write the golden with:\n  \
                            UPDATE_GOLDEN=1 cargo test";
        if update {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating {}: {e}", parent.display()))?;
            }
            return std::fs::write(path, actual)
                .map_err(|e| format!("writing {}: {e}", path.display()));
        }
        let golden = std::fs::read_to_string(path)
            .map_err(|e| format!("reading golden {}: {e}\n{HINT}", path.display()))?;
        if golden == actual {
            return Ok(());
        }
        let mut diffs = Vec::new();
        if let (Ok(g), Ok(a)) = (json::parse(&golden), json::parse(actual)) {
            diff_values("$", &g, &a, &mut diffs);
        }
        if diffs.is_empty() {
            diffs.push(first_line_diff(&golden, actual));
        }
        let shown = diffs
            .iter()
            .take(25)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n  ");
        let more = if diffs.len() > 25 {
            format!("\n  … and {} more differences", diffs.len() - 25)
        } else {
            String::new()
        };
        Err(format!(
            "golden mismatch against {} ({} difference{}):\n  {shown}{more}\n{HINT}",
            path.display(),
            diffs.len(),
            if diffs.len() == 1 { "" } else { "s" },
        ))
    }

    /// The first line where two texts differ, for documents whose parsed
    /// values agree (or that do not parse).
    fn first_line_diff(golden: &str, actual: &str) -> String {
        let show =
            |line: Option<&str>| line.map_or("end of file".to_string(), |l| format!("{l:?}"));
        let (mut g, mut a) = (golden.split_inclusive('\n'), actual.split_inclusive('\n'));
        let mut number = 1;
        loop {
            match (g.next(), a.next()) {
                (Some(gl), Some(al)) if gl == al => number += 1,
                (gl, al) => {
                    return format!("line {number}: golden {} vs actual {}", show(gl), show(al))
                }
            }
        }
    }

    fn diff_values(path: &str, golden: &Value, actual: &Value, out: &mut Vec<String>) {
        // Numbers (including the non-finite string encodings) compare by
        // bits, so `-0.0` and `0.0` differ; everything else structurally.
        if let (Some(g), Some(a)) = (golden.as_f64(), actual.as_f64()) {
            if g.to_bits() != a.to_bits() {
                out.push(format!("{path}: golden {g:?} vs actual {a:?}"));
            }
            return;
        }
        match (golden, actual) {
            (Value::Obj(g), Value::Obj(a)) => {
                for (k, gv) in g {
                    match actual.get(k) {
                        Some(av) => diff_values(&format!("{path}.{k}"), gv, av, out),
                        None => out.push(format!("{path}.{k}: missing from actual")),
                    }
                }
                for (k, _) in a {
                    if golden.get(k).is_none() {
                        out.push(format!("{path}.{k}: not in golden"));
                    }
                }
            }
            (Value::Arr(g), Value::Arr(a)) => {
                if g.len() != a.len() {
                    out.push(format!(
                        "{path}: array length golden {} vs actual {}",
                        g.len(),
                        a.len()
                    ));
                }
                for (i, (gv, av)) in g.iter().zip(a.iter()).enumerate() {
                    diff_values(&format!("{path}[{i}]"), gv, av, out);
                }
            }
            (g, a) if g == a => {}
            (g, a) => out.push(format!("{path}: golden {g:?} vs actual {a:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::*;
    use crate::exec::panic_message;
    use crate::scenario::Scenario;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn derived_seeds_are_stable_and_label_sensitive() {
        let a = derive_seed("grid/cacc/none", 2021);
        assert_eq!(a, derive_seed("grid/cacc/none", 2021), "pure function");
        assert_ne!(a, derive_seed("grid/cacc/keys", 2021), "label matters");
        assert_ne!(a, derive_seed("grid/cacc/none", 2022), "base seed matters");
    }

    #[test]
    fn batch_preserves_submission_order_under_contention() {
        let mut batch: Batch<usize> = Batch::new(0);
        for i in 0..32usize {
            // Reverse sleep: late submissions finish first.
            batch.push(format!("job/{i}"), move |_seed| {
                std::thread::sleep(std::time::Duration::from_micros((32 - i) as u64 * 50));
                i
            });
        }
        let entries = batch.run(8);
        let order: Vec<usize> = entries.iter().map(|e| e.value).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_fails_alone_and_the_rest_survive() {
        // Regression: a panicking job used to poison the shared slot mutex,
        // turning the next worker's `.expect("job slot poisoned")` into a
        // batch-wide abort. It must now degrade to one Failed entry.
        let mut batch: Batch<usize> = Batch::new(5);
        for i in 0..6usize {
            batch.push(format!("iso/{i}"), move |_seed| {
                if i == 3 {
                    panic!("deliberate test panic");
                }
                i
            });
        }
        let entries = batch.run_outcomes(4);
        assert_eq!(entries.len(), 6, "every job reports, crashed or not");
        let ok: Vec<usize> = entries
            .iter()
            .filter_map(|e| e.value.as_ok().copied())
            .collect();
        assert_eq!(ok, vec![0, 1, 2, 4, 5], "N-1 results survive");
        let failed = &entries[3];
        assert_eq!(failed.label, "iso/3");
        assert_eq!(failed.seed, derive_seed("iso/3", 5), "seed still recorded");
        let reason = failed.value.failure().expect("job 3 failed");
        assert!(
            reason.contains("deliberate test panic"),
            "panic message surfaces: {reason}"
        );
    }

    #[test]
    fn strict_run_panics_with_the_failing_label() {
        let mut batch: Batch<usize> = Batch::new(1);
        batch.push("fine", |_| 1);
        batch.push("doomed", |_| panic!("strict-mode probe"));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| batch.run(2)))
            .expect_err("strict run re-raises job failures");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("doomed"), "label named: {msg}");
        assert!(msg.contains("strict-mode probe"), "reason named: {msg}");
    }

    #[test]
    fn raw_fields_embed_rendered_documents_verbatim() {
        let inner = {
            let mut w = json::Writer::compact();
            w.obj(|w| {
                w.field_u64("x", 1);
                w.field_f64("y", f64::INFINITY);
            });
            w.finish()
        };
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_str("label", "cell");
            w.field_raw("document", &inner);
            w.field_u64("after", 2);
        });
        let text = w.finish();
        assert!(text.contains(&inner), "raw document embedded verbatim");
        let v = json::parse(&text).expect("document with raw field parses");
        assert_eq!(
            v.get("document").and_then(|d| d.get("x")),
            Some(&Value::Num(1.0))
        );
        assert_eq!(v.get("after"), Some(&Value::Num(2.0)));
    }

    #[test]
    fn compact_writer_is_single_line_and_parses_identically() {
        let build = |mut w: json::Writer| {
            w.obj(|w| {
                w.field_u64("tick", 7);
                w.field_f64("nan", f64::NAN);
                w.field_obj("detail", |w| {
                    w.field_str("kind", "medium_step");
                    w.field_arr("xs", |w| {
                        for x in [1.5, -0.25] {
                            w.elem(|w| w.push_f64(x));
                        }
                    });
                });
            });
            w.finish()
        };
        let pretty = build(json::Writer::new());
        let compact = build(json::Writer::compact());
        assert!(pretty.ends_with('\n'));
        assert!(!compact.contains('\n'), "compact output is one line");
        assert_eq!(
            compact,
            "{\"tick\": 7, \"nan\": \"nan\", \"detail\": \
             {\"kind\": \"medium_step\", \"xs\": [1.5, -0.25]}}"
        );
        // Both shapes parse to the same value.
        assert_eq!(
            json::parse(&pretty).unwrap(),
            json::parse(&compact).unwrap()
        );
    }

    #[test]
    fn failed_jobs_render_as_error_entries_in_canonical_json() {
        let mut batch = Batch::new(17);
        batch.push_scenario(
            Scenario::builder()
                .label("ok-cell")
                .vehicles(3)
                .duration(2.0)
                .build(),
        );
        batch.push("crash-cell", |_seed| -> RunSummary {
            panic!("injected grid crash")
        });
        let report = batch.run_report(2);
        assert_eq!(report.summaries().count(), 1, "N-1 summaries survive");
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "crash-cell");
        let text = report.to_canonical_json();
        let value = json::parse(&text).expect("report with failures still parses");
        let Some(Value::Arr(items)) = value.get("entries") else {
            panic!("entries is an array")
        };
        assert!(
            items[0].get("summary").is_some(),
            "ok entry keeps its shape"
        );
        assert!(items[0].get("error").is_none());
        let Some(Value::Str(reason)) = items[1].get("error") else {
            panic!("failed entry renders an error string")
        };
        assert!(reason.contains("injected grid crash"), "{reason}");
        assert!(items[1].get("summary").is_none());
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let build = || {
            let mut batch = Batch::new(7);
            for n in [2usize, 3, 4] {
                batch.push_scenario(
                    Scenario::builder()
                        .label(format!("det/{n}"))
                        .vehicles(n)
                        .duration(3.0)
                        .build(),
                );
            }
            batch
        };
        let one = build().run_report(1).to_canonical_json();
        let many = build().run_report(4).to_canonical_json();
        assert_eq!(one, many, "harness output must be scheduling-independent");
    }

    #[test]
    fn default_workers_is_always_usable() {
        // `available_parallelism` may fail on exotic platforms; the fallback
        // (4) and every successful probe are both valid pool widths. What
        // callers rely on is only that the value can be handed straight to
        // `Batch::run`.
        let w = default_workers();
        assert!(w >= 1, "worker count must be positive, got {w}");
        let mut batch: Batch<u64> = Batch::new(3);
        batch.push("probe", |seed| seed);
        assert_eq!(batch.run(w).len(), 1);
    }

    #[test]
    fn extreme_worker_counts_produce_identical_reports() {
        let build = || {
            let mut batch = Batch::new(13);
            for n in [2usize, 3] {
                batch.push_scenario(
                    Scenario::builder()
                        .label(format!("clamp/{n}"))
                        .vehicles(n)
                        .duration(2.0)
                        .build(),
                );
            }
            batch
        };
        let reference = build().run_report(2).to_canonical_json();
        // workers = 0 is clamped to one thread rather than deadlocking.
        assert_eq!(build().run_report(0).to_canonical_json(), reference);
        // More workers than jobs: the surplus threads find nothing to do.
        assert_eq!(build().run_report(64).to_canonical_json(), reference);
    }

    #[test]
    fn canonical_json_round_trips_through_the_parser() {
        let mut batch = Batch::new(11);
        batch.push_scenario(
            Scenario::builder()
                .label("rt")
                .vehicles(3)
                .duration(2.0)
                .build(),
        );
        let report = batch.run_report(2);
        let text = report.to_canonical_json();
        let value = json::parse(&text).expect("writer output parses");
        let entries = value.get("entries").expect("entries field");
        let Value::Arr(items) = entries else {
            panic!("entries is an array")
        };
        let summary = items[0].get("summary").expect("summary");
        assert_eq!(
            summary.get("vehicles"),
            Some(&Value::Num(3.0)),
            "field survives the round trip"
        );
        // min_ttc can legitimately be ∞ — ensure the encoding round-trips.
        let ttc = summary.get("min_ttc").expect("min_ttc").as_f64().unwrap();
        assert!(ttc > 0.0);
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_f64("inf", f64::INFINITY);
            w.field_f64("ninf", f64::NEG_INFINITY);
            w.field_f64("nan", f64::NAN);
        });
        let text = w.finish();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("inf").unwrap().as_f64(), Some(f64::INFINITY));
        assert_eq!(v.get("ninf").unwrap().as_f64(), Some(f64::NEG_INFINITY));
        assert!(v.get("nan").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn golden_check_fails_when_missing_then_refreshes_then_compares_bytes() {
        let dir = std::env::temp_dir().join(format!(
            "platoon-golden-test-{}-{:x}",
            std::process::id(),
            derive_seed("golden-test", 1)
        ));
        let path = dir.join("sample.json");
        let doc = "{\n  \"x\": 1.5,\n  \"y\": \"inf\"\n}\n";

        // A missing golden fails and is not written. The refresh decision
        // is passed in rather than set through UPDATE_GOLDEN, which every
        // other test in this process reads.
        let err = golden::compare(&path, doc, false).unwrap_err();
        assert!(err.contains("UPDATE_GOLDEN=1"), "refresh hint: {err}");
        assert!(!path.exists());
        // The refresh writes it, and the same bytes then match.
        golden::compare(&path, doc, true).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc);
        golden::compare(&path, doc, false).unwrap();

        let mismatch = |actual: &str| golden::compare(&path, actual, false).unwrap_err();
        // A drifted value fails with its path and both values.
        let err = mismatch(&doc.replace("1.5", "1.75"));
        assert!(err.contains("$.x: golden 1.5 vs actual 1.75"), "{err}");
        assert!(err.contains("UPDATE_GOLDEN=1"), "refresh hint: {err}");
        // So does a drift at the 13th significant digit.
        let err = mismatch(&doc.replace("1.5", "1.500000000001"));
        assert!(err.contains("$.x"), "{err}");
        // Equal values spelled differently are named by their line.
        let err = mismatch(&doc.replace("1.5", "1.50"));
        assert!(err.contains("line 2: golden"), "{err}");
        let err = mismatch("not json\n");
        assert!(err.contains("line 1: golden \"{\\n\" vs actual"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "\"open", "{\"a\":1}x"] {
            assert!(json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn long_strings_parse_exactly_in_linear_time() {
        // Every escape the parser knows, plain multibyte runs, and each
        // escape directly followed by a multibyte character. The time bound
        // catches a parse that is quadratic in the string's length: one
        // that re-validates the rest of the input per character needs
        // seconds for this input even in a release build.
        let pieces: [(&str, &str); 12] = [
            ("plain ascii run ", "plain ascii run "),
            ("é", "é"),
            ("中文", "中文"),
            ("😀", "😀"),
            ("\\\"é", "\"é"),
            ("\\\\中", "\\中"),
            ("\\/", "/"),
            ("\\n😀", "\n😀"),
            ("\\t", "\t"),
            ("\\r", "\r"),
            ("\\u00e9", "é"),
            ("\\u0001x", "\u{1}x"),
        ];
        let (mut text, mut want) = (String::from("{\"s\": \""), String::new());
        while text.len() < 256 << 10 {
            for (encoded, decoded) in pieces {
                text.push_str(encoded);
                want.push_str(decoded);
            }
        }
        text.push_str("\"}");
        let start = std::time::Instant::now();
        let value = json::parse(&text).expect("long string parses");
        let elapsed = start.elapsed();
        assert_eq!(value.get("s"), Some(&Value::Str(want)));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn nested_arrays_of_structs_serialize_and_parse() {
        // The Table-IV document shape: rows of structs, each carrying its
        // own score array (with non-finite members) — deeper nesting than
        // any RunSummary field exercises.
        let rows: [(&str, &[f64]); 2] = [
            ("alpha", &[1.5, f64::INFINITY]),
            ("beta", &[f64::NAN, -0.25, f64::NEG_INFINITY]),
        ];
        let mut w = json::Writer::new();
        w.obj(|w| {
            w.field_arr("rows", |w| {
                for (name, scores) in rows {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("name", name);
                            w.field_arr("scores", |w| {
                                for s in scores {
                                    w.elem(|w| w.push_f64(*s));
                                }
                            });
                            w.field_arr("empty", |_| {});
                        })
                    });
                }
            });
        });
        let text = w.finish();
        let v = json::parse(&text).expect("nested document parses");
        let Some(Value::Arr(parsed)) = v.get("rows") else {
            panic!("rows is an array")
        };
        assert_eq!(parsed.len(), 2);
        for (row, (name, scores)) in parsed.iter().zip(rows) {
            assert_eq!(row.get("name"), Some(&Value::Str(name.to_string())));
            let Some(Value::Arr(got)) = row.get("scores") else {
                panic!("scores is an array")
            };
            assert_eq!(got.len(), scores.len());
            for (g, want) in got.iter().zip(scores) {
                let g = g.as_f64().expect("score is numeric");
                assert!(
                    (g.is_nan() && want.is_nan()) || g == *want,
                    "score {want} came back as {g}"
                );
            }
            assert_eq!(row.get("empty"), Some(&Value::Arr(Vec::new())));
        }
    }
}

#[cfg(test)]
mod serializer_proptests {
    use super::json::{self, Value};
    use proptest::prelude::*;

    /// Every f64 bit pattern: finite values of any magnitude, ±inf, NaNs
    /// with arbitrary payloads, signed zeros, denormals.
    fn arb_score() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn same(a: f64, b: f64) -> bool {
        (a.is_nan() && b.is_nan()) || a == b
    }

    proptest! {
        /// Any rows-of-score-arrays document — nested structs with
        /// arbitrary (possibly non-finite) floats — survives the
        /// writer→parser round trip value-exactly.
        #[test]
        fn nested_score_arrays_roundtrip(
            rows in proptest::collection::vec(
                (0u64..1_000_000, proptest::collection::vec(arb_score(), 0..6)),
                0..5,
            )
        ) {
            let mut w = json::Writer::new();
            w.obj(|w| {
                w.field_arr("rows", |w| {
                    for (id, scores) in &rows {
                        w.elem(|w| {
                            w.obj(|w| {
                                w.field_u64("id", *id);
                                w.field_arr("scores", |w| {
                                    for s in scores {
                                        w.elem(|w| w.push_f64(*s));
                                    }
                                });
                            })
                        });
                    }
                });
            });
            let v = json::parse(&w.finish()).expect("writer output parses");
            let Some(Value::Arr(parsed)) = v.get("rows") else {
                panic!("rows is an array")
            };
            prop_assert_eq!(parsed.len(), rows.len());
            for (row, (id, scores)) in parsed.iter().zip(&rows) {
                prop_assert_eq!(row.get("id").unwrap().as_f64(), Some(*id as f64));
                let Some(Value::Arr(got)) = row.get("scores") else {
                    panic!("scores is an array")
                };
                prop_assert_eq!(got.len(), scores.len());
                for (g, want) in got.iter().zip(scores) {
                    let g = g.as_f64().expect("score is numeric");
                    prop_assert!(same(g, *want), "score {} came back as {}", want, g);
                }
            }
        }
    }
}
