//! The service workload: an in-process `Service` behind `NetServer` on
//! loopback with one `Client`, run cold, restarted over its cache
//! directory, and resubmitted warm.

use crate::host::Reference;
use crate::spans::Spans;
use crate::{stats, Report};
use platoon_core::experiments::common::{base_scenario, Effort, EXPERIMENT_BASE_SEED};
use platoon_server::cache::CacheConfig;
use platoon_server::grids::experiment_grid;
use platoon_server::job::JobSpec;
use platoon_server::net::{Client, NetServer};
use platoon_server::service::{JobStatus, Service, ServiceConfig};
use platoon_sim::harness::{derive_seed, json};
use platoon_sim::prelude::steps_for;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service worker threads: one per core of the 2-core reference host.
const WORKERS: usize = 2;
/// Warm resubmissions per round (the first two on a fresh connection run
/// faster, so the median needs the rest).
const WARM_PER_ROUND: usize = 10;

/// The cold grid: Table IV plus robustness at quick effort (90 jobs, all
/// 11 attacks, benign and the faults), with job seeds moved from the
/// experiments' base seed to one derived from the benchmark seed.
pub fn grid(seed: u64) -> Vec<JobSpec> {
    let base = derive_seed("service_grid", seed);
    let mut specs = experiment_grid("table4", true).expect("table4 grid");
    specs.extend(experiment_grid("robustness", true).expect("robustness grid"));
    for spec in &mut specs {
        match spec {
            JobSpec::Detection { seed, .. } | JobSpec::Robustness { seed, .. } => {
                *seed = base.wrapping_add(*seed - EXPERIMENT_BASE_SEED);
            }
            other => unreachable!("the grid holds only detection and robustness jobs: {other:?}"),
        }
    }
    specs
}

/// Vehicles x ticks one grid job simulates: every Table IV and robustness
/// cell runs the quick-effort evaluation platoon. Checked against the
/// summaries the robustness jobs return.
fn vehicle_ticks_per_job() -> u64 {
    let s = base_scenario("", Effort::quick()).build();
    s.vehicles as u64 * steps_for(s.duration, s.comm_step)
}

/// One job's row of the batch document: label, key and result document.
#[derive(Debug)]
struct Row {
    label: String,
    key: String,
    document: Option<String>,
}

/// The batch document: every job's label, key and verbatim result, in
/// submission order (hit or miss status left out, so cold and warm render
/// the same bytes).
fn batch_document(rows: &[Row]) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_arr("jobs", |w| {
            for row in rows {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("label", &row.label);
                        w.field_str("key", &row.key);
                        match &row.document {
                            Some(d) => w.field_raw("document", d),
                            None => w.field_str("error", "failed"),
                        }
                    })
                });
            }
        });
    });
    w.finish()
}

/// A fresh, empty cache directory under the benchmark's output directory.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the cache directory");
    dir
}

fn start_service(dir: &Path, engine_threads: usize) -> Arc<Service> {
    Arc::new(
        Service::start(ServiceConfig {
            workers: WORKERS,
            job_budget: None,
            engine_threads,
            cache: CacheConfig {
                max_bytes: 64 << 20,
                dir: Some(dir.to_path_buf()),
            },
        })
        .expect("start the service"),
    )
}

/// A service behind its protocol server, with one connected client.
struct Server {
    service: Arc<Service>,
    net: NetServer,
    client: Client,
}

impl Server {
    /// Starts and connects; returns the server and the time it took.
    fn start(dir: &Path, engine_threads: usize) -> (Server, Duration) {
        let t = Instant::now();
        let service = start_service(dir, engine_threads);
        let net = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
        let client = Client::connect(&net.addr().to_string(), None).expect("connect");
        let elapsed = t.elapsed();
        (
            Server {
                service,
                net,
                client,
            },
            elapsed,
        )
    }

    /// Shuts the server down and waits for its threads to let go of the
    /// service, whose drop then joins the workers.
    fn stop(mut self) {
        self.client.shutdown().expect("shutdown reply");
        drop(self.client);
        self.net.join();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&self.service) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(self.service);
    }

    /// Submits over TCP; returns the rows and the round-trip time.
    fn submit(&mut self, specs: &[JobSpec]) -> Result<(Vec<Row>, Vec<String>, Duration), String> {
        let t = Instant::now();
        let results = self.client.submit(specs)?;
        let elapsed = t.elapsed();
        let statuses = results.iter().map(|r| r.status.clone()).collect();
        let rows = results
            .into_iter()
            .map(|r| Row {
                label: r.label,
                key: r.key,
                document: r.document,
            })
            .collect();
        Ok((rows, statuses, elapsed))
    }
}

/// The cold pass of a round: a fresh service on `dir`, connected, the
/// grid submitted, shut down. Returns the rows, their statuses, the
/// start-and-connect time and the submit-to-last-result time.
fn cold_pass(
    dir: &Path,
    specs: &[JobSpec],
) -> Result<(Vec<Row>, Vec<String>, Duration, Duration), String> {
    let (mut server, setup) = Server::start(dir, 1);
    let cold = server.submit(specs);
    server.stop();
    let (rows, statuses, elapsed) = cold?;
    Ok((rows, statuses, setup, elapsed))
}

/// SHA-256 of the cold batch document at `seed`, from one untimed cold
/// pass on a fresh directory.
pub fn cold_digest(seed: u64) -> Result<String, String> {
    let dir = fresh_dir("pin");
    let cold = cold_pass(&dir, &grid(seed));
    let _ = std::fs::remove_dir_all(&dir);
    let (rows, _, _, _) = cold?;
    Ok(crate::digest(&batch_document(&rows)))
}

/// The untraced closed loop. Each round: start on an empty directory and
/// connect, submit the grid cold, shut down; restart over the filled
/// directory and connect, resubmit warm; shut down. Rounds repeat while the
/// next one can end within `seconds` (at least one). The host reference is
/// sampled before, between and after the two halves of a round, and the
/// CPU-bound times (set-up, cold pass) are scaled by it (see `host`); the
/// warm resubmissions wait on the line protocol, not the CPU, and are
/// reported as measured.
pub fn measure(seed: u64, seconds: f64, pin: Option<&str>, report: &mut Report) {
    let specs = grid(seed);
    let start = Instant::now();
    let mut host = Reference::new();
    let (mut setups, mut colds, mut warms, mut throughputs, mut rss, mut scales) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut expected = pin.map(str::to_string);
    for round in 0.. {
        let t = Instant::now();
        let mark = host.mark();
        let dir = fresh_dir(&format!("round{round}"));
        crate::reset_peak_rss();
        let (rows, statuses, cold_setup, cold_time) = match cold_pass(&dir, &specs) {
            Ok(cold) => cold,
            Err(e) => {
                report.check(false, || format!("cold submit failed: {e}"));
                return;
            }
        };
        host.sample();
        for (row, status) in rows.iter().zip(&statuses) {
            report.check(status == "done" && row.document.is_some(), || {
                format!("cold job {} came back {status}", row.label)
            });
        }
        let document = batch_document(&rows);
        let digest = crate::digest(&document);
        if round == 0 {
            report.note(format!("batch document digest {digest}"));
        }
        let want = expected.get_or_insert_with(|| digest.clone());
        report.check(*want == digest, || {
            format!("round {round}: cold batch document digest {digest}, expected {want}")
        });
        check_vehicle_ticks(&rows, report);

        let (mut server, restart_setup) = Server::start(&dir, 1);
        let loaded = server.service.snapshot().cache.loaded;
        report.check(loaded == specs.len() as u64, || {
            format!("restart loaded {loaded} cache entries, not {}", specs.len())
        });
        for _ in 0..WARM_PER_ROUND {
            match server.submit(&specs) {
                Ok((warm_rows, warm_statuses, t)) => {
                    for status in &warm_statuses {
                        report.check(status == "hit", || {
                            format!("warm resubmission returned {status}")
                        });
                    }
                    report.check(batch_document(&warm_rows) == document, || {
                        "warm batch document differs from the cold one".into()
                    });
                    warms.push(t.as_secs_f64() * 1e3);
                }
                Err(e) => report.check(false, || format!("warm submit failed: {e}")),
            }
        }
        server.stop();
        rss.push(crate::peak_rss_mb());
        let _ = std::fs::remove_dir_all(&dir);

        let scale = host.close(mark);
        scales.push(scale);
        setups.push((cold_setup + restart_setup).as_secs_f64() * scale);
        let cold = cold_time.as_secs_f64() * scale;
        colds.push(cold);
        let vehicle_ticks = specs.len() as u64 * vehicle_ticks_per_job();
        throughputs.push(vehicle_ticks as f64 / cold);
        if start.elapsed() + t.elapsed() > Duration::from_secs_f64(seconds) {
            break;
        }
    }
    if warms.is_empty() {
        return;
    }
    report.metric("setup_s", "s", &setups);
    report.metric("vehicle_ticks_per_s", "1/s", &throughputs);
    report.metric("cold_batch_s", "s", &colds);
    report.metric("warm_batch_ms", "ms", &warms);
    host.note(&scales, report);
    // A fresh server's mark: the first round's (10.7-11.3 MB over twenty
    // seeds). Later rounds start from the worker arenas earlier rounds left
    // behind, and their marks split between about 12 and 14 MB.
    crate::report_peak_rss(rss[0], &rss, report);
}

/// Every robustness document carries its `RunSummary`: its vehicles x
/// ticks must equal the count the throughput metric assumes.
fn check_vehicle_ticks(rows: &[Row], report: &mut Report) {
    let want = vehicle_ticks_per_job() as f64;
    for row in rows {
        let Some(summary) = row
            .document
            .as_deref()
            .and_then(|d| json::parse(d).ok())
            .and_then(|v| v.get("summary").cloned())
        else {
            continue;
        };
        let vehicles = summary.get("vehicles").and_then(json::Value::as_f64);
        let ticks = summary
            .get("perf")
            .and_then(|p| p.get("ticks"))
            .and_then(json::Value::as_f64);
        report.check(
            vehicles.zip(ticks).map(|(v, t)| v * t) == Some(want),
            || format!("job {}: summary is not {want} vehicle-ticks", row.label),
        );
    }
}

/// The server layer of the traced run, over `specs`: an in-process cold
/// pass for the per-job timings, restarts for the cache load, in-process
/// warm passes, and pings over TCP.
pub fn layer(specs: &[JobSpec], engine_threads: usize, spans: &mut Spans, report: &mut Report) {
    const REPEATS: usize = 10;
    let dir = fresh_dir("traced");
    let service = start_service(&dir, engine_threads);
    let submitted = Instant::now();
    let rx = service.submit_batch(specs.to_vec());
    let mut jobs = Vec::new();
    for result in rx.iter().take(specs.len()) {
        let arrived = Instant::now();
        report.check(result.status == JobStatus::Executed, || {
            format!("cold job {} came back {:?}", result.label, result.status)
        });
        jobs.push((result.index as u64, result.timing, arrived));
    }
    let makespan = submitted.elapsed();
    let batch = spans.push("server.batch", 0, None, submitted, submitted + makespan);
    for &(id, timing, arrived) in &jobs {
        let claimed = arrived - timing.execution;
        spans.push(
            "server.queue",
            id,
            Some(batch),
            claimed - timing.queue_wait,
            claimed,
        );
        spans.push("server.exec", id, Some(batch), claimed, arrived);
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let exec_ms: Vec<f64> = jobs.iter().map(|j| ms(j.1.execution)).collect();
    let wait_ms: Vec<f64> = jobs.iter().map(|j| ms(j.1.queue_wait)).collect();
    let coalesced = service.snapshot().service.coalesced;
    drop(service);
    report.check(jobs.len() == specs.len(), || {
        format!("{} of {} cold jobs returned", jobs.len(), specs.len())
    });
    if jobs.len() != specs.len() {
        return;
    }

    // Restarts over the filled directory; the last one stays up.
    let restart = || {
        let t = Instant::now();
        let service = start_service(&dir, engine_threads);
        (service, ms(t.elapsed()))
    };
    let mut loads = Vec::new();
    for _ in 1..REPEATS {
        loads.push(restart().1);
    }
    let (service, load) = restart();
    loads.push(load);
    let loaded = service.snapshot().cache.loaded;
    report.check(loaded == specs.len() as u64, || {
        format!("restart loaded {loaded} cache entries, not {}", specs.len())
    });
    let before = service.snapshot().service;
    let mut inproc_ms = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        let results = service.run_batch(specs.to_vec());
        inproc_ms.push(ms(t.elapsed()));
        let all_hits = results.len() == specs.len() && results.iter().all(|r| r.status.is_hit());
        report.check(all_hits, || "in-process warm pass was not all hits".into());
    }
    let after = service.snapshot().service;
    let hit_ratio = (after.hits - before.hits) as f64 / (after.submitted - before.submitted) as f64;

    let net = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(&net.addr().to_string(), None).expect("connect");
    let mut ping_ms = Vec::new();
    for i in 0..REPEATS {
        let t = Instant::now();
        let pong = client.ping();
        let end = Instant::now();
        spans.push("server.ping", i as u64, None, t, end);
        report.check(pong.is_ok(), || format!("ping failed: {pong:?}"));
        ping_ms.push(ms(end - t));
    }
    Server {
        service,
        net,
        client,
    }
    .stop();
    let _ = std::fs::remove_dir_all(&dir);

    let busy: f64 = exec_ms.iter().sum::<f64>() / (WORKERS as f64 * ms(makespan));
    report.metric("server.exec_ms_p50", "ms", &exec_ms);
    report.value(
        "server.exec_ms_max",
        "ms",
        exec_ms.iter().copied().fold(0.0, f64::max),
    );
    report.metric("server.queue_wait_ms_p50", "ms", &wait_ms);
    report.value("server.worker_busy_frac", "ratio", busy);
    report.metric("server.inproc_warm_ms", "ms", &inproc_ms);
    report.metric("server.ping_rtt_ms", "ms", &ping_ms);
    report.metric("server.cache_load_ms", "ms", &loads);
    report.value("server.hit_ratio", "ratio", hit_ratio);
    report.value("server.coalesced", "count", coalesced as f64);
    report.note(format!(
        "server: cold makespan {:.1} ms over {} jobs, median exec {:.2} ms",
        ms(makespan),
        specs.len(),
        stats::median(&exec_ms)
    ));
}
