//! The `serve` and `submit` subcommands of the root `platoon-security`
//! binary ([`SERVE`], [`SUBMIT`]).
//!
//! `submit` writes two files into `--out`:
//!
//! * `SERVICE_<experiment>_<label>.json` — the batch document: one entry
//!   per job with its spec, key, and verbatim result document. Hit/miss
//!   status is deliberately **excluded**, so the file is byte-identical
//!   whether results came from the cache or fresh executions — that is
//!   the golden-snapshot unit.
//! * `SERVICE_STATS_<experiment>_<label>.json` — the cache/service
//!   counters plus this batch's hit/executed/failed split (the CI
//!   artifact; machine-state-dependent by design).

use crate::cache::CacheConfig;
use crate::grids::experiment_grid;
use crate::job::{JobSpec, CODE_VERSION};
use crate::net::{stats_line, Client, NetServer};
use crate::service::{JobStatus, Service, ServiceConfig};
use platoon_sim::cli::{self, Args, Command, Exit, Flag};
use platoon_sim::harness::{golden, json};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The default service endpoint.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9471";

/// One job's contribution to the batch document.
struct Row {
    label: String,
    key: String,
    spec: String,
    status: String,
    document: Option<String>,
    error: Option<String>,
}

/// Renders the deterministic batch document (see the module docs).
fn batch_document(experiment: &str, effort: &str, rows: &[Row]) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_str("code_version", CODE_VERSION);
        w.field_str("experiment", experiment);
        w.field_str("effort", effort);
        w.field_arr("jobs", |w| {
            for row in rows {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("label", &row.label);
                        w.field_str("key", &row.key);
                        w.field_raw("spec", &row.spec);
                        match (&row.document, &row.error) {
                            (Some(document), _) => w.field_raw("document", document),
                            (None, Some(error)) => w.field_str("error", error),
                            (None, None) => w.field_str("error", "missing result"),
                        }
                    })
                });
            }
        });
    });
    w.finish()
}

/// Renders the stats document around the server's stats line.
fn stats_document(experiment: &str, effort: &str, stats: &str, rows: &[Row]) -> String {
    let hits = rows.iter().filter(|r| r.status == "hit").count() as u64;
    let executed = rows.iter().filter(|r| r.status == "done").count() as u64;
    let failed = rows.iter().filter(|r| r.status == "failed").count() as u64;
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_str("experiment", experiment);
        w.field_str("effort", effort);
        w.field_obj("batch", |w| {
            w.field_u64("jobs", rows.len() as u64);
            w.field_u64("hits", hits);
            w.field_u64("executed", executed);
            w.field_u64("failed", failed);
            w.field_bool("all_hits", hits == rows.len() as u64);
        });
        w.field_raw("service", stats);
    });
    w.finish()
}

/// `--addr A`, shared by `serve` and `submit`.
const ADDR: Flag = Flag::value(
    "--addr",
    "A",
    "server endpoint (default: 127.0.0.1:9471; serve: :0 for an ephemeral port)",
);

// The service knobs `serve` and `submit --in-process` share, besides
// `cli::WORKERS`.
const THREADS: Flag = Flag::value(
    "--threads",
    "N",
    "engine threads per corridor job (default: 1)",
);
const CACHE_DIR: Flag = Flag::value(
    "--cache-dir",
    "DIR",
    "persist cached results here (survive restarts)",
);
const CACHE_BYTES: Flag = Flag::value(
    "--cache-bytes",
    "N",
    "cache byte budget before LRU eviction (default: 64 MiB)",
);

/// How long `submit` keeps retrying its connection to the server.
const RETRY: Duration = Duration::from_secs(10);

/// The [`ServiceConfig`] the service flags select.
fn service_config(args: &Args) -> Result<ServiceConfig, Exit> {
    let defaults = ServiceConfig::default();
    Ok(ServiceConfig {
        workers: args.workers()?,
        engine_threads: args.parse(THREADS.name)?.unwrap_or(defaults.engine_threads),
        cache: CacheConfig {
            dir: args.value(CACHE_DIR.name).map(PathBuf::from),
            max_bytes: args
                .parse(CACHE_BYTES.name)?
                .unwrap_or(defaults.cache.max_bytes),
        },
        ..defaults
    })
}

/// The `serve` subcommand. Blocks until a client sends a `shutdown`
/// request.
pub const SERVE: Command = Command {
    name: "serve",
    summary: "persistent job server with a content-addressed result cache",
    operands: &[],
    flags: &[
        ADDR,
        cli::WORKERS,
        THREADS,
        CACHE_DIR,
        CACHE_BYTES,
        Flag::value(
            "--job-budget-secs",
            "S",
            "per-job wall-time budget, execution time only",
        ),
    ],
    run: serve_cli_main,
};

fn serve_cli_main(args: &mut Args) -> Result<(), Exit> {
    let addr = args.value(ADDR.name).unwrap_or(DEFAULT_ADDR);
    let config = ServiceConfig {
        job_budget: args
            .parse("--job-budget-secs")?
            .map(Duration::from_secs_f64),
        ..service_config(args)?
    };
    let service = Arc::new(
        Service::start(config).map_err(|e| Exit::Failed(format!("starting service: {e}")))?,
    );
    let loaded = service.snapshot().cache.loaded;
    let server = NetServer::spawn(Arc::clone(&service), addr)
        .map_err(|e| Exit::Failed(format!("binding {addr}: {e}")))?;
    // Scripts parse this line for the (possibly ephemeral) port.
    println!("listening on {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "{CODE_VERSION} serving on {} ({} cached result(s) loaded); send {{\"type\": \"shutdown\"}} to stop",
        server.addr(),
        loaded
    );
    server.join();
    eprintln!("server stopped");
    Ok(())
}

/// The `submit` subcommand; the module docs describe its two documents.
pub const SUBMIT: Command = Command {
    name: "submit",
    summary: "submit an experiment grid to the server (or --in-process), writing SERVICE_*.json",
    operands: &[],
    flags: &[
        Flag::value(
            "--experiment",
            "NAME",
            "grid to submit (required; an unknown NAME lists the grids)",
        ),
        cli::QUICK,
        ADDR,
        Flag::switch(
            "--in-process",
            "run an embedded service instead of connecting",
        ),
        cli::OUT,
        cli::CHECK_GOLDEN,
        Flag::switch("--assert-all-hits", "fail unless every job was a cache hit"),
        Flag::switch("--shutdown", "ask the server to stop after this batch"),
        cli::WORKERS,
        THREADS,
        CACHE_DIR,
        CACHE_BYTES,
    ],
    run: submit_cli_main,
};

fn submit_cli_main(args: &mut Args) -> Result<(), Exit> {
    let experiment = args.required("--experiment")?.to_string();
    let addr = args.value(ADDR.name).unwrap_or(DEFAULT_ADDR).to_string();
    let in_process = args.switch("--in-process");
    let config = service_config(args)?;
    let specs = experiment_grid(&experiment, args.quick()).map_err(Exit::Usage)?;
    let effort = args.label();
    eprintln!(
        "submitting {} {experiment} job(s) ({effort} effort, {})...",
        specs.len(),
        if in_process {
            "in-process".to_string()
        } else {
            format!("to {addr}")
        }
    );

    let (rows, stats) = if in_process {
        run_in_process(config, &specs)
    } else {
        run_remote(&addr, args.switch("--shutdown"), &specs)
    }
    .map_err(Exit::Failed)?;

    for row in &rows {
        eprintln!("  {:<40} {:>6}  {}", row.label, row.status, row.key);
    }

    let document = batch_document(&experiment, effort, &rows);
    args.write(&format!("SERVICE_{experiment}_{effort}.json"), &document)?;
    args.write(
        &format!("SERVICE_STATS_{experiment}_{effort}.json"),
        stats_document(&experiment, effort, &stats, &rows),
    )?;

    for row in rows.iter().filter(|r| r.status == "failed") {
        args.fail(format_args!(
            "failed job {}: {}",
            row.label,
            row.error.as_deref().unwrap_or("unknown")
        ));
    }
    args.check_golden(&document, golden::Tolerance::exact());
    if args.switch("--assert-all-hits") {
        let misses = rows.iter().filter(|r| r.status != "hit").count();
        if misses == 0 {
            eprintln!("all {} job(s) were cache hits", rows.len());
        } else {
            args.fail(format_args!(
                "cache-effectiveness assertion failed: {misses} of {} job(s) were not hits",
                rows.len()
            ));
        }
    }
    Ok(())
}

fn run_in_process(config: ServiceConfig, specs: &[JobSpec]) -> Result<(Vec<Row>, String), String> {
    let service = Service::start(config).map_err(|e| format!("starting service: {e}"))?;
    let results = service.run_batch(specs.to_vec());
    if results.len() != specs.len() {
        return Err(format!(
            "service returned {} of {} results",
            results.len(),
            specs.len()
        ));
    }
    let rows = results
        .iter()
        .zip(specs)
        .map(|(result, spec)| Row {
            label: result.label.clone(),
            key: format!("{:016x}", result.key),
            spec: spec.to_canonical_json(),
            status: match result.status {
                JobStatus::Hit => "hit".to_string(),
                JobStatus::Executed => "done".to_string(),
                JobStatus::Failed => "failed".to_string(),
            },
            document: result.document.as_deref().map(str::to_string),
            error: result.error.clone(),
        })
        .collect();
    Ok((rows, stats_line(&service.snapshot())))
}

fn run_remote(
    addr: &str,
    shutdown_after: bool,
    specs: &[JobSpec],
) -> Result<(Vec<Row>, String), String> {
    let mut client =
        Client::connect(addr, Some(RETRY)).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let version = client.ping()?;
    if version != CODE_VERSION {
        return Err(format!(
            "server runs {version} but this client is {CODE_VERSION}: cached results would not be comparable"
        ));
    }
    let results = client.submit(specs)?;
    if results.len() != specs.len() {
        return Err(format!(
            "server returned {} of {} results",
            results.len(),
            specs.len()
        ));
    }
    let rows = results
        .iter()
        .zip(specs)
        .map(|(result, spec)| Row {
            label: result.label.clone(),
            key: result.key.clone(),
            spec: spec.to_canonical_json(),
            status: result.status.clone(),
            document: result.document.clone(),
            error: result.error.clone(),
        })
        .collect();
    let stats = client.stats()?;
    if shutdown_after {
        client.shutdown()?;
    }
    Ok((rows, stats))
}
