//! Integration tests for the job service: cache persistence properties,
//! concurrency/deduplication, the TCP protocol, and budget timeouts.

use platoon_server::cache::{CacheConfig, ResultCache};
use platoon_server::grids::experiment_grid;
use platoon_server::job::{cache_key, JobSpec, CODE_VERSION};
use platoon_server::net::{Client, NetServer, MAX_REQUEST_BYTES, MAX_SUBMIT_JOBS};
use platoon_server::service::{JobStatus, Service, ServiceConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("platoon-server-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministically derives an arbitrary spec from two raw u64s,
/// covering every variant and full-width seeds.
fn arb_spec(shape: u64, seed: u64) -> JobSpec {
    let attacks = ["jamming", "replay", "sybil", "impersonation"];
    let attack = attacks[(shape >> 8) as usize % attacks.len()].to_string();
    match shape % 6 {
        0 => JobSpec::Arm {
            attack,
            mechanism: if shape & 1 == 0 {
                None
            } else {
                Some("keys".into())
            },
            quick: shape & 2 == 0,
            seed,
        },
        1 => JobSpec::Baseline {
            attack,
            quick: shape & 2 == 0,
            seed,
        },
        2 => JobSpec::Detection {
            attack,
            config: if shape & 1 == 0 { "default" } else { "strict" }.into(),
            quick: shape & 2 == 0,
            seed,
        },
        3 => JobSpec::Robustness {
            fault: "burst-loss".into(),
            attack,
            quick: shape & 2 == 0,
            seed,
        },
        4 => JobSpec::Perf {
            cell: format!("perf/cell/{}", shape >> 16),
            quick: shape & 2 == 0,
        },
        _ => JobSpec::Corridor {
            label: format!("corridor/prop/{}", shape >> 16),
            per: 2 + (shape >> 3) as usize % 12,
            platoons: 1 + (shape >> 7) as usize % 40,
            duration: 5.0 + (shape >> 11) as f64 % 30.0,
            horizon: if shape & 4 == 0 { None } else { Some(750.0) },
            seed,
        },
    }
}

proptest! {
    /// Any spec's canonical spelling survives encode → parse → encode
    /// byte-identically — the property the cache key and the wire protocol
    /// both stand on.
    #[test]
    fn any_spec_round_trips_byte_identically(shape in any::<u64>(), seed in any::<u64>()) {
        let spec = arb_spec(shape, seed);
        let text = spec.to_canonical_json();
        let back = JobSpec::parse(&text).expect("canonical spec parses");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_canonical_json(), text);
    }

    /// Any (spec, seed) key round-trips through the on-disk store
    /// byte-identically: persist, drop, reload, and the document is the
    /// same bytes under the same key.
    #[test]
    fn any_key_round_trips_through_persist_and_load(shape in any::<u64>(), seed in any::<u64>()) {
        let spec = arb_spec(shape, seed);
        let key = cache_key(&spec);
        // A stand-in result document carrying the spec (documents are
        // opaque bytes to the cache; executing real jobs here would
        // swamp the 64 proptest cases).
        let document = format!("{{\"spec\": {}, \"seed\": \"{seed}\"}}", spec.to_canonical_json());
        let dir = scratch(&format!("prop-{key:016x}"));
        let config = CacheConfig { max_bytes: 1 << 20, dir: Some(dir.clone()) };
        {
            let mut cache = ResultCache::open(config.clone()).expect("open store");
            cache.insert(key, &document).expect("insert persists");
        }
        let mut reloaded = ResultCache::open(config).expect("reopen store");
        prop_assert_eq!(reloaded.stats().loaded, 1);
        let roundtrip = reloaded.get(key).expect("persisted key reloads");
        prop_assert_eq!(&*roundtrip, document.as_str());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// N concurrent clients submitting overlapping batches: every unique key
/// executes exactly once, and every client sees byte-identical documents
/// regardless of interleaving.
#[test]
fn overlapping_batches_execute_each_unique_key_once() {
    let service = Arc::new(
        Service::start(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let grid = experiment_grid("smoke", true).expect("smoke grid");
    let unique = grid.len() as u64;

    const CLIENTS: usize = 4;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let service = Arc::clone(&service);
        let mut batch = grid.clone();
        // Overlapping, not identical: each client rotates the batch so
        // submissions race in different orders.
        let rotation = c % batch.len();
        batch.rotate_left(rotation);
        handles.push(std::thread::spawn(move || service.run_batch(batch)));
    }
    let mut documents: HashMap<String, String> = HashMap::new();
    for handle in handles {
        let results = handle.join().expect("client thread");
        assert_eq!(results.len(), grid.len());
        for result in results {
            assert_ne!(
                result.status,
                JobStatus::Failed,
                "{}: {:?}",
                result.label,
                result.error
            );
            let doc = result.document.expect("successful job has a document");
            match documents.get(&result.label) {
                Some(prior) => assert_eq!(
                    prior.as_str(),
                    &*doc,
                    "{}: documents must be byte-identical across clients",
                    result.label
                ),
                None => {
                    documents.insert(result.label, doc.to_string());
                }
            }
        }
    }

    let snapshot = service.snapshot();
    assert_eq!(
        snapshot.service.executed, unique,
        "each unique key must execute exactly once: {:?}",
        snapshot.service
    );
    assert_eq!(snapshot.service.failed, 0);
    assert_eq!(
        snapshot.service.submitted,
        unique * CLIENTS as u64,
        "every submission is accounted for"
    );
    assert_eq!(
        snapshot.service.hits + snapshot.service.coalesced,
        unique * (CLIENTS as u64 - 1),
        "all duplicate submissions were served without re-execution: {:?}",
        snapshot.service
    );
}

/// The TCP protocol round-trips: ping, a fresh execution, then a
/// byte-identical cache hit, then shutdown ends the accept loop.
#[test]
fn tcp_protocol_round_trips_and_hits_the_cache() {
    let service = Arc::new(
        Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr, Some(Duration::from_secs(5))).expect("connect");
    assert_eq!(client.ping().expect("ping"), CODE_VERSION);

    let specs = vec![JobSpec::Perf {
        cell: "perf/acc/none/dsrc".into(),
        quick: true,
    }];
    let first = client.submit(&specs).expect("first submit");
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].status, "done");
    let document = first[0].document.clone().expect("document");
    assert!(document.contains("\"perf\""), "{document}");

    // Same batch on a fresh connection: served from the cache, same bytes.
    let mut second_client =
        Client::connect(&addr, Some(Duration::from_secs(5))).expect("reconnect");
    let second = second_client.submit(&specs).expect("second submit");
    assert_eq!(second[0].status, "hit");
    assert_eq!(second[0].document.as_deref(), Some(document.as_str()));
    assert_eq!(second[0].key, first[0].key);

    let stats = second_client.stats().expect("stats");
    assert!(stats.contains("\"cache_entries\": 1"), "{stats}");

    second_client.shutdown().expect("shutdown");
    server.join(); // returns only if the accept loop really stopped
}

/// An over-long request line and an over-long submit each get one error
/// line and a closed connection; the server keeps serving other clients.
#[test]
fn over_cap_requests_are_refused_and_the_server_keeps_serving() {
    let service = Arc::new(Service::start(ServiceConfig::default()).expect("service starts"));
    let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
    let addr = server.addr().to_string();

    // A ping padded to twice the line cap, so that input is still unread
    // when the server closes the connection. The server may close before
    // the whole line is sent; only its reply matters.
    let mut line = String::from("{\"type\": \"ping\", \"pad\": \"");
    line.push_str(&"x".repeat(2 * MAX_REQUEST_BYTES));
    line.push_str("\"}\n");
    let mut raw = TcpStream::connect(&addr).expect("connect");
    let _ = raw.write_all(line.as_bytes());
    let mut reply = String::new();
    raw.read_to_string(&mut reply)
        .expect("read until the server closes");
    assert_eq!(reply.lines().count(), 1, "{reply}");
    assert!(reply.starts_with("{\"type\": \"error\""), "{reply}");
    assert!(reply.contains("exceeds"), "{reply}");

    // One job past the submit cap: an error, and the connection is gone.
    let mut client = Client::connect(&addr, Some(Duration::from_secs(5))).expect("connect");
    let spec = JobSpec::Perf {
        cell: "perf/acc/none/dsrc".into(),
        quick: true,
    };
    let error = client
        .submit(&vec![spec; MAX_SUBMIT_JOBS + 1])
        .expect_err("an over-cap submit is refused");
    assert!(error.contains("more than"), "{error}");
    assert!(client.ping().is_err(), "the refused connection is closed");
    assert_eq!(service.snapshot().service.submitted, 0);

    let mut next = Client::connect(&addr, Some(Duration::from_secs(5))).expect("reconnect");
    assert_eq!(next.ping().expect("ping after the refusals"), CODE_VERSION);
    next.shutdown().expect("shutdown");
    server.join();
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// A round trip on loopback costs well under a millisecond of work. A
/// message written in two pieces without `TCP_NODELAY` stalls about 40 ms
/// per direction on the peer's delayed ACK, which these bounds catch.
#[test]
fn loopback_round_trips_do_not_wait_for_delayed_acks() {
    let service = Arc::new(Service::start(ServiceConfig::default()).expect("service starts"));
    let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
    let mut client =
        Client::connect(&server.addr().to_string(), Some(Duration::from_secs(5))).expect("connect");

    let pings = (0..20)
        .map(|_| {
            let t = Instant::now();
            client.ping().expect("ping");
            t.elapsed()
        })
        .collect();
    let ping_ms = median_ms(pings);
    assert!(ping_ms < 20.0, "median ping {ping_ms:.1} ms");

    let specs = vec![JobSpec::Perf {
        cell: "perf/acc/none/dsrc".into(),
        quick: true,
    }];
    assert_eq!(
        client.submit(&specs).expect("cold submit")[0].status,
        "done"
    );
    let resubmits = (0..5)
        .map(|_| {
            let t = Instant::now();
            let results = client.submit(&specs).expect("warm submit");
            assert!(results[0].is_hit());
            t.elapsed()
        })
        .collect();
    let resubmit_ms = median_ms(resubmits);
    assert!(
        resubmit_ms < 40.0,
        "median all-hit resubmission {resubmit_ms:.1} ms"
    );

    client.shutdown().expect("shutdown");
    server.join();
}

/// A budget timeout fails the job with queue-wait-aware diagnostics, the
/// failure is NOT cached, and a successful retry persists across service
/// restarts via the on-disk store.
#[test]
fn timeouts_are_not_cached_but_successes_survive_restarts() {
    let dir = scratch("restart");
    let cache = |max_bytes| CacheConfig {
        max_bytes,
        dir: Some(dir.clone()),
    };
    let spec = JobSpec::Perf {
        cell: "perf/cacc/none/dsrc".into(),
        quick: true,
    };

    // 1 ms budget: the cell cannot finish; the timeout must blame
    // execution time only.
    let strict = Service::start(ServiceConfig {
        workers: 1,
        job_budget: Some(Duration::from_millis(1)),
        engine_threads: 1,
        cache: cache(1 << 20),
    })
    .expect("strict service");
    let failed = strict.run_batch(vec![spec.clone()]);
    assert_eq!(failed[0].status, JobStatus::Failed);
    let reason = failed[0].error.clone().expect("timeout reason");
    assert!(reason.contains("wall-time budget"), "{reason}");
    assert!(reason.contains("queue wait excluded"), "{reason}");
    let snap = strict.snapshot();
    assert_eq!(snap.service.failed, 1);
    assert_eq!(snap.cache_entries, 0, "failures must never be cached");
    drop(strict);

    // Unbudgeted retry: a miss (nothing was cached), then an execution.
    let relaxed = Service::start(ServiceConfig {
        workers: 1,
        job_budget: None,
        engine_threads: 1,
        cache: cache(1 << 20),
    })
    .expect("relaxed service");
    let fresh = relaxed.run_batch(vec![spec.clone()]);
    assert_eq!(fresh[0].status, JobStatus::Executed);
    let document = fresh[0].document.clone().expect("document");
    assert!(
        fresh[0].timing.execution > Duration::ZERO,
        "execution time is measured"
    );
    drop(relaxed);

    // Restart: the persisted result is loaded and served byte-identically.
    let restarted = Service::start(ServiceConfig {
        workers: 1,
        job_budget: None,
        engine_threads: 1,
        cache: cache(1 << 20),
    })
    .expect("restarted service");
    assert_eq!(restarted.snapshot().cache.loaded, 1);
    let hit = restarted.run_batch(vec![spec]);
    assert_eq!(hit[0].status, JobStatus::Hit);
    assert_eq!(
        hit[0].document.as_deref(),
        Some(&*document),
        "cached results survive a restart byte-identically"
    );
    drop(restarted);
    std::fs::remove_dir_all(&dir).ok();
}
