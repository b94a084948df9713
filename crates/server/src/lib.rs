//! # platoon-server
//!
//! Simulation-as-a-service: a long-running, thread-based job service
//! wrapped around the crash-isolated experiment harness core, fronted by a
//! **content-addressed result cache**.
//!
//! Every other driver in the workspace is launch-and-exit: it builds a
//! [`Batch`](platoon_sim::harness::Batch), runs it, writes a document, and
//! throws the results away. This crate keeps the results. Because every
//! simulation in the repo is deterministic given its scenario config and
//! seed, a completed result is valid *forever* — so the service keys each
//! job by the FNV-1a hash of the canonical JSON of `(spec, code version)`
//! and serves repeat submissions byte-identically from the cache.
//!
//! * [`job`] — the [`JobSpec`](job::JobSpec) vocabulary (one variant per
//!   experiment arm kind), its canonical-JSON codec, the cache key, and
//!   the job bodies that delegate to `platoon-core`.
//! * [`cache`] — the size-bounded LRU [`ResultCache`](cache::ResultCache)
//!   with optional on-disk persistence (one file per entry, reloaded on
//!   startup so results survive restarts).
//! * [`service`] — the in-process [`Service`](service::Service): a bounded
//!   worker pool over a shared queue, enqueue-time deduplication (identical
//!   in-flight jobs coalesce onto one execution), and per-job
//!   [`JobTiming`](platoon_sim::exec::JobTiming) so a service-side budget
//!   is never charged for queue wait.
//! * [`net`] — the line-delimited JSON protocol over localhost TCP, plus
//!   the [`Client`](net::Client).
//! * [`grids`] — the experiment grids (`table2` … `corridor`, plus the CI
//!   `smoke` set) expressed as job batches.
//! * [`cli`] — the `serve` and `submit` subcommands of the root binary.
//!
//! # Example
//!
//! Submit the same job twice in-process; the second submission is a cache
//! hit and byte-identical:
//!
//! ```
//! use platoon_server::job::JobSpec;
//! use platoon_server::service::{Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig::default()).unwrap();
//! let spec = JobSpec::Perf { cell: "perf/acc/none/dsrc".into(), quick: true };
//! let first = service.run_batch(vec![spec.clone()]);
//! let second = service.run_batch(vec![spec]);
//! assert!(!first[0].status.is_hit());
//! assert!(second[0].status.is_hit());
//! assert_eq!(first[0].document, second[0].document);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod grids;
pub mod job;
pub mod net;
pub mod service;
