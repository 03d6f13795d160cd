//! A sharded, cached, batch analysis service for systolic deadlock
//! avoidance.
//!
//! The analysis pipeline ([`systolic_core::Analyzer`]) is pure compile-time
//! work — exactly the kind of thing a toolchain serves to many clients and
//! amortizes across identical requests. This crate turns it into that
//! shared subsystem:
//!
//! * [`ShardedCache`] — an N-shard, mutex-per-shard LRU plan cache keyed
//!   by the 128-bit content fingerprint of `(Program, Topology,
//!   AnalysisConfig)` ([`systolic_core::request_fingerprint`]), counting
//!   hits, misses, evictions and entries straight into the registry;
//! * [`BoundedQueue`] — the bounded submission queue whose blocking
//!   `push` is the service's backpressure;
//! * [`AnalysisService`] — the worker pool: fingerprints each request,
//!   serves hits from cache, computes misses (optionally chasing each
//!   certified plan with a `systolic_sim` verification run) and returns
//!   structured [`AnalysisResponse`]s with cache provenance and timings;
//! * verification chasing — each worker replays its certified misses
//!   through its own [`ArenaLru`] ([`ArenaLru::verify`]: warm arenas
//!   keyed by compiled topology, a replay panic contained to its arena,
//!   outcomes and replay timings counted; sized by an [`ArenaBudget`]:
//!   [`ServiceConfig::arena_cache_capacity`] /
//!   [`ServiceConfig::arena_mem_budget`]);
//! * [`wire`] + [`Json`] — the JSONL request/response format of the
//!   [`systolicd`](../systolicd/index.html) binary, which replays scripted
//!   traffic files end to end; [`AnalysisService::submit_line`] hands
//!   the workers a line whose JSON envelope is parsed, and they decode
//!   it, analyse it and render its response line;
//! * observability — every service shares one
//!   [`Obs`](systolic_obs::Obs) bundle
//!   ([`AnalysisService::with_obs`]): analyzer stage timings, arena-cache
//!   counters, cache counters, and request/verify spans all land in its
//!   registry/tracer — the only place a count lives. One
//!   [`AnalysisService::registry_snapshot`] feeds every export: the
//!   Prometheus text exposition, the `metrics` wire op
//!   ([`wire::WireResponse::Metrics`]) and the `--summary` /
//!   `--summary-json` views ([`Summary`]); spans go to a JSONL log;
//! * snapshot persistence — [`AnalysisService::save_snapshot`] /
//!   [`AnalysisService::load_snapshot`] round-trip the plan cache and its
//!   recorded seed inputs through the versioned binary container in
//!   [`SNAPSHOT_MAGIC`]'s format, so a restarted daemon warms instantly
//!   (`systolicd serve --snapshot-load/--snapshot-save`); warmed hits
//!   report [`CacheProvenance::Warm`].
//!
//! # Examples
//!
//! ```
//! use systolic_obs::names;
//! use systolic_service::{AnalysisRequest, AnalysisService, ServiceConfig};
//! use systolic_workloads::{traffic, TrafficConfig};
//!
//! let service = AnalysisService::new(ServiceConfig::default());
//! let requests = traffic(&TrafficConfig::default(), 42, 100)
//!     .iter()
//!     .map(AnalysisRequest::from_traffic)
//!     .collect();
//! let responses = service.run_batch(requests);
//! assert_eq!(responses.len(), 100);
//! let metrics = service.registry_snapshot();
//! let hits = metrics.counter_value(names::PLAN_CACHE_HITS, &[]);
//! assert!(hits > 0, "hot traffic repeats must hit the cache");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cache;
pub mod daemon;
mod json;
mod queue;
mod service;
mod snapshot;
mod summary;
pub mod wire;

pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use json::{Json, JsonError};
pub use queue::{BoundedQueue, QueueClosed};
pub use service::{
    AnalysisRequest, AnalysisResponse, AnalysisService, CacheProvenance, Certified,
    EditRequestError, EditResponse, LineReply, NamedEditOp, Rejection, ServiceConfig, ServiceError,
    ServiceOutcome, SnapshotReport, Ticket,
};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use summary::Summary;
pub use systolic_sim::{ArenaBudget, ArenaLookup, ArenaLru};
