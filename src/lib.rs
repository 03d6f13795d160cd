//! # systolic — deadlock avoidance for systolic communication
//!
//! A full reproduction of H.T. Kung, *Deadlock Avoidance for Systolic
//! Communication* (Journal of Complexity **4**, 87–105, 1988), as a Rust
//! workspace. This umbrella crate re-exports the sub-crates:
//!
//! * [`model`] — programs, messages, topologies, routes (Section 2);
//! * [`core`] — the paper's contribution: the crossing-off procedure,
//!   lookahead, consistent labeling, compatible-assignment requirements and
//!   the staged [`core::Analyzer`] pipeline over precompiled topologies
//!   ([`core::CompiledTopology`]), with structured diagnostics
//!   (Sections 3–8);
//! * [`sim`] — a cycle-stepped array simulator with hardware queues, I/O
//!   forwarding, runtime assignment policies and deadlock diagnosis;
//! * [`threaded`] — an OS-thread runtime demonstrating that Theorem 1 is
//!   scheduling independent;
//! * [`workloads`] — the paper's figure programs, classic systolic
//!   algorithm generators and mixed service traffic;
//! * [`report`] — tables and statistics for the experiment harness;
//! * [`service`] — the sharded, cached, batch analysis service with the
//!   `systolicd` JSONL front end;
//! * [`obs`] — the shared observability spine: a lock-light metrics
//!   registry (counters, gauges, log2-bucket histograms) and a span
//!   tracer that the analyzer, simulator, and service all record into,
//!   exported as Prometheus text (`systolicd --metrics-file`) or JSONL
//!   span logs (`--trace-file`).
//!
//! # Quickstart
//!
//! ```
//! use systolic::core::{AnalysisConfig, Analyzer};
//! use systolic::sim::{run_simulation, CompatiblePolicy, FifoPolicy, SimConfig};
//! use systolic::workloads::{fig7, fig7_topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 7: three messages, one queue per interval.
//! let program = fig7(3);
//! let topology = fig7_topology();
//!
//! // A label-blind runtime deadlocks...
//! let naive = run_simulation(
//!     &program,
//!     &topology,
//!     Box::new(FifoPolicy::new()),
//!     SimConfig::default(),
//! )?;
//! assert!(naive.is_deadlocked());
//!
//! // ...while the paper's compile-time labels + compatible assignment complete.
//! let analyzer = Analyzer::for_topology(&topology, &AnalysisConfig::default());
//! let plan = analyzer.analyze(&program)?.into_plan();
//! let safe = run_simulation(
//!     &program,
//!     &topology,
//!     Box::new(CompatiblePolicy::new(plan)),
//!     SimConfig::default(),
//! )?;
//! assert!(safe.is_completed());
//! # Ok(())
//! # }
//! ```
//!
//! # Verifying certified plans
//!
//! A replay runs on a [`sim::SimArena`]: the immutable world (topology +
//! config) is built once and the run state is reset in place per replay.
//! With a precompiled topology, routes come from the shared closure and
//! certified plans travel as `Arc`s. [`sim::ArenaLru::verify`] is the one
//! replay path: it keeps the arenas of the last few topologies warm,
//! keyed by compiled-topology fingerprint, within an
//! [`sim::ArenaBudget`] (fixed, auto, or bytes), and contains a replay
//! panic by dropping only that arena. The serving layer
//! (`ServiceConfig::verify`) chases each certified miss inline in the
//! analysis worker through that worker's own LRU, so `--workers` sets how
//! many replays run at once.
//!
//! ```
//! use std::sync::Arc;
//! use systolic::core::{AnalysisConfig, Analyzer, CompiledTopology};
//! use systolic::model::Topology;
//! use systolic::sim::{ArenaBudget, ArenaLru, SimConfig};
//! use systolic::workloads::{fig7, fig7_topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = AnalysisConfig::default();
//! let line = CompiledTopology::compile(&fig7_topology(), &config).into_shared();
//! let ring = CompiledTopology::compile(&Topology::ring(4), &config).into_shared();
//! let mut arenas = ArenaLru::with_budget(ArenaBudget::Auto);
//! for reps in 2..5 {
//!     // Interleaved fabrics: both arenas stay warm.
//!     for compiled in [&line, &ring] {
//!         let program = fig7(reps);
//!         let plan = Arc::new(Analyzer::new(Arc::clone(compiled)).analyze(&program)?.into_plan());
//!         let report = arenas.verify(compiled, SimConfig::default(), &program, &plan)?;
//!         assert!(report.completed);
//!     }
//! }
//! assert_eq!(arenas.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use systolic_core as core;
pub use systolic_model as model;
pub use systolic_obs as obs;
pub use systolic_report as report;
pub use systolic_service as service;
pub use systolic_sim as sim;
pub use systolic_threaded as threaded;
pub use systolic_workloads as workloads;
