//! # hetero-dmr-repro
//!
//! A full reproduction of *"Quantifying Server Memory Frequency Margin
//! and Using It to Improve Performance in HPC Systems"* (ISCA 2021):
//! the frequency-margin characterization study, the Hetero-DMR
//! architecture, and every substrate they need, in pure Rust.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`dram`] — DDR4 device/timing/channel substrate (frequency
//!   transitions, self-refresh, broadcast writes),
//! * [`ecc`] — GF(2⁸) Reed-Solomon, Bamboo-style block codec,
//!   detection-only decode, error injection, SDC budget math,
//! * [`margin`] — the 119-module characterization study as a
//!   statistical model (populations, stress tests, error rates),
//! * [`memsim`] — the gem5/Ramulator stand-in: caches, prefetchers,
//!   FR-FCFS controllers, multi-core node simulation,
//! * [`hetero_dmr`] — the paper's contribution: replication,
//!   heterogeneous read/write modes, recovery protocol, epoch
//!   governor, Monte Carlo margin variability, the design zoo and the
//!   node-level evaluation engine,
//! * [`workloads`] — six HPC benchmark-suite trace models and the
//!   LANL memory-utilization model,
//! * [`scheduler`] — the Grizzly-scale cluster simulator with the
//!   margin-aware job scheduler,
//! * [`energy`] — the CPU+DRAM energy-per-instruction model,
//! * [`runner`] — deterministic parallel execution (counter-based RNG
//!   streams and a fixed-size, order-preserving worker pool),
//! * [`telemetry`] — counters/gauges/histograms, mergeable snapshots,
//!   JSONL export and run manifests.
//!
//! The most commonly combined types are re-exported at the crate root:
//! [`MemoryConfig`] (validated memory-shape builder),
//! [`ModulePopulation`] (the characterization study),
//! [`ClusterSim`] (the HPC cluster simulator), [`SchedulerConfig`]
//! (validated scheduling policy + speedup table), [`Federation`]
//! (fleet-scale federated scheduling), and [`Registry`] (telemetry).
//!
//! Memory shapes are built (and validated) with the
//! [`MemoryConfig`] builder:
//!
//! ```
//! use hetero_dmr_repro::MemoryConfig;
//!
//! let shape = MemoryConfig::builder()
//!     .channels(4)
//!     .ranks_per_module(2)
//!     .build()
//!     .expect("a power-of-two channel count is valid");
//! assert_eq!(shape.ranks_per_channel(), 4);
//! assert!(MemoryConfig::builder().channels(3).build().is_err());
//! ```
//!
//! Cluster simulations stream jobs through the scheduler's builder
//! entry point — sources are pulled lazily, so traces never need to be
//! materialized (see `scheduler::source` and `workloads::jobs`):
//!
//! ```
//! use hetero_dmr_repro::{ClusterSim, SchedulerConfig};
//! use hetero_dmr_repro::scheduler::{SliceSource, Job};
//!
//! let cluster = ClusterSim::new(64, [0.62, 0.36, 0.02]);
//! let jobs = vec![Job {
//!     id: 0,
//!     submit_s: 0.0,
//!     nodes: 8,
//!     duration_s: 600.0,
//!     mem_utilization: 0.2,
//! }];
//! let outcomes = cluster
//!     .schedule(SliceSource::new(&jobs))
//!     .config(SchedulerConfig::default())
//!     .run();
//! assert_eq!(outcomes.len(), 1);
//! ```

pub use dram;
pub use ecc;
pub use energy;
pub use hetero_dmr;
pub use margin;
pub use memsim;
pub use runner;
pub use scheduler;
pub use telemetry;
pub use workloads;

pub use margin::population::ModulePopulation;
pub use memsim::config::MemoryConfig;
pub use scheduler::Cluster as ClusterSim;
pub use scheduler::{Federation, PlacementPolicy, SchedulerConfig, StreamSummary};
pub use telemetry::{Registry, Snapshot};
