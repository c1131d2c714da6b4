//! # Hetero-DMR
//!
//! Heterogeneously-accessed Dual Module Redundancy — the architecture
//! proposed by *"Quantifying Server Memory Frequency Margin and Using
//! It to Improve Performance in HPC Systems"* (ISCA 2021).
//!
//! The idea: server DIMMs can run ~27 % faster than their label, but
//! doing so naively sacrifices reliability. Hetero-DMR replicates
//! every block into a *free* module of the same channel and operates
//! the two modules heterogeneously:
//!
//! * **read mode** — only the copy-holding Free Module is accessed,
//!   at an unsafely fast setting; the modules holding originals sit in
//!   self-refresh, immune to anything the overclocked bus does;
//! * **write mode** — the whole channel drops back to specification
//!   (a ~1 µs transition), writes are drained in large batches, and a
//!   single broadcast transaction updates original and copy together;
//! * **errors** in copies are caught by detection-only Reed-Solomon
//!   ECC and repaired from the always-in-spec originals;
//! * an **epoch governor** bounds the silent-data-corruption rate to
//!   one event per billion years even under worst-case error models.
//!
//! Crate layout:
//!
//! * [`replication`] — free-module tracking and copy placement,
//! * [`protocol`] — the functional protocol engine on real
//!   [`dram::Channel`] + [`ecc::BlockCodec`] state (reads, writes,
//!   error injection, recovery),
//! * [`governor`] — the per-epoch SDC budget,
//! * [`adaptive`] — the closed-loop adaptive margin governor that
//!   steps the data rate per epoch from observed CE/UE telemetry
//!   (hysteresis + cool-down + safety envelope),
//! * [`monte_carlo`] — channel-/node-level margin variability
//!   (Figure 11),
//! * [`designs`] — the evaluated memory designs as
//!   [`memsim::ChannelMode`] builders (Commercial Baseline, FMR,
//!   Hetero-DMR, Hetero-DMR+FMR, the Figure 5 margin settings, and
//!   the naive channel-split strawman),
//! * [`node_model`] — the Figure 5/12/13/14/15 evaluation engine on
//!   top of [`memsim`],
//! * [`emulation`] — the Figure 16 real-system emulation formula.

pub mod adaptive;
pub mod designs;
pub mod emulation;
pub mod faults;
pub mod governor;
pub mod monte_carlo;
pub mod node_model;
pub mod profiler;
pub mod protocol;
pub mod replication;

pub use adaptive::{AdaptiveConfig, AdaptiveGovernor, Decision, Environment, MarginResponse};
pub use designs::{DramGeneration, MemoryDesign};
pub use faults::PermanentFaultTracker;
pub use governor::{EpochGovernor, GovernorState};
pub use monte_carlo::{MarginGroups, MonteCarlo};
pub use node_model::{shared_cache_stats, EvalConfig, NodeModel, UsageBucket};
pub use profiler::{NodeProfile, NodeProfiler};
pub use protocol::{HeteroDmrChannel, ReadOutcome};
pub use replication::ReplicationManager;
