//! Event-driven DDR4 memory-hierarchy simulator.
//!
//! This crate stands in for the paper's gem5 + Ramulator stack
//! (Table IV): a multi-core node with private L1/L2 caches, stride and
//! next-line prefetchers, a CAT-partitioned L3, and per-channel DDR4
//! memory controllers with FR-FCFS scheduling, a hybrid page policy,
//! XOR-based bank mapping, 256-entry read / 128-entry write queues,
//! batched write drains, and the per-channel 128 KB 64-way victim
//! writeback cache that both the Commercial Baseline and Hetero-DMR
//! configurations carry.
//!
//! The simulator is request-granular rather than cycle-granular: every
//! DRAM command's *timing* is modelled from [`dram::TimingParams`]
//! (tRCD/tRP/tRAS/CL/burst/tFAW/…, quantized to the clock), while the
//! out-of-order core is approximated by a ROB/MSHR-limited
//! memory-level-parallelism model. That is the level of detail the
//! paper's evaluation actually exercises — its experiments vary data
//! rate and the four latency parameters and measure relative
//! performance.
//!
//! Key types:
//!
//! * [`config::HierarchyConfig`] — Hierarchy1/Hierarchy2 of Table III,
//! * [`config::ChannelMode`] — the timing/behaviour knobs a memory
//!   design sets (spec vs margin timing, read/write-mode split, rank
//!   restriction, write batch size, turnaround penalty),
//! * [`node::NodeSim`] — the full node,
//! * [`replay::CoreRecording`] — one core's cache pass, recorded once
//!   and timed under any number of designs,
//! * [`trace::AccessStream`] — the workload interface,
//! * [`result::SimResult`] — measured outputs.

pub mod address;
pub mod cache;
pub mod config;
pub mod controller;
pub mod core;
pub mod node;
pub mod prefetch;
pub mod reference;
pub mod replay;
pub mod result;
pub mod trace;
pub mod wbcache;

pub use config::{ChannelMode, CoreConfig, HierarchyConfig, MemoryConfig};
pub use controller::ResidencyStats;
pub use node::{NodeSim, RunCursor};
pub use replay::CoreRecording;
pub use result::SimResult;
pub use trace::{AccessStream, MemOp};
