//! Workspace-wide observability: cheap atomic metrics, exporters, run
//! manifests, causal traces, and windowed health series.
//!
//! The crate is `std`-only and allocation-free on the hot path: a
//! [`Counter`], [`Gauge`], or [`Histogram`] handle is an `Arc` around
//! atomics, so recording is a single relaxed RMW (two for histograms)
//! — cheap enough to live inside the memory-controller command loop.
//!
//! # Structure
//!
//! - [`Registry`] owns named metrics; [`Scope`] prefixes names so each
//!   subsystem registers under its own namespace (`controller.reads`,
//!   `governor.fallbacks`, …).
//! - [`Snapshot`] is a point-in-time copy of every metric, exportable
//!   as JSONL (hand-rolled, no serde) and parsed back by
//!   [`parse_jsonl`].
//! - [`RunManifest`] captures run provenance (seed, knobs, git
//!   describe, wall time) next to the metric files.
//! - [`trace`] records causal spans against deterministic clocks and
//!   exports them as Chrome trace-event JSON or a span-tree dump;
//!   [`json`] is the matching hand-rolled parser used by readers
//!   (report generation, trace validation, round-trip tests).
//! - [`series`] rolls samples into fixed-width sim-time windows
//!   (count/sum/min/max + log2 sketch) that shard and merge with the
//!   same worker-order discipline as snapshots; [`monitor`] evaluates
//!   anomaly detectors over those windows and keeps the incident
//!   ledger that links breaches back to trace spans.
//!
//! # Determinism
//!
//! Simulation metrics are pure functions of the seed, so snapshots of
//! them are byte-identical across runs. Wall-clock measurements are
//! not; by convention every wall-time histogram name ends in
//! [`WALL_SUFFIX`], and [`Snapshot::sim_only`] strips them so callers
//! can emit a deterministic metrics file plus a manifest that carries
//! the (non-deterministic) timing.

#![forbid(unsafe_code)]

mod export;
pub mod json;
mod manifest;
mod metric;
pub mod monitor;
mod registry;
pub mod series;
pub mod trace;

pub use export::{escape_csv, escape_json, format_jsonl, parse_csv_line, parse_jsonl, slug};
pub use manifest::RunManifest;
pub use metric::{
    bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS, GAUGE_SCALE,
};
pub use registry::{MetricValue, Registry, Scope, Snapshot, SnapshotEntry, WALL_SUFFIX};
