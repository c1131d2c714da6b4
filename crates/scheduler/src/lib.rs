//! HPC cluster scheduler simulator for the Hetero-DMR reproduction.
//!
//! Stands in for the paper's Slurm + Slurmsim setup (Section IV-C):
//! a 1490-node Grizzly-like cluster fed four months of synthetic job
//! traces (~58 K jobs, ~78 % node utilization), scheduled FCFS with
//! EASY backfill. Nodes carry frequency-margin groups (0.8 / 0.6 /
//! 0 GT/s); jobs on Hetero-DMR nodes run faster according to the
//! node-level performance model, probabilistically gated by the job's
//! memory utilization (only jobs below 50 % benefit).
//!
//! Two node-selection policies are compared, as in the paper:
//!
//! * **default** — Slurm's margin-oblivious first-fit;
//! * **margin-aware** — the paper's ~30-line Slurm patch: prefer
//!   allocating a job entirely within the fastest group that can hold
//!   it, because one slow node drags the whole MPI job down.
//!
//! The job model is not the scheduler's: [`Job`] and the generators
//! that sample it (the materialized Fig 17 `GrizzlyTrace` and the
//! streaming `SyntheticJobs`) live in `workloads::jobs`. A run pulls
//! jobs from a [`JobSource`] — a borrowed trace ([`SliceSource`]) or
//! any job iterator ([`from_specs`]) — and checks each job once, where
//! it enters the event loop: every entry point ([`ScheduleBuilder::run`],
//! [`ScheduleBuilder::run_streaming`], [`Federation::run_observed`])
//! panics on a job with zero nodes, a negative or non-finite submit
//! time or duration, or a memory utilization outside `[0, 1]`.

pub mod cluster;
pub mod config;
pub mod federation;
pub mod job;
pub mod queue;
pub mod source;
pub mod stats;

pub use cluster::{Cluster, Policy, ScheduleBuilder, SpeedupModel};
pub use config::{ConfigError, SchedulerConfig, SchedulerConfigBuilder};
pub use federation::{ClusterSpec, Federation, FederationRun, MemberRun, PlacementPolicy};
pub use job::JobOutcome;
pub use queue::EventQueue;
pub use source::{from_specs, JobSource, SliceSource, SpecSource};
pub use stats::{QueueTail, RunSummary, StreamSummary};
pub use workloads::jobs::Job;
