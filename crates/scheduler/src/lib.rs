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

pub mod cluster;
pub mod config;
pub mod federation;
pub mod job;
pub mod queue;
pub mod source;
pub mod stats;
pub mod trace;

pub use cluster::{Cluster, Policy, ScheduleBuilder, SpeedupModel};
pub use config::{ConfigError, SchedulerConfig, SchedulerConfigBuilder};
pub use federation::{ClusterSpec, Federation, FederationRun, MemberRun, PlacementPolicy};
pub use job::{Job, JobOutcome};
pub use queue::EventQueue;
pub use source::{from_iter, from_specs, IterSource, JobSource, SliceSource, SpecSource};
pub use stats::{QueueTail, RunSummary, StreamSummary};
pub use trace::GrizzlyTrace;
