//! Synthetic HPC workload traces for the Hetero-DMR reproduction.
//!
//! The paper evaluates six HPC benchmark suites — Linpack, HPCG,
//! Graph500, CORAL2, LULESH, and the NAS Parallel Benchmarks — under
//! MPI with small inputs. We cannot ship those codes, so each suite is
//! modelled as a parameterized memory-access generator
//! ([`suite::SuiteParams`]) capturing the characteristics that drive
//! the paper's results: memory intensity (compute gap between
//! operations), access pattern (streaming vs. irregular), footprint,
//! write fraction (Figure 15's ~15 % average), and the fraction of
//! time spent in MPI communication (~13 % of core-hours under
//! Hierarchy1), which does not speed up when memory does.
//!
//! [`utilization`] models the LANL job-level memory-utilization
//! dataset behind Figure 1 (3 × 10⁹ measurements, 7 × 10⁶
//! machine-hours): the fraction of jobs whose nodes all stay below
//! 25 % / 50 % memory utilization for the job's whole lifetime.
//!
//! [`jobs`] is the one job model: the [`Job`] type the scheduler
//! runs, the materialized Fig 17 [`GrizzlyTrace`] and the streaming,
//! counter-seeded [`SyntheticJobs`] for fleet runs, drawing widths
//! and durations from one shared sampler.

pub mod jobs;
pub mod phases;
pub mod suite;
pub mod trace;
pub mod utilization;

pub use jobs::{GrizzlyTrace, Job, JobStream, SyntheticJobs};
pub use phases::PhaseSchedule;
pub use suite::{Suite, SuiteParams};
pub use trace::TraceGen;
pub use utilization::{Cluster, UtilizationModel};
