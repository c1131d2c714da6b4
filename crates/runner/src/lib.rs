//! Deterministic parallel experiment engine.
//!
//! Three layers, each usable on its own:
//!
//! - [`seed`] — counter-based RNG stream derivation: a task's seed is
//!   a pure function of `(root_seed, target_id, iteration)`, never of
//!   thread identity, so results are reproducible at any parallelism.
//! - [`pool`] — a bounded scoped-thread worker pool with
//!   order-preserving [`parallel_map`] and chunking-independent
//!   integer reductions ([`parallel_count`], [`parallel_tally`]).
//! - [`Scenario`]/[`Runner`] — named, seeded experiment tasks with
//!   buffered output, one per-task `telemetry::ObsSnapshot`, and panic
//!   isolation; outcomes come back in input order.
//!
//! ```
//! use runner::{Runner, Scenario};
//!
//! let scenarios: Vec<Scenario> = (0..4)
//!     .map(|i| {
//!         Scenario::builder(format!("shard{i}"))
//!             .derived_seed(42)
//!             .task(move |ctx| ctx.say(format!("seed {:#x}", ctx.seed)))
//!             .build()
//!     })
//!     .collect();
//! let outcomes = Runner::new(1).run(scenarios);
//! assert!(outcomes.iter().all(|o| !o.is_failed()));
//! ```

pub mod pool;
mod scenario;
pub mod seed;

pub use pool::{jobs, parallel_count, parallel_map, parallel_tally, set_jobs};
pub use scenario::{RunOutcome, RunStatus, Runner, Scenario, ScenarioBuilder, TaskCtx};
