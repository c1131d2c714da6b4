//! Deterministic parallel execution: the worker pool and the seeds.
//!
//! - [`seed`] — counter-based RNG stream derivation: a task's seed is
//!   a pure function of `(root_seed, target_id, iteration)`, never of
//!   thread identity, so results are reproducible at any parallelism.
//! - [`pool`] — a bounded scoped-thread worker pool with
//!   order-preserving [`parallel_map`] and chunking-independent
//!   integer reductions ([`parallel_count`], [`parallel_tally`]).
//!
//! ```
//! use runner::{parallel_map, seed::iteration_seed};
//!
//! runner::set_jobs(2);
//! let seeds = parallel_map((0..4u64).collect(), |_, i| iteration_seed(42, i));
//! // Input order, whatever worker ran each item.
//! assert_eq!(seeds[3], iteration_seed(42, 3));
//! ```

pub mod pool;
pub mod seed;

pub use pool::{jobs, parallel_count, parallel_map, parallel_tally, set_jobs};
