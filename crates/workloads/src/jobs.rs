//! The job model: one job type, [`Job`], and the synthetic generators
//! that sample it.
//!
//! Both generators draw a job's width from the same heavy-tailed
//! node-count mix and its duration from the same lognormal, and its
//! memory utilization from a [`UtilizationModel`]; they differ only in
//! how they place arrivals:
//!
//! * [`GrizzlyTrace`] materializes the paper's Fig 17 trace (Section
//!   IV-C): a first pass draws every job's width and duration, the
//!   arrival window is sized so the trace offers exactly the target
//!   utilization, and a second pass draws Poisson arrivals over it.
//! * [`SyntheticJobs`] streams fleet-scale traces (10 M+ jobs across a
//!   federation) without materializing them:
//!   * **Counter-seeded**: every job's random draws come from its own
//!     `StdRng` seeded with `iteration_seed(stream_seed, index)`, so
//!     job *k* is identical no matter how many jobs were drawn before
//!     it, how many worker threads exist, or how often the stream is
//!     restarted.
//!   * **Single pass**: instead of summing the whole trace's
//!     node-seconds to size the arrival window, the expected
//!     node-seconds per job is estimated once from a fixed
//!     counter-seeded calibration sample ([`CALIBRATION_JOBS`] draws
//!     on an independent seed lane), and the Poisson arrival gap is
//!     derived from that expectation. Submit times are then a running
//!     prefix sum inside the iterator.
//!   * **O(1) memory**: the stream holds a cursor and a clock, nothing
//!     else; 10 M jobs cost the same RSS as 10.

use crate::utilization::{Cluster, UtilizationModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runner::seed::{iteration_seed, task_seed};

/// Draws (on an independent seed lane) used to estimate the expected
/// job *duration* when sizing the arrival process. Widths are not
/// sampled — their expectation has a closed form — so the estimate
/// avoids the node-count tail, which otherwise dominates the variance
/// of a node-seconds sample mean. Large enough that the offered load
/// lands within a few percent of the target, small enough that
/// calibration is free next to any real run.
pub const CALIBRATION_JOBS: u64 = 8_192;

/// One batch job: what a trace submits and the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Trace-order identifier (a stream's job index).
    pub id: u32,
    /// Submission time, seconds from trace start (nondecreasing).
    pub submit_s: f64,
    /// Nodes requested (exclusive allocation, as in HPC practice).
    pub nodes: u32,
    /// Baseline (conventional-system) execution time, seconds.
    pub duration_s: f64,
    /// The job's lifetime-maximum memory utilization in [0, 1]
    /// (drives Hetero-DMR eligibility: < 50 % benefits).
    pub mem_utilization: f64,
}

impl Job {
    /// Baseline node-seconds this job consumes.
    pub fn node_seconds(&self) -> f64 {
        self.nodes as f64 * self.duration_s
    }
}

/// Grizzly's node count.
pub const GRIZZLY_NODES: u32 = 1490;

/// The paper's job count over its four-month Grizzly window.
pub const GRIZZLY_JOBS: usize = 58_000;

/// The materialized Grizzly-like trace generator (Fig 17): the
/// paper's 58 K jobs on 1490 nodes at ~78 % offered utilization.
#[derive(Debug, Clone, Copy)]
pub struct GrizzlyTrace {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Cluster size the trace targets (caps a job's width).
    pub cluster_nodes: u32,
    /// Target average node utilization (the paper reports ~78 %).
    pub target_utilization: f64,
}

impl Default for GrizzlyTrace {
    fn default() -> GrizzlyTrace {
        GrizzlyTrace {
            jobs: GRIZZLY_JOBS,
            cluster_nodes: GRIZZLY_NODES,
            target_utilization: 0.78,
        }
    }
}

impl GrizzlyTrace {
    /// A scaled-down trace for tests and quick runs (same shape,
    /// fewer jobs on a smaller machine).
    pub fn scaled(jobs: usize, cluster_nodes: u32) -> GrizzlyTrace {
        GrizzlyTrace {
            jobs,
            cluster_nodes,
            target_utilization: 0.78,
        }
    }

    /// Generates the trace deterministically from `seed`, sorted by
    /// submission time. The arrival window is sized from the generated
    /// jobs' own node-seconds, so the offered load misses the target
    /// only by the arrivals' jitter.
    pub fn generate(&self, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        let util_model = UtilizationModel::for_cluster(Cluster::Grizzly);

        // First pass: sizes and durations.
        let mut sizes = Vec::with_capacity(self.jobs);
        let mut durations = Vec::with_capacity(self.jobs);
        let mut total_node_seconds = 0.0;
        for _ in 0..self.jobs {
            let nodes = sample_nodes(&mut rng, self.cluster_nodes);
            let duration = sample_duration(&mut rng);
            total_node_seconds += nodes as f64 * duration;
            sizes.push(nodes);
            durations.push(duration);
        }
        // Pick the trace length (arrival window) that yields the
        // target utilization for the generated work.
        let span = total_node_seconds / (self.cluster_nodes as f64 * self.target_utilization);

        // Second pass: Poisson arrivals over the span.
        let mut t = 0.0;
        let mean_gap = span / self.jobs as f64;
        let mut jobs = Vec::with_capacity(self.jobs);
        for (id, (nodes, duration)) in sizes.into_iter().zip(durations).enumerate() {
            let u: f64 = 1.0 - rng.random::<f64>();
            t += -mean_gap * u.ln();
            jobs.push(Job {
                id: id as u32,
                submit_s: t,
                nodes,
                duration_s: duration,
                mem_utilization: util_model.sample_utilization(&mut rng),
            });
        }
        jobs
    }
}

/// Configuration of a synthetic job stream: how many jobs, how wide
/// they may be, and what offered load they should present to a given
/// aggregate capacity.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticJobs {
    /// Number of jobs the stream yields.
    pub jobs: u64,
    /// Cap on a single job's width (keep at or below the smallest
    /// cluster that must be able to host any job).
    pub max_nodes: u32,
    /// Aggregate node capacity the stream feeds (a single cluster or a
    /// whole federation).
    pub capacity_nodes: f64,
    /// Target offered utilization of that capacity (the paper reports
    /// ~78 % for Grizzly).
    pub target_utilization: f64,
    /// Per-job memory-utilization model (drives Hetero-DMR
    /// eligibility).
    pub utilization: UtilizationModel,
}

impl SyntheticJobs {
    /// Expected node-seconds per job: the exact width expectation
    /// times a duration mean estimated from a fixed counter-seeded
    /// calibration sample (widths and durations are independent
    /// draws). Deterministic in `seed`.
    pub fn mean_job_node_seconds(&self, seed: u64) -> f64 {
        let mut total = 0.0;
        for k in 0..CALIBRATION_JOBS {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, "jobs.calibration", k));
            total += sample_duration(&mut rng);
        }
        expected_nodes(self.max_nodes) * (total / CALIBRATION_JOBS as f64)
    }

    /// Mean Poisson arrival gap that presents `target_utilization`
    /// offered load to `capacity_nodes`.
    pub fn mean_arrival_gap_s(&self, seed: u64) -> f64 {
        self.mean_job_node_seconds(seed) / (self.capacity_nodes * self.target_utilization)
    }

    /// Opens the stream. Restarting with the same seed replays the
    /// exact same jobs.
    pub fn stream(&self, seed: u64) -> JobStream {
        JobStream {
            cfg: *self,
            seed,
            next: 0,
            clock_s: 0.0,
            mean_gap_s: self.mean_arrival_gap_s(seed),
        }
    }
}

/// A lazy, counter-seeded job stream (see module docs). Holds only a
/// cursor and the arrival clock — memory is O(1) in the job count.
#[derive(Debug, Clone)]
pub struct JobStream {
    cfg: SyntheticJobs,
    seed: u64,
    next: u64,
    clock_s: f64,
    mean_gap_s: f64,
}

impl JobStream {
    /// Jobs remaining in the stream.
    pub fn remaining(&self) -> u64 {
        self.cfg.jobs - self.next
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.next >= self.cfg.jobs {
            return None;
        }
        let index = self.next;
        self.next += 1;
        let mut rng = StdRng::seed_from_u64(iteration_seed(self.seed, index));
        // Exponential inter-arrival gap (Poisson process); the prefix
        // sum keeps submit times nondecreasing by construction.
        let u: f64 = 1.0 - rng.random::<f64>();
        self.clock_s += -self.mean_gap_s * u.ln();
        Some(Job {
            id: index as u32,
            submit_s: self.clock_s,
            nodes: sample_nodes(&mut rng, self.cfg.max_nodes),
            duration_s: sample_duration(&mut rng),
            mem_utilization: self.cfg.utilization.sample_utilization(&mut rng),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for JobStream {}

/// Heavy-tailed node-count mix: mostly small jobs, a few very wide
/// ones — the classic capacity-cluster shape. Forced inline: with two
/// callers LLVM stops inlining it into `JobStream::next`, and
/// perfbench's fleet-stream then ran about 5 % slower (2-vCPU x86-64).
#[inline(always)]
fn sample_nodes<R: Rng + ?Sized>(rng: &mut R, max_nodes: u32) -> u32 {
    let bucket: f64 = rng.random();
    let nodes = if bucket < 0.35 {
        1
    } else if bucket < 0.60 {
        rng.random_range(2..=4)
    } else if bucket < 0.80 {
        rng.random_range(5..=16)
    } else if bucket < 0.93 {
        rng.random_range(17..=64)
    } else if bucket < 0.99 {
        rng.random_range(65..=256)
    } else {
        rng.random_range(257..=512)
    };
    nodes.min(max_nodes)
}

/// Closed-form expectation of [`sample_nodes`]: bucket probabilities
/// times the mean of each (possibly `max_nodes`-clipped) uniform
/// range. Exact, so arrival sizing never pays for the width tail's
/// sampling variance.
fn expected_nodes(max_nodes: u32) -> f64 {
    let m = max_nodes as f64;
    let clipped_uniform = |a: u32, b: u32| -> f64 {
        let (a, b) = (a as f64, b as f64);
        if m >= b {
            (a + b) / 2.0
        } else if m <= a {
            m
        } else {
            // E[min(U{a..=b}, m)]: values a..=m keep themselves, the
            // rest collapse to m.
            let below = (m * (m + 1.0) - (a - 1.0) * a) / 2.0;
            (below + (b - m) * m) / (b - a + 1.0)
        }
    };
    0.35 * 1.0f64.min(m)
        + 0.25 * clipped_uniform(2, 4)
        + 0.20 * clipped_uniform(5, 16)
        + 0.13 * clipped_uniform(17, 64)
        + 0.06 * clipped_uniform(65, 256)
        + 0.01 * clipped_uniform(257, 512)
}

/// Lognormal-ish durations: median ~45 minutes, mean ~3 h, capped at
/// a 48 h wall-time limit.
fn sample_duration<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let z = {
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let secs = (7.9 + 1.4 * z).exp(); // median e^7.9 ≈ 2700 s
    secs.clamp(60.0, 48.0 * 3600.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(jobs: u64) -> SyntheticJobs {
        SyntheticJobs {
            jobs,
            max_nodes: 512,
            capacity_nodes: 4_096.0,
            target_utilization: 0.75,
            utilization: UtilizationModel::for_cluster(Cluster::Grizzly),
        }
    }

    #[test]
    fn replay_is_identical() {
        let a: Vec<Job> = cfg(500).stream(9).collect();
        let b: Vec<Job> = cfg(500).stream(9).collect();
        assert_eq!(a, b);
        let c: Vec<Job> = cfg(500).stream(10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn per_job_draws_are_prefix_independent() {
        // Job k is the same whether or not earlier jobs were consumed
        // (submit times are a prefix sum, so compare the seeded
        // fields, not the clock).
        let full: Vec<Job> = cfg(100).stream(3).collect();
        let mut shifted = cfg(100).stream(3);
        shifted.nth(49); // consume 0..=49
        let fifty_first = shifted.next().expect("job 50");
        assert_eq!(fifty_first.nodes, full[50].nodes);
        assert_eq!(fifty_first.duration_s, full[50].duration_s);
        assert_eq!(fifty_first.mem_utilization, full[50].mem_utilization);
        assert_eq!(fifty_first.submit_s, full[50].submit_s);
    }

    #[test]
    fn submits_are_nondecreasing_and_bounded() {
        let jobs: Vec<Job> = cfg(2_000).stream(1).collect();
        assert_eq!(jobs.len(), 2_000);
        assert!(jobs.windows(2).all(|w| w[0].submit_s <= w[1].submit_s));
        for j in &jobs {
            assert!(j.nodes >= 1 && j.nodes <= 512);
            assert!(j.duration_s >= 60.0 && j.duration_s <= 48.0 * 3600.0);
            assert!((0.0..=1.0).contains(&j.mem_utilization));
        }
    }

    #[test]
    fn offered_load_tracks_the_target() {
        let c = cfg(20_000);
        let jobs: Vec<Job> = c.stream(5).collect();
        let span = jobs.last().unwrap().submit_s;
        let node_seconds: f64 = jobs.iter().map(Job::node_seconds).sum();
        let offered = node_seconds / (c.capacity_nodes * span);
        assert!(
            (offered - 0.75).abs() < 0.08,
            "offered utilization {offered}"
        );
    }

    #[test]
    fn size_hint_is_exact() {
        let mut s = cfg(10).stream(0);
        assert_eq!(s.len(), 10);
        s.next();
        assert_eq!(s.len(), 9);
        assert_eq!(s.by_ref().count(), 9);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn calibration_is_deterministic_and_plausible() {
        let c = cfg(10);
        let a = c.mean_job_node_seconds(7);
        assert_eq!(a, c.mean_job_node_seconds(7));
        // ~35 mean nodes × ~2-3 h mean duration: loose brackets.
        assert!(a > 1e3 && a < 1e7, "mean node-seconds {a}");
    }

    /// FNV-1a over every field's bits, in trace order.
    fn digest(jobs: &[Job]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for j in jobs {
            for v in [
                u64::from(j.id),
                j.submit_s.to_bits(),
                u64::from(j.nodes),
                j.duration_s.to_bits(),
                j.mem_utilization.to_bits(),
            ] {
                for b in v.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The materialized trace's exact draws (RNG call order and the
    /// two-pass arrival sizing) are part of every Fig 17 artifact.
    #[test]
    fn grizzly_trace_is_pinned() {
        let jobs = GrizzlyTrace::scaled(64, 64).generate(7);
        assert_eq!(jobs.len(), 64);
        assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i as u32));
        assert_eq!(digest(&jobs), 0x42f1_6783_ae79_66e7);
    }

    /// The stream's exact draws are part of every fleet artifact and
    /// the fleet-stream benchmark digest.
    #[test]
    fn job_stream_is_pinned() {
        let jobs: Vec<Job> = cfg(1_000).stream(7).take(64).collect();
        assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i as u32));
        assert_eq!(digest(&jobs), 0xc3b7_73d6_3e8d_9a28);
    }

    fn grizzly() -> Vec<Job> {
        GrizzlyTrace::scaled(4_000, GRIZZLY_NODES).generate(1)
    }

    #[test]
    fn job_count_and_ordering() {
        let jobs = grizzly();
        assert_eq!(jobs.len(), 4_000);
        assert!(jobs.windows(2).all(|w| w[0].submit_s <= w[1].submit_s));
    }

    #[test]
    fn sizes_fit_the_cluster() {
        for j in grizzly() {
            assert!(j.nodes >= 1 && j.nodes <= GRIZZLY_NODES);
            assert!(j.duration_s >= 60.0 && j.duration_s <= 48.0 * 3600.0);
            assert!((0.0..=1.0).contains(&j.mem_utilization));
        }
    }

    #[test]
    fn offered_load_matches_target_utilization() {
        let jobs = grizzly();
        let span = jobs.last().unwrap().submit_s;
        let node_seconds: f64 = jobs.iter().map(Job::node_seconds).sum();
        let utilization = node_seconds / (GRIZZLY_NODES as f64 * span);
        assert!(
            (utilization - 0.78).abs() < 0.06,
            "offered utilization {utilization}"
        );
    }

    #[test]
    fn mostly_small_jobs_some_wide() {
        let jobs = grizzly();
        let single = jobs.iter().filter(|j| j.nodes == 1).count() as f64 / jobs.len() as f64;
        let wide = jobs.iter().filter(|j| j.nodes > 64).count() as f64 / jobs.len() as f64;
        assert!((0.25..0.45).contains(&single), "single-node {single}");
        assert!((0.02..0.15).contains(&wide), "wide {wide}");
    }

    #[test]
    fn most_jobs_eligible_for_hetero_dmr() {
        let jobs = grizzly();
        let eligible = jobs
            .iter()
            .filter(|j| UtilizationModel::hetero_dmr_eligible(j.mem_utilization))
            .count() as f64
            / jobs.len() as f64;
        assert!((eligible - 0.75).abs() < 0.05, "eligible {eligible}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GrizzlyTrace::scaled(100, 64).generate(7);
        let b = GrizzlyTrace::scaled(100, 64).generate(7);
        assert_eq!(a, b);
        let c = GrizzlyTrace::scaled(100, 64).generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn node_seconds() {
        let j = Job {
            id: 0,
            submit_s: 0.0,
            nodes: 4,
            duration_s: 100.0,
            mem_utilization: 0.2,
        };
        assert_eq!(j.node_seconds(), 400.0);
    }
}
