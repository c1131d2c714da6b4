//! A naive FCFS + EASY-backfill reference scheduler, kept solely as the
//! referee for the differential property test in
//! `scheduler_properties.rs`.
//!
//! It shares no code with `scheduler::cluster` beyond the public job,
//! config and speedup types: running jobs sit in an unsorted `Vec`
//! (the next completion is a linear scan), the head's shadow time
//! comes from a freshly sorted copy of that list on every pass, and
//! both node allocators are written out again here. O(n²) and proud of
//! it. The tie rules are the real event loop's:
//!
//! * an arrival at the same instant as a completion is handled first,
//!   so its first scheduling pass does not yet see the freed nodes;
//! * completions with equal end times happen in start order.

use scheduler::{Cluster, Job, JobOutcome, Policy, SchedulerConfig};

/// Margin groups, fastest first, indexed like the cluster's group
/// sizes.
const GROUPS: [u32; 3] = [800, 600, 0];

/// A started job still holding its nodes.
#[derive(Clone, Copy)]
struct Running {
    end_s: f64,
    /// Start order: breaks end-time ties.
    seq: u64,
    alloc: [u32; 3],
}

struct Reference<'a> {
    config: &'a SchedulerConfig,
    free: [u32; 3],
    running: Vec<Running>,
    waiting: Vec<Job>,
    started: u64,
    backfilled: u64,
    outcomes: Vec<JobOutcome>,
}

/// Schedules `jobs` (sorted by submit time) on `cluster`. Returns one
/// outcome per job, sorted by job id, and how many jobs backfilled.
///
/// # Panics
///
/// Panics if a job can never start (wider than the cluster).
pub fn schedule(
    cluster: &Cluster,
    jobs: &[Job],
    config: &SchedulerConfig,
) -> (Vec<JobOutcome>, u64) {
    let mut r = Reference {
        config,
        free: cluster.group_sizes(),
        running: Vec::new(),
        waiting: Vec::new(),
        started: 0,
        backfilled: 0,
        outcomes: Vec::new(),
    };
    let mut next = 0;
    loop {
        let completion = r.earliest_completion();
        let now = match (jobs.get(next), completion) {
            (Some(job), Some(i)) if job.submit_s <= r.running[i].end_s => r.arrive(job, &mut next),
            (Some(job), None) => r.arrive(job, &mut next),
            (_, Some(i)) => r.complete(i),
            (None, None) => {
                assert!(r.waiting.is_empty(), "a waiting job can never start");
                break;
            }
        };
        r.pass(now);
    }
    r.outcomes.sort_by_key(|o| o.job.id);
    (r.outcomes, r.backfilled)
}

impl Reference<'_> {
    /// Index of the running job that ends first (earliest start among
    /// equal end times).
    fn earliest_completion(&self) -> Option<usize> {
        (0..self.running.len()).min_by(|&a, &b| {
            let (a, b) = (&self.running[a], &self.running[b]);
            a.end_s.total_cmp(&b.end_s).then(a.seq.cmp(&b.seq))
        })
    }

    fn arrive(&mut self, job: &Job, next: &mut usize) -> f64 {
        self.waiting.push(*job);
        *next += 1;
        job.submit_s
    }

    fn complete(&mut self, i: usize) -> f64 {
        let done = self.running.remove(i);
        for (f, a) in self.free.iter_mut().zip(done.alloc) {
            *f += a;
        }
        done.end_s
    }

    fn total_free(&self) -> u32 {
        self.free.iter().sum()
    }

    /// The allocation `nodes` would receive from the current free pool.
    fn allocation(&self, nodes: u32) -> [u32; 3] {
        match self.config.policy() {
            Policy::MarginAware => allocate_margin_aware(nodes, self.free),
            Policy::Default => allocate_default(nodes, self.free),
        }
    }

    /// Accelerated execution time of `job` on `alloc`.
    fn exec_s(&self, job: &Job, alloc: [u32; 3]) -> f64 {
        let slowest = (0..3)
            .filter(|&g| alloc[g] > 0)
            .map(|g| GROUPS[g])
            .min()
            .unwrap_or(0);
        job.duration_s
            / self
                .config
                .speedups()
                .job_speedup(slowest, job.mem_utilization)
    }

    /// One FCFS + EASY pass at `now`.
    fn pass(&mut self, now: f64) {
        while !self.waiting.is_empty() && self.waiting[0].nodes <= self.total_free() {
            let head = self.waiting.remove(0);
            self.start(head, now, false);
        }
        if self.waiting.is_empty() {
            return;
        }
        let shadow = self.shadow_s(self.waiting[0].nodes);
        let mut i = 1;
        while i < self.waiting.len() {
            let job = self.waiting[i];
            if job.nodes <= self.total_free()
                && now + self.exec_s(&job, self.allocation(job.nodes)) <= shadow
            {
                self.waiting.remove(i);
                self.start(job, now, true);
            } else {
                i += 1;
            }
        }
    }

    /// The earliest end time by which `needed` nodes are free at once,
    /// from a sorted copy of the running jobs.
    fn shadow_s(&self, needed: u32) -> f64 {
        let mut by_end = self.running.clone();
        by_end.sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.seq.cmp(&b.seq)));
        let mut available = self.total_free();
        for r in &by_end {
            available += r.alloc.iter().sum::<u32>();
            if available >= needed {
                return r.end_s;
            }
        }
        f64::INFINITY
    }

    fn start(&mut self, job: Job, now: f64, backfilled: bool) {
        let alloc = self.allocation(job.nodes);
        let exec_s = self.exec_s(&job, alloc);
        for (f, a) in self.free.iter_mut().zip(alloc) {
            *f -= a;
        }
        self.running.push(Running {
            end_s: now + exec_s,
            seq: self.started,
            alloc,
        });
        self.started += 1;
        self.backfilled += u64::from(backfilled);
        self.outcomes.push(JobOutcome {
            job,
            start_s: now,
            exec_s,
        });
    }
}

/// The fastest single group that holds the whole job, else fill
/// fastest-first.
fn allocate_margin_aware(nodes: u32, free: [u32; 3]) -> [u32; 3] {
    if let Some(g) = (0..3).find(|&g| free[g] >= nodes) {
        let mut alloc = [0; 3];
        alloc[g] = nodes;
        return alloc;
    }
    let mut left = nodes;
    free.map(|f| {
        let take = left.min(f);
        left -= take;
        take
    })
}

/// Proportional shares of the free pool (rounded down), then the
/// remainder one node at a time round-robin over groups with room.
fn allocate_default(nodes: u32, free: [u32; 3]) -> [u32; 3] {
    let total: u64 = free.iter().map(|&f| f as u64).sum();
    let mut alloc = free.map(|f| ((nodes as u64 * f as u64 / total) as u32).min(f));
    let mut g = 0;
    while alloc.iter().sum::<u32>() < nodes {
        if alloc[g] < free[g] {
            alloc[g] += 1;
        }
        g = (g + 1) % 3;
    }
    alloc
}
