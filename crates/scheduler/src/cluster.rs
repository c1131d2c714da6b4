//! The cluster simulator: FCFS + EASY backfill over margin-grouped
//! nodes, driven by a streaming job source and an ordered event queue.

use crate::config::SchedulerConfig;
use crate::federation::QUEUE_SERIES_WIDTH_MS;
use crate::job::{Job, JobOutcome};
use crate::queue::EventQueue;
use crate::source::JobSource;
use crate::stats::StreamSummary;
use std::collections::VecDeque;
use telemetry::trace::{kv, Clock, SpanId, Tracer};
use telemetry::{Counter, Gauge, Histogram, Obs, Scope};
use workloads::utilization::UtilizationModel;

/// Node margin groups, fastest first (0.8 GT/s, 0.6 GT/s, none).
pub const GROUPS: [u32; 3] = [800, 600, 0];

/// Node-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Slurm's margin-oblivious allocation: free nodes are taken as
    /// they come (groups mix in proportion to availability).
    Default,
    /// The paper's margin-aware scheduler: allocate a job entirely
    /// within the fastest group that has enough free nodes; only
    /// spill across groups when no single group fits.
    MarginAware,
}

/// Per-(margin group, usage bucket) job speedups, fed from the
/// node-level model (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupModel {
    /// Speedup on 0.8 GT/s nodes for jobs below 25 % / in [25,50) %.
    pub at_800: [f64; 2],
    /// Speedup on 0.6 GT/s nodes, same buckets.
    pub at_600: [f64; 2],
}

impl SpeedupModel {
    /// A conventional system: nobody speeds up.
    pub fn conventional() -> SpeedupModel {
        SpeedupModel {
            at_800: [1.0, 1.0],
            at_600: [1.0, 1.0],
        }
    }

    /// The Hetero-DMR speedups measured by this reproduction's node
    /// model (defaults; the experiments binary feeds its own measured
    /// values).
    pub fn hetero_dmr_default() -> SpeedupModel {
        SpeedupModel {
            at_800: [1.10, 1.10],
            at_600: [1.07, 1.07],
        }
    }

    /// The largest value [`job_speedup`](Self::job_speedup) can
    /// return: 1.0 (ineligible jobs and margin-less nodes) or a table
    /// entry, whichever is larger.
    pub fn max(&self) -> f64 {
        self.at_800
            .iter()
            .chain(&self.at_600)
            .fold(1.0, |m, &s| m.max(s))
    }

    /// The execution-time speedup of a job whose slowest allocated
    /// node is in `min_group`, given its memory utilization.
    pub fn job_speedup(&self, min_group: u32, utilization: f64) -> f64 {
        if !UtilizationModel::hetero_dmr_eligible(utilization) {
            return 1.0;
        }
        let bucket = usize::from(utilization >= 0.25);
        match min_group {
            800 => self.at_800[bucket],
            600 => self.at_600[bucket],
            _ => 1.0,
        }
    }
}

/// Registry-bound observability for one scheduling run: the live
/// queue depth, start/backfill tallies, and per-margin-group latency
/// distributions (queue delay and execution time, in milliseconds).
/// Built per run from the scope of the [`Stepper`]'s `Obs`, so concurrently
/// metered runs never alias each other's handles.
#[derive(Debug)]
struct ClusterMetrics {
    queue_depth: Gauge,
    jobs_started: Counter,
    jobs_backfilled: Counter,
    /// Starts whose `min_group` was not one of [`GROUPS`] — always 0
    /// unless an allocator bug invents a margin group (see
    /// [`ClusterMetrics::note_start`]).
    unknown_group_starts: Counter,
    /// Job spans the tracer declined past the configured
    /// `traced_job_cap` — the cap used to truncate silently; now the
    /// run manifest can say how much of the schedule the trace covers.
    trace_dropped_jobs: Counter,
    /// Indexed like [`GROUPS`]: 800, 600, 0.
    queue_delay_ms: [Histogram; 3],
    exec_ms: [Histogram; 3],
}

impl ClusterMetrics {
    fn new(scope: &Scope) -> ClusterMetrics {
        let per_group = |stem: &str| GROUPS.map(|g| scope.histogram(&format!("group{g}.{stem}")));
        ClusterMetrics {
            queue_depth: scope.gauge("queue_depth"),
            jobs_started: scope.counter("jobs_started"),
            jobs_backfilled: scope.counter("jobs_backfilled"),
            unknown_group_starts: scope.counter("unknown_group_starts"),
            trace_dropped_jobs: scope.counter("trace_dropped_jobs"),
            queue_delay_ms: per_group("queue_delay_ms"),
            exec_ms: per_group("exec_ms"),
        }
    }

    fn note_start(&self, outcome: &JobOutcome, min_group: u32, backfilled: bool) {
        self.jobs_started.inc();
        if backfilled {
            self.jobs_backfilled.inc();
        }
        // An unknown margin group means the allocator handed out nodes
        // that do not exist: loud in debug builds, a counted telemetry
        // event (never a silent re-bin) in release.
        let idx = match GROUPS.iter().position(|&g| g == min_group) {
            Some(idx) => idx,
            None => {
                debug_assert!(false, "min_group {min_group} is not one of {GROUPS:?}");
                self.unknown_group_starts.inc();
                GROUPS.len() - 1
            }
        };
        self.queue_delay_ms[idx].record((outcome.queue_delay_s() * 1e3).max(0.0) as u64);
        self.exec_ms[idx].record((outcome.exec_s * 1e3).max(0.0) as u64);
    }
}

/// Default per-run cap on individually traced job spans: enough to
/// read a schedule's shape in a trace viewer without ballooning the
/// file on multi-thousand-job traces. Override per run via
/// [`SchedulerConfigBuilder::traced_job_cap`](crate::SchedulerConfig);
/// the `schedule` root span's args record the traced, dropped, and
/// true job counts.
pub const TRACED_JOB_CAP: usize = 256;

/// Causal tracing for one scheduling run: job spans on the schedule
/// clock (microseconds) under a single `schedule` root span.
struct ClusterTrace {
    tracer: Tracer,
    root: SpanId,
    cap: usize,
    traced: usize,
    dropped: usize,
}

/// Schedule seconds → the trace's microsecond clock.
fn sched_us(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e6).round() as u64
}

impl ClusterTrace {
    fn note_start(&mut self, outcome: &JobOutcome, min_group: u32, backfilled: bool) {
        if self.traced >= self.cap {
            self.dropped += 1;
            return;
        }
        self.traced += 1;
        self.tracer.complete(
            format!("job.{}", outcome.job.id),
            "sched",
            Clock::SchedUs,
            sched_us(outcome.start_s),
            sched_us(outcome.start_s + outcome.exec_s),
            vec![
                kv("nodes", outcome.job.nodes),
                kv("min_group", min_group),
                kv("backfilled", backfilled),
                kv("submit_us", sched_us(outcome.job.submit_s)),
            ],
        );
    }
}

/// A margin-grouped cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Total nodes per group.
    total: [u32; 3],
}

impl Cluster {
    /// Builds a cluster of `nodes` total, split into margin groups by
    /// `fractions` (0.8 / 0.6 / 0 GT/s; must sum to ~1).
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or sum beyond 1 + ε.
    pub fn new(nodes: u32, fractions: [f64; 3]) -> Cluster {
        assert!(
            fractions.iter().all(|&f| f >= 0.0) && fractions.iter().sum::<f64>() <= 1.0 + 1e-9,
            "group fractions must be a distribution"
        );
        let g800 = (nodes as f64 * fractions[0]).round() as u32;
        let g600 = (nodes as f64 * fractions[1]).round() as u32;
        let g0 = nodes.saturating_sub(g800 + g600);
        Cluster {
            total: [g800.min(nodes), g600.min(nodes - g800.min(nodes)), g0],
        }
    }

    /// A conventional cluster (no usable margins anywhere).
    pub fn conventional(nodes: u32) -> Cluster {
        Cluster {
            total: [0, 0, nodes],
        }
    }

    /// Total nodes.
    pub fn nodes(&self) -> u32 {
        self.total.iter().sum()
    }

    /// Nodes per group, fastest first.
    pub fn group_sizes(&self) -> [u32; 3] {
        self.total
    }

    /// Starts a scheduling run over `source`: configure with
    /// [`config`](ScheduleBuilder::config), attach observability with
    /// [`observe`](ScheduleBuilder::observe), then finish with
    /// [`run`](ScheduleBuilder::run) (collected outcomes) or
    /// [`run_streaming`](ScheduleBuilder::run_streaming) (O(1)-memory
    /// summary).
    pub fn schedule<S: JobSource>(&self, source: S) -> ScheduleBuilder<'_, S> {
        ScheduleBuilder {
            cluster: self,
            source,
            config: SchedulerConfig::default(),
            obs: Obs::default(),
        }
    }
}

/// A configured-but-not-yet-run schedule; see [`Cluster::schedule`].
#[derive(Debug)]
pub struct ScheduleBuilder<'c, S> {
    cluster: &'c Cluster,
    source: S,
    config: SchedulerConfig,
    obs: Obs,
}

impl<'c, S: JobSource> ScheduleBuilder<'c, S> {
    /// Sets the validated policy + speedup configuration (defaults to
    /// a conventional, margin-oblivious system).
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Observes the run through `obs`: its scope meters queue depth,
    /// start/backfill tallies and per-group latency histograms; its
    /// tracer records job spans under a `schedule` root span; and
    /// [`run_streaming`](Self::run_streaming) streams every job's
    /// queue delay into its series `<prefix>.queue_delay_ms`
    /// ([`QUEUE_SERIES_WIDTH_MS`]-wide windows by submit time, see
    /// [`StreamSummary::tap_series`]). [`run`](Self::run) records no
    /// series.
    pub fn observe(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Runs to completion, collecting one outcome per job (sorted by
    /// job id). Materializes the outcome list — for fleet-scale runs
    /// use [`run_streaming`](Self::run_streaming) instead.
    pub fn run(self) -> Vec<JobOutcome> {
        let hint = self.source.len_hint().unwrap_or(0);
        let mut outcomes = self.drive(Vec::with_capacity(hint));
        outcomes.sort_by_key(|o| o.job.id);
        outcomes
    }

    /// Runs to completion, folding every outcome into a
    /// [`StreamSummary`] as it happens. Memory stays O(1) in the job
    /// count — this is the fleet-scale entry point.
    pub fn run_streaming(self) -> StreamSummary {
        let summary = tapped_summary(&self.obs);
        self.drive(summary)
    }

    /// Offers every job of the source to one [`Stepper`], then
    /// finishes it.
    fn drive<K: Sink>(mut self, sink: K) -> K {
        let mut stepper = Stepper::new(self.cluster, self.config, &self.obs, sink);
        while let Some(job) = self.source.next_job() {
            stepper.offer(job);
        }
        stepper.finish()
    }
}

/// Where a run reports each started job: its outcome, the slowest
/// allocated margin group, and whether it backfilled.
pub(crate) trait Sink {
    fn note(&mut self, outcome: &JobOutcome, min_group: u32, backfilled: bool);
}

impl Sink for Vec<JobOutcome> {
    fn note(&mut self, outcome: &JobOutcome, _: u32, _: bool) {
        self.push(*outcome);
    }
}

impl Sink for StreamSummary {
    fn note(&mut self, outcome: &JobOutcome, min_group: u32, backfilled: bool) {
        StreamSummary::note(self, outcome, min_group, backfilled);
    }
}

/// The event-driven core in push form. The caller
/// [`offer`](Stepper::offer)s jobs in nondecreasing submit order, then
/// [`finish`](Stepper::finish)es; completions wait in the ordered
/// [`EventQueue`] and every started job goes to the sink. One job
/// source can thus feed one stepper ([`ScheduleBuilder`]) or, routed,
/// several ([`Federation`](crate::Federation)) — the same event loop
/// either way. A traced stepper spans its run with a `schedule` root.
pub(crate) struct Stepper<K> {
    config: SchedulerConfig,
    /// `config.speedups().max()`: no job runs faster than this.
    max_speedup: f64,
    free: [u32; 3],
    events: EventQueue,
    waiting: VecDeque<Job>,
    started: u64,
    makespan_s: f64,
    last_submit: f64,
    metrics: Option<ClusterMetrics>,
    trace: Option<ClusterTrace>,
    sink: K,
}

impl<K: Sink> Stepper<K> {
    /// An idle `cluster` observed through `obs` (metrics, and a
    /// `schedule` root span opened at time 0 when traced).
    pub(crate) fn new(cluster: &Cluster, config: SchedulerConfig, obs: &Obs, sink: K) -> Self {
        Stepper {
            config,
            max_speedup: config.speedups().max(),
            free: cluster.total,
            events: EventQueue::new(),
            waiting: VecDeque::new(),
            started: 0,
            makespan_s: 0.0,
            last_submit: f64::NEG_INFINITY,
            metrics: obs.scope().map(ClusterMetrics::new),
            trace: obs.tracer().map(|tracer| ClusterTrace {
                tracer: tracer.clone(),
                root: tracer.begin("schedule", "sched", Clock::SchedUs, 0),
                cap: config.traced_job_cap(),
                traced: 0,
                dropped: 0,
            }),
            sink,
        }
    }

    /// Advances to `job`'s arrival and queues it: completions strictly
    /// before its submit time happen first, each with its scheduling
    /// pass; a completion at the same instant waits, so arrivals win
    /// ties and the job's first pass sees only nodes already free.
    pub(crate) fn offer(&mut self, job: Job) {
        debug_assert!(
            job.submit_s >= self.last_submit,
            "JobSource must yield nondecreasing submit times ({} after {})",
            job.submit_s,
            self.last_submit
        );
        self.last_submit = job.submit_s;
        while self.events.peek_end().is_some_and(|end| end < job.submit_s) {
            self.complete_next();
        }
        self.waiting.push_back(job);
        self.pass(job.submit_s);
    }

    /// Runs the remaining completions, closes the `schedule` root span,
    /// and hands back the sink.
    ///
    /// # Panics
    ///
    /// Panics if a queued job can never start (wider than the cluster).
    pub(crate) fn finish(mut self) -> K {
        while !self.events.is_empty() {
            self.complete_next();
        }
        assert!(
            self.waiting.is_empty(),
            "waiting jobs can never start: a queued job is wider than the cluster"
        );
        if let Some(trace) = &self.trace {
            if let Some(m) = &self.metrics {
                m.trace_dropped_jobs.add(trace.dropped as u64);
            }
            trace.tracer.end_with(
                trace.root,
                sched_us(self.makespan_s),
                vec![
                    kv("jobs", self.started),
                    kv("jobs_traced", trace.traced),
                    kv("jobs_trace_dropped", trace.dropped),
                ],
            );
        }
        self.sink
    }

    /// Returns the earliest completion's nodes and runs a pass at its
    /// end time.
    fn complete_next(&mut self) {
        let event = self.events.pop().expect("caller checked the queue");
        for (f, freed) in self.free.iter_mut().zip(event.freed) {
            *f += freed;
        }
        self.pass(event.end_s);
    }

    /// One scheduling pass at `now`, then the queue-depth gauge.
    fn pass(&mut self, now: f64) {
        self.schedule(now);
        if let Some(m) = &self.metrics {
            m.queue_depth.set(self.waiting.len() as i64);
        }
    }

    /// FCFS + EASY backfill scheduling pass at time `now`.
    fn schedule(&mut self, now: f64) {
        // Start FCFS-eligible jobs from the head.
        let mut free = self.free_nodes();
        while let Some(&head) = self.waiting.front() {
            if head.nodes > free {
                break;
            }
            self.waiting.pop_front();
            self.start(head, now, false);
            free = self.free_nodes();
        }
        let Some(&head) = self.waiting.front() else {
            return;
        };

        // EASY backfill: the head job gets a reservation at the
        // earliest time enough nodes will be free; jobs behind it may
        // start now if they fit and finish before that reservation.
        // The completion estimate accounts for the speedup of the
        // nodes the candidate would actually receive — the scheduler
        // knows its groups (that is the whole point of margin
        // awareness). A candidate that would overrun the reservation
        // even at the fastest speedup is rejected before allocating.
        let shadow = self.shadow_time(head.nodes, free);
        let mut i = 1;
        while i < self.waiting.len() {
            let candidate = self.waiting[i];
            let ends_in_time = candidate.nodes <= free
                && !self.overruns_at_best(&candidate, now, shadow)
                && now + self.exec_s(&candidate, &self.allocate(candidate.nodes)) <= shadow;
            if ends_in_time {
                let job = self.waiting.remove(i).expect("index in bounds");
                self.start(job, now, true);
                free = self.free_nodes();
            } else {
                i += 1;
            }
        }
    }

    /// Whether `job`, started at `now`, would end after `shadow` even
    /// at [`SpeedupModel::max`]. Exact: for a nonnegative duration,
    /// `exec_s` divides by a speedup no larger than the maximum, and
    /// IEEE division and addition are monotone, so `now + exec_s` is
    /// never below `now + duration_s / max_speedup`. A negative
    /// duration (`Job`'s fields are unvalidated) flips that order, so
    /// it never takes the shortcut.
    fn overruns_at_best(&self, job: &Job, now: f64, shadow: f64) -> bool {
        job.duration_s >= 0.0 && now + job.duration_s / self.max_speedup > shadow
    }

    /// Free nodes across all groups.
    fn free_nodes(&self) -> u32 {
        self.free.iter().sum()
    }

    /// The earliest time at which `needed` nodes will be
    /// simultaneously free, given `free` nodes now and the running
    /// jobs. Walks the event queue in order and stops as soon as the
    /// deficit is covered — no copying, no re-sorting.
    fn shadow_time(&self, needed: u32, free: u32) -> f64 {
        let mut available = free;
        if available >= needed {
            return 0.0;
        }
        for event in self.events.in_order() {
            available += event.freed.iter().sum::<u32>();
            if available >= needed {
                return event.end_s;
            }
        }
        f64::INFINITY
    }

    /// The nodes per group `nodes` would receive from the free pool.
    fn allocate(&self, nodes: u32) -> [u32; 3] {
        match self.config.policy() {
            Policy::MarginAware => allocate_margin_aware(nodes, &self.free),
            Policy::Default => allocate_default(nodes, &self.free),
        }
    }

    /// `job`'s execution time on `alloc`: the slowest allocated node's
    /// group caps the MPI job.
    fn exec_s(&self, job: &Job, alloc: &[u32; 3]) -> f64 {
        job.duration_s
            / self
                .config
                .speedups()
                .job_speedup(min_group(alloc), job.mem_utilization)
    }

    /// Allocates and starts one job.
    fn start(&mut self, job: Job, now: f64, backfilled: bool) {
        let alloc = self.allocate(job.nodes);
        for (f, a) in self.free.iter_mut().zip(alloc) {
            *f -= a;
        }
        let exec = self.exec_s(&job, &alloc);
        self.events.push(now + exec, alloc);
        let outcome = JobOutcome {
            job,
            start_s: now,
            exec_s: exec,
        };
        let min_group = min_group(&alloc);
        self.started += 1;
        self.makespan_s = self.makespan_s.max(now + exec);
        if let Some(m) = &self.metrics {
            m.note_start(&outcome, min_group, backfilled);
        }
        if let Some(t) = &mut self.trace {
            t.note_start(&outcome, min_group, backfilled);
        }
        self.sink.note(&outcome, min_group, backfilled);
    }
}

/// An empty summary that taps `obs`'s series `queue_delay_ms` when a
/// series store is attached.
pub(crate) fn tapped_summary(obs: &Obs) -> StreamSummary {
    let mut summary = StreamSummary::new();
    if let Some(series) = obs.series_named("queue_delay_ms", QUEUE_SERIES_WIDTH_MS) {
        summary.tap_series(series);
    }
    summary
}

/// The slowest group present in an allocation (caps an MPI job).
fn min_group(alloc: &[u32; 3]) -> u32 {
    GROUPS
        .iter()
        .zip(alloc)
        .filter(|&(_, &a)| a > 0)
        .map(|(&g, _)| g)
        .min()
        .unwrap_or(0)
}

/// Margin-aware allocation: the fastest single group that fits
/// takes the whole job; otherwise spill fastest-first.
fn allocate_margin_aware(nodes: u32, free: &[u32; 3]) -> [u32; 3] {
    for (i, &f) in free.iter().enumerate() {
        if f >= nodes {
            let mut alloc = [0; 3];
            alloc[i] = nodes;
            return alloc;
        }
    }
    let mut alloc = [0; 3];
    let mut remaining = nodes;
    for (a, &f) in alloc.iter_mut().zip(free) {
        let take = remaining.min(f);
        *a = take;
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0, "caller checked total capacity");
    alloc
}

/// Margin-oblivious allocation: nodes come in proportion to what
/// is free (groups are physically interleaved in the racks). A
/// zero-node job gets nothing, even when nothing is free.
fn allocate_default(nodes: u32, free: &[u32; 3]) -> [u32; 3] {
    if nodes == 0 {
        return [0; 3];
    }
    let total: u32 = free.iter().sum();
    let mut alloc = [0u32; 3];
    let mut assigned = 0;
    for i in 0..3 {
        let share = (nodes as u64 * free[i] as u64 / total as u64) as u32;
        let take = share.min(free[i]);
        alloc[i] = take;
        assigned += take;
    }
    // Distribute the rounding remainder wherever room remains.
    let mut i = 0;
    while assigned < nodes {
        if alloc[i] < free[i] {
            alloc[i] += 1;
            assigned += 1;
        } else {
            i = (i + 1) % 3;
            continue;
        }
        i = (i + 1) % 3;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SliceSource;

    fn job(id: u32, submit: f64, nodes: u32, dur: f64, util: f64) -> Job {
        Job {
            id,
            submit_s: submit,
            nodes,
            duration_s: dur,
            mem_utilization: util,
        }
    }

    fn aware() -> SchedulerConfig {
        SchedulerConfig::builder()
            .margin_aware()
            .speedups(SpeedupModel::hetero_dmr_default())
            .build()
            .unwrap()
    }

    fn oblivious_hdmr() -> SchedulerConfig {
        SchedulerConfig::builder()
            .margin_oblivious()
            .speedups(SpeedupModel::hetero_dmr_default())
            .build()
            .unwrap()
    }

    fn conventional() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    fn run(c: &Cluster, jobs: &[Job], config: SchedulerConfig) -> Vec<JobOutcome> {
        c.schedule(SliceSource::new(jobs)).config(config).run()
    }

    #[test]
    fn group_split() {
        let c = Cluster::new(100, [0.62, 0.36, 0.02]);
        assert_eq!(c.group_sizes(), [62, 36, 2]);
        assert_eq!(c.nodes(), 100);
        let conv = Cluster::conventional(10);
        assert_eq!(conv.group_sizes(), [0, 0, 10]);
    }

    #[test]
    fn single_job_runs_immediately() {
        let c = Cluster::new(10, [1.0, 0.0, 0.0]);
        let jobs = [job(0, 5.0, 4, 100.0, 0.1)];
        let out = run(&c, &jobs, aware());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].start_s, 5.0);
        assert!((out[0].exec_s - 100.0 / 1.10).abs() < 1e-9);
    }

    #[test]
    fn fcfs_queues_when_full() {
        let c = Cluster::conventional(4);
        let jobs = [job(0, 0.0, 4, 100.0, 0.1), job(1, 1.0, 4, 50.0, 0.1)];
        let out = run(&c, &jobs, conventional());
        assert_eq!(out[1].start_s, 100.0);
        assert_eq!(out[1].queue_delay_s(), 99.0);
    }

    /// `Job` is unvalidated, so a zero-node job can reach a cluster
    /// with nothing free; both policies start it at once with an empty
    /// allocation.
    #[test]
    fn zero_node_job_starts_on_a_full_cluster_under_both_policies() {
        let c = Cluster::conventional(4);
        let jobs = [job(0, 0.0, 4, 100.0, 0.1), job(1, 1.0, 0, 50.0, 0.1)];
        for config in [conventional(), aware()] {
            let policy = config.policy();
            let out = run(&c, &jobs, config);
            assert_eq!(out.len(), 2, "{policy:?}");
            assert_eq!(out[1].job.id, 1, "{policy:?}");
            assert_eq!(out[1].start_s, 1.0, "{policy:?}");
        }
    }

    #[test]
    fn backfill_slips_small_jobs_past_a_blocked_head() {
        let c = Cluster::conventional(4);
        let jobs = [
            job(0, 0.0, 4, 100.0, 0.1), // runs 0..100
            job(1, 1.0, 4, 50.0, 0.1),  // head: must wait to 100
            job(2, 2.0, 1, 30.0, 0.1),  // would fit... but 0 free
        ];
        let out = run(&c, &jobs, conventional());
        // Nothing is free until t=100, so no backfill possible here;
        // all start at 100 (head first, then the 1-node job backfills
        // the 4-node... capacity is 4, head takes it).
        assert_eq!(out[1].start_s, 100.0);
        assert_eq!(out[2].start_s, 150.0);

        // Now with spare room: an 8-node cluster where the head needs
        // more than free but a small job fits and ends before the
        // head's reservation.
        let c = Cluster::conventional(8);
        let jobs = [
            job(0, 0.0, 6, 100.0, 0.1), // runs 0..100, leaves 2 free
            job(1, 1.0, 8, 50.0, 0.1),  // head: reservation at 100
            job(2, 2.0, 2, 30.0, 0.1),  // fits in the 2 free, ends at 32 ≤ 100
            job(3, 3.0, 2, 200.0, 0.1), // fits but would overrun the reservation
        ];
        let out = run(&c, &jobs, conventional());
        assert_eq!(out[2].start_s, 2.0, "small job backfills");
        assert_eq!(out[1].start_s, 100.0, "head unharmed");
        assert!(out[3].start_s >= 100.0, "overrunning job must not backfill");
    }

    #[test]
    fn margin_aware_prefers_one_fast_group() {
        let c = Cluster::new(100, [0.62, 0.36, 0.02]);
        let jobs = [job(0, 0.0, 30, 100.0, 0.1)];
        let aware_out = run(&c, &jobs, aware());
        // All 30 nodes fit in the 62-node fast group → full 1.10.
        assert!((aware_out[0].exec_s - 100.0 / 1.10).abs() < 1e-9);

        let unaware = run(&c, &jobs, oblivious_hdmr());
        // Proportional mixing pulls in slower-group nodes, capping the
        // job below the fast group's speedup.
        assert!(unaware[0].exec_s > aware_out[0].exec_s);
        assert!((unaware[0].exec_s - 100.0 / 1.07).abs() < 1e-9);
    }

    #[test]
    fn spill_is_capped_by_slowest_group() {
        let c = Cluster::new(100, [0.62, 0.36, 0.02]);
        // 70 nodes cannot fit in any single group: 62+8 spill → slowest
        // allocated is the 600 group.
        let jobs = [job(0, 0.0, 70, 100.0, 0.1)];
        let out = run(&c, &jobs, aware());
        assert!((out[0].exec_s - 100.0 / 1.07).abs() < 1e-9);
    }

    #[test]
    fn high_utilization_jobs_never_speed_up() {
        let c = Cluster::new(10, [1.0, 0.0, 0.0]);
        let jobs = [job(0, 0.0, 1, 100.0, 0.8)];
        let out = run(&c, &jobs, aware());
        assert_eq!(out[0].exec_s, 100.0);
    }

    #[test]
    fn faster_nodes_reduce_queueing_downstream() {
        // A saturated cluster: speeding execution up must shrink queue
        // delays for later jobs.
        let c_fast = Cluster::new(8, [1.0, 0.0, 0.0]);
        let c_slow = Cluster::conventional(8);
        let jobs: Vec<Job> = (0..40).map(|i| job(i, i as f64, 4, 100.0, 0.1)).collect();
        let fast = run(&c_fast, &jobs, aware());
        let slow = run(&c_slow, &jobs, conventional());
        let qf: f64 = fast.iter().map(JobOutcome::queue_delay_s).sum();
        let qs: f64 = slow.iter().map(JobOutcome::queue_delay_s).sum();
        assert!(qf < qs, "queueing must shrink: {qf} vs {qs}");
    }

    #[test]
    fn traced_run_wraps_job_spans_in_schedule_root() {
        use telemetry::trace::{check_nesting, Ph};
        let c = Cluster::new(8, [0.5, 0.25, 0.25]);
        let jobs = [
            job(0, 0.0, 4, 100.0, 0.1),
            job(1, 1.0, 4, 50.0, 0.3),
            job(2, 2.0, 8, 25.0, 0.8),
        ];
        let tracer = Tracer::new();
        let mut obs = Obs::default();
        obs.set_tracer(tracer.clone());
        let out = c
            .schedule(SliceSource::new(&jobs))
            .config(aware())
            .observe(&obs)
            .run();
        assert_eq!(
            out,
            run(&c, &jobs, aware()),
            "tracing must not perturb the schedule"
        );
        let events = tracer.take();
        check_nesting(&events).unwrap();
        let root = &events[0];
        assert_eq!(root.name, "schedule");
        assert!(root.args.contains(&kv("jobs", 3)));
        assert!(root.args.contains(&kv("jobs_traced", 3)));
        assert!(root.args.contains(&kv("jobs_trace_dropped", 0)));
        let job_spans: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("job."))
            .collect();
        assert_eq!(job_spans.len(), 3);
        for s in &job_spans {
            assert_eq!(s.ph, Ph::Span);
            assert_eq!(s.parent, Some(root.id));
            assert!(s.end <= root.end, "job span inside the makespan");
        }
        let j0 = job_spans.iter().find(|e| e.name == "job.0").unwrap();
        assert!(j0.args.contains(&kv("nodes", 4)));
        assert!(j0.args.contains(&kv("backfilled", false)));
    }

    #[test]
    fn traced_job_cap_is_configurable_and_drops_are_counted() {
        let c = Cluster::new(8, [0.5, 0.25, 0.25]);
        let jobs = [
            job(0, 0.0, 4, 100.0, 0.1),
            job(1, 1.0, 4, 50.0, 0.3),
            job(2, 2.0, 8, 25.0, 0.8),
        ];
        let capped = SchedulerConfig::builder()
            .margin_aware()
            .speedups(SpeedupModel::hetero_dmr_default())
            .traced_job_cap(1)
            .build()
            .unwrap();
        let registry = telemetry::Registry::new();
        let tracer = Tracer::new();
        let mut obs = Obs::default();
        obs.set_metrics(registry.scope("m"));
        obs.set_tracer(tracer.clone());
        let out = c
            .schedule(SliceSource::new(&jobs))
            .config(capped)
            .observe(&obs)
            .run();
        assert_eq!(out, run(&c, &jobs, aware()), "the cap only affects spans");
        let events = tracer.take();
        let root = &events[0];
        assert!(root.args.contains(&kv("jobs", 3)));
        assert!(root.args.contains(&kv("jobs_traced", 1)));
        assert!(root.args.contains(&kv("jobs_trace_dropped", 2)));
        assert_eq!(
            events.iter().filter(|e| e.name.starts_with("job.")).count(),
            1
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("m.trace_dropped_jobs"), 2);
    }

    #[test]
    fn every_job_completes_exactly_once() {
        let c = Cluster::new(64, [0.62, 0.36, 0.02]);
        let trace = crate::trace::GrizzlyTrace::scaled(500, 64).generate(3);
        let out = run(&c, &trace, aware());
        assert_eq!(out.len(), trace.len());
        for (o, j) in out.iter().zip(&trace) {
            assert_eq!(o.job.id, j.id);
            assert!(o.start_s >= j.submit_s);
            assert!(o.exec_s <= j.duration_s + 1e-9);
        }
    }

    #[test]
    fn streaming_summary_matches_the_collected_run() {
        let c = Cluster::new(64, [0.62, 0.36, 0.02]);
        let trace = crate::trace::GrizzlyTrace::scaled(800, 64).generate(5);
        let out = run(&c, &trace, aware());
        let summary = c
            .schedule(SliceSource::new(&trace))
            .config(aware())
            .run_streaming();
        let reference = crate::stats::RunSummary::from_outcomes(&out);
        assert_eq!(summary.jobs(), out.len() as u64);
        assert!((summary.mean_exec_s() - reference.mean_exec_s).abs() < 1e-9);
        assert!((summary.mean_queue_s() - reference.mean_queue_s).abs() < 1e-9);
        assert!((summary.mean_turnaround_s() - reference.mean_turnaround_s).abs() < 1e-9);
        let makespan = out.iter().map(|o| o.start_s + o.exec_s).fold(0.0, f64::max);
        assert!((summary.makespan_s() - makespan).abs() < 1e-9);
    }

    #[test]
    fn metered_runs_never_see_unknown_groups() {
        let registry = telemetry::Registry::new();
        let c = Cluster::new(32, [0.5, 0.25, 0.25]);
        let trace = crate::trace::GrizzlyTrace::scaled(200, 32).generate(2);
        let mut obs = Obs::default();
        obs.set_metrics(registry.scope("m"));
        let out = c
            .schedule(SliceSource::new(&trace))
            .config(aware())
            .observe(&obs)
            .run();
        assert_eq!(out.len(), trace.len());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("m.jobs_started"), trace.len() as u64);
        assert_eq!(snap.counter("m.unknown_group_starts"), 0);
    }

    #[test]
    fn streaming_source_runs_without_materializing() {
        use workloads::jobs::SyntheticJobs;
        use workloads::utilization::{Cluster as LanlCluster, UtilizationModel};
        let gen = SyntheticJobs {
            jobs: 2_000,
            max_nodes: 64,
            capacity_nodes: 64.0,
            target_utilization: 0.7,
            utilization: UtilizationModel::for_cluster(LanlCluster::Grizzly),
        };
        let c = Cluster::new(64, [0.62, 0.36, 0.02]);
        let summary = c
            .schedule(crate::source::from_specs(gen.stream(3)))
            .config(aware())
            .run_streaming();
        assert_eq!(summary.jobs(), 2_000);
        assert!(summary.mean_exec_s() > 0.0);
        // Replaying the same stream gives the same summary.
        let again = c
            .schedule(crate::source::from_specs(gen.stream(3)))
            .config(aware())
            .run_streaming();
        assert_eq!(summary.mean_turnaround_s(), again.mean_turnaround_s());
        assert_eq!(summary.makespan_s(), again.makespan_s());
    }
}
