//! Run-level statistics (Figure 17's execution / queueing /
//! turnaround bars), plus the memory-bounded streaming summary that
//! fleet-scale runs fold outcomes into.

use crate::cluster::GROUPS;
use crate::job::JobOutcome;
use telemetry::HistogramSnapshot;

/// Aggregate metrics of one scheduled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Mean job execution time, seconds.
    pub mean_exec_s: f64,
    /// Mean queueing delay, seconds.
    pub mean_queue_s: f64,
    /// Mean turnaround, seconds.
    pub mean_turnaround_s: f64,
    /// Jobs in the run.
    pub jobs: usize,
}

impl RunSummary {
    /// Summarizes a run's outcomes.
    pub fn from_outcomes(outcomes: &[JobOutcome]) -> RunSummary {
        let n = outcomes.len().max(1) as f64;
        RunSummary {
            mean_exec_s: outcomes.iter().map(|o| o.exec_s).sum::<f64>() / n,
            mean_queue_s: outcomes.iter().map(JobOutcome::queue_delay_s).sum::<f64>() / n,
            mean_turnaround_s: outcomes.iter().map(JobOutcome::turnaround_s).sum::<f64>() / n,
            jobs: outcomes.len(),
        }
    }

    /// Figure 17's normalized metrics: this run's means relative to a
    /// baseline run's (values < 1 are improvements). Returns
    /// `(execution, queueing, turnaround)`.
    pub fn normalized_to(&self, baseline: &RunSummary) -> (f64, f64, f64) {
        (
            self.mean_exec_s / baseline.mean_exec_s,
            self.mean_queue_s / baseline.mean_queue_s,
            self.mean_turnaround_s / baseline.mean_turnaround_s,
        )
    }

    /// Turnaround speedup over a baseline (>1 is faster) — the
    /// paper's headline 1.4×.
    pub fn turnaround_speedup_over(&self, baseline: &RunSummary) -> f64 {
        baseline.mean_turnaround_s / self.mean_turnaround_s
    }
}

/// Achieved node utilization of a run: consumed node-seconds over the
/// cluster's capacity across the run's span (the paper reports ~78 %
/// for the four-month Grizzly trace).
pub fn achieved_utilization(outcomes: &[JobOutcome], cluster_nodes: u32) -> f64 {
    if outcomes.is_empty() || cluster_nodes == 0 {
        return 0.0;
    }
    let consumed: f64 = outcomes.iter().map(|o| o.job.nodes as f64 * o.exec_s).sum();
    let end = outcomes
        .iter()
        .map(|o| o.start_s + o.exec_s)
        .fold(0.0f64, f64::max);
    let start = outcomes
        .iter()
        .map(|o| o.job.submit_s)
        .fold(f64::MAX, f64::min);
    let span = (end - start).max(f64::EPSILON);
    consumed / (cluster_nodes as f64 * span)
}

/// Tail statistics of a run's queueing delays — means hide the worst
/// cases that users actually feel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueTail {
    /// Median queueing delay, seconds.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Worst job.
    pub max_s: f64,
}

impl QueueTail {
    /// Computes the tail from a run's outcomes (empty runs give zeros).
    pub fn from_outcomes(outcomes: &[JobOutcome]) -> QueueTail {
        if outcomes.is_empty() {
            return QueueTail {
                p50_s: 0.0,
                p95_s: 0.0,
                p99_s: 0.0,
                max_s: 0.0,
            };
        }
        let mut delays: Vec<f64> = outcomes.iter().map(JobOutcome::queue_delay_s).collect();
        delays.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let idx = ((delays.len() - 1) as f64 * q).round() as usize;
            delays[idx]
        };
        QueueTail {
            p50_s: pick(0.50),
            p95_s: pick(0.95),
            p99_s: pick(0.99),
            max_s: *delays.last().expect("nonempty"),
        }
    }
}

/// Streaming run statistics: everything Figure-17-style reporting
/// needs, folded in one outcome at a time with O(1) memory. Queue
/// delays fold into a log₂-bucketed [`HistogramSnapshot`] (at most
/// 65 buckets) for approximate tail quantiles, so a 10 M-job run
/// costs the same RSS as a 100-job run. Summaries merge across federation members in
/// member order, keeping fleet-level results deterministic.
#[derive(Debug, Default)]
pub struct StreamSummary {
    backfilled: u64,
    started_per_group: [u64; 3],
    exec_sum_s: f64,
    queue_sum_s: f64,
    turnaround_sum_s: f64,
    /// Consumed node-seconds (nodes × accelerated execution time).
    node_seconds: f64,
    first_submit_s: f64,
    makespan_s: f64,
    /// One sample per noted job, so its count is the job count.
    queue_delay_ms: HistogramSnapshot,
    /// Optional health-plane tap: when set, every noted job also
    /// records its queue delay (ms) into this sim-time series at the
    /// job's submit time, feeding the SLO burn-rate detectors.
    series: Option<telemetry::series::Series>,
}

impl StreamSummary {
    /// An empty summary (identity under [`merge_from`](Self::merge_from)).
    pub fn new() -> StreamSummary {
        StreamSummary {
            first_submit_s: f64::INFINITY,
            ..StreamSummary::default()
        }
    }

    /// Streams queue delays into `series` as jobs are noted: the
    /// sample time is the job's submit time on the schedule-ms clock,
    /// the value its queue delay in ms. Window aggregation is
    /// order-independent, so tapped summaries stay merge-deterministic.
    pub fn tap_series(&mut self, series: telemetry::series::Series) {
        self.series = Some(series);
    }

    /// Folds one started job in.
    pub fn note(&mut self, outcome: &JobOutcome, min_group: u32, backfilled: bool) {
        if backfilled {
            self.backfilled += 1;
        }
        if let Some(idx) = GROUPS.iter().position(|&g| g == min_group) {
            self.started_per_group[idx] += 1;
        }
        self.exec_sum_s += outcome.exec_s;
        self.queue_sum_s += outcome.queue_delay_s();
        self.turnaround_sum_s += outcome.turnaround_s();
        self.node_seconds += outcome.job.nodes as f64 * outcome.exec_s;
        self.first_submit_s = self.first_submit_s.min(outcome.job.submit_s);
        self.makespan_s = self.makespan_s.max(outcome.start_s + outcome.exec_s);
        let delay_ms = (outcome.queue_delay_s() * 1e3).max(0.0) as u64;
        self.queue_delay_ms.record(delay_ms);
        if let Some(series) = &self.series {
            series.record((outcome.job.submit_s * 1e3).max(0.0) as u64, delay_ms);
        }
    }

    /// Folds another summary in (sums add, extremes combine, the
    /// delay histograms fold bucket-wise). Order-insensitive up to
    /// float addition, so merge in a canonical order for
    /// byte-reproducible results.
    pub fn merge_from(&mut self, other: &StreamSummary) {
        self.backfilled += other.backfilled;
        for (mine, theirs) in self
            .started_per_group
            .iter_mut()
            .zip(other.started_per_group)
        {
            *mine += theirs;
        }
        self.exec_sum_s += other.exec_sum_s;
        self.queue_sum_s += other.queue_sum_s;
        self.turnaround_sum_s += other.turnaround_sum_s;
        self.node_seconds += other.node_seconds;
        self.first_submit_s = self.first_submit_s.min(other.first_submit_s);
        self.makespan_s = self.makespan_s.max(other.makespan_s);
        self.queue_delay_ms.merge_from(&other.queue_delay_ms);
    }

    /// Jobs folded in.
    pub fn jobs(&self) -> u64 {
        self.queue_delay_ms.count
    }

    /// Jobs started by backfill rather than FCFS.
    pub fn backfilled(&self) -> u64 {
        self.backfilled
    }

    /// Starts whose slowest node was in each margin group (indexed
    /// like `GROUPS`: 800, 600, none).
    pub fn started_per_group(&self) -> [u64; 3] {
        self.started_per_group
    }

    /// Mean execution time, seconds.
    pub fn mean_exec_s(&self) -> f64 {
        self.exec_sum_s / self.jobs().max(1) as f64
    }

    /// Mean queueing delay, seconds.
    pub fn mean_queue_s(&self) -> f64 {
        self.queue_sum_s / self.jobs().max(1) as f64
    }

    /// Mean turnaround, seconds.
    pub fn mean_turnaround_s(&self) -> f64 {
        self.turnaround_sum_s / self.jobs().max(1) as f64
    }

    /// Time the last job finished, seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_s
    }

    /// Approximate queue-delay quantile in seconds (log₂-bucket upper
    /// bound), 0 for an empty summary.
    pub fn queue_quantile_s(&self, q: f64) -> f64 {
        self.queue_delay_ms
            .approx_quantile(q)
            .map(|ms| ms as f64 / 1e3)
            .unwrap_or(0.0)
    }

    /// Turnaround speedup over a baseline (>1 is faster) — the
    /// paper's headline metric, streaming edition.
    pub fn turnaround_speedup_over(&self, baseline: &StreamSummary) -> f64 {
        baseline.mean_turnaround_s() / self.mean_turnaround_s()
    }

    /// Achieved node utilization against `capacity_nodes` over the
    /// run's span (first submit → makespan).
    pub fn utilization(&self, capacity_nodes: f64) -> f64 {
        if self.jobs() == 0 || capacity_nodes <= 0.0 {
            return 0.0;
        }
        let span = (self.makespan_s - self.first_submit_s).max(f64::EPSILON);
        self.node_seconds / (capacity_nodes * span)
    }

    /// The fixed-size [`RunSummary`] view (for code that compares
    /// against materialized runs).
    pub fn as_run_summary(&self) -> RunSummary {
        RunSummary {
            mean_exec_s: self.mean_exec_s(),
            mean_queue_s: self.mean_queue_s(),
            mean_turnaround_s: self.mean_turnaround_s(),
            jobs: self.jobs() as usize,
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::job::Job;

    fn outcome(id: u32, submit: f64, start: f64, exec: f64, nodes: u32) -> JobOutcome {
        JobOutcome {
            job: Job {
                id,
                submit_s: submit,
                nodes,
                duration_s: exec,
                mem_utilization: 0.1,
            },
            start_s: start,
            exec_s: exec,
        }
    }

    #[test]
    fn streaming_means_match_the_batch_summary() {
        let outcomes = [
            outcome(0, 0.0, 10.0, 100.0, 2),
            outcome(1, 5.0, 30.0, 200.0, 4),
            outcome(2, 9.0, 40.0, 50.0, 1),
        ];
        let batch = RunSummary::from_outcomes(&outcomes);
        let mut s = StreamSummary::new();
        for o in &outcomes {
            s.note(o, 800, false);
        }
        assert_eq!(s.jobs(), 3);
        assert!((s.mean_exec_s() - batch.mean_exec_s).abs() < 1e-12);
        assert!((s.mean_queue_s() - batch.mean_queue_s).abs() < 1e-12);
        assert!((s.mean_turnaround_s() - batch.mean_turnaround_s).abs() < 1e-12);
        assert_eq!(s.as_run_summary(), batch);
        assert_eq!(s.started_per_group(), [3, 0, 0]);
        assert_eq!(s.makespan_s(), 230.0);
    }

    #[test]
    fn merge_equals_noting_everything_into_one() {
        let outcomes: Vec<JobOutcome> = (0..40)
            .map(|i| outcome(i, i as f64, i as f64 + (i % 7) as f64, 60.0 + i as f64, 1))
            .collect();
        let mut whole = StreamSummary::new();
        let mut left = StreamSummary::new();
        let mut right = StreamSummary::new();
        for (i, o) in outcomes.iter().enumerate() {
            let group = GROUPS[i % 3];
            whole.note(o, group, i % 2 == 0);
            if i < 17 {
                left.note(o, group, i % 2 == 0);
            } else {
                right.note(o, group, i % 2 == 0);
            }
        }
        let mut merged = StreamSummary::new();
        merged.merge_from(&left);
        merged.merge_from(&right);
        assert_eq!(merged.jobs(), whole.jobs());
        assert_eq!(merged.backfilled(), whole.backfilled());
        assert_eq!(merged.started_per_group(), whole.started_per_group());
        assert!((merged.mean_turnaround_s() - whole.mean_turnaround_s()).abs() < 1e-9);
        assert_eq!(merged.makespan_s(), whole.makespan_s());
        assert_eq!(merged.queue_quantile_s(0.95), whole.queue_quantile_s(0.95));
    }

    #[test]
    fn quantiles_are_log2_upper_bounds() {
        let mut s = StreamSummary::new();
        for i in 0..100 {
            s.note(&outcome(i, 0.0, i as f64, 10.0, 1), 0, false);
        }
        // Delays 0..99 s → p50 ≈ 50 000 ms lands in the 2^16 bucket.
        let p50 = s.queue_quantile_s(0.5);
        assert!((49.0..=66.0).contains(&p50), "p50 {p50}");
        assert!(s.queue_quantile_s(0.99) >= s.queue_quantile_s(0.5));
        assert_eq!(StreamSummary::new().queue_quantile_s(0.5), 0.0);
    }

    #[test]
    fn series_tap_buckets_queue_delays_by_submit_time() {
        let store = telemetry::series::SeriesStore::new();
        let mut s = StreamSummary::new();
        // 10 s windows on the schedule-ms clock.
        s.tap_series(store.series("q.queue_delay_ms", 10_000));
        s.note(&outcome(0, 1.0, 3.0, 10.0, 1), 800, false); // 2 s delay @ t=1 s
        s.note(&outcome(1, 2.0, 6.0, 10.0, 1), 800, false); // 4 s delay @ t=2 s
        s.note(&outcome(2, 15.0, 15.0, 10.0, 1), 800, false); // 0 delay @ t=15 s
        let snap = store.snapshot();
        let entry = snap.get("q.queue_delay_ms").unwrap();
        assert_eq!(entry.windows.len(), 2);
        let (start, w) = &entry.windows[0];
        assert_eq!((*start, w.count, w.sum), (0, 2, 6_000));
        let (start, w) = &entry.windows[1];
        assert_eq!((*start, w.count, w.sum), (10_000, 1, 0));
        // The tap does not perturb the summary itself.
        assert_eq!(s.jobs(), 3);
        assert!((s.mean_queue_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_and_speedup() {
        let mut busy = StreamSummary::new();
        busy.note(&outcome(0, 0.0, 0.0, 50.0, 1), 0, false);
        busy.note(&outcome(1, 0.0, 50.0, 50.0, 1), 0, false);
        assert!((busy.utilization(1.0) - 1.0).abs() < 1e-9);
        assert!((busy.utilization(2.0) - 0.5).abs() < 1e-9);
        assert_eq!(StreamSummary::new().utilization(8.0), 0.0);

        let mut slow = StreamSummary::new();
        slow.note(&outcome(0, 0.0, 0.0, 100.0, 1), 0, false);
        let mut fast = StreamSummary::new();
        fast.note(&outcome(0, 0.0, 0.0, 80.0, 1), 0, false);
        assert!((fast.turnaround_speedup_over(&slow) - 1.25).abs() < 1e-12);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn outcome(submit: f64, start: f64, exec: f64) -> JobOutcome {
        JobOutcome {
            job: Job {
                id: 0,
                submit_s: submit,
                nodes: 1,
                duration_s: exec,
                mem_utilization: 0.1,
            },
            start_s: start,
            exec_s: exec,
        }
    }

    #[test]
    fn summary_means() {
        let outcomes = [outcome(0.0, 10.0, 100.0), outcome(0.0, 30.0, 200.0)];
        let s = RunSummary::from_outcomes(&outcomes);
        assert_eq!(s.mean_exec_s, 150.0);
        assert_eq!(s.mean_queue_s, 20.0);
        assert_eq!(s.mean_turnaround_s, 170.0);
        assert_eq!(s.jobs, 2);
    }

    #[test]
    fn normalization_and_speedup() {
        let base = RunSummary {
            mean_exec_s: 100.0,
            mean_queue_s: 50.0,
            mean_turnaround_s: 150.0,
            jobs: 10,
        };
        let fast = RunSummary {
            mean_exec_s: 85.0,
            mean_queue_s: 33.0,
            mean_turnaround_s: 118.0,
            jobs: 10,
        };
        let (e, q, t) = fast.normalized_to(&base);
        assert!((e - 0.85).abs() < 1e-12);
        assert!((q - 0.66).abs() < 1e-12);
        assert!((t - 118.0 / 150.0).abs() < 1e-12);
        assert!((fast.turnaround_speedup_over(&base) - 150.0 / 118.0).abs() < 1e-12);
    }

    #[test]
    fn queue_tail_percentiles() {
        let outcomes: Vec<JobOutcome> = (0..100).map(|i| outcome(0.0, i as f64, 10.0)).collect();
        let tail = QueueTail::from_outcomes(&outcomes);
        assert_eq!(tail.p50_s, 50.0);
        assert_eq!(tail.p95_s, 94.0);
        assert_eq!(tail.p99_s, 98.0);
        assert_eq!(tail.max_s, 99.0);
        // Ordering invariant.
        assert!(tail.p50_s <= tail.p95_s && tail.p95_s <= tail.p99_s && tail.p99_s <= tail.max_s);
    }

    #[test]
    fn utilization_of_a_full_machine() {
        // Two jobs back to back on a 1-node cluster: 100% utilization.
        let outcomes = [outcome(0.0, 0.0, 50.0), outcome(0.0, 50.0, 50.0)];
        let u = achieved_utilization(&outcomes, 1);
        assert!((u - 1.0).abs() < 1e-9, "utilization {u}");
        // The same work on 2 nodes: 50%.
        let u = achieved_utilization(&outcomes, 2);
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(achieved_utilization(&[], 4), 0.0);
    }

    #[test]
    fn grizzly_trace_achieves_the_papers_utilization() {
        use crate::cluster::Cluster;
        use crate::source::SliceSource;
        use crate::trace::GrizzlyTrace;
        let trace = GrizzlyTrace::scaled(6_000, 1_490).generate(5);
        let cluster = Cluster::conventional(1_490);
        let outcomes = cluster.schedule(SliceSource::new(&trace)).run();
        let u = achieved_utilization(&outcomes, 1_490);
        // The offered load targets 78%; achieved lands nearby
        // (scheduling losses push it slightly below, queue drain at the
        // end slightly above).
        assert!((0.6..0.95).contains(&u), "achieved utilization {u}");
    }

    #[test]
    fn queue_tail_empty_run() {
        let tail = QueueTail::from_outcomes(&[]);
        assert_eq!(tail.max_s, 0.0);
        assert_eq!(tail.p50_s, 0.0);
    }

    #[test]
    fn empty_run_is_safe() {
        let s = RunSummary::from_outcomes(&[]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean_exec_s, 0.0);
    }
}
