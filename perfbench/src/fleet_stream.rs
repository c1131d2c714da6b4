//! `fleet-stream`: the five-member federation of `experiments fleet`
//! under both placement policies, with jobs streamed from
//! `SyntheticJobs`, no telemetry, one worker. Memsim sits idle; the
//! time splits between job generation, routing, and the event-queue
//! scheduler.
//!
//! A traced round reads each shard's job stream through a batching
//! wrapper whose refills time `workloads.jobs`, and afterwards replays
//! `Federation::route` over the same jobs to time routing;
//! `scheduler.cluster` is the rest of the federation run.

use crate::digest::Digest;
use crate::metrics::Layers;
use crate::timer::{stopwatch, Laps, LayerTimer};
use crate::{Round, Workload};
use scheduler::{
    from_specs, Cluster, ClusterSpec, Federation, FederationRun, Job, JobSource, PlacementPolicy,
    SchedulerConfig, SpeedupModel,
};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::series::SeriesStore;
use telemetry::trace::Tracer;
use telemetry::Scope;
use workloads::jobs::SyntheticJobs;
use workloads::utilization::{Cluster as LanlCluster, UtilizationModel};

/// Jobs per policy per round.
const JOBS: u64 = 400_000;
const SMALL_JOBS: u64 = 5_000;

/// Offered utilization and widest job, as `experiments fleet` uses.
const FLEET_UTILIZATION: f64 = 0.75;
const FLEET_MAX_NODES: u32 = 512;

pub const POLICIES: [PlacementPolicy; 2] = [
    PlacementPolicy::CapacityWeighted,
    PlacementPolicy::MarginAware,
];

/// Jobs pulled from a stream per timed refill, and jobs per timed
/// route-replay call.
const JOB_BATCH: usize = 64;
const ROUTE_BATCH: usize = 4_096;

/// Refills timed: one in `2^JOB_SHIFT`.
const JOB_SHIFT: u32 = 2;

/// The `experiments fleet` federation: four margin-binned generations
/// and a conventional legacy system, 4710 nodes.
pub fn federation() -> Federation {
    let member = |name: &str, nodes: u32, groups: [f64; 3], at_800: [f64; 2], at_600: [f64; 2]| {
        ClusterSpec::new(
            name,
            Cluster::new(nodes, groups),
            SchedulerConfig::builder()
                .margin_aware()
                .speedups(SpeedupModel { at_800, at_600 })
                .build()
                .expect("fleet speedup tables are consistent"),
        )
    };
    Federation::new(vec![
        member(
            "grizzly",
            1_490,
            [0.62, 0.36, 0.02],
            [1.10, 1.06],
            [1.07, 1.04],
        ),
        member(
            "badger",
            660,
            [0.45, 0.40, 0.15],
            [1.08, 1.05],
            [1.05, 1.03],
        ),
        member(
            "ddr5",
            1_024,
            [0.70, 0.25, 0.05],
            [1.13, 1.08],
            [1.08, 1.05],
        ),
        member(
            "mrdimm",
            512,
            [0.85, 0.10, 0.05],
            [1.16, 1.10],
            [1.10, 1.06],
        ),
        ClusterSpec::new(
            "legacy",
            Cluster::conventional(1_024),
            SchedulerConfig::default(),
        ),
    ])
    .expect("fleet members are valid")
}

/// The fleet's synthetic job stream of `jobs` jobs.
pub fn job_stream(fed: &Federation, jobs: u64) -> SyntheticJobs {
    SyntheticJobs {
        jobs,
        max_nodes: FLEET_MAX_NODES,
        capacity_nodes: fed.total_nodes() as f64,
        target_utilization: FLEET_UTILIZATION,
        utilization: UtilizationModel::for_cluster(LanlCluster::Grizzly),
    }
}

/// Telemetry a federation run reports into.
pub struct Observe<'a> {
    pub scope: &'a Scope,
    pub tracer: &'a Tracer,
    pub series: &'a SeriesStore,
    pub prefix: &'a str,
}

/// What every shard's timed source saw, summed over shards.
#[derive(Default)]
struct ShardTally {
    /// Stream refills.
    refills: LayerTimer,
    /// Jobs generated.
    generated: u64,
    /// Host seconds from each shard's source creation to its drop,
    /// which span the shard's run.
    shard_s: f64,
}

/// Host time of traced federation runs, by layer.
pub struct FleetTimers {
    shards: Mutex<ShardTally>,
    route: LayerTimer,
    replayed: u64,
    federation_s: f64,
    replay_s: f64,
}

impl Default for FleetTimers {
    fn default() -> FleetTimers {
        FleetTimers {
            shards: Mutex::new(ShardTally::default()),
            route: LayerTimer::new(0),
            replayed: 0,
            federation_s: 0.0,
            replay_s: 0.0,
        }
    }
}

impl FleetTimers {
    /// Host seconds spent replaying routes (apparatus only).
    pub fn replay_s(&self) -> f64 {
        self.replay_s
    }

    /// Adds the layer split to `layers`; `scheduled` is the jobs the
    /// runs completed.
    ///
    /// Shards may run on several workers, so the per-layer times summed
    /// over shards are scaled by the runs' wall time over the summed
    /// shard time: the three layers then split the wall time exactly.
    pub fn report(&self, layers: &mut Layers, scheduled: u64) {
        let shards = self.shards.lock().expect("shard tallies");
        let generated = shards.generated;
        let jobs_s = shards.refills.busy_s();
        // Every shard routes every job it generates; the replay timed
        // one route per job of the stream.
        let route_s = self.route.busy_s() * generated as f64 / self.replayed.max(1) as f64;
        let to_wall = if shards.shard_s > 0.0 {
            self.federation_s / shards.shard_s
        } else {
            0.0
        };
        let cluster_s = self.federation_s - (jobs_s + route_s) * to_wall;
        layers.insert("workloads.jobs.generated", generated as f64);
        layers.insert(
            "workloads.jobs.useful_ratio",
            scheduled as f64 / generated as f64,
        );
        layers.insert("workloads.jobs.busy_s", jobs_s * to_wall);
        layers.insert("scheduler.federation.routes", generated as f64);
        layers.insert("scheduler.federation.busy_s", route_s * to_wall);
        layers.insert("scheduler.cluster.busy_s", cluster_s);
        layers.insert(
            "scheduler.cluster.ns_per_job",
            cluster_s * 1e9 / scheduled as f64,
        );
    }
}

/// A job source that pulls from `inner` in batches, each refill a
/// (sampled) call into the `workloads.jobs` layer. The scheduler sees
/// the same jobs in the same order as from `inner` itself.
struct TimedSource<'t, S> {
    inner: S,
    buf: Vec<Job>,
    pos: usize,
    timer: LayerTimer,
    generated: u64,
    born: Instant,
    shared: &'t Mutex<ShardTally>,
}

impl<S: JobSource> JobSource for TimedSource<'_, S> {
    fn next_job(&mut self) -> Option<Job> {
        if self.pos == self.buf.len() {
            let (inner, buf) = (&mut self.inner, &mut self.buf);
            buf.clear();
            self.timer.call(|| {
                while buf.len() < JOB_BATCH {
                    match inner.next_job() {
                        Some(job) => buf.push(job),
                        None => break,
                    }
                }
            });
            self.generated += buf.len() as u64;
            self.pos = 0;
        }
        let job = self.buf.get(self.pos).copied();
        self.pos += 1;
        job
    }
}

impl<S> Drop for TimedSource<'_, S> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned timer only loses this shard's
        // tallies, and the panic that poisoned it already fails the run.
        if let Ok(mut shared) = self.shared.lock() {
            shared.refills.merge(&self.timer);
            shared.generated += self.generated;
            shared.shard_s += self.born.elapsed().as_secs_f64();
        }
    }
}

/// Runs `fed` under `policy` over `stream`, observed into `observe`
/// when given, timed into `timers` when given.
pub fn run_policy(
    fed: &Federation,
    stream: &SyntheticJobs,
    policy: PlacementPolicy,
    seed: u64,
    observe: Option<&Observe>,
    timers: Option<&mut FleetTimers>,
) -> FederationRun {
    let (scope, tracer) = (observe.map(|o| o.scope), observe.map(|o| o.tracer));
    let series = observe.map(|o| (o.series, o.prefix));
    let Some(t) = timers else {
        return fed.run_observed(
            policy,
            seed,
            || from_specs(stream.stream(seed)),
            scope,
            tracer,
            series,
        );
    };
    let shards = &t.shards;
    let (run, federation_s) = stopwatch(|| {
        fed.run_observed(
            policy,
            seed,
            || TimedSource {
                inner: from_specs(stream.stream(seed)),
                buf: Vec::with_capacity(JOB_BATCH),
                pos: 0,
                timer: LayerTimer::new(JOB_SHIFT),
                generated: 0,
                born: Instant::now(),
                shared: shards,
            },
            scope,
            tracer,
            series,
        )
    });
    t.federation_s += federation_s;
    let ((), replay_s) = stopwatch(|| {
        let mut source = from_specs(stream.stream(seed));
        let mut buf = Vec::with_capacity(ROUTE_BATCH);
        loop {
            buf.clear();
            while buf.len() < ROUTE_BATCH {
                match source.next_job() {
                    Some(job) => buf.push(job),
                    None => break,
                }
            }
            if buf.is_empty() {
                break;
            }
            t.route.call(|| {
                for job in &buf {
                    black_box(fed.route(black_box(job), policy, seed));
                }
            });
            t.replayed += buf.len() as u64;
        }
    });
    t.replay_s += replay_s;
    run
}

/// Folds a federation run's simulated statistics into `digest`.
pub fn digest_run(digest: &mut Digest, run: &FederationRun) {
    for m in &run.members {
        digest.bytes(m.name.as_bytes());
        digest.u64(m.routed);
        digest.f64(m.utilization);
        digest_summary(digest, &m.summary);
    }
    digest_summary(digest, &run.fleet);
}

fn digest_summary(digest: &mut Digest, s: &scheduler::StreamSummary) {
    digest.u64(s.jobs());
    digest.u64(s.backfilled());
    for g in s.started_per_group() {
        digest.u64(g);
    }
    for v in [
        s.mean_exec_s(),
        s.mean_queue_s(),
        s.mean_turnaround_s(),
        s.makespan_s(),
        s.queue_quantile_s(0.5),
        s.queue_quantile_s(0.99),
    ] {
        digest.f64(v);
    }
}

/// Job conservation: every streamed job is scheduled by exactly one
/// member.
pub fn conserved(run: &FederationRun, jobs: u64) -> bool {
    run.members.iter().map(|m| m.routed).sum::<u64>() == jobs && run.fleet.jobs() == jobs
}

pub struct FleetStream {
    fed: Federation,
    stream: SyntheticJobs,
    seed: u64,
}

pub struct Output {
    runs: Vec<FederationRun>,
    timers: Option<FleetTimers>,
}

impl Workload for FleetStream {
    type Output = Output;
    const SAME_INPUT_EACH_ROUND: bool = true;

    fn setup(seed: u64, small: bool) -> FleetStream {
        runner::set_jobs(1);
        // The federation and the stream's parameters. The arrival-rate
        // calibration is not here: as in `experiments fleet`, every
        // shard opens its own stream, which calibrates, inside the run.
        let fed = federation();
        let stream = job_stream(&fed, if small { SMALL_JOBS } else { JOBS });
        FleetStream { fed, stream, seed }
    }

    fn round(&mut self, _lane: u64, traced: bool, laps: &mut Laps) -> Output {
        let mut timers = traced.then(FleetTimers::default);
        let runs = POLICIES
            .iter()
            .map(|&p| {
                let run = run_policy(&self.fed, &self.stream, p, self.seed, None, timers.as_mut());
                laps.lap();
                run
            })
            .collect();
        Output { runs, timers }
    }

    fn finish(&mut self, _lane: u64, out: Output) -> Round {
        let mut digest = Digest::default();
        let mut layers = Layers::new();
        let (mut scheduled, mut backfilled, mut p99) = (0u64, 0u64, 0.0);
        let mut failed = 0;
        for run in &out.runs {
            digest_run(&mut digest, run);
            if !conserved(run, self.stream.jobs) {
                failed += 1;
            }
            scheduled += run.fleet.jobs();
            backfilled += run.fleet.backfilled();
            p99 += run.fleet.queue_quantile_s(0.99) / out.runs.len() as f64;
        }
        layers.insert("scheduler.cluster.jobs", scheduled as f64);
        layers.insert("scheduler.cluster.backfilled", backfilled as f64);
        layers.insert("scheduler.cluster.queue_p99_s", p99);
        let mut apparatus_s = 0.0;
        if let Some(t) = &out.timers {
            t.report(&mut layers, scheduled);
            apparatus_s = t.replay_s();
        }
        Round {
            work: scheduled,
            attempted: out.runs.len() as u64,
            failed,
            digest: digest.value(),
            apparatus_s,
            layers,
        }
    }
}
