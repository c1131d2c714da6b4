//! Fleet-scale federated scheduling across heterogeneous clusters.
//!
//! A [`Federation`] is a set of named member clusters, each with its
//! own margin-group mix and validated [`SchedulerConfig`]. Jobs from
//! one fleet-wide stream are routed to members by a *placement
//! policy*; the stream is generated once, and each job is routed once
//! and offered to its member's event loop as it arrives:
//!
//! * **Deterministic routing.** Placement is a pure function of
//!   `(job, members, policy, salt)` — the tie-break hash comes from
//!   the same counter-seeding discipline as every other RNG stream
//!   (`runner::seed::iteration_seed(salt, job.id)`), never from
//!   thread identity or routing history. A member therefore sees
//!   exactly the jobs, in exactly the order, that filtering the
//!   stream by [`Federation::route`] would give it.
//! * **Deterministic merge.** Each member records into its own
//!   telemetry fork; summaries and forks merge in member order,
//!   reusing the telemetry snapshot-merge and tracer-absorb paths, so
//!   fleet results are byte-identical at any `--jobs`.
//! * **Flat memory.** Members step one job at a time and fold into
//!   [`StreamSummary`]; nothing materializes the trace.
//!
//! The margin-aware placement implements the federation-level analog
//! of the paper's scheduler patch: route Hetero-DMR-eligible jobs to
//! clusters whose *fastest margin group* can host them outright
//! (weighted by margin capacity), and keep ineligible jobs on
//! conventional capacity, so margin nodes stay available for jobs
//! that can exploit them.

use crate::cluster::{tapped_summary, Cluster, Stepper};
use crate::config::{ConfigError, SchedulerConfig};
use crate::source::JobSource;
use crate::stats::StreamSummary;
use runner::seed::iteration_seed;
use telemetry::series::SeriesStore;
use telemetry::trace::Tracer;
use telemetry::{Obs, Scope};
use workloads::jobs::Job;
use workloads::utilization::UtilizationModel;

/// Window width of the per-member queue-delay series taps: one hour
/// on the scheduler's millisecond submit-time clock.
pub const QUEUE_SERIES_WIDTH_MS: u64 = 3_600_000;

/// One federation member: a named cluster plus its scheduling
/// configuration.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Unique display name (also the member's telemetry scope).
    pub name: String,
    /// The cluster hardware (margin-group sizes).
    pub cluster: Cluster,
    /// Within-cluster policy and speedup table.
    pub config: SchedulerConfig,
}

impl ClusterSpec {
    /// Bundles a named member.
    pub fn new(name: impl Into<String>, cluster: Cluster, config: SchedulerConfig) -> ClusterSpec {
        ClusterSpec {
            name: name.into(),
            cluster,
            config,
        }
    }
}

/// Federation-level job placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Margin-oblivious: members receive jobs in proportion to their
    /// total capacity, regardless of margin groups.
    CapacityWeighted,
    /// Margin-aware: Hetero-DMR-eligible jobs go to members whose
    /// fastest margin group can host them whole (weighted by margin
    /// capacity); ineligible jobs ride on conventional capacity.
    MarginAware,
}

impl PlacementPolicy {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::CapacityWeighted => "capacity_weighted",
            PlacementPolicy::MarginAware => "margin_aware",
        }
    }
}

/// What one member did during a federation run.
#[derive(Debug)]
pub struct MemberRun {
    /// The member's name.
    pub name: String,
    /// Jobs routed to (and completed by) this member.
    pub routed: u64,
    /// Achieved node utilization of the member across the run.
    pub utilization: f64,
    /// The member's streaming summary.
    pub summary: StreamSummary,
}

/// The outcome of a federation run: per-member reports (in member
/// order) plus the fleet-wide merged summary.
#[derive(Debug)]
pub struct FederationRun {
    /// Per-member results, in member order.
    pub members: Vec<MemberRun>,
    /// All members merged (member order).
    pub fleet: StreamSummary,
}

/// A set of heterogeneous clusters scheduled as one fleet.
#[derive(Debug, Clone)]
pub struct Federation {
    members: Vec<ClusterSpec>,
}

impl Federation {
    /// Validates and builds a federation: at least one member, unique
    /// names, no empty clusters.
    pub fn new(members: Vec<ClusterSpec>) -> Result<Federation, ConfigError> {
        if members.is_empty() {
            return Err(ConfigError::EmptyFederation);
        }
        for (i, m) in members.iter().enumerate() {
            if m.cluster.nodes() == 0 {
                return Err(ConfigError::EmptyCluster(m.name.clone()));
            }
            if members[..i].iter().any(|prev| prev.name == m.name) {
                return Err(ConfigError::DuplicateMember(m.name.clone()));
            }
        }
        Ok(Federation { members })
    }

    /// The member clusters, in federation order.
    pub fn members(&self) -> &[ClusterSpec] {
        &self.members
    }

    /// Aggregate node capacity.
    pub fn total_nodes(&self) -> u64 {
        self.members.iter().map(|m| m.cluster.nodes() as u64).sum()
    }

    /// Routes one job: a pure, deterministic function of the job, the
    /// member list, the placement policy, and `salt`. Weighted random
    /// choice via a counter-derived hash — no shared RNG state, so a
    /// job's route never depends on the jobs routed before it.
    pub fn route(&self, job: &Job, placement: PlacementPolicy, salt: u64) -> usize {
        let n = self.members.len();
        let placement_weight = |i: usize| -> u64 {
            let m = &self.members[i];
            if m.cluster.nodes() < job.nodes {
                return 0;
            }
            match placement {
                PlacementPolicy::CapacityWeighted => m.cluster.nodes() as u64,
                PlacementPolicy::MarginAware => {
                    let sizes = m.cluster.group_sizes();
                    if UtilizationModel::hetero_dmr_eligible(job.mem_utilization) {
                        // Candidate iff some margin group hosts the
                        // whole job (full speedup); weight by margin
                        // capacity so load spreads proportionally.
                        if sizes[0] >= job.nodes || sizes[1] >= job.nodes {
                            (sizes[0] + sizes[1]) as u64
                        } else {
                            0
                        }
                    } else {
                        // Ineligible jobs ride conventional capacity,
                        // leaving margin nodes to jobs that benefit.
                        sizes[2] as u64
                    }
                }
            }
        };
        let capacity_weight = |i: usize| -> u64 {
            let m = &self.members[i];
            if m.cluster.nodes() >= job.nodes {
                m.cluster.nodes() as u64
            } else {
                0
            }
        };

        let placement_total: u64 = (0..n).map(placement_weight).sum();
        let (total, weight): (u64, &dyn Fn(usize) -> u64) = if placement_total > 0 {
            (placement_total, &placement_weight)
        } else {
            // No member satisfies the placement preference (e.g. an
            // all-margin fleet with an ineligible job): fall back to
            // capacity among members that can host it at all.
            ((0..n).map(capacity_weight).sum(), &capacity_weight)
        };
        if total == 0 {
            // Wider than every member; send it to the largest cluster,
            // whose event loop will report the impossibility loudly.
            return (0..n)
                .max_by_key(|&i| self.members[i].cluster.nodes())
                .expect("federation is non-empty");
        }
        let mut pick = iteration_seed(salt, job.id as u64) % total;
        for i in 0..n {
            let w = weight(i);
            if pick < w {
                return i;
            }
            pick -= w;
        }
        unreachable!("weights sum to total")
    }

    /// Runs the fleet: `make_source()` opens the fleet-wide stream
    /// once; each job is routed once, as it arrives, and offered to its
    /// member's event loop. When the stream ends, members finish in
    /// member order. One thread drives every member, so memory stays
    /// flat and the schedule does not depend on the worker count.
    ///
    /// Observation is optional and never changes the schedule: the
    /// three sinks form one [`Obs`], each member records into its own
    /// [`fork`](Obs::fork) narrowed to its member name (metrics under
    /// `<scope>.<member>`, queue delays as the series
    /// `<prefix>.<member>.queue_delay_ms` with
    /// [`QUEUE_SERIES_WIDTH_MS`]-wide windows), and the forks are
    /// absorbed in member order, so the exported telemetry equals the
    /// members' solo runs recorded one after another.
    ///
    /// # Panics
    ///
    /// Panics if the source yields an invalid job: `nodes` of 0, a
    /// negative or non-finite `submit_s` or `duration_s`, or a
    /// `mem_utilization` outside `[0, 1]`. The message names the job
    /// id and the field. Also panics if a job is wider than every
    /// member.
    pub fn run_observed<S, F>(
        &self,
        placement: PlacementPolicy,
        salt: u64,
        make_source: F,
        scope: Option<&Scope>,
        tracer: Option<&Tracer>,
        series: Option<(&SeriesStore, &str)>,
    ) -> FederationRun
    where
        S: JobSource,
        F: FnOnce() -> S,
    {
        let mut obs = Obs::default();
        if let Some(scope) = scope {
            obs.set_metrics(scope.clone());
        }
        if let Some(tracer) = tracer {
            obs.set_tracer(tracer.clone());
        }
        if let Some((store, prefix)) = series {
            obs.set_series(store.clone(), prefix);
        }
        let mut source = make_source();
        let forks: Vec<Obs> = self.members.iter().map(|_| obs.fork()).collect();
        let mut steppers: Vec<_> = self
            .members
            .iter()
            .zip(&forks)
            .map(|(member, fork)| {
                let view = fork.child(&member.name);
                Stepper::new(&member.cluster, member.config, &view, tapped_summary(&view))
            })
            .collect();
        while let Some(job) = source.next_job() {
            steppers[self.route(&job, placement, salt)].offer(job);
        }

        let mut fleet = StreamSummary::new();
        let mut members = Vec::with_capacity(self.members.len());
        for ((member, fork), stepper) in self.members.iter().zip(forks).zip(steppers) {
            let summary = stepper.finish();
            obs.absorb(fork.take());
            fleet.merge_from(&summary);
            members.push(MemberRun {
                name: member.name.clone(),
                routed: summary.jobs(),
                utilization: summary.utilization(member.cluster.nodes() as f64),
                summary,
            });
        }
        FederationRun { members, fleet }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SpeedupModel;
    use crate::source::{from_specs, SliceSource};
    use std::cell::Cell;
    use telemetry::Registry;
    use workloads::jobs::SyntheticJobs;
    use workloads::utilization::Cluster as LanlCluster;

    fn aware_config() -> SchedulerConfig {
        SchedulerConfig::builder()
            .margin_aware()
            .speedups(SpeedupModel::hetero_dmr_default())
            .build()
            .unwrap()
    }

    fn small_federation() -> Federation {
        Federation::new(vec![
            ClusterSpec::new("margin", Cluster::new(128, [0.7, 0.3, 0.0]), aware_config()),
            ClusterSpec::new(
                "legacy",
                Cluster::conventional(96),
                SchedulerConfig::default(),
            ),
        ])
        .unwrap()
    }

    fn job(id: u32, nodes: u32, util: f64) -> Job {
        Job {
            id,
            submit_s: id as f64,
            nodes,
            duration_s: 600.0,
            mem_utilization: util,
        }
    }

    #[test]
    fn construction_is_validated() {
        assert_eq!(
            Federation::new(vec![]).unwrap_err(),
            ConfigError::EmptyFederation
        );
        let dup = Federation::new(vec![
            ClusterSpec::new("a", Cluster::conventional(4), SchedulerConfig::default()),
            ClusterSpec::new("a", Cluster::conventional(8), SchedulerConfig::default()),
        ])
        .unwrap_err();
        assert_eq!(dup, ConfigError::DuplicateMember("a".into()));
        let empty = Federation::new(vec![ClusterSpec::new(
            "zero",
            Cluster::conventional(0),
            SchedulerConfig::default(),
        )])
        .unwrap_err();
        assert_eq!(empty, ConfigError::EmptyCluster("zero".into()));
        assert_eq!(small_federation().total_nodes(), 224);
    }

    #[test]
    fn routing_is_deterministic_and_margin_directed() {
        let fed = small_federation();
        for id in 0..200 {
            let eligible = job(id, 8, 0.2);
            let target = fed.route(&eligible, PlacementPolicy::MarginAware, 42);
            assert_eq!(
                target,
                fed.route(&eligible, PlacementPolicy::MarginAware, 42)
            );
            assert_eq!(target, 0, "eligible jobs go to the margin member");
            let hot = job(id, 8, 0.9);
            assert_eq!(
                fed.route(&hot, PlacementPolicy::MarginAware, 42),
                1,
                "ineligible jobs ride conventional capacity"
            );
        }
        // Capacity-weighted spreads across both members.
        let mut counts = [0usize; 2];
        for id in 0..2_000 {
            counts[fed.route(&job(id, 1, 0.2), PlacementPolicy::CapacityWeighted, 42)] += 1;
        }
        let share = counts[0] as f64 / 2_000.0;
        assert!(
            (share - 128.0 / 224.0).abs() < 0.05,
            "capacity share {share}"
        );
    }

    #[test]
    fn oversized_jobs_fall_back_to_the_largest_member() {
        let fed = small_federation();
        // Wider than the margin groups but hostable: falls back to
        // capacity among hosts.
        let wide_eligible = job(0, 100, 0.2);
        assert_eq!(
            fed.route(&wide_eligible, PlacementPolicy::MarginAware, 1),
            0
        );
        // Wider than every member: largest cluster gets it.
        let impossible = job(1, 500, 0.2);
        assert_eq!(
            fed.route(&impossible, PlacementPolicy::CapacityWeighted, 1),
            0
        );
    }

    /// A run of `gen`'s stream seeded by `salt`, with no telemetry.
    fn unobserved(
        fed: &Federation,
        gen: &SyntheticJobs,
        placement: PlacementPolicy,
        salt: u64,
    ) -> FederationRun {
        fed.run_observed(
            placement,
            salt,
            || from_specs(gen.stream(salt)),
            None,
            None,
            None,
        )
    }

    fn fleet_stream(fed: &Federation, jobs: u64) -> SyntheticJobs {
        SyntheticJobs {
            jobs,
            max_nodes: 64,
            capacity_nodes: fed.total_nodes() as f64,
            target_utilization: 0.7,
            utilization: UtilizationModel::for_cluster(LanlCluster::Grizzly),
        }
    }

    #[test]
    fn every_job_lands_on_exactly_one_member() {
        let fed = small_federation();
        let gen = fleet_stream(&fed, 3_000);
        let run = unobserved(&fed, &gen, PlacementPolicy::MarginAware, 9);
        assert_eq!(run.members.len(), 2);
        let per_member: u64 = run.members.iter().map(|m| m.routed).sum();
        assert_eq!(per_member, 3_000);
        assert_eq!(run.fleet.jobs(), 3_000);
        for m in &run.members {
            assert!(m.routed > 0, "{} got no jobs", m.name);
            assert!(m.utilization > 0.0);
        }
    }

    #[test]
    fn federation_runs_are_replayable() {
        let fed = small_federation();
        let gen = fleet_stream(&fed, 2_000);
        let a = unobserved(&fed, &gen, PlacementPolicy::MarginAware, 5);
        let b = unobserved(&fed, &gen, PlacementPolicy::MarginAware, 5);
        assert_eq!(a.fleet.jobs(), b.fleet.jobs());
        assert_eq!(a.fleet.mean_turnaround_s(), b.fleet.mean_turnaround_s());
        assert_eq!(a.fleet.makespan_s(), b.fleet.makespan_s());
        for (ma, mb) in a.members.iter().zip(&b.members) {
            assert_eq!(ma.routed, mb.routed);
            assert_eq!(ma.summary.mean_queue_s(), mb.summary.mean_queue_s());
        }
    }

    #[test]
    fn observed_runs_merge_telemetry_in_member_order() {
        let fed = small_federation();
        let gen = fleet_stream(&fed, 1_000);
        let registry = Registry::new();
        let tracer = Tracer::new();
        let store = SeriesStore::new();
        let run = fed.run_observed(
            PlacementPolicy::MarginAware,
            3,
            || from_specs(gen.stream(3)),
            Some(&registry.scope("fleet")),
            Some(&tracer),
            Some((&store, "fleet")),
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("fleet.margin.jobs_started") + snap.counter("fleet.legacy.jobs_started"),
            1_000
        );
        assert_eq!(snap.counter("fleet.margin.unknown_group_starts"), 0);
        let events = tracer.take();
        let roots = events.iter().filter(|e| e.name == "schedule").count();
        assert_eq!(roots, 2, "one schedule root per member");
        assert_eq!(run.fleet.jobs(), 1_000);
        // The series taps caught every job's queue delay, per member.
        let windows = store.snapshot();
        let tapped: u64 = ["margin", "legacy"]
            .iter()
            .filter_map(|m| windows.get(&format!("fleet.{m}.queue_delay_ms")))
            .map(|e| e.total_count())
            .sum();
        assert_eq!(tapped, 1_000, "one sample per routed job");
        // Observation is invisible to the schedule: the same stream
        // run unobserved routes and schedules identically.
        let plain = unobserved(&fed, &gen, PlacementPolicy::MarginAware, 3);
        let routed = |r: &FederationRun| r.members.iter().map(|m| m.routed).collect::<Vec<_>>();
        assert_eq!(routed(&plain), routed(&run));
        assert_eq!(plain.fleet.jobs(), run.fleet.jobs());
        assert_eq!(
            plain.fleet.mean_turnaround_s(),
            run.fleet.mean_turnaround_s()
        );
        assert_eq!(plain.fleet.makespan_s(), run.fleet.makespan_s());
    }

    /// Every statistic a summary reports, as exact bits.
    fn stats(s: &StreamSummary, nodes: u32) -> Vec<u64> {
        let mut v = vec![s.jobs(), s.backfilled()];
        v.extend(s.started_per_group());
        v.extend(
            [
                s.mean_exec_s(),
                s.mean_queue_s(),
                s.mean_turnaround_s(),
                s.makespan_s(),
                s.queue_quantile_s(0.5),
                s.queue_quantile_s(0.99),
                s.utilization(nodes as f64),
            ]
            .map(f64::to_bits),
        );
        v
    }

    /// Every sink on: metrics under `fleet`, a tracer, series `fleet.*`.
    fn full_obs() -> Obs {
        let mut obs = Obs::default();
        obs.set_metrics(Registry::new().scope("fleet"));
        obs.set_tracer(Tracer::new());
        obs.set_series(SeriesStore::new(), "fleet");
        obs
    }

    /// What `obs` recorded, as exported text.
    fn exports(obs: &Obs) -> (String, String, String) {
        let snap = obs.take();
        (
            telemetry::format_jsonl(&snap.metrics.unwrap()),
            telemetry::trace::chrome_trace(&[("t".to_string(), snap.trace.unwrap())]),
            snap.series.unwrap().to_jsonl(),
        )
    }

    /// The federation is its members run alone: filtering the stream by
    /// [`Federation::route`] into one job list per member and scheduling
    /// each list on its own gives every member's routed count and
    /// summary, observed or not — and, observed, the same telemetry as
    /// the solo runs recorded in member order.
    #[test]
    fn federation_equals_its_members_run_alone() {
        let fed = small_federation();
        let gen = fleet_stream(&fed, 2_000);
        for placement in [
            PlacementPolicy::CapacityWeighted,
            PlacementPolicy::MarginAware,
        ] {
            for salt in [1, 5, 9] {
                let mut alone = vec![Vec::new(); fed.members().len()];
                let mut stream = from_specs(gen.stream(salt));
                while let Some(job) = stream.next_job() {
                    alone[fed.route(&job, placement, salt)].push(job);
                }
                let solo_obs = full_obs();
                let solo: Vec<StreamSummary> = fed
                    .members()
                    .iter()
                    .zip(&alone)
                    .map(|(m, jobs)| {
                        m.cluster
                            .schedule(SliceSource::new(jobs))
                            .config(m.config)
                            .observe(&solo_obs.child(&m.name))
                            .run_streaming()
                    })
                    .collect();

                let fed_obs = full_obs();
                let observed = fed.run_observed(
                    placement,
                    salt,
                    || from_specs(gen.stream(salt)),
                    fed_obs.scope(),
                    fed_obs.tracer(),
                    fed_obs.series(),
                );
                let plain = unobserved(&fed, &gen, placement, salt);
                for run in [&plain, &observed] {
                    for ((spec, m), (jobs, solo)) in fed
                        .members()
                        .iter()
                        .zip(&run.members)
                        .zip(alone.iter().zip(&solo))
                    {
                        let nodes = spec.cluster.nodes();
                        assert_eq!(m.routed, jobs.len() as u64, "{} routed", m.name);
                        assert_eq!(
                            stats(&m.summary, nodes),
                            stats(solo, nodes),
                            "{} under {placement:?}, salt {salt}",
                            m.name
                        );
                    }
                }
                assert_eq!(exports(&fed_obs), exports(&solo_obs));
            }
        }
    }

    /// The fleet stream is opened once and each job generated once,
    /// whatever the member count.
    #[test]
    fn the_stream_is_generated_once() {
        struct Counting<'c, S>(S, &'c Cell<u64>);
        impl<S: JobSource> JobSource for Counting<'_, S> {
            fn next_job(&mut self) -> Option<Job> {
                let job = self.0.next_job()?;
                self.1.set(self.1.get() + 1);
                Some(job)
            }
        }
        let fed = small_federation();
        let gen = fleet_stream(&fed, 1_500);
        let (opened, pulled) = (Cell::new(0), Cell::new(0));
        let run = fed.run_observed(
            PlacementPolicy::CapacityWeighted,
            4,
            || {
                opened.set(opened.get() + 1);
                Counting(from_specs(gen.stream(4)), &pulled)
            },
            None,
            None,
            None,
        );
        assert_eq!(opened.get(), 1, "one stream for the whole fleet");
        assert_eq!(pulled.get(), 1_500, "each job generated once");
        assert_eq!(run.fleet.jobs(), 1_500);
    }

    #[test]
    fn margin_aware_placement_beats_capacity_weighted_on_turnaround() {
        // A *margin-balanced* fleet: margin capacity share (~73 %)
        // tracks the eligible-job share (~75 % under the Grizzly
        // utilization model), so the aware placement redirects load
        // without overcommitting the margin member. (With a margin
        // share far below the eligible share, aware placement rightly
        // loses — it would drown the margin cluster.)
        let fed = Federation::new(vec![
            ClusterSpec::new(
                "hdmr",
                Cluster::new(192, [0.62, 0.36, 0.02]),
                aware_config(),
            ),
            ClusterSpec::new(
                "legacy",
                Cluster::conventional(64),
                SchedulerConfig::default(),
            ),
        ])
        .unwrap();
        let gen = fleet_stream(&fed, 6_000);
        let aware = unobserved(&fed, &gen, PlacementPolicy::MarginAware, 7);
        let oblivious = unobserved(&fed, &gen, PlacementPolicy::CapacityWeighted, 7);
        let margin_share = |run: &FederationRun| {
            let [g800, g600, g0] = run.fleet.started_per_group();
            (g800 + g600) as f64 / (g800 + g600 + g0) as f64
        };
        assert!(
            margin_share(&aware) > margin_share(&oblivious),
            "aware placement should start more jobs on margin nodes: {} vs {}",
            margin_share(&aware),
            margin_share(&oblivious)
        );
        let speedup = aware.fleet.turnaround_speedup_over(&oblivious.fleet);
        assert!(
            speedup > 1.0,
            "margin-aware placement should win: speedup {speedup}"
        );
    }
}
