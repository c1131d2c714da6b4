//! Property tests for the cluster scheduler: capacity is never
//! oversubscribed, causality holds, the policies only ever help, and
//! the event loop matches a naive EASY-backfill reference bit for bit.

mod reference;

use proptest::prelude::*;
use scheduler::{
    Cluster, GrizzlyTrace, Job, Policy, RunSummary, SchedulerConfig, SliceSource, SpeedupModel,
};

/// A validated configuration of `policy` and `speedups`.
fn config(policy: Policy, speedups: SpeedupModel) -> SchedulerConfig {
    SchedulerConfig::builder()
        .policy(policy)
        .speedups(speedups)
        .build()
        .expect("test tables are valid")
}

/// Schedule `jobs` on `cluster` through the builder entry point.
fn run(
    cluster: &Cluster,
    jobs: &[Job],
    policy: Policy,
    speedups: SpeedupModel,
) -> Vec<scheduler::JobOutcome> {
    cluster
        .schedule(SliceSource::new(jobs))
        .config(config(policy, speedups))
        .run()
}

fn arbitrary_jobs(max_nodes: u32) -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec(
        (0.0f64..50_000.0, 1u32..=64, 60.0f64..20_000.0, 0.0f64..1.0),
        1..120,
    )
    .prop_map(move |mut raw| {
        raw.sort_by(|a, b| a.0.total_cmp(&b.0));
        raw.into_iter()
            .enumerate()
            .map(|(id, (submit, nodes, dur, util))| Job {
                id: id as u32,
                submit_s: submit,
                nodes: nodes.min(max_nodes),
                duration_s: dur,
                mem_utilization: util,
            })
            .collect()
    })
}

/// Like [`arbitrary_jobs`], but on a coarse grid: submit times on
/// 100 s steps and durations of 100–500 s, so arrivals coincide with
/// completions and completions with each other (the tie rules).
fn tied_jobs(max_nodes: u32) -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec((0u32..40, 1u32..=64, 1u32..=5, 0.0f64..1.0), 1..120).prop_map(
        move |mut raw| {
            raw.sort_by_key(|r| r.0);
            raw.into_iter()
                .enumerate()
                .map(|(id, (step, nodes, dur, util))| Job {
                    id: id as u32,
                    submit_s: step as f64 * 100.0,
                    nodes: nodes.min(max_nodes),
                    duration_s: dur as f64 * 100.0,
                    mem_utilization: util,
                })
                .collect()
        },
    )
}

/// Margin-group mixes of the 64-node differential cluster.
const MIXES: [[f64; 3]; 4] = [
    [0.62, 0.36, 0.02],
    [0.5, 0.25, 0.25],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
];

/// The smallest table entry the configuration builder accepts
/// (`1 - BASELINE_TOLERANCE`): quick node runs measure a hair under
/// parity.
const SPEEDUP_FLOOR: f64 = 0.95;

/// Validated speedup tables: the conventional and default Hetero-DMR
/// tables, and arbitrary ones with every entry in
/// `[SPEEDUP_FLOOR, 1.5]`, drawn wholly below 1, wholly above 1, or
/// across the range. The backfill scan rejects candidates against
/// `now + duration / max` before allocating; these tables make that
/// bound tight on some members, loose on others, and `max` sometimes
/// 1.0 only because ineligible jobs never speed up.
fn any_speedups() -> impl Strategy<Value = SpeedupModel> {
    let band = |lo: f64, hi: f64| (lo..=hi, lo..=hi, lo..=hi, lo..=hi);
    let arbitrary = prop_oneof![
        band(SPEEDUP_FLOOR, 1.0),
        band(1.0, 1.5),
        band(SPEEDUP_FLOOR, 1.5),
    ]
    .prop_map(|(a, b, c, d)| SpeedupModel {
        at_800: [a, b],
        // The builder lets the 600 MT/s group exceed the 800 MT/s one
        // by its 0.02 measurement slack, no more.
        at_600: [c.min(a + 0.02), d.min(b + 0.02)],
    });
    prop_oneof![
        Just(SpeedupModel::conventional()),
        Just(SpeedupModel::hetero_dmr_default()),
        arbitrary.boxed(),
    ]
}

/// Runs `jobs` through the event loop (collected and streamed) and the
/// naive reference; outcomes and backfill counts must agree exactly.
fn check_against_reference(
    cluster: &Cluster,
    jobs: &[Job],
    config: SchedulerConfig,
) -> Result<(), TestCaseError> {
    let (expected, expected_backfilled) = reference::schedule(cluster, jobs, &config);
    let outcomes = cluster
        .schedule(SliceSource::new(jobs))
        .config(config)
        .run();
    prop_assert_eq!(outcomes, expected);
    let summary = cluster
        .schedule(SliceSource::new(jobs))
        .config(config)
        .run_streaming();
    prop_assert_eq!(summary.backfilled(), expected_backfilled);
    Ok(())
}

/// Negative and zero durations (`Job`'s fields are public and
/// unvalidated) behind a blocked head: outcomes must still equal the
/// naive reference. A negative duration divided by a speedup below
/// the table maximum ends *earlier* than at the maximum, so the
/// backfill scan's `duration / max` bound must not apply to it.
#[test]
fn odd_durations_behind_a_blocked_head_match_the_reference() {
    let job = |id, submit_s, nodes, duration_s, mem_utilization| Job {
        id,
        submit_s,
        nodes,
        duration_s,
        mem_utilization,
    };
    let jobs = [
        // Fills the cluster until 100 / speedup.
        job(0, 0.0, 8, 100.0, 0.1),
        // Starts first when job 0 ends and "ends" 100 s before that.
        // Ineligible utilization: speedup 1.0 under any table.
        job(1, 1.0, 2, -100.0, 0.8),
        // The head: blocked until job 1's (past) completion frees its
        // nodes, so the shadow time lies before `now`.
        job(2, 2.0, 8, 10.0, 0.1),
        // Ends 105 s before `now` at speedup 1.0, inside the shadow,
        // but only 95.5 s before it at the 1.10 maximum.
        job(3, 3.0, 2, -105.0, 0.8),
        // Zero durations end exactly at `now`, after the shadow.
        job(4, 4.0, 1, 0.0, 0.1),
        job(5, 5.0, 1, 0.0, 0.8),
        job(6, 6.0, 2, -0.0, 0.3),
    ];
    for policy in [Policy::Default, Policy::MarginAware] {
        for speedups in [
            SpeedupModel::conventional(),
            SpeedupModel::hetero_dmr_default(),
        ] {
            for mix in [[1.0, 0.0, 0.0], [0.5, 0.25, 0.25]] {
                let cluster = Cluster::new(8, mix);
                let config = config(policy, speedups);
                let (expected, _) = reference::schedule(&cluster, &jobs, &config);
                let first_end = expected[0].start_s + expected[0].exec_s;
                assert_eq!(expected[3].start_s, first_end, "job 3 backfills");
                check_against_reference(&cluster, &jobs, config)
                    .unwrap_or_else(|e| panic!("{policy:?} {speedups:?} {mix:?}: {e:?}"));
            }
        }
    }
}

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![Just(Policy::Default), Just(Policy::MarginAware)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-queue scheduler equals the naive O(n²) EASY reference
    /// on arbitrary traces, under both policies and any valid speedup
    /// table.
    #[test]
    fn matches_the_naive_easy_reference(
        jobs in arbitrary_jobs(64),
        policy in any_policy(),
        mix in 0..MIXES.len(),
        speedups in any_speedups(),
    ) {
        check_against_reference(&Cluster::new(64, MIXES[mix]), &jobs, config(policy, speedups))?;
    }

    /// The same, on traces dense in simultaneous events.
    #[test]
    fn matches_the_naive_easy_reference_under_ties(
        jobs in tied_jobs(64),
        policy in any_policy(),
        mix in 0..MIXES.len(),
        speedups in any_speedups(),
    ) {
        check_against_reference(&Cluster::new(64, MIXES[mix]), &jobs, config(policy, speedups))?;
    }

    /// Causality and per-job sanity under arbitrary traces/policies.
    #[test]
    fn outcomes_are_causal(jobs in arbitrary_jobs(64), aware in any::<bool>()) {
        let cluster = Cluster::new(64, [0.62, 0.36, 0.02]);
        let policy = if aware { Policy::MarginAware } else { Policy::Default };
        let outcomes = run(&cluster, &jobs, policy, SpeedupModel::hetero_dmr_default());
        prop_assert_eq!(outcomes.len(), jobs.len());
        for o in &outcomes {
            prop_assert!(o.start_s >= o.job.submit_s, "started before submission");
            prop_assert!(o.exec_s > 0.0);
            prop_assert!(o.exec_s <= o.job.duration_s + 1e-9, "speedups never slow a job");
            prop_assert!(o.exec_s >= o.job.duration_s / 1.2, "speedup bounded by the model");
        }
    }

    /// The cluster is never oversubscribed: at every job start, the
    /// sum of node allocations of running jobs stays within capacity.
    #[test]
    fn capacity_never_exceeded(jobs in arbitrary_jobs(64)) {
        let nodes = 64u32;
        let cluster = Cluster::new(nodes, [0.62, 0.36, 0.02]);
        let outcomes = run(&cluster, &jobs, Policy::MarginAware, SpeedupModel::hetero_dmr_default());
        // Check occupancy at each start instant.
        for probe in &outcomes {
            let t = probe.start_s;
            let in_flight: u32 = outcomes
                .iter()
                .filter(|o| o.start_s <= t && o.start_s + o.exec_s > t)
                .map(|o| o.job.nodes)
                .sum();
            prop_assert!(in_flight <= nodes, "{in_flight} nodes in flight at {t}");
        }
    }

    /// Faster nodes never increase mean execution time, and any
    /// turnaround regression stays within the classic backfill
    /// scheduling-anomaly bound (speeding jobs up can reshuffle
    /// backfill decisions and hurt *individual traces*, Graham-style,
    /// but never catastrophically).
    #[test]
    fn speedups_never_hurt_execution(seed in 0u64..500) {
        let trace = GrizzlyTrace::scaled(400, 128).generate(seed);
        let conventional = Cluster::conventional(128);
        let hetero = Cluster::new(128, [0.62, 0.36, 0.02]);
        let base = RunSummary::from_outcomes(&run(
            &conventional,
            &trace,
            Policy::Default,
            SpeedupModel::conventional(),
        ));
        let fast = RunSummary::from_outcomes(&run(
            &hetero,
            &trace,
            Policy::MarginAware,
            SpeedupModel::hetero_dmr_default(),
        ));
        prop_assert!(fast.mean_exec_s <= base.mean_exec_s + 1e-6);
        prop_assert!(fast.mean_turnaround_s <= base.mean_turnaround_s * 1.3,
            "anomaly beyond Graham-style bound: {} vs {}",
            fast.mean_turnaround_s, base.mean_turnaround_s);
    }

    /// In aggregate (across traces), faster nodes DO improve
    /// turnaround — per-trace anomalies wash out.
    #[test]
    fn speedups_help_on_average(base_seed in 0u64..50) {
        let conventional = Cluster::conventional(128);
        let hetero = Cluster::new(128, [0.62, 0.36, 0.02]);
        let (mut base_total, mut fast_total) = (0.0, 0.0);
        for s in 0..8u64 {
            let trace = GrizzlyTrace::scaled(300, 128).generate(base_seed * 100 + s);
            base_total += RunSummary::from_outcomes(&run(
                &conventional,
                &trace,
                Policy::Default,
                SpeedupModel::conventional(),
            ))
            .mean_turnaround_s;
            fast_total += RunSummary::from_outcomes(&run(
                &hetero,
                &trace,
                Policy::MarginAware,
                SpeedupModel::hetero_dmr_default(),
            ))
            .mean_turnaround_s;
        }
        prop_assert!(fast_total < base_total,
            "aggregate turnaround must improve: {fast_total} vs {base_total}");
    }

    /// Backfill never delays the FCFS head: disabling speedups, the
    /// head job of any queue starts no later than the time at which
    /// enough nodes were free.
    #[test]
    fn fcfs_order_is_respected_for_equal_sizes(seed in 0u64..200) {
        // With identical node counts, FCFS implies monotone start
        // times (backfill cannot reorder equal-size jobs).
        let jobs: Vec<Job> = (0..60)
            .map(|i| Job {
                id: i,
                submit_s: i as f64 * 10.0,
                nodes: 16,
                duration_s: 500.0 + (i as f64 * 7.0) % 300.0,
                mem_utilization: (seed as f64 / 500.0) % 1.0,
            })
            .collect();
        let cluster = Cluster::conventional(64);
        let outcomes = run(&cluster, &jobs, Policy::Default, SpeedupModel::conventional());
        for pair in outcomes.windows(2) {
            prop_assert!(pair[0].start_s <= pair[1].start_s + 1e-9);
        }
    }
}
