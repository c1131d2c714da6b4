//! Fleet-scale federated scheduling (ROADMAP follow-on): ≥10 M
//! streamed jobs across a heterogeneous federation, comparing the
//! margin-aware placement policy against a capacity-weighted
//! (margin-oblivious) one.
//!
//! Unlike the figure targets, nothing here materializes a trace: each
//! placement draws its jobs once from a counter-seeded
//! [`SyntheticJobs`] stream, routes each job to one member and steps it
//! through that member's event loop as it arrives, and per-cluster
//! results fold into O(1)-memory
//! [`StreamSummary`](scheduler::stats::StreamSummary)s — so the 10 M-job
//! default runs in flat RSS. The two placements run concurrently on the
//! worker pool and merge in placement order, so the output is
//! byte-identical at any `--jobs` value.

use crate::context::{say, Ctx};
use scheduler::{
    Cluster as HpcCluster, ClusterSpec, Federation, FederationRun, PlacementPolicy,
    SchedulerConfig, SpeedupModel,
};
use workloads::jobs::SyntheticJobs;
use workloads::utilization::{Cluster as LanlCluster, UtilizationModel};

/// Offered utilization the fleet stream targets (the paper reports
/// ~78 % for Grizzly; a touch lower keeps every member stable under
/// both placements).
const FLEET_UTILIZATION: f64 = 0.75;

/// Widest job the stream may emit; at or below the smallest member so
/// any member can host any job.
const FLEET_MAX_NODES: u32 = 512;

/// The federation under study: four margin-binned generations plus a
/// conventional legacy system. Group mixes come from the margin
/// Monte-Carlo (Grizzly's 62/36/2 from Figure 11, the rest from the
/// PR-7 generation sweep); speedup tables are per-generation
/// node-model suite averages, low/mid usage buckets.
fn fleet() -> Federation {
    let member = |name: &str, nodes: u32, groups: [f64; 3], at_800: [f64; 2], at_600: [f64; 2]| {
        ClusterSpec::new(
            name,
            HpcCluster::new(nodes, groups),
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
        // Sized so conventional capacity (legacy plus the margin
        // members' no-margin slices, ~26 % of the fleet) tracks the
        // ~25 % Hetero-DMR-ineligible job share: the aware placement
        // then redirects load without congesting either side.
        ClusterSpec::new(
            "legacy",
            HpcCluster::conventional(1_024),
            SchedulerConfig::default(),
        ),
    ])
    .expect("fleet members are valid")
}

/// The `fleet` target: run the federation under both placement
/// policies and report per-member and fleet-wide streaming summaries.
pub fn fleet_target(ctx: &mut Ctx) {
    let fed = fleet();
    let jobs = ctx.fleet_jobs();
    let stream = SyntheticJobs {
        jobs,
        max_nodes: FLEET_MAX_NODES,
        capacity_nodes: fed.total_nodes() as f64,
        target_utilization: FLEET_UTILIZATION,
        utilization: UtilizationModel::for_cluster(LanlCluster::Grizzly),
    };
    say!(
        ctx,
        "federation: {} member(s), {} nodes, {} streamed job(s), offered utilization {:.2}",
        fed.members().len(),
        fed.total_nodes(),
        jobs,
        FLEET_UTILIZATION
    );

    let mut rows = vec![vec![
        "placement".into(),
        "member".into(),
        "nodes".into(),
        "jobs".into(),
        "utilization".into(),
        "mean_queue_s".into(),
        "p99_queue_s".into(),
        "mean_turnaround_s".into(),
    ]];
    // The two placements are independent runs over the same stream:
    // each records into its own fork on the worker pool, and the forks
    // are absorbed in placement order.
    let placements = [
        PlacementPolicy::CapacityWeighted,
        PlacementPolicy::MarginAware,
    ];
    let (obs, seed) = (&ctx.obs, ctx.seed);
    let observed = runner::parallel_map(placements.to_vec(), |_, placement| {
        let fork = obs.fork();
        let view = fork.child(&format!("fleet.{}", placement.label()));
        let run = fed.run_observed(
            placement,
            seed,
            || scheduler::from_specs(stream.stream(seed)),
            view.scope(),
            view.tracer(),
            view.series(),
        );
        (run, fork.take())
    });
    let mut runs: Vec<(PlacementPolicy, FederationRun)> = Vec::new();
    for (placement, (run, snapshot)) in placements.into_iter().zip(observed) {
        ctx.obs.absorb(snapshot);
        say!(ctx, "\nplacement {}:", placement.label());
        say!(
            ctx,
            "  {:<10} {:>6} {:>10} {:>6} {:>13} {:>12} {:>12}",
            "member",
            "nodes",
            "jobs",
            "util",
            "mean_queue_s",
            "p99_queue_s",
            "turnaround_s"
        );
        for (spec, m) in fed.members().iter().zip(&run.members) {
            say!(
                ctx,
                "  {:<10} {:>6} {:>10} {:>5.1}% {:>13.1} {:>12.1} {:>12.1}",
                m.name,
                spec.cluster.nodes(),
                m.routed,
                m.utilization * 100.0,
                m.summary.mean_queue_s(),
                m.summary.queue_quantile_s(0.99),
                m.summary.mean_turnaround_s()
            );
            rows.push(vec![
                placement.label().into(),
                m.name.clone(),
                spec.cluster.nodes().to_string(),
                m.routed.to_string(),
                format!("{:.4}", m.utilization),
                format!("{:.2}", m.summary.mean_queue_s()),
                format!("{:.2}", m.summary.queue_quantile_s(0.99)),
                format!("{:.2}", m.summary.mean_turnaround_s()),
            ]);
        }
        let f = &run.fleet;
        let [g800, g600, g0] = f.started_per_group();
        say!(
            ctx,
            "  fleet: {} job(s) ({} backfilled), starts {g800}/{g600}/{g0} per margin group",
            f.jobs(),
            f.backfilled()
        );
        say!(
            ctx,
            "  fleet: exec {:.1} s, queue {:.1} s (p50 {:.1}, p99 {:.1}), turnaround {:.1} s",
            f.mean_exec_s(),
            f.mean_queue_s(),
            f.queue_quantile_s(0.50),
            f.queue_quantile_s(0.99),
            f.mean_turnaround_s()
        );
        rows.push(vec![
            placement.label().into(),
            "fleet".into(),
            fed.total_nodes().to_string(),
            f.jobs().to_string(),
            format!("{:.4}", f.utilization(fed.total_nodes() as f64)),
            format!("{:.2}", f.mean_queue_s()),
            format!("{:.2}", f.queue_quantile_s(0.99)),
            format!("{:.2}", f.mean_turnaround_s()),
        ]);
        runs.push((placement, run));
    }

    let oblivious = &runs[0].1.fleet;
    let aware = &runs[1].1.fleet;
    let speedup = aware.turnaround_speedup_over(oblivious);
    let margin_share = |s: &scheduler::StreamSummary| {
        let [g800, g600, g0] = s.started_per_group();
        (g800 + g600) as f64 / (g800 + g600 + g0).max(1) as f64
    };
    say!(
        ctx,
        "\nmargin-aware over capacity-weighted placement: {:.3}x turnaround, \
         margin-group start share {:.1}% -> {:.1}%",
        speedup,
        margin_share(oblivious) * 100.0,
        margin_share(aware) * 100.0
    );
    ctx.summary("fleet.jobs", jobs as f64);
    ctx.summary("fleet.aware_turnaround_speedup", speedup);
    ctx.summary("fleet.aware_margin_start_share", margin_share(aware));
    ctx.summary(
        "fleet.oblivious_margin_start_share",
        margin_share(oblivious),
    );
    ctx.csv("fleet", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_members_are_heterogeneous_and_host_every_job() {
        let fed = fleet();
        assert!(fed.members().len() >= 4, "acceptance: >=4 clusters");
        for m in fed.members() {
            assert!(
                m.cluster.nodes() >= FLEET_MAX_NODES,
                "{} cannot host the widest job",
                m.name
            );
        }
        // Margin capacity share roughly tracks the ~75 % eligible-job
        // share, so the aware placement cannot drown one member.
        let margin: u64 = fed
            .members()
            .iter()
            .map(|m| {
                let g = m.cluster.group_sizes();
                (g[0] + g[1]) as u64
            })
            .sum();
        let share = margin as f64 / fed.total_nodes() as f64;
        assert!((0.6..0.9).contains(&share), "margin capacity share {share}");
    }

    #[test]
    fn quick_fleet_run_reports_both_placements() {
        let mut ctx = Ctx::default();
        ctx.quick();
        ctx.fleet_jobs = Some(5_000);
        fleet_target(&mut ctx);
        assert!(ctx.out.contains("placement capacity_weighted:"));
        assert!(ctx.out.contains("placement margin_aware:"));
        assert!(ctx.out.contains("margin-aware over capacity-weighted"));
        for name in ["grizzly", "badger", "ddr5", "mrdimm", "legacy"] {
            assert!(
                ctx.out.contains(name),
                "member {name} missing:\n{}",
                ctx.out
            );
        }
    }
}
