//! System-level figures: 11 (margin variability) and 17 (cluster
//! simulation).

use crate::context::{say, Ctx};
use hetero_dmr::monte_carlo::MonteCarlo;
use hetero_dmr::MemoryDesign;
use margin::composition::SelectionPolicy;
use memsim::config::HierarchyConfig;
use scheduler::{
    Cluster as HpcCluster, Policy, QueueTail, RunSummary, SchedulerConfig, SliceSource,
    SpeedupModel,
};
use workloads::jobs::{GrizzlyTrace, GRIZZLY_NODES};

/// Figure 11: channel- and node-level margin distributions under
/// margin-aware vs margin-unaware module selection.
pub fn fig11(ctx: &mut Ctx) {
    let mc = MonteCarlo::default();
    let mut rows = vec![vec![
        "level".into(),
        "policy".into(),
        "threshold_mts".into(),
        "fraction".into(),
    ]];
    say!(
        ctx,
        "{:<8} {:<15} {:>10} {:>10}",
        "level",
        "policy",
        ">=0.8GT/s",
        ">=0.6GT/s"
    );
    for (level, node) in [("channel", false), ("node", true)] {
        for (policy, name) in [
            (SelectionPolicy::MarginAware, "margin-aware"),
            (SelectionPolicy::MarginUnaware, "margin-unaware"),
        ] {
            let frac = |threshold: u32, salt: u64| {
                if node {
                    mc.node_fraction_at_least(policy, threshold, ctx.trials, ctx.seed ^ salt)
                } else {
                    mc.channel_fraction_at_least(policy, threshold, ctx.trials, ctx.seed ^ salt)
                }
            };
            let f800 = frac(800, 1);
            let f600 = frac(600, 2);
            say!(
                ctx,
                "{:<8} {:<15} {:>9.1}% {:>9.1}%",
                level,
                name,
                f800 * 100.0,
                f600 * 100.0
            );
            for (t, f) in [(800u32, f800), (600, f600)] {
                rows.push(vec![
                    level.into(),
                    name.into(),
                    t.to_string(),
                    format!("{f:.4}"),
                ]);
            }
        }
    }
    let groups = mc.node_groups(SelectionPolicy::MarginAware, ctx.trials, ctx.seed ^ 3);
    say!(
        ctx,
        "node groups (margin-aware): {:.0}% @0.8GT/s, {:.0}% @0.6GT/s, {:.0}% @0 (paper: 62/36/2)",
        groups.at_800 * 100.0,
        groups.at_600 * 100.0,
        groups.at_0 * 100.0
    );
    ctx.csv("fig11", &rows);
}

/// Figure 17: system-wide execution / queueing / turnaround.
///
/// Job speedups are *measured* from the node model (not hard-coded):
/// the Figure 12 usage-bucket numbers feed the cluster simulator.
pub fn fig17(ctx: &mut Ctx) {
    // Measure the per-(margin, bucket) speedups from the node model,
    // averaged over the two hierarchies as the paper does.
    let mut at_800 = [0.0f64; 2];
    let mut at_600 = [0.0f64; 2];
    for h in HierarchyConfig::both() {
        let m = crate::node_figures::model(ctx, h);
        for (slot, bucket) in [
            (0, hetero_dmr::UsageBucket::Low),
            (1, hetero_dmr::UsageBucket::Mid),
        ] {
            at_800[slot] +=
                m.suite_average(MemoryDesign::HeteroDmr { margin_mts: 800 }, bucket) / 2.0;
            at_600[slot] +=
                m.suite_average(MemoryDesign::HeteroDmr { margin_mts: 600 }, bucket) / 2.0;
        }
    }
    let speedups = SpeedupModel { at_800, at_600 };
    say!(
        ctx,
        "node-model speedups fed to the scheduler: 0.8GT/s {:?}, 0.6GT/s {:?}",
        at_800,
        at_600
    );

    let trace = GrizzlyTrace {
        jobs: ctx.trace_jobs,
        ..GrizzlyTrace::default()
    }
    .generate(ctx.seed);
    let groups =
        MonteCarlo::default().node_groups(SelectionPolicy::MarginAware, ctx.trials, ctx.seed);
    let nodes = GRIZZLY_NODES;

    let conventional = HpcCluster::conventional(nodes);
    let hdmr = HpcCluster::new(nodes, [groups.at_800, groups.at_600, groups.at_0]);
    let plus17 = HpcCluster::conventional((nodes as f64 * 1.17).round() as u32);

    // A short run can measure a speedup below 1.0, which the scheduler
    // rejects; clamping it would move the figure, so the run fails and
    // says how to fix it.
    let ops = ctx.ops_per_core;
    // With `--metrics`, each system variant records queue depth and
    // per-group latency histograms under its own `cluster.<label>`;
    // with `--trace`, each run adds a `schedule` span with per-job
    // child spans on the schedule clock.
    let run = |cluster: &HpcCluster, label: &str, policy: Policy, sp: &SpeedupModel| {
        let config = SchedulerConfig::builder()
            .policy(policy)
            .speedups(*sp)
            .build()
            .unwrap_or_else(|err| {
                panic!(
                    "the node-model speedups measured at --ops {ops} are not a valid \
                     scheduler table: {err}. The run is too short to measure them; \
                     rerun with a larger --ops <n>"
                )
            });
        cluster
            .schedule(SliceSource::new(&trace))
            .config(config)
            .observe(&ctx.obs.child(&format!("cluster.{label}")))
            .run()
    };
    let conv_outcomes = run(
        &conventional,
        "conventional",
        Policy::Default,
        &SpeedupModel::conventional(),
    );
    let aware_outcomes = run(&hdmr, "hdmr_margin_aware", Policy::MarginAware, &speedups);
    let s_conv = RunSummary::from_outcomes(&conv_outcomes);
    let s_aware = RunSummary::from_outcomes(&aware_outcomes);
    let s_default = RunSummary::from_outcomes(&run(
        &hdmr,
        "hdmr_default_sched",
        Policy::Default,
        &speedups,
    ));
    let s_plus17 = RunSummary::from_outcomes(&run(
        &plus17,
        "conventional_plus17",
        Policy::Default,
        &SpeedupModel::conventional(),
    ));

    let mut rows = vec![vec![
        "system".into(),
        "norm_exec".into(),
        "norm_queue".into(),
        "norm_turnaround".into(),
        "turnaround_speedup".into(),
    ]];
    say!(
        ctx,
        "{:<28} {:>10} {:>10} {:>12} {:>10}",
        "system",
        "exec",
        "queueing",
        "turnaround",
        "speedup"
    );
    for (name, s) in [
        ("conventional", &s_conv),
        ("Hetero-DMR + margin-aware", &s_aware),
        ("Hetero-DMR + default sched", &s_default),
        ("conventional + 17% nodes", &s_plus17),
    ] {
        let (e, q, t) = s.normalized_to(&s_conv);
        if name == "Hetero-DMR + margin-aware" {
            ctx.summary(
                "fig17.aware_turnaround_speedup",
                s.turnaround_speedup_over(&s_conv),
            );
        }
        say!(
            ctx,
            "{:<28} {:>10.3} {:>10.3} {:>12.3} {:>9.3}x",
            name,
            e,
            q,
            t,
            s.turnaround_speedup_over(&s_conv)
        );
        rows.push(vec![
            name.into(),
            format!("{e:.4}"),
            format!("{q:.4}"),
            format!("{t:.4}"),
            format!("{:.4}", s.turnaround_speedup_over(&s_conv)),
        ]);
    }
    say!(
        ctx,
        "margin-aware over default scheduler: {:.3}x turnaround (paper: 1.2x)",
        s_default.mean_turnaround_s / s_aware.mean_turnaround_s
    );
    let conv_tail = QueueTail::from_outcomes(&conv_outcomes);
    let aware_tail = QueueTail::from_outcomes(&aware_outcomes);
    say!(ctx,
        "queueing tail (conventional -> Hetero-DMR): p50 {:.0}->{:.0}s, p95 {:.0}->{:.0}s, p99 {:.0}->{:.0}s",
        conv_tail.p50_s, aware_tail.p50_s, conv_tail.p95_s, aware_tail.p95_s, conv_tail.p99_s, aware_tail.p99_s
    );
    ctx.csv("fig17", &rows);
}
