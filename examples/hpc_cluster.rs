//! System-wide simulation: a Grizzly-like cluster with and without
//! Hetero-DMR (Section IV-C / Figure 17), at reduced scale.
//!
//! ```text
//! cargo run --release --example hpc_cluster [jobs]
//! ```

use hetero_dmr::monte_carlo::MonteCarlo;
use margin::composition::SelectionPolicy;
use scheduler::{Cluster, Policy, RunSummary, SchedulerConfig, SliceSource, SpeedupModel};
use workloads::jobs::{GrizzlyTrace, GRIZZLY_NODES};

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let nodes = GRIZZLY_NODES;

    println!("generating a {jobs}-job Grizzly-like trace on {nodes} nodes...");
    let trace = GrizzlyTrace {
        jobs,
        ..GrizzlyTrace::default()
    }
    .generate(0xD1A2);

    // Node margin groups from the Figure 11 Monte Carlo.
    let groups = MonteCarlo::default().node_groups(SelectionPolicy::MarginAware, 20_000, 1);
    println!(
        "node groups: {:.0}% @0.8GT/s, {:.0}% @0.6GT/s, {:.0}% unusable",
        groups.at_800 * 100.0,
        groups.at_600 * 100.0,
        groups.at_0 * 100.0
    );

    let conventional = Cluster::conventional(nodes);
    let hetero = Cluster::new(nodes, [groups.at_800, groups.at_600, groups.at_0]);
    let speedups = SpeedupModel::hetero_dmr_default();

    let run = |cluster: &Cluster, policy: Policy, speedups: SpeedupModel| {
        let config = SchedulerConfig::builder()
            .policy(policy)
            .speedups(speedups)
            .build()
            .expect("speedup tables are valid");
        let outcomes = cluster
            .schedule(SliceSource::new(&trace))
            .config(config)
            .run();
        RunSummary::from_outcomes(&outcomes)
    };
    let base = run(&conventional, Policy::Default, SpeedupModel::conventional());
    let aware = run(&hetero, Policy::MarginAware, speedups);
    let oblivious = run(&hetero, Policy::Default, speedups);

    println!(
        "\n{:<28} {:>12} {:>12} {:>12}",
        "system", "mean exec", "mean queue", "turnaround"
    );
    for (name, s) in [
        ("conventional", &base),
        ("Hetero-DMR, margin-aware", &aware),
        ("Hetero-DMR, default sched", &oblivious),
    ] {
        println!(
            "{:<28} {:>10.0} s {:>10.0} s {:>10.0} s",
            name, s.mean_exec_s, s.mean_queue_s, s.mean_turnaround_s
        );
    }
    println!(
        "\nturnaround speedup: margin-aware {:.2}x, default {:.2}x (paper: 1.4x / margin-aware is 1.2x better)",
        aware.turnaround_speedup_over(&base),
        oblivious.turnaround_speedup_over(&base)
    );
}
