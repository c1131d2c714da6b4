//! Node bring-up: the full deployment pipeline on one machine.
//!
//! 1. boot-time profiling measures every module's margin (§III-E),
//! 2. margin-aware selection picks the Free Module per channel and
//!    places the node in a scheduler group (§III-D),
//! 3. the Hetero-DMR protocol serves traffic with full recovery,
//! 4. the cluster scheduler exploits the node's group (§IV-C).
//!
//! ```text
//! cargo run --release --example node_bringup
//! ```

use ecc::ErrorModel;
use hetero_dmr::profiler::{ModuleUnderTest, NodeProfiler};
use hetero_dmr::protocol::HeteroDmrChannel;
use margin::population::ModulePopulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scheduler::{Cluster, Policy, RunSummary, SchedulerConfig, SliceSource, SpeedupModel};
use workloads::jobs::GrizzlyTrace;

fn main() {
    // ── 1. Boot-time profiling ───────────────────────────────────────
    let population = ModulePopulation::paper_study(0xB007);
    let modules: Vec<ModuleUnderTest> = population
        .mainstream()
        .take(24) // a 12-channel node, 2 modules per channel
        .map(|m| ModuleUnderTest {
            specified: m.spec.organization.specified_rate,
            true_margin_mts: m.true_margin_mts,
        })
        .collect();
    let channels: Vec<Vec<ModuleUnderTest>> = modules.chunks(2).map(<[_]>::to_vec).collect();
    let profile = NodeProfiler::default().profile(&channels, None);
    println!("profiled channel margins : {:?}", profile.channel_margins);
    println!("fast-module selection    : {:?}", profile.fast_module);
    println!(
        "node margin {} MT/s -> scheduler group {} GT/s",
        profile.node_margin_mts,
        profile.group() as f64 / 1000.0
    );

    // ── 2. Serve traffic with recovery ───────────────────────────────
    let mut rng = StdRng::seed_from_u64(0xB007);
    let mut channel = HeteroDmrChannel::new(1 << 16);
    let mut t = channel.set_used_blocks(1 << 14, 0);
    t = channel.begin_write_mode(t).unwrap();
    for block in 0..128u64 {
        channel.write(block, &[block as u8; 64], t).unwrap();
    }
    t = channel.begin_read_mode(t).unwrap();
    let mut recoveries = 0;
    for i in 0..1_000u64 {
        let block = i % 128;
        let inject = (i % 97 == 0).then_some((&mut rng, ErrorModel::ByteBurst(6)));
        let (data, outcome, end) = channel.read(block, t, inject).unwrap();
        assert_eq!(data, [block as u8; 64]);
        if outcome == hetero_dmr::ReadOutcome::Recovered {
            recoveries += 1;
        }
        t = end;
    }
    println!(
        "\nserved 1000 reads: {} fast+clean, {recoveries} recovered, governor at {}/{} errors",
        channel.stats().fast_reads,
        channel.governor().errors_this_epoch(),
        channel.governor().threshold()
    );

    // ── 3. The node joins the cluster ────────────────────────────────
    let trace = GrizzlyTrace::scaled(6_000, 256).generate(0xB007);
    let conventional = Cluster::conventional(256);
    let upgraded = Cluster::new(256, [0.62, 0.36, 0.02]);
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
    let fast = run(
        &upgraded,
        Policy::MarginAware,
        SpeedupModel::hetero_dmr_default(),
    );
    println!(
        "\ncluster of such nodes: turnaround {:.0} s -> {:.0} s ({:.2}x)",
        base.mean_turnaround_s,
        fast.mean_turnaround_s,
        fast.turnaround_speedup_over(&base)
    );
}
