//! Cross-crate integration: the full pipeline from the module
//! population through the node model to the cluster simulation, with
//! the paper's qualitative orderings asserted at every stage.

use energy::{CpuPowerParams, ResidencyModel};
use hetero_dmr::monte_carlo::MonteCarlo;
use hetero_dmr::{EvalConfig, MemoryDesign, NodeModel, UsageBucket};
use margin::composition::SelectionPolicy;
use margin::population::ModulePopulation;
use memsim::config::HierarchyConfig;
use scheduler::{Cluster, Policy, RunSummary, SchedulerConfig, SliceSource, SpeedupModel};
use workloads::jobs::GrizzlyTrace;
use workloads::utilization::{Cluster as Lanl, UtilizationModel};
use workloads::Suite;

fn small_model() -> NodeModel {
    NodeModel::new(
        HierarchyConfig::hierarchy1(),
        EvalConfig {
            ops_per_core: 5_000,
            seed: 0xE2E,
            ..EvalConfig::default()
        },
    )
}

#[test]
fn characterization_feeds_monte_carlo_consistently() {
    // The population's 9-chips/rank margin statistics and the Monte
    // Carlo module distribution describe the same devices. The MC
    // draws 3200 MT/s modules, so exclude the down-binned labels
    // (their 4000 MT/s cap leaves room above 800 — Fig 4a).
    let pop = ModulePopulation::paper_study(1);
    let mc = MonteCarlo::default();
    let nine: Vec<f64> = pop
        .mainstream()
        .filter(|m| {
            m.spec.organization.chips_per_rank == 9
                && m.spec.organization.specified_rate.mts() == 3200
        })
        .map(|m| m.measured_margin_mts as f64)
        .collect();
    let pop_mean = margin::stats::mean(&nine);
    // Both are capped at 800; the MC mean parameter sits above the cap
    // by design, so compare the *observable* side.
    assert!(
        pop_mean > 600.0 && pop_mean <= 800.0,
        "population mean {pop_mean}"
    );
    let frac = mc.channel_fraction_at_least(SelectionPolicy::MarginUnaware, 800, 20_000, 9);
    let pop_frac = nine.iter().filter(|&&m| m >= 800.0).count() as f64 / nine.len() as f64;
    assert!(
        (frac - pop_frac).abs() < 0.15,
        "module-level P(>=800): MC {frac} vs population {pop_frac}"
    );
}

#[test]
fn node_level_orderings_hold() {
    let m = small_model();
    let b = UsageBucket::Low;
    let baseline = 1.0;
    let lat = m.suite_average(MemoryDesign::ExploitLatency, b);
    let freq = m.suite_average(MemoryDesign::ExploitFrequency, b);
    let both = m.suite_average(MemoryDesign::ExploitFreqLat, b);
    let hdmr8 = m.suite_average(MemoryDesign::HeteroDmr { margin_mts: 800 }, b);
    let hdmr6 = m.suite_average(MemoryDesign::HeteroDmr { margin_mts: 600 }, b);

    // The paper's qualitative structure:
    assert!(lat > baseline, "latency margin helps: {lat}");
    assert!(
        freq > lat,
        "frequency margin dominates latency margin: {freq} vs {lat}"
    );
    assert!(both >= freq, "both margins at least match frequency alone");
    assert!(hdmr8 > baseline, "Hetero-DMR beats the baseline: {hdmr8}");
    assert!(hdmr8 >= hdmr6 - 0.01, "more margin, more speedup");
    assert!(
        both > hdmr8,
        "the unprotected setting outruns the protected one"
    );
}

#[test]
fn usage_fallback_inherits_exactly_baseline_performance() {
    let m = small_model();
    for design in [
        MemoryDesign::Fmr,
        MemoryDesign::HeteroDmr { margin_mts: 800 },
        MemoryDesign::HeteroDmrFmr { margin_mts: 600 },
    ] {
        assert_eq!(
            m.normalized(design, Suite::Linpack, UsageBucket::High),
            1.0,
            "{design:?} must fall back above 50% utilization"
        );
    }
}

#[test]
fn monte_carlo_feeds_scheduler_and_orderings_hold() {
    let groups = MonteCarlo::default().node_groups(SelectionPolicy::MarginAware, 10_000, 2);
    let trace = GrizzlyTrace::scaled(3_000, 256).generate(3);
    let cluster_conv = Cluster::conventional(256);
    let cluster_hdmr = Cluster::new(256, [groups.at_800, groups.at_600, groups.at_0]);
    let speed = SpeedupModel::hetero_dmr_default();

    let run = |cluster: &Cluster, policy: Policy, speedups: &SpeedupModel| {
        let config = SchedulerConfig::builder()
            .policy(policy)
            .speedups(*speedups)
            .build()
            .expect("test tables are valid");
        cluster
            .schedule(SliceSource::new(&trace))
            .config(config)
            .run()
    };
    let base = RunSummary::from_outcomes(&run(
        &cluster_conv,
        Policy::Default,
        &SpeedupModel::conventional(),
    ));
    let aware = RunSummary::from_outcomes(&run(&cluster_hdmr, Policy::MarginAware, &speed));
    let unaware = RunSummary::from_outcomes(&run(&cluster_hdmr, Policy::Default, &speed));

    // Figure 17's structure: exec down, queueing down more, margin-
    // aware at least as good as the default scheduler.
    assert!(aware.mean_exec_s < base.mean_exec_s);
    assert!(aware.mean_turnaround_s < base.mean_turnaround_s);
    assert!(aware.turnaround_speedup_over(&base) > 1.0);
    assert!(
        aware.mean_turnaround_s <= unaware.mean_turnaround_s * 1.01,
        "margin-aware {} vs default {}",
        aware.mean_turnaround_s,
        unaware.mean_turnaround_s
    );
    // Queueing shrinks at least as fast as execution (the paper's
    // super-linear queueing effect).
    let (e, q, _) = aware.normalized_to(&base);
    assert!(
        q <= e + 0.02,
        "queueing {q} should improve at least as much as exec {e}"
    );
}

#[test]
fn utilization_weights_are_the_figure1_fractions() {
    let m = UtilizationModel::for_cluster(Lanl::Grizzly);
    let w = m.bucket_weights();
    assert!((w[0] + w[1] + w[2] - 1.0).abs() < 1e-12);
    assert!(w[0] > 0.5, "most jobs sit below 25% utilization");
    // And the node model consumes them directly:
    let model = small_model();
    let blended = model.usage_weighted(MemoryDesign::HeteroDmr { margin_mts: 800 }, w);
    let low = model.suite_average(
        MemoryDesign::HeteroDmr { margin_mts: 800 },
        UsageBucket::Low,
    );
    assert!(blended <= low && blended >= 1.0 - 0.05);
}

#[test]
fn energy_story_holds_end_to_end() {
    // Figure 13 on the state-residency model: averaged over the six
    // suites, Hetero-DMR lowers energy per instruction on both
    // hierarchies even though it writes every block twice, and DRAM
    // stays a minority of node energy.
    let (dram, cpu) = (ResidencyModel::ddr4_3200(), CpuPowerParams::default());
    let (base, hdmr) = (
        MemoryDesign::CommercialBaseline,
        MemoryDesign::HeteroDmr { margin_mts: 800 },
    );
    for h in HierarchyConfig::both() {
        let m = NodeModel::new(
            h,
            EvalConfig {
                ops_per_core: 4_000,
                seed: 0xD1A2,
                ..EvalConfig::default()
            },
        );
        let pairs = Suite::ALL.map(|s| [(base, s), (hdmr, s)]);
        m.prime(pairs.as_flattened());
        let epi = |design, suite| {
            let r = m.run(design, suite);
            let dram_j = m.energy(design, suite, &dram).total_j();
            let cpu_j = cpu.energy_j(energy::ps_to_s(r.exec_time_ps), r.instructions);
            let share = dram_j / (dram_j + cpu_j);
            assert!(share < 0.5, "{}: DRAM share {share}", h.name);
            (dram_j + cpu_j) / r.instructions as f64
        };
        let mean = Suite::ALL
            .into_iter()
            .map(|s| epi(hdmr, s) / epi(base, s))
            .sum::<f64>()
            / Suite::ALL.len() as f64;
        assert!(mean < 1.0, "{}: Hetero-DMR normalized EPI {mean}", h.name);
    }
}
