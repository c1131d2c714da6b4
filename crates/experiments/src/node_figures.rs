//! Node-level figures (5, 12, 13, 14, 15, 16), all driven by the
//! `hetero_dmr::NodeModel` evaluation engine.

use crate::context::{say, sayp, Ctx};
use energy::{CpuPowerParams, ResidencyModel};
use hetero_dmr::emulation::EmulationInputs;
use hetero_dmr::monte_carlo::MonteCarlo;
use hetero_dmr::{EvalConfig, MemoryDesign, NodeModel, UsageBucket};
use margin::composition::SelectionPolicy;
use memsim::config::HierarchyConfig;
use workloads::utilization::{Cluster, UtilizationModel};
use workloads::Suite;

pub(crate) fn model(ctx: &Ctx, h: HierarchyConfig) -> NodeModel {
    model_scoped(ctx, h, &format!("node.{}", telemetry::slug(h.name)))
}

/// An engine for `h` whose runs record metrics under
/// `<scope>.<design>.<suite>` and trace under the context's tracer.
pub(crate) fn model_scoped(ctx: &Ctx, h: HierarchyConfig, scope: &str) -> NodeModel {
    let mut m = NodeModel::new(
        h,
        EvalConfig {
            ops_per_core: ctx.ops_per_core,
            seed: ctx.seed,
            windows: 1,
        },
    );
    if let Some(scope) = ctx.metrics_scope(scope) {
        m.set_metrics_scope(scope);
    }
    if let Some(t) = ctx.obs.tracer() {
        m.set_trace(t);
    }
    m
}

/// The runs [`NodeModel::normalized`] resolves for each lookup, in
/// the order a figure consults them, for [`NodeModel::prime`] (which
/// drops repeats).
fn normalized_runs(
    lookups: impl IntoIterator<Item = (MemoryDesign, Suite, UsageBucket)>,
) -> Vec<(MemoryDesign, Suite)> {
    lookups
        .into_iter()
        .filter_map(|(design, suite, bucket)| NodeModel::normalized_pairs(design, suite, bucket))
        .flatten()
        .collect()
}

/// Figure 5: real-system speedup from exploiting margins, per suite
/// and hierarchy.
pub fn fig5(ctx: &mut Ctx) {
    let mut rows = vec![vec![
        "hierarchy".into(),
        "suite".into(),
        "latency_margin".into(),
        "frequency_margin".into(),
        "freq_lat_margins".into(),
    ]];
    let designs = [
        MemoryDesign::ExploitLatency,
        MemoryDesign::ExploitFrequency,
        MemoryDesign::ExploitFreqLat,
    ];
    let lookups = Suite::ALL
        .into_iter()
        .flat_map(|suite| designs.map(|d| (d, suite, UsageBucket::Low)));
    let runs = normalized_runs(lookups);
    for h in HierarchyConfig::both() {
        let m = model(ctx, h);
        m.prime(&runs);
        say!(ctx, "{} (speedup over manufacturer specification):", h.name);
        say!(
            ctx,
            "{:<10} {:>10} {:>10} {:>10}",
            "suite",
            "latency",
            "frequency",
            "freq+lat"
        );
        for suite in Suite::ALL {
            let lat = m.normalized(MemoryDesign::ExploitLatency, suite, UsageBucket::Low);
            let freq = m.normalized(MemoryDesign::ExploitFrequency, suite, UsageBucket::Low);
            let both = m.normalized(MemoryDesign::ExploitFreqLat, suite, UsageBucket::Low);
            say!(
                ctx,
                "{:<10} {:>9.3}x {:>9.3}x {:>9.3}x",
                suite.name(),
                lat,
                freq,
                both
            );
            rows.push(vec![
                h.name.into(),
                suite.name().into(),
                format!("{lat:.4}"),
                format!("{freq:.4}"),
                format!("{both:.4}"),
            ]);
        }
        let lat_avg = m.suite_average(MemoryDesign::ExploitLatency, UsageBucket::Low);
        let freq_avg = m.suite_average(MemoryDesign::ExploitFrequency, UsageBucket::Low);
        let both_avg = m.suite_average(MemoryDesign::ExploitFreqLat, UsageBucket::Low);
        say!(
            ctx,
            "average    {:>9.3}x {:>9.3}x {:>9.3}x   (paper freq+lat avg: 1.19x, Linpack 1.24x)",
            lat_avg,
            freq_avg,
            both_avg
        );
        let hs = telemetry::slug(h.name);
        ctx.summary(&format!("fig5.{hs}.latency_margin"), lat_avg);
        ctx.summary(&format!("fig5.{hs}.frequency_margin"), freq_avg);
        ctx.summary(&format!("fig5.{hs}.freq_lat_margins"), both_avg);
    }
    ctx.csv("fig5", &rows);
}

/// The designs in Figure 12's legend, per margin.
fn fig12_designs(margin: u32) -> [MemoryDesign; 3] {
    [
        MemoryDesign::Fmr,
        MemoryDesign::HeteroDmr { margin_mts: margin },
        MemoryDesign::HeteroDmrFmr { margin_mts: margin },
    ]
}

/// Under `--metrics`, drives the functional protocol engine through a
/// deterministic scenario so Figure 12's export also carries governor
/// and ECC telemetry (the timing simulator behind the figure models
/// protocol latencies but never decodes blocks): conventional fills,
/// replication activation, injected reads across the whole error-model
/// taxonomy, a write-mode round trip, and a persistent-fault remap.
fn protocol_exercise(ctx: &mut Ctx) {
    use ecc::ErrorModel;
    use hetero_dmr::protocol::HeteroDmrChannel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let scope = ctx.metrics_scope("protocol");
    if scope.is_none() && ctx.obs.tracer().is_none() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0F16_0012);
    let mut ch = HeteroDmrChannel::new(1 << 12);
    if let Some(scope) = &scope {
        ch.attach_telemetry(scope);
    }
    if let Some(t) = ctx.obs.tracer() {
        ch.attach_trace(t);
    }
    for block in 0..64u64 {
        ch.write(block, &[block as u8; 64], 0).expect("spec write");
    }
    let mut t = ch.set_used_blocks(1 << 10, 0);
    // Fast reads with every out-of-spec error model: corrupt copies
    // are detected and recovered from the in-spec originals.
    for model in ErrorModel::ALL {
        for block in 0..8u64 {
            let (_, _, end) = ch
                .read(block, t, Some((&mut rng, model)))
                .expect("recoverable read");
            t = end;
        }
    }
    for block in 0..32u64 {
        let (_, _, end) = ch.read::<StdRng>(block, t, None).expect("clean read");
        t = end;
    }
    // A write-mode round trip (two mode switches).
    t = ch.begin_write_mode(t).expect("enter write mode");
    for block in 0..16u64 {
        ch.write(block, &[0xA5; 64], t).expect("broadcast write");
    }
    t = ch.begin_read_mode(t).expect("back to read mode");
    // A stuck cell in the copy module: recoveries, then a role remap
    // ends the churn.
    ch.inject_persistent_copy_fault(3);
    for _ in 0..6 {
        let (_, _, end) = ch.read::<StdRng>(3, t, None).expect("faulty read");
        t = end;
    }
}

/// Figure 12: normalized performance per design × usage bucket ×
/// margin × hierarchy, plus the usage-weighted `[0~100%]` bars and the
/// paper's headline margin-weighted average.
pub fn fig12(ctx: &mut Ctx) {
    protocol_exercise(ctx);
    let weights = UtilizationModel::for_cluster(Cluster::Grizzly).bucket_weights();
    let groups =
        MonteCarlo::default().node_groups(SelectionPolicy::MarginAware, ctx.trials, ctx.seed);
    let mut rows = vec![vec![
        "hierarchy".into(),
        "margin_mts".into(),
        "design".into(),
        "bucket".into(),
        "normalized_perf".into(),
    ]];
    let mut overall = Vec::new();
    let lookups = [800u32, 600].into_iter().flat_map(|margin| {
        fig12_designs(margin).into_iter().flat_map(|design| {
            UsageBucket::ALL
                .into_iter()
                .flat_map(move |b| Suite::ALL.map(|suite| (design, suite, b)))
        })
    });
    let runs = normalized_runs(lookups);
    for h in HierarchyConfig::both() {
        let m = model(ctx, h);
        m.prime(&runs);
        for margin in [800u32, 600] {
            say!(
                ctx,
                "{} @ {:.1} GT/s margin:",
                h.name,
                margin as f64 / 1000.0
            );
            sayp!(ctx, "{:<24}", "design");
            for b in UsageBucket::ALL {
                sayp!(ctx, " {:>10}", b.label());
            }
            say!(ctx, " {:>10}", "[0~100%]");
            for design in fig12_designs(margin) {
                sayp!(ctx, "{:<24}", design.name());
                for b in UsageBucket::ALL {
                    let v = m.suite_average(design, b);
                    if h.name == "Hierarchy1"
                        && b == UsageBucket::Low
                        && design == (MemoryDesign::HeteroDmr { margin_mts: 800 })
                    {
                        ctx.summary("fig12.h1.hdmr800.low", v);
                    }
                    sayp!(ctx, " {:>9.3}x", v);
                    rows.push(vec![
                        h.name.into(),
                        margin.to_string(),
                        design.name(),
                        b.label().into(),
                        format!("{v:.4}"),
                    ]);
                }
                say!(ctx, " {:>9.3}x", m.usage_weighted(design, weights));
            }
        }
        let hdmr = m.margin_weighted(
            |mts| MemoryDesign::HeteroDmr { margin_mts: mts },
            &groups,
            weights,
        );
        let hf = m.margin_weighted(
            |mts| MemoryDesign::HeteroDmrFmr { margin_mts: mts },
            &groups,
            weights,
        );
        let fmr = m.usage_weighted(MemoryDesign::Fmr, weights);
        say!(ctx,
            "{}: margin+usage-weighted Hetero-DMR {:.3}x | FMR {:.3}x | Hetero-DMR+FMR {:.3}x (H+F/FMR = {:.3}x)",
            h.name,
            hdmr,
            fmr,
            hf,
            hf / fmr
        );
        overall.push(hdmr);
    }
    let headline = overall.iter().sum::<f64>() / overall.len() as f64;
    say!(ctx,
        "HEADLINE: Hetero-DMR node-level improvement, weighted across margins, usage, and hierarchies: {:.1}% (paper: 18%)",
        (headline - 1.0) * 100.0
    );
    ctx.csv("fig12", &rows);
}

/// Figure 13: system-level energy per instruction, normalized. DRAM
/// energy comes from the state-residency model at DDR4-3200, CPU
/// energy from [`CpuPowerParams`].
pub fn fig13(ctx: &mut Ctx) {
    let (dram, cpu) = (ResidencyModel::ddr4_3200(), CpuPowerParams::default());
    let mut rows = vec![vec![
        "hierarchy".into(),
        "design".into(),
        "normalized_epi".into(),
    ]];
    let designs = [
        MemoryDesign::Fmr,
        MemoryDesign::HeteroDmr { margin_mts: 800 },
        MemoryDesign::HeteroDmrFmr { margin_mts: 800 },
    ];
    let runs: Vec<_> = designs
        .into_iter()
        .flat_map(|design| {
            Suite::ALL
                .into_iter()
                .flat_map(move |suite| [(MemoryDesign::CommercialBaseline, suite), (design, suite)])
        })
        .collect();
    for h in HierarchyConfig::both() {
        let m = model(ctx, h);
        m.prime(&runs);
        say!(
            ctx,
            "{} (EPI normalized to Commercial Baseline, [0~25%) usage):",
            h.name
        );
        let epi = |design, suite| {
            let r = m.run(design, suite);
            let cpu_j = cpu.energy_j(energy::ps_to_s(r.exec_time_ps), r.instructions);
            (m.energy(design, suite, &dram).total_j() + cpu_j) / r.instructions as f64
        };
        for design in designs {
            let mut epi_ratio = 0.0;
            for suite in Suite::ALL {
                epi_ratio += epi(design, suite) / epi(MemoryDesign::CommercialBaseline, suite);
            }
            epi_ratio /= Suite::ALL.len() as f64;
            if h.name == "Hierarchy1" && matches!(design, MemoryDesign::HeteroDmr { .. }) {
                ctx.summary("fig13.h1.hdmr800.epi", epi_ratio);
            }
            say!(
                ctx,
                "  {:<24} {:>6.3} (paper: Hetero-DMR ~0.94)",
                design.name(),
                epi_ratio
            );
            rows.push(vec![
                h.name.into(),
                design.name(),
                format!("{epi_ratio:.4}"),
            ]);
        }
    }
    ctx.csv("fig13", &rows);
}

/// Figure 14: DRAM accesses per instruction, normalized to baseline.
pub fn fig14(ctx: &mut Ctx) {
    let m = model(ctx, HierarchyConfig::hierarchy1());
    let hf = MemoryDesign::HeteroDmrFmr { margin_mts: 800 };
    let runs: Vec<_> = Suite::ALL
        .into_iter()
        .flat_map(|suite| [(MemoryDesign::CommercialBaseline, suite), (hf, suite)])
        .collect();
    m.prime(&runs);
    let mut rows = vec![vec!["suite".into(), "normalized_accesses_per_instr".into()]];
    say!(
        ctx,
        "Hetero-DMR+FMR@0.8GT/s DRAM accesses/instruction vs baseline (Hierarchy1):"
    );
    let mut avg = 0.0;
    for suite in Suite::ALL {
        let base = m.run(MemoryDesign::CommercialBaseline, suite);
        let fast = m.run(hf, suite);
        let ratio = fast.dram_accesses_per_instruction() / base.dram_accesses_per_instruction();
        say!(ctx, "  {:<10} {:>6.3}", suite.name(), ratio);
        rows.push(vec![suite.name().into(), format!("{ratio:.4}")]);
        avg += ratio;
    }
    say!(
        ctx,
        "  average    {:>6.3}  (paper: <1% overhead on average)",
        avg / Suite::ALL.len() as f64
    );
    ctx.summary("fig14.mean_accesses", avg / Suite::ALL.len() as f64);
    ctx.csv("fig14", &rows);
}

/// Figure 15: DRAM bandwidth utilization and write share per suite.
pub fn fig15(ctx: &mut Ctx) {
    let m = model(ctx, HierarchyConfig::hierarchy1());
    m.prime(&Suite::ALL.map(|suite| (MemoryDesign::CommercialBaseline, suite)));
    let mut rows = vec![vec![
        "suite".into(),
        "bandwidth_utilization".into(),
        "write_fraction".into(),
    ]];
    say!(ctx, "Commercial Baseline, Hierarchy1:");
    say!(
        ctx,
        "{:<10} {:>14} {:>14}",
        "suite",
        "bandwidth util",
        "write fraction"
    );
    let (mut wf, mut bw) = (0.0, 0.0);
    for suite in Suite::ALL {
        let r = m.run(MemoryDesign::CommercialBaseline, suite);
        say!(
            ctx,
            "{:<10} {:>13.1}% {:>13.1}%",
            suite.name(),
            r.bandwidth_utilization() * 100.0,
            r.write_fraction() * 100.0
        );
        rows.push(vec![
            suite.name().into(),
            format!("{:.4}", r.bandwidth_utilization()),
            format!("{:.4}", r.write_fraction()),
        ]);
        wf += r.write_fraction();
        bw += r.bandwidth_utilization();
    }
    say!(
        ctx,
        "average write fraction: {:.1}% (paper: ~15%)",
        wf / Suite::ALL.len() as f64 * 100.0
    );
    ctx.summary("fig15.mean_bw_util", bw / Suite::ALL.len() as f64);
    ctx.csv("fig15", &rows);
}

/// Figure 16: silicon corroboration — simulated Hetero-DMR vs the
/// emulation formula applied to the Exploit-Freq+Lat run.
pub fn fig16(ctx: &mut Ctx) {
    let m = model(ctx, HierarchyConfig::hierarchy1());
    let hdmr = MemoryDesign::HeteroDmr { margin_mts: 800 };
    let runs: Vec<_> = Suite::ALL
        .into_iter()
        .flat_map(|suite| {
            [
                (MemoryDesign::CommercialBaseline, suite),
                (MemoryDesign::ExploitFreqLat, suite),
            ]
            .into_iter()
            .chain(normalized_runs([(hdmr, suite, UsageBucket::Low)]))
        })
        .collect();
    m.prime(&runs);
    let mut rows = vec![vec![
        "suite".into(),
        "simulated_hdmr".into(),
        "emulated_hdmr".into(),
        "freq_lat".into(),
    ]];
    say!(ctx, "Hierarchy1, speedups over Commercial Baseline:");
    say!(
        ctx,
        "{:<10} {:>14} {:>14} {:>10}",
        "suite",
        "sim Hetero-DMR",
        "emu Hetero-DMR",
        "freq+lat"
    );
    let (mut ds, mut de) = (0.0, 0.0);
    for suite in Suite::ALL {
        let base = m.run(MemoryDesign::CommercialBaseline, suite);
        let fast = m.run(MemoryDesign::ExploitFreqLat, suite);
        let sim = m.normalized(hdmr, suite, UsageBucket::Low);
        let emu = EmulationInputs::from_fast_run(&fast, dram::rate::DataRate::MT3200)
            .emulated_speedup(base.exec_time_ps);
        let fl = fast.speedup_over(&base);
        say!(
            ctx,
            "{:<10} {:>13.3}x {:>13.3}x {:>9.3}x",
            suite.name(),
            sim,
            emu,
            fl
        );
        rows.push(vec![
            suite.name().into(),
            format!("{sim:.4}"),
            format!("{emu:.4}"),
            format!("{fl:.4}"),
        ]);
        ds += sim;
        de += emu;
    }
    let n = Suite::ALL.len() as f64;
    say!(
        ctx,
        "average: simulated {:.3}x vs emulated {:.3}x — difference {:.1}% (paper: ~2-3%)",
        ds / n,
        de / n,
        ((de - ds) / ds * 100.0).abs()
    );
    ctx.csv("fig16", &rows);
}
