//! Beyond the numbered figures: the paper's side investigations and
//! deployment-facing mechanisms.
//!
//! * the 1.35 V rate-cap probe (Section II-A),
//! * the fully-populated-system error rate (Section II-C),
//! * boot-time margin profiling (Section III-E),
//! * permanent-fault role remapping (Section III-E),
//! * Cloud generality and the DDR5 outlook (Section III-F).

use crate::context::{say, Ctx};
use dram::rate::DataRate;
use dram::timing::TimingParams;
use hetero_dmr::profiler::{ModuleUnderTest, NodeProfiler};
use hetero_dmr::protocol::HeteroDmrChannel;
use margin::errors::{system_rate_from_solo, TestCondition};
use margin::population::ModulePopulation;
use margin::voltage::investigate_rate_cap;
use margin::StressMeter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::utilization::UtilizationModel;

/// Runs every extra investigation.
pub fn extras(ctx: &mut Ctx) {
    voltage_probe(ctx);
    full_system_error_rate(ctx);
    boot_profiling(ctx);
    fault_remap_demo(ctx);
    generality(ctx);
}

fn voltage_probe(ctx: &mut Ctx) {
    say!(ctx, "-- Section II-A: the 1.35 V rate-cap probe --");
    let pop = ModulePopulation::paper_study(ctx.seed);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x135);
    let inv = investigate_rate_cap(&pop, &mut rng);
    say!(
        ctx,
        "3200 MT/s modules at the 4000 MT/s cap: {}; improved at 1.35 V: {} (paper: 0 of 36)",
        inv.capped_total,
        inv.capped_improved
    );
    say!(
        ctx,
        "3200 MT/s modules below the cap: {}; improved at 1.35 V: {} (paper: 22 of 27)",
        inv.uncapped_total,
        inv.uncapped_improved
    );
    say!(
        ctx,
        "conclusion: cap is system-level? {}",
        inv.cap_is_system_level()
    );
    ctx.csv(
        "extras_voltage",
        &[
            vec!["metric".into(), "value".into()],
            vec!["capped_total".into(), inv.capped_total.to_string()],
            vec!["capped_improved".into(), inv.capped_improved.to_string()],
            vec!["uncapped_total".into(), inv.uncapped_total.to_string()],
            vec![
                "uncapped_improved".into(),
                inv.uncapped_improved.to_string(),
            ],
        ],
    );
}

fn full_system_error_rate(ctx: &mut Ctx) {
    say!(ctx, "\n-- Section II-C: fully populated memory system --");
    let pop = ModulePopulation::paper_study(ctx.seed);
    let solo: f64 = pop
        .mainstream()
        .map(|m| m.errors.ce_per_hour(TestCondition::FreqLat23C))
        .sum::<f64>()
        / 103.0;
    let system = system_rate_from_solo(solo, 2);
    say!(
        ctx,
        "mean per-module solo error rate (freq+lat, 23C): {solo:.1}/h"
    );
    say!(ctx,
        "per-module rate with 2 modules/channel populated: {system:.1}/h (paper: about half the solo rate)"
    );
}

fn boot_profiling(ctx: &mut Ctx) {
    say!(ctx, "\n-- Section III-E: boot-time margin profiling --");
    let pop = ModulePopulation::paper_study(ctx.seed);
    // Build a 12-channel node from the first 24 mainstream modules.
    let modules: Vec<ModuleUnderTest> = pop
        .mainstream()
        .take(24)
        .map(|m| ModuleUnderTest {
            specified: m.spec.organization.specified_rate,
            true_margin_mts: m.true_margin_mts,
        })
        .collect();
    let channels: Vec<Vec<ModuleUnderTest>> = modules.chunks(2).map(<[_]>::to_vec).collect();
    let meter = ctx.metrics_scope("profiler").map(|scope| {
        let mut meter = StressMeter::default();
        meter.bind(&scope);
        meter
    });
    let profile = NodeProfiler::default().profile(&channels, meter.as_ref());
    say!(
        ctx,
        "profiled node: channel margins {:?}",
        profile.channel_margins
    );
    say!(
        ctx,
        "node margin {} MT/s -> scheduler group {}",
        profile.node_margin_mts,
        profile.group()
    );
}

fn fault_remap_demo(ctx: &mut Ctx) {
    say!(ctx, "\n-- Section III-E: permanent-fault role remapping --");
    let mut ch = HeteroDmrChannel::new(1 << 12);
    let mut t = ch.set_used_blocks(1 << 10, 0);
    ch.inject_persistent_copy_fault(9);
    for _ in 0..5 {
        let (_, _, end) = ch.read::<StdRng>(9, t, None).unwrap();
        t = end;
    }
    say!(ctx,
        "after a stuck cell in the copy module: {} recoveries, roles swapped = {}, transitions = {}",
        ch.stats().recoveries,
        ch.roles_swapped(),
        ch.transitions()
    );
    let before = ch.transitions();
    for _ in 0..100 {
        let (_, _, end) = ch.read::<StdRng>(9, t, None).unwrap();
        t = end;
    }
    say!(
        ctx,
        "100 further reads of the faulty block: {} extra transitions (remap ended the churn)",
        ch.transitions() - before
    );
}

fn generality(ctx: &mut Ctx) {
    say!(ctx, "\n-- Section III-F: generality --");
    let cloud = UtilizationModel::cloud();
    say!(ctx,
        "Cloud utilization model: {:.0}% of machines below 50% memory use -> Hetero-DMR-eligible (turbo-boost analogy)",
        cloud.eligible_fraction() * 100.0
    );
    let ddr4 = TimingParams::ddr4_3200_spec();
    let ddr5 = TimingParams::ddr5_4800_spec();
    let outlook = DataRate::MT4800.plus_margin((4800.0 * 0.25) as u32);
    say!(
        ctx,
        "DDR5 outlook: same eye width at all rates -> similar fractional margin expected; \
         a 25% margin on DDR5-4800 would mean {} (burst {} ps vs DDR4-3200's {} ps)",
        outlook,
        ddr5.at_rate(outlook).burst_ps(),
        ddr4.burst_ps()
    );
}
