//! Simulator invariants: properties that must hold for any
//! configuration — determinism, bus accounting, traffic conservation,
//! and monotonic responses to the knobs the paper varies.

use hetero_dmr::{EvalConfig, MemoryDesign, NodeModel, UsageBucket};
use memsim::config::{ChannelMode, HierarchyConfig};
use memsim::NodeSim;
use proptest::prelude::*;
use workloads::{Suite, TraceGen};

fn run_suite(mode: ChannelMode, suite: Suite, ops: usize, seed: u64) -> memsim::SimResult {
    let h = HierarchyConfig::hierarchy1();
    let mut node = NodeSim::new(h, mode);
    let streams: Vec<_> = (0..h.cores)
        .map(|i| TraceGen::new(suite.params(), seed + i as u64, ops))
        .collect();
    let warm = node.l3_blocks_per_core();
    for (i, s) in streams.iter().enumerate() {
        node.prewarm_core(i, s.warmup(warm, suite.params().write_fraction));
    }
    node.run(streams)
}

#[test]
fn simulation_is_bit_deterministic() {
    for design in [
        MemoryDesign::CommercialBaseline,
        MemoryDesign::HeteroDmr { margin_mts: 800 },
    ] {
        let a = run_suite(design.channel_mode(), Suite::Coral2, 2_000, 5);
        let b = run_suite(design.channel_mode(), Suite::Coral2, 2_000, 5);
        assert_eq!(a, b, "{design:?} must be deterministic");
    }
}

#[test]
fn bus_occupancy_never_exceeds_wall_time() {
    for suite in [Suite::Linpack, Suite::Graph500] {
        let r = run_suite(ChannelMode::commercial_baseline(), suite, 3_000, 7);
        assert!(
            r.controller.bus_busy_ps <= r.slowest_core_ps * r.channels as u64,
            "{suite}: bus busy {} vs wall time {}",
            r.controller.bus_busy_ps,
            r.slowest_core_ps
        );
        assert!(r.exec_time_ps <= r.slowest_core_ps, "mean <= max");
        // Each burst moved 64 bytes: busy time and byte counts agree.
        let bursts = r.controller.reads + r.controller.writes;
        assert!(r.controller.bus_busy_ps >= bursts * 2_000); // ≥ fastest burst
        assert!(r.controller.bus_busy_ps <= bursts * 2_500 + 1); // ≤ slowest burst
    }
}

#[test]
fn row_hits_bounded_by_accesses_and_activates_cover_misses() {
    let r = run_suite(ChannelMode::commercial_baseline(), Suite::Npb, 3_000, 11);
    let accesses = r.controller.reads + r.controller.writes;
    assert!(r.controller.row_hits <= accesses);
    // Every non-hit column access requires an activation (plus
    // background ones from refresh/shadow effects).
    assert!(r.controller.activates + r.controller.row_hits >= accesses);
}

#[test]
fn demand_misses_match_dram_reads_minus_prefetch() {
    let r = run_suite(ChannelMode::commercial_baseline(), Suite::Hpcg, 3_000, 13);
    // Demand misses are a lower bound on DRAM reads (prefetches and
    // store RFOs add on top); wbcache hits subtract.
    assert!(
        r.controller.reads + r.controller.wb_cache_hits >= r.cache_misses,
        "reads {} + wb hits {} vs misses {}",
        r.controller.reads,
        r.controller.wb_cache_hits,
        r.cache_misses
    );
}

#[test]
fn instructions_accounted_exactly() {
    let ops = 2_500usize;
    let h = HierarchyConfig::hierarchy1();
    let streams: Vec<Vec<_>> = (0..h.cores)
        .map(|i| TraceGen::new(Suite::Lulesh.params(), 100 + i as u64, ops).collect())
        .collect();
    let expected: u64 = streams
        .iter()
        .flatten()
        .map(|op| op.gap_instructions as u64 + 1)
        .sum();
    let mut node = NodeSim::new(h, ChannelMode::commercial_baseline());
    let r = node.run(streams.into_iter().map(Vec::into_iter).collect());
    assert_eq!(r.instructions, expected);
}

#[test]
fn node_model_cache_is_coherent_with_fresh_runs() {
    let m = NodeModel::new(
        HierarchyConfig::hierarchy1(),
        EvalConfig {
            ops_per_core: 2_000,
            seed: 3,
            windows: 1,
        },
    );
    let first = m.run(MemoryDesign::Fmr, Suite::Npb);
    let second = m.run(MemoryDesign::Fmr, Suite::Npb);
    assert_eq!(first, second);
    // A distinct engine reproduces the same numbers.
    let m2 = NodeModel::new(
        HierarchyConfig::hierarchy1(),
        EvalConfig {
            ops_per_core: 2_000,
            seed: 3,
            windows: 1,
        },
    );
    assert_eq!(m2.run(MemoryDesign::Fmr, Suite::Npb), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Raising only the data rate never slows a run down.
    #[test]
    fn more_data_rate_never_hurts(extra in prop_oneof![Just(0u32), Just(400), Just(800)]) {
        let faster = dram::timing::MemorySetting::Specified
            .timing()
            .at_rate(dram::rate::DataRate::MT3200.plus_margin(extra));
        let mode = ChannelMode::builder()
            .timings(faster)
            .build()
            .expect("uniform overclock is a valid mode");
        let base = run_suite(ChannelMode::commercial_baseline(), Suite::Hpcg, 2_000, 21);
        let fast = run_suite(mode, Suite::Hpcg, 2_000, 21);
        prop_assert!(fast.exec_time_ps <= base.exec_time_ps * 101 / 100,
            "rate +{} MT/s slowed the run: {} vs {}", extra, fast.exec_time_ps, base.exec_time_ps);
    }

    /// Usage-bucket weighting is a convex combination: the blended
    /// number never exceeds the best bucket or undercuts the worst.
    #[test]
    fn usage_weighting_is_convex(w0 in 0.0f64..1.0, w1 in 0.0f64..1.0) {
        let total = w0 + w1;
        prop_assume!(total < 1.0);
        let weights = [w0, w1, 1.0 - total];
        let m = NodeModel::new(
            HierarchyConfig::hierarchy1(),
            EvalConfig { ops_per_core: 1_500, seed: 9, windows: 1 },
        );
        let design = MemoryDesign::HeteroDmr { margin_mts: 800 };
        let per_bucket: Vec<f64> = UsageBucket::ALL
            .iter()
            .map(|&b| m.suite_average(design, b))
            .collect();
        let blended = m.usage_weighted(design, weights);
        let lo = per_bucket.iter().cloned().fold(f64::MAX, f64::min);
        let hi = per_bucket.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(blended >= lo - 1e-9 && blended <= hi + 1e-9);
    }
}
