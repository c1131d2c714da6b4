//! Property tests for the characterization substrate.

use dram::rate::DataRate;
use margin::composition::{channel_margin, node_margin, SelectionPolicy};
use margin::errors::{ErrorProfile, TestCondition::*};
use margin::population::{quantize, ModulePopulation};
use margin::stress::{measure_margin, sample_poisson, StressConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The stress measurement never over-reports: the measured margin
    /// is at most the true margin, within one 200 MT/s step of it
    /// (unless the system cap binds), and step-aligned.
    #[test]
    fn measurement_is_conservative_and_tight(true_margin in 0u32..2_000, spec in prop_oneof![Just(DataRate::MT2400), Just(DataRate::MT3200)]) {
        let cfg = StressConfig::default();
        let measured = measure_margin(spec, true_margin, &cfg);
        prop_assert!(measured <= true_margin);
        prop_assert_eq!(measured % cfg.step_mts, 0);
        let cap = cfg.rate_cap_mts.saturating_sub(spec.mts());
        if measured < cap {
            prop_assert!(true_margin - measured < cfg.step_mts,
                "measured {measured} is more than one step below true {true_margin}");
        } else {
            prop_assert_eq!(measured, cap);
        }
    }

    /// Quantization is idempotent and monotone.
    #[test]
    fn quantize_properties(a in 0u32..10_000, b in 0u32..10_000) {
        prop_assert_eq!(quantize(quantize(a)), quantize(a));
        if a <= b {
            prop_assert!(quantize(a) <= quantize(b));
        }
        prop_assert!(quantize(a) <= a);
    }

    /// Margin composition: aware ≥ unaware ≥ 0, node ≤ every channel.
    #[test]
    fn composition_orderings(margins in proptest::collection::vec(0u32..1_600, 1..24)) {
        let aware = channel_margin(&margins, SelectionPolicy::MarginAware);
        let unaware = channel_margin(&margins, SelectionPolicy::MarginUnaware);
        prop_assert!(aware >= unaware);
        prop_assert_eq!(aware, *margins.iter().max().unwrap());
        let node = node_margin(&margins);
        for &m in &margins {
            prop_assert!(node <= m);
        }
    }

    /// The Poisson sampler is nonnegative and zero iff λ ≤ 0 …
    /// statistically (mean within 3σ for moderate λ).
    #[test]
    fn poisson_sampler_sane(lambda in 0.0f64..200.0, seed in 0u64..1_000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 200;
        let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
        let mean = total as f64 / n as f64;
        if lambda == 0.0 {
            prop_assert_eq!(total, 0);
        } else {
            let sigma = (lambda / n as f64).sqrt();
            prop_assert!((mean - lambda).abs() < 6.0 * sigma.max(0.3),
                "lambda {lambda}: sample mean {mean}");
        }
    }

    /// Metamorphic: at 23 °C, latency margins on top of the frequency
    /// margin never lower a module's CE or UE rate, and under either
    /// margin neither does 45 °C (PAPER §II; AL-DRAM's findings).
    /// Each case samples 2 000 profiles, so a defect that touches a
    /// fraction of a percent of modules shows within a few cases.
    #[test]
    fn error_rates_never_fall_with_latency_margins_or_heat(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spec = ModulePopulation::paper_study(1).modules()[0].spec;
        for _ in 0..2_000 {
            let p = ErrorProfile::sample(&mut rng, &spec);
            for rate in [ErrorProfile::ce_per_hour, ErrorProfile::ue_per_hour] {
                prop_assert!(rate(&p, FreqLat23C) >= rate(&p, Freq23C), "{p:?}");
                prop_assert!(rate(&p, Freq45C) >= rate(&p, Freq23C), "{p:?}");
                prop_assert!(rate(&p, FreqLat45C) >= rate(&p, FreqLat23C), "{p:?}");
            }
        }
    }
}

/// The population regenerates identically per seed and its observable
/// aggregates stay inside the bands the paper reports, across many
/// seeds (not just the default one).
#[test]
fn population_aggregates_stable_across_seeds() {
    for seed in [1u64, 7, 42, 1337, 0xD1A2] {
        let pop = ModulePopulation::paper_study(seed);
        let margins: Vec<f64> = pop
            .mainstream()
            .map(|m| m.measured_margin_mts as f64)
            .collect();
        let mean = margin::stats::mean(&margins);
        assert!(
            (600.0..900.0).contains(&mean),
            "seed {seed}: A-C mean margin {mean}"
        );
        let norm: Vec<f64> = pop.mainstream().map(|m| m.normalized_margin()).collect();
        let mean_norm = margin::stats::mean(&norm);
        assert!(
            (0.20..0.34).contains(&mean_norm),
            "seed {seed}: normalized margin {mean_norm}"
        );
    }
}
