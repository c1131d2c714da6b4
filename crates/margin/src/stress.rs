//! The simulated stress-test / margin-measurement procedure.
//!
//! The paper measures a module's frequency margin by installing it
//! alone, stepping the data rate in 200 MT/s increments (a BIOS
//! limitation), and accepting the highest rate at which the module
//! still carries out 99.999 %+ of accesses without error during a
//! one-hour stress test at standard 1.2 V. This module reproduces that
//! procedure against the population model's ground truth, and also
//! simulates the one-hour CE/UE counting runs of Figure 6.

use crate::errors::{ErrorProfile, TestCondition};
use crate::population::SYSTEM_RATE_CAP_MTS;
use dram::rate::DataRate;
use rand::Rng;
use telemetry::{Counter, Scope};

/// Parameters of the measurement procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressConfig {
    /// Data-rate step (the paper's BIOS allows 200 MT/s).
    pub step_mts: u32,
    /// System-level data-rate cap of the testbed.
    pub rate_cap_mts: u32,
    /// Required fraction of correct accesses (the paper's 99.999 %+).
    pub accuracy_threshold: f64,
    /// Stress duration in hours.
    pub hours: f64,
}

impl Default for StressConfig {
    fn default() -> StressConfig {
        StressConfig {
            step_mts: 200,
            rate_cap_mts: SYSTEM_RATE_CAP_MTS,
            accuracy_threshold: 0.99999,
            hours: 1.0,
        }
    }
}

/// Telemetry counters over the profiling procedure: how many modules
/// were measured and how many rate steps that took. Detached until
/// [`StressMeter::bind`] folds the handles into a registry scope.
#[derive(Debug, Default)]
pub struct StressMeter {
    modules_profiled: Counter,
    steps_tested: Counter,
}

impl StressMeter {
    /// Rebinds every counter into `scope`, carrying prior values over.
    pub fn bind(&mut self, scope: &Scope) {
        self.modules_profiled.rebind(scope, "modules_profiled");
        self.steps_tested.rebind(scope, "steps_tested");
    }

    /// Individual rate steps attempted across all modules.
    pub fn steps_tested(&self) -> u64 {
        self.steps_tested.get()
    }
}

/// Measures a module's frequency margin the way the paper's testbed
/// does: step up from the labelled rate until the module no longer
/// meets the accuracy threshold (its true margin) or the system cap is
/// hit; report the last passing step. With a `meter`, counts the
/// module and every rate step it takes.
///
/// Returns the measured margin in MT/s.
pub fn measure_margin(
    specified: DataRate,
    true_margin_mts: u32,
    config: &StressConfig,
    meter: Option<&StressMeter>,
) -> u32 {
    if let Some(m) = meter {
        m.modules_profiled.inc();
    }
    let mut passing = 0u32;
    let mut candidate = config.step_mts;
    loop {
        let rate = specified.mts() + candidate;
        if rate > config.rate_cap_mts {
            break;
        }
        // Stepping to this candidate is one one-hour stress run on the
        // testbed — the unit of profiling effort.
        if let Some(m) = meter {
            m.steps_tested.inc();
        }
        if candidate > true_margin_mts {
            break;
        }
        passing = candidate;
        candidate += config.step_mts;
    }
    passing
}

/// Outcome of one timed stress run (Figure 6's per-module bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressOutcome {
    /// Corrected errors observed.
    pub corrected: u64,
    /// Uncorrected errors observed.
    pub uncorrected: u64,
}

impl StressOutcome {
    /// Whether the run was completely error free (unplotted in Fig 6).
    pub fn error_free(&self) -> bool {
        self.corrected == 0 && self.uncorrected == 0
    }
}

/// Runs a simulated stress test of `config.hours` against a module's
/// error profile under `condition`, Poisson-sampling the error counts.
pub fn run_stress_test<R: Rng + ?Sized>(
    rng: &mut R,
    profile: &ErrorProfile,
    condition: TestCondition,
    config: &StressConfig,
) -> StressOutcome {
    StressOutcome {
        corrected: sample_poisson(rng, profile.ce_per_hour(condition) * config.hours),
        uncorrected: sample_poisson(rng, profile.ue_per_hour(condition) * config.hours),
    }
}

/// Poisson sampler: Knuth's algorithm for small λ, normal
/// approximation beyond.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.random();
        let mut count = 0u64;
        while product > limit {
            product *= rng.random::<f64>();
            count += 1;
        }
        count
    } else {
        let sample = crate::stats::sample_normal(rng, lambda, lambda.sqrt());
        sample.round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measurement_floors_to_step() {
        let cfg = StressConfig::default();
        assert_eq!(measure_margin(DataRate::MT3200, 799, &cfg, None), 600);
        assert_eq!(measure_margin(DataRate::MT3200, 800, &cfg, None), 800);
        assert_eq!(measure_margin(DataRate::MT3200, 150, &cfg, None), 0);
    }

    #[test]
    fn measurement_respects_system_cap() {
        let cfg = StressConfig::default();
        // A 3200 module with a huge true margin still measures 800.
        assert_eq!(measure_margin(DataRate::MT3200, 1400, &cfg, None), 800);
        // A 2400 module with the same true margin measures it fully.
        assert_eq!(measure_margin(DataRate::MT2400, 1400, &cfg, None), 1400);
    }

    #[test]
    fn finer_step_measures_more() {
        let fine = StressConfig {
            step_mts: 100,
            ..StressConfig::default()
        };
        let coarse = StressConfig::default();
        assert_eq!(measure_margin(DataRate::MT2400, 750, &fine, None), 700);
        assert_eq!(measure_margin(DataRate::MT2400, 750, &coarse, None), 600);
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        for &lambda in &[0.5, 5.0, 50.0, 500.0] {
            let n = 4_000;
            let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda {lambda} mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        assert_eq!(sample_poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn stress_run_scales_with_duration() {
        let mut rng = StdRng::seed_from_u64(5);
        let profile = ErrorProfile {
            ce_freq_23c: 100.0,
            ue_freq_23c: 0.0,
            hot_multiplier_freq: 4.0,
            lat_multiplier: 2.0,
            hot_multiplier_freq_lat: 2.0,
        };
        let one = StressConfig::default();
        let ten = StressConfig {
            hours: 10.0,
            ..StressConfig::default()
        };
        let short: u64 = (0..50)
            .map(|_| run_stress_test(&mut rng, &profile, TestCondition::Freq23C, &one).corrected)
            .sum();
        let long: u64 = (0..50)
            .map(|_| run_stress_test(&mut rng, &profile, TestCondition::Freq23C, &ten).corrected)
            .sum();
        let ratio = long as f64 / short as f64;
        assert!(ratio > 8.0 && ratio < 12.0, "ratio {ratio}");
    }

    #[test]
    fn error_free_profile_gives_error_free_outcome() {
        let mut rng = StdRng::seed_from_u64(6);
        let profile = ErrorProfile {
            ce_freq_23c: 0.0,
            ue_freq_23c: 0.0,
            hot_multiplier_freq: 4.0,
            lat_multiplier: 2.0,
            hot_multiplier_freq_lat: 2.0,
        };
        let out = run_stress_test(
            &mut rng,
            &profile,
            TestCondition::FreqLat45C,
            &StressConfig::default(),
        );
        assert!(out.error_free());
    }
}
