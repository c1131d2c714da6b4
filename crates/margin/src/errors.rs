//! Per-module error-rate model (Figure 6 of the paper).
//!
//! The paper stress-tests every module for one hour at its highest
//! bootable data rate and records corrected errors (CE) and
//! uncorrected errors (UE), at 23 °C and in a 45 °C thermal chamber,
//! with and without latency margins. Its aggregate findings, which
//! this model reproduces:
//!
//! * many modules show **zero** errors (e.g. C22–C27 are "not plotted");
//! * rates span orders of magnitude across modules (lognormal here);
//! * at 45 °C the frequency-margin error rate is ~4× the 23 °C rate;
//! * with latency margins also exploited the 45 °C rate is ~2× its
//!   23 °C counterpart;
//! * populating every channel/slot halves the per-module rate (each
//!   module is accessed half as often) — the memory *system* keeps the
//!   same 800 MT/s margin.

use crate::population::ModuleSpec;
use crate::stats::sample_lognormal;
use rand::Rng;

/// The four stress-test conditions of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestCondition {
    /// Frequency margin only, 23 °C ambient.
    Freq23C,
    /// Frequency margin only, 45 °C chamber.
    Freq45C,
    /// Frequency + latency margins, 23 °C ambient.
    FreqLat23C,
    /// Frequency + latency margins, 45 °C chamber.
    FreqLat45C,
}

impl TestCondition {
    /// All conditions in Figure 6 order.
    pub const ALL: [TestCondition; 4] = [
        TestCondition::Freq23C,
        TestCondition::Freq45C,
        TestCondition::FreqLat23C,
        TestCondition::FreqLat45C,
    ];
}

/// CE/UE rates for one module at its highest bootable rate, per hour
/// of stress test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Corrected errors per hour, frequency margin, 23 °C.
    pub ce_freq_23c: f64,
    /// Uncorrected errors per hour, frequency margin, 23 °C.
    pub ue_freq_23c: f64,
    /// Temperature multiplier for frequency-only operation
    /// (~4× on average across the population, never below 1).
    pub hot_multiplier_freq: f64,
    /// Additional multiplier when latency margins are also exploited
    /// at 23 °C.
    pub lat_multiplier: f64,
    /// Temperature multiplier when both margins are exploited
    /// (~2× on average, never below 1).
    pub hot_multiplier_freq_lat: f64,
}

impl ErrorProfile {
    /// Samples a module's error profile.
    ///
    /// Roughly 30 % of modules show zero errors at their highest
    /// bootable rate; the rest draw from a lognormal spanning roughly
    /// 1–10⁵ errors/hour. About 6 % of erroring modules also show UEs.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, _spec: &ModuleSpec) -> ErrorProfile {
        let error_free = rng.random_bool(0.3);
        let ce = if error_free {
            0.0
        } else {
            sample_lognormal(rng, 4.0, 2.0) // median ≈ 55/h
        };
        let ue = if !error_free && rng.random_bool(0.06) {
            sample_lognormal(rng, 0.0, 1.0) // a handful per hour
        } else {
            0.0
        };
        // Heat never lowers an error rate, so the temperature
        // multipliers are floored at 1 after their draws (the floor
        // leaves the RNG stream unchanged).
        ErrorProfile {
            ce_freq_23c: ce,
            ue_freq_23c: ue,
            hot_multiplier_freq: (4.0 * sample_lognormal(rng, 0.0, 0.25)).max(1.0),
            lat_multiplier: 1.0 + sample_lognormal(rng, 0.0, 0.5),
            hot_multiplier_freq_lat: (2.0 * sample_lognormal(rng, 0.0, 0.25)).max(1.0),
        }
    }

    /// Corrected errors per hour under `condition`.
    pub fn ce_per_hour(&self, condition: TestCondition) -> f64 {
        match condition {
            TestCondition::Freq23C => self.ce_freq_23c,
            TestCondition::Freq45C => self.ce_freq_23c * self.hot_multiplier_freq,
            TestCondition::FreqLat23C => self.ce_freq_23c * self.lat_multiplier,
            TestCondition::FreqLat45C => {
                self.ce_freq_23c * self.lat_multiplier * self.hot_multiplier_freq_lat
            }
        }
    }

    /// Uncorrected errors per hour under `condition` (scaled with the
    /// same multipliers).
    pub fn ue_per_hour(&self, condition: TestCondition) -> f64 {
        match condition {
            TestCondition::Freq23C => self.ue_freq_23c,
            TestCondition::Freq45C => self.ue_freq_23c * self.hot_multiplier_freq,
            TestCondition::FreqLat23C => self.ue_freq_23c * self.lat_multiplier,
            TestCondition::FreqLat45C => {
                self.ue_freq_23c * self.lat_multiplier * self.hot_multiplier_freq_lat
            }
        }
    }

    /// Whether the one-hour stress test records any error at all under
    /// `condition` (unplotted modules in Figure 6).
    pub fn error_free(&self, condition: TestCondition) -> bool {
        self.ce_per_hour(condition) < 1.0 && self.ue_per_hour(condition) < 1.0
    }
}

/// Error rate of a *fully populated* memory system relative to the sum
/// of its modules' solo rates: with two modules per channel each module
/// serves half the accesses, halving its error rate (Section II-C).
pub fn system_rate_from_solo(solo_rate_per_hour: f64, modules_per_channel: usize) -> f64 {
    solo_rate_per_hour / modules_per_channel as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brand::Brand;
    use crate::population::{ModuleCondition, ModuleSpec};
    use dram::organization::ModuleOrganization;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> ModuleSpec {
        ModuleSpec {
            index: 1,
            brand: Brand::A,
            organization: ModuleOrganization::ddr4_3200_9cpr_dual_rank(),
            condition: ModuleCondition::New,
            manufactured_year: 2019,
        }
    }

    fn profiles(n: usize) -> Vec<ErrorProfile> {
        let mut rng = StdRng::seed_from_u64(99);
        let s = spec();
        (0..n).map(|_| ErrorProfile::sample(&mut rng, &s)).collect()
    }

    #[test]
    fn some_modules_are_error_free() {
        let ps = profiles(200);
        let zero = ps
            .iter()
            .filter(|p| p.error_free(TestCondition::Freq23C))
            .count();
        assert!(zero > 30 && zero < 120, "zero-error modules: {zero}");
    }

    #[test]
    fn heat_multiplies_error_rate_about_4x() {
        let ps = profiles(500);
        let (mut cold, mut hot) = (0.0, 0.0);
        for p in &ps {
            cold += p.ce_per_hour(TestCondition::Freq23C);
            hot += p.ce_per_hour(TestCondition::Freq45C);
        }
        let ratio = hot / cold;
        assert!(ratio > 3.0 && ratio < 5.5, "hot/cold ratio {ratio}");
    }

    #[test]
    fn freq_lat_heat_ratio_about_2x() {
        let ps = profiles(500);
        let (mut cold, mut hot) = (0.0, 0.0);
        for p in &ps {
            cold += p.ce_per_hour(TestCondition::FreqLat23C);
            hot += p.ce_per_hour(TestCondition::FreqLat45C);
        }
        let ratio = hot / cold;
        assert!(ratio > 1.5 && ratio < 2.8, "ratio {ratio}");
    }

    #[test]
    fn latency_margins_worsen_errors() {
        let ps = profiles(300);
        let freq: f64 = ps
            .iter()
            .map(|p| p.ce_per_hour(TestCondition::Freq23C))
            .sum();
        let both: f64 = ps
            .iter()
            .map(|p| p.ce_per_hour(TestCondition::FreqLat23C))
            .sum();
        assert!(both > freq);
    }

    #[test]
    fn ue_rarer_than_ce() {
        let ps = profiles(500);
        let with_ce = ps.iter().filter(|p| p.ce_freq_23c > 0.0).count();
        let with_ue = ps.iter().filter(|p| p.ue_freq_23c > 0.0).count();
        assert!(with_ue < with_ce / 4, "ce {with_ce} ue {with_ue}");
    }

    #[test]
    fn full_system_halves_per_module_rate() {
        assert_eq!(system_rate_from_solo(100.0, 2), 50.0);
        assert_eq!(system_rate_from_solo(0.0, 2), 0.0);
    }

    #[test]
    fn rates_are_nonnegative() {
        for p in profiles(200) {
            for c in TestCondition::ALL {
                assert!(p.ce_per_hour(c) >= 0.0);
                assert!(p.ue_per_hour(c) >= 0.0);
            }
        }
    }
}
