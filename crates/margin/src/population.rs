//! The synthetic 119-module study population.
//!
//! Composition mirrors the paper's study: 103 modules from the three
//! major brands A–C (44 × 3200 MT/s with 9 chips/rank, 27 × 3200 MT/s
//! with 18 chips/rank, 32 × 2400 MT/s) plus 16 modules from the small
//! vendor D; 3006 chips in total. A subset is borrowed from a
//! three-year-old in-production cluster or refurbished (Figure 4a
//! finds aging does not matter). The testbed caps observable data
//! rates at 4000 MT/s (Section II-A), which truncates the measurable
//! margin of 3200 MT/s modules at 800 MT/s — reproduced here so the
//! population's observable statistics match the paper's.

use crate::brand::Brand;
use crate::errors::ErrorProfile;
use crate::stats::sample_normal;
use dram::organization::{ChipDensity, ModuleOrganization};
use dram::rate::DataRate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The system-level data-rate cap of the paper's testbed.
pub const SYSTEM_RATE_CAP_MTS: u32 = 4000;

/// Provenance of a module in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleCondition {
    /// Purchased new for the study.
    New,
    /// Extracted from a three-year-old in-production cluster
    /// (modules A8–A31 in the paper; not thermal-chamber tested).
    InProduction,
    /// Refurbished stock.
    Refurbished,
}

/// Static description of one module in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleSpec {
    /// Index within its brand (e.g. the `40` of "A40").
    pub index: u32,
    /// Manufacturer.
    pub brand: Brand,
    /// Physical organization (chips/rank, ranks, density, labelled rate).
    pub organization: ModuleOrganization,
    /// Provenance.
    pub condition: ModuleCondition,
    /// Manufacturing year (2017–2020 in the study).
    pub manufactured_year: u16,
}

impl ModuleSpec {
    /// The module's study label, e.g. "A40".
    pub fn label(&self) -> String {
        let letter = match self.brand {
            Brand::A => 'A',
            Brand::B => 'B',
            Brand::C => 'C',
            Brand::D => 'D',
        };
        format!("{letter}{}", self.index)
    }
}

/// One module with its (simulated) ground truth and measurement.
#[derive(Debug, Clone)]
pub struct MeasuredModule {
    /// Static description.
    pub spec: ModuleSpec,
    /// The module's true frequency margin in MT/s at 23 °C ambient —
    /// the quantity a perfect, uncapped testbed would observe.
    pub true_margin_mts: u32,
    /// The margin the 200 MT/s-step, 4000 MT/s-capped testbed
    /// measures at 23 °C (what Figure 2 plots).
    pub measured_margin_mts: u32,
    /// Measured margin at 45 °C ambient (5 of 103 A–C modules lose a
    /// step, Section II-C).
    pub margin_at_45c_mts: u32,
    /// Measured margin at 45 °C when *also* exploiting latency margins
    /// (9 of 103 lose a step).
    pub freq_lat_margin_at_45c_mts: u32,
    /// Whether the module boots at all in the 45 °C chamber (a handful
    /// do not: A3, A40, A55, B12, B19, C3, C6, C10, C12).
    pub boots_at_45c: bool,
    /// Whether the module went into the thermal chamber (in-production
    /// loaners did not).
    pub chamber_tested: bool,
    /// Error rates at the highest bootable rate under the four tested
    /// conditions (Figure 6).
    pub errors: ErrorProfile,
}

impl MeasuredModule {
    /// Margin normalized to the labelled data rate (the paper's
    /// headline "27 % faster" metric).
    pub fn normalized_margin(&self) -> f64 {
        self.measured_margin_mts as f64 / self.spec.organization.specified_rate.mts() as f64
    }
}

/// The full study population.
#[derive(Debug, Clone)]
pub struct ModulePopulation {
    modules: Vec<MeasuredModule>,
}

impl ModulePopulation {
    /// Generates the 119-module population used throughout the
    /// reproduction, deterministically from `seed`.
    pub fn paper_study(seed: u64) -> ModulePopulation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut modules = Vec::with_capacity(119);
        let mut per_brand_index = [0u32; 4];

        // Brands A-C: 44 × (3200, 9cpr), 27 × (3200, 18cpr),
        // 20 × (2400, 9cpr), 12 × (2400, 18cpr).
        let mut configs: Vec<(DataRate, u8)> = Vec::new();
        configs.extend(std::iter::repeat_n((DataRate::MT3200, 9), 44));
        configs.extend(std::iter::repeat_n((DataRate::MT3200, 18), 27));
        configs.extend(std::iter::repeat_n((DataRate::MT2400, 9), 20));
        configs.extend(std::iter::repeat_n((DataRate::MT2400, 18), 12));
        for (i, (rate, cpr)) in configs.into_iter().enumerate() {
            let brand = Brand::MAINSTREAM[i % 3];
            let bi = brand_slot(brand);
            per_brand_index[bi] += 1;
            let index = per_brand_index[bi];
            // Paper: A8-A31 came from a 3-year-old production cluster.
            let condition = if brand == Brand::A && (8..=31).contains(&index) {
                ModuleCondition::InProduction
            } else if i % 11 == 10 {
                ModuleCondition::Refurbished
            } else {
                ModuleCondition::New
            };
            let spec = ModuleSpec {
                index,
                brand,
                organization: organization(rate, cpr, &mut rng),
                condition,
                manufactured_year: 2017 + rng.random_range(0..4),
            };
            modules.push(measure(spec, &mut rng));
        }

        // Brand D: 16 × (3200, 18cpr) budget modules.
        for _ in 0..16 {
            per_brand_index[3] += 1;
            let spec = ModuleSpec {
                index: per_brand_index[3],
                brand: Brand::D,
                organization: organization(DataRate::MT3200, 18, &mut rng),
                condition: ModuleCondition::New,
                manufactured_year: 2018 + rng.random_range(0..3),
            };
            modules.push(measure(spec, &mut rng));
        }

        ModulePopulation { modules }
    }

    /// All measured modules.
    pub fn modules(&self) -> &[MeasuredModule] {
        &self.modules
    }

    /// Total DRAM chips across the population (Table I's 3006).
    pub fn total_chips(&self) -> u32 {
        self.modules
            .iter()
            .map(|m| m.spec.organization.total_chips())
            .sum()
    }

    /// Modules of the three mainstream brands only.
    pub fn mainstream(&self) -> impl Iterator<Item = &MeasuredModule> {
        self.modules.iter().filter(|m| m.spec.brand != Brand::D)
    }
}

fn brand_slot(brand: Brand) -> usize {
    match brand {
        Brand::A => 0,
        Brand::B => 1,
        Brand::C => 2,
        Brand::D => 3,
    }
}

fn organization(rate: DataRate, chips_per_rank: u8, rng: &mut StdRng) -> ModuleOrganization {
    let density = match rng.random_range(0..10) {
        0..=1 => ChipDensity::Gb4,
        2..=8 => ChipDensity::Gb8,
        _ => ChipDensity::Gb16,
    };
    ModuleOrganization {
        chips_per_rank,
        ranks: if rng.random_range(0..5) == 0 { 1 } else { 2 },
        density,
        specified_rate: rate,
    }
}

/// Simulates the study's measurement of one module.
fn measure(spec: ModuleSpec, rng: &mut StdRng) -> MeasuredModule {
    let (mean, std) = if spec.organization.chips_per_rank == 9 {
        (
            spec.brand.margin_mean_9cpr_mts(),
            spec.brand.margin_std_9cpr_mts(),
        )
    } else {
        (
            spec.brand.margin_mean_18cpr_mts(),
            spec.brand.margin_std_18cpr_mts(),
        )
    };
    // Down-binned parts share silicon with the higher bins, so a
    // 2400 MT/s label converts part of the 800 MT/s label gap into
    // extra true headroom — the source of the paper's cap-confounded
    // observation that 2400 MT/s modules average ~967 MT/s of margin
    // against ~679 MT/s for 3200 MT/s ones.
    let label_gap = DataRate::MT3200
        .mts()
        .saturating_sub(spec.organization.specified_rate.mts());
    let down_bin_bonus = 0.25 * label_gap as f64;
    let mut true_margin = sample_normal(rng, mean + down_bin_bonus, std);
    // Paper: among brands A-C, 9 chips/rank modules never measured
    // below 600 MT/s.
    if spec.brand != Brand::D && spec.organization.chips_per_rank == 9 {
        true_margin = true_margin.max(620.0);
    }
    let true_margin = true_margin.max(0.0) as u32;

    let cap = SYSTEM_RATE_CAP_MTS.saturating_sub(spec.organization.specified_rate.mts());
    let measured = quantize(true_margin).min(cap);

    // 45 °C: ~5 % of modules lose one 200 MT/s step of frequency
    // margin; ~9 % lose a step when also exploiting latency margins.
    let hot_loses_step = rng.random_bool(5.0 / 103.0);
    let hot_lat_loses_step = hot_loses_step || rng.random_bool(4.0 / 98.0);
    let margin_at_45c = if hot_loses_step {
        measured.saturating_sub(200)
    } else {
        measured
    };
    let freq_lat_margin_at_45c = if hot_lat_loses_step {
        measured.saturating_sub(200)
    } else {
        measured
    };

    // A handful of modules fail to boot in the chamber (9 of 103 named
    // in Figure 6's caption).
    let boots_at_45c = !rng.random_bool(9.0 / 103.0);
    let chamber_tested = spec.condition != ModuleCondition::InProduction;

    MeasuredModule {
        errors: ErrorProfile::sample(rng, &spec),
        spec,
        true_margin_mts: true_margin,
        measured_margin_mts: measured,
        margin_at_45c_mts: margin_at_45c,
        freq_lat_margin_at_45c_mts: freq_lat_margin_at_45c,
        boots_at_45c,
        chamber_tested,
    }
}

/// Quantizes a margin down to the 200 MT/s characterization step.
pub fn quantize(margin_mts: u32) -> u32 {
    margin_mts / 200 * 200
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    fn pop() -> ModulePopulation {
        ModulePopulation::paper_study(0xD1A2)
    }

    #[test]
    fn population_size_and_chips() {
        let p = pop();
        assert_eq!(p.modules().len(), 119);
        // Table I: 3006 chips. Our synthetic mix of 1- and 2-rank
        // modules lands in the same regime.
        let chips = p.total_chips();
        assert!(chips > 2300 && chips < 3800, "chips {chips}");
    }

    #[test]
    fn mainstream_average_margin_near_770() {
        let p = pop();
        let margins: Vec<f64> = p
            .mainstream()
            .map(|m| m.measured_margin_mts as f64)
            .collect();
        assert_eq!(margins.len(), 103);
        let avg = mean(&margins);
        assert!((avg - 770.0).abs() < 80.0, "avg {avg}");
    }

    #[test]
    fn brand_d_average_near_213() {
        let p = pop();
        let margins: Vec<f64> = p
            .modules()
            .iter()
            .filter(|m| m.spec.brand == Brand::D)
            .map(|m| m.measured_margin_mts as f64)
            .collect();
        assert_eq!(margins.len(), 16);
        let avg = mean(&margins);
        assert!((avg - 213.0).abs() < 120.0, "avg {avg}");
    }

    #[test]
    fn normalized_margin_near_27_percent() {
        let p = pop();
        let normalized: Vec<f64> = p.mainstream().map(|m| m.normalized_margin()).collect();
        let avg = mean(&normalized);
        assert!((avg - 0.27).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn nine_chip_modules_consistent_and_min_600() {
        let p = pop();
        let nine: Vec<f64> = p
            .mainstream()
            .filter(|m| m.spec.organization.chips_per_rank == 9)
            .map(|m| m.measured_margin_mts as f64)
            .collect();
        let eighteen: Vec<f64> = p
            .mainstream()
            .filter(|m| m.spec.organization.chips_per_rank == 18)
            .map(|m| m.measured_margin_mts as f64)
            .collect();
        assert!(nine.iter().all(|&m| m >= 600.0));
        // 18 chips/rank spread is roughly 2x the 9 chips/rank spread.
        assert!(std_dev(&eighteen) > 1.4 * std_dev(&nine));
    }

    #[test]
    fn system_cap_truncates_3200_modules() {
        let p = pop();
        for m in p.modules() {
            let cap = SYSTEM_RATE_CAP_MTS - m.spec.organization.specified_rate.mts();
            assert!(m.measured_margin_mts <= cap, "{}", m.spec.label());
            assert_eq!(m.measured_margin_mts % 200, 0);
        }
        // Most 3200/9cpr mainstream modules hit the 800 cap (36/44 in
        // the paper).
        let capped = p
            .mainstream()
            .filter(|m| {
                m.spec.organization.specified_rate == DataRate::MT3200
                    && m.spec.organization.chips_per_rank == 9
            })
            .filter(|m| m.measured_margin_mts == 800)
            .count();
        assert!(capped >= 28, "only {capped} of 44 capped");
    }

    #[test]
    fn rate_2400_margins_exceed_3200_margins() {
        // The paper's (cap-confounded) observation: 2400 MT/s modules
        // show ~967 MT/s margin vs ~679 for 3200 MT/s ones.
        let p = pop();
        let avg_of = |rate: DataRate| {
            let v: Vec<f64> = p
                .mainstream()
                .filter(|m| m.spec.organization.specified_rate == rate)
                .map(|m| m.measured_margin_mts as f64)
                .collect();
            mean(&v)
        };
        assert!(avg_of(DataRate::MT2400) > avg_of(DataRate::MT3200) + 100.0);
    }

    #[test]
    fn hot_margins_never_exceed_cold() {
        let p = pop();
        for m in p.modules() {
            assert!(m.margin_at_45c_mts <= m.measured_margin_mts);
            assert!(m.freq_lat_margin_at_45c_mts <= m.measured_margin_mts);
        }
    }

    #[test]
    fn in_production_modules_skip_chamber() {
        let p = pop();
        let loaners: Vec<_> = p
            .modules()
            .iter()
            .filter(|m| m.spec.condition == ModuleCondition::InProduction)
            .collect();
        assert_eq!(loaners.len(), 24); // A8-A31
        assert!(loaners.iter().all(|m| !m.chamber_tested));
        assert!(loaners.iter().all(|m| m.spec.brand == Brand::A));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = ModulePopulation::paper_study(7);
        let b = ModulePopulation::paper_study(7);
        for (x, y) in a.modules().iter().zip(b.modules()) {
            assert_eq!(x.measured_margin_mts, y.measured_margin_mts);
            assert_eq!(x.spec.label(), y.spec.label());
        }
        let c = ModulePopulation::paper_study(8);
        assert!(a
            .modules()
            .iter()
            .zip(c.modules())
            .any(|(x, y)| x.true_margin_mts != y.true_margin_mts));
    }

    #[test]
    fn quantize_floors_to_step() {
        assert_eq!(quantize(799), 600);
        assert_eq!(quantize(800), 800);
        assert_eq!(quantize(1015), 1000);
        assert_eq!(quantize(0), 0);
    }

    #[test]
    fn labels_follow_brand_letter() {
        let p = pop();
        let first = &p.modules()[0];
        assert!(first.spec.label().starts_with('A'));
        assert!(p.modules().iter().any(|m| m.spec.label().starts_with('D')));
    }
}
