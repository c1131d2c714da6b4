//! Server-memory frequency-margin characterization substrate.
//!
//! The paper's Section II characterizes 119 physical DDR4 RDIMMs
//! (3006 chips) on an Intel W-3175X testbed. We cannot ship the DIMMs,
//! so this crate ships the *statistical shape* of that study instead:
//! a module-population model whose conditional distributions are fit to
//! the paper's reported aggregates (Figures 2–4 and 6, Table I), plus a
//! simulated stress-test harness that "measures" margins the same way
//! the paper did — stepping the data rate in 200 MT/s increments and
//! accepting the highest rate at which 99.999 %+ of accesses are
//! error-free.
//!
//! Modules:
//!
//! * [`brand`] — the four manufacturer brands and their margin
//!   profiles,
//! * [`population`] — the synthetic 119-module study population,
//! * [`stress`] — the simulated stress-test / margin-measurement
//!   procedure,
//! * [`errors`] — CE/UE error-rate model vs. setting and temperature
//!   (Figure 6),
//! * [`temperature`] — ambient → on-DIMM temperature model,
//! * [`stats`] — mean / standard deviation / confidence-interval and
//!   histogram helpers used by the figure harnesses,
//! * [`study`] — Table I constants and the end-to-end study driver,
//! * [`composition`] — channel- and node-level margin composition
//!   (margin-aware vs. margin-unaware module selection).
//!
//! # Example
//!
//! ```
//! use margin::population::ModulePopulation;
//! use margin::brand::Brand;
//!
//! let pop = ModulePopulation::paper_study(42);
//! assert_eq!(pop.modules().len(), 119);
//!
//! // Brands A-C average ~770 MT/s of frequency margin (~27 %).
//! let abc: Vec<_> = pop
//!     .modules()
//!     .iter()
//!     .filter(|m| m.spec.brand != Brand::D)
//!     .collect();
//! let avg: f64 = abc.iter().map(|m| m.measured_margin_mts as f64).sum::<f64>()
//!     / abc.len() as f64;
//! assert!(avg > 650.0 && avg < 900.0);
//! ```

pub mod brand;
pub mod composition;
pub mod errors;
pub mod population;
pub mod stats;
pub mod stress;
pub mod study;
pub mod temperature;
pub mod trinitite;
pub mod voltage;

pub use brand::Brand;
pub use population::{MeasuredModule, ModuleCondition, ModulePopulation, ModuleSpec};
pub use stress::{measure_margin, StressConfig, StressMeter};
pub use temperature::{AmbientTemperature, TemperatureTransient};
