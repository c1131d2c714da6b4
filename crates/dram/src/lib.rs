//! DDR4 device-level substrate for the Hetero-DMR reproduction.
//!
//! This crate holds the device facts the rest of the workspace reads:
//!
//! * [`rate`] — data rates in MT/s and the derived clock period,
//! * [`timing`] — JEDEC-style timing parameter sets, including the four
//!   memory settings of Table II of the paper,
//! * [`organization`] — physical module organization (chips/rank, ranks,
//!   density, ECC chips),
//! * [`channel`] — a memory channel's runtime frequency-scaling
//!   protocol (Figures 9 and 10 of the paper) and the per-slot
//!   self-refresh state that parks the modules holding originals.
//!
//! Command-level timing (bank state, queueing, refresh, broadcast
//! writes) is simulated in one place, `memsim`'s channel controller.
//!
//! All times are integer **picoseconds** ([`Picos`]) so that frequency
//! changes at runtime never lose precision.
//!
//! # Example
//!
//! ```
//! use dram::rate::DataRate;
//! use dram::timing::MemorySetting;
//!
//! let spec = MemorySetting::Specified.timing();
//! assert_eq!(spec.data_rate, DataRate::MT3200);
//! // At 3200 MT/s the clock period is 625 ps.
//! assert_eq!(spec.data_rate.clock_period_ps(), 625);
//! ```

pub mod channel;
pub mod error;
pub mod organization;
pub mod rate;
pub mod timing;

pub use channel::{Channel, ChannelConfig, FrequencyState, ModuleId};
pub use error::DramError;
pub use organization::ModuleOrganization;
pub use rate::DataRate;
pub use timing::{MemorySetting, TimingParams};

/// Simulation time in integer picoseconds.
///
/// Picoseconds are fine enough that every DDR4 clock period between
/// 1600 MT/s and 6400 MT/s is an exact integer, so frequency scaling
/// under Hetero-DMR never accumulates rounding error.
pub type Picos = u64;

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;

/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;

/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// Convert nanoseconds (possibly fractional) to integer picoseconds,
/// rounding to the nearest picosecond.
///
/// ```
/// assert_eq!(dram::ns_to_ps(13.75), 13_750);
/// ```
pub fn ns_to_ps(ns: f64) -> Picos {
    (ns * PS_PER_NS as f64).round() as Picos
}

/// Convert integer picoseconds to fractional nanoseconds.
///
/// ```
/// assert_eq!(dram::ps_to_ns(13_750), 13.75);
/// ```
pub fn ps_to_ns(ps: Picos) -> f64 {
    ps as f64 / PS_PER_NS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_ps_round_trip() {
        for ns in [0.0, 1.0, 13.75, 32.5, 7800.0] {
            assert!((ps_to_ns(ns_to_ps(ns)) - ns).abs() < 1e-9);
        }
    }

    #[test]
    fn unit_constants_consistent() {
        assert_eq!(PS_PER_US, 1_000 * PS_PER_NS);
        assert_eq!(PS_PER_MS, 1_000 * PS_PER_US);
        assert_eq!(PS_PER_S, 1_000 * PS_PER_MS);
    }
}
