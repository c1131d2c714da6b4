//! Memory data rates.
//!
//! DDR transfers data on both clock edges, so a data rate of `N` MT/s
//! corresponds to a clock of `N/2` MHz. The paper scales data rates in
//! 200 MT/s steps (a BIOS limitation it inherits); [`DataRate::step_up`]
//! and [`DataRate::step_down`] model the same granularity.

use crate::{Picos, PS_PER_S};
use std::fmt;

/// A memory data rate in mega-transfers per second (MT/s).
///
/// ```
/// use dram::rate::DataRate;
///
/// let spec = DataRate::MT3200;
/// let fast = spec.plus_margin(800);
/// assert_eq!(fast.mts(), 4000);
/// assert_eq!(fast.clock_period_ps(), 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataRate(u32);

impl DataRate {
    /// DDR4-2400, one of the two specified rates studied in the paper.
    pub const MT2400: DataRate = DataRate(2400);
    /// DDR4-2666, the rate the paper's test CPU is advertised for.
    pub const MT2666: DataRate = DataRate(2666);
    /// DDR4-2933.
    pub const MT2933: DataRate = DataRate(2933);
    /// DDR4-3200, the maximum JEDEC DDR4 rate and the paper's main rate.
    pub const MT3200: DataRate = DataRate(3200);
    /// The 4000 MT/s system-level cap the paper observed on its testbed.
    pub const MT4000: DataRate = DataRate(4000);
    /// DDR5-4800 (the entry DDR5 rate; Section III-F's outlook).
    pub const MT4800: DataRate = DataRate(4800);
    /// DDR5-5600.
    pub const MT5600: DataRate = DataRate(5600);
    /// DDR5-6400.
    pub const MT6400: DataRate = DataRate(6400);
    /// MRDIMM-8800: a multiplexed-rank DIMM whose buffer interleaves
    /// two DDR5-4400 pseudo-channels onto one 8800 MT/s host interface.
    pub const MT8800: DataRate = DataRate(8800);

    /// The characterization step size the paper used (BIOS limitation).
    pub const STEP_MTS: u32 = 200;

    /// Creates a data rate from a raw MT/s value.
    ///
    /// # Panics
    ///
    /// Panics if `mts` is zero; a zero data rate has no clock period.
    pub fn new(mts: u32) -> DataRate {
        assert!(mts > 0, "data rate must be positive");
        DataRate(mts)
    }

    /// The raw rate in MT/s.
    pub fn mts(self) -> u32 {
        self.0
    }

    /// The clock period in picoseconds, rounded to the nearest ps.
    ///
    /// For every standard DDR4 rate this is exact
    /// (e.g. 3200 MT/s → 625 ps, 4000 MT/s → 500 ps).
    pub fn clock_period_ps(self) -> Picos {
        // period = 1 / (mts/2 MHz) = 2_000_000 / mts ps
        (2_000_000u64 + self.0 as u64 / 2) / self.0 as u64
    }

    /// Peak bandwidth of a 64-bit (8-byte) channel at this rate, in
    /// bytes per second.
    ///
    /// ```
    /// use dram::rate::DataRate;
    /// assert_eq!(DataRate::MT3200.peak_bandwidth_bytes_per_s(), 25_600_000_000);
    /// ```
    pub fn peak_bandwidth_bytes_per_s(self) -> u64 {
        self.0 as u64 * 1_000_000 * 8
    }

    /// Time to transfer one 64-byte block (burst length 8 on an 8-byte
    /// bus), in picoseconds: four full clock periods.
    pub fn burst_time_ps(self) -> Picos {
        4 * self.clock_period_ps()
    }

    /// Adds a frequency margin, returning the raised rate.
    pub fn plus_margin(self, margin_mts: u32) -> DataRate {
        DataRate(self.0 + margin_mts)
    }

    /// The margin in MT/s between `self` and a slower `base` rate.
    ///
    /// Returns zero if `self` is not faster than `base`.
    pub fn margin_over(self, base: DataRate) -> u32 {
        self.0.saturating_sub(base.0)
    }

    /// One characterization step (200 MT/s) faster.
    pub fn step_up(self) -> DataRate {
        DataRate(self.0 + Self::STEP_MTS)
    }

    /// One characterization step (200 MT/s) slower.
    ///
    /// Saturates at one step rather than reaching zero.
    pub fn step_down(self) -> DataRate {
        DataRate(self.0.saturating_sub(Self::STEP_MTS).max(Self::STEP_MTS))
    }

    /// The number of whole clock cycles needed to cover `ps` picoseconds
    /// at this rate (ceiling division).
    pub fn cycles_for_ps(self, ps: Picos) -> u64 {
        let t = self.clock_period_ps();
        ps.div_ceil(t)
    }

    /// How many bytes a fully utilized 8-byte channel moves in `ps`
    /// picoseconds at this rate.
    pub fn bytes_in_ps(self, ps: Picos) -> u64 {
        (self.peak_bandwidth_bytes_per_s() as u128 * ps as u128 / PS_PER_S as u128) as u64
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MT/s", self.0)
    }
}

impl From<DataRate> for u32 {
    fn from(rate: DataRate) -> u32 {
        rate.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_periods_are_exact() {
        assert_eq!(DataRate::MT3200.clock_period_ps(), 625);
        assert_eq!(DataRate::MT4000.clock_period_ps(), 500);
        assert_eq!(DataRate::MT2400.clock_period_ps(), 833);
    }

    #[test]
    fn margin_arithmetic() {
        let base = DataRate::MT3200;
        let fast = base.plus_margin(800);
        assert_eq!(fast, DataRate::MT4000);
        assert_eq!(fast.margin_over(base), 800);
        assert_eq!(base.margin_over(fast), 0);
    }

    #[test]
    fn stepping_matches_paper_granularity() {
        let r = DataRate::MT3200;
        assert_eq!(r.step_up().mts(), 3400);
        assert_eq!(r.step_down().mts(), 3000);
        // Stepping down never reaches zero.
        let mut r = DataRate::new(200);
        r = r.step_down();
        assert_eq!(r.mts(), 200);
    }

    #[test]
    fn burst_time_shrinks_with_rate() {
        assert!(DataRate::MT4000.burst_time_ps() < DataRate::MT3200.burst_time_ps());
        assert_eq!(DataRate::MT3200.burst_time_ps(), 2500);
        assert_eq!(DataRate::MT4000.burst_time_ps(), 2000);
    }

    #[test]
    fn bandwidth_scales_linearly() {
        let b32 = DataRate::MT3200.peak_bandwidth_bytes_per_s();
        let b40 = DataRate::MT4000.peak_bandwidth_bytes_per_s();
        assert_eq!(b40 * 4, b32 * 5);
    }

    #[test]
    fn cycles_for_ps_is_ceiling() {
        let r = DataRate::MT3200; // 625 ps
        assert_eq!(r.cycles_for_ps(0), 0);
        assert_eq!(r.cycles_for_ps(1), 1);
        assert_eq!(r.cycles_for_ps(625), 1);
        assert_eq!(r.cycles_for_ps(626), 2);
    }

    #[test]
    fn bytes_in_ps_one_microsecond() {
        // 25.6 GB/s for 1 us = 25600 bytes.
        assert_eq!(DataRate::MT3200.bytes_in_ps(1_000_000), 25_600);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = DataRate::new(0);
    }
}
