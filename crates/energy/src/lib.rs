//! System-level (CPU + DRAM) power and energy models.
//!
//! DRAM energy comes from one model, [`residency`]: a DRAMPower-style
//! state-residency engine that integrates per-bank time-in-state
//! (active, precharged, refreshing, self-refresh) from the memsim
//! residency tap and adds command-edge energies, calibrated from
//! IDD/IPP datasheet currents by [`calibrate`]. CPU energy comes from
//! [`CpuPowerParams`]. Figure 13's energy per instruction and the
//! `energy`/`configurator` targets all price runs this way.

pub mod calibrate;
pub mod residency;

pub use calibrate::DatasheetCurrents;
pub use residency::{
    EdgeEnergies, ResidencyBreakdown, ResidencyInput, ResidencyModel, StatePowers,
};

use dram::{Picos, PS_PER_S};

/// Converts picoseconds to seconds.
pub fn ps_to_s(ps: Picos) -> f64 {
    ps as f64 / PS_PER_S as f64
}

/// CPU power parameters for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPowerParams {
    /// Static + idle power, watts (dominant, per the paper).
    pub static_w: f64,
    /// Dynamic power at peak retirement rate, watts.
    pub peak_dynamic_w: f64,
    /// Peak retirement rate used to scale dynamic power,
    /// instructions per second.
    pub peak_ips: f64,
}

impl Default for CpuPowerParams {
    fn default() -> CpuPowerParams {
        CpuPowerParams {
            static_w: 120.0,
            peak_dynamic_w: 90.0,
            peak_ips: 8.0 * 4.0 * 3.1e9, // 8 cores × 4-wide × 3.1 GHz
        }
    }
}

impl CpuPowerParams {
    /// CPU energy of a run: static power over the wall time plus
    /// dynamic power scaled by achieved retirement rate.
    pub fn energy_j(&self, secs: f64, instructions: u64) -> f64 {
        let dynamic = if secs > 0.0 {
            let ips = instructions as f64 / secs;
            self.peak_dynamic_w * (ips / self.peak_ips).min(1.0)
        } else {
            0.0
        };
        (self.static_w + dynamic) * secs
    }
}
