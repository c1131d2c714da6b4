//! Measured outputs of a node simulation.

use crate::controller::{ControllerStats, ResidencyStats};
use dram::rate::DataRate;
use dram::Picos;

/// Aggregate results of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total instructions retired across all cores.
    pub instructions: u64,
    /// Wall-clock execution time of the run: the mean core completion
    /// time (plus the final write drain). The mean, not the max,
    /// because each core executes a fixed slice of work and transient
    /// bank-collision episodes land on random cores — over a real
    /// long-running MPI execution they equalize across ranks, so the
    /// short simulated window's stragglers are sampling noise, not
    /// load imbalance. (`slowest_core_ps` preserves the max.)
    pub exec_time_ps: Picos,
    /// Completion time of the slowest core.
    pub slowest_core_ps: Picos,
    /// Merged per-channel controller statistics.
    pub controller: ControllerStats,
    /// Demand accesses that hit in L1/L2/L3 (for cache statistics).
    pub cache_hits: u64,
    /// Demand accesses that missed all cache levels.
    pub cache_misses: u64,
    /// Number of channels that contributed (for bandwidth math).
    pub channels: usize,
    /// Modules (DIMMs) per channel, for normalizing residency to
    /// module units.
    pub modules_per_channel: usize,
    /// Data rate used for reads (for bandwidth utilization math).
    pub read_rate: DataRate,
    /// Bank time-in-state residency merged across channels (finalized
    /// at `slowest_core_ps`), for the state-residency energy model.
    pub residency: ResidencyStats,
}

impl Default for SimResult {
    fn default() -> SimResult {
        SimResult {
            instructions: 0,
            exec_time_ps: 0,
            slowest_core_ps: 0,
            controller: ControllerStats::default(),
            cache_hits: 0,
            cache_misses: 0,
            channels: 0,
            modules_per_channel: 2,
            read_rate: DataRate::MT3200,
            residency: ResidencyStats::default(),
        }
    }
}

impl SimResult {
    /// Instructions per nanosecond (proportional to IPC).
    pub fn instructions_per_ns(&self) -> f64 {
        if self.exec_time_ps == 0 {
            0.0
        } else {
            self.instructions as f64 / (self.exec_time_ps as f64 / 1000.0)
        }
    }

    /// Relative performance vs. a baseline run of the same work:
    /// `baseline_time / this_time` (>1 means faster).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.exec_time_ps == 0 {
            return 0.0;
        }
        baseline.exec_time_ps as f64 / self.exec_time_ps as f64
    }

    /// DRAM accesses (reads + writes) per instruction — Figure 14's
    /// metric.
    pub fn dram_accesses_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        (self.controller.reads + self.controller.writes) as f64 / self.instructions as f64
    }

    /// Fraction of DRAM traffic that is writes (Figure 15's ~15 %).
    pub fn write_fraction(&self) -> f64 {
        let total = self.controller.reads + self.controller.writes;
        if total == 0 {
            0.0
        } else {
            self.controller.writes as f64 / total as f64
        }
    }

    /// Achieved DRAM bandwidth as a fraction of the channel peak
    /// (Figure 15's bandwidth utilization).
    pub fn bandwidth_utilization(&self) -> f64 {
        if self.exec_time_ps == 0 || self.channels == 0 {
            return 0.0;
        }
        let bytes = (self.controller.reads + self.controller.writes) * 64;
        let secs = self.exec_time_ps as f64 / 1e12;
        let peak = self.read_rate.peak_bandwidth_bytes_per_s() as f64 * self.channels as f64;
        bytes as f64 / secs / peak
    }

    /// Overall cache hit rate across demand accesses.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(time: Picos, reads: u64, writes: u64) -> SimResult {
        SimResult {
            instructions: 1_000_000,
            exec_time_ps: time,
            slowest_core_ps: time,
            controller: ControllerStats {
                reads,
                writes,
                ..ControllerStats::default()
            },
            cache_hits: 900,
            cache_misses: 100,
            channels: 1,
            modules_per_channel: 2,
            read_rate: DataRate::MT3200,
            residency: ResidencyStats::default(),
        }
    }

    #[test]
    fn speedup_ratio() {
        let base = result(2_000_000, 100, 10);
        let fast = result(1_000_000, 100, 10);
        assert_eq!(fast.speedup_over(&base), 2.0);
        assert_eq!(base.speedup_over(&base), 1.0);
    }

    #[test]
    fn write_fraction_and_accesses_per_instruction() {
        let r = result(1_000_000, 850, 150);
        assert!((r.write_fraction() - 0.15).abs() < 1e-12);
        assert!((r.dram_accesses_per_instruction() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_utilization_bounds() {
        // 1000 blocks in 1 us over one 25.6 GB/s channel:
        // 64 000 B / 1e-6 s = 64 GB/s?? — no: utilization must cap at
        // what the math says; just verify the formula.
        let r = result(1_000_000, 300, 100);
        let bytes = 400.0 * 64.0;
        let expect = bytes / 1e-6 / 25.6e9;
        assert!((r.bandwidth_utilization() - expect).abs() < 1e-9);
    }

    #[test]
    fn zero_time_is_safe() {
        let r = result(0, 0, 0);
        assert_eq!(r.instructions_per_ns(), 0.0);
        assert_eq!(r.bandwidth_utilization(), 0.0);
        assert_eq!(r.speedup_over(&r), 0.0);
    }

    #[test]
    fn cache_hit_rate() {
        let r = result(1, 0, 0);
        assert!((r.cache_hit_rate() - 0.9).abs() < 1e-12);
    }
}
