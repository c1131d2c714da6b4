//! DRAMPower-style state-residency energy engine.
//!
//! Instead of charging a flat background power plus per-op constants,
//! this engine integrates the power of each bank *state* over the time
//! the simulator actually spent there:
//!
//! ```text
//! E = Σ_state P_state × t_state  +  Σ_edge N_edge × E_edge
//! ```
//!
//! The states come from the memsim residency tap (time-in-state in
//! bank·picoseconds: active, precharged, refreshing, self-refresh);
//! the edges are the command counts the controller already tracks
//! (ACT/PRE pairs, read/write bursts, REF commands). Standby powers
//! and edge energies come from [`crate::calibrate`].
//!
//! Everything is normalized per *rank*: standby currents are drawn by
//! every device in a rank regardless of which bank is open, so
//! bank·seconds divide by banks-per-rank to give rank·seconds.

use crate::calibrate::DatasheetCurrents;
use crate::ps_to_s;
use dram::timing::TimingParams;
use dram::Picos;

/// Power drawn by one rank in each stable state, watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatePowers {
    /// At least one bank open (IDD3N), per rank.
    pub active_standby_w: f64,
    /// All banks closed, clock running (IDD2N), per rank.
    pub precharge_standby_w: f64,
    /// Self-refresh (IDD6), per rank.
    pub self_refresh_w: f64,
}

/// Energy of one command edge, nanojoules, per rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeEnergies {
    /// One ACT + its eventual PRE (the full row cycle).
    pub act_pre_nj: f64,
    /// One 64-byte read burst.
    pub read_nj: f64,
    /// One 64-byte write burst.
    pub write_nj: f64,
    /// One REF command (delta above active standby, over tRFC).
    pub refresh_nj: f64,
}

/// State-residency energy model for one DRAM generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyModel {
    /// Per-rank state powers.
    pub powers: StatePowers,
    /// Per-rank command-edge energies.
    pub edges: EdgeEnergies,
}

impl ResidencyModel {
    /// Calibrates a model from datasheet currents and a timing set.
    pub fn from_currents(
        currents: &DatasheetCurrents,
        timing: &TimingParams,
        chips_per_rank: u32,
    ) -> ResidencyModel {
        ResidencyModel {
            powers: currents.state_powers(chips_per_rank),
            edges: currents.edge_energies(timing, chips_per_rank),
        }
    }

    /// DDR4-3200, 9-chip ranks (the paper's main configuration).
    pub fn ddr4_3200() -> ResidencyModel {
        ResidencyModel::from_currents(
            &DatasheetCurrents::ddr4_8gb(),
            &TimingParams::ddr4_3200_spec(),
            9,
        )
    }

    /// Integrates state powers over the residency and adds edge
    /// energies. The four components of the returned breakdown sum to
    /// the total exactly (it is defined as their sum).
    pub fn energy(&self, input: &ResidencyInput) -> ResidencyBreakdown {
        let per_rank = 1.0 / input.banks_per_rank.max(1) as f64;
        // Refresh residency draws the active-standby floor; the array
        // current above it is charged per REF edge below.
        let background_j = (self.powers.active_standby_w
            * (ps_to_s(input.active_bank_ps) + ps_to_s(input.refresh_bank_ps))
            + self.powers.precharge_standby_w * ps_to_s(input.precharged_bank_ps)
            + self.powers.self_refresh_w * ps_to_s(input.self_refresh_bank_ps))
            * per_rank;
        let activate_j = input.activates as f64 * self.edges.act_pre_nj * 1e-9;
        let burst_j = (input.reads as f64 * self.edges.read_nj
            + (input.writes + input.broadcast_extra_cells) as f64 * self.edges.write_nj)
            * 1e-9;
        let refresh_j = input.refreshes as f64 * self.edges.refresh_nj * 1e-9;
        ResidencyBreakdown {
            background_j,
            activate_j,
            burst_j,
            refresh_j,
        }
    }
}

/// Simulated bank-state residency and command counts for one run
/// (one node: all channels merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidencyInput {
    /// Time with a row open, bank·picoseconds.
    pub active_bank_ps: Picos,
    /// Time precharged (idle), bank·picoseconds.
    pub precharged_bank_ps: Picos,
    /// Time refreshing, bank·picoseconds.
    pub refresh_bank_ps: Picos,
    /// Time in self-refresh, bank·picoseconds.
    pub self_refresh_bank_ps: Picos,
    /// Banks per rank, for normalizing bank·time to rank·time.
    pub banks_per_rank: u32,
    /// ACT commands issued.
    pub activates: u64,
    /// 64-byte read bursts.
    pub reads: u64,
    /// 64-byte write bursts.
    pub writes: u64,
    /// Extra cell-writes from broadcast copies (charged as writes).
    pub broadcast_extra_cells: u64,
    /// REF commands issued (per rank).
    pub refreshes: u64,
}

/// DRAM energy of one run, itemized by mechanism. `total_j` is the sum
/// of the four components by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyBreakdown {
    /// State-residency (standby + self-refresh) energy, joules.
    pub background_j: f64,
    /// ACT/PRE row-cycle energy, joules.
    pub activate_j: f64,
    /// Read/write burst energy, joules.
    pub burst_j: f64,
    /// Refresh array energy, joules.
    pub refresh_j: f64,
}

impl ResidencyBreakdown {
    /// Total DRAM energy, joules.
    pub fn total_j(&self) -> f64 {
        self.background_j + self.activate_j + self.burst_j + self.refresh_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::PS_PER_S;

    fn idle_second(banks: u64) -> ResidencyInput {
        ResidencyInput {
            precharged_bank_ps: banks * PS_PER_S,
            banks_per_rank: 16,
            ..ResidencyInput::default()
        }
    }

    #[test]
    fn idle_rank_draws_precharge_standby() {
        let m = ResidencyModel::ddr4_3200();
        // 16 banks idle for 1 s = one rank idle for 1 s.
        let b = m.energy(&idle_second(16));
        assert!((b.background_j - m.powers.precharge_standby_w).abs() < 1e-9);
        assert_eq!(b.activate_j, 0.0);
        assert_eq!(b.burst_j, 0.0);
        assert_eq!(b.refresh_j, 0.0);
    }

    #[test]
    fn self_refresh_beats_idle_standby() {
        let m = ResidencyModel::ddr4_3200();
        let idle = m.energy(&idle_second(16));
        let parked = m.energy(&ResidencyInput {
            self_refresh_bank_ps: 16 * PS_PER_S,
            banks_per_rank: 16,
            ..ResidencyInput::default()
        });
        assert!(parked.total_j() < idle.total_j() / 1.5);
    }

    #[test]
    fn components_sum_to_total() {
        let m = ResidencyModel::from_currents(
            &DatasheetCurrents::ddr5_16gb(),
            &TimingParams::ddr5_4800_spec(),
            10,
        );
        let b = m.energy(&ResidencyInput {
            active_bank_ps: 4 * PS_PER_S,
            precharged_bank_ps: 27 * PS_PER_S,
            refresh_bank_ps: PS_PER_S / 2,
            self_refresh_bank_ps: PS_PER_S / 2,
            banks_per_rank: 32,
            activates: 1_000_000,
            reads: 30_000_000,
            writes: 5_000_000,
            broadcast_extra_cells: 5_000_000,
            refreshes: 256_000,
        });
        let total = b.background_j + b.activate_j + b.burst_j + b.refresh_j;
        assert!((b.total_j() - total).abs() < 1e-12);
        assert!(b.background_j > 0.0 && b.activate_j > 0.0);
        assert!(b.burst_j > 0.0 && b.refresh_j > 0.0);
    }

    #[test]
    fn busier_run_costs_more() {
        let m = ResidencyModel::ddr4_3200();
        let mut input = idle_second(64);
        let idle = m.energy(&input).total_j();
        // Shift a quarter of the bank-time to active and add traffic.
        input.precharged_bank_ps -= 16 * PS_PER_S;
        input.active_bank_ps += 16 * PS_PER_S;
        input.activates = 2_000_000;
        input.reads = 50_000_000;
        input.writes = 8_000_000;
        input.refreshes = 128_000;
        let busy = m.energy(&input).total_j();
        assert!(busy > idle * 1.2, "busy {busy} idle {idle}");
    }

    #[test]
    fn generation_presets_are_well_formed() {
        let ddr4 = DatasheetCurrents::ddr4_8gb();
        let ddr5 = DatasheetCurrents::ddr5_16gb();
        let mrdimm = DatasheetCurrents::mrdimm_16gb();
        for (currents, timing, chips) in [
            (ddr4, TimingParams::ddr4_2400_spec(), 9),
            (ddr4, TimingParams::ddr4_3200_spec(), 9),
            (ddr5, TimingParams::ddr5_4800_spec(), 10),
            (ddr5, TimingParams::ddr5_6400_spec(), 10),
            (mrdimm, TimingParams::mrdimm_8800_spec(), 10),
        ] {
            let m = ResidencyModel::from_currents(&currents, &timing, chips);
            assert!(m.powers.self_refresh_w < m.powers.precharge_standby_w);
            assert!(m.powers.precharge_standby_w < m.powers.active_standby_w);
            assert!(m.edges.act_pre_nj > 0.0);
            assert!(m.edges.read_nj > 0.0 && m.edges.write_nj > 0.0);
            assert!(m.edges.refresh_nj > m.edges.act_pre_nj);
        }
    }
}
