//! An independent oracle for the state-residency DRAM energy engine.
//!
//! Random traffic drives one memsim channel controller. The residency
//! tap must conserve bank time, and the engine's energy must sit inside
//! an envelope built from the datasheet calibration alone: the edge
//! terms sum to Σ count × edge energy, and the background lies between
//! `P_pre × rank·s + (P_act − P_pre) × REF rank·s` and `P_act × rank·s`
//! (a rank draws at least active standby inside a REF's tRFC window,
//! since the REF edge is calibrated as the delta above it).

use dram::timing::TimingParams;
use dram::Picos;
use energy::{ps_to_s, DatasheetCurrents, ResidencyBreakdown, ResidencyInput, ResidencyModel};
use memsim::address::DramCoord;
use memsim::config::{ChannelMode, MemoryConfig};
use memsim::controller::{ChannelController, ControllerStats};
use memsim::ResidencyStats;

/// splitmix64, as in memsim's own differential test.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// A random run on a DDR4-3200 channel, in the baseline mode or (with
/// `broadcast`) one whose writes also charge a copy's cells, as FMR's
/// do. Returns the tap and command counts at a horizon past the last
/// command (a saturated channel serves long after its last arrival).
fn drive(seed: u64, ops: u64, gap: u64, broadcast: bool) -> (ResidencyStats, ControllerStats) {
    let mode = match broadcast {
        true => ChannelMode::builder()
            .broadcast_copies(1)
            .fmr_read_choice(true),
        false => ChannelMode::commercial_baseline().to_builder(),
    };
    let mem = MemoryConfig::default();
    let mut ctrl = ChannelController::new(mode.build().unwrap(), mem, 200 * 625);
    let mut rng = Rng(seed);
    let (mut now, mut served): (Picos, Picos) = (0, 0);
    for _ in 0..ops {
        now += 1 + rng.below(gap);
        let coord = DramCoord {
            channel: 0,
            rank: rng.below(mem.ranks_per_channel() as u64) as usize,
            bank: rng.below(mem.banks_per_rank as u64) as usize,
            row: rng.below(24),
            column: rng.below(64),
        };
        match rng.below(100) {
            0..=69 => {
                let t = ctrl.submit_read(coord, now, true);
                served = served.max(ctrl.resolve_read(t));
            }
            70..=89 => ctrl.enqueue_write(coord),
            _ => served = served.max(ctrl.drain_writes(now)),
        }
    }
    while ctrl.pending_writes() > 0 {
        now += 1_000_000;
        served = served.max(ctrl.drain_writes(now));
    }
    let res = ctrl.finalize_residency(now.max(served) + 10_000_000);
    (res, ctrl.stats())
}

fn price(res: &ResidencyStats, s: &ControllerStats) -> ResidencyBreakdown {
    ResidencyModel::ddr4_3200().energy(&ResidencyInput {
        active_bank_ps: res.active_bank_ps,
        precharged_bank_ps: res.precharged_bank_ps(),
        refresh_bank_ps: res.refresh_bank_ps,
        self_refresh_bank_ps: res.self_refresh_bank_ps,
        banks_per_rank: MemoryConfig::default().banks_per_rank as u32,
        activates: s.activates,
        reads: s.reads,
        writes: s.writes,
        broadcast_extra_cells: s.broadcast_extra_cells,
        refreshes: s.refreshes,
    })
}

/// The run's rank·seconds.
fn rank_s(res: &ResidencyStats) -> f64 {
    MemoryConfig::default().ranks_per_channel() as f64 * ps_to_s(res.end_ps)
}

#[test]
fn tap_conserves_bank_time_and_energy_stays_in_the_envelope() {
    let currents = DatasheetCurrents::ddr4_8gb();
    let spec = TimingParams::ddr4_3200_spec();
    let (p, e) = (currents.state_powers(9), currents.edge_energies(&spec, 9));
    let (pre, act) = (p.precharge_standby_w, p.active_standby_w);
    let mem = MemoryConfig::default();
    let mut broadcast_runs = 0;
    // Saturated through nearly idle runs (where REF windows outweigh
    // open rows), each in both modes.
    for seed in 0..32u64 {
        let gap = [5_000, 40_000, 400_000, 4_000_000][(seed % 4) as usize];
        let (res, s) = drive(0xE6E6_0000 + seed, 3_000, gap, seed / 4 % 2 == 1);
        let run = format!("seed {seed} gap {gap}");
        let per_rank = mem.banks_per_rank as u64;
        let bank_ps = mem.ranks_per_channel() as u64 * per_rank * res.end_ps;
        let occupied = res.active_bank_ps + res.refresh_bank_ps + res.self_refresh_bank_ps;
        assert_eq!(res.self_refresh_bank_ps, 0, "{run}: no parked ranks here");
        assert!(occupied <= bank_ps, "{run}: states overlap");
        assert_eq!(occupied + res.precharged_bank_ps(), bank_ps, "{run}");
        assert_eq!(res.act_edges, s.activates, "{run}");
        // A REF holds every bank of its rank for one tRFC.
        let refresh_ps = s.refreshes * spec.t_rfc_ps();
        assert_eq!(res.refresh_bank_ps, refresh_ps * per_rank, "{run}");
        broadcast_runs += usize::from(s.broadcast_extra_cells > 0);

        let b = price(&res, &s);
        let edges = (s.activates as f64 * e.act_pre_nj
            + s.reads as f64 * e.read_nj
            + (s.writes + s.broadcast_extra_cells) as f64 * e.write_nj
            + s.refreshes as f64 * e.refresh_nj)
            * 1e-9;
        let edge_j = b.activate_j + b.burst_j + b.refresh_j;
        assert!(
            (edge_j - edges).abs() <= 1e-9 * edges,
            "{run}: edges {edge_j} vs {edges} J"
        );
        let floor = pre * rank_s(&res) + (act - pre) * ps_to_s(refresh_ps);
        let ceiling = act * rank_s(&res);
        let (bg, tol) = (b.background_j, 1e-9 * ceiling);
        assert!(
            floor - tol <= bg && bg <= ceiling + tol,
            "{run}: {bg} J ∉ [{floor}, {ceiling}]"
        );
        let total = b.total_j() - edges;
        let (lower, upper) = (pre * rank_s(&res) - tol, ceiling + tol);
        assert!(lower <= total && total <= upper, "{run}: total");
    }
    assert!(broadcast_runs >= 8, "broadcast copies must be exercised");
}

#[test]
fn busy_runs_hold_rows_open_longer_than_idle_runs() {
    // A bursty run keeps rows open (page timeout) a larger share of the
    // time than an idle-heavy run, so its background sits higher
    // between all-precharged (0) and all-active (1) standby.
    let p = DatasheetCurrents::ddr4_8gb().state_powers(9);
    let share = |(res, s): (ResidencyStats, ControllerStats)| {
        let watts = price(&res, &s).background_j / rank_s(&res);
        (watts - p.precharge_standby_w) / (p.active_standby_w - p.precharge_standby_w)
    };
    let busy = share(drive(0xAB, 6_000, 4_000, false));
    let idle = share(drive(0xCD, 600, 4_000_000, false));
    assert!((0.0..=1.0).contains(&busy) && (0.0..=1.0).contains(&idle));
    assert!(busy > idle, "busy {busy} vs idle {idle}");
}
