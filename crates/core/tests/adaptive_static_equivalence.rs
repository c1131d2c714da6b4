//! Differential test: offline binning vs. online adaptation.
//!
//! Under the exact conditions an offline stress test assumes — zero
//! disturbance, a constant error-rate curve — the adaptive governor
//! has no information advantage, so it must settle onto the same bin
//! the one-shot `margin::stress::measure_margin` selection picks, to
//! within ±1 bin (the dead band leaves the governor free to park on
//! either side of a margin that falls between bins).

use hetero_dmr::adaptive::{
    run_closed_loop, AdaptiveConfig, AdaptiveGovernor, Environment, MarginResponse, BIN_MTS,
};
use margin::stress::{measure_margin, StressConfig};
use runner::seed::iteration_seed;
use workloads::Suite;

/// The stress-test envelope both selectors share: 200 MT/s steps up
/// to the 4000 MT/s system cap, i.e. bins 0..=4 over DDR4-3200.
fn stress_config() -> StressConfig {
    StressConfig::default()
}

fn static_bin(true_margin_mts: u32) -> u8 {
    let margin = measure_margin(
        dram::rate::DataRate::MT3200,
        true_margin_mts,
        &stress_config(),
        None,
    );
    (margin / BIN_MTS) as u8
}

fn adaptive_bin(true_margin_mts: u32, seed: u64) -> u8 {
    let max_bin =
        ((stress_config().rate_cap_mts - dram::rate::DataRate::MT3200.mts()) / BIN_MTS) as u8;
    let cfg = AdaptiveConfig::defaults(max_bin);
    let mut g = AdaptiveGovernor::new(cfg);
    let response = MarginResponse::typical(true_margin_mts);
    let env = Environment::steady(Suite::Hpcg);
    let records = run_closed_loop(&mut g, &response, &env, seed, 120);
    // "Settled" means the tail of the run stays on one bin.
    let tail = &records[records.len() - 40..];
    let settled = tail[0].bin_after;
    assert!(
        tail.iter().all(|r| r.bin_after == settled),
        "margin {true_margin_mts}: tail still moving: {:?}",
        tail.iter().map(|r| r.bin_after).collect::<Vec<_>>()
    );
    settled
}

#[test]
fn adaptive_settles_onto_the_static_selection() {
    // True margins across the whole ladder, both on- and off-bin.
    for true_margin in (0..=1100).step_by(100) {
        let offline = static_bin(true_margin);
        for trial in 0..4u64 {
            let online = adaptive_bin(true_margin, iteration_seed(0xD1FF, trial));
            let diff = (online as i16 - offline as i16).abs();
            assert!(
                diff <= 1,
                "true margin {true_margin} MT/s, trial {trial}: \
                 offline bin {offline}, online bin {online}"
            );
        }
    }
}

#[test]
fn both_selectors_respect_the_rate_cap() {
    // A module whose silicon margin exceeds the system cap: offline
    // binning stops at the cap, and so must the adaptive governor.
    let offline = static_bin(2_000);
    assert_eq!(offline, 4, "cap at 4000 MT/s = bin 4");
    let online = adaptive_bin(2_000, 7);
    assert_eq!(online, 4);
}

#[test]
fn zero_margin_module_stays_at_spec() {
    assert_eq!(static_bin(0), 0);
    let online = adaptive_bin(0, 11);
    assert!(online <= 1, "within a bin of the static pick");
}
