//! Quickstart: the Hetero-DMR idea in sixty lines.
//!
//! Replicate blocks into a free module, read the copies unsafely fast,
//! and let the always-in-spec originals repair anything the overclock
//! corrupts.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ecc::ErrorModel;
use hetero_dmr::protocol::{HeteroDmrChannel, OpMode};
use hetero_dmr::{EvalConfig, MemoryDesign, NodeModel, UsageBucket};
use memsim::config::HierarchyConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::Suite;

fn main() {
    // ── 1. The protocol, functionally ────────────────────────────────
    // A channel with two modules of 2^20 blocks each, 25 % utilized:
    // replication activates, the channel clocks up, originals go into
    // self-refresh.
    let mut channel = HeteroDmrChannel::new(1 << 20);
    let mut now = channel.set_used_blocks(1 << 18, 0);
    assert_eq!(channel.mode(), OpMode::ReadMode);

    // Writes batch behind a write-mode switch (1 µs frequency
    // transition), then a single broadcast updates original + copy.
    now = channel.begin_write_mode(now).unwrap();
    channel.write(7, &[0xAB; 64], now).unwrap();
    now = channel.begin_read_mode(now).unwrap();

    // A clean read is served from the unsafely fast copy.
    let (data, outcome, t) = channel.read::<StdRng>(7, now, None).unwrap();
    assert_eq!(data, [0xAB; 64]);
    println!("fast read   : {outcome:?}");

    // Corrupt the copy arbitrarily — whole block of garbage — and read
    // again: detection-only ECC flags it, the channel drops to spec,
    // re-reads the original, repairs the copy, and speeds back up.
    let mut rng = StdRng::seed_from_u64(1);
    let (data, outcome, t2) = channel
        .read(7, t, Some((&mut rng, ErrorModel::FullBlock)))
        .unwrap();
    assert_eq!(
        data, [0xAB; 64],
        "the written value survives any error model"
    );
    println!(
        "corrupt read: {outcome:?} (cost: {} frequency transitions)",
        channel.transitions()
    );
    println!(
        "governor    : {} error(s) this epoch, budget {}",
        channel.governor().errors_this_epoch(),
        channel.governor().threshold()
    );
    let _ = t2;

    // ── 2. The performance story, simulated ──────────────────────────
    println!("\nsimulating HPCG on Hierarchy1 (small run)...");
    let model = NodeModel::new(
        HierarchyConfig::hierarchy1(),
        EvalConfig {
            ops_per_core: 8_000,
            seed: 1,
            ..EvalConfig::default()
        },
    );
    let hdmr = model.normalized(
        MemoryDesign::HeteroDmr { margin_mts: 800 },
        Suite::Hpcg,
        UsageBucket::Low,
    );
    let ideal = model.normalized(MemoryDesign::ExploitFreqLat, Suite::Hpcg, UsageBucket::Low);
    println!("Exploit Freq+Lat (no protection): {ideal:.3}x over baseline");
    println!("Hetero-DMR@0.8GT/s (full reliability): {hdmr:.3}x over baseline");
}
