//! Differential property test: the indexed, allocation-free
//! [`ChannelController`] must be observationally identical to the
//! frozen naive [`ReferenceController`] — same per-read latencies,
//! same statistics, same pending-write depth — on randomized op
//! sequences covering every channel mode the designs use (rank
//! restriction, FMR read choice, broadcast copies, turnaround
//! penalties). Every drain must leave both write queues empty.
//!
//! Token *values* are an implementation detail (the reference hands
//! out sequence numbers, the real controller slab slots), so the
//! driver pairs each tracked submission's two tokens and only ever
//! compares resolved latencies.

use dram::timing::MemorySetting;
use dram::Picos;
use memsim::address::DramCoord;
use memsim::config::{ChannelMode, MemoryConfig};
use memsim::controller::ChannelController;
use memsim::reference::ReferenceController;

/// splitmix64: tiny, seedable, good enough to shuffle op sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A randomized but *valid* channel mode: knob combinations drawn from
/// the space the memory designs actually inhabit, plus adversarial
/// corners (broadcast without rank restriction).
fn random_mode(rng: &mut Rng) -> ChannelMode {
    let settings = [
        MemorySetting::Specified,
        MemorySetting::LatencyMargin,
        MemorySetting::FrequencyMargin,
        MemorySetting::FreqLatMargin,
    ];
    let mut mode = ChannelMode::commercial_baseline();
    mode.read_timing = settings[rng.below(4) as usize].timing();
    mode.write_timing = settings[rng.below(4) as usize].timing();
    mode.read_ranks = match rng.below(3) {
        0 => None,
        1 => Some(1),
        _ => Some(2),
    };
    mode.fmr_read_choice = rng.chance(30);
    mode.broadcast_copies = rng.below(3) as u32;
    mode.turnaround_penalty_ps = if rng.chance(50) { 1_000_000 } else { 0 };
    mode
}

/// A drain serves everything pending: neither queue keeps a write.
fn assert_drained(real: &ChannelController, naive: &ReferenceController, seed: u64) {
    assert_eq!(real.pending_writes(), 0, "drain left writes (seed {seed})");
    assert_eq!(
        naive.pending_writes(),
        0,
        "reference drain left writes (seed {seed})"
    );
}

/// Drives one op sequence through both controllers, comparing every
/// observable as it goes and the full statistics at the end.
fn run_sequence(seed: u64) {
    let mut rng = Rng(seed);
    let mode = random_mode(&mut rng);
    let mem = MemoryConfig::default();
    let page_timeout_ps: Picos = 200 * 625; // 200 cycles at 3200 MT/s
    let mut real = ChannelController::new(mode, mem, page_timeout_ps);
    let mut naive = ReferenceController::new(mode, mem, page_timeout_ps);

    let ranks = mem.ranks_per_channel() as u64;
    let banks = mem.banks_per_rank as u64;
    let mut now: Picos = 0;
    // Outstanding tracked reads as (real token, reference token).
    let mut outstanding: Vec<(u64, u64)> = Vec::new();

    let ops = 40 + rng.below(160);
    for _ in 0..ops {
        now += rng.below(40_000);
        let coord = DramCoord {
            channel: 0,
            rank: rng.below(ranks) as usize,
            bank: rng.below(banks) as usize,
            row: rng.below(24),
            column: rng.below(64),
        };
        match rng.below(100) {
            // Tracked read: remember the token pair.
            0..=44 => {
                let rt = real.submit_read(coord, now, true);
                let nt = naive.submit_read(coord, now, true);
                outstanding.push((rt, nt));
            }
            // Untracked (prefetch) read: fire and forget.
            45..=59 => {
                let _ = real.submit_read(coord, now, false);
                let _ = naive.submit_read(coord, now, false);
            }
            // Resolve a random outstanding read; latencies must agree.
            60..=79 => {
                if !outstanding.is_empty() {
                    let at = rng.below(outstanding.len() as u64) as usize;
                    let (rt, nt) = outstanding.swap_remove(at);
                    assert_eq!(
                        real.resolve_read(rt),
                        naive.resolve_read(nt),
                        "latency diverged (seed {seed})"
                    );
                }
            }
            // Queue a write.
            80..=92 => {
                real.enqueue_write(coord);
                naive.enqueue_write(coord);
            }
            // Drain every pending write; resume times must agree.
            _ => {
                assert_eq!(
                    real.drain_writes(now),
                    naive.drain_writes(now),
                    "write-drain resume diverged (seed {seed})"
                );
                assert_drained(&real, &naive, seed);
            }
        }
        assert_eq!(
            real.pending_writes(),
            naive.pending_writes(),
            "write-queue depth diverged (seed {seed})"
        );
    }

    // Settle: resolve everything outstanding, flush the queues.
    for (rt, nt) in outstanding {
        assert_eq!(
            real.resolve_read(rt),
            naive.resolve_read(nt),
            "latency diverged at settle (seed {seed})"
        );
    }
    real.process_reads();
    naive.process_reads();
    now += 1_000_000;
    assert_eq!(
        real.drain_writes(now),
        naive.drain_writes(now),
        "final drain diverged (seed {seed})"
    );
    assert_drained(&real, &naive, seed);
    assert_eq!(
        real.stats(),
        naive.stats(),
        "statistics diverged (seed {seed})"
    );
}

/// ≥1000 random sequences; each covers a fresh mode and op stream.
#[test]
fn controller_matches_reference_on_random_sequences() {
    for seed in 0..1024u64 {
        run_sequence(0xD1FF_0000 + seed);
    }
}

/// Pin the bank-fairness bypass path: a stream of row hits to one bank
/// must not starve an older request to another bank forever, and both
/// implementations must break the tie at the same op.
#[test]
fn bypass_cap_behaviour_matches() {
    for seed in 0..64u64 {
        let mut rng = Rng(0xBCA5_0000 + seed);
        let mode = ChannelMode::commercial_baseline();
        let mem = MemoryConfig::default();
        let mut real = ChannelController::new(mode, mem, 125_000);
        let mut naive = ReferenceController::new(mode, mem, 125_000);
        // One old request parked on bank 1...
        let parked = DramCoord {
            channel: 0,
            rank: 0,
            bank: 1,
            row: 5,
            column: 0,
        };
        let rt = real.submit_read(parked, 0, true);
        let nt = naive.submit_read(parked, 0, true);
        // ...then a long, interleaved row-hit stream to bank 0 that
        // keeps winning the FR-FCFS pick until the cap trips.
        let mut pairs = Vec::new();
        for i in 0..200u64 {
            let c = DramCoord {
                channel: 0,
                rank: 0,
                bank: 0,
                row: 9,
                column: i % 64,
            };
            let arrival = 100 + i * rng.below(50);
            pairs.push((
                real.submit_read(c, arrival, true),
                naive.submit_read(c, arrival, true),
            ));
            if rng.chance(20) {
                let (r, n) = pairs.swap_remove(rng.below(pairs.len() as u64) as usize);
                assert_eq!(real.resolve_read(r), naive.resolve_read(n));
            }
        }
        assert_eq!(real.resolve_read(rt), naive.resolve_read(nt));
        for (r, n) in pairs {
            assert_eq!(real.resolve_read(r), naive.resolve_read(n));
        }
        assert_eq!(real.stats(), naive.stats());
    }
}
