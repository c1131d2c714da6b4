//! Differential property test: the indexed, allocation-free
//! [`ChannelController`] must be observationally identical to the
//! frozen naive [`ReferenceController`] — same per-read latencies,
//! same statistics, same pending-write depth — on randomized op
//! sequences covering every channel mode the designs use (rank
//! restriction, FMR read choice, broadcast copies, turnaround
//! penalties). Every drain must leave both write queues empty.
//!
//! Two arrival shapes are driven. Monotone sequences advance the clock
//! by up to 40 ns per op, so arrivals never decrease and almost never
//! tie. Tie-dense sequences submit the way a node does: an op's demand
//! read and its prefetches share one arrival, and cores submit out of
//! arrival order. They draw arrivals from a small jittered window
//! around the clock, with exact repeats and arrivals older than
//! anything queued, over queues kept 100+ untracked reads deep. That
//! is where the FR-FCFS pick's `(arrival, slot)` tie-break, the
//! relabel of the cached oldest request after `swap_remove`, and
//! bypass aging (strictly older requests only) are exercised.
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

/// How a sequence draws its arrival times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// The clock advances by up to 40 ns per op; arrivals never
    /// decrease.
    Monotone,
    /// Arrivals jitter around a slow clock, repeat exactly and reach
    /// behind everything queued, over 100+ deep untracked backlogs.
    TieDense,
}

/// Tracked submissions of the two shapes tie-dense sequences exist
/// for. Both counts are exact, not estimates: a *tie* repeats the
/// arrival of the previous tracked read with no resolve or drain in
/// between, so both are queued together; an *older* read arrives
/// before every read submitted since the queue was last emptied, while
/// a tracked read submitted since the last resolve or drain is known
/// to be queued.
#[derive(Debug, Default)]
struct Draws {
    ties: u64,
    older: u64,
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
fn run_sequence(seed: u64, arrivals: Arrivals) -> Draws {
    let mut rng = Rng(seed);
    let mode = random_mode(&mut rng);
    let mem = MemoryConfig::default();
    let page_timeout_ps: Picos = 200 * 625; // 200 cycles at 3200 MT/s
    let mut real = ChannelController::new(mode, mem, page_timeout_ps);
    let mut naive = ReferenceController::new(mode, mem, page_timeout_ps);

    let ranks = mem.ranks_per_channel() as u64;
    let banks = mem.banks_per_rank as u64;
    let tie_dense = arrivals == Arrivals::TieDense;
    // Few rows and banks make row hits, and so bypasses, common.
    let (rows, bank_span) = if tie_dense { (4, 4) } else { (24, banks) };
    let coord = |rng: &mut Rng| DramCoord {
        channel: 0,
        rank: rng.below(ranks) as usize,
        bank: rng.below(bank_span) as usize,
        row: rng.below(rows),
        column: rng.below(64),
    };
    let mut now: Picos = 0;
    // Outstanding tracked reads as (real token, reference token).
    let mut outstanding: Vec<(u64, u64)> = Vec::new();
    let mut draws = Draws::default();
    // The oldest arrival submitted since the queue was last emptied,
    // and the previous tracked arrival since the last resolve or drain
    // (while it is set, that tracked read is known to be queued).
    let mut min_since_empty = Picos::MAX;
    let mut last_tracked: Option<Picos> = None;

    if tie_dense {
        // A deep untracked backlog just before the starting clock: the
        // cap on queued prefetches is 192, so every one of these is
        // queued.
        now = 100_000;
        for _ in 0..100 + rng.below(60) {
            let arrival = now - rng.below(16) * 250;
            let c = coord(&mut rng);
            let _ = real.submit_read(c, arrival, false);
            let _ = naive.submit_read(c, arrival, false);
            min_since_empty = min_since_empty.min(arrival);
        }
    }

    let ops = 40 + rng.below(160);
    for _ in 0..ops {
        let arrival = if tie_dense {
            now += rng.below(4) * 250;
            match (rng.below(100), last_tracked) {
                (0..=19, Some(prev)) => prev,
                (20..=29, _) if last_tracked.is_some() && min_since_empty > 0 => {
                    min_since_empty - 1 - rng.below(min_since_empty.min(2_000))
                }
                _ => (now + rng.below(8) * 250).saturating_sub(1_000),
            }
        } else {
            now += rng.below(40_000);
            now
        };
        let coord = coord(&mut rng);
        // Tie-dense sequences lean on untracked reads and rarely drain,
        // so the queue stays deep.
        let op = rng.below(100);
        let op = if tie_dense {
            match op {
                0..=29 => 0,
                30..=69 => 50,
                70..=84 => 70,
                85..=97 => 85,
                _ => 99,
            }
        } else {
            op
        };
        match op {
            // Tracked read: remember the token pair. (Untracked reads
            // can be dropped at the prefetch cap, so only tracked ones
            // are counted.)
            0..=44 => {
                draws.ties += (last_tracked == Some(arrival)) as u64;
                draws.older += (last_tracked.is_some() && arrival < min_since_empty) as u64;
                min_since_empty = min_since_empty.min(arrival);
                let rt = real.submit_read(coord, arrival, true);
                let nt = naive.submit_read(coord, arrival, true);
                outstanding.push((rt, nt));
                last_tracked = Some(arrival);
            }
            // Untracked (prefetch) read: fire and forget.
            45..=59 => {
                min_since_empty = min_since_empty.min(arrival);
                let _ = real.submit_read(coord, arrival, false);
                let _ = naive.submit_read(coord, arrival, false);
            }
            // Resolve a random outstanding read; latencies must agree.
            60..=79 => {
                last_tracked = None;
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
            // Drain every pending write; resume times must agree. The
            // drain schedules every queued read first.
            _ => {
                last_tracked = None;
                min_since_empty = Picos::MAX;
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
    draws
}

/// ≥1000 random sequences; each covers a fresh mode and op stream.
#[test]
fn controller_matches_reference_on_random_sequences() {
    for seed in 0..1024u64 {
        run_sequence(0xD1FF_0000 + seed, Arrivals::Monotone);
    }
}

/// 1024 tie-dense, out-of-order sequences over deep queues. The driver
/// must actually have produced both shapes it exists for.
#[test]
fn controller_matches_reference_on_tie_dense_sequences() {
    let mut total = Draws::default();
    for seed in 0..1024u64 {
        let draws = run_sequence(0x7E1E_0000 + seed, Arrivals::TieDense);
        total.ties += draws.ties;
        total.older += draws.older;
    }
    assert!(total.ties > 0, "no tied submissions: {total:?}");
    assert!(
        total.older > 0,
        "no older-than-queued submissions: {total:?}"
    );
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
