//! Batched single-channel stepping: the indexed [`ChannelController`]
//! versus the frozen naive [`ReferenceController`] on an identical op
//! sequence.
//!
//! This bench *gates*: it asserts the optimized controller sustains at
//! least the reference's ops/s (best-of-3 each, interleaved so thermal
//! drift hits both sides), so `ci.sh` catches a hot-path regression
//! that the differential tests — which only check *behaviour* — would
//! wave through. The two controllers are driven through the same mixed
//! read/write/drain sequence the node simulator issues: bursts of
//! untracked reads, tracked reads resolved out of order, and batched
//! write drains.

use memsim::address::{AddressMapping, DramCoord};
use memsim::config::{ChannelMode, MemoryConfig};
use memsim::controller::ChannelController;
use memsim::reference::ReferenceController;
use std::hint::black_box;
use std::time::Instant;

/// splitmix64, matching the differential suite's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One pre-generated controller op, so sequence generation stays out
/// of the timed region.
enum Op {
    Read {
        coord: DramCoord,
        arrival: u64,
        tracked: bool,
    },
    Write {
        coord: DramCoord,
    },
    Drain {
        now: u64,
    },
}

fn sequence(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mapping = AddressMapping::new(1, 4, 16);
    let mut now = 0u64;
    let mut out = Vec::with_capacity(ops);
    let mut cursor = 0u64;
    let mut pending_writes = 0usize;
    for _ in 0..ops {
        now += 2_000 + rng.below(30_000);
        // 70% streaming, 30% random — the node's trace mix.
        let addr = if rng.below(100) < 70 {
            cursor = cursor.wrapping_add(64);
            cursor
        } else {
            rng.below(1 << 22) * 64
        };
        let coord = mapping.map(addr);
        if rng.below(100) < 25 {
            out.push(Op::Write { coord });
            pending_writes += 1;
            if pending_writes >= 64 {
                out.push(Op::Drain { now });
                pending_writes = 0;
            }
        } else {
            out.push(Op::Read {
                coord,
                arrival: now,
                tracked: rng.below(100) < 40,
            });
        }
    }
    out
}

/// Drives `ops` through a controller; both controller types expose the
/// same stepping surface, so one macro body serves both.
macro_rules! drive {
    ($ctrl:expr, $ops:expr) => {{
        let ctrl = $ctrl;
        let mut tokens: Vec<u64> = Vec::with_capacity(64);
        for op in $ops {
            match *op {
                Op::Read {
                    coord,
                    arrival,
                    tracked,
                } => {
                    let t = ctrl.submit_read(coord, arrival, tracked);
                    if tracked {
                        tokens.push(t);
                    }
                    if tokens.len() >= 32 {
                        for t in tokens.drain(..) {
                            black_box(ctrl.resolve_read(t));
                        }
                    }
                }
                Op::Write { coord } => ctrl.enqueue_write(coord),
                Op::Drain { now } => {
                    black_box(ctrl.drain_writes(now));
                }
            }
        }
        for t in tokens.drain(..) {
            black_box(ctrl.resolve_read(t));
        }
        black_box(ctrl.stats());
    }};
}

const OPS: usize = 60_000;
const ROUNDS: usize = 3;

fn time_batched(ops: &[Op]) -> f64 {
    let mode = ChannelMode::commercial_baseline();
    let mem = MemoryConfig::default();
    let mut ctrl = ChannelController::new(mode, mem, 200 * 625);
    let start = Instant::now();
    drive!(&mut ctrl, ops);
    start.elapsed().as_secs_f64()
}

fn time_reference(ops: &[Op]) -> f64 {
    let mode = ChannelMode::commercial_baseline();
    let mem = MemoryConfig::default();
    let mut ctrl = ReferenceController::new(mode, mem, 200 * 625);
    let start = Instant::now();
    drive!(&mut ctrl, ops);
    start.elapsed().as_secs_f64()
}

fn main() {
    let ops = sequence(0x57E9, OPS);
    // Interleave rounds (warm-up pair first, unmeasured) so frequency
    // scaling and cache state drift hit both controllers equally.
    let _ = time_batched(&ops);
    let _ = time_reference(&ops);
    let mut best_batched = f64::INFINITY;
    let mut best_reference = f64::INFINITY;
    for _ in 0..ROUNDS {
        best_batched = best_batched.min(time_batched(&ops));
        best_reference = best_reference.min(time_reference(&ops));
    }
    let batched_ops_s = OPS as f64 / best_batched;
    let reference_ops_s = OPS as f64 / best_reference;
    let ratio = batched_ops_s / reference_ops_s;
    println!(
        "stepping/batched: {:.1} ns/iter ({:.2} M ops/s)",
        1e9 * best_batched / OPS as f64,
        batched_ops_s / 1e6
    );
    println!(
        "stepping/reference: {:.1} ns/iter ({:.2} M ops/s)",
        1e9 * best_reference / OPS as f64,
        reference_ops_s / 1e6
    );
    println!("stepping/speedup: {ratio:.2}x");
    assert!(
        ratio >= 1.0,
        "batched controller stepping regressed below the naive reference: \
         {batched_ops_s:.0} ops/s vs {reference_ops_s:.0} ops/s ({ratio:.2}x)"
    );
}
