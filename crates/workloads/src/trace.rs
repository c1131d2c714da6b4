//! The synthetic access-stream generator.

use crate::suite::SuiteParams;
use memsim::cache::DescendingRun;
use memsim::trace::MemOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many operations apart (on average) MPI stalls are injected.
const MPI_PERIOD_OPS: f64 = 2_000.0;

/// A deterministic, bounded memory-access stream for one core,
/// realizing a [`SuiteParams`] model.
///
/// Implements `Iterator<Item = MemOp>`, so it plugs directly into
/// [`memsim::NodeSim::run`] via the blanket
/// [`memsim::AccessStream`] impl.
///
/// ```
/// use workloads::{Suite, TraceGen};
///
/// let ops: Vec<_> = TraceGen::new(Suite::Hpcg.params(), 7, 100).collect();
/// assert_eq!(ops.len(), 100);
/// // Deterministic for a seed:
/// let again: Vec<_> = TraceGen::new(Suite::Hpcg.params(), 7, 100).collect();
/// assert_eq!(ops, again);
/// ```
/// Stream cursors per core. One dominant stream keeps DRAM row
/// locality realistic — hardware reassembles per-array locality via
/// FR-FCFS even when software interleaves operand arrays.
const STREAMS_PER_CORE: usize = 1;

#[derive(Debug)]
pub struct TraceGen {
    params: SuiteParams,
    rng: StdRng,
    remaining: usize,
    /// Concurrent stream cursors (operand arrays), round-robined.
    cursors: [u64; STREAMS_PER_CORE],
    next_stream: usize,
    /// Byte offset of this core's partition (so cores touch disjoint
    /// data, as MPI ranks do).
    base: u64,
}

impl TraceGen {
    /// Creates a stream of `ops` operations with the given `seed`.
    /// Streams with different seeds model different MPI ranks: same
    /// statistics, disjoint address partitions.
    pub fn new(params: SuiteParams, seed: u64, ops: usize) -> TraceGen {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cursors = [0u64; STREAMS_PER_CORE];
        for c in cursors.iter_mut() {
            *c = rng.random_range(0..params.footprint_blocks);
        }
        TraceGen {
            params,
            rng,
            remaining: ops,
            cursors,
            next_stream: 0,
            base: (seed % 64) * (params.footprint_blocks * 64 * 2),
        }
    }

    /// Remaining operations.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The warm-up a cache would hold when this stream begins, described
    /// once: the `count` footprint blocks *behind* the stream's starting
    /// cursor (its recent past), walking down from just behind it and
    /// wrapping at the footprint's bottom, dirtied with probability
    /// `dirty_fraction`, then the warm reuse region. A conventional
    /// system's steady-state LLC is dirty at roughly the store fraction
    /// ([`SuiteParams::write_fraction`]); a system with proactive LLC
    /// cleaning keeps it nearly clean. `memsim::cache::Cache::warm_run`
    /// places the run in closed form; [`warmup`](Self::warmup) yields
    /// the same warm-up as pairs.
    pub fn warmup_shape(&self, count: usize, dirty_fraction: f64) -> WarmupShape {
        let p = self.params;
        let [cursor] = self.cursors;
        let first = self.base / 64 + p.hot_blocks;
        let f = p.footprint_blocks;
        // The warm reuse region (when the suite uses one) goes in last
        // (most recently used) so a cache large enough to hold it
        // starts with it resident.
        let warm = if p.warm_fraction > 0.0 {
            p.warm_blocks
        } else {
            0
        };
        WarmupShape {
            run: DescendingRun {
                first,
                span: f,
                start: (cursor + f - 1) % f,
                count: count as u64,
            },
            dirty: DirtyDraws::new(self.base ^ 0x9E37_79B9, dirty_fraction),
            warm: first + f..first + f + warm,
        }
    }

    /// The `(block, dirty)` pairs of [`warmup_shape`](Self::warmup_shape)
    /// in order: the run's blocks with their dirty draws, then the warm
    /// region, clean. Feed to `memsim::NodeSim::prewarm_core` for the
    /// per-block warm fill.
    pub fn warmup(&self, count: usize, dirty_fraction: f64) -> impl Iterator<Item = (u64, bool)> {
        let WarmupShape { run, dirty, warm } = self.warmup_shape(count, dirty_fraction);
        run.zip(dirty).chain(warm.map(|block| (block, false)))
    }

    /// [`warmup`](Self::warmup), collected.
    pub fn warmup_blocks(&self, count: usize, dirty_fraction: f64) -> Vec<(u64, bool)> {
        self.warmup(count, dirty_fraction).collect()
    }

    fn sample_gap(&mut self) -> u32 {
        let p = &self.params;
        // Exponentially distributed compute gap.
        let u: f64 = 1.0 - self.rng.random::<f64>();
        let mut gap = round_half_away(-p.mean_gap * u.ln()) as u32;
        // Occasional MPI stall: a long, memory-speed-insensitive pause.
        if self.rng.random_bool(1.0 / MPI_PERIOD_OPS) {
            let f = p.mpi_stall_fraction.min(0.45);
            let mpi_instrs = (f / (1.0 - f) * MPI_PERIOD_OPS * (p.mean_gap + 4.0)).round() as u32;
            gap = gap.saturating_add(mpi_instrs);
        }
        gap
    }

    fn next_block(&mut self) -> u64 {
        let p = self.params;
        if self.rng.random_bool(p.hot_fraction) {
            // Hot region: cache-resident data (stack, tables, frontier).
            return self.rng.random_range(0..p.hot_blocks);
        }
        if self.rng.random_bool(p.warm_fraction) {
            // Warm region: a mid-size reused tile that fits the larger
            // hierarchy's cache but not the smaller one's. Placed past
            // the footprint so the streaming cursor never evicts it
            // wholesale.
            return p.hot_blocks + p.footprint_blocks + self.rng.random_range(0..p.warm_blocks);
        }
        // Round-robin the operand streams (a triad touches several
        // arrays per iteration).
        let s = self.next_stream;
        self.next_stream += 1;
        if self.next_stream >= STREAMS_PER_CORE {
            self.next_stream = 0;
        }
        if self.rng.random_bool(p.streaming) {
            // Continue this stream.
            self.cursors[s] = (self.cursors[s] + p.stride_blocks) % p.footprint_blocks;
        } else {
            // Jump somewhere new and stream from there.
            self.cursors[s] = self.rng.random_range(0..p.footprint_blocks);
        }
        p.hot_blocks + self.cursors[s]
    }
}

/// A stream's warm-up, from [`TraceGen::warmup_shape`]: one descending
/// run over the footprint, its dirty flags in order, then the warm
/// region's blocks (clean, most recent last).
#[derive(Debug, Clone)]
pub struct WarmupShape {
    /// The footprint blocks behind the stream's cursor.
    pub run: DescendingRun,
    /// One dirty flag per run block.
    pub dirty: DirtyDraws,
    /// The warm reuse region, empty when the suite has none.
    pub warm: std::ops::Range<u64>,
}

/// A warm-up's dirty flags: an endless stream of `random_bool(p)`
/// draws from their own generator.
#[derive(Debug, Clone)]
pub struct DirtyDraws {
    rng: StdRng,
    p: f64,
}

impl DirtyDraws {
    fn new(seed: u64, p: f64) -> DirtyDraws {
        DirtyDraws {
            rng: StdRng::seed_from_u64(seed),
            p,
        }
    }
}

impl Iterator for DirtyDraws {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        Some(self.rng.random_bool(self.p))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Exactly `g.round()` for the non-negative values the gap sampler
/// produces, but built from a truncation (one instruction) instead of
/// a libm call: `g.trunc()` is exact, `g - g.trunc()` is exact (both
/// are multiples of `ulp(g)` and less than one apart), so the
/// half-away-from-zero decision is bit-identical to `round`'s.
#[inline]
fn round_half_away(g: f64) -> f64 {
    let t = g.trunc();
    t + ((g - t) >= 0.5) as u32 as f64
}

impl Iterator for TraceGen {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let gap = self.sample_gap();
        let block = self.next_block();
        let addr = self.base + block * 64;
        let is_write = self.rng.random_bool(self.params.write_fraction);
        Some(if is_write {
            MemOp::store(addr, gap)
        } else {
            MemOp::load(addr, gap)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceGen {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;

    #[test]
    fn round_half_away_matches_round() {
        // The fast path must be bit-identical to `f64::round` on the
        // sampler's domain (non-negative), including exact halves and
        // values produced by the actual gap expression.
        for i in 0..200_000u64 {
            let g = i as f64 * 0.437 + (i % 7) as f64 * 0.5;
            assert_eq!(round_half_away(g), g.round(), "g={g}");
        }
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200_000 {
            let u: f64 = 1.0 - rng.random::<f64>();
            let g = -137.0 * u.ln();
            assert_eq!(round_half_away(g), g.round(), "g={g}");
        }
        for g in [0.0, 0.5, 0.49999999999999994, 1.5, 2.5, 4503599627370495.5] {
            assert_eq!(round_half_away(g), g.round(), "g={g}");
        }
    }

    #[test]
    fn produces_exactly_n_ops() {
        let gen = TraceGen::new(Suite::Linpack.params(), 1, 5_000);
        assert_eq!(gen.len(), 5_000);
        assert_eq!(gen.count(), 5_000);
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let a: Vec<_> = TraceGen::new(Suite::Npb.params(), 3, 500).collect();
        let b: Vec<_> = TraceGen::new(Suite::Npb.params(), 3, 500).collect();
        let c: Vec<_> = TraceGen::new(Suite::Npb.params(), 4, 500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn write_fraction_matches_parameter() {
        let p = Suite::Lulesh.params();
        let ops: Vec<_> = TraceGen::new(p, 9, 20_000).collect();
        let writes = ops.iter().filter(|o| o.is_write).count() as f64;
        let frac = writes / ops.len() as f64;
        assert!((frac - p.write_fraction).abs() < 0.02, "write frac {frac}");
    }

    #[test]
    fn mean_gap_matches_parameter() {
        let p = Suite::Hpcg.params();
        let ops: Vec<_> = TraceGen::new(p, 11, 20_000).collect();
        let mean: f64 =
            ops.iter().map(|o| o.gap_instructions as f64).sum::<f64>() / ops.len() as f64;
        // MPI stalls inflate the mean above mean_gap by design.
        assert!(mean > p.mean_gap * 0.8, "mean gap {mean}");
        assert!(mean < p.mean_gap + 10.0, "mean gap {mean}");
    }

    #[test]
    fn streaming_suites_have_sequential_runs() {
        let ops: Vec<_> = TraceGen::new(Suite::Linpack.params(), 5, 10_000).collect();
        let sequential = ops
            .windows(2)
            .filter(|w| w[1].block() == w[0].block() + 1)
            .count() as f64;
        let frac = sequential / ops.len() as f64;
        assert!(frac > 0.4, "linpack sequential fraction {frac}");

        let ops: Vec<_> = TraceGen::new(Suite::Graph500.params(), 5, 10_000).collect();
        let sequential = ops
            .windows(2)
            .filter(|w| w[1].block() == w[0].block() + 1)
            .count() as f64;
        let frac_g = sequential / ops.len() as f64;
        assert!(frac_g < 0.25, "graph500 sequential fraction {frac_g}");
    }

    #[test]
    fn addresses_stay_in_partition() {
        let p = Suite::Coral2.params();
        let span = p.footprint_blocks * 64 * 2;
        for seed in [0u64, 1, 7] {
            let base = (seed % 64) * span;
            for op in TraceGen::new(p, seed, 2_000) {
                assert!(op.addr >= base && op.addr < base + span);
            }
        }
    }

    /// `warmup` walks down from just behind the cursor with a
    /// decrement that wraps, which must equal the position formula
    /// `(cursor + f - 1 - i % f) % f` for every `i`, also past a whole
    /// footprint, and must end with the warm region.
    #[test]
    fn warmup_matches_its_position_formula() {
        let p = SuiteParams {
            footprint_blocks: 37,
            warm_fraction: 0.5,
            warm_blocks: 5,
            ..Suite::Hpcg.params()
        };
        for seed in 0..40u64 {
            let gen = TraceGen::new(p, seed, 10);
            let first = gen.base / 64 + p.hot_blocks;
            let mut rng = StdRng::seed_from_u64(gen.base ^ 0x9E37_79B9);
            let f = p.footprint_blocks;
            let mut expected: Vec<(u64, bool)> = (0..100u64)
                .map(|i| {
                    let offset = (gen.cursors[0] + f - 1 - i % f) % f;
                    (first + offset, rng.random_bool(0.3))
                })
                .collect();
            expected.extend((0..5).map(|i| (first + f + i, false)));
            let warmup = gen.warmup(100, 0.3);
            assert_eq!(warmup.size_hint(), (105, Some(105)), "seed {seed}");
            assert_eq!(warmup.collect::<Vec<_>>(), expected, "seed {seed}");
        }
    }

    #[test]
    fn different_ranks_touch_disjoint_memory() {
        let p = Suite::Npb.params();
        let a: std::collections::HashSet<u64> =
            TraceGen::new(p, 0, 2_000).map(|o| o.block()).collect();
        let b: std::collections::HashSet<u64> =
            TraceGen::new(p, 1, 2_000).map(|o| o.block()).collect();
        assert!(a.is_disjoint(&b));
    }
}
