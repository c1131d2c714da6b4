//! Set-associative write-back caches with true-LRU replacement.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was present.
    pub hit: bool,
    /// Block address of a dirty victim evicted by the fill (misses
    /// only; `None` when the victim was clean or the set had room).
    pub writeback: Option<u64>,
}

/// Tag sentinel for empty slots (unreachable by any real address: a
/// real tag is `addr >> (6 + index_bits)`, which can never reach
/// `u64::MAX`).
const TAG_EMPTY: u64 = u64::MAX;

/// A set-associative write-back, write-allocate cache.
///
/// Operates on 64-byte block addresses (`addr >> 6`). State is
/// struct-of-arrays: one contiguous `ways`-strided tag array, a
/// parallel recency array, and a packed dirty bitmask. The hit path —
/// the overwhelmingly common case — scans only the tag array: a
/// 16-way set is two cache lines of tags instead of six lines of
/// tag/lru/dirty records, and the compare loop is branch-light enough
/// to vectorize. Recency (`lru == 0` marks an empty slot; the access
/// tick is pre-incremented so resident lines are always nonzero) and
/// dirty bits are only touched for the one line an access actually
/// changes.
///
/// Recency stamps are `u32`, which keeps the recency array half the
/// size of a `u64` one. Before the tick would wrap, one pass
/// rank-compresses every resident line's stamp to `1..=resident`,
/// keeping their order across the whole cache, so victims and the
/// cleaning order are exactly what unbounded stamps would give.
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    /// Higher = more recently used; 0 = slot empty.
    lru: Vec<u32>,
    /// Packed dirty bits, one per line slot.
    dirty: Vec<u64>,
    ways: usize,
    set_count: usize,
    set_mask: u64,
    set_shift: u32,
    /// `set_count.trailing_zeros()`, cached for address reassembly.
    index_bits: u32,
    tick: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `ways` associativity and
    /// 64-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes / (64 * ways)` is a nonzero power of
    /// two (required for mask-based set indexing), or when the cache
    /// has `u32::MAX` lines or more (recency stamps are `u32`).
    pub fn new(size_bytes: usize, ways: usize) -> Cache {
        let set_count = size_bytes / (64 * ways);
        assert!(
            set_count > 0 && set_count.is_power_of_two(),
            "cache must have a power-of-two number of sets (got {set_count})"
        );
        let lines = set_count * ways;
        assert!(
            lines < u32::MAX as usize,
            "cache has too many lines for u32 recency ({lines})"
        );
        Cache {
            tags: vec![TAG_EMPTY; lines],
            lru: vec![0; lines],
            dirty: vec![0; lines.div_ceil(64)],
            ways,
            set_count,
            set_mask: (set_count - 1) as u64,
            set_shift: 6,
            index_bits: set_count.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.set_count * self.ways * 64
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in [0, 1]; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.set_shift;
        ((block & self.set_mask) as usize, block >> self.index_bits)
    }

    /// Reassembles a line's block address from its tag and set.
    fn block_of(&self, set_idx: usize, tag: u64) -> u64 {
        let shift_back = self.set_shift + self.index_bits;
        let set_bits = (set_idx as u64) << self.set_shift;
        ((tag << shift_back) | set_bits) >> self.set_shift
    }

    /// The next recency stamp, renormalizing first if the tick would
    /// wrap.
    #[inline]
    fn next_tick(&mut self) -> u32 {
        if self.tick == u32::MAX {
            self.renormalize_lru();
        }
        self.tick += 1;
        self.tick
    }

    /// Rank-compresses every resident line's stamp to `1..=resident`
    /// in their global order (stamps are distinct: each tick stamps one
    /// line) and restarts the tick after the highest rank. Empty slots
    /// keep 0.
    #[cold]
    fn renormalize_lru(&mut self) {
        let mut stamps: Vec<u32> = self.lru.iter().copied().filter(|&l| l != 0).collect();
        stamps.sort_unstable();
        for l in self.lru.iter_mut().filter(|l| **l != 0) {
            // Ranks are at most `lines`, which `new` keeps below u32::MAX.
            *l = stamps.partition_point(|&s| s < *l) as u32 + 1;
        }
        self.tick = stamps.len() as u32;
    }

    #[inline]
    fn is_dirty(&self, line: usize) -> bool {
        self.dirty[line >> 6] & (1u64 << (line & 63)) != 0
    }

    #[inline]
    fn set_dirty(&mut self, line: usize, dirty: bool) {
        let word = &mut self.dirty[line >> 6];
        let bit = 1u64 << (line & 63);
        if dirty {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The matching slot, or the insertion slot (first empty, else LRU
    /// victim). The hit scan compares tags alone — [`TAG_EMPTY`] makes
    /// empty slots unmatchable — so the common (hit) path is a single
    /// compare per way.
    ///
    /// Occupied slots always form a prefix of the set (insertions take
    /// the leftmost empty slot and a tag is never reset to empty), so
    /// a miss in a set whose last slot is still empty resolves from
    /// the tag array alone — cold fills and prewarm never touch the
    /// recency array to *find* their slot; the LRU scan runs only for
    /// full sets.
    #[inline]
    fn probe(&self, base: usize, tag: u64) -> Result<usize, usize> {
        let tags = &self.tags[base..base + self.ways];
        if let Some(at) = tags.iter().position(|&t| t == tag) {
            return Ok(at);
        }
        if tags[self.ways - 1] == TAG_EMPTY {
            let at = tags
                .iter()
                .position(|&t| t == TAG_EMPTY)
                .expect("last slot is empty");
            return Err(at); // first empty slot wins
        }
        let lru = &self.lru[base..base + self.ways];
        let mut slot = 0;
        let mut slot_lru = u32::MAX;
        for (i, &l) in lru.iter().enumerate() {
            if l < slot_lru {
                slot_lru = l;
                slot = i;
            }
        }
        Err(slot)
    }

    /// Accesses `addr`; on a miss the block is allocated (write-
    /// allocate) and the LRU victim evicted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let tick = self.next_tick();
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.ways;
        match self.probe(base, tag) {
            Ok(at) => {
                let line = base + at;
                self.lru[line] = tick;
                if is_write {
                    self.set_dirty(line, true);
                }
                self.hits += 1;
                AccessResult {
                    hit: true,
                    writeback: None,
                }
            }
            Err(slot) => {
                self.misses += 1;
                let line = base + slot;
                let writeback = (self.lru[line] != 0 && self.is_dirty(line))
                    .then(|| self.block_of(set_idx, self.tags[line]));
                self.tags[line] = tag;
                self.lru[line] = tick;
                self.set_dirty(line, is_write);
                AccessResult {
                    hit: false,
                    writeback,
                }
            }
        }
    }

    /// Fills `addr` without counting a demand access (prefetch path).
    /// Returns a dirty victim's block address if one was evicted.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let tick = self.next_tick();
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.ways;
        match self.probe(base, tag) {
            Ok(at) => {
                // Already present: refresh recency only.
                self.lru[base + at] = tick;
                None
            }
            Err(slot) => {
                let line = base + slot;
                let writeback = (self.lru[line] != 0 && self.is_dirty(line))
                    .then(|| self.block_of(set_idx, self.tags[line]));
                self.tags[line] = tag;
                self.lru[line] = tick;
                self.set_dirty(line, false);
                writeback
            }
        }
    }

    /// Installs `addr` with an explicit dirty flag, without counting
    /// statistics or producing writebacks — cache warmup for starting
    /// a simulation in steady state (the paper warms its gem5 caches
    /// before measuring). The LRU victim of a full set is dropped
    /// (warmup victims carry no obligations).
    pub fn prewarm(&mut self, addr: u64, dirty: bool) {
        let tick = self.next_tick();
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.ways;
        match self.probe(base, tag) {
            Ok(at) => {
                let line = base + at;
                self.lru[line] = tick;
                if dirty {
                    self.set_dirty(line, true);
                }
            }
            Err(slot) => {
                let line = base + slot;
                self.tags[line] = tag;
                self.lru[line] = tick;
                self.set_dirty(line, dirty);
            }
        }
    }

    /// [`prewarm`](Self::prewarm) for each `(addr, dirty)` of `blocks`
    /// in order, leaving exactly the state those calls would: the one
    /// batch warm fill.
    ///
    /// On an untouched cache (tick 0) it skips the lookup for every
    /// block it can prove new. A new block always misses; the first
    /// empty slot of a set is its leftmost one (occupied slots form a
    /// prefix); and once a set is full its LRU line is the one placed
    /// `ways` placements earlier, since no block was touched twice. So
    /// a set's `k`-th placement goes to slot `k % ways`, kept as a
    /// wrapping cursor per set. A block is proven new while the blocks
    /// so far form strictly monotone runs and it lies outside the
    /// `[lo, hi]` range of every earlier run, the shape of
    /// `workloads::TraceGen::warmup`. From the first block it cannot
    /// prove new, it continues with per-block `prewarm` on the
    /// identical state.
    pub fn prewarm_blocks<I: IntoIterator<Item = (u64, bool)>>(&mut self, blocks: I) {
        let mut blocks = blocks.into_iter();
        if self.tick == 0 {
            let mut runs = DistinctRuns::default();
            let mut next_slot = vec![0usize; self.set_count];
            for (addr, dirty) in blocks.by_ref() {
                let block = addr >> self.set_shift;
                if !runs.admit(block) {
                    self.prewarm(addr, dirty);
                    break;
                }
                let tick = self.next_tick();
                let set_idx = (block & self.set_mask) as usize;
                let slot = next_slot[set_idx];
                next_slot[set_idx] = if slot + 1 == self.ways { 0 } else { slot + 1 };
                let line = set_idx * self.ways + slot;
                self.tags[line] = block >> self.index_bits;
                self.lru[line] = tick;
                self.set_dirty(line, dirty);
            }
        }
        for (addr, dirty) in blocks {
            self.prewarm(addr, dirty);
        }
    }

    /// Whether `addr`'s block is currently cached (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.ways;
        // Tag-only compare: TAG_EMPTY keeps empty slots unmatchable.
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// Collects up to `limit` least-recently-used *dirty* blocks across
    /// the cache and marks them clean, returning their block addresses
    /// in recency order (Hetero-DMR's LLC-cleaning order, Section
    /// III-E). The simulator models cleaning through the write-batch
    /// watermark instead, so this is a recency probe: it exposes the
    /// cache-wide LRU order that rank compression must preserve, and
    /// the recency tests and oracles compare it.
    pub fn clean_lru_dirty(&mut self, limit: usize) -> Vec<u64> {
        let mut dirty: Vec<(u32, usize)> = Vec::new();
        for (word_idx, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let line = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if line < self.lru.len() && self.lru[line] != 0 {
                    dirty.push((self.lru[line], line));
                }
            }
        }
        dirty.sort_unstable_by_key(|&(lru, _)| lru);
        dirty.truncate(limit);
        let mut chosen = Vec::with_capacity(dirty.len());
        for &(_, line) in &dirty {
            self.set_dirty(line, false);
            chosen.push(self.block_of(line / self.ways, self.tags[line]));
        }
        chosen
    }

    /// Number of dirty lines currently resident.
    pub fn dirty_count(&self) -> usize {
        // Dirty bits are only ever set on resident lines, and eviction
        // rewrites the slot's bit — so the popcount is exact.
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Closed runs [`DistinctRuns`] remembers; a block stream with more
/// runs falls back to per-block lookups.
const MAX_RUNS: usize = 4;

/// Proves a stream of blocks pairwise distinct as it goes, for
/// [`Cache::prewarm_blocks`]: the stream must split into strictly
/// monotone runs, each block beyond its run's last one and outside the
/// `[lo, hi]` range of every earlier run.
#[derive(Default)]
struct DistinctRuns {
    /// `[lo, hi]` of each closed run.
    closed: [(u64, u64); MAX_RUNS],
    closed_len: usize,
    /// The open run's first and last blocks (`None` before any block).
    open: Option<(u64, u64)>,
    /// The open run's direction, once it has two blocks.
    ascending: Option<bool>,
}

impl DistinctRuns {
    /// Takes the next block; `false` when it cannot prove the block
    /// differs from every block before it.
    fn admit(&mut self, block: u64) -> bool {
        match self.open {
            Some((first, last)) => {
                let extends = match self.ascending {
                    Some(true) => block > last,
                    Some(false) => block < last,
                    None => block != last,
                };
                if extends {
                    self.ascending = Some(block > last);
                    self.open = Some((first, block));
                } else {
                    if self.closed_len == MAX_RUNS {
                        return false;
                    }
                    self.closed[self.closed_len] = (first.min(last), first.max(last));
                    self.closed_len += 1;
                    self.open = Some((block, block));
                    self.ascending = None;
                }
            }
            None => self.open = Some((block, block)),
        }
        // The open run holds the block once; the closed ones must not.
        !self.closed[..self.closed_len]
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(4096, 4); // 16 sets
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same block different byte");
        assert!(!c.access(0x2000, false).hit);
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set x 2 ways: 128-byte cache.
        let mut c = Cache::new(128, 2);
        c.access(0, false); // A
        c.access(64, false); // B (1 set: every block maps to set 0)
        c.access(128, false); // C evicts A (LRU)
        assert!(!c.access(0, false).hit, "A was evicted");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = Cache::new(128, 2); // 1 set, 2 ways
        c.access(0, true); // dirty A
        c.access(64, false); // clean B
        let res = c.access(128, false); // evicts A (LRU, dirty)
        assert_eq!(res.writeback, Some(0), "dirty block 0 written back");
        let res = c.access(192, false); // evicts B (clean)
        assert_eq!(res.writeback, None);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = Cache::new(128, 2);
        c.access(0, false); // clean fill
        c.access(0, true); // dirty it
        c.access(64, false);
        let res = c.access(128, false); // evict block 0
        assert_eq!(res.writeback, Some(0));
    }

    #[test]
    fn fill_does_not_count_as_demand() {
        let mut c = Cache::new(4096, 4);
        c.fill(0x40);
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.access(0x40, false).hit, "prefetched block hits");
    }

    #[test]
    fn writeback_address_round_trips() {
        let mut c = Cache::new(8192, 2); // 64 sets
        let addr = 0xABCD40;
        c.access(addr, true);
        // Evict it by filling the same set with 2 more blocks.
        let set_stride = 64 * 64; // sets * block
        let r1 = c.access(addr + set_stride as u64, false);
        assert_eq!(r1.writeback, None);
        let r2 = c.access(addr + 2 * set_stride as u64, false);
        assert_eq!(r2.writeback, Some(addr >> 6));
    }

    #[test]
    fn clean_lru_dirty_prefers_oldest() {
        let mut c = Cache::new(4096, 4);
        c.access(0, true); // oldest dirty
        c.access(64, true);
        c.access(128, true); // newest dirty
        let cleaned = c.clean_lru_dirty(2);
        assert_eq!(cleaned, vec![0, 1]);
        assert_eq!(c.dirty_count(), 1);
        // Cleaned blocks are still resident.
        assert!(c.contains(0));
        assert!(c.contains(64));
    }

    #[test]
    fn clean_lru_dirty_respects_limit() {
        let mut c = Cache::new(4096, 4);
        for i in 0..10u64 {
            c.access(i * 64, true);
        }
        assert_eq!(c.clean_lru_dirty(100).len(), 10);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.clean_lru_dirty(5).is_empty());
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = Cache::new(4096, 4);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Cache::new(4096, 3);
    }

    #[test]
    fn empty_slots_fill_before_eviction() {
        let mut c = Cache::new(256, 4); // 1 set, 4 ways
        c.access(0, true);
        // Three more fills must use empty slots, not evict the dirty
        // line.
        for i in 1..4u64 {
            assert_eq!(c.access(i * 64, false).writeback, None);
        }
        // Now the set is full: the next miss evicts LRU (block 0).
        assert_eq!(c.access(4 * 64, false).writeback, Some(0));
    }

    /// A cache whose tick starts just below `u32::MAX` renormalizes
    /// its recency partway through and must still match, op for op, a
    /// twin whose tick started at 0: hits, writebacks, cleaning order,
    /// residency and dirty counts. Both start with the same batch warm
    /// fill, which the fresh twin places in closed form and the
    /// wrapping one block by block across the renormalization.
    #[test]
    fn tick_wrap_renormalization_is_invisible() {
        let mut fresh = Cache::new(1024, 4); // 4 sets x 4 ways
        let mut wrapping = fresh.clone();
        wrapping.tick = u32::MAX - 3;
        // `TraceGen::warmup`'s shape: two descending runs, then an
        // ascending one; 28 blocks over 16 lines.
        let warm = (0..8u64).rev().chain((8..20).rev()).chain(24..32);
        let warm = warm.map(|b| (b * 64 + b % 64, b % 3 == 0));
        fresh.prewarm_blocks(warm.clone());
        wrapping.prewarm_blocks(warm);
        assert_eq!(fresh.dirty_count(), wrapping.dirty_count());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 32 blocks over 4 sets: a mix of hits and evictions.
            let addr = (x >> 8) % 32 * 64;
            let dirty = x & 1 == 1;
            match (x >> 1) % 8 {
                0..=3 => assert_eq!(
                    fresh.access(addr, dirty),
                    wrapping.access(addr, dirty),
                    "step {step}: access"
                ),
                4 => assert_eq!(fresh.fill(addr), wrapping.fill(addr), "step {step}: fill"),
                5 => {
                    fresh.prewarm(addr, dirty);
                    wrapping.prewarm(addr, dirty);
                }
                6 => assert_eq!(
                    fresh.clean_lru_dirty(3),
                    wrapping.clean_lru_dirty(3),
                    "step {step}: cleaning order"
                ),
                _ => assert_eq!(
                    fresh.contains(addr),
                    wrapping.contains(addr),
                    "step {step}: contains"
                ),
            }
            assert_eq!(fresh.dirty_count(), wrapping.dirty_count(), "step {step}");
        }
        assert!(wrapping.tick < 5_000, "the tick wrapped and restarted low");
        assert_eq!(fresh.lru.iter().filter(|&&l| l == 0).count(), 0);
        assert_eq!(fresh.hits(), wrapping.hits());
        assert_eq!(fresh.misses(), wrapping.misses());
    }

    #[test]
    fn renormalization_keeps_empty_slots_and_global_order() {
        let mut c = Cache::new(512, 4); // 2 sets x 4 ways
        c.tick = u32::MAX - 4;
        c.access(0, true); // set 0
        c.access(64, true); // set 1
        c.access(128, true); // set 0
        c.access(192, true); // set 1; tick is now u32::MAX
        c.access(0, false); // renormalizes, then refreshes block 0
        assert_eq!(c.tick, 5);
        let mut stamps: Vec<u32> = c.lru.iter().copied().filter(|&l| l != 0).collect();
        stamps.sort_unstable();
        assert_eq!(stamps, vec![2, 3, 4, 5]);
        assert_eq!(
            c.lru.iter().filter(|&&l| l == 0).count(),
            4,
            "empty slots stay 0"
        );
        // Oldest dirty first, across sets: 64, 128, 192, then 0.
        assert_eq!(c.clean_lru_dirty(4), vec![1, 2, 3, 0]);
    }

    #[test]
    fn dirty_count_survives_eviction_overwrite() {
        let mut c = Cache::new(128, 2); // 1 set, 2 ways
        c.access(0, true); // dirty A
        c.access(64, true); // dirty B
        assert_eq!(c.dirty_count(), 2);
        let res = c.access(128, false); // evicts dirty A with a clean line
        assert_eq!(res.writeback, Some(0));
        assert_eq!(c.dirty_count(), 1, "evicted line's dirty bit cleared");
    }
}
