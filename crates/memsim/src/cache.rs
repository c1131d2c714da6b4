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

/// Tag sentinel for empty slots. [`Cache::index`] rejects any address
/// whose tag would reach it, so no real line can match an empty slot.
const TAG_EMPTY: u32 = u32::MAX;

/// Recency-rank sentinel for empty slots: above every real rank
/// (`0..ways`), so a fill into an empty slot ages every resident line
/// of its set.
const RANK_EMPTY: u8 = u8::MAX;

/// A set-associative write-back, write-allocate cache.
///
/// Operates on 64-byte block addresses (`addr >> 6`). State is
/// struct-of-arrays, about 5.1 bytes per line: one contiguous
/// `ways`-strided `u32` tag array, a parallel `u8` recency-rank array,
/// and a packed dirty bitmask. The hit path — the overwhelmingly
/// common case — scans only the tag array: a 16-way set is one cache
/// line of tags, and the compare loop is branch-light enough to
/// vectorize. Ranks and dirty bits are only touched in the one set an
/// access changes.
///
/// Recency is a per-set rank: 0 is the set's most recently used line,
/// `resident - 1` its least recently used, and [`RANK_EMPTY`] marks an
/// empty slot. Touching a line ages every line of its set that was more
/// recent than it by one and gives it rank 0, so a full set's victim —
/// the line of rank `ways - 1` — is exactly the true-LRU one.
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u32>,
    /// Per-set recency rank of each slot; [`RANK_EMPTY`] = slot empty.
    rank: Vec<u8>,
    /// Packed dirty bits, one per line slot.
    dirty: Vec<u64>,
    ways: usize,
    set_count: usize,
    set_mask: u64,
    set_shift: u32,
    /// `set_count.trailing_zeros()`, cached for address reassembly.
    index_bits: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `ways` associativity and
    /// 64-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics when `ways` exceeds 255 (ranks are `u8`, with
    /// [`RANK_EMPTY`] reserved), or unless `size_bytes / (64 * ways)` is
    /// a nonzero power of two (required for mask-based set indexing).
    pub fn new(size_bytes: usize, ways: usize) -> Cache {
        assert!(
            ways <= RANK_EMPTY as usize,
            "cache associativity {ways} exceeds the {RANK_EMPTY} ways u8 recency ranks can hold"
        );
        let set_count = size_bytes / (64 * ways);
        assert!(
            set_count > 0 && set_count.is_power_of_two(),
            "cache must have a power-of-two number of sets (got {set_count})"
        );
        let lines = set_count * ways;
        Cache {
            tags: vec![TAG_EMPTY; lines],
            rank: vec![RANK_EMPTY; lines],
            dirty: vec![0; lines.div_ceil(64)],
            ways,
            set_count,
            set_mask: (set_count - 1) as u64,
            set_shift: 6,
            index_bits: set_count.trailing_zeros(),
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

    /// `addr`'s set and tag.
    ///
    /// # Panics
    ///
    /// Panics, naming the address, when its tag does not fit below
    /// [`TAG_EMPTY`] (at least 2^45 bytes of address space for the
    /// smallest simulated cache).
    #[inline]
    fn index(&self, addr: u64) -> (usize, u32) {
        let block = addr >> self.set_shift;
        let tag = block >> self.index_bits;
        assert!(
            tag < u64::from(TAG_EMPTY),
            "address {addr:#x} is beyond the cache's 32-bit tag range"
        );
        ((block & self.set_mask) as usize, tag as u32)
    }

    /// Reassembles a line's block address from its tag and set.
    fn block_of(&self, set_idx: usize, tag: u32) -> u64 {
        (u64::from(tag) << self.index_bits) | set_idx as u64
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
    /// the tag array alone; only a full set reads its ranks, for the
    /// line ranked `ways - 1`.
    #[inline]
    fn probe(&self, base: usize, tag: u32) -> Result<usize, usize> {
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
        let lru = (self.ways - 1) as u8;
        let at = self.rank[base..base + self.ways]
            .iter()
            .position(|&r| r == lru)
            .expect("a full set ranks its lines 0..ways");
        Err(at)
    }

    /// Makes `line` the most recent line of the set at `base`: every
    /// line ranked more recent than it ages by one. For an empty slot
    /// ([`RANK_EMPTY`]) that is every resident line.
    #[inline]
    fn promote(&mut self, base: usize, line: usize) {
        let old = self.rank[line];
        if old == 0 {
            return; // already the most recent line: nothing ages
        }
        for r in &mut self.rank[base..base + self.ways] {
            *r += u8::from(*r < old);
        }
        self.rank[line] = 0;
    }

    /// Looks `addr` up and makes its block its set's most recent line,
    /// installing it over the first empty slot or the LRU victim on a
    /// miss. A hit ORs `dirty` into the line; an install sets it. The
    /// shared step of [`access`](Self::access), [`fill`](Self::fill) and
    /// [`prewarm`](Self::prewarm); counts nothing.
    #[inline]
    fn touch(&mut self, addr: u64, dirty: bool) -> AccessResult {
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.ways;
        let (hit, line) = match self.probe(base, tag) {
            Ok(at) => (true, base + at),
            Err(slot) => (false, base + slot),
        };
        let mut writeback = None;
        if !hit {
            // Empty slots are never dirty: only a victim writes back.
            writeback = self
                .is_dirty(line)
                .then(|| self.block_of(set_idx, self.tags[line]));
            self.tags[line] = tag;
        }
        self.promote(base, line);
        if dirty || !hit {
            self.set_dirty(line, dirty);
        }
        AccessResult { hit, writeback }
    }

    /// Accesses `addr`; on a miss the block is allocated (write-
    /// allocate) and the LRU victim evicted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let result = self.touch(addr, is_write);
        if result.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        result
    }

    /// Fills `addr` without counting a demand access (prefetch path);
    /// a resident block only has its recency refreshed. Returns a dirty
    /// victim's block address if one was evicted.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.touch(addr, false).writeback
    }

    /// Installs `addr` with an explicit dirty flag, without counting
    /// statistics or producing writebacks — cache warmup for starting
    /// a simulation in steady state (the paper warms its gem5 caches
    /// before measuring). The LRU victim of a full set is dropped
    /// (warmup victims carry no obligations).
    pub fn prewarm(&mut self, addr: u64, dirty: bool) {
        self.touch(addr, dirty);
    }

    /// Warms an untouched cache with `run`, each block dirty by the next
    /// flag of `dirty`, leaving exactly the state per-block
    /// [`prewarm`](Self::prewarm) of the same pairs leaves — in closed
    /// form, without looking any block up.
    ///
    /// The run's blocks are distinct, so each misses. A span that is a
    /// multiple of the set count makes consecutive blocks visit the sets
    /// in cyclic (descending) order, so the run's `i`-th block is the
    /// `i / sets`-th placement in its set and goes to that slot; recency
    /// follows placement order, so a set holding `n` lines ranks slot `k`
    /// `n - 1 - k`. A run longer than the cache evicts its own oldest
    /// blocks: those only draw their dirty flags, and the last `lines`
    /// blocks fill the cache.
    ///
    /// # Panics
    ///
    /// Panics unless the cache is untouched, the span is a positive
    /// multiple of the set count, the run is no longer than its span,
    /// the span's top block fits the tag range, and `dirty` yields a
    /// flag per block.
    pub fn warm_run<D: IntoIterator<Item = bool>>(&mut self, mut run: DescendingRun, dirty: D) {
        let sets = self.set_count as u64;
        assert!(
            // Every rank is RANK_EMPTY (u8::MAX) iff their AND is; the
            // AND vectorizes where an early-exit scan does not.
            self.rank.iter().fold(RANK_EMPTY, |all, &r| all & r) == RANK_EMPTY,
            "the closed-form warm fill needs an untouched cache"
        );
        assert!(
            run.span > 0 && run.span.is_multiple_of(sets),
            "warm run span {} is not a positive multiple of the {sets} sets",
            run.span
        );
        assert!(
            run.count <= run.span,
            "warm run of {} blocks repeats blocks of its {}-block span",
            run.count,
            run.span
        );
        // The span's top block has its largest tag: check it once.
        self.index((run.first + run.span - 1) << self.set_shift);
        let mut dirty = dirty.into_iter();
        let skip = run.count.saturating_sub(self.tags.len() as u64);
        for _ in 0..skip {
            run.next();
            dirty.next();
        }
        // Each of the first `extra` sets the run visits holds `full + 1`
        // lines, every other set `full`.
        let (full, extra) = (run.count >> self.index_bits, run.count & self.set_mask);
        let (ways, bits, mask) = (self.ways, self.index_bits, self.set_mask);
        let (tags, ranks, dirty_words) = (&mut self.tags, &mut self.rank, &mut self.dirty);
        for (i, block) in (0u64..).zip(run) {
            let flag = dirty.next().expect("one dirty flag per warm block");
            let slot = i >> bits;
            let line = (block & mask) as usize * ways + slot as usize;
            tags[line] = (block >> bits) as u32;
            ranks[line] = (full + u64::from(i & mask < extra) - 1 - slot) as u8;
            dirty_words[line >> 6] |= u64::from(flag) << (line & 63);
        }
    }

    /// Whether `addr`'s block is currently cached (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.ways;
        // Tag-only compare: TAG_EMPTY keeps empty slots unmatchable.
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// The blocks resident in `addr`'s set, most recently used first
    /// (no LRU update): the recency probe the LRU oracles compare after
    /// every operation.
    pub fn set_recency(&self, addr: u64) -> Vec<u64> {
        let (set_idx, _) = self.index(addr);
        let base = set_idx * self.ways;
        let mut lines: Vec<(u8, u64)> = (base..base + self.ways)
            .filter(|&line| self.rank[line] != RANK_EMPTY)
            .map(|line| (self.rank[line], self.block_of(set_idx, self.tags[line])))
            .collect();
        lines.sort_unstable();
        lines.into_iter().map(|(_, block)| block).collect()
    }

    /// Number of dirty lines currently resident.
    pub fn dirty_count(&self) -> usize {
        // Dirty bits are only ever set on resident lines, and eviction
        // rewrites the slot's bit — so the popcount is exact.
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A run of `count` blocks walking down a span of `span` blocks whose
/// lowest is `first`: block `i` is `first + (start - i) mod span`, so
/// the run starts `start` blocks above `first` and wraps from `first` to
/// the span's top. Its blocks are distinct while `count <= span`.
/// Iterating yields them in order. [`Cache::warm_run`] fills a cache
/// with such a run in closed form.
#[derive(Debug, Clone, Copy)]
pub struct DescendingRun {
    /// The span's lowest block.
    pub first: u64,
    /// Blocks in the span.
    pub span: u64,
    /// The next block's offset above `first`.
    pub start: u64,
    /// Blocks left in the run.
    pub count: u64,
}

impl Iterator for DescendingRun {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        self.count -= 1;
        let block = self.first + self.start;
        self.start = self.start.checked_sub(1).unwrap_or(self.span - 1);
        Some(block)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.count as usize, Some(self.count as usize))
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

    #[test]
    fn recency_ranks_track_touch_order() {
        let mut c = Cache::new(256, 4); // 1 set, 4 ways
        for block in [0u64, 1, 2] {
            c.access(block * 64, false);
        }
        assert_eq!(c.set_recency(0), vec![2, 1, 0]);
        c.access(0, false); // a hit ages only the lines above it
        assert_eq!(c.set_recency(0), vec![0, 2, 1]);
        c.fill(3 * 64); // the last empty slot ages every line
        c.access(4 * 64, false); // evicts block 1, the LRU line
        assert_eq!(c.set_recency(0), vec![4, 3, 0, 2]);
    }

    /// Heap bytes of the per-line state: tags, ranks and dirty words.
    fn heap_bytes_per_line(c: &Cache) -> f64 {
        let heap = c.tags.capacity() * std::mem::size_of::<u32>()
            + c.rank.capacity()
            + c.dirty.capacity() * std::mem::size_of::<u64>();
        heap as f64 / (c.set_count * c.ways) as f64
    }

    /// Every cache each simulated core holds (Table IV's L1 and L2, and
    /// both hierarchies' L3 partitions) keeps at most 5.25 bytes of
    /// state per line.
    #[test]
    fn simulated_caches_keep_at_most_5_25_bytes_per_line() {
        use crate::config::{CoreConfig, HierarchyConfig, L3_WAYS};
        let core = CoreConfig::default();
        let (h1, h2) = (HierarchyConfig::hierarchy1(), HierarchyConfig::hierarchy2());
        for (what, bytes, ways, expected_bytes) in [
            ("L1", core.l1_bytes, core.l1_ways, 64 << 10),
            ("L2", core.l2_bytes, core.l2_ways, 1 << 20),
            ("Hierarchy1 L3", h1.l3_partition_bytes(), L3_WAYS, 2 << 20),
            ("Hierarchy2 L3", h2.l3_partition_bytes(), L3_WAYS, 1 << 20),
        ] {
            assert_eq!(bytes, expected_bytes, "{what} size");
            let per_line = heap_bytes_per_line(&Cache::new(bytes, ways));
            assert!(per_line <= 5.25, "{what}: {per_line} heap bytes per line");
        }
    }

    #[test]
    #[should_panic(expected = "associativity 256 exceeds")]
    fn ways_beyond_u8_ranks_rejected() {
        let _ = Cache::new(256 * 64, 256);
    }

    #[test]
    #[should_panic(expected = "address 0x3fffffffc0 is beyond")]
    fn access_beyond_32_bit_tags_rejected() {
        let mut c = Cache::new(128, 2); // 1 set: the tag is the block
        c.access(u64::from(u32::MAX) << 6, false);
    }

    #[test]
    #[should_panic(expected = "address 0x3fffffffc0 is beyond")]
    fn warm_fill_beyond_32_bit_tags_rejected() {
        let mut c = Cache::new(128, 2); // 1 set: the span's top is its tag
        let run = DescendingRun {
            first: 0,
            span: 1 << 32,
            start: 0,
            count: 2,
        };
        c.warm_run(run, [false; 2]);
    }
}
