//! The per-channel 128 KB 64-way victim writeback cache
//! (Section III-E of the paper, reused from FMR).
//!
//! Dirty blocks evicted from the LLC land here instead of the small
//! 128-entry write buffer, so the buffer does not fill before the LLC
//! has accumulated a large write batch. A read that hits the writeback
//! cache is serviced without going to DRAM. When the channel enters
//! write mode the cache's contents are drained to DRAM through the
//! write buffer.

/// The victim writeback cache: 64-way set-associative over block
/// addresses, FIFO within a set (victim-buffer semantics).
#[derive(Debug, Clone)]
pub struct WritebackCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    /// Pending blocks across every set (the sum of the set lengths),
    /// kept so [`len`](Self::len) is O(1) on the per-op write-mode
    /// check.
    len: usize,
    read_hits: u64,
}

impl WritebackCache {
    /// Builds the paper's 128 KB, 64-way configuration: 32 sets of 64
    /// blocks.
    pub fn paper_default() -> WritebackCache {
        WritebackCache::new(128 * 1024, 64)
    }

    /// Builds a cache of `size_bytes` with `ways` blocks per set.
    ///
    /// # Panics
    ///
    /// Panics unless the set count is a nonzero power of two.
    pub fn new(size_bytes: usize, ways: usize) -> WritebackCache {
        let sets = size_bytes / (64 * ways);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "writeback cache needs a power-of-two set count"
        );
        WritebackCache {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            len: 0,
            read_hits: 0,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    /// Offers an evicted dirty block. Returns `true` when absorbed;
    /// `false` when the set is full and the block must go to the write
    /// buffer instead (the paper's overflow rule).
    pub fn offer(&mut self, block: u64) -> bool {
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        if set.contains(&block) {
            return true; // coalesced with an existing pending write
        }
        if set.len() < self.ways {
            set.push(block);
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Read-hit check: a load that finds its block here is serviced
    /// from the cache. The entry stays pending (it is still dirty).
    pub fn read_hit(&mut self, block: u64) -> bool {
        let set_idx = self.set_of(block);
        let hit = self.sets[set_idx].contains(&block);
        if hit {
            self.read_hits += 1;
        }
        hit
    }

    /// Drains every pending block (write-mode entry), leaving the
    /// cache empty.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        self.drain_with(|block| out.push(block));
        out
    }

    /// Drains every pending block through `sink` (same set order as
    /// [`drain`](Self::drain)), leaving the cache empty — the write
    /// path feeds blocks straight into the controller's write queue
    /// without building an intermediate vector.
    pub fn drain_with<F: FnMut(u64)>(&mut self, mut sink: F) {
        self.len = 0;
        for set in &mut self.sets {
            for block in set.drain(..) {
                sink(block);
            }
        }
    }

    /// Pending block count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Loads serviced by this cache so far.
    pub fn read_hits(&self) -> u64 {
        self.read_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let c = WritebackCache::paper_default();
        assert_eq!(c.sets.len(), 32);
        assert_eq!(c.ways, 64);
        // 32 sets × 64 ways × 64 B = 128 KB.
        assert_eq!(c.sets.len() * c.ways * 64, 128 * 1024);
    }

    #[test]
    fn absorbs_until_set_full_then_overflows() {
        let mut c = WritebackCache::new(64 * 2 * 64, 2); // 64 sets × 2 ways
        let set_stride = 64u64; // blocks mapping to the same set
        assert!(c.offer(0));
        assert!(c.offer(set_stride));
        assert!(
            !c.offer(2 * set_stride),
            "third block in a 2-way set overflows"
        );
        // A different set still has room.
        assert!(c.offer(1));
    }

    #[test]
    fn duplicate_offers_coalesce() {
        let mut c = WritebackCache::paper_default();
        assert!(c.offer(42));
        assert!(c.offer(42));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn read_hits_are_counted_and_nondestructive() {
        let mut c = WritebackCache::paper_default();
        c.offer(7);
        assert!(c.read_hit(7));
        assert!(c.read_hit(7));
        assert!(!c.read_hit(8));
        assert_eq!(c.read_hits(), 2);
        assert_eq!(c.len(), 1);
    }

    /// The running count equals the sum of the set lengths after any
    /// mix of new offers, coalesced offers, overflows and drains.
    #[test]
    fn len_tracks_set_lengths() {
        let mut c = WritebackCache::new(8 * 4 * 64, 4); // 8 sets × 4 ways
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let (mut coalesced, mut overflowed, mut drains) = (0, 0, 0);
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(97) {
                let before = c.len();
                let drained = if x & 1 == 0 {
                    c.drain().len()
                } else {
                    let mut n = 0;
                    c.drain_with(|_| n += 1);
                    n
                };
                assert_eq!(drained, before, "step {step}: drained count");
                drains += 1;
            } else {
                // 64 blocks over 8 sets: sets fill, coalesce and overflow.
                let block = (x >> 8) % 64;
                let before = c.len();
                let present = c.sets[c.set_of(block)].contains(&block);
                let absorbed = c.offer(block);
                coalesced += usize::from(present);
                overflowed += usize::from(!absorbed);
                assert_eq!(c.len() - before, usize::from(absorbed && !present));
            }
            let sum: usize = c.sets.iter().map(Vec::len).sum();
            assert_eq!(c.len(), sum, "step {step}");
            assert_eq!(c.is_empty(), sum == 0, "step {step}");
        }
        assert!(coalesced > 0 && overflowed > 0 && drains > 0);
    }

    #[test]
    fn drain_empties_everything() {
        let mut c = WritebackCache::paper_default();
        for b in 0..100u64 {
            c.offer(b);
        }
        let drained = c.drain();
        assert_eq!(drained.len(), 100);
        assert!(c.is_empty());
        let mut sorted = drained;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100u64).collect::<Vec<_>>());
    }
}
