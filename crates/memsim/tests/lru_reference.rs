//! Differential property test: the flattened struct-of-arrays
//! [`Cache`] must be observationally identical to a naive true-LRU
//! reference that keeps, per set, a `Vec` of `(block, last_use, dirty)`
//! lines with `u64` stamps that never wrap. Random `access`, `fill`,
//! `prewarm` and `contains` sequences run through both over small
//! geometries (1–16 ways, 1–64 sets), comparing hit/miss, writebacks
//! and the dirty count after every operation, and the touched set's
//! recency order — most to least recently used — against the
//! reference's `last_use` order (every set's at the end).

use memsim::cache::{AccessResult, Cache};
use proptest::prelude::*;

/// One resident line of the reference.
#[derive(Debug, Clone, Copy)]
struct Line {
    block: u64,
    last_use: u64,
    dirty: bool,
}

/// True LRU the obvious way: linear scans over per-set line lists.
struct ReferenceCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceCache {
    fn new(set_count: usize, ways: usize) -> ReferenceCache {
        ReferenceCache {
            sets: vec![Vec::new(); set_count],
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&mut self, block: u64) -> &mut Vec<Line> {
        let n = self.sets.len() as u64;
        &mut self.sets[(block % n) as usize]
    }

    /// Stamps `block` as most recently used if resident, else installs
    /// it (evicting the least recently used line of a full set).
    /// Returns whether it was resident, and the victim if one left.
    fn touch(&mut self, block: u64, dirty: bool) -> (bool, Option<Line>) {
        self.tick += 1;
        let (tick, ways) = (self.tick, self.ways);
        let set = self.set_of(block);
        if let Some(line) = set.iter_mut().find(|l| l.block == block) {
            line.last_use = tick;
            line.dirty |= dirty;
            return (true, None);
        }
        let fresh = Line {
            block,
            last_use: tick,
            dirty,
        };
        if set.len() < ways {
            set.push(fresh);
            return (false, None);
        }
        let victim = (0..set.len())
            .min_by_key(|&i| set[i].last_use)
            .expect("a full set has lines");
        (false, Some(std::mem::replace(&mut set[victim], fresh)))
    }

    fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let (hit, victim) = self.touch(addr >> 6, is_write);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        AccessResult {
            hit,
            writeback: victim.filter(|v| v.dirty).map(|v| v.block),
        }
    }

    fn fill(&mut self, addr: u64) -> Option<u64> {
        let (_, victim) = self.touch(addr >> 6, false);
        victim.filter(|v| v.dirty).map(|v| v.block)
    }

    fn prewarm(&mut self, addr: u64, dirty: bool) {
        let _ = self.touch(addr >> 6, dirty);
    }

    fn contains(&self, addr: u64) -> bool {
        let block = addr >> 6;
        self.sets[(block % self.sets.len() as u64) as usize]
            .iter()
            .any(|l| l.block == block)
    }

    /// The blocks of `addr`'s set, most recently used first.
    fn set_recency(&self, addr: u64) -> Vec<u64> {
        let block = addr >> 6;
        let mut lines = self.sets[(block % self.sets.len() as u64) as usize].clone();
        lines.sort_by_key(|l| std::cmp::Reverse(l.last_use));
        lines.into_iter().map(|l| l.block).collect()
    }

    fn dirty_count(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.dirty).count()
    }
}

/// Drives `ops` through both caches of `2^sets_log2` sets × `ways`,
/// asserting agreement after every operation. Each op is
/// `(kind, raw block, flag, byte offset)`; blocks fold into three
/// times the capacity so sets fill and evict.
fn check(sets_log2: u32, ways: usize, ops: &[(u8, u64, bool, u64)]) -> Result<(), TestCaseError> {
    let set_count = 1usize << sets_log2;
    let mut real = Cache::new(set_count * ways * 64, ways);
    let mut naive = ReferenceCache::new(set_count, ways);
    let span = (set_count * ways * 3) as u64;
    for (step, &(kind, raw, flag, offset)) in ops.iter().enumerate() {
        let addr = (raw % span) * 64 + offset;
        match kind {
            0..=4 => prop_assert_eq!(
                real.access(addr, flag),
                naive.access(addr, flag),
                "step {}: access {:#x}",
                step,
                addr
            ),
            5 | 6 => prop_assert_eq!(
                real.fill(addr),
                naive.fill(addr),
                "step {}: fill {:#x}",
                step,
                addr
            ),
            7 | 8 => {
                real.prewarm(addr, flag);
                naive.prewarm(addr, flag);
            }
            _ => prop_assert_eq!(
                real.contains(addr),
                naive.contains(addr),
                "step {}: contains {:#x}",
                step,
                addr
            ),
        }
        prop_assert_eq!(
            real.set_recency(addr),
            naive.set_recency(addr),
            "step {}: recency order of {:#x}'s set",
            step,
            addr
        );
        prop_assert_eq!(
            real.dirty_count(),
            naive.dirty_count(),
            "step {}: dirty count",
            step
        );
    }
    for set in 0..set_count as u64 {
        prop_assert_eq!(
            real.set_recency(set * 64),
            naive.set_recency(set * 64),
            "set {}: final recency order",
            set
        );
    }
    prop_assert_eq!(real.hits(), naive.hits);
    prop_assert_eq!(real.misses(), naive.misses);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random op mixes over random small geometries.
    #[test]
    fn cache_matches_naive_lru(
        sets_log2 in 0u32..7,
        ways in 1usize..17,
        ops in proptest::collection::vec((0u8..10, 0u64..1 << 20, any::<bool>(), 0u64..64), 1..600),
    ) {
        check(sets_log2, ways, &ops)?;
    }

    /// A long warm-up (as the node model's L3 prewarm does) followed by
    /// demand traffic.
    #[test]
    fn prewarmed_cache_matches_naive_lru(
        sets_log2 in 0u32..7,
        ways in 1usize..17,
        warm in proptest::collection::vec((0u64..1 << 20, any::<bool>()), 1..1_500),
        ops in proptest::collection::vec((0u8..10, 0u64..1 << 20, any::<bool>(), 0u64..64), 1..400),
    ) {
        let mut all: Vec<(u8, u64, bool, u64)> =
            warm.into_iter().map(|(raw, dirty)| (7, raw, dirty, 0)).collect();
        all.extend(ops);
        check(sets_log2, ways, &all)?;
    }
}
