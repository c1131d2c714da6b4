//! Differential property test: the batch warm fill
//! [`Cache::prewarm_blocks`] must leave exactly the state per-block
//! [`Cache::prewarm`] leaves over the same sequence. Sequences cover
//! the shapes its closed form proves distinct (ascending and
//! descending runs with strides 1–3, wraps shaped like
//! `TraceGen::warmup`) and the ones it must hand back to per-block
//! lookups (duplicates, overlapping ranges, more runs than it tracks),
//! on untouched and pre-touched caches. After the warm fill every set
//! must hold the same blocks in the same recency order. Both caches
//! then take the same random `access`/`fill`/`contains` ops and must
//! agree op for op: hits, writebacks, dirty count and the touched set's
//! recency order, most to least recently used.

use memsim::cache::Cache;
use proptest::prelude::*;

/// One strictly monotone run of blocks.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u64,
    len: u64,
    stride: u64,
    descending: bool,
}

impl Run {
    fn blocks(self) -> impl Iterator<Item = u64> {
        (0..self.len).map(move |i| {
            let step = i * self.stride;
            if self.descending {
                self.start + self.len * self.stride - step
            } else {
                self.start + step
            }
        })
    }
}

fn run(span: u64, max_len: u64) -> impl Strategy<Value = Run> {
    (0..span, 0..=max_len, 1u64..=3, any::<bool>()).prop_map(|(start, len, stride, descending)| {
        Run {
            start,
            len,
            stride,
            descending,
        }
    })
}

/// Runs at arbitrary starts: disjoint, overlapping or nested.
fn runs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(run(512, 48), 0..6)
        .prop_map(|runs| runs.into_iter().flat_map(Run::blocks).collect())
}

/// Short runs at disjoint bases, more of them than the closed form
/// tracks, sometimes followed by one of them again while it is still
/// resident. All runs go one way and each starts on the far side of
/// the one before, so every run boundary closes a run.
fn many_disjoint_runs() -> impl Strategy<Value = Vec<u64>> {
    let runs = proptest::collection::vec(run(64, 8), 1..12);
    let replay = proptest::collection::vec(any::<usize>(), 0..2);
    (runs, any::<bool>(), replay).prop_map(|(runs, descending, replay)| {
        let n = runs.len() as u64;
        let placed = |k: usize| {
            let base = 1_000 * if descending { k as u64 } else { n - k as u64 };
            let run = Run {
                descending,
                ..runs[k]
            };
            run.blocks().map(move |b| b + base)
        };
        let mut blocks: Vec<u64> = (0..runs.len()).flat_map(placed).collect();
        for k in replay {
            blocks.extend(placed(k % runs.len()));
        }
        blocks
    })
}

/// `TraceGen::warmup`'s shape: `count` blocks descending from just
/// behind a cursor over a footprint of `f`, wrapping (and, when
/// `count > f`, coming round again), then an ascending warm region.
fn warmup_shaped() -> impl Strategy<Value = Vec<u64>> {
    (1u64..160, 0u64..160, 0u64..400, 0u64..96, 0u64..8).prop_map(
        |(f, cursor, count, warm, hot)| {
            let cursor = cursor % f;
            (0..count)
                .map(|i| hot + (cursor + f - 1 - i % f) % f)
                .chain((0..warm).map(|i| hot + f + i))
                .collect()
        },
    )
}

/// Arbitrary blocks from a small range: short runs, with duplicates
/// near and far.
fn scattered() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..48, 0..96)
}

/// Any of the shapes above, with some blocks repeated at random
/// positions or right after themselves.
fn sequence() -> impl Strategy<Value = Vec<u64>> {
    let base = prop_oneof![runs(), many_disjoint_runs(), warmup_shaped(), scattered()];
    let repeats = proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..3);
    (base, repeats).prop_map(|(mut blocks, repeats)| {
        for (from, to, adjacent) in repeats {
            if !blocks.is_empty() {
                let from = from % blocks.len();
                let to = if adjacent {
                    from + 1
                } else {
                    to % (blocks.len() + 1)
                };
                blocks.insert(to, blocks[from]);
            }
        }
        blocks
    })
}

/// Warms one cache with `prewarm_blocks` and a twin with per-block
/// `prewarm`, then drives both through `ops`, asserting agreement
/// after every op. Each op is `(kind, raw, flag, byte offset)`; an
/// even `raw` picks one of the warmed blocks, an odd one any block
/// within three times the capacity.
fn check(
    sets_log2: u32,
    ways: usize,
    pre_touch: &[(u64, bool)],
    warm: &[(u64, bool, u64)],
    ops: &[(u8, u64, bool, u64)],
) -> Result<(), TestCaseError> {
    let set_count = 1usize << sets_log2;
    let mut batch = Cache::new(set_count * ways * 64, ways);
    for &(block, dirty) in pre_touch {
        batch.access(block * 64, dirty);
    }
    let mut each = batch.clone();
    let warm_addrs = warm.iter().map(|&(b, d, off)| (b * 64 + off, d));
    batch.prewarm_blocks(warm_addrs.clone());
    for (addr, dirty) in warm_addrs {
        each.prewarm(addr, dirty);
    }
    for set in 0..set_count as u64 {
        prop_assert_eq!(
            batch.set_recency(set * 64),
            each.set_recency(set * 64),
            "set {}: recency order after the warm fill",
            set
        );
    }
    let span = (set_count * ways * 3) as u64;
    for (step, &(kind, raw, flag, offset)) in ops.iter().enumerate() {
        let block = match warm.get((raw >> 1) as usize % warm.len().max(1)) {
            Some(&(b, _, _)) if raw & 1 == 0 => b,
            _ => (raw >> 1) % span,
        };
        let addr = block * 64 + offset;
        match kind {
            0..=3 => prop_assert_eq!(
                batch.access(addr, flag),
                each.access(addr, flag),
                "step {}: access {:#x}",
                step,
                addr
            ),
            4 | 5 => prop_assert_eq!(
                batch.fill(addr),
                each.fill(addr),
                "step {}: fill {:#x}",
                step,
                addr
            ),
            _ => prop_assert_eq!(
                batch.contains(addr),
                each.contains(addr),
                "step {}: contains {:#x}",
                step,
                addr
            ),
        }
        prop_assert_eq!(
            batch.set_recency(addr),
            each.set_recency(addr),
            "step {}: recency order of {:#x}'s set",
            step,
            addr
        );
        prop_assert_eq!(
            batch.dirty_count(),
            each.dirty_count(),
            "step {}: dirty count",
            step
        );
    }
    prop_assert_eq!(batch.hits(), each.hits());
    prop_assert_eq!(batch.misses(), each.misses());
    Ok(())
}

/// Flags and in-block byte offsets for each block of a sequence.
fn decorate(blocks: Vec<u64>, flags: &[(bool, u64)]) -> Vec<(u64, bool, u64)> {
    blocks
        .into_iter()
        .zip(flags.iter().cycle())
        .map(|(b, &(dirty, offset))| (b, dirty, offset))
        .collect()
}

fn ops() -> impl Strategy<Value = Vec<(u8, u64, bool, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..1 << 20, any::<bool>(), 0u64..64), 1..400)
}

fn flags() -> impl Strategy<Value = Vec<(bool, u64)>> {
    proptest::collection::vec((any::<bool>(), 0u64..64), 1..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// An untouched cache: the closed form applies until a block it
    /// cannot prove new.
    #[test]
    fn batch_fill_matches_per_block_prewarm(
        sets_log2 in 0u32..6,
        ways in 1usize..17,
        blocks in sequence(),
        flags in flags(),
        ops in ops(),
    ) {
        check(sets_log2, ways, &[], &decorate(blocks, &flags), &ops)?;
    }

    /// A cache touched before the warm fill takes per-block lookups
    /// throughout, with the same result.
    #[test]
    fn batch_fill_on_a_touched_cache_matches_per_block_prewarm(
        sets_log2 in 0u32..6,
        ways in 1usize..17,
        pre_touch in proptest::collection::vec((0u64..512, any::<bool>()), 1..64),
        blocks in sequence(),
        flags in flags(),
        ops in ops(),
    ) {
        check(sets_log2, ways, &pre_touch, &decorate(blocks, &flags), &ops)?;
    }
}
