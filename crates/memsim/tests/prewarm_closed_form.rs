//! Differential property test: the closed-form warm fill
//! [`Cache::warm_run`] must leave exactly the state per-block
//! [`Cache::prewarm`] leaves over the same `(block, dirty)` pairs. Runs
//! take `TraceGen::warmup`'s shape: a descending run from an arbitrary
//! start over a span that is a multiple of the set count, wrapping at
//! the span's bottom, filling the cache partly, fully or past capacity,
//! dirty with fraction 0, 1 or in between, and sometimes followed by a
//! warm region placed block by block. After the fill every set must
//! hold the same blocks in the same recency order, and as many lines
//! must be dirty. Both caches then take the same random
//! `access`/`fill`/`contains` ops and must agree op for op: hits,
//! writebacks, dirty count and the touched set's recency order, most to
//! least recently used.

use memsim::cache::{Cache, DescendingRun};
use proptest::prelude::*;
use std::ops::Range;

/// A cache of `2^sets_log2` sets of `ways` lines and a warm-up for it: a
/// run over a span of 1–40 set counts from an arbitrary first block and
/// start, partial, exactly full or the whole span; one dirty flag per
/// block at fraction 0, 1 or in between; and half the time a warm region
/// of up to twice the capacity just above the span.
fn shaped() -> impl Strategy<Value = (u32, usize, DescendingRun, Vec<bool>, Range<u64>)> {
    let fraction = prop_oneof![Just(0.0), Just(1.0), 0.0..1.0];
    let cache = (0u32..6, 1usize..17);
    let run = (1u64..=40, 0u64..300, any::<u64>(), any::<u64>(), 0usize..3);
    let rest = (fraction, any::<u64>(), any::<bool>(), any::<u64>());
    (cache, run, rest).prop_map(|((sets_log2, ways), run, rest)| {
        let (mult, first, start, raw_count, fill) = run;
        let (p, seed, has_warm, raw_warm) = rest;
        let (span, lines) = (mult << sets_log2, (ways as u64) << sets_log2);
        let count = [raw_count % (span + 1), lines.min(span), span][fill];
        let start = start % span;
        // SplitMix64 draws, dirty below the fraction.
        let flags = (1..=count).map(|i| {
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (((z ^ (z >> 31)) >> 11) as f64) < p * (1u64 << 53) as f64
        });
        let warm = if has_warm { raw_warm % (2 * lines) } else { 0 };
        let run = DescendingRun {
            first,
            span,
            start,
            count,
        };
        (
            sets_log2,
            ways,
            run,
            flags.collect(),
            first + span..first + span + warm,
        )
    })
}

/// Warms one cache with `warm_run` and a twin with per-block `prewarm`
/// (each then takes the warm region per block), compares every set,
/// then drives both through `ops`, asserting agreement after every op.
/// Each op is `(kind, raw, flag, byte offset)`; an even `raw` picks one
/// of the warmed blocks, an odd one any block within three times the
/// capacity.
fn check(
    (sets_log2, ways, run, flags, warm): (u32, usize, DescendingRun, Vec<bool>, Range<u64>),
    ops: &[(u8, u64, bool, u64)],
) -> Result<(), TestCaseError> {
    let set_count = 1usize << sets_log2;
    let mut closed = Cache::new(set_count * ways * 64, ways);
    let mut each = closed.clone();
    closed.warm_run(run, flags.iter().copied());
    for (block, dirty) in run.zip(flags) {
        each.prewarm(block << 6, dirty);
    }
    for block in warm.clone() {
        closed.prewarm(block << 6, false);
        each.prewarm(block << 6, false);
    }
    for set in 0..set_count as u64 {
        prop_assert_eq!(
            closed.set_recency(set << 6),
            each.set_recency(set << 6),
            "set {}: recency order after the warm fill",
            set
        );
    }
    prop_assert_eq!(
        closed.dirty_count(),
        each.dirty_count(),
        "dirty count after the warm fill"
    );
    let warmed: Vec<u64> = run.chain(warm).collect();
    let span = (set_count * ways * 3) as u64;
    for (step, &(kind, raw, flag, offset)) in ops.iter().enumerate() {
        let block = match warmed.get((raw >> 1) as usize % warmed.len().max(1)) {
            Some(&b) if raw & 1 == 0 => b,
            _ => (raw >> 1) % span,
        };
        let addr = block * 64 + offset;
        match kind {
            0..=3 => prop_assert_eq!(
                closed.access(addr, flag),
                each.access(addr, flag),
                "step {}: access {:#x}",
                step,
                addr
            ),
            4 | 5 => prop_assert_eq!(
                closed.fill(addr),
                each.fill(addr),
                "step {}: fill {:#x}",
                step,
                addr
            ),
            _ => prop_assert_eq!(
                closed.contains(addr),
                each.contains(addr),
                "step {}: contains {:#x}",
                step,
                addr
            ),
        }
        prop_assert_eq!(
            closed.set_recency(addr),
            each.set_recency(addr),
            "step {}: recency order of {:#x}'s set",
            step,
            addr
        );
        prop_assert_eq!(
            closed.dirty_count(),
            each.dirty_count(),
            "step {}: dirty count",
            step
        );
    }
    prop_assert_eq!(closed.hits(), each.hits());
    prop_assert_eq!(closed.misses(), each.misses());
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<(u8, u64, bool, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..1 << 20, any::<bool>(), 0u64..64), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn batch_fill_matches_per_block_prewarm(
        shaped in shaped(),
        ops in ops(),
    ) {
        check(shaped, &ops)?;
    }
}

/// The closed form holds only on an untouched cache.
#[test]
#[should_panic(expected = "needs an untouched cache")]
fn warm_fill_on_a_touched_cache_panics() {
    let mut c = Cache::new(4 * 64 * 2, 2); // 4 sets
    c.access(0, false);
    let run = DescendingRun {
        first: 8,
        span: 8,
        start: 7,
        count: 8,
    };
    c.warm_run(run, [false; 8]);
}
