//! Replay oracle: filter once, time many.
//!
//! `NodeModel::prime` records each suite's cache pass once per batch
//! and times every design of the batch from that recording, while a
//! one-design `prime` call runs its design live. Because a core's
//! caches see only its own op stream and nothing in the timing model
//! feeds back into them, the two must agree byte for byte: every
//! `MemoryDesign` variant (the naive channel-split DMR with mirrored
//! writes, the adaptive design and each DRAM generation included), on
//! both hierarchies, over seeds and small run lengths gives the same
//! `SimResult`s, metrics snapshot and trace events from a multi-design
//! batch (replay) as from one engine per pair (live), repeats in the
//! batch included. Each result also equals
//! a plain node run whose L3s were warmed block by block through
//! `Cache::prewarm`, independent of the batch warm fill the engine
//! uses.
//!
//! Below the engine, `NodeSim::replay` of per-core recordings must
//! equal `NodeSim::run` of the streams they were captured from, and a
//! replay whose writebacks are dropped must not: the comparison sees
//! what the recording carries.

use hetero_dmr::{DramGeneration, EvalConfig, MemoryDesign, NodeModel};
use memsim::cache::Cache;
use memsim::config::L3_WAYS;
use memsim::core::{CoreSim, Traffic};
use memsim::replay::{CoreSource, Filtered, ReplayCore};
use memsim::{CoreRecording, HierarchyConfig, NodeSim, SimResult};
use proptest::prelude::*;
use std::collections::HashMap;
use telemetry::trace::{TraceEvent, Tracer};
use telemetry::{Obs, Registry, Snapshot};
use workloads::{Suite, TraceGen};

/// Every design variant, each DRAM generation among them.
fn designs() -> Vec<MemoryDesign> {
    use MemoryDesign as D;
    let mut designs = vec![
        D::CommercialBaseline,
        D::ExploitLatency,
        D::ExploitFrequency,
        D::ExploitFreqLat,
        D::Fmr,
        D::HeteroDmr { margin_mts: 800 },
        D::HeteroDmr { margin_mts: 0 },
        D::HeteroDmrFmr { margin_mts: 600 },
        D::NaiveDmr { margin_mts: 800 },
        D::AdaptiveDmr {
            max_margin_mts: 800,
        },
    ];
    designs.extend(DramGeneration::ALL.map(D::Generation));
    // A new variant must join the list above.
    for d in &designs {
        match d {
            D::CommercialBaseline
            | D::ExploitLatency
            | D::ExploitFrequency
            | D::ExploitFreqLat
            | D::Fmr
            | D::HeteroDmr { .. }
            | D::HeteroDmrFmr { .. }
            | D::NaiveDmr { .. }
            | D::AdaptiveDmr { .. }
            | D::Generation(_) => {}
        }
    }
    designs
}

/// Everything a run leaves behind: results in run order, the metrics
/// snapshot and the trace events.
type Observed = (Vec<SimResult>, Snapshot, Vec<TraceEvent>);

/// A cache-off engine observed into `registry` and `tracer`, so every
/// pair it resolves is simulated here.
fn engine(
    h: HierarchyConfig,
    config: EvalConfig,
    registry: &Registry,
    tracer: &Tracer,
) -> NodeModel {
    let mut m = NodeModel::new(h, config);
    m.set_shared_cache(false);
    m.set_metrics_scope(registry.scope("node"));
    m.set_trace(tracer);
    m
}

/// One engine primes every pair in one batch: each suite's designs are
/// timed from one recorded cache pass.
fn batched(h: HierarchyConfig, config: EvalConfig, pairs: &[(MemoryDesign, Suite)]) -> Observed {
    let (registry, tracer) = (Registry::new(), Tracer::new());
    let m = engine(h, config, &registry, &tracer);
    m.prime(pairs);
    let results = pairs.iter().map(|&(d, s)| m.run(d, s)).collect();
    (results, registry.snapshot(), tracer.take())
}

/// A fresh engine per distinct pair, one after another into one
/// registry and tracer: each pair is a one-design batch and runs live.
fn alone(h: HierarchyConfig, config: EvalConfig, pairs: &[(MemoryDesign, Suite)]) -> Observed {
    let (registry, tracer) = (Registry::new(), Tracer::new());
    let mut runs = HashMap::new();
    let results = pairs
        .iter()
        .map(|&(d, s)| {
            let run = || engine(h, config, &registry, &tracer).run(d, s);
            runs.entry((d, s)).or_insert_with(run).clone()
        })
        .collect();
    (results, registry.snapshot(), tracer.take())
}

/// The per-core streams and warm L3s of a `suite` run, derived the way
/// the node model documents them: core `i` draws from `seed + i`, and
/// its L3 partition holds the stream's recent past, dirty at the
/// suite's store fraction, placed block by block.
fn cores(h: &HierarchyConfig, seed: u64, ops: usize, suite: Suite) -> Vec<(TraceGen, Cache)> {
    (0..h.cores)
        .map(|i| {
            let stream = TraceGen::new(suite.params(), seed.wrapping_add(i as u64), ops);
            let mut l3 = Cache::new(h.l3_partition_bytes(), L3_WAYS);
            let warm = h.l3_partition_bytes() / 64;
            for (block, dirty) in stream.warmup(warm, suite.params().write_fraction) {
                l3.prewarm(block << 6, dirty);
            }
            (stream, l3)
        })
        .collect()
}

/// The mutant: a replay with every writeback dropped.
struct DropWritebacks<'a> {
    inner: ReplayCore<'a>,
    kept: Vec<Traffic>,
}

impl CoreSource for DropWritebacks<'_> {
    fn next_filtered(&mut self) -> Option<Filtered<'_>> {
        let op = self.inner.next_filtered()?;
        self.kept.clear();
        let prefetches = op
            .traffic
            .iter()
            .filter(|t| matches!(t, Traffic::Prefetch(_)));
        self.kept.extend(prefetches);
        Some(Filtered {
            gap_instructions: op.gap_instructions,
            cache: op.cache,
            traffic: &self.kept,
        })
    }

    fn cache_counts(&self) -> (u64, u64) {
        self.inner.cache_counts()
    }
}

/// How a node-level run gets its cache outcomes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    Live,
    Replay,
    ReplayWithoutWritebacks,
}

/// One `NodeSim` run of `design` on `suite`, observed.
fn node_run(
    h: HierarchyConfig,
    design: MemoryDesign,
    suite: Suite,
    seed: u64,
    ops: usize,
    source: Source,
) -> Observed {
    let (registry, tracer) = (Registry::new(), Tracer::new());
    let (modes, mirror) = design.per_channel_modes(h.memory.channels);
    let (streams, l3s): (Vec<_>, Vec<_>) = cores(&h, seed, ops, suite).into_iter().unzip();
    let mut obs = Obs::default();
    obs.set_metrics(registry.scope("node"));
    obs.set_tracer(tracer.clone());
    let result = if source == Source::Live {
        NodeSim::with_l3s(h, modes, mirror, l3s)
            .observe(&obs)
            .run(streams)
    } else {
        let recordings: Vec<CoreRecording> = streams
            .into_iter()
            .zip(l3s)
            .map(|(stream, l3)| CoreRecording::capture(CoreSim::with_l3(h.core, l3), stream))
            .collect();
        let mut node = NodeSim::for_replay(h, modes, mirror).observe(&obs);
        if source == Source::Replay {
            node.replay(&recordings)
        } else {
            let sources = recordings
                .iter()
                .map(|r| DropWritebacks {
                    inner: r.replay(),
                    kept: Vec::new(),
                })
                .collect();
            node.run_sources(sources)
        }
    };
    (vec![result], registry.snapshot(), tracer.take())
}

fn hierarchy(second: bool) -> HierarchyConfig {
    HierarchyConfig::both()[usize::from(second)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every design from a multi-design batch (replay) equals the same
    /// design primed alone (live), on both hierarchies, with suites
    /// interleaved and pairs repeated in the batch; and a plain node run
    /// from block-by-block warm L3s.
    #[test]
    fn primed_batch_replay_matches_live_runs(
        seed in any::<u64>(),
        ops in 40usize..240,
        first in 0usize..6,
        offset in 1usize..6,
    ) {
        let suites = [Suite::ALL[first], Suite::ALL[(first + offset) % 6]];
        let mut pairs: Vec<(MemoryDesign, Suite)> = designs()
            .into_iter()
            .flat_map(|d| suites.map(|s| (d, s)))
            .collect();
        let distinct = pairs.len();
        pairs.extend_from_within(3..8);
        for h in HierarchyConfig::both() {
            let config = EvalConfig { ops_per_core: ops, seed, ..EvalConfig::default() };
            let (results, metrics, events) = batched(h, config, &pairs);
            let live = alone(h, config, &pairs);
            let at = format!("{} seed {seed} ops {ops}", h.name);
            prop_assert!(!events.is_empty(), "{}: the batch traced its runs", at);
            for (i, (&(d, s), r)) in pairs.iter().zip(&results).enumerate() {
                prop_assert_eq!(r, &live.0[i], "{}: {} on {}", at, d.name(), s.name());
                if i < distinct {
                    let plain = node_run(h, d, s, seed, ops, Source::Live).0;
                    prop_assert_eq!(&plain[0], r, "{}: {} on {}: plain node", at, d.name(), s.name());
                }
            }
            prop_assert_eq!(&metrics, &live.1, "{}: metrics", at);
            prop_assert_eq!(&events, &live.2, "{}: trace events", at);
        }
    }

    /// `NodeSim::replay` of recorded cache passes equals `NodeSim::run`
    /// of the streams they came from, and dropping the recording's
    /// writebacks breaks the equality.
    #[test]
    fn node_replay_matches_run_and_dropped_writebacks_do_not(
        seed in any::<u64>(),
        ops in 100usize..400,
        design in any::<usize>(),
        suite in 0usize..6,
        second in any::<bool>(),
    ) {
        let designs = designs();
        let (h, design, suite) = (hierarchy(second), designs[design % designs.len()], Suite::ALL[suite]);
        let live = node_run(h, design, suite, seed, ops, Source::Live);
        let replayed = node_run(h, design, suite, seed, ops, Source::Replay);
        let at = format!("{}: {} on {} seed {seed} ops {ops}", h.name, design.name(), suite.name());
        prop_assert_eq!(&replayed.0, &live.0, "{}: SimResult", at);
        prop_assert_eq!(&replayed.1, &live.1, "{}: metrics", at);
        prop_assert_eq!(&replayed.2, &live.2, "{}: trace events", at);

        prop_assert!(live.1.counter("node.writebacks") > 0, "{}: no writebacks to drop", at);
        let mutant = node_run(h, design, suite, seed, ops, Source::ReplayWithoutWritebacks);
        prop_assert!(mutant.0 != live.0, "{}: dropped writebacks left the SimResult unchanged", at);
        prop_assert!(mutant.1 != live.1, "{}: dropped writebacks left the metrics unchanged", at);
    }
}
