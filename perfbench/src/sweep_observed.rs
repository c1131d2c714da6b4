//! `sweep-observed`: figure regeneration the way a user runs it.
//!
//! Each round is one sweep. Fresh `NodeModel` engines, one per figure
//! and hierarchy, share the process-wide result cache, which starts
//! the round cold: the round's evaluation seed is new, so no earlier
//! round's entries match. The engines consult (design, suite) pairs in
//! `experiments all` order (Figs 5, 12, 13, 14, 15, 16, 17, the energy
//! per-design table, then the adaptive loop's per-epoch speedups), so
//! about 60% of lookups replay a stored snapshot and every miss
//! simulates with telemetry attached. A metrics registry, a tracer, and
//! a series store observe the whole round. The
//! round also drives the Fig 12 protocol/ECC exercise, the adaptive
//! closed loop with its series, the residency energy model, and a small
//! observed federation run, then exports metrics JSONL, the Chrome
//! trace, and series JSONL and parses each back (the `experiments
//! report` read path). The runner pool has one worker, so engine
//! misses simulate one at a time.
//!
//! Each engine resolves its figure's lookups through `NodeModel::prime`:
//! first the pairs an earlier engine of the round already simulated
//! (hits), then the rest (misses). The benchmark predicts which is
//! which and checks the prediction against `shared_cache_stats`.

use crate::digest::Digest;
use crate::fleet_stream::{self, FleetTimers, Observe};
use crate::metrics::Layers;
use crate::timer::{Laps, LayerTimer};
use crate::{Round, Workload};
use ecc::ErrorModel;
use energy::residency::{ResidencyInput, ResidencyModel};
use hetero_dmr::adaptive::{run_closed_loop, EpochRecord, BIN_MTS};
use hetero_dmr::protocol::ProtocolStats;
use hetero_dmr::{
    shared_cache_stats, AdaptiveConfig, AdaptiveGovernor, Environment, EvalConfig,
    HeteroDmrChannel, MarginResponse, MemoryDesign, NodeModel, UsageBucket,
};
use memsim::{HierarchyConfig, SimResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use runner::seed::{iteration_seed, task_seed};
use scheduler::{Federation, FederationRun, PlacementPolicy};
use std::collections::HashSet;
use telemetry::series::{parse_series_jsonl, SeriesSnapshot, SeriesStore};
use telemetry::trace::{check_well_nested, chrome_trace, parse_chrome_trace, Tracer};
use telemetry::{format_jsonl, parse_jsonl, slug, Registry};
use workloads::jobs::SyntheticJobs;
use workloads::Suite;

/// Memory operations per core per simulation.
const OPS_PER_CORE: usize = 1_000;
const SMALL_OPS_PER_CORE: usize = 100;

/// Jobs in the observed federation slice.
const FLEET_JOBS: u64 = 5_000;
const SMALL_FLEET_JOBS: u64 = 1_000;

/// Epochs of the adaptive closed loop (four simulated days), and the
/// suite its steady environment runs.
const ADAPTIVE_EPOCHS: u64 = 96;
const ADAPTIVE_SUITE: Suite = Suite::Hpcg;

/// Runner pool size. `experiments` defaults to one worker per CPU, but
/// a second worker shares the host with the reference probe's thread
/// unevenly, so its rounds cannot be rescaled to a steady host speed.
const WORKERS: usize = 1;

type Pair = (MemoryDesign, Suite);

/// One figure's use of the node model: an engine per hierarchy, each
/// consulting `pairs` (distinct, in first-consult order).
struct Figure {
    hierarchies: Vec<HierarchyConfig>,
    pairs: Vec<Pair>,
    /// Whether each run also feeds the residency energy model.
    energy: bool,
}

/// Pairs in the order a figure first consults them.
#[derive(Default)]
struct Consults(Vec<Pair>);

impl Consults {
    fn run(&mut self, design: MemoryDesign, suite: Suite) {
        if !self.0.contains(&(design, suite)) {
            self.0.push((design, suite));
        }
    }

    /// `NodeModel::normalized`: a fallen-back design needs no run.
    fn normalized(&mut self, design: MemoryDesign, suite: Suite, bucket: UsageBucket) {
        let effective = NodeModel::effective_design(design, bucket);
        if effective == MemoryDesign::CommercialBaseline && design != effective {
            return;
        }
        self.run(MemoryDesign::CommercialBaseline, suite);
        self.run(effective, suite);
    }
}

/// The node-model figures of `experiments all`, in target order.
fn figures() -> Vec<Figure> {
    use MemoryDesign::*;
    let both = HierarchyConfig::both().to_vec();
    let h1 = vec![HierarchyConfig::hierarchy1()];
    let figure = |hierarchies: &Vec<HierarchyConfig>, energy, consult: &dyn Fn(&mut Consults)| {
        let mut c = Consults::default();
        consult(&mut c);
        Figure {
            hierarchies: hierarchies.clone(),
            pairs: c.0,
            energy,
        }
    };
    let low = UsageBucket::Low;
    vec![
        figure(&both, false, &|c| {
            for suite in Suite::ALL {
                for d in [ExploitLatency, ExploitFrequency, ExploitFreqLat] {
                    c.normalized(d, suite, low);
                }
            }
        }),
        figure(&both, false, &|c| {
            for margin_mts in [800, 600] {
                for d in [Fmr, HeteroDmr { margin_mts }, HeteroDmrFmr { margin_mts }] {
                    for b in UsageBucket::ALL {
                        for suite in Suite::ALL {
                            c.normalized(d, suite, b);
                        }
                    }
                }
            }
        }),
        figure(&both, false, &|c| {
            for d in [
                Fmr,
                HeteroDmr { margin_mts: 800 },
                HeteroDmrFmr { margin_mts: 800 },
            ] {
                for suite in Suite::ALL {
                    c.run(CommercialBaseline, suite);
                    c.run(d, suite);
                }
            }
        }),
        figure(&h1, false, &|c| {
            for suite in Suite::ALL {
                c.run(CommercialBaseline, suite);
                c.run(HeteroDmrFmr { margin_mts: 800 }, suite);
            }
        }),
        figure(&h1, false, &|c| {
            for suite in Suite::ALL {
                c.run(CommercialBaseline, suite);
            }
        }),
        figure(&h1, false, &|c| {
            for suite in Suite::ALL {
                c.run(CommercialBaseline, suite);
                c.run(ExploitFreqLat, suite);
                c.normalized(HeteroDmr { margin_mts: 800 }, suite, low);
            }
        }),
        figure(&both, false, &|c| {
            for b in [UsageBucket::Low, UsageBucket::Mid] {
                for margin_mts in [800, 600] {
                    for suite in Suite::ALL {
                        c.normalized(HeteroDmr { margin_mts }, suite, b);
                    }
                }
            }
        }),
        figure(&h1, true, &|c| {
            for d in [
                CommercialBaseline,
                ExploitLatency,
                ExploitFrequency,
                ExploitFreqLat,
                HeteroDmr { margin_mts: 800 },
            ] {
                for suite in Suite::ALL {
                    c.run(d, suite);
                }
            }
        }),
    ]
}

pub struct SweepObserved {
    seed: u64,
    ops_per_core: usize,
    figures: Vec<Figure>,
    fed: Federation,
    stream: SyntheticJobs,
    residency: ResidencyModel,
    /// Shared-cache `(hits, misses)` when the previous round ended.
    last_stats: (u64, u64),
}

/// Per-layer timers of a round (all off in an untraced round).
struct Timers {
    hit: LayerTimer,
    miss: LayerTimer,
    protocol: LayerTimer,
    adaptive: LayerTimer,
    residency: LayerTimer,
    snapshot: LayerTimer,
    export: LayerTimer,
    parse: LayerTimer,
    fleet: Option<FleetTimers>,
}

impl Timers {
    fn new(traced: bool) -> Timers {
        let t = || {
            if traced {
                LayerTimer::new(0)
            } else {
                LayerTimer::off()
            }
        };
        Timers {
            hit: t(),
            miss: t(),
            protocol: t(),
            adaptive: t(),
            residency: t(),
            snapshot: t(),
            export: t(),
            parse: t(),
            fleet: traced.then(FleetTimers::default),
        }
    }
}

/// Exported telemetry and what parsing it back gave.
struct Exports {
    metrics: String,
    trace: String,
    series: String,
    trace_events: usize,
    series_snapshot: SeriesSnapshot,
    metrics_back: Result<String, String>,
    trace_back: Result<usize, String>,
    series_back: Result<SeriesSnapshot, String>,
}

/// A round's node-model lookups and what they returned.
#[derive(Default)]
struct Lookups {
    /// `(hierarchy, pair)` keys an engine of the round has simulated.
    seen: HashSet<(&'static str, Pair)>,
    lookups: u64,
    predicted_hits: u64,
    results: Vec<SimResult>,
    energy_j: Vec<f64>,
}

impl Lookups {
    /// Resolves `pairs` on `model` the way a figure does: the pairs an
    /// earlier engine of the round simulated (hits), then the rest
    /// (misses), each batch through `NodeModel::prime`. Feeds each
    /// result to the residency model when given.
    fn consult(
        &mut self,
        model: &NodeModel,
        pairs: &[Pair],
        residency: Option<&ResidencyModel>,
        t: &mut Timers,
    ) {
        let h = model.hierarchy();
        let (hits, misses): (Vec<Pair>, Vec<Pair>) = pairs
            .iter()
            .partition(|&&p| self.seen.contains(&(h.name, p)));
        self.seen.extend(misses.iter().map(|&p| (h.name, p)));
        self.lookups += pairs.len() as u64;
        self.predicted_hits += hits.len() as u64;
        t.hit.call(|| model.prime(&hits));
        t.miss.call(|| model.prime(&misses));
        for &(design, suite) in pairs {
            let r = model.run(design, suite);
            if let Some(residency) = residency {
                let input = residency_input(&r, h.memory.banks_per_rank as u32);
                self.energy_j
                    .push(t.residency.call(|| residency.energy(&input)).total_j());
            }
            self.results.push(r);
        }
    }
}

pub struct Output {
    stats_before: (u64, u64),
    stats_after: (u64, u64),
    node: Lookups,
    protocol: (u64, ProtocolStats),
    epochs: Vec<EpochRecord>,
    fleet: FederationRun,
    exports: Exports,
    timers: Timers,
}

impl Workload for SweepObserved {
    type Output = Output;
    const SAME_INPUT_EACH_ROUND: bool = false;

    fn setup(seed: u64, small: bool) -> SweepObserved {
        runner::set_jobs(WORKERS);
        let fed = fleet_stream::federation();
        let stream =
            fleet_stream::job_stream(&fed, if small { SMALL_FLEET_JOBS } else { FLEET_JOBS });
        SweepObserved {
            seed,
            ops_per_core: if small {
                SMALL_OPS_PER_CORE
            } else {
                OPS_PER_CORE
            },
            figures: figures(),
            fed,
            stream,
            residency: ResidencyModel::ddr4_3200(),
            last_stats: (0, 0),
        }
    }

    fn round(&mut self, lane: u64, traced: bool, laps: &mut Laps) -> Output {
        let seed = iteration_seed(self.seed, lane);
        let mut t = Timers::new(traced);
        let stats_before = shared_cache_stats();
        let registry = Registry::new();
        let tracer = Tracer::new();
        let series = SeriesStore::new();

        let protocol = t
            .protocol
            .call(|| protocol_exercise(&registry, &tracer, seed));
        laps.lap();
        let config = EvalConfig {
            ops_per_core: self.ops_per_core,
            seed,
            windows: 1,
        };
        let engine = |h: &HierarchyConfig| {
            let mut model = NodeModel::new(*h, config);
            model.set_metrics_scope(registry.scope(&format!("node.{}", slug(h.name))));
            model.set_trace(&tracer);
            model
        };
        let mut node = Lookups::default();
        for fig in &self.figures {
            for h in &fig.hierarchies {
                let residency = fig.energy.then_some(&self.residency);
                node.consult(&engine(h), &fig.pairs, residency, &mut t);
                laps.lap();
            }
        }

        // The adaptive target: the closed loop, then each epoch's
        // speedup at the bin it ran, from a Hierarchy1 engine.
        let epochs = t
            .adaptive
            .call(|| adaptive_loop(&registry, &tracer, &series, seed));
        laps.lap();
        let mut bins = Consults::default();
        for r in epochs.iter().filter(|r| r.bin_during > 0) {
            let margin_mts = r.bin_during as u32 * BIN_MTS;
            let design = MemoryDesign::HeteroDmr { margin_mts };
            bins.normalized(design, ADAPTIVE_SUITE, UsageBucket::Low);
        }
        let h1 = HierarchyConfig::hierarchy1();
        node.consult(&engine(&h1), &bins.0, None, &mut t);
        let stats_after = shared_cache_stats();
        laps.lap();

        let prefix = format!("fleet.{}", PlacementPolicy::MarginAware.label());
        let observe = Observe {
            scope: &registry.scope(&prefix),
            tracer: &tracer,
            series: &series,
            prefix: &prefix,
        };
        let fleet = fleet_stream::run_policy(
            &self.fed,
            &self.stream,
            PlacementPolicy::MarginAware,
            seed,
            Some(&observe),
            t.fleet.as_mut(),
        );
        laps.lap();

        let (snapshot, events, series_snapshot) = t.snapshot.call(|| {
            (
                registry.snapshot().sim_only(),
                tracer.take(),
                series.snapshot(),
            )
        });
        laps.lap();
        let trace_events = events.len();
        let (metrics, trace, series_text) = t.export.call(|| {
            (
                format_jsonl(&snapshot),
                chrome_trace(&[("sweep-observed".to_string(), events)]),
                series_snapshot.to_jsonl(),
            )
        });
        laps.lap();
        let metrics_back = t
            .parse
            .call(|| parse_jsonl(&metrics).map(|s| format_jsonl(&s)));
        laps.lap();
        let trace_back = t.parse.call(|| {
            parse_chrome_trace(&trace).and_then(|ev| check_well_nested(&ev).map(|()| ev.len()))
        });
        laps.lap();
        let series_back = t.parse.call(|| parse_series_jsonl(&series_text));
        Output {
            stats_before,
            stats_after,
            node,
            protocol,
            epochs,
            fleet,
            exports: Exports {
                metrics,
                trace,
                series: series_text,
                trace_events,
                series_snapshot,
                metrics_back,
                trace_back,
                series_back,
            },
            timers: t,
        }
    }

    fn finish(&mut self, lane: u64, out: Output) -> Round {
        // Cold start: the first round starts with an unused shared
        // cache, and nothing between rounds consults it.
        let mut checks = vec![
            lane > 0 || out.stats_before == (0, 0),
            out.stats_before == self.last_stats,
        ];
        self.last_stats = out.stats_after;
        let hits = out.stats_after.0 - out.stats_before.0;
        let misses = out.stats_after.1 - out.stats_before.1;
        checks.push(hits + misses == out.node.lookups);
        checks.push(hits == out.node.predicted_hits);
        checks.push(fleet_stream::conserved(&out.fleet, self.stream.jobs));
        let x = &out.exports;
        checks.push(x.metrics_back.as_deref() == Ok(x.metrics.as_str()));
        checks.push(x.trace_back == Ok(x.trace_events));
        checks.push(x.series_back.as_ref() == Ok(&x.series_snapshot));
        let failed = checks.iter().filter(|ok| !**ok).count() as u64;

        let mut digest = Digest::default();
        for r in &out.node.results {
            digest.debug(r);
        }
        digest.debug(&out.protocol);
        digest.debug(&out.epochs);
        for &j in &out.node.energy_j {
            digest.f64(j);
        }
        fleet_stream::digest_run(&mut digest, &out.fleet);
        for text in [&x.metrics, &x.trace, &x.series] {
            digest.bytes(text.as_bytes());
        }

        let mut layers = Layers::new();
        let t = &out.timers;
        let mut apparatus_s = 0.0;
        if let Some(fleet) = &t.fleet {
            layers.insert("core.node_model.lookups", out.node.lookups as f64);
            layers.insert(
                "core.node_model.hit_ratio",
                hits as f64 / out.node.lookups as f64,
            );
            layers.insert("core.node_model.hit_busy_s", t.hit.busy_s());
            layers.insert("core.node_model.miss_busy_s", t.miss.busy_s());
            layers.insert("core.protocol.reads", out.protocol.0 as f64);
            layers.insert("core.protocol.rereads", out.protocol.1.recoveries as f64);
            layers.insert("core.protocol.busy_s", t.protocol.busy_s());
            layers.insert("core.adaptive.epochs", out.epochs.len() as f64);
            layers.insert("core.adaptive.busy_s", t.adaptive.busy_s());
            layers.insert("energy.residency.busy_s", t.residency.busy_s());
            layers.insert("telemetry.snapshot_s", t.snapshot.busy_s());
            layers.insert("telemetry.export_s", t.export.busy_s());
            let bytes = x.metrics.len() + x.trace.len() + x.series.len();
            layers.insert("telemetry.export_bytes", bytes as f64);
            layers.insert("telemetry.parse_s", t.parse.busy_s());
            let scheduled = out.fleet.fleet.jobs();
            layers.insert("scheduler.cluster.jobs", scheduled as f64);
            layers.insert(
                "scheduler.cluster.backfilled",
                out.fleet.fleet.backfilled() as f64,
            );
            layers.insert(
                "scheduler.cluster.queue_p99_s",
                out.fleet.fleet.queue_quantile_s(0.99),
            );
            fleet.report(&mut layers, scheduled);
            apparatus_s = fleet.replay_s();
        }
        Round {
            work: out.node.lookups,
            attempted: checks.len() as u64,
            failed,
            digest: digest.value(),
            apparatus_s,
            layers,
        }
    }
}

/// A run's residency tap and command counts as the residency model's
/// input (the conversion `experiments energy` makes).
fn residency_input(r: &SimResult, banks_per_rank: u32) -> ResidencyInput {
    ResidencyInput {
        active_bank_ps: r.residency.active_bank_ps,
        precharged_bank_ps: r.residency.precharged_bank_ps(),
        refresh_bank_ps: r.residency.refresh_bank_ps,
        self_refresh_bank_ps: r.residency.self_refresh_bank_ps,
        banks_per_rank,
        activates: r.controller.activates,
        reads: r.controller.reads,
        writes: r.controller.writes,
        broadcast_extra_cells: r.controller.broadcast_extra_cells,
        refreshes: r.controller.refreshes,
    }
}

/// The Fig 12 protocol/ECC exercise: conventional fills, replication
/// activation, injected reads across every error model, a write-mode
/// round trip, and a persistent-fault remap. Returns the reads issued
/// and the channel's statistics.
fn protocol_exercise(registry: &Registry, tracer: &Tracer, seed: u64) -> (u64, ProtocolStats) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0F16_0012);
    let mut ch = HeteroDmrChannel::new(1 << 12);
    ch.attach_telemetry(&registry.scope("protocol"));
    ch.attach_trace(tracer);
    let mut reads = 0u64;
    for block in 0..64u64 {
        ch.write(block, &[block as u8; 64], 0).expect("spec write");
    }
    let mut t = ch.set_used_blocks(1 << 10, 0);
    for model in ErrorModel::ALL {
        for block in 0..8u64 {
            let (_, _, end) = ch
                .read(block, t, Some((&mut rng, model)))
                .expect("recoverable read");
            t = end;
            reads += 1;
        }
    }
    for block in 0..32u64 {
        let (_, _, end) = ch.read::<StdRng>(block, t, None).expect("clean read");
        t = end;
        reads += 1;
    }
    t = ch.begin_write_mode(t).expect("enter write mode");
    for block in 0..16u64 {
        ch.write(block, &[0xA5; 64], t).expect("broadcast write");
    }
    t = ch.begin_read_mode(t).expect("back to read mode");
    ch.inject_persistent_copy_fault(3);
    for _ in 0..6 {
        let (_, _, end) = ch.read::<StdRng>(3, t, None).expect("faulty read");
        t = end;
        reads += 1;
    }
    (reads, ch.stats())
}

/// The adaptive governor's closed loop at an 800 MT/s envelope on a
/// steady HPCG environment, with metrics, trace, and series attached.
fn adaptive_loop(
    registry: &Registry,
    tracer: &Tracer,
    series: &SeriesStore,
    seed: u64,
) -> Vec<EpochRecord> {
    let mut governor = AdaptiveGovernor::new(AdaptiveConfig::defaults(4));
    governor.attach_telemetry(&registry.scope("adaptive.steady.online"));
    governor.set_tracer(tracer.clone());
    governor.attach_series(series, "adaptive.steady");
    run_closed_loop(
        &mut governor,
        &MarginResponse::typical(800),
        &Environment::steady(ADAPTIVE_SUITE),
        task_seed(seed, "adaptive.online", 0),
        ADAPTIVE_EPOCHS,
    )
}
