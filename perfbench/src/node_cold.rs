//! `node-cold`: the Fig 5/12 design set on both hierarchies and all
//! six suites, simulated by `NodeModel` with the shared result cache
//! off and no telemetry attached. Nearly all host time goes to trace
//! generation and the memsim caches and controllers.
//!
//! A timed round drives `NodeModel::run`. `NodeModel` cannot be timed
//! inside, so a traced round rebuilds each simulation from the same
//! public memsim calls the engine makes, with the access streams read
//! through a timing wrapper, and then replays every core's op stream
//! through a fresh `CoreSim`'s caches to time the cache layer alone.
//! The digest proves the rebuilt simulations equal the engine's.

use crate::digest::Digest;
use crate::metrics::Layers;
use crate::timer::{stopwatch, Laps, LayerTimer};
use crate::{Round, Workload};
use hetero_dmr::{EvalConfig, MemoryDesign, NodeModel};
use memsim::core::CoreSim;
use memsim::{HierarchyConfig, MemOp, NodeSim, SimResult};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use workloads::{Suite, TraceGen};

/// The design set: the Fig 5 baseline and freq+lat bars plus Fig 12's
/// Hetero-DMR at 800 MT/s.
const DESIGNS: [MemoryDesign; 3] = [
    MemoryDesign::CommercialBaseline,
    MemoryDesign::ExploitFreqLat,
    MemoryDesign::HeteroDmr { margin_mts: 800 },
];

/// Memory operations per core per simulation.
const OPS_PER_CORE: usize = 4_000;
const SMALL_OPS_PER_CORE: usize = 300;

/// The paper's Fig 5 freq+lat suite-average speedup.
const PAPER_FIG5_FREQ_LAT: f64 = 1.19;

/// Ops pulled from a trace generator per timed refill.
const STREAM_BATCH: usize = 64;

/// Refills timed: one in `2^STREAM_SHIFT`.
const STREAM_SHIFT: u32 = 2;

pub struct NodeCold {
    hierarchies: [HierarchyConfig; 2],
    config: EvalConfig,
    /// Expected `(ops, instructions)` per (hierarchy, suite), computed
    /// by the first check.
    expected: Vec<(u64, u64)>,
}

/// A round's simulations, in (hierarchy, design, suite) order, with
/// the layer split of a traced round.
pub struct Output {
    results: Vec<SimResult>,
    timers: Option<NodeTimers>,
}

impl Workload for NodeCold {
    type Output = Output;
    const SAME_INPUT_EACH_ROUND: bool = true;

    fn setup(seed: u64, small: bool) -> NodeCold {
        runner::set_jobs(1);
        NodeCold {
            hierarchies: HierarchyConfig::both(),
            config: EvalConfig {
                ops_per_core: if small {
                    SMALL_OPS_PER_CORE
                } else {
                    OPS_PER_CORE
                },
                seed,
                windows: 1,
            },
            expected: Vec::new(),
        }
    }

    fn round(&mut self, _lane: u64, traced: bool, laps: &mut Laps) -> Output {
        let mut results =
            Vec::with_capacity(self.hierarchies.len() * DESIGNS.len() * Suite::ALL.len());
        if !traced {
            for h in &self.hierarchies {
                let mut model = NodeModel::new(*h, self.config);
                model.set_shared_cache(false);
                for design in DESIGNS {
                    for suite in Suite::ALL {
                        results.push(model.run(design, suite));
                        laps.lap();
                    }
                }
            }
            return Output {
                results,
                timers: None,
            };
        }
        let mut t = NodeTimers::default();
        for h in &self.hierarchies {
            for design in DESIGNS {
                for suite in Suite::ALL {
                    results.push(simulate_traced(h, &self.config, design, suite, &mut t));
                }
            }
        }
        Output {
            results,
            timers: Some(t),
        }
    }

    fn finish(&mut self, _lane: u64, out: Output) -> Round {
        if self.expected.is_empty() {
            self.expected = self
                .hierarchies
                .iter()
                .flat_map(|h| Suite::ALL.map(|suite| expected_counts(h, &self.config, suite)))
                .collect();
        }
        let mut layers = Layers::new();
        let mut apparatus_s = 0.0;
        if let Some(t) = &out.timers {
            apparatus_s = t.replay_s;
            t.report(&mut layers);
        }
        let results = &out.results;
        let mut digest = Digest::default();
        let mut failed = 0;
        let (mut ops, mut row_hits, mut accesses, mut reads, mut latency_ps, mut sim_ps) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for (i, r) in results.iter().enumerate() {
            let per_hierarchy = DESIGNS.len() * Suite::ALL.len();
            let suite = i % Suite::ALL.len();
            let (want_ops, want_instr) =
                self.expected[i / per_hierarchy * Suite::ALL.len() + suite];
            if r.cache_hits + r.cache_misses != want_ops || r.instructions != want_instr {
                failed += 1;
            }
            digest.debug(r);
            ops += r.cache_hits + r.cache_misses;
            row_hits += r.controller.row_hits;
            accesses += r.controller.reads + r.controller.writes;
            reads += r.controller.reads;
            latency_ps += r.controller.read_latency_sum_ps;
            sim_ps += r.exec_time_ps;
        }
        layers.insert("memsim.node.ops", ops as f64);
        layers.insert("memsim.node.sim_ms", sim_ps as f64 / 1e9);
        layers.insert(
            "memsim.controller.row_hit_rate",
            row_hits as f64 / accesses as f64,
        );
        layers.insert(
            "memsim.controller.read_latency_ns",
            latency_ps as f64 / reads as f64 / 1e3,
        );
        layers.insert("check.paper_err_pct", self.paper_err_pct(results));
        if let Some(t) = &out.timers {
            layers.insert("memsim.cache.ns_per_op", t.cache_s * 1e9 / ops as f64);
            layers.insert("workloads.trace.ns_per_op", t.trace_s() * 1e9 / ops as f64);
        }
        Round {
            work: ops,
            attempted: results.len() as u64,
            failed,
            digest: digest.value(),
            apparatus_s,
            layers,
        }
    }
}

impl NodeCold {
    /// The gap, in percent, between the simulated Fig 5 freq+lat
    /// suite average (over both hierarchies) and the paper's 1.19x.
    /// `DESIGNS` lists the baseline first and freq+lat second.
    fn paper_err_pct(&self, results: &[SimResult]) -> f64 {
        let per_design = Suite::ALL.len();
        let per_hierarchy = DESIGNS.len() * per_design;
        let mut sum = 0.0;
        for h in 0..self.hierarchies.len() {
            for s in 0..per_design {
                let base = &results[h * per_hierarchy + s];
                let fast = &results[h * per_hierarchy + per_design + s];
                sum += fast.speedup_over(base);
            }
        }
        let avg = sum / (self.hierarchies.len() * per_design) as f64;
        (avg - PAPER_FIG5_FREQ_LAT).abs() / PAPER_FIG5_FREQ_LAT * 100.0
    }
}

/// The per-core streams `NodeModel` builds for a simulation.
fn streams(h: &HierarchyConfig, config: &EvalConfig, suite: Suite) -> Vec<TraceGen> {
    (0..h.cores)
        .map(|i| {
            TraceGen::new(
                suite.params(),
                config.seed.wrapping_add(i as u64),
                config.ops_per_core,
            )
        })
        .collect()
}

/// Ops and retired instructions a simulation must report: every op is
/// one instruction plus its compute gap.
fn expected_counts(h: &HierarchyConfig, config: &EvalConfig, suite: Suite) -> (u64, u64) {
    streams(h, config, suite)
        .into_iter()
        .flatten()
        .fold((0, 0), |(ops, instr), op| {
            (ops + 1, instr + op.gap_instructions as u64 + 1)
        })
}

/// Host time of a traced round's simulations, by layer.
struct NodeTimers {
    /// Trace-generator refills inside the step loop.
    stream: Rc<RefCell<LayerTimer>>,
    /// Warm-up block generation, one call per core.
    warmup: LayerTimer,
    cache_s: f64,
    cache_hits: u64,
    cache_accesses: u64,
    /// `NodeSim::run`: the step loop and the final drain.
    run_s: f64,
    /// Node construction and L3 prewarm.
    node_s: f64,
    prewarm_s: f64,
    /// The cache replay, apparatus only.
    replay_s: f64,
}

impl Default for NodeTimers {
    fn default() -> NodeTimers {
        NodeTimers {
            stream: Rc::new(RefCell::new(LayerTimer::new(STREAM_SHIFT))),
            warmup: LayerTimer::new(0),
            cache_s: 0.0,
            cache_hits: 0,
            cache_accesses: 0,
            run_s: 0.0,
            node_s: 0.0,
            prewarm_s: 0.0,
            replay_s: 0.0,
        }
    }
}

impl NodeTimers {
    fn trace_s(&self) -> f64 {
        self.stream.borrow().busy_s() + self.warmup.busy_s()
    }

    fn report(&self, layers: &mut Layers) {
        let stream_s = self.stream.borrow().busy_s();
        layers.insert("workloads.trace.busy_s", self.trace_s());
        layers.insert("memsim.cache.busy_s", self.cache_s);
        layers.insert(
            "memsim.cache.hit_rate",
            self.cache_hits as f64 / self.cache_accesses as f64,
        );
        // The controller is what remains of the step loop once the op
        // streams and the cache hierarchy are accounted for.
        layers.insert(
            "memsim.controller.busy_s",
            self.run_s - stream_s - self.cache_s,
        );
        layers.insert("memsim.node.busy_s", self.node_s);
        layers.insert("memsim.node.prewarm_s", self.prewarm_s);
    }
}

/// An access stream that pulls ops from a trace generator in batches,
/// each refill a (sampled) call into the `workloads.trace` layer. The
/// simulator sees the same op sequence as from the generator itself.
struct TimedStream {
    inner: TraceGen,
    buf: Vec<MemOp>,
    pos: usize,
    timer: Rc<RefCell<LayerTimer>>,
}

impl Iterator for TimedStream {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        if self.pos == self.buf.len() {
            let (inner, buf) = (&mut self.inner, &mut self.buf);
            buf.clear();
            self.timer
                .borrow_mut()
                .call(|| buf.extend(inner.by_ref().take(STREAM_BATCH)));
            self.pos = 0;
        }
        let op = self.buf.get(self.pos).copied();
        self.pos += 1;
        op
    }
}

/// One simulation rebuilt from the calls `NodeModel` makes (modes,
/// node, streams, L3 prewarm, run), with each part timed, followed by
/// the cache-layer replay.
fn simulate_traced(
    h: &HierarchyConfig,
    config: &EvalConfig,
    design: MemoryDesign,
    suite: Suite,
    t: &mut NodeTimers,
) -> SimResult {
    let ((mut node, gens, warm), build_s) = stopwatch(|| {
        let (modes, mirror) = design.per_channel_modes(h.memory.channels);
        let node = NodeSim::with_modes(*h, modes, mirror);
        let gens = streams(h, config, suite);
        let warm = node.l3_blocks_per_core();
        (node, gens, warm)
    });
    let write_fraction = suite.params().write_fraction;
    let mut warm_sets = Vec::with_capacity(gens.len());
    let mut prewarm_s = 0.0;
    for (i, g) in gens.iter().enumerate() {
        let blocks = t.warmup.call(|| g.warmup_blocks(warm, write_fraction));
        let ((), s) = stopwatch(|| node.prewarm_core(i, blocks.iter().copied()));
        prewarm_s += s;
        warm_sets.push(blocks);
    }
    let timed: Vec<TimedStream> = gens
        .into_iter()
        .map(|inner| TimedStream {
            inner,
            buf: Vec::with_capacity(STREAM_BATCH),
            pos: 0,
            timer: Rc::clone(&t.stream),
        })
        .collect();
    let (result, run_s) = stopwatch(|| node.run(timed));
    t.run_s += run_s;
    t.node_s += build_s + prewarm_s;
    t.prewarm_s += prewarm_s;

    // Cache-layer replay: each core's op stream through a fresh core's
    // L1/L2/L3 and prefetcher, after the same warm-up. Generating the
    // ops is excluded; only the cache calls are timed.
    let (_, replay_s) = stopwatch(|| {
        for (blocks, gen) in warm_sets.iter().zip(streams(h, config, suite)) {
            let mut core = CoreSim::new(h.core, h.l3_partition_bytes());
            for &(block, dirty) in blocks {
                core.prewarm_l3(block, dirty);
            }
            let ops: Vec<MemOp> = gen.collect();
            let ((), s) = stopwatch(|| replay_caches(&mut core, &ops));
            t.cache_s += s;
            t.cache_hits += core.cache_hits;
            t.cache_accesses += core.cache_hits + core.cache_misses;
        }
    });
    t.replay_s += replay_s;
    result
}

/// The cache calls `NodeSim` makes per op: the demand access, then
/// every prefetch the access triggered that is not already cached.
fn replay_caches(core: &mut CoreSim, ops: &[MemOp]) {
    let (mut writebacks, mut prefetches) = (Vec::new(), Vec::new());
    for op in ops {
        black_box(core.access_caches(op, &mut writebacks, &mut prefetches));
        for &pf in &prefetches {
            if core.needs_prefetch(pf) {
                black_box(core.install_prefetch(pf));
            }
        }
    }
}
