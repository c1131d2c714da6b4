//! The node-level evaluation engine behind Figures 5, 12, 13, 14,
//! and 15.
//!
//! Runs the [`memsim`] simulator for a (design, suite, hierarchy)
//! triple, applies the paper's memory-usage fallback semantics
//! (free-memory designs revert to the baseline above their
//! threshold), and aggregates suite averages / usage-bucket weights /
//! margin-group weights exactly as the paper's "average across six
//! HPC benchmark suites" and "[0~100%]" bars do.
//!
//! Results are memoized twice: per engine (a plain map) and process
//! wide ([`shared_cache`]), keyed by a content fingerprint of the
//! hierarchy and eval config plus the exact design and suite, so
//! trials, variants, and figures that evaluate the same configuration
//! share one simulation. Cached entries carry the run's telemetry
//! snapshot, replayed into the recalling engine's scope on a hit —
//! metrics output is byte-identical with the cache on or off.

use crate::designs::MemoryDesign;
use crate::monte_carlo::MarginGroups;
use dram::power::ActivityCounters;
use energy::{EnergyBreakdown, EnergyModel};
use memsim::config::HierarchyConfig;
use memsim::{NodeSim, SimResult};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use telemetry::trace::{kv, Clock, Tracer};
use telemetry::{slug, Registry, Scope, Snapshot};
use workloads::{Suite, TraceGen};

/// The paper's Figure 12 memory-usage buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UsageBucket {
    /// `[0 – 25 %)` utilization.
    Low,
    /// `[25 – 50 %)`.
    Mid,
    /// `[50 – 100 %]`.
    High,
}

impl UsageBucket {
    /// All buckets in Figure 12 order.
    pub const ALL: [UsageBucket; 3] = [UsageBucket::Low, UsageBucket::Mid, UsageBucket::High];

    /// Figure 12's bucket label.
    pub fn label(self) -> &'static str {
        match self {
            UsageBucket::Low => "[0~25%)",
            UsageBucket::Mid => "[25~50%)",
            UsageBucket::High => "[50~100%]",
        }
    }

    /// A representative utilization within the bucket.
    pub fn representative_utilization(self) -> f64 {
        match self {
            UsageBucket::Low => 0.15,
            UsageBucket::Mid => 0.35,
            UsageBucket::High => 0.75,
        }
    }
}

/// Simulation length, seeding, and window partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Memory operations simulated per core.
    pub ops_per_core: usize,
    /// Base RNG seed (per-core streams derive from it).
    pub seed: u64,
    /// Time windows each simulation is split into (1 = one straight
    /// run). The cursor API guarantees any partition is byte-identical
    /// to an unwindowed run; windows only set the granularity at which
    /// per-window tallies flush into telemetry and at which the
    /// time-parallel runner path could overlap work.
    pub windows: u32,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            ops_per_core: 20_000,
            seed: 0xD1A2,
            windows: 1,
        }
    }
}

/// The telemetry label for one `(design, suite)` run, relative to an
/// engine's metrics scope.
fn run_label(design: MemoryDesign, suite: Suite) -> String {
    format!("{}.{}", slug(&design.name()), slug(suite.name()))
}

/// One full simulation of `design` on `suite`: pure with respect to
/// its arguments (no memoization, no engine state), which is what
/// makes [`NodeModel::prime`] safe to fan out across workers.
/// `sink`, when present, is the fully-labelled scope the run's
/// telemetry lands under (callers nest [`run_label`] themselves).
fn simulate(
    hierarchy: &HierarchyConfig,
    config: &EvalConfig,
    sink: Option<&Scope>,
    trace: Option<&Tracer>,
    design: MemoryDesign,
    suite: Suite,
) -> SimResult {
    // The sim span opens at t=0 on the simulation clock and closes at
    // the run's final exec time; the simulator's own spans (write
    // drains, recovery chains) nest under it by stack discipline.
    let span = trace.map(|t| {
        t.begin(
            format!("sim.{}", run_label(design, suite)),
            "model",
            Clock::SimPs,
            0,
        )
    });
    let (modes, mirror) = design.per_channel_modes(hierarchy.memory.channels);
    let mut node = NodeSim::with_modes(*hierarchy, modes, mirror);
    if let Some(scope) = sink {
        node.attach_telemetry(scope);
    }
    if let Some(t) = trace {
        node.attach_trace(t);
    }
    let streams: Vec<TraceGen> = (0..hierarchy.cores)
        .map(|i| {
            TraceGen::new(
                suite.params(),
                config.seed.wrapping_add(i as u64),
                config.ops_per_core,
            )
        })
        .collect();
    // Start in steady state: fill each core's LLC partition with
    // its stream's recent past (the paper warms its gem5 caches
    // before the measured interval), dirty at the store fraction.
    // Every design gets the identical warm state so write volumes
    // are comparable; Hetero-DMR's cleaning then drains the same
    // dirty blocks in batches that eviction would have trickled.
    let warm = node.l3_blocks_per_core();
    for (i, stream) in streams.iter().enumerate() {
        node.prewarm_core(i, stream.warmup_blocks(warm, suite.params().write_fraction));
    }
    let result = run_windowed(node, streams, config.windows);
    if let (Some(t), Some(span)) = (trace, span) {
        t.end_with(
            span,
            result.exec_time_ps,
            vec![kv("instructions", result.instructions)],
        );
    }
    result
}

/// Executes a prepared node to completion, split into `windows` time
/// windows. The cursor API makes any partition byte-identical to
/// `node.run(..)`, so windowing changes *when* tallies flush into
/// telemetry — once per window boundary instead of once per op — never
/// *what* they total to. The final window's budget is unbounded, so an
/// uneven op count still runs to completion.
fn run_windowed(mut node: NodeSim, streams: Vec<TraceGen>, windows: u32) -> SimResult {
    if windows <= 1 {
        return node.run(streams);
    }
    let total_ops: u64 = streams.iter().map(|s| s.remaining() as u64).sum();
    let budget = total_ops.div_ceil(u64::from(windows)).max(1);
    let mut cursor = node.begin(streams);
    for _ in 1..windows {
        node.run_steps(&mut cursor, budget);
    }
    node.run_steps(&mut cursor, u64::MAX);
    node.finish(cursor)
}

/// [`simulate`] with its telemetry captured in a private registry, so
/// the run's metrics travel with the result: the shared cache stores
/// the snapshot and replays it (see [`Scope::absorb`]) into whichever
/// scope later recalls the entry.
fn simulate_snapshotted(
    hierarchy: &HierarchyConfig,
    config: &EvalConfig,
    trace: Option<&Tracer>,
    design: MemoryDesign,
    suite: Suite,
) -> (SimResult, Snapshot) {
    let registry = Registry::new();
    let scope = registry.scope(&run_label(design, suite));
    let result = simulate(hierarchy, config, Some(&scope), trace, design, suite);
    (result, registry.snapshot())
}

/// A shared-cache key: the content fingerprint of everything that
/// determines a run's outcome (hierarchy and eval config, hashed) plus
/// the design and suite, kept exact.
type SharedKey = (u64, MemoryDesign, Suite);

/// A cached run: the simulation result plus, when the miss ran with
/// metrics attached, the telemetry snapshot a hit replays.
type SharedEntry = (SimResult, Option<Snapshot>);

/// The process-wide result cache: identical `(hierarchy, eval config,
/// design, suite)` runs across engines — different trials, variants,
/// figures — resolve to one simulation.
fn shared_cache() -> &'static Mutex<HashMap<SharedKey, SharedEntry>> {
    static CACHE: OnceLock<Mutex<HashMap<SharedKey, SharedEntry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

static SHARED_HITS: AtomicU64 = AtomicU64::new(0);
static SHARED_MISSES: AtomicU64 = AtomicU64::new(0);

/// Lifetime `(hits, misses)` of the process-wide result cache.
pub fn shared_cache_stats() -> (u64, u64) {
    (
        SHARED_HITS.load(Ordering::Relaxed),
        SHARED_MISSES.load(Ordering::Relaxed),
    )
}

/// Folds the eval config into the hierarchy fingerprint: the complete
/// content address of a simulation's inputs (the design and suite ride
/// alongside in the key, unhashed).
fn cache_fingerprint(hierarchy: &HierarchyConfig, config: &EvalConfig) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = hierarchy.fingerprint();
    // `windows` provably cannot change a run's outcome (the window
    // differential tests pin that), but it stays in the fingerprint so
    // the cache can never paper over a regression in that guarantee.
    for w in [
        config.ops_per_core as u64,
        config.seed,
        config.windows as u64,
    ] {
        h = (h ^ w).wrapping_mul(PRIME);
    }
    h
}

/// The evaluation engine for one hierarchy, with run memoization.
#[derive(Debug)]
pub struct NodeModel {
    hierarchy: HierarchyConfig,
    config: EvalConfig,
    cache: RefCell<HashMap<(MemoryDesign, Suite), SimResult>>,
    metrics: Option<Scope>,
    trace: Option<Tracer>,
    fingerprint: u64,
    shared: bool,
}

impl NodeModel {
    /// Creates an engine for `hierarchy`.
    pub fn new(hierarchy: HierarchyConfig, config: EvalConfig) -> NodeModel {
        let fingerprint = cache_fingerprint(&hierarchy, &config);
        NodeModel {
            hierarchy,
            config,
            cache: RefCell::new(HashMap::new()),
            metrics: None,
            trace: None,
            fingerprint,
            shared: true,
        }
    }

    /// Opts this engine in or out of the process-wide result cache
    /// (on by default; benchmarks opt out to measure real simulation
    /// cost, and `--no-model-cache` opts whole runs out).
    pub fn set_shared_cache(&mut self, shared: bool) {
        self.shared = shared;
    }

    /// Routes simulator telemetry into `scope`: every fresh (design,
    /// suite) run attaches its [`NodeSim`] under
    /// `<scope>.<design>.<suite>`. Memoized replays record nothing, so
    /// each configuration contributes exactly one run's worth of
    /// counts no matter how many figures consult it.
    pub fn set_metrics_scope(&mut self, scope: Scope) {
        self.metrics = Some(scope);
    }

    /// Routes causal trace spans into `tracer`: fresh runs record a
    /// `sim.<design>.<suite>` span on the simulation clock with the
    /// simulator's own spans nested inside, and shared-cache lookups
    /// record `cache.hit` / `cache.miss` instants on the engine's tick
    /// clock. Engine-local memo hits record nothing, mirroring the
    /// metrics contract.
    pub fn set_trace(&mut self, tracer: &Tracer) {
        self.trace = Some(tracer.clone());
    }

    /// The hierarchy under evaluation.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// Runs (or recalls) the simulation of `design` on `suite` with
    /// the design fully active. A miss takes the [`prime`] path, so a
    /// single run and a primed batch share one miss path.
    ///
    /// [`prime`]: NodeModel::prime
    pub fn run(&self, design: MemoryDesign, suite: Suite) -> SimResult {
        if let Some(hit) = self.cache.borrow().get(&(design, suite)) {
            return hit.clone();
        }
        self.prime(&[(design, suite)]);
        self.cache.borrow()[&(design, suite)].clone()
    }

    /// A shared-cache hit usable by this engine. With metrics attached
    /// the entry must carry a snapshot to replay — snapshot-less
    /// entries (recorded by metrics-free runs) miss instead, and the
    /// re-run upgrades them.
    fn shared_lookup(&self, design: MemoryDesign, suite: Suite) -> Option<SimResult> {
        let cache = shared_cache().lock().unwrap();
        let (result, snap) = cache.get(&(self.fingerprint, design, suite))?;
        let result = match (&self.metrics, snap) {
            (None, _) => result.clone(),
            (Some(scope), Some(snap)) => {
                scope.absorb(snap);
                result.clone()
            }
            (Some(_), None) => return None,
        };
        SHARED_HITS.fetch_add(1, Ordering::Relaxed);
        self.trace_cache_event("cache.hit", design, suite);
        Some(result)
    }

    /// A `cache.hit` / `cache.miss` instant on the engine's tick
    /// clock, naming the run it resolved.
    fn trace_cache_event(&self, name: &str, design: MemoryDesign, suite: Suite) {
        if let Some(t) = &self.trace {
            let tick = t.tick();
            t.instant(
                name,
                "model",
                Clock::Ticks,
                tick,
                vec![kv("run", run_label(design, suite))],
            );
        }
    }

    /// Runs every not-yet-memoized `(design, suite)` pair on the
    /// worker pool and fills the cache, so subsequent [`run`] calls
    /// are recalls. Each simulation is single-threaded and seeded
    /// purely from the engine config, and telemetry lands under a
    /// per-pair scope, so priming in parallel yields bit-identical
    /// results and metrics to running the pairs one by one.
    ///
    /// [`run`]: NodeModel::run
    pub fn prime(&self, pairs: &[(MemoryDesign, Suite)]) {
        let mut missing: Vec<(MemoryDesign, Suite)> = Vec::new();
        {
            let cache = self.cache.borrow();
            for &pair in pairs {
                if !cache.contains_key(&pair) && !missing.contains(&pair) {
                    missing.push(pair);
                }
            }
        }
        if self.shared {
            // Shared-cache hits resolve inline (replaying their stored
            // snapshots); only true misses go to the worker pool.
            missing.retain(|&(design, suite)| match self.shared_lookup(design, suite) {
                Some(result) => {
                    self.cache.borrow_mut().insert((design, suite), result);
                    false
                }
                None => true,
            });
        }
        if missing.is_empty() {
            return;
        }
        let (hierarchy, config, metrics) = (&self.hierarchy, &self.config, self.metrics.as_ref());
        // Workers trace into private tracers; the engine absorbs the
        // buffers in `missing` input order, so the merged trace is
        // identical to running the pairs serially.
        let want_trace = self.trace.is_some();
        if !self.shared {
            let results = runner::parallel_map(missing.clone(), move |_, (design, suite)| {
                let sink = metrics.map(|s| s.scope(&run_label(design, suite)));
                let worker = want_trace.then(Tracer::new);
                let result = simulate(
                    hierarchy,
                    config,
                    sink.as_ref(),
                    worker.as_ref(),
                    design,
                    suite,
                );
                (result, worker.map(|t| t.take()))
            });
            let mut cache = self.cache.borrow_mut();
            for (pair, (result, spans)) in missing.into_iter().zip(results) {
                if let (Some(t), Some(spans)) = (&self.trace, spans) {
                    t.absorb(spans);
                }
                cache.insert(pair, result);
            }
            return;
        }
        let want_snap = metrics.is_some();
        let results = runner::parallel_map(missing.clone(), move |_, (design, suite)| {
            let worker = want_trace.then(Tracer::new);
            let out = if want_snap {
                let (result, snap) =
                    simulate_snapshotted(hierarchy, config, worker.as_ref(), design, suite);
                (result, Some(snap))
            } else {
                (
                    simulate(hierarchy, config, None, worker.as_ref(), design, suite),
                    None,
                )
            };
            (out.0, out.1, worker.map(|t| t.take()))
        });
        SHARED_MISSES.fetch_add(results.len() as u64, Ordering::Relaxed);
        let mut cache = self.cache.borrow_mut();
        for ((design, suite), (result, snap, spans)) in missing.into_iter().zip(results) {
            if let (Some(scope), Some(snap)) = (&self.metrics, &snap) {
                scope.absorb(snap);
            }
            if let (Some(t), Some(spans)) = (&self.trace, spans) {
                self.trace_cache_event("cache.miss", design, suite);
                t.absorb(spans);
            }
            let key = (self.fingerprint, design, suite);
            let mut shared = shared_cache().lock().unwrap();
            match snap {
                Some(snap) => {
                    shared.insert(key, (result.clone(), Some(snap)));
                }
                None => {
                    shared.entry(key).or_insert_with(|| (result.clone(), None));
                }
            }
            drop(shared);
            cache.insert((design, suite), result);
        }
    }

    /// The design actually in force in a usage bucket: free-memory
    /// designs fall back when utilization crosses their threshold, and
    /// Hetero-DMR+FMR regresses to plain Hetero-DMR in `[25, 50 %)`.
    pub fn effective_design(design: MemoryDesign, bucket: UsageBucket) -> MemoryDesign {
        let util = bucket.representative_utilization();
        match design {
            MemoryDesign::HeteroDmrFmr { margin_mts } if util >= 0.25 => {
                Self::effective_design(MemoryDesign::HeteroDmr { margin_mts }, bucket)
            }
            d => match d.free_memory_threshold() {
                Some(threshold) if util >= threshold => MemoryDesign::CommercialBaseline,
                _ => d,
            },
        }
    }

    /// Performance of `design` on `suite` in `bucket`, normalized to
    /// the Commercial Baseline (>1 is faster).
    pub fn normalized(&self, design: MemoryDesign, suite: Suite, bucket: UsageBucket) -> f64 {
        let effective = Self::effective_design(design, bucket);
        if effective == MemoryDesign::CommercialBaseline
            && design != MemoryDesign::CommercialBaseline
        {
            return 1.0;
        }
        let base = self.run(MemoryDesign::CommercialBaseline, suite);
        let run = self.run(effective, suite);
        run.speedup_over(&base)
    }

    /// Normalized performance averaged across the six suites
    /// (each suite weighted equally, as the paper does).
    pub fn suite_average(&self, design: MemoryDesign, bucket: UsageBucket) -> f64 {
        Suite::ALL
            .iter()
            .map(|&s| self.normalized(design, s, bucket))
            .sum::<f64>()
            / Suite::ALL.len() as f64
    }

    /// Figure 12's `[0~100%]` bar: bucket averages weighted by the
    /// fraction of jobs in each usage bucket.
    pub fn usage_weighted(&self, design: MemoryDesign, bucket_weights: [f64; 3]) -> f64 {
        UsageBucket::ALL
            .iter()
            .zip(bucket_weights)
            .map(|(&b, w)| w * self.suite_average(design, b))
            .sum()
    }

    /// The headline aggregation: usage-weighted performance further
    /// weighted across node margin groups (0.8 / 0.6 / 0 GT/s), with
    /// zero-margin nodes running the baseline.
    pub fn margin_weighted<F>(
        &self,
        family: F,
        groups: &MarginGroups,
        bucket_weights: [f64; 3],
    ) -> f64
    where
        F: Fn(u32) -> MemoryDesign,
    {
        groups.at_800 * self.usage_weighted(family(800), bucket_weights)
            + groups.at_600 * self.usage_weighted(family(600), bucket_weights)
            + groups.at_0
    }

    /// Energy of a run for Figure 13. The self-refresh residency of
    /// the original-holding modules under Hetero-DMR comes from the
    /// simulator's bank-state residency tap (via
    /// [`SimResult::activity`]), not a fixed fraction.
    pub fn energy(
        &self,
        design: MemoryDesign,
        suite: Suite,
        model: &EnergyModel,
    ) -> EnergyBreakdown {
        let result = self.run(design, suite);
        let activity: ActivityCounters = result.activity();
        let modules = self.hierarchy.memory.channels * self.hierarchy.memory.modules_per_channel;
        model.energy(&activity, modules, result.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(h: HierarchyConfig) -> NodeModel {
        NodeModel::new(
            h,
            EvalConfig {
                ops_per_core: 6_000,
                seed: 42,
                windows: 1,
            },
        )
    }

    #[test]
    fn fallback_semantics() {
        use MemoryDesign as D;
        let hdmr = D::HeteroDmr { margin_mts: 800 };
        let both = D::HeteroDmrFmr { margin_mts: 800 };
        assert_eq!(NodeModel::effective_design(hdmr, UsageBucket::Low), hdmr);
        assert_eq!(NodeModel::effective_design(hdmr, UsageBucket::Mid), hdmr);
        assert_eq!(
            NodeModel::effective_design(hdmr, UsageBucket::High),
            D::CommercialBaseline
        );
        assert_eq!(NodeModel::effective_design(both, UsageBucket::Low), both);
        assert_eq!(NodeModel::effective_design(both, UsageBucket::Mid), hdmr);
        assert_eq!(
            NodeModel::effective_design(both, UsageBucket::High),
            D::CommercialBaseline
        );
        // Margin-setting overclocking ignores utilization.
        assert_eq!(
            NodeModel::effective_design(D::ExploitFreqLat, UsageBucket::High),
            D::ExploitFreqLat
        );
    }

    #[test]
    fn exploiting_margins_speeds_up_every_suite() {
        let m = model(HierarchyConfig::hierarchy1());
        for suite in Suite::ALL {
            let s = m.normalized(MemoryDesign::ExploitFreqLat, suite, UsageBucket::Low);
            assert!(
                s > 1.02 && s < 1.45,
                "{suite}: freq+lat speedup {s} out of plausible range"
            );
        }
    }

    #[test]
    fn figure5_ordering_latency_lt_freq_lt_both() {
        let m = model(HierarchyConfig::hierarchy1());
        let lat = m.suite_average(MemoryDesign::ExploitLatency, UsageBucket::Low);
        let freq = m.suite_average(MemoryDesign::ExploitFrequency, UsageBucket::Low);
        let both = m.suite_average(MemoryDesign::ExploitFreqLat, UsageBucket::Low);
        assert!(lat < freq, "latency {lat} vs freq {freq}");
        assert!(freq <= both + 0.01, "freq {freq} vs both {both}");
        // Paper: ~1.19x average for freq+lat.
        assert!((both - 1.19).abs() < 0.08, "freq+lat average {both}");
    }

    #[test]
    fn hetero_dmr_tracks_freq_lat_with_bounded_cost() {
        let m = model(HierarchyConfig::hierarchy1());
        let hdmr = m.suite_average(
            MemoryDesign::HeteroDmr { margin_mts: 800 },
            UsageBucket::Low,
        );
        let ideal = m.suite_average(MemoryDesign::ExploitFreqLat, UsageBucket::Low);
        assert!(hdmr > 1.04, "Hetero-DMR speedup {hdmr}");
        // Below the unprotected cherry-picked setting — the price of
        // rigorous reliability (the paper measures 2-3%; our
        // simulator's rank-consolidation penalty is harsher, see
        // EXPERIMENTS.md) — but it must stay a clear net win.
        assert!(hdmr < ideal, "protection is not free");
        assert!(ideal - hdmr < 0.16, "hdmr {hdmr} vs ideal {ideal}");
    }

    #[test]
    fn lower_margin_lower_speedup() {
        let m = model(HierarchyConfig::hierarchy1());
        let hi = m.suite_average(
            MemoryDesign::HeteroDmr { margin_mts: 800 },
            UsageBucket::Low,
        );
        let lo = m.suite_average(
            MemoryDesign::HeteroDmr { margin_mts: 600 },
            UsageBucket::Low,
        );
        assert!(lo <= hi + 0.01, "600 MT/s {lo} vs 800 MT/s {hi}");
        assert!(lo > 1.0, "600 MT/s margin still helps: {lo}");
    }

    #[test]
    fn high_usage_bucket_is_baseline() {
        let m = model(HierarchyConfig::hierarchy1());
        let s = m.suite_average(
            MemoryDesign::HeteroDmr { margin_mts: 800 },
            UsageBucket::High,
        );
        assert_eq!(s, 1.0);
    }

    #[test]
    fn usage_weighting_blends_buckets() {
        let m = model(HierarchyConfig::hierarchy1());
        let design = MemoryDesign::HeteroDmr { margin_mts: 800 };
        let low = m.suite_average(design, UsageBucket::Low);
        let blended = m.usage_weighted(design, [0.60, 0.15, 0.25]);
        assert!(blended > 1.0 && blended < low);
    }

    #[test]
    fn metrics_scope_records_each_config_once() {
        let mut m = model(HierarchyConfig::hierarchy1());
        let r = telemetry::Registry::new();
        m.set_metrics_scope(r.scope("node"));
        let _ = m.run(MemoryDesign::CommercialBaseline, Suite::Hpcg);
        let once = r.snapshot();
        assert!(once.counter("node.commercial_baseline.hpcg.ops") > 0);
        assert!(once.counter("node.commercial_baseline.hpcg.ch0.controller.reads") > 0);
        let _ = m.run(MemoryDesign::CommercialBaseline, Suite::Hpcg);
        assert_eq!(r.snapshot(), once, "memoized replays record nothing");
    }

    /// `run` misses through `prime`, so priming a batch and then
    /// recalling it must leave exactly what running the pairs one by
    /// one leaves: the same `SimResult`s, metrics and trace events,
    /// with the shared cache on and off.
    #[test]
    fn prime_matches_serial_runs() {
        let pairs = [
            (MemoryDesign::CommercialBaseline, Suite::Hpcg),
            (MemoryDesign::ExploitFreqLat, Suite::Hpcg),
            (MemoryDesign::ExploitFreqLat, Suite::Hpcg), // duplicate is fine
        ];
        let observe = |shared: bool, primed: bool| {
            // Private seed so this test owns its shared-cache entries;
            // evicting them makes every variant start cold.
            let mut m = NodeModel::new(
                HierarchyConfig::hierarchy1(),
                EvalConfig {
                    ops_per_core: 2_000,
                    seed: 0x9817,
                    windows: 1,
                },
            );
            shared_cache()
                .lock()
                .unwrap()
                .retain(|key, _| key.0 != m.fingerprint);
            m.set_shared_cache(shared);
            let registry = Registry::new();
            m.set_metrics_scope(registry.scope("node"));
            let tracer = Tracer::new();
            m.set_trace(&tracer);
            if primed {
                m.prime(&pairs);
            }
            let results: Vec<SimResult> = pairs.iter().map(|&(d, s)| m.run(d, s)).collect();
            (results, registry.snapshot(), tracer.take())
        };
        let (plain, plain_metrics, _) = observe(false, false);
        for shared in [false, true] {
            let (results, metrics, events) = observe(shared, false);
            let primed = observe(shared, true);
            assert_eq!(primed.0, results, "shared={shared}: SimResult");
            assert_eq!(primed.1, metrics, "shared={shared}: metrics");
            assert_eq!(primed.2, events, "shared={shared}: trace events");
            let sims = events.iter().filter(|e| e.name.starts_with("sim.")).count();
            assert_eq!(sims, 2, "shared={shared}: one sim span per distinct pair");
            assert_eq!(results, plain, "shared={shared}: SimResult vs unshared");
            assert_eq!(
                metrics, plain_metrics,
                "shared={shared}: metrics vs unshared"
            );
        }
    }

    #[test]
    fn shared_cache_replays_metrics_identically() {
        let pair = (MemoryDesign::ExploitLatency, Suite::Lulesh);
        // Reference: record directly, shared cache off.
        let mut direct = model(HierarchyConfig::hierarchy1());
        direct.set_shared_cache(false);
        let rd = telemetry::Registry::new();
        direct.set_metrics_scope(rd.scope("node"));
        let _ = direct.run(pair.0, pair.1);
        // Ensure a snapshot-bearing shared entry exists (miss or hit,
        // either leaves one behind)...
        let mut warm = model(HierarchyConfig::hierarchy1());
        let rw = telemetry::Registry::new();
        warm.set_metrics_scope(rw.scope("node"));
        let _ = warm.run(pair.0, pair.1);
        // ...so this run is a guaranteed snapshot replay.
        let (hits_before, _) = shared_cache_stats();
        let mut replay = model(HierarchyConfig::hierarchy1());
        let rr = telemetry::Registry::new();
        replay.set_metrics_scope(rr.scope("node"));
        let result = replay.run(pair.0, pair.1);
        let (hits_after, _) = shared_cache_stats();
        assert!(hits_after > hits_before, "expected a shared-cache hit");
        assert_eq!(result.exec_time_ps, direct.run(pair.0, pair.1).exec_time_ps);
        assert_eq!(rr.snapshot(), rd.snapshot(), "replayed metrics differ");
    }

    #[test]
    fn shared_cache_keys_on_eval_config() {
        let cfg = |seed| EvalConfig {
            ops_per_core: 3_000,
            seed,
            windows: 1,
        };
        let a = NodeModel::new(HierarchyConfig::hierarchy1(), cfg(7));
        let b = NodeModel::new(HierarchyConfig::hierarchy1(), cfg(8));
        let ra = a.run(MemoryDesign::CommercialBaseline, Suite::Lulesh);
        let rb = b.run(MemoryDesign::CommercialBaseline, Suite::Lulesh);
        assert_ne!(
            ra.exec_time_ps, rb.exec_time_ps,
            "different seeds must not share cache entries"
        );
    }

    #[test]
    fn run_memoization_is_stable() {
        let m = model(HierarchyConfig::hierarchy1());
        let a = m.run(MemoryDesign::CommercialBaseline, Suite::Hpcg);
        let b = m.run(MemoryDesign::CommercialBaseline, Suite::Hpcg);
        assert_eq!(a.exec_time_ps, b.exec_time_ps);
    }

    #[test]
    fn cleaning_overhead_is_small() {
        // Figure 14: Hetero-DMR's extra DRAM accesses per instruction
        // are ~1% on average.
        let m = model(HierarchyConfig::hierarchy1());
        let base = m.run(MemoryDesign::CommercialBaseline, Suite::Npb);
        let hdmr = m.run(MemoryDesign::HeteroDmr { margin_mts: 800 }, Suite::Npb);
        let overhead =
            hdmr.dram_accesses_per_instruction() / base.dram_accesses_per_instruction() - 1.0;
        assert!(overhead.abs() < 0.10, "accesses/instr overhead {overhead}");
    }

    #[test]
    fn trace_records_sim_spans_and_cache_instants() {
        use telemetry::trace::{check_nesting, Clock, Ph, Tracer};
        // Private seed so this test owns its shared-cache entries.
        let mk = || {
            NodeModel::new(
                HierarchyConfig::hierarchy1(),
                EvalConfig {
                    ops_per_core: 2_000,
                    seed: 0xACE5,
                    windows: 1,
                },
            )
        };
        let tracer = Tracer::new();
        let mut m = mk();
        m.set_trace(&tracer);
        let pairs = [
            (MemoryDesign::CommercialBaseline, Suite::Hpcg),
            (MemoryDesign::ExploitFreqLat, Suite::Hpcg),
        ];
        m.prime(&pairs);
        let _ = m.run(pairs[0].0, pairs[0].1);
        let events = tracer.take();
        check_nesting(&events).unwrap();
        let sims: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("sim.") && e.ph == Ph::Span)
            .collect();
        assert_eq!(sims.len(), 2, "one sim span per primed pair");
        assert!(sims.iter().all(|e| e.clock == Clock::SimPs && e.end > 0));
        assert_eq!(
            events.iter().filter(|e| e.name == "cache.miss").count(),
            2,
            "both primed pairs were shared-cache misses"
        );
        // A second engine recalling the same config hits the shared
        // cache and records only the hit instant, no sim span.
        let hit_tracer = Tracer::new();
        let mut m2 = mk();
        m2.set_trace(&hit_tracer);
        let _ = m2.run(pairs[0].0, pairs[0].1);
        let hits = hit_tracer.take();
        assert!(hits.iter().any(|e| e.name == "cache.hit"));
        assert!(!hits.iter().any(|e| e.name.starts_with("sim.")));
    }

    /// Satellite of the batched/windowed hot loop: window boundaries
    /// flush per-window tally locals into the shared telemetry
    /// handles, so a windowed run must end with *identical* counters —
    /// and an identical `SimResult` — to the unwindowed run, not just
    /// close ones.
    #[test]
    fn windowed_run_matches_unwindowed_bit_for_bit() {
        let cfg = |windows| EvalConfig {
            ops_per_core: 3_000,
            seed: 0x51DE,
            windows,
        };
        let run = |windows| {
            let mut m = NodeModel::new(HierarchyConfig::hierarchy1(), cfg(windows));
            m.set_shared_cache(false);
            let r = telemetry::Registry::new();
            m.set_metrics_scope(r.scope("node"));
            let result = m.run(MemoryDesign::HeteroDmr { margin_mts: 800 }, Suite::Lulesh);
            (result, r.snapshot())
        };
        let (plain_result, plain_metrics) = run(1);
        for windows in [2, 5, 64] {
            let (result, metrics) = run(windows);
            assert_eq!(result, plain_result, "{windows} windows: SimResult drifted");
            assert_eq!(
                metrics, plain_metrics,
                "{windows} windows: telemetry counters drifted"
            );
        }
    }

    /// Section III-A1: each write batch pays two 1 µs frequency
    /// switches, so Hetero-DMR needs ~12 800-write batches to amortize
    /// them; 128-write batches must not be faster.
    #[test]
    fn large_write_batches_amortize_frequency_switches() {
        let exec_with_batch = |watermark: usize| {
            let h = HierarchyConfig::hierarchy1();
            let mut mode = MemoryDesign::HeteroDmr { margin_mts: 800 }.channel_mode();
            mode.write_high_watermark = watermark;
            mode.turnaround_penalty_ps = dram::PS_PER_US;
            let mut node = NodeSim::new(h, mode);
            let params = Suite::Hpcg.params();
            let streams: Vec<_> = (0..h.cores)
                .map(|i| TraceGen::new(params, 100 + i as u64, 4_000))
                .collect();
            let warm = node.l3_blocks_per_core();
            for (i, s) in streams.iter().enumerate() {
                node.prewarm_core(i, s.warmup_blocks(warm, params.write_fraction));
            }
            node.run(streams).exec_time_ps
        };
        let small = exec_with_batch(128);
        let large = exec_with_batch(12_800);
        assert!(
            small >= large,
            "large batches must not lose: small {small} vs large {large}"
        );
    }

    /// Section III-A's strawman: splitting channels into a fast half
    /// and a mirrored spec half loses to same-channel Hetero-DMR.
    #[test]
    fn naive_channel_split_dmr_loses_to_hetero_dmr() {
        let mut m = NodeModel::new(
            HierarchyConfig::hierarchy2(),
            EvalConfig {
                ops_per_core: 2_000,
                seed: 0xAB1A,
                windows: 1,
            },
        );
        m.set_shared_cache(false);
        let naive = m.suite_average(MemoryDesign::NaiveDmr { margin_mts: 800 }, UsageBucket::Low);
        let hdmr = m.suite_average(
            MemoryDesign::HeteroDmr { margin_mts: 800 },
            UsageBucket::Low,
        );
        assert!(naive < hdmr, "naive {naive} vs Hetero-DMR {hdmr}");
    }

    #[test]
    fn energy_improves_under_hetero_dmr() {
        let m = model(HierarchyConfig::hierarchy1());
        let em = EnergyModel::default();
        let base = m.energy(MemoryDesign::CommercialBaseline, Suite::Hpcg, &em);
        let hdmr = m.energy(
            MemoryDesign::HeteroDmr { margin_mts: 800 },
            Suite::Hpcg,
            &em,
        );
        assert!(
            hdmr.epi_nj() < base.epi_nj(),
            "EPI should improve: {} vs {}",
            hdmr.epi_nj(),
            base.epi_nj()
        );
    }
}
