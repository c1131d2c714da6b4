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
//! wide (`shared_cache`), keyed by a content fingerprint of the
//! hierarchy and eval config plus the exact design and suite, so
//! trials, variants, and figures that evaluate the same configuration
//! share one simulation. A shared entry carries everything the miss
//! observed (metrics and trace, one [`ObsSnapshot`]), and a hit absorbs
//! it exactly as the miss did: a shared hit records exactly what a miss
//! records, so every artifact is byte-identical with the cache on or
//! off. An engine-local repeat records nothing.

use crate::designs::MemoryDesign;
use crate::monte_carlo::MarginGroups;
use energy::{ResidencyBreakdown, ResidencyInput, ResidencyModel};
use memsim::cache::Cache;
use memsim::config::{HierarchyConfig, L3_WAYS};
use memsim::core::CoreSim;
use memsim::{CoreRecording, NodeSim, SimResult};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use telemetry::trace::{kv, Clock, Tracer};
use telemetry::{slug, Obs, ObsSnapshot, Scope};
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

/// Simulation length and seeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Memory operations simulated per core.
    pub ops_per_core: usize,
    /// Base RNG seed (per-core streams derive from it).
    pub seed: u64,
    /// Ignored: every simulation runs as one loop. ROADMAP item 1
    /// deletes this field.
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

/// The per-core access streams of one `suite` run: core `i` draws
/// from `seed + i`.
fn core_streams(hierarchy: &HierarchyConfig, config: &EvalConfig, suite: Suite) -> Vec<TraceGen> {
    (0..hierarchy.cores)
        .map(|i| {
            TraceGen::new(
                suite.params(),
                config.seed.wrapping_add(i as u64),
                config.ops_per_core,
            )
        })
        .collect()
}

/// One core's warmed L3 partition: the one place the node model
/// builds warm state. The partition is filled with `stream`'s recent
/// past (the paper warms its gem5 caches before the measured interval),
/// dirty at the suite's store fraction `dirty_fraction`. The warm state
/// depends on hierarchy, eval config and suite alone, so every design
/// starts from the identical state (write volumes stay comparable;
/// Hetero-DMR's cleaning drains the same dirty blocks in batches that
/// eviction would have trickled).
fn warm_l3(hierarchy: &HierarchyConfig, stream: &TraceGen, dirty_fraction: f64) -> Cache {
    let blocks = hierarchy.l3_partition_bytes() / 64;
    let mut l3 = Cache::new(hierarchy.l3_partition_bytes(), L3_WAYS);
    l3.prewarm_blocks(
        stream
            .warmup(blocks, dirty_fraction)
            .map(|(block, dirty)| (block << 6, dirty)),
    );
    l3
}

/// Every core's [`warm_l3`] for a `suite` run, in core order: the start
/// of a live run.
fn warm_l3s(hierarchy: &HierarchyConfig, config: &EvalConfig, suite: Suite) -> Vec<Cache> {
    let dirty_fraction = suite.params().write_fraction;
    core_streams(hierarchy, config, suite)
        .iter()
        .map(|stream| warm_l3(hierarchy, stream, dirty_fraction))
        .collect()
}

/// The cache pass of a `suite` run, once for every design: each core's
/// stream runs through its own caches, from its [`warm_l3`], and the
/// outcomes are recorded. The pass cannot depend on the design (the
/// caches are per core and no timing feeds back into them), so
/// [`NodeModel::prime`] records it once per suite and batch and times
/// every design of the batch from it. Cores record in parallel on the
/// worker pool, each building and dropping its own warm L3.
fn record(hierarchy: &HierarchyConfig, config: &EvalConfig, suite: Suite) -> Vec<CoreRecording> {
    let dirty_fraction = suite.params().write_fraction;
    runner::parallel_map(core_streams(hierarchy, config, suite), |_, stream| {
        let l3 = warm_l3(hierarchy, &stream, dirty_fraction);
        CoreRecording::capture(CoreSim::with_l3(hierarchy.core, l3), stream)
    })
}

/// One full simulation of `design` on `suite`: live from the suite's
/// [`warm_l3s`] and streams when `recording` is `None`, else timed from
/// the suite's [`record`]ed cache pass, with identical results,
/// telemetry and trace. Pure with respect to its arguments (no
/// memoization, no engine state), which is what makes
/// [`NodeModel::prime`] safe to fan out across workers. `obs` is the
/// fully-labelled handle the run's telemetry lands under (callers nest
/// [`run_label`] themselves).
fn simulate(
    hierarchy: &HierarchyConfig,
    config: &EvalConfig,
    obs: &Obs,
    design: MemoryDesign,
    suite: Suite,
    recording: Option<&[CoreRecording]>,
) -> SimResult {
    let trace = obs.tracer();
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
    let observed = |mut node: NodeSim| {
        if let Some(scope) = obs.scope() {
            node.attach_telemetry(scope);
        }
        if let Some(t) = trace {
            node.attach_trace(t);
        }
        node
    };
    let result = match recording {
        Some(recordings) => {
            observed(NodeSim::for_replay(*hierarchy, modes, mirror)).replay(recordings)
        }
        None => {
            let l3s = warm_l3s(hierarchy, config, suite);
            observed(NodeSim::with_l3s(*hierarchy, modes, mirror, l3s))
                .run(core_streams(hierarchy, config, suite))
        }
    };
    if let (Some(t), Some(span)) = (trace, span) {
        t.end_with(
            span,
            result.exec_time_ps,
            vec![kv("instructions", result.instructions)],
        );
    }
    result
}

/// A shared-cache key: the content fingerprint of everything that
/// determines a run's outcome (hierarchy and eval config, hashed) plus
/// the design and suite, kept exact.
type SharedKey = (u64, MemoryDesign, Suite);

/// A cached run: the simulation result plus everything the miss
/// observed, which a hit absorbs in its place.
type SharedEntry = (SimResult, ObsSnapshot);

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
    for w in [config.ops_per_core as u64, config.seed] {
        h = (h ^ w).wrapping_mul(PRIME);
    }
    h
}

/// Whether `snap` carries every sink `obs` observes (an engine observes
/// at most metrics and trace), so absorbing it records everything a
/// fresh run would.
fn covers(snap: &ObsSnapshot, obs: &Obs) -> bool {
    (obs.scope().is_none() || snap.metrics.is_some())
        && (obs.tracer().is_none() || snap.trace.is_some())
}

/// The evaluation engine for one hierarchy, with run memoization.
#[derive(Debug)]
pub struct NodeModel {
    hierarchy: HierarchyConfig,
    config: EvalConfig,
    cache: RefCell<HashMap<(MemoryDesign, Suite), SimResult>>,
    obs: Obs,
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
            obs: Obs::default(),
            fingerprint,
            shared: true,
        }
    }

    /// Opts this engine in or out of the process-wide result cache
    /// (on by default; benchmarks opt out to measure real simulation
    /// cost, and tests opt out for a cache-off reference). Output is
    /// the same either way.
    pub fn set_shared_cache(&mut self, shared: bool) {
        self.shared = shared;
    }

    /// Routes simulator telemetry into `scope`: every (design, suite)
    /// run this engine resolves, simulated or a shared-cache hit,
    /// records under `<scope>.<design>.<suite>`. Engine-local repeats
    /// record nothing, so each configuration contributes exactly one
    /// run's worth of counts no matter how many figures consult it.
    pub fn set_metrics_scope(&mut self, scope: Scope) {
        self.obs.set_metrics(scope);
    }

    /// Routes causal trace spans into `tracer`: every run this engine
    /// resolves, simulated or a shared-cache hit, records a
    /// `sim.<design>.<suite>` span on the simulation clock with the
    /// simulator's own spans nested inside. Engine-local repeats record
    /// nothing, mirroring the metrics contract.
    pub fn set_trace(&mut self, tracer: &Tracer) {
        self.obs.set_tracer(tracer.clone());
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

    /// A shared-cache entry usable by this engine: one that carries
    /// every sink the engine observes. The entry is cloned out of the
    /// process-wide lock, so the caller absorbs it without holding it.
    fn shared_lookup(&self, design: MemoryDesign, suite: Suite) -> Option<SharedEntry> {
        if !self.shared {
            return None;
        }
        let cache = shared_cache().lock().unwrap();
        let entry = cache.get(&(self.fingerprint, design, suite))?;
        if !covers(&entry.1, &self.obs) {
            return None;
        }
        SHARED_HITS.fetch_add(1, Ordering::Relaxed);
        Some(entry.clone())
    }

    /// Publishes a miss to the shared cache unless an entry this engine
    /// could have used is already there: a miss replaces an entry that
    /// lacks a sink it carries.
    fn shared_publish(&self, design: MemoryDesign, suite: Suite, entry: &SharedEntry) {
        if !self.shared {
            return;
        }
        let mut cache = shared_cache().lock().unwrap();
        let key = (self.fingerprint, design, suite);
        if !cache.get(&key).is_some_and(|old| covers(&old.1, &self.obs)) {
            cache.insert(key, entry.clone());
        }
    }

    /// Runs every not-yet-memoized `(design, suite)` pair on the
    /// worker pool and fills the cache, so subsequent [`run`] calls
    /// are recalls. Misses are grouped by suite: a suite with two or
    /// more designs to run has its cache pass `record`ed once, and
    /// each of its designs is timed from that recording; a suite with
    /// one design runs it live, so nothing is recorded that only one
    /// design reads. Each simulation is single-threaded, seeded purely
    /// from the engine config, and observed through its own
    /// [`Obs::fork`] labelled by the pair. Shared-cache hits stand in
    /// for their simulations, and the engine absorbs every pair's
    /// snapshot in `pairs` order, so priming in parallel, with or
    /// without the shared cache, yields bit-identical results, metrics
    /// and traces to running the pairs one by one.
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
        let hits: Vec<Option<SharedEntry>> = missing
            .iter()
            .map(|&(design, suite)| self.shared_lookup(design, suite))
            .collect();
        let to_run: Vec<(MemoryDesign, Suite)> = missing
            .iter()
            .zip(&hits)
            .filter_map(|(&pair, hit)| hit.is_none().then_some(pair))
            .collect();
        // Misses grouped by suite, in order of first appearance.
        let mut groups: Vec<(Suite, Vec<MemoryDesign>)> = Vec::new();
        for &(design, suite) in &to_run {
            match groups.iter_mut().find(|(s, _)| *s == suite) {
                Some((_, designs)) => designs.push(design),
                None => groups.push((suite, vec![design])),
            }
        }
        if self.shared {
            SHARED_MISSES.fetch_add(to_run.len() as u64, Ordering::Relaxed);
        }
        let (hierarchy, config, obs) = (&self.hierarchy, &self.config, &self.obs);
        let mut runs: HashMap<(MemoryDesign, Suite), SharedEntry> = HashMap::new();
        for (suite, designs) in groups {
            let recording = (designs.len() > 1).then(|| record(hierarchy, config, suite));
            let recording = recording.as_deref();
            let entries = runner::parallel_map(designs.clone(), |_, design| {
                let worker = obs.fork();
                let run = worker.child(&run_label(design, suite));
                let result = simulate(hierarchy, config, &run, design, suite, recording);
                (result, worker.take())
            });
            runs.extend(designs.into_iter().map(|d| (d, suite)).zip(entries));
        }
        let mut cache = self.cache.borrow_mut();
        for ((design, suite), hit) in missing.into_iter().zip(hits) {
            let (result, snap) = hit.unwrap_or_else(|| {
                let entry = runs
                    .remove(&(design, suite))
                    .expect("one run per shared-cache miss");
                self.shared_publish(design, suite, &entry);
                entry
            });
            self.obs.absorb(snap);
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

    /// The runs [`normalized`](Self::normalized) consults, in its
    /// order: the baseline, then the effective design. `None` when the
    /// design fell back to the baseline, which needs no run. Figures
    /// [`prime`](Self::prime) these before tabulating.
    pub fn normalized_pairs(
        design: MemoryDesign,
        suite: Suite,
        bucket: UsageBucket,
    ) -> Option<[(MemoryDesign, Suite); 2]> {
        let effective = Self::effective_design(design, bucket);
        let fell_back = effective == MemoryDesign::CommercialBaseline
            && design != MemoryDesign::CommercialBaseline;
        (!fell_back).then_some([
            (MemoryDesign::CommercialBaseline, suite),
            (effective, suite),
        ])
    }

    /// Performance of `design` on `suite` in `bucket`, normalized to
    /// the Commercial Baseline (>1 is faster).
    pub fn normalized(&self, design: MemoryDesign, suite: Suite, bucket: UsageBucket) -> f64 {
        let Some([(baseline, _), (effective, _)]) = Self::normalized_pairs(design, suite, bucket)
        else {
            return 1.0;
        };
        let base = self.run(baseline, suite);
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

    /// DRAM energy of a run under `model`, priced from the run's
    /// bank-state residency tap and command counts: Figure 13 and the
    /// `energy`/`configurator` targets. Under Hetero-DMR the parked
    /// original-module ranks show up as simulated self-refresh time.
    pub fn energy(
        &self,
        design: MemoryDesign,
        suite: Suite,
        model: &ResidencyModel,
    ) -> ResidencyBreakdown {
        let r = self.run(design, suite);
        model.energy(&ResidencyInput {
            active_bank_ps: r.residency.active_bank_ps,
            precharged_bank_ps: r.residency.precharged_bank_ps(),
            refresh_bank_ps: r.residency.refresh_bank_ps,
            self_refresh_bank_ps: r.residency.self_refresh_bank_ps,
            banks_per_rank: self.hierarchy.memory.banks_per_rank as u32,
            activates: r.controller.activates,
            reads: r.controller.reads,
            writes: r.controller.writes,
            broadcast_extra_cells: r.controller.broadcast_extra_cells,
            refreshes: r.controller.refreshes,
        })
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
                ..EvalConfig::default()
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
    /// with the shared cache on and off, and all equal to the unshared
    /// engine's.
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
                    ..EvalConfig::default()
                },
            );
            shared_cache()
                .lock()
                .unwrap()
                .retain(|key, _| key.0 != m.fingerprint);
            m.set_shared_cache(shared);
            let registry = telemetry::Registry::new();
            m.set_metrics_scope(registry.scope("node"));
            let tracer = Tracer::new();
            m.set_trace(&tracer);
            if primed {
                m.prime(&pairs);
            }
            let results: Vec<SimResult> = pairs.iter().map(|&(d, s)| m.run(d, s)).collect();
            (results, registry.snapshot(), tracer.take())
        };
        let (plain, plain_metrics, plain_events) = observe(false, false);
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
            assert_eq!(
                events, plain_events,
                "shared={shared}: trace events vs unshared"
            );
        }
    }

    #[test]
    fn shared_cache_keys_on_eval_config() {
        let cfg = |seed| EvalConfig {
            ops_per_core: 3_000,
            seed,
            ..EvalConfig::default()
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

    /// The one cache contract: a second engine that hits the shared
    /// cache records exactly the trace events and metrics the first
    /// engine recorded when it missed, and a batch mixing hits and
    /// misses records what the cache-off engine records.
    #[test]
    fn shared_hit_records_exactly_what_the_miss_recorded() {
        use telemetry::trace::{check_nesting, Clock, Ph};
        let engine = |shared: bool| {
            // Private seed so this test owns its shared-cache entries.
            let mut m = NodeModel::new(
                HierarchyConfig::hierarchy1(),
                EvalConfig {
                    ops_per_core: 2_000,
                    seed: 0xACE5,
                    ..EvalConfig::default()
                },
            );
            m.set_shared_cache(shared);
            let registry = telemetry::Registry::new();
            m.set_metrics_scope(registry.scope("node"));
            let tracer = Tracer::new();
            m.set_trace(&tracer);
            (m, registry, tracer)
        };
        let pairs = [
            (MemoryDesign::CommercialBaseline, Suite::Hpcg),
            (MemoryDesign::ExploitFreqLat, Suite::Hpcg),
        ];
        let (first, missed_metrics, missed_tracer) = engine(true);
        shared_cache()
            .lock()
            .unwrap()
            .retain(|key, _| key.0 != first.fingerprint);
        first.prime(&pairs);
        let _ = first.run(pairs[0].0, pairs[0].1);
        let missed = missed_tracer.take();
        check_nesting(&missed).unwrap();
        let sims: Vec<_> = missed
            .iter()
            .filter(|e| e.name.starts_with("sim.") && e.ph == Ph::Span)
            .collect();
        assert_eq!(sims.len(), 2, "one sim span per primed pair");
        assert!(sims.iter().all(|e| e.clock == Clock::SimPs && e.end > 0));

        let (hits_before, _) = shared_cache_stats();
        let (second, hit_metrics, hit_tracer) = engine(true);
        second.prime(&pairs);
        let (hits_after, _) = shared_cache_stats();
        assert!(hits_after >= hits_before + 2, "expected two shared hits");
        assert_eq!(hit_tracer.take(), missed, "hit trace vs miss trace");
        assert_eq!(
            hit_metrics.snapshot(),
            missed_metrics.snapshot(),
            "hit metrics vs miss metrics"
        );

        // A fresh pair ahead of a cached one: the hit still lands in
        // `pairs` order, after the miss.
        let mixed = [
            (MemoryDesign::HeteroDmr { margin_mts: 800 }, Suite::Hpcg),
            pairs[1],
        ];
        let (third, mixed_metrics, mixed_tracer) = engine(true);
        third.prime(&mixed);
        let (off, off_metrics, off_tracer) = engine(false);
        off.prime(&mixed);
        assert_eq!(mixed_tracer.take(), off_tracer.take(), "mixed batch trace");
        assert_eq!(
            mixed_metrics.snapshot(),
            off_metrics.snapshot(),
            "mixed batch metrics"
        );
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
            let config = EvalConfig {
                ops_per_core: 4_000,
                seed: 100,
                ..EvalConfig::default()
            };
            let l3s = warm_l3s(&h, &config, Suite::Hpcg);
            let modes = vec![mode; h.memory.channels];
            let mut node = NodeSim::with_l3s(h, modes, false, l3s);
            node.run(core_streams(&h, &config, Suite::Hpcg))
                .exec_time_ps
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
                ..EvalConfig::default()
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
        let epi = |design| {
            let r = m.run(design, Suite::Hpcg);
            let dram = m.energy(design, Suite::Hpcg, &ResidencyModel::ddr4_3200());
            let cpu = energy::CpuPowerParams::default()
                .energy_j(energy::ps_to_s(r.exec_time_ps), r.instructions);
            (dram.total_j() + cpu) / r.instructions as f64
        };
        let base = epi(MemoryDesign::CommercialBaseline);
        let hdmr = epi(MemoryDesign::HeteroDmr { margin_mts: 800 });
        assert!(hdmr < base, "EPI should improve: {hdmr} vs {base}");
    }
}
