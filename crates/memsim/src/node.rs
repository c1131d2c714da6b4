//! The full simulated node: cores, caches, and channels.

use crate::address::AddressMapping;
use crate::cache::Cache;
use crate::config::{ChannelMode, HierarchyConfig, L3_WAYS};
use crate::controller::ChannelController;
use crate::core::{CoreSim, CoreTiming, LoadHandle, Traffic};
use crate::replay::{CoreRecording, CoreSource, Filtered, LiveCore};
use crate::result::SimResult;
use crate::trace::AccessStream;
use crate::wbcache::WritebackCache;
use dram::Picos;
use telemetry::trace::{kv, Clock, Tracer};
use telemetry::{Obs, Scope};

/// Latency of a load serviced by the victim writeback cache (it sits
/// next to the memory controller, past the LLC).
const WB_CACHE_HIT_PS: Picos = ns_to_ps_const(15);

const fn ns_to_ps_const(ns: u64) -> Picos {
    ns * 1_000
}

/// A multi-core node with per-channel memory controllers.
#[derive(Debug)]
pub struct NodeSim {
    hierarchy: HierarchyConfig,
    modes: Vec<ChannelMode>,
    mapping: AddressMapping,
    cores: Vec<CoreTiming>,
    /// Each core's caches, until [`run`](Self::run) hands them to the
    /// run's live sources. Empty on a node built by
    /// [`for_replay`](Self::for_replay).
    caches: Vec<CoreSim>,
    controllers: Vec<ChannelController>,
    /// Each channel's 128 KB 64-way victim writeback cache. Every
    /// evaluated design has one, the baseline included (Section IV-A
    /// adds it there for fairness).
    wbcaches: Vec<WritebackCache>,
    /// Mirror every write into the opposite half's channel (the naive
    /// channel-split DMR strawman of Section III-A: 100 % write
    /// bandwidth overhead).
    mirror_writes: bool,
    /// Plain-integer tallies of the current run, published once, at
    /// run end (no atomics in the step loop).
    tally: NodeTally,
    /// Metric scope (see [`NodeSim::observe`]): the node's tallies and
    /// each channel controller's publish here at run end.
    metrics: Option<Scope>,
    /// Causal trace sink (see [`NodeSim::observe`]): write-drain
    /// batches become simulation-time spans.
    trace: Option<Tracer>,
}

/// Node-level traffic tallies, above the per-channel controller view:
/// plain adds in the step loop, published in one batch after the final
/// drains (which they count).
#[derive(Debug, Default)]
struct NodeTally {
    ops: u64,
    demand_misses: u64,
    prefetch_reads: u64,
    writebacks: u64,
    drains: u64,
}

impl NodeSim {
    /// Builds a node with every core and channel in its initial state.
    pub fn new(hierarchy: HierarchyConfig, mode: ChannelMode) -> NodeSim {
        let modes = vec![mode; hierarchy.memory.channels];
        NodeSim::with_modes(hierarchy, modes, false)
    }

    /// Builds a node with an explicit per-channel mode vector —
    /// needed by the naive channel-split DMR baseline, which runs the
    /// copy-holding half of the channels fast and the original-holding
    /// half at specification. `mirror_writes` duplicates every write
    /// into the paired channel.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one mode per channel is supplied.
    pub fn with_modes(
        hierarchy: HierarchyConfig,
        modes: Vec<ChannelMode>,
        mirror_writes: bool,
    ) -> NodeSim {
        let l3s = (0..hierarchy.cores)
            .map(|_| Cache::new(hierarchy.l3_partition_bytes(), L3_WAYS))
            .collect();
        NodeSim::with_l3s(hierarchy, modes, mirror_writes, l3s)
    }

    /// Builds a node whose cores start from prepared L3 partitions, one
    /// per core in core order, such as partitions warmed outside the
    /// node. Everything else starts as in
    /// [`with_modes`](Self::with_modes), which calls this with empty
    /// partitions.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one mode per channel and one L3 of the
    /// hierarchy's partition size per core are supplied.
    pub fn with_l3s(
        hierarchy: HierarchyConfig,
        modes: Vec<ChannelMode>,
        mirror_writes: bool,
        l3s: Vec<Cache>,
    ) -> NodeSim {
        assert_eq!(l3s.len(), hierarchy.cores, "need exactly one L3 per core");
        assert!(
            l3s.iter()
                .all(|l3| l3.capacity_bytes() == hierarchy.l3_partition_bytes()),
            "every L3 must have the hierarchy's partition size"
        );
        let caches = l3s
            .into_iter()
            .map(|l3| CoreSim::with_l3(hierarchy.core, l3))
            .collect();
        NodeSim {
            caches,
            ..NodeSim::for_replay(hierarchy, modes, mirror_writes)
        }
    }

    /// Builds a node without caches: it times recorded cache passes
    /// ([`replay`](Self::replay), [`run_sources`](Self::run_sources))
    /// and cannot run access streams. Everything else starts as in
    /// [`with_modes`](Self::with_modes).
    ///
    /// # Panics
    ///
    /// Panics unless exactly one mode per channel is supplied.
    pub fn for_replay(
        hierarchy: HierarchyConfig,
        modes: Vec<ChannelMode>,
        mirror_writes: bool,
    ) -> NodeSim {
        assert_eq!(
            modes.len(),
            hierarchy.memory.channels,
            "need exactly one mode per channel"
        );
        let software_ranks = modes[0]
            .software_ranks
            .unwrap_or(hierarchy.memory.ranks_per_channel());
        let mapping = AddressMapping::new(
            hierarchy.memory.channels,
            software_ranks,
            hierarchy.memory.banks_per_rank,
        );
        let cores = (0..hierarchy.cores)
            .map(|_| CoreTiming::new(hierarchy.core))
            .collect();
        let controllers = modes
            .iter()
            .map(|&m| ChannelController::new(m, hierarchy.memory, hierarchy.core.page_timeout_ps()))
            .collect();
        let wbcaches = modes
            .iter()
            .map(|_| WritebackCache::paper_default())
            .collect();
        NodeSim {
            hierarchy,
            modes,
            mapping,
            cores,
            caches: Vec::new(),
            controllers,
            wbcaches,
            mirror_writes,
            tally: NodeTally::default(),
            metrics: None,
            trace: None,
        }
    }

    /// Observes the run through `obs`'s metric scope and tracer (a node
    /// records no series). At run end the node's tallies publish under
    /// the scope, and each channel controller's under
    /// `ch<N>.controller`. Every write-mode entry (victim-cache drain +
    /// batched writes) and final drain becomes a `write_drain.ch<N>`
    /// span on the simulation-picosecond clock, from entry until the
    /// channel resumes read mode, so traces are as deterministic as the
    /// simulation itself.
    pub fn observe(mut self, obs: &Obs) -> NodeSim {
        self.metrics = obs.scope().cloned();
        self.trace = obs.tracer().cloned();
        self
    }

    /// The hierarchy this node models.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// Warms core `core_idx`'s L3 partition with `(block, dirty)`
    /// pairs, so the run starts from a steady-state cache (full LLC,
    /// realistic writeback rate) the way the paper's warmed gem5
    /// checkpoints do. This is the per-block reference fill: each pair
    /// goes through [`Cache::prewarm`], where the node model warms its
    /// partitions in closed form with [`Cache::warm_run`].
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range core index, or on a node built by
    /// [`for_replay`](Self::for_replay).
    pub fn prewarm_core<I: IntoIterator<Item = (u64, bool)>>(
        &mut self,
        core_idx: usize,
        blocks: I,
    ) {
        for (block, dirty) in blocks {
            self.caches[core_idx].prewarm_l3(block, dirty);
        }
    }

    /// The L3 partition capacity in 64-byte blocks (how many warmup
    /// blocks fill a core's partition).
    pub fn l3_blocks_per_core(&self) -> usize {
        self.hierarchy.l3_partition_bytes() / 64
    }

    /// Runs one access stream per core to completion and reports the
    /// merged results. Each stream is fed through its core's caches as
    /// the run steps (the caches move into the run, so a node runs
    /// streams once).
    ///
    /// # Panics
    ///
    /// Panics unless exactly one stream per core is supplied, or when
    /// the node has no caches (built by [`for_replay`](Self::for_replay)
    /// or already run).
    pub fn run<S: AccessStream>(&mut self, streams: Vec<S>) -> SimResult {
        assert_eq!(
            streams.len(),
            self.cores.len(),
            "need exactly one access stream per core"
        );
        assert_eq!(
            self.caches.len(),
            self.cores.len(),
            "a node runs streams through its own caches, once"
        );
        let caches = std::mem::take(&mut self.caches);
        self.run_sources(
            streams
                .into_iter()
                .zip(caches)
                .map(|(s, c)| LiveCore::new(s, c))
                .collect(),
        )
    }

    /// Times one recorded cache pass per core (see
    /// [`CoreRecording::capture`]) to completion: exactly the result,
    /// telemetry and trace of [`run`](Self::run) over the streams and
    /// caches the recordings were captured from.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one recording per core is supplied.
    pub fn replay(&mut self, recordings: &[CoreRecording]) -> SimResult {
        self.run_sources(recordings.iter().map(CoreRecording::replay).collect())
    }

    /// Times one [`CoreSource`] per core until every source runs dry,
    /// then drains and assembles the result: the one run loop under
    /// [`run`](Self::run) and [`replay`](Self::replay).
    ///
    /// The scheduler always steps the core that is furthest behind
    /// (ties to the lowest index), like the classic per-op
    /// `min_by_key` loop — but between full scans it *runs ahead* on
    /// the picked core for as long as that core remains the argmin
    /// against the cached second-minimum, which only one step in the
    /// old loop could ever change anyway. One scan therefore covers a
    /// whole burst of steps on the lagging core.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one source per core is supplied.
    pub fn run_sources<S: CoreSource>(&mut self, mut sources: Vec<S>) -> SimResult {
        assert_eq!(
            sources.len(),
            self.cores.len(),
            "need exactly one source per core"
        );
        // Per-core clock mirror; `Picos::MAX` marks an exhausted source.
        let mut nows: Vec<Picos> = self.cores.iter().map(|c| c.now).collect();
        let mut remaining = sources.len();
        while remaining > 0 {
            // One scan: minimum and second-minimum (now, index), both
            // with first-occurrence (lowest index) tie-breaks.
            let mut min_idx = usize::MAX;
            let mut min_now = Picos::MAX;
            let mut snd_idx = usize::MAX;
            let mut snd_now = Picos::MAX;
            for (i, &t) in nows.iter().enumerate() {
                if t < min_now {
                    snd_now = min_now;
                    snd_idx = min_idx;
                    min_now = t;
                    min_idx = i;
                } else if t < snd_now {
                    snd_now = t;
                    snd_idx = i;
                }
            }
            let core_idx = min_idx;
            loop {
                match sources[core_idx].next_filtered() {
                    Some(op) => {
                        self.step(core_idx, op);
                        let t = self.cores[core_idx].now;
                        nows[core_idx] = t;
                        // Still the argmin? (Strictly ahead of the
                        // runner-up, or tied with a lower index.)
                        if t > snd_now || (t == snd_now && core_idx > snd_idx) {
                            break;
                        }
                    }
                    None => {
                        nows[core_idx] = Picos::MAX;
                        remaining -= 1;
                        break;
                    }
                }
            }
        }
        let cache_counts = sources
            .iter()
            .map(CoreSource::cache_counts)
            .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm));
        self.finish(cache_counts)
    }

    /// Times one filtered memory operation on one core.
    fn step(&mut self, core_idx: usize, op: Filtered<'_>) {
        self.tally.ops += 1;
        let controllers = &mut self.controllers;
        let core = &mut self.cores[core_idx];
        let issue_t = core.advance_to_issue(op.gap_instructions, |handle| match handle {
            LoadHandle::Ready(t) => t,
            LoadHandle::Queued { channel, token } => controllers[channel].resolve_read(token),
        });
        let l3_lat = core.l3_latency_ps();

        for &traffic in op.traffic {
            match traffic {
                Traffic::Writeback(block) => self.handle_writeback(block),
                Traffic::Prefetch(block) => {
                    let coord = self.mapping.map(block << 6);
                    // Prefetch traffic consumes DRAM bandwidth but never
                    // stalls the core.
                    self.tally.prefetch_reads += 1;
                    let _ =
                        self.controllers[coord.channel].submit_read(coord, issue_t + l3_lat, false);
                }
            }
        }

        let outcome = op.cache;
        if let Some(block) = outcome.demand_miss {
            self.tally.demand_misses += 1;
            let coord = self.mapping.map(block << 6);
            let arrival = issue_t + l3_lat;
            if self.wbcaches[coord.channel].read_hit(block) {
                self.controllers[coord.channel].note_wb_cache_hit();
                if outcome.is_load {
                    self.cores[core_idx].track_load(LoadHandle::Ready(arrival + WB_CACHE_HIT_PS));
                }
            } else {
                let tracked = outcome.is_load;
                let token = self.controllers[coord.channel].submit_read(coord, arrival, tracked);
                if tracked {
                    self.cores[core_idx].track_load(LoadHandle::Queued {
                        channel: coord.channel,
                        token,
                    });
                }
            }
        } else if outcome.l3_hit && outcome.is_load {
            self.cores[core_idx].track_load(LoadHandle::Ready(issue_t + l3_lat));
        }

        self.maybe_enter_write_mode(core_idx);
    }

    /// Routes an LLC writeback toward its channel: into the victim
    /// writeback cache when there is room, else the write queue.
    fn handle_writeback(&mut self, block: u64) {
        self.tally.writebacks += 1;
        let coord = self.mapping.map(block << 6);
        self.push_write(coord.channel, block, coord);
        if self.mirror_writes && self.controllers.len() > 1 {
            // Naive channel-split DMR: the copy lives in the paired
            // channel and must be written separately (100 % write
            // bandwidth overhead).
            let pair = (coord.channel + self.controllers.len() / 2) % self.controllers.len();
            let mut mirrored = coord;
            mirrored.channel = pair;
            self.push_write(pair, block, mirrored);
        }
    }

    fn push_write(&mut self, channel: usize, block: u64, coord: crate::address::DramCoord) {
        if !self.wbcaches[channel].offer(block) {
            self.controllers[channel].enqueue_write(coord);
        }
    }

    /// Checks the write-mode trigger: pending writes (write queue plus
    /// victim writeback cache) reaching the batch watermark.
    fn maybe_enter_write_mode(&mut self, core_idx: usize) {
        let now = self.cores[core_idx].now;
        for ch in 0..self.controllers.len() {
            let pending = self.controllers[ch].pending_writes() + self.wbcaches[ch].len();
            if pending >= self.modes[ch].write_high_watermark {
                self.enter_write_mode(ch, now);
            }
        }
    }

    /// End-of-run drain: writes still pending must complete.
    fn final_drain(&mut self, ch: usize, now: Picos) -> Picos {
        self.drain_channel(ch, now, false)
    }

    /// Performs a write-mode entry on channel `ch`: drain the victim
    /// writeback cache and batch-write. Returns when the channel is
    /// back in read mode.
    fn enter_write_mode(&mut self, ch: usize, now: Picos) -> Picos {
        self.drain_channel(ch, now, true)
    }

    /// Drains channel `ch`'s pending writes from `now`. `entry` marks a
    /// write-mode entry (the Hetero-DMR cleaning point) as opposed to
    /// the end-of-run drain; the span records it as `clean_llc`.
    fn drain_channel(&mut self, ch: usize, now: Picos, entry: bool) -> Picos {
        self.tally.drains += 1;
        let pending_at_entry = self.controllers[ch].pending_writes() + self.wbcaches[ch].len();
        // The drained victim-cache blocks feed straight into the
        // (order-insensitive) write queue the drain below serves.
        let mapping = &self.mapping;
        let controller = &mut self.controllers[ch];
        self.wbcaches[ch].drain_with(|block| controller.enqueue_write(mapping.map(block << 6)));
        let resume = self.controllers[ch].drain_writes(now);
        if let Some(tracer) = &self.trace {
            // The span covers write mode: read mode is re-entered at
            // `resume` (the span's close is the read-mode entry edge).
            tracer.complete(
                format!("write_drain.ch{ch}"),
                "memsim",
                Clock::SimPs,
                now,
                resume,
                vec![kv("pending", pending_at_entry), kv("clean_llc", entry)],
            );
        }
        resume
    }

    /// Final drain of all pending writes and outstanding loads, then
    /// result assembly from the sources' `(hits, misses)` totals. The
    /// drain's duration counts toward execution time — the benchmark
    /// is not done until its writebacks are. The run's tallies publish
    /// here, once every channel is drained and its residency closed.
    fn finish(&mut self, (cache_hits, cache_misses): (u64, u64)) -> SimResult {
        let now = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        let mut drained_until = now;
        for ch in 0..self.controllers.len() {
            drained_until = drained_until.max(self.final_drain(ch, now));
        }
        let controllers = &mut self.controllers;
        for core in &mut self.cores {
            core.drain(|handle| match handle {
                LoadHandle::Ready(t) => t,
                LoadHandle::Queued { channel, token } => controllers[channel].resolve_read(token),
            });
        }

        let mean_core = if self.cores.is_empty() {
            0
        } else {
            self.cores.iter().map(|c| c.now).sum::<Picos>() / self.cores.len() as Picos
        };
        let max_core = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        // The final drain runs after the last core stops; charge its
        // duration on top of the mean completion time.
        let drain_extra = drained_until.saturating_sub(now.max(max_core));
        let mut result = SimResult {
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            exec_time_ps: mean_core + drain_extra,
            slowest_core_ps: max_core.max(drained_until),
            channels: self.controllers.len(),
            modules_per_channel: self.hierarchy.memory.modules_per_channel,
            read_rate: self.modes[0].read_timing.data_rate,
            cache_hits,
            cache_misses,
            ..SimResult::default()
        };
        // Close the residency books at the run horizon (idempotent;
        // parked ranks get their self-refresh time here) and merge the
        // per-channel residencies.
        let horizon = result.slowest_core_ps;
        for ctrl in &mut self.controllers {
            let res = ctrl.finalize_residency(horizon);
            result.residency.merge(&res);
        }
        for ctrl in &self.controllers {
            let s = ctrl.stats();
            result.controller.reads += s.reads;
            result.controller.writes += s.writes;
            result.controller.activates += s.activates;
            result.controller.row_hits += s.row_hits;
            result.controller.write_mode_entries += s.write_mode_entries;
            result.controller.bus_busy_ps += s.bus_busy_ps;
            result.controller.read_latency_sum_ps += s.read_latency_sum_ps;
            result.controller.refreshes += s.refreshes;
            result.controller.broadcast_extra_cells += s.broadcast_extra_cells;
            // Serviced-from-writeback-cache reads are tallied on the
            // channel's controller metrics at serve time (see `step`),
            // so they come through `s` like everything else.
            result.controller.wb_cache_hits += s.wb_cache_hits;
        }
        if let Some(scope) = &self.metrics {
            let t = &self.tally;
            for (name, value) in [
                ("ops", t.ops),
                ("demand_misses", t.demand_misses),
                ("prefetch_reads", t.prefetch_reads),
                ("writebacks", t.writebacks),
                ("drains", t.drains),
            ] {
                scope.counter(name).add(value);
            }
            for (i, ctrl) in self.controllers.iter().enumerate() {
                ctrl.publish(&scope.scope(&format!("ch{i}.controller")));
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemOp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A synthetic stream: mixed streaming/random accesses over a
    /// footprint, fixed read/write mix.
    fn stream(seed: u64, ops: usize, footprint_blocks: u64) -> Vec<MemOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(ops);
        let mut cursor = 0u64;
        for _ in 0..ops {
            let addr = if rng.random_bool(0.7) {
                cursor = (cursor + 1) % footprint_blocks;
                cursor * 64
            } else {
                rng.random_range(0..footprint_blocks) * 64
            };
            let is_write = rng.random_bool(0.2);
            let gap = rng.random_range(5..40);
            out.push(if is_write {
                MemOp::store(addr, gap)
            } else {
                MemOp::load(addr, gap)
            });
        }
        out
    }

    /// A hierarchy with shrunken caches so short test streams generate
    /// real DRAM traffic (evictions, writebacks, write modes).
    fn small(mut h: HierarchyConfig) -> HierarchyConfig {
        h.core.l1_bytes = 4 * 1024;
        h.core.l2_bytes = 16 * 1024;
        h.cache_per_core_bytes = 48 * 1024; // less the L2: a 32 KB L3 partition
        h
    }

    fn run(mode: ChannelMode, hierarchy: HierarchyConfig, ops: usize) -> SimResult {
        let mut node = NodeSim::new(small(hierarchy), mode);
        let streams: Vec<_> = (0..hierarchy.cores)
            .map(|i| stream(1000 + i as u64, ops, 1 << 13).into_iter())
            .collect();
        node.run(streams)
    }

    /// An observer that records metrics under `node` in `r`, and
    /// traces into `tracer` when one is given.
    fn observer(r: Option<&telemetry::Registry>, tracer: Option<&Tracer>) -> Obs {
        let mut obs = Obs::default();
        if let Some(r) = r {
            obs.set_metrics(r.scope("node"));
        }
        if let Some(t) = tracer {
            obs.set_tracer(t.clone());
        }
        obs
    }

    /// After an observed run, every `ControllerStats` field equals the
    /// corresponding registry counter, and the latency histogram
    /// agrees with the scalar sum.
    #[test]
    fn controller_stats_equal_registry_snapshot() {
        use crate::controller::ControllerStats;
        use telemetry::{MetricValue, Registry};

        let r = Registry::new();
        let h = small(HierarchyConfig::hierarchy1());
        let mut node =
            NodeSim::new(h, ChannelMode::commercial_baseline()).observe(&observer(Some(&r), None));
        let streams: Vec<_> = (0..h.cores)
            .map(|i| stream(7_000 + i as u64, 2_000, 1 << 13).into_iter())
            .collect();
        let result = node.run(streams);

        let snap = r.snapshot();
        let mut aggregate = ControllerStats::default();
        for (i, ctrl) in node.controllers.iter().enumerate() {
            let s = ctrl.stats();
            let c = |name: &str| snap.counter(&format!("node.ch{i}.controller.{name}"));
            assert_eq!(s.reads, c("reads"));
            assert_eq!(s.writes, c("writes"));
            assert_eq!(s.activates, c("activates"));
            assert_eq!(s.row_hits, c("row_hits"));
            assert_eq!(s.wb_cache_hits, c("wb_cache_hits"));
            assert_eq!(s.write_mode_entries, c("write_mode_entries"));
            assert_eq!(s.bus_busy_ps, c("bus_busy_ps"));
            assert_eq!(s.read_latency_sum_ps, c("read_latency_sum_ps"));
            assert_eq!(s.refreshes, c("refreshes"));
            assert_eq!(s.broadcast_extra_cells, c("broadcast_extra_cells"));
            match snap.get(&format!("node.ch{i}.controller.read_latency_ps")) {
                Some(MetricValue::Histogram(hist)) => {
                    assert_eq!(hist.sum, s.read_latency_sum_ps);
                    assert_eq!(hist.count, s.reads);
                }
                other => panic!("missing latency histogram: {other:?}"),
            }
            aggregate.reads += s.reads;
            aggregate.writes += s.writes;
            aggregate.wb_cache_hits += s.wb_cache_hits;
        }
        assert!(aggregate.reads > 0, "test stream must hit DRAM");
        assert_eq!(result.controller.reads, aggregate.reads);
        assert_eq!(result.controller.writes, aggregate.writes);
        assert_eq!(result.controller.wb_cache_hits, aggregate.wb_cache_hits);
        assert_eq!(snap.counter("node.ops"), (h.cores * 2_000) as u64);
    }

    /// Every drain — write-mode entries during the run and the final
    /// drain of each channel — counts once in `drains` and traces one
    /// `write_drain.ch<N>` span.
    #[test]
    fn drains_count_every_traced_drain() {
        use telemetry::Registry;

        let r = Registry::new();
        let tracer = Tracer::new();
        let h = small(HierarchyConfig::hierarchy1());
        // A low watermark, so the channels also drain mid-run.
        let mut mode = ChannelMode::commercial_baseline();
        mode.write_high_watermark = 64;
        let mut node = NodeSim::new(h, mode).observe(&observer(Some(&r), Some(&tracer)));
        let streams: Vec<_> = (0..h.cores)
            .map(|i| stream(3_000 + i as u64, 3_000, 1 << 13).into_iter())
            .collect();
        let result = node.run(streams);
        let spans = tracer
            .take()
            .iter()
            .filter(|e| e.name.starts_with("write_drain.ch"))
            .count() as u64;
        assert_eq!(result.controller.write_mode_entries, spans);
        assert!(spans > h.memory.channels as u64, "no drain mid-run");
        assert_eq!(r.snapshot().counter("node.drains"), spans);
    }

    /// Every controller metric name is exported, zeros included, and
    /// the latency histogram counts every DRAM read.
    #[test]
    fn zero_valued_metrics_are_exported() {
        use telemetry::{MetricValue, Registry};

        let r = Registry::new();
        let h = small(HierarchyConfig::hierarchy1());
        let mut node =
            NodeSim::new(h, ChannelMode::commercial_baseline()).observe(&observer(Some(&r), None));
        let streams: Vec<_> = (0..h.cores)
            .map(|i| stream(5_000 + i as u64, 1_000, 1 << 13).into_iter())
            .collect();
        node.run(streams);
        let snap = r.snapshot();
        for name in ["broadcast_extra_cells", "residency_self_refresh_bank_ps"] {
            let name = format!("node.ch0.controller.{name}");
            assert_eq!(snap.get(&name), Some(&MetricValue::Counter(0)), "{name}");
        }
        let reads = snap.counter("node.ch0.controller.reads");
        assert!(reads > 0, "test stream must hit DRAM");
        match snap.get("node.ch0.controller.read_latency_ps") {
            Some(MetricValue::Histogram(hist)) => assert_eq!(hist.count, reads),
            other => panic!("missing latency histogram: {other:?}"),
        }
    }

    /// A node observed with a tracer only records its write drains.
    #[test]
    fn trace_only_node_records_drain_spans() {
        let tracer = Tracer::new();
        let h = small(HierarchyConfig::hierarchy1());
        let mut node = NodeSim::new(h, ChannelMode::commercial_baseline())
            .observe(&observer(None, Some(&tracer)));
        let streams: Vec<_> = (0..h.cores)
            .map(|i| stream(5_000 + i as u64, 1_000, 1 << 13).into_iter())
            .collect();
        node.run(streams);
        let events = tracer.take();
        assert!(!events.is_empty(), "the final drains trace");
        assert!(events.iter().all(|e| e.name.starts_with("write_drain.ch")));
    }

    #[test]
    fn runs_to_completion_with_sane_metrics() {
        let r = run(
            ChannelMode::commercial_baseline(),
            HierarchyConfig::hierarchy1(),
            3_000,
        );
        assert!(r.exec_time_ps > 0);
        assert!(r.instructions > 0);
        assert!(r.controller.reads > 0);
        assert!(r.controller.writes > 0, "writebacks must reach DRAM");
        assert!(r.cache_hit_rate() > 0.0 && r.cache_hit_rate() < 1.0);
    }

    #[test]
    fn faster_memory_is_faster_end_to_end() {
        let base = run(
            ChannelMode::commercial_baseline(),
            HierarchyConfig::hierarchy1(),
            4_000,
        );
        let fast_mode = ChannelMode::preset(dram::timing::MemorySetting::FreqLatMargin);
        let fast = run(fast_mode, HierarchyConfig::hierarchy1(), 4_000);
        let speedup = fast.speedup_over(&base);
        assert!(
            speedup > 1.0 && speedup < 1.5,
            "margin-exploiting run should win modestly, got {speedup}"
        );
    }

    #[test]
    fn hierarchy2_has_more_bandwidth() {
        let h1 = run(
            ChannelMode::commercial_baseline(),
            HierarchyConfig::hierarchy1(),
            2_000,
        );
        let h2 = run(
            ChannelMode::commercial_baseline(),
            HierarchyConfig::hierarchy2(),
            2_000,
        );
        // Per-channel pressure is lower on hierarchy2 (4 channels for
        // 2x the cores): bandwidth utilization per channel drops.
        assert!(h2.bandwidth_utilization() < h1.bandwidth_utilization() + 0.2);
        assert_eq!(h2.channels, 4);
    }

    #[test]
    fn writeback_cache_serves_read_hits() {
        let r = run(
            ChannelMode::commercial_baseline(),
            HierarchyConfig::hierarchy1(),
            6_000,
        );
        // With a read-after-write pattern present, some reads must hit
        // the victim cache across a long run. (Zero is possible for a
        // pure stream; our mix has 30% random re-references.)
        assert!(r.controller.wb_cache_hits < r.controller.reads);
    }

    #[test]
    #[should_panic(expected = "one access stream per core")]
    fn stream_count_must_match_cores() {
        let mut node = NodeSim::new(
            HierarchyConfig::hierarchy1(),
            ChannelMode::commercial_baseline(),
        );
        let _ = node.run(vec![stream(0, 10, 64).into_iter()]);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(
            ChannelMode::commercial_baseline(),
            HierarchyConfig::hierarchy1(),
            2_000,
        );
        let b = run(
            ChannelMode::commercial_baseline(),
            HierarchyConfig::hierarchy1(),
            2_000,
        );
        assert_eq!(a.exec_time_ps, b.exec_time_ps);
        assert_eq!(a.controller.reads, b.controller.reads);
    }
}
