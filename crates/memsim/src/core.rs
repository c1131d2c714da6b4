//! The per-core model, in two halves that a node run drives in turn.
//!
//! [`CoreSim`] is a core's cache side: private L1/L2, its CAT partition
//! of the L3, and the prefetcher. It turns each memory operation into a
//! [`CacheOutcome`] plus the [`Traffic`] the op sends past the LLC.
//! Nothing in it depends on time, so its pass over an op stream is the
//! same under every memory design and can be recorded once
//! ([`crate::replay::CoreRecording`]) and replayed under many.
//!
//! `CoreTiming` is the ROB/MSHR-limited out-of-order timing
//! approximation. The core retires up to `width` instructions per
//! cycle; loads that miss the whole hierarchy occupy an MSHR until DRAM
//! responds, and the core may run ahead of the oldest outstanding load
//! by at most the ROB capacity. L1/L2 hit latencies are assumed hidden
//! by the out-of-order window (they are 3–12 cycles against a 224-entry
//! ROB); L3 hits and DRAM accesses are the modelled stalls, which is the
//! regime the paper's experiments vary.

use crate::cache::Cache;
use crate::config::{CoreConfig, L3_WAYS};
use crate::prefetch::Prefetcher;
use crate::trace::MemOp;
use dram::{ns_to_ps, Picos};
use std::collections::VecDeque;

/// What a memory operation needs from the memory system after
/// traversing the core's caches. Writebacks and prefetches land in the
/// caller-provided scratch buffers of
/// [`access_caches`](CoreSim::access_caches) — the hot loop reuses
/// them instead of allocating per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// `Some(block)` when the access missed L1/L2/L3 and needs DRAM
    /// (demand load or store RFO).
    pub demand_miss: Option<u64>,
    /// Whether the demand miss came from a load (stalls the core via
    /// an MSHR entry) or a store (fire-and-forget RFO).
    pub is_load: bool,
    /// Whether the access hit in the L3 (adds L3 latency for loads).
    pub l3_hit: bool,
}

/// One request an op sends past the LLC besides its demand miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// A dirty L3 victim (64-byte block address) that must be written
    /// back to memory.
    Writeback(u64),
    /// A prefetch read of a block not yet cached (its fill already
    /// installed the block in L2/L3).
    Prefetch(u64),
}

/// An in-flight load: either its completion time is already known
/// (cache / writeback-cache hits) or it awaits FR-FCFS scheduling in a
/// channel's read queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadHandle {
    /// Completion time known at issue.
    Ready(Picos),
    /// Queued in channel `channel` under `token`.
    Queued {
        /// Channel whose controller holds the request.
        channel: usize,
        /// Resolution token from `submit_read`.
        token: u64,
    },
}

/// One simulated core's cache side: private L1/L2, the core's L3
/// partition and the prefetcher.
#[derive(Debug)]
pub struct CoreSim {
    l1: Cache,
    l2: Cache,
    /// This core's CAT partition of the L3.
    l3: Cache,
    prefetcher: Prefetcher,
    /// Demand accesses that hit somewhere in the hierarchy.
    pub cache_hits: u64,
    /// Demand accesses that missed everywhere.
    pub cache_misses: u64,
    /// Reusable writeback and prefetch buffers for
    /// [`filter`](Self::filter), so the per-op loop allocates nothing.
    scratch_writebacks: Vec<u64>,
    scratch_prefetches: Vec<u64>,
}

impl CoreSim {
    /// Creates a core with an empty L3 partition of the given size.
    pub fn new(config: CoreConfig, l3_partition_bytes: usize) -> CoreSim {
        CoreSim::with_l3(config, Cache::new(l3_partition_bytes, L3_WAYS))
    }

    /// Creates a core around a prepared L3 partition, such as one
    /// warmed in closed form with [`Cache::warm_run`]. L1, L2 and the
    /// prefetcher start empty.
    pub fn with_l3(config: CoreConfig, l3: Cache) -> CoreSim {
        CoreSim {
            l1: Cache::new(config.l1_bytes, config.l1_ways),
            l2: Cache::new(config.l2_bytes, config.l2_ways),
            l3,
            prefetcher: Prefetcher::new(config.prefetch_degree),
            cache_hits: 0,
            cache_misses: 0,
            scratch_writebacks: Vec::new(),
            scratch_prefetches: Vec::new(),
        }
    }

    /// Sends `op` through L1→L2→L3, returning what (if anything) must
    /// go to memory. Dirty L3 victims are appended to `writebacks` and
    /// prefetcher requests to `prefetches`; both buffers are cleared
    /// first, so callers just lend reusable scratch space.
    pub fn access_caches(
        &mut self,
        op: &MemOp,
        writebacks: &mut Vec<u64>,
        prefetches: &mut Vec<u64>,
    ) -> CacheOutcome {
        writebacks.clear();
        prefetches.clear();
        let addr = op.addr;

        let l1 = self.l1.access(addr, op.is_write);
        if let Some(victim) = l1.writeback {
            // L1 victim writes into L2.
            let r = self.l2.access(victim << 6, true);
            if let Some(v2) = r.writeback {
                let r3 = self.l3.access(v2 << 6, true);
                if let Some(v3) = r3.writeback {
                    writebacks.push(v3);
                }
            }
        }
        if l1.hit {
            self.cache_hits += 1;
            return CacheOutcome {
                demand_miss: None,
                is_load: !op.is_write,
                l3_hit: false,
            };
        }

        let l2 = self.l2.access(addr, false);
        if let Some(victim) = l2.writeback {
            let r3 = self.l3.access(victim << 6, true);
            if let Some(v3) = r3.writeback {
                writebacks.push(v3);
            }
        }
        if !l2.hit {
            // The prefetcher trains on the L2 miss stream.
            self.prefetcher.observe_into(op.block(), prefetches);
        }
        if l2.hit {
            self.cache_hits += 1;
            return CacheOutcome {
                demand_miss: None,
                is_load: !op.is_write,
                l3_hit: false,
            };
        }

        let l3 = self.l3.access(addr, false);
        if let Some(victim) = l3.writeback {
            writebacks.push(victim);
        }
        if l3.hit {
            self.cache_hits += 1;
            CacheOutcome {
                demand_miss: None,
                is_load: !op.is_write,
                l3_hit: true,
            }
        } else {
            self.cache_misses += 1;
            CacheOutcome {
                demand_miss: Some(op.block()),
                is_load: !op.is_write,
                l3_hit: false,
            }
        }
    }

    /// Installs a prefetched block into L2/L3, returning any dirty L3
    /// victim that must be written back to memory.
    pub fn install_prefetch(&mut self, block: u64) -> Option<u64> {
        if self.l2.contains(block << 6) || self.l3.contains(block << 6) {
            return None;
        }
        self.fill_prefetch(block)
    }

    /// Fills `block`, known to be in neither L2 nor L3, into L2, and
    /// L2's victim into L3; returns L3's dirty victim, if any.
    fn fill_prefetch(&mut self, block: u64) -> Option<u64> {
        self.l2
            .fill(block << 6)
            .and_then(|victim| self.l3.fill(victim << 6))
    }

    /// Whether a prefetch for `block` would actually fetch (not
    /// already cached).
    pub fn needs_prefetch(&self, block: u64) -> bool {
        !self.l2.contains(block << 6) && !self.l3.contains(block << 6)
    }

    /// The whole cache pass of one op: the demand access, then every
    /// prefetch it triggered that is not already cached, installed in
    /// turn. Appends the op's memory traffic to `traffic` in issue
    /// order: the access path's writebacks first, then for each needed
    /// prefetch its install victim's writeback (if any) and its read.
    pub fn filter(&mut self, op: &MemOp, traffic: &mut Vec<Traffic>) -> CacheOutcome {
        let mut writebacks = std::mem::take(&mut self.scratch_writebacks);
        let mut prefetches = std::mem::take(&mut self.scratch_prefetches);
        let outcome = self.access_caches(op, &mut writebacks, &mut prefetches);
        traffic.extend(writebacks.iter().map(|&block| Traffic::Writeback(block)));
        for &pf in &prefetches {
            // `needs_prefetch` has probed both levels, so fill without
            // `install_prefetch`'s second probe.
            if self.needs_prefetch(pf) {
                if let Some(victim) = self.fill_prefetch(pf) {
                    traffic.push(Traffic::Writeback(victim));
                }
                traffic.push(Traffic::Prefetch(pf));
            }
        }
        self.scratch_writebacks = writebacks;
        self.scratch_prefetches = prefetches;
        outcome
    }

    /// Warms the L3 partition with `block` (64-byte block address),
    /// optionally dirty — starting the simulation from steady state.
    pub fn prewarm_l3(&mut self, block: u64, dirty: bool) {
        self.l3.prewarm(block << 6, dirty);
    }
}

/// One simulated core's timing side: its clock, retired instructions
/// and the loads it waits on.
#[derive(Debug)]
pub(crate) struct CoreTiming {
    config: CoreConfig,
    /// Current core time.
    pub(crate) now: Picos,
    /// Retired instruction count.
    pub(crate) instructions: u64,
    /// Outstanding load misses: (handle, instruction index at issue).
    outstanding: VecDeque<(LoadHandle, u64)>,
    l3_latency_ps: Picos,
    instr_fp_ps: f64,
    /// Fractional instruction-time accumulator (sub-picosecond carry).
    time_carry: f64,
}

impl CoreTiming {
    /// A core at time 0 with nothing in flight.
    pub(crate) fn new(config: CoreConfig) -> CoreTiming {
        CoreTiming {
            now: 0,
            instructions: 0,
            outstanding: VecDeque::new(),
            l3_latency_ps: ns_to_ps(config.l3_latency_ns),
            instr_fp_ps: config.instr_ps(),
            time_carry: 0.0,
            config,
        }
    }

    /// The L3 latency this core pays on an LLC hit.
    pub(crate) fn l3_latency_ps(&self) -> Picos {
        self.l3_latency_ps
    }

    /// Advances core time over the `gap_instructions`-instruction
    /// compute gap preceding a memory operation (and the operation
    /// itself) and enforces ROB/MSHR limits against outstanding loads,
    /// resolving queued completions through `resolve`. Returns the time
    /// at which the memory operation issues.
    pub(crate) fn advance_to_issue<F>(&mut self, gap_instructions: u32, mut resolve: F) -> Picos
    where
        F: FnMut(LoadHandle) -> Picos,
    {
        let instrs = gap_instructions as u64 + 1;
        self.instructions += instrs;
        let exact = self.instr_fp_ps * instrs as f64 + self.time_carry;
        let whole = exact.floor();
        self.time_carry = exact - whole;
        self.now += whole as Picos;

        // Retire loads whose completion is already known. Queued
        // handles stay unresolved here — forcing them would flush the
        // controller's read queue and destroy FR-FCFS reordering depth;
        // they resolve when the MSHR/ROB limits actually bind.
        while let Some(&(LoadHandle::Ready(done), _)) = self.outstanding.front() {
            if done <= self.now {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
        // MSHR limit: block until the oldest load returns.
        while self.outstanding.len() >= self.config.mshrs as usize {
            let (handle, _) = self.outstanding.pop_front().expect("nonempty");
            self.now = self.now.max(resolve(handle));
        }
        // ROB limit: cannot run ahead of the oldest outstanding load by
        // more than the ROB capacity.
        while let Some(&(handle, issued_at_instr)) = self.outstanding.front() {
            if self.instructions - issued_at_instr > self.config.rob_entries as u64 {
                self.now = self.now.max(resolve(handle));
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
        self.now
    }

    /// Records a load that must wait for memory.
    pub(crate) fn track_load(&mut self, handle: LoadHandle) {
        self.outstanding.push_back((handle, self.instructions));
    }

    /// Drains all outstanding loads (end of simulation), advancing
    /// core time to the last completion.
    pub(crate) fn drain<F>(&mut self, mut resolve: F)
    where
        F: FnMut(LoadHandle) -> Picos,
    {
        while let Some((handle, _)) = self.outstanding.pop_front() {
            self.now = self.now.max(resolve(handle));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreSim {
        CoreSim::new(CoreConfig::default(), 2 * 1024 * 1024)
    }

    fn timing() -> CoreTiming {
        CoreTiming::new(CoreConfig::default())
    }

    fn ready(handle: LoadHandle) -> Picos {
        match handle {
            LoadHandle::Ready(t) => t,
            LoadHandle::Queued { .. } => unreachable!("tests use Ready handles"),
        }
    }

    /// Test shim for the scratch-buffer API: fresh buffers per call.
    fn access(c: &mut CoreSim, op: &MemOp) -> (CacheOutcome, Vec<u64>) {
        let mut writebacks = Vec::new();
        let mut prefetches = Vec::new();
        let out = c.access_caches(op, &mut writebacks, &mut prefetches);
        (out, writebacks)
    }

    #[test]
    fn compute_gap_advances_time() {
        let mut c = timing();
        let t0 = c.advance_to_issue(399, ready);
        // 400 instructions at 4-wide 3.1 GHz ≈ 100 cycles ≈ 32.3 ns.
        assert!((32_000..33_000).contains(&t0), "t0 {t0}");
        assert_eq!(c.instructions, 400);
    }

    #[test]
    fn first_access_misses_everywhere_second_hits() {
        let mut c = core();
        let op = MemOp::load(0x4000, 0);
        let (out, _) = access(&mut c, &op);
        assert_eq!(out.demand_miss, Some(0x100));
        let (out, _) = access(&mut c, &op);
        assert_eq!(out.demand_miss, None);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
    }

    #[test]
    fn mshr_limit_stalls_core() {
        let mut c = timing();
        let far_future = 1_000_000_000;
        for _ in 0..c.config.mshrs {
            c.track_load(LoadHandle::Ready(far_future));
        }
        // Next issue must wait for the oldest outstanding load.
        let t = c.advance_to_issue(0, ready);
        assert!(t >= far_future);
    }

    #[test]
    fn rob_limit_stalls_run_ahead() {
        let mut c = timing();
        let done_at = 500_000;
        c.advance_to_issue(0, ready);
        c.track_load(LoadHandle::Ready(done_at));
        // Run 300 instructions (> 224 ROB) past the outstanding load.
        let t = c.advance_to_issue(299, ready);
        assert!(
            t >= done_at,
            "ROB should have stalled to {done_at}, got {t}"
        );
        assert!(c.outstanding.is_empty());
    }

    #[test]
    fn under_rob_no_stall() {
        let mut c = timing();
        let done_at = 500_000;
        c.advance_to_issue(0, ready);
        c.track_load(LoadHandle::Ready(done_at));
        let t = c.advance_to_issue(50, ready);
        assert!(t < done_at, "51 instructions fit in the ROB window");
        assert_eq!(c.outstanding.len(), 1);
    }

    #[test]
    fn dirty_eviction_cascades_to_memory() {
        let mut c = CoreSim::new(
            CoreConfig {
                l1_bytes: 128,
                l1_ways: 2,
                l2_bytes: 256,
                l2_ways: 2,
                ..CoreConfig::default()
            },
            2048, // 2 sets × 16 ways
        );
        // Dirty a block, then stream enough distinct blocks to push it
        // out of the tiny L1 → L2 → L3.
        access(&mut c, &MemOp::store(0, 0));
        let mut writebacks = Vec::new();
        for i in 1..64u64 {
            let (_, wbs) = access(&mut c, &MemOp::load(i * 64, 0));
            writebacks.extend(wbs);
        }
        assert!(writebacks.contains(&0), "dirty block 0 reached memory");
    }

    #[test]
    fn prefetch_installs_and_deduplicates() {
        let mut c = core();
        assert!(c.needs_prefetch(0x900));
        c.install_prefetch(0x900);
        assert!(!c.needs_prefetch(0x900));
        // A later demand access to the prefetched block hits.
        let (out, _) = access(&mut c, &MemOp::load(0x900 << 6, 0));
        assert_eq!(out.demand_miss, None);
    }

    /// `filter` is `access_caches` plus the prefetch installs, with
    /// the traffic in issue order: the access path's writebacks, then
    /// each needed prefetch's install victim and read.
    #[test]
    fn filter_orders_writebacks_before_prefetches() {
        let config = CoreConfig {
            l1_bytes: 128,
            l1_ways: 2,
            l2_bytes: 256,
            l2_ways: 2,
            ..CoreConfig::default()
        };
        let (mut filtered, mut by_hand) = (CoreSim::new(config, 2048), CoreSim::new(config, 2048));
        let (mut traffic, mut expected) = (Vec::new(), Vec::new());
        let (mut writebacks, mut prefetches) = (Vec::new(), Vec::new());
        let mut saw_prefetch = false;
        for i in 0..256u64 {
            let op = if i % 3 == 0 {
                MemOp::store(i * 64, 0)
            } else {
                MemOp::load((i * 7 % 97) * 64, 0)
            };
            traffic.clear();
            let out = filtered.filter(&op, &mut traffic);
            expected.clear();
            let want = by_hand.access_caches(&op, &mut writebacks, &mut prefetches);
            expected.extend(writebacks.iter().map(|&b| Traffic::Writeback(b)));
            for &pf in &prefetches {
                if by_hand.needs_prefetch(pf) {
                    expected.extend(by_hand.install_prefetch(pf).map(Traffic::Writeback));
                    expected.push(Traffic::Prefetch(pf));
                    saw_prefetch = true;
                }
            }
            assert_eq!(out, want, "op {i}");
            assert_eq!(traffic, expected, "op {i}");
        }
        assert!(saw_prefetch, "the stream must trigger prefetches");
        assert_eq!(
            (filtered.cache_hits, filtered.cache_misses),
            (by_hand.cache_hits, by_hand.cache_misses)
        );
    }

    #[test]
    fn drain_advances_to_last_completion() {
        let mut c = timing();
        c.track_load(LoadHandle::Ready(42_000));
        c.track_load(LoadHandle::Ready(77_000));
        c.drain(ready);
        assert_eq!(c.now, 77_000);
        assert!(c.outstanding.is_empty());
    }
}
