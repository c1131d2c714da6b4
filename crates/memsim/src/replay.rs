//! Where a node run's per-core operations come from: filter once, time
//! many.
//!
//! A core's caches see only its own op stream (L1 and L2 are private,
//! the L3 is a per-core partition, and the prefetcher trains on the
//! access stream), and nothing the timing model does feeds back into
//! them. So a core's cache pass yields the same [`Filtered`] ops under
//! every memory design. [`NodeSim`](crate::NodeSim) times ops from a
//! [`CoreSource`]: either a [`LiveCore`], which runs an access stream
//! through the core's caches as the node steps, or a [`ReplayCore`],
//! which reads back a [`CoreRecording`] of such a pass. One recording
//! serves any number of designs, the way trace-driven DRAM simulators
//! time LLC-filtered traces.

use crate::core::{CacheOutcome, CoreSim, Traffic};
use crate::trace::AccessStream;

/// One operation as the timing model consumes it: the compute gap
/// before it, what the core's caches made of it, and the traffic it
/// sends past the LLC in issue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filtered<'a> {
    /// Non-memory instructions executed since the previous operation.
    pub gap_instructions: u32,
    /// The demand access's outcome.
    pub cache: CacheOutcome,
    /// Writebacks and prefetch reads, in the order the node issues
    /// them (see [`CoreSim::filter`]).
    pub traffic: &'a [Traffic],
}

/// A core's supply of [`Filtered`] operations.
pub trait CoreSource {
    /// The next operation, or `None` when the core's stream is done.
    fn next_filtered(&mut self) -> Option<Filtered<'_>>;

    /// `(hits, misses)` of the demand accesses so far.
    fn cache_counts(&self) -> (u64, u64);
}

/// An access stream run through a core's caches as the node steps.
#[derive(Debug)]
pub struct LiveCore<S> {
    stream: S,
    core: CoreSim,
    traffic: Vec<Traffic>,
}

impl<S> LiveCore<S> {
    /// Feeds `stream` through `core`'s caches.
    pub(crate) fn new(stream: S, core: CoreSim) -> LiveCore<S> {
        LiveCore {
            stream,
            core,
            traffic: Vec::new(),
        }
    }
}

impl<S: AccessStream> CoreSource for LiveCore<S> {
    fn next_filtered(&mut self) -> Option<Filtered<'_>> {
        let op = self.stream.next_op()?;
        self.traffic.clear();
        let cache = self.core.filter(&op, &mut self.traffic);
        Some(Filtered {
            gap_instructions: op.gap_instructions,
            cache,
            traffic: &self.traffic,
        })
    }

    fn cache_counts(&self) -> (u64, u64) {
        (self.core.cache_hits, self.core.cache_misses)
    }
}

/// One recorded op: its gap, its outcome's flags and how many traffic
/// entries it owns. The demand-miss block and the traffic live in the
/// recording's side arrays, in op order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordedOp {
    gap_instructions: u32,
    traffic: u16,
    flags: u8,
}

const STORE: u8 = 1;
const L3_HIT: u8 = 2;
const MISS: u8 = 4;

/// One core's whole cache pass, recorded: every op's gap, load or
/// store, demand-miss block or L3 hit, and traffic in issue order, plus
/// the final hit and miss counts. Replays through
/// [`NodeSim::begin_replay`](crate::NodeSim::begin_replay) under any
/// number of memory designs.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CoreRecording {
    ops: Vec<RecordedOp>,
    misses: Vec<u64>,
    traffic: Vec<Traffic>,
    cache_hits: u64,
    cache_misses: u64,
}

impl CoreRecording {
    /// Runs `stream` to its end through `core`'s caches, recording what
    /// a [`LiveCore`] over the same core and stream would hand the
    /// node.
    pub fn capture<S: AccessStream>(mut core: CoreSim, mut stream: S) -> CoreRecording {
        let mut rec = CoreRecording::default();
        while let Some(op) = stream.next_op() {
            let before = rec.traffic.len();
            let cache = core.filter(&op, &mut rec.traffic);
            let traffic = u16::try_from(rec.traffic.len() - before)
                .expect("an op's traffic fits the recording's u16 count");
            let mut flags = 0;
            if !cache.is_load {
                flags |= STORE;
            }
            if cache.l3_hit {
                flags |= L3_HIT;
            }
            if let Some(block) = cache.demand_miss {
                flags |= MISS;
                rec.misses.push(block);
            }
            rec.ops.push(RecordedOp {
                gap_instructions: op.gap_instructions,
                traffic,
                flags,
            });
        }
        rec.cache_hits = core.cache_hits;
        rec.cache_misses = core.cache_misses;
        rec
    }

    /// A fresh read-back of the recording.
    pub fn replay(&self) -> ReplayCore<'_> {
        ReplayCore {
            rec: self,
            op: 0,
            miss: 0,
            traffic: 0,
        }
    }
}

/// A read-back position in a [`CoreRecording`].
#[derive(Debug)]
pub struct ReplayCore<'a> {
    rec: &'a CoreRecording,
    op: usize,
    miss: usize,
    traffic: usize,
}

impl CoreSource for ReplayCore<'_> {
    fn next_filtered(&mut self) -> Option<Filtered<'_>> {
        let op = *self.rec.ops.get(self.op)?;
        self.op += 1;
        let demand_miss = (op.flags & MISS != 0).then(|| {
            self.miss += 1;
            self.rec.misses[self.miss - 1]
        });
        let start = self.traffic;
        self.traffic += usize::from(op.traffic);
        Some(Filtered {
            gap_instructions: op.gap_instructions,
            cache: CacheOutcome {
                demand_miss,
                is_load: op.flags & STORE == 0,
                l3_hit: op.flags & L3_HIT != 0,
            },
            traffic: &self.rec.traffic[start..self.traffic],
        })
    }

    fn cache_counts(&self) -> (u64, u64) {
        (self.rec.cache_hits, self.rec.cache_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::trace::MemOp;

    fn small_core() -> CoreSim {
        let config = CoreConfig {
            l1_bytes: 128,
            l1_ways: 2,
            l2_bytes: 256,
            l2_ways: 2,
            ..CoreConfig::default()
        };
        CoreSim::new(config, 2048)
    }

    fn ops() -> Vec<MemOp> {
        (0..400u64)
            .map(|i| {
                let addr = (i * 13 % 151) * 64;
                if i % 4 == 0 {
                    MemOp::store(addr, (i % 9) as u32)
                } else {
                    MemOp::load(addr, (i % 5) as u32)
                }
            })
            .collect()
    }

    /// One op with its traffic owned.
    type Owned = (u32, CacheOutcome, Vec<Traffic>);

    /// Drains a source into owned ops, plus its final hit/miss counts.
    fn collect<S: CoreSource>(mut source: S) -> (Vec<Owned>, (u64, u64)) {
        let mut out = Vec::new();
        while let Some(f) = source.next_filtered() {
            out.push((f.gap_instructions, f.cache, f.traffic.to_vec()));
        }
        (out, source.cache_counts())
    }

    #[test]
    fn replay_yields_exactly_what_the_live_core_yields() {
        let (live, live_counts) = collect(LiveCore::new(ops().into_iter(), small_core()));
        let rec = CoreRecording::capture(small_core(), ops().into_iter());
        let (replayed, counts) = collect(rec.replay());
        assert_eq!(replayed, live);
        assert_eq!(counts, live_counts);
        assert!(live.iter().any(|(_, c, _)| c.demand_miss.is_some()));
        assert!(live.iter().any(|(_, c, _)| !c.is_load));
        let traffic = || live.iter().flat_map(|o| &o.2);
        assert!(traffic().any(|t| matches!(t, Traffic::Writeback(_))));
        assert!(traffic().any(|t| matches!(t, Traffic::Prefetch(_))));
    }

    #[test]
    fn empty_stream_records_nothing() {
        let rec = CoreRecording::capture(small_core(), std::iter::empty::<MemOp>());
        assert_eq!(rec, CoreRecording::default());
        assert_eq!(collect(rec.replay()), (Vec::new(), (0, 0)));
    }
}
