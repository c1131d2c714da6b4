//! Boot-time margin profiling (Section III-E, "Determining Margins").
//!
//! Hetero-DMR borrows REAPER's idea of profiling memory at boot (and
//! re-profiling when idle) — but with a crucial difference the paper
//! stresses: the profile is consulted only for *performance*. If the
//! profile turns out optimistic (short profiling runs, a temperature
//! spike past the profiled point), the copies merely error more often
//! and recovery falls back on the always-in-spec originals;
//! correctness never depends on the profile being right.

use crate::monte_carlo::MarginGroups;
use dram::rate::DataRate;
use margin::composition::{channel_margin, node_margin, SelectionPolicy};
use margin::stress::{measure_margin, StressConfig, StressMeter};

/// One module as the profiler sees it: its labelled rate and (hidden)
/// true margin, which the stress procedure measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleUnderTest {
    /// Manufacturer-labelled data rate.
    pub specified: DataRate,
    /// Ground-truth margin in MT/s (what a perfect tester would find).
    pub true_margin_mts: u32,
}

/// The result of profiling one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    /// Measured margin per module, per channel (slot order).
    pub module_margins: Vec<Vec<u32>>,
    /// Usable margin per channel under margin-aware selection.
    pub channel_margins: Vec<u32>,
    /// Which module each channel should operate unsafely fast
    /// (the margin-aware pick).
    pub fast_module: Vec<usize>,
    /// The node's usable margin (minimum across channels).
    pub node_margin_mts: u32,
}

impl NodeProfile {
    /// The scheduler group this node lands in (800 / 600 / 0).
    pub fn group(&self) -> u32 {
        MarginGroups::group_of(self.node_margin_mts)
    }
}

/// The boot-time profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeProfiler {
    /// The stress-measurement procedure parameters.
    pub config: StressConfig,
}

impl NodeProfiler {
    /// Profiles a node: measures every module's margin with the
    /// stepping stress procedure and composes channel and node margins
    /// under margin-aware selection (Section III-D). With a `meter`,
    /// accounts the profiling effort (modules measured, rate steps
    /// stressed) on it.
    ///
    /// # Panics
    ///
    /// Panics if any channel is empty.
    pub fn profile(
        &self,
        channels: &[Vec<ModuleUnderTest>],
        meter: Option<&StressMeter>,
    ) -> NodeProfile {
        let measure = |m: &ModuleUnderTest| {
            measure_margin(m.specified, m.true_margin_mts, &self.config, meter)
        };
        let module_margins: Vec<Vec<u32>> = channels
            .iter()
            .map(|ch| {
                assert!(!ch.is_empty(), "channels must be populated");
                ch.iter().map(measure).collect()
            })
            .collect();
        let channel_margins: Vec<u32> = module_margins
            .iter()
            .map(|m| channel_margin(m, SelectionPolicy::MarginAware))
            .collect();
        let fast_module: Vec<usize> = module_margins
            .iter()
            .map(|m| {
                m.iter()
                    .enumerate()
                    .max_by_key(|&(_, &margin)| margin)
                    .map(|(i, _)| i)
                    .expect("nonempty channel")
            })
            .collect();
        NodeProfile {
            node_margin_mts: node_margin(&channel_margins),
            module_margins,
            channel_margins,
            fast_module,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(margin: u32) -> ModuleUnderTest {
        ModuleUnderTest {
            specified: DataRate::MT3200,
            true_margin_mts: margin,
        }
    }

    /// Two channels of two modules each.
    fn two_channels() -> [Vec<ModuleUnderTest>; 2] {
        [
            vec![module(650), module(900)],
            vec![module(850), module(700)],
        ]
    }

    #[test]
    fn profiles_a_two_channel_node() {
        let profiler = NodeProfiler::default();
        let profile = profiler.profile(&two_channels(), None);
        // Measured margins are quantized to 200 MT/s steps.
        assert_eq!(profile.module_margins, vec![vec![600, 800], vec![800, 600]]);
        assert_eq!(profile.channel_margins, vec![800, 800]);
        assert_eq!(profile.fast_module, vec![1, 0]);
        assert_eq!(profile.node_margin_mts, 800);
        assert_eq!(profile.group(), 800);
    }

    #[test]
    fn metered_profile_counts_modules_and_steps() {
        use telemetry::Registry;

        let mut meter = StressMeter::default();
        let r = Registry::new();
        meter.bind(&r.scope("profiler"));
        let profiler = NodeProfiler::default();
        let metered = profiler.profile(&two_channels(), Some(&meter));
        assert_eq!(metered, profiler.profile(&two_channels(), None));
        let snap = r.snapshot();
        assert_eq!(snap.counter("profiler.modules_profiled"), 4);
        assert_eq!(snap.counter("profiler.steps_tested"), meter.steps_tested());
        assert!(meter.steps_tested() >= 4, "every module takes steps");
    }

    #[test]
    fn slowest_channel_caps_the_node() {
        let profiler = NodeProfiler::default();
        let node = [
            vec![module(900), module(950)],
            vec![module(620), module(640)],
        ];
        let profile = profiler.profile(&node, None);
        assert_eq!(profile.node_margin_mts, 600);
        assert_eq!(profile.group(), 600);
    }

    #[test]
    fn marginless_node_lands_in_group_zero() {
        let profiler = NodeProfiler::default();
        let profile = profiler.profile(&[vec![module(150), module(180)]], None);
        assert_eq!(profile.node_margin_mts, 0);
        assert_eq!(profile.group(), 0);
    }

    #[test]
    fn cap_respects_the_testbed_limit() {
        let profiler = NodeProfiler::default();
        let profile = profiler.profile(&[vec![module(1_500)]], None);
        // The 4000 MT/s system cap truncates at 800 for 3200 modules.
        assert_eq!(profile.node_margin_mts, 800);
    }

    #[test]
    fn optimistic_profile_is_a_performance_bug_not_a_safety_bug() {
        // Profile says 800, but the module later degrades (e.g., a
        // thermal excursion): the protocol still returns correct data,
        // it just pays recovery costs — the Section III-E argument.
        use crate::protocol::HeteroDmrChannel;
        use ecc::ErrorModel;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let profiler = NodeProfiler::default();
        let profile = profiler.profile(&[vec![module(620), module(820)]], None);
        assert_eq!(profile.node_margin_mts, 800);

        // Operate per the (now stale) profile; every read errors.
        let mut rng = StdRng::seed_from_u64(8);
        let mut ch = HeteroDmrChannel::new(1 << 12);
        let mut t = ch.set_used_blocks(1 << 10, 0);
        for block in 0..20u64 {
            let (data, _, end) = ch
                .read(block, t, Some((&mut rng, ErrorModel::ByteBurst(8))))
                .unwrap();
            assert_eq!(data, [0u8; 64]);
            t = end;
        }
    }
}
