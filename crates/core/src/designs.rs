//! The evaluated memory designs as [`memsim::ChannelMode`] builders.

use dram::timing::{MemorySetting, TimingParams};
use dram::PS_PER_US;
use memsim::config::{ChannelMode, HierarchyConfig};

/// A shipped DRAM generation, for the `energy` target's generation
/// sweep. A design that carries it keys the node model's result cache,
/// which a [`TimingParams`] (floats) cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramGeneration {
    /// DDR4-2400.
    Ddr4_2400,
    /// DDR4-3200, the paper's baseline configuration.
    Ddr4_3200,
    /// DDR5-4800.
    Ddr5_4800,
    /// DDR5-6400.
    Ddr5_6400,
    /// MRDIMM-8800.
    Mrdimm8800,
}

impl DramGeneration {
    /// Every generation, oldest first.
    pub const ALL: [DramGeneration; 5] = [
        DramGeneration::Ddr4_2400,
        DramGeneration::Ddr4_3200,
        DramGeneration::Ddr5_4800,
        DramGeneration::Ddr5_6400,
        DramGeneration::Mrdimm8800,
    ];

    /// The generation's label, such as `"DDR5-4800"`.
    pub fn label(self) -> &'static str {
        match self {
            DramGeneration::Ddr4_2400 => "DDR4-2400",
            DramGeneration::Ddr4_3200 => "DDR4-3200",
            DramGeneration::Ddr5_4800 => "DDR5-4800",
            DramGeneration::Ddr5_6400 => "DDR5-6400",
            DramGeneration::Mrdimm8800 => "MRDIMM-8800",
        }
    }

    /// The generation's specification timing.
    pub fn timing(self) -> TimingParams {
        match self {
            DramGeneration::Ddr4_2400 => TimingParams::ddr4_2400_spec(),
            DramGeneration::Ddr4_3200 => TimingParams::ddr4_3200_spec(),
            DramGeneration::Ddr5_4800 => TimingParams::ddr5_4800_spec(),
            DramGeneration::Ddr5_6400 => TimingParams::ddr5_6400_spec(),
            DramGeneration::Mrdimm8800 => TimingParams::mrdimm_8800_spec(),
        }
    }
}

/// A memory-system design from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryDesign {
    /// Conventional system at manufacturer specification
    /// (with the fairness writeback cache).
    CommercialBaseline,
    /// Figure 5: exploit latency margins only (cherry-picked modules,
    /// no reliability protection).
    ExploitLatency,
    /// Figure 5: exploit frequency margin only.
    ExploitFrequency,
    /// Figure 5: exploit frequency + latency margins.
    ExploitFreqLat,
    /// FMR [MICRO'19]: free-memory replication for latency only.
    Fmr,
    /// Hetero-DMR with the given node-level frequency margin (MT/s).
    HeteroDmr {
        /// Node-level frequency margin in MT/s (800 or 600 in Fig 12).
        margin_mts: u32,
    },
    /// Hetero-DMR applied on top of FMR (two copies below 25 %
    /// utilization).
    HeteroDmrFmr {
        /// Node-level frequency margin in MT/s.
        margin_mts: u32,
    },
    /// The Section III-A strawman: copies in *different channels*,
    /// half the channels fast, duplicated writes.
    NaiveDmr {
        /// Frequency margin of the fast half, MT/s.
        margin_mts: u32,
    },
    /// Hetero-DMR whose overclock is chosen online by the closed-loop
    /// [`crate::adaptive`] governor instead of a one-shot stress test.
    /// The channel mode below is the *envelope* (maximum) setting; the
    /// per-epoch operating point walks between specification and this
    /// bound one 200 MT/s bin at a time.
    AdaptiveDmr {
        /// Stress-test-derived safety envelope in MT/s: the governor
        /// never strengthens past this margin.
        max_margin_mts: u32,
    },
    /// A DRAM generation at its specification timing, with no margin
    /// and no replication.
    Generation(DramGeneration),
}

impl MemoryDesign {
    /// Short display name.
    pub fn name(self) -> String {
        match self {
            MemoryDesign::CommercialBaseline => "Commercial Baseline".into(),
            MemoryDesign::ExploitLatency => "Exploit Latency Margin".into(),
            MemoryDesign::ExploitFrequency => "Exploit Frequency Margin".into(),
            MemoryDesign::ExploitFreqLat => "Exploit Freq+Lat Margins".into(),
            MemoryDesign::Fmr => "FMR".into(),
            MemoryDesign::HeteroDmr { margin_mts } => {
                format!("Hetero-DMR@{:.1}GT/s", margin_mts as f64 / 1000.0)
            }
            MemoryDesign::HeteroDmrFmr { margin_mts } => {
                format!("Hetero-DMR+FMR@{:.1}GT/s", margin_mts as f64 / 1000.0)
            }
            MemoryDesign::NaiveDmr { margin_mts } => {
                format!(
                    "Naive channel-split DMR@{:.1}GT/s",
                    margin_mts as f64 / 1000.0
                )
            }
            MemoryDesign::AdaptiveDmr { max_margin_mts } => {
                format!("Adaptive-DMR<=+{:.1}GT/s", max_margin_mts as f64 / 1000.0)
            }
            MemoryDesign::Generation(generation) => generation.label().into(),
        }
    }

    /// Whether the design relies on free memory (and therefore falls
    /// back to the baseline when utilization crosses its threshold).
    pub fn free_memory_threshold(self) -> Option<f64> {
        match self {
            MemoryDesign::Fmr
            | MemoryDesign::HeteroDmr { .. }
            | MemoryDesign::NaiveDmr { .. }
            | MemoryDesign::AdaptiveDmr { .. } => Some(0.5),
            // Two copies need ≥ 3/4 free… the paper runs H+F below
            // 25 % and regresses it to plain Hetero-DMR in [25, 50).
            MemoryDesign::HeteroDmrFmr { .. } => Some(0.25),
            _ => None,
        }
    }

    /// The per-channel behaviour of this design (uniform across
    /// channels; the naive strawman additionally needs
    /// [`MemoryDesign::per_channel_modes`]).
    pub fn channel_mode(self) -> ChannelMode {
        let built = match self {
            MemoryDesign::CommercialBaseline => Ok(ChannelMode::commercial_baseline()),
            MemoryDesign::ExploitLatency => Ok(ChannelMode::preset(MemorySetting::LatencyMargin)),
            MemoryDesign::ExploitFrequency => {
                Ok(ChannelMode::preset(MemorySetting::FrequencyMargin))
            }
            MemoryDesign::ExploitFreqLat => Ok(ChannelMode::preset(MemorySetting::FreqLatMargin)),
            // FMR pairs ranks and keeps copies at the same offsets of
            // the paired rank; software data still interleaves across
            // every rank (only whole-module designs like Hetero-DMR
            // must confine data to the in-use module).
            MemoryDesign::Fmr => ChannelMode::builder()
                .fmr_read_choice(true)
                .broadcast_copies(1)
                .build(),
            MemoryDesign::HeteroDmr { margin_mts } => {
                let (fast, safe) = HierarchyConfig::hetero_dmr_timings(margin_mts);
                ChannelMode::builder()
                    .read_timing(fast)
                    .write_timing(safe)
                    .turnaround_penalty_ps(PS_PER_US)
                    // The 12 800-write batches the LLC cleaning of
                    // Section III-E exists to build (100× a
                    // conventional 128-write batch).
                    .write_high_watermark(12_800)
                    .read_ranks(Some(2))
                    .broadcast_copies(1)
                    .software_ranks(Some(2))
                    .build()
            }
            MemoryDesign::HeteroDmrFmr { margin_mts } => MemoryDesign::HeteroDmr { margin_mts }
                .channel_mode()
                .to_builder()
                .fmr_read_choice(true)
                .broadcast_copies(2)
                .build(),
            MemoryDesign::NaiveDmr { margin_mts } => {
                // The fast half's mode; see per_channel_modes.
                ChannelMode::builder()
                    .data_rate(dram::rate::DataRate::MT3200.plus_margin(margin_mts))
                    .build()
            }
            // The envelope setting: identical plumbing to a static
            // Hetero-DMR binned at the maximum margin. Intermediate
            // operating points come from
            // `MemoryDesign::HeteroDmr { margin_mts: bin * 200 }`.
            MemoryDesign::AdaptiveDmr { max_margin_mts } => {
                return MemoryDesign::HeteroDmr {
                    margin_mts: max_margin_mts,
                }
                .channel_mode()
            }
            MemoryDesign::Generation(generation) => {
                ChannelMode::builder().timings(generation.timing()).build()
            }
        };
        built.unwrap_or_else(|e| panic!("{}: invalid channel mode: {e}", self.name()))
    }

    /// Per-channel modes for designs that operate channels
    /// heterogeneously. Returns `(modes, mirror_writes)`.
    pub fn per_channel_modes(self, channels: usize) -> (Vec<ChannelMode>, bool) {
        match self {
            MemoryDesign::NaiveDmr { .. } => {
                // First half safe (originals), second half fast (copies).
                let safe = ChannelMode::commercial_baseline();
                let fast = self.channel_mode();
                let modes = (0..channels)
                    .map(|c| if c < channels / 2 { safe } else { fast })
                    .collect();
                (modes, true)
            }
            _ => (vec![self.channel_mode(); channels], false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_all_spec() {
        let m = MemoryDesign::CommercialBaseline.channel_mode();
        assert_eq!(m.read_timing.data_rate.mts(), 3200);
        assert_eq!(m.turnaround_penalty_ps, 0);
    }

    #[test]
    fn figure5_settings_apply_table2() {
        assert_eq!(
            MemoryDesign::ExploitLatency
                .channel_mode()
                .read_timing
                .t_rcd_ns,
            11.5
        );
        assert_eq!(
            MemoryDesign::ExploitFrequency
                .channel_mode()
                .read_timing
                .data_rate
                .mts(),
            4000
        );
        let fl = MemoryDesign::ExploitFreqLat.channel_mode();
        assert_eq!(fl.read_timing.data_rate.mts(), 4000);
        assert_eq!(fl.read_timing.t_rcd_ns, 11.5);
        // Cherry-picked overclocking writes fast too (no protection).
        assert_eq!(fl.write_timing, fl.read_timing);
    }

    #[test]
    fn hetero_dmr_mode_has_the_protocol_knobs() {
        let m = MemoryDesign::HeteroDmr { margin_mts: 800 }.channel_mode();
        assert_eq!(m.read_timing.data_rate.mts(), 4000);
        assert_eq!(m.write_timing.data_rate.mts(), 3200, "writes at spec");
        assert_eq!(m.turnaround_penalty_ps, PS_PER_US);
        assert_eq!(m.write_high_watermark, 12_800);
        assert_eq!(m.read_ranks, Some(2));
        assert_eq!(m.broadcast_copies, 1);
        let m6 = MemoryDesign::HeteroDmr { margin_mts: 600 }.channel_mode();
        assert_eq!(m6.read_timing.data_rate.mts(), 3800);
    }

    #[test]
    fn hdmr_fmr_extends_hdmr() {
        let m = MemoryDesign::HeteroDmrFmr { margin_mts: 800 }.channel_mode();
        assert!(m.fmr_read_choice);
        assert_eq!(m.broadcast_copies, 2);
        assert_eq!(m.read_ranks, Some(2));
    }

    #[test]
    fn fmr_is_spec_rate_with_copy_choice() {
        let m = MemoryDesign::Fmr.channel_mode();
        assert_eq!(m.read_timing.data_rate.mts(), 3200);
        assert!(m.fmr_read_choice);
        assert_eq!(m.turnaround_penalty_ps, 0);
    }

    #[test]
    fn naive_dmr_splits_channels_and_mirrors_writes() {
        let (modes, mirror) = MemoryDesign::NaiveDmr { margin_mts: 800 }.per_channel_modes(4);
        assert!(mirror);
        assert_eq!(modes.len(), 4);
        assert_eq!(modes[0].read_timing.data_rate.mts(), 3200);
        assert_eq!(modes[1].read_timing.data_rate.mts(), 3200);
        assert_eq!(modes[2].read_timing.data_rate.mts(), 4000);
        assert_eq!(modes[3].read_timing.data_rate.mts(), 4000);
    }

    #[test]
    fn uniform_designs_replicate_one_mode() {
        let (modes, mirror) = MemoryDesign::Fmr.per_channel_modes(4);
        assert!(!mirror);
        assert!(modes.iter().all(|m| *m == modes[0]));
    }

    #[test]
    fn free_memory_thresholds() {
        assert_eq!(
            MemoryDesign::CommercialBaseline.free_memory_threshold(),
            None
        );
        assert_eq!(MemoryDesign::ExploitFreqLat.free_memory_threshold(), None);
        assert_eq!(
            MemoryDesign::HeteroDmr { margin_mts: 800 }.free_memory_threshold(),
            Some(0.5)
        );
        assert_eq!(
            MemoryDesign::HeteroDmrFmr { margin_mts: 800 }.free_memory_threshold(),
            Some(0.25)
        );
    }

    #[test]
    fn adaptive_envelope_matches_static_binning() {
        // The adaptive design's envelope mode is plumbing-identical to
        // a static Hetero-DMR binned at the same (maximum) margin.
        let a = MemoryDesign::AdaptiveDmr {
            max_margin_mts: 800,
        };
        assert_eq!(
            a.channel_mode(),
            MemoryDesign::HeteroDmr { margin_mts: 800 }.channel_mode()
        );
        assert_eq!(a.free_memory_threshold(), Some(0.5));
        assert_eq!(a.name(), "Adaptive-DMR<=+0.8GT/s");
        // Intermediate bins are plain Hetero-DMR modes and must build
        // at every 200 MT/s step of the ladder.
        for bin in 0..=4u32 {
            let m = MemoryDesign::HeteroDmr {
                margin_mts: bin * 200,
            }
            .channel_mode();
            assert_eq!(m.read_timing.data_rate.mts(), 3200 + bin * 200);
            assert_eq!(m.write_timing.data_rate.mts(), 3200, "writes at spec");
        }
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(
            MemoryDesign::HeteroDmr { margin_mts: 800 }.name(),
            "Hetero-DMR@0.8GT/s"
        );
        assert!(MemoryDesign::NaiveDmr { margin_mts: 600 }
            .name()
            .contains("0.6"));
    }
}
