//! Simulator configuration: Tables III and IV of the paper.

use dram::rate::DataRate;
use dram::timing::{MemorySetting, TimingParams};
use dram::Picos;
use std::fmt;

/// Why a memory configuration could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural count or capacity that must be at least 1 is 0.
    ZeroField(&'static str),
    /// The channel count must be a power of two for the XOR address
    /// mapping to cover the space evenly.
    ChannelsNotPowerOfTwo(usize),
    /// Writes scheduled at a faster data rate than reads: the
    /// protection model certifies margin for reads against a copy
    /// while originals are written at (or below) specification, so a
    /// write rate above the read rate is always a configuration bug.
    WriteFasterThanRead { read_mts: u32, write_mts: u32 },
    /// `Some(0)` ranks for reads or the software address space: the
    /// channel could never serve an access.
    EmptyRankSet(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField(field) => write!(f, "{field} must be at least 1"),
            ConfigError::ChannelsNotPowerOfTwo(n) => {
                write!(f, "channels must be a power of two, got {n}")
            }
            ConfigError::WriteFasterThanRead {
                read_mts,
                write_mts,
            } => write!(
                f,
                "write rate {write_mts} MT/s exceeds read rate {read_mts} MT/s; \
                 originals must not be written faster than reads are certified"
            ),
            ConfigError::EmptyRankSet(field) => {
                write!(f, "{field} restricted to an empty rank set (Some(0))")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Core microarchitecture parameters (Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Core clock in GHz (3.1 in the paper, matching the W-3175X).
    pub clock_ghz: f64,
    /// Issue/retire width (4-wide OoO).
    pub width: u32,
    /// Reorder-buffer capacity in instructions (224).
    pub rob_entries: u32,
    /// Outstanding L2-miss registers (MSHRs) per core.
    pub mshrs: u32,
    /// L1 data cache size in bytes (64 KB, 8-way).
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 size in bytes (1 MB per core, 16-way).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L3 latency in nanoseconds (22 ns).
    pub l3_latency_ns: f64,
    /// Stride prefetcher degree at L2 (Table IV: degree 4).
    pub prefetch_degree: u32,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            clock_ghz: 3.1,
            width: 4,
            rob_entries: 224,
            mshrs: 16,
            l1_bytes: 64 * 1024,
            l1_ways: 8,
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
            l3_latency_ns: 22.0,
            prefetch_degree: 4,
        }
    }
}

impl CoreConfig {
    /// Picoseconds per core clock cycle.
    pub fn cycle_ps(&self) -> Picos {
        (1000.0 / self.clock_ghz).round() as Picos
    }

    /// Picoseconds to execute one non-memory instruction at full width.
    pub fn instr_ps(&self) -> f64 {
        1000.0 / self.clock_ghz / self.width as f64
    }

    /// The hybrid-page-policy row timeout (Table IV: 200 cycles).
    pub fn page_timeout_ps(&self) -> Picos {
        200 * self.cycle_ps()
    }
}

/// Per-channel behaviour of a memory design — the knob set that
/// distinguishes the Commercial Baseline, FMR, Hetero-DMR, and
/// Hetero-DMR+FMR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelMode {
    /// Timing in force while the channel serves reads.
    pub read_timing: TimingParams,
    /// Timing in force while the channel drains writes (Hetero-DMR
    /// always writes at specification so originals stay safe).
    pub write_timing: TimingParams,
    /// Extra latency added to *each* read↔write mode switch, on top of
    /// ordinary tWTR turnaround (1 µs per direction under Hetero-DMR
    /// for the Figure 9/10 frequency transition; 0 for the baseline).
    pub turnaround_penalty_ps: Picos,
    /// Pending writes (write queue + victim writeback cache) that
    /// trigger a write-mode entry — the batch-size knob. Conventional
    /// controllers drain small batches often; Hetero-DMR accumulates
    /// ~12 800 writes per switch (its LLC cleaning exists to build
    /// such batches) so the 2 × 1 µs frequency transitions amortize.
    /// Every write-mode entry drains everything pending.
    pub write_high_watermark: usize,
    /// When `Some(n)`, reads are served by only the top `n` ranks of
    /// the channel (the unsafely fast Free Module under Hetero-DMR).
    pub read_ranks: Option<usize>,
    /// Additional same-channel copies receiving each write via
    /// broadcast (1 under Hetero-DMR, 2 under Hetero-DMR+FMR below
    /// 25 % utilization; 0 otherwise). Costs no bus bandwidth, only
    /// DRAM cell energy.
    pub broadcast_copies: u32,
    /// FMR's read trick: a block also lives in a second rank, and the
    /// controller reads whichever copy's bank is in the "faster" state
    /// (open row / idle).
    pub fmr_read_choice: bool,
    /// Ranks the *software* address space maps onto. Free-memory
    /// replication designs keep in-use data within half the ranks (the
    /// in-use module) so the other half can hold copies; `None` maps
    /// across all ranks (conventional).
    pub software_ranks: Option<usize>,
}

impl ChannelMode {
    /// The Commercial Baseline: everything at manufacturer
    /// specification, with the 12 800-write drain watermark every
    /// evaluated design shares.
    pub fn commercial_baseline() -> ChannelMode {
        let spec = MemorySetting::Specified.timing();
        ChannelMode {
            read_timing: spec,
            write_timing: spec,
            turnaround_penalty_ps: 0,
            // All evaluated designs share the same bulk drain cadence
            // so that write-scheduling transients do not confound the
            // variables the paper studies (data rate, latencies, rank
            // restriction, transition cost); a node-model test sweeps
            // this knob to check Section III-A1's amortization.
            write_high_watermark: 12_800,
            read_ranks: None,
            broadcast_copies: 0,
            fmr_read_choice: false,
            software_ranks: None,
        }
    }

    /// The uniform mode for one of the paper's Table II settings:
    /// reads and writes both at `setting`'s timing, every other knob
    /// as the Commercial Baseline.
    pub fn preset(setting: MemorySetting) -> ChannelMode {
        let t = setting.timing();
        ChannelMode {
            read_timing: t,
            write_timing: t,
            ..Self::commercial_baseline()
        }
    }

    /// Starts a validating builder from the Commercial Baseline.
    pub fn builder() -> ChannelModeBuilder {
        ChannelModeBuilder {
            mode: Self::commercial_baseline(),
        }
    }

    /// A builder seeded with this mode's current knobs, for deriving
    /// one design from another.
    pub fn to_builder(self) -> ChannelModeBuilder {
        ChannelModeBuilder { mode: self }
    }
}

/// Validating builder for [`ChannelMode`] (see [`ChannelMode::builder`]).
///
/// ```
/// use dram::timing::MemorySetting;
/// use memsim::config::ChannelMode;
///
/// let mode = ChannelMode::builder()
///     .read_timing(MemorySetting::FreqLatMargin.timing())
///     .read_ranks(Some(2))
///     .build()
///     .unwrap();
/// assert_eq!(mode.write_timing.data_rate.mts(), 3200);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelModeBuilder {
    mode: ChannelMode,
}

impl ChannelModeBuilder {
    /// Timing in force while the channel serves reads.
    pub fn read_timing(mut self, t: TimingParams) -> Self {
        self.mode.read_timing = t;
        self
    }

    /// Timing in force while the channel drains writes.
    pub fn write_timing(mut self, t: TimingParams) -> Self {
        self.mode.write_timing = t;
        self
    }

    /// One timing for both directions (unprotected overclocking).
    pub fn timings(self, t: TimingParams) -> Self {
        self.read_timing(t).write_timing(t)
    }

    /// Retarget both directions' current timings to `rate`.
    pub fn data_rate(mut self, rate: DataRate) -> Self {
        self.mode.read_timing = self.mode.read_timing.at_rate(rate);
        self.mode.write_timing = self.mode.write_timing.at_rate(rate);
        self
    }

    /// Extra latency per read↔write mode switch, picoseconds.
    pub fn turnaround_penalty_ps(mut self, ps: Picos) -> Self {
        self.mode.turnaround_penalty_ps = ps;
        self
    }

    /// Pending writes that trigger a write-mode entry.
    pub fn write_high_watermark(mut self, writes: usize) -> Self {
        self.mode.write_high_watermark = writes;
        self
    }

    /// Restrict reads to the top `n` ranks (`None` = all ranks).
    pub fn read_ranks(mut self, ranks: Option<usize>) -> Self {
        self.mode.read_ranks = ranks;
        self
    }

    /// Additional same-channel copies receiving each write.
    pub fn broadcast_copies(mut self, copies: u32) -> Self {
        self.mode.broadcast_copies = copies;
        self
    }

    /// FMR's faster-copy read choice.
    pub fn fmr_read_choice(mut self, enabled: bool) -> Self {
        self.mode.fmr_read_choice = enabled;
        self
    }

    /// Ranks the software address space maps onto (`None` = all).
    pub fn software_ranks(mut self, ranks: Option<usize>) -> Self {
        self.mode.software_ranks = ranks;
        self
    }

    /// Validates the timing/rate combination and knob ranges.
    pub fn build(self) -> Result<ChannelMode, ConfigError> {
        let m = &self.mode;
        if m.write_timing.data_rate.mts() > m.read_timing.data_rate.mts() {
            return Err(ConfigError::WriteFasterThanRead {
                read_mts: m.read_timing.data_rate.mts(),
                write_mts: m.write_timing.data_rate.mts(),
            });
        }
        if m.write_high_watermark == 0 {
            return Err(ConfigError::ZeroField("write_high_watermark"));
        }
        if m.read_ranks == Some(0) {
            return Err(ConfigError::EmptyRankSet("read_ranks"));
        }
        if m.software_ranks == Some(0) {
            return Err(ConfigError::EmptyRankSet("software_ranks"));
        }
        Ok(self.mode)
    }
}

/// Node-level memory-system shape (Tables III & IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Number of channels.
    pub channels: usize,
    /// Modules per channel (2 in the paper).
    pub modules_per_channel: usize,
    /// Ranks per module (2).
    pub ranks_per_module: usize,
    /// Banks per rank (16).
    pub banks_per_rank: usize,
}

/// The paper's per-channel shape with a single channel: two dual-rank
/// modules, 16 banks/rank.
impl Default for MemoryConfig {
    fn default() -> MemoryConfig {
        MemoryConfig {
            channels: 1,
            modules_per_channel: 2,
            ranks_per_module: 2,
            banks_per_rank: 16,
        }
    }
}

impl MemoryConfig {
    /// Ranks per channel (modules × ranks/module; Table IV's 4).
    pub fn ranks_per_channel(&self) -> usize {
        self.modules_per_channel * self.ranks_per_module
    }

    /// Starts a validating builder from the paper's default shape.
    pub fn builder() -> MemoryConfigBuilder {
        MemoryConfigBuilder {
            config: MemoryConfig::default(),
        }
    }
}

/// Validating builder for [`MemoryConfig`] (see
/// [`MemoryConfig::builder`]).
///
/// ```
/// use memsim::config::MemoryConfig;
///
/// let memory = MemoryConfig::builder().channels(4).build().unwrap();
/// assert_eq!(memory.ranks_per_channel(), 4);
/// assert!(MemoryConfig::builder().channels(3).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MemoryConfigBuilder {
    config: MemoryConfig,
}

impl MemoryConfigBuilder {
    /// Channel count (must end up a power of two).
    pub fn channels(mut self, n: usize) -> Self {
        self.config.channels = n;
        self
    }

    pub fn modules_per_channel(mut self, n: usize) -> Self {
        self.config.modules_per_channel = n;
        self
    }

    pub fn ranks_per_module(mut self, n: usize) -> Self {
        self.config.ranks_per_module = n;
        self
    }

    pub fn banks_per_rank(mut self, n: usize) -> Self {
        self.config.banks_per_rank = n;
        self
    }

    /// Validates the shape: every count ≥ 1 and channels a power of
    /// two (the XOR channel mapping needs one).
    pub fn build(self) -> Result<MemoryConfig, ConfigError> {
        let c = &self.config;
        for (value, field) in [
            (c.channels, "channels"),
            (c.modules_per_channel, "modules_per_channel"),
            (c.ranks_per_module, "ranks_per_module"),
            (c.banks_per_rank, "banks_per_rank"),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroField(field));
            }
        }
        if !c.channels.is_power_of_two() {
            return Err(ConfigError::ChannelsNotPowerOfTwo(c.channels));
        }
        Ok(self.config)
    }
}

/// Associativity of each core's L3 partition.
pub const L3_WAYS: usize = 16;

/// One of the two evaluated memory hierarchies (Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Name ("Hierarchy1" / "Hierarchy2").
    pub name: &'static str,
    /// Number of cores.
    pub cores: usize,
    /// Combined L2+L3 capacity per core, bytes (CAT-enforced).
    pub cache_per_core_bytes: usize,
    /// Memory shape.
    pub memory: MemoryConfig,
    /// Core parameters.
    pub core: CoreConfig,
}

impl HierarchyConfig {
    /// Hierarchy1: 8 cores, 4.5 MB L2+L3 per core, 1 channel with two
    /// dual-rank modules.
    pub fn hierarchy1() -> HierarchyConfig {
        HierarchyConfig {
            name: "Hierarchy1",
            cores: 8,
            cache_per_core_bytes: 4_718_592, // 4.5 MB
            memory: MemoryConfig::default(),
            core: CoreConfig::default(),
        }
    }

    /// Hierarchy2: 16 cores, 2.375 MB L2+L3 per core, 4 channels with
    /// two dual-rank modules each.
    pub fn hierarchy2() -> HierarchyConfig {
        HierarchyConfig {
            name: "Hierarchy2",
            cores: 16,
            cache_per_core_bytes: 2_490_368, // 2.375 MB
            memory: MemoryConfig::builder()
                .channels(4)
                .build()
                .expect("Table III preset is valid"),
            core: CoreConfig::default(),
        }
    }

    /// Both hierarchies, for sweeps.
    pub fn both() -> [HierarchyConfig; 2] {
        [Self::hierarchy1(), Self::hierarchy2()]
    }

    /// Per-core L3 partition size (L2+L3 per core minus the 1 MB L2),
    /// rounded down to a power-of-two-friendly 64 KB multiple.
    pub fn l3_partition_bytes(&self) -> usize {
        let l3 = self.cache_per_core_bytes.saturating_sub(self.core.l2_bytes);
        // Keep sets a power of two: round down to 2^k × 64 B × ways.
        let sets = (l3 / (64 * L3_WAYS)).next_power_of_two() / 2;
        (sets.max(1)) * 64 * L3_WAYS
    }

    /// A stable 64-bit content fingerprint (FNV-1a over every field,
    /// floats by bit pattern). Two hierarchies with equal fields have
    /// equal fingerprints; result caches key on it so a simulation
    /// outcome is reused only for a configuration that would produce
    /// the identical run.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |w: u64| h = (h ^ w).wrapping_mul(PRIME);
        for &b in self.name.as_bytes() {
            mix(b as u64);
        }
        mix(self.name.len() as u64);
        mix(self.cores as u64);
        mix(self.cache_per_core_bytes as u64);
        let m = &self.memory;
        for field in [
            m.channels,
            m.modules_per_channel,
            m.ranks_per_module,
            m.banks_per_rank,
        ] {
            mix(field as u64);
        }
        let c = &self.core;
        mix(c.clock_ghz.to_bits());
        for field in [c.width, c.rob_entries, c.mshrs, c.prefetch_degree] {
            mix(field as u64);
        }
        for field in [c.l1_bytes, c.l1_ways, c.l2_bytes, c.l2_ways] {
            mix(field as u64);
        }
        mix(c.l3_latency_ns.to_bits());
        h
    }

    /// The memory setting pair for a Hetero-DMR node with a given
    /// frequency margin: reads at `spec + margin` with latency margins,
    /// writes at specification.
    pub fn hetero_dmr_timings(margin_mts: u32) -> (TimingParams, TimingParams) {
        let spec = MemorySetting::Specified.timing();
        let fast = spec
            .with_latency_margin()
            .at_rate(DataRate::MT3200.plus_margin(margin_mts));
        (fast, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_core_defaults() {
        let c = CoreConfig::default();
        assert_eq!(c.clock_ghz, 3.1);
        assert_eq!(c.width, 4);
        assert_eq!(c.rob_entries, 224);
        assert_eq!(c.cycle_ps(), 323); // 1/3.1 GHz ≈ 322.6 ps
        assert_eq!(c.page_timeout_ps(), 200 * 323);
    }

    #[test]
    fn table_iii_hierarchies() {
        let h1 = HierarchyConfig::hierarchy1();
        assert_eq!(h1.cores, 8);
        assert_eq!(h1.memory.channels, 1);
        assert_eq!(h1.memory.ranks_per_channel(), 4);

        let h2 = HierarchyConfig::hierarchy2();
        assert_eq!(h2.cores, 16);
        assert_eq!(h2.memory.channels, 4);
        assert!(h2.cache_per_core_bytes < h1.cache_per_core_bytes);
    }

    #[test]
    fn l3_partition_is_positive_and_below_budget() {
        for h in HierarchyConfig::both() {
            let l3 = h.l3_partition_bytes();
            assert!(l3 > 0);
            assert!(l3 <= h.cache_per_core_bytes);
            // Power-of-two sets for the cache constructor.
            assert!((l3 / (64 * 16)).is_power_of_two());
        }
    }

    #[test]
    fn fingerprint_separates_hierarchies_and_tracks_fields() {
        let h1 = HierarchyConfig::hierarchy1();
        let h2 = HierarchyConfig::hierarchy2();
        assert_ne!(h1.fingerprint(), h2.fingerprint());
        assert_eq!(
            h1.fingerprint(),
            HierarchyConfig::hierarchy1().fingerprint()
        );

        // Every cached-run-relevant knob must move the fingerprint.
        let mut tweaked = HierarchyConfig::hierarchy1();
        tweaked.cores += 1;
        assert_ne!(tweaked.fingerprint(), h1.fingerprint());
        let mut tweaked = HierarchyConfig::hierarchy1();
        tweaked.core.clock_ghz += 0.1;
        assert_ne!(tweaked.fingerprint(), h1.fingerprint());
        let mut tweaked = HierarchyConfig::hierarchy1();
        tweaked.memory.banks_per_rank *= 2;
        assert_ne!(tweaked.fingerprint(), h1.fingerprint());
    }

    #[test]
    fn baseline_mode_is_all_spec() {
        let m = ChannelMode::commercial_baseline();
        assert_eq!(m.read_timing.data_rate.mts(), 3200);
        assert_eq!(m.write_timing, m.read_timing);
        assert_eq!(m.turnaround_penalty_ps, 0);
        assert_eq!(m.broadcast_copies, 0);
        assert!(m.read_ranks.is_none());
    }

    #[test]
    fn memory_builder_validates_shape() {
        assert_eq!(
            MemoryConfig::builder().build().unwrap(),
            MemoryConfig::default()
        );
        let wide = MemoryConfig::builder()
            .channels(8)
            .modules_per_channel(2)
            .banks_per_rank(32)
            .build()
            .unwrap();
        assert_eq!(wide.channels, 8);
        assert_eq!(wide.banks_per_rank, 32);
        assert_eq!(
            MemoryConfig::builder().channels(0).build(),
            Err(ConfigError::ZeroField("channels"))
        );
        assert_eq!(
            MemoryConfig::builder().channels(6).build(),
            Err(ConfigError::ChannelsNotPowerOfTwo(6))
        );
        assert_eq!(
            MemoryConfig::builder().banks_per_rank(0).build(),
            Err(ConfigError::ZeroField("banks_per_rank"))
        );
    }

    #[test]
    fn mode_builder_validates_knobs() {
        let spec = MemorySetting::Specified.timing();
        let fast = MemorySetting::FrequencyMargin.timing();
        // Protected split: reads fast, writes at spec.
        let ok = ChannelMode::builder()
            .read_timing(fast)
            .write_timing(spec)
            .read_ranks(Some(2))
            .build()
            .unwrap();
        assert_eq!(ok.read_timing.data_rate.mts(), 4000);
        assert_eq!(ok.write_timing.data_rate.mts(), 3200);
        // The inverse split can never be a valid protection setting.
        assert_eq!(
            ChannelMode::builder()
                .read_timing(spec)
                .write_timing(fast)
                .build(),
            Err(ConfigError::WriteFasterThanRead {
                read_mts: 3200,
                write_mts: 4000,
            })
        );
        assert_eq!(
            ChannelMode::builder().write_high_watermark(0).build(),
            Err(ConfigError::ZeroField("write_high_watermark"))
        );
        assert_eq!(
            ChannelMode::builder().read_ranks(Some(0)).build(),
            Err(ConfigError::EmptyRankSet("read_ranks"))
        );
        // to_builder round-trips.
        let base = ChannelMode::commercial_baseline();
        assert_eq!(base.to_builder().build().unwrap(), base);
    }

    #[test]
    fn mode_presets_cover_table2() {
        for setting in MemorySetting::ALL {
            let m = ChannelMode::preset(setting);
            assert_eq!(m.read_timing, setting.timing());
            assert_eq!(m.write_timing, m.read_timing);
            assert_eq!(m.broadcast_copies, 0, "{setting:?}");
        }
        assert_eq!(
            ChannelMode::preset(MemorySetting::Specified),
            ChannelMode::commercial_baseline()
        );
    }

    #[test]
    fn hetero_dmr_timing_split() {
        let (fast, safe) = HierarchyConfig::hetero_dmr_timings(800);
        assert_eq!(fast.data_rate.mts(), 4000);
        assert_eq!(fast.t_rcd_ns, 11.5);
        assert_eq!(safe.data_rate.mts(), 3200);
        assert_eq!(safe.t_rcd_ns, 13.75);
    }
}
