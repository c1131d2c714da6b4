//! The functional Hetero-DMR protocol engine.
//!
//! This module executes the paper's Figure 8 protocol against real
//! state: a [`dram::Channel`] (frequency-transition and self-refresh
//! machinery), an [`ecc::BlockCodec`] (Bamboo-style detection-only /
//! detect+correct decodes), the [`crate::replication`] manager, and
//! the [`crate::governor`] SDC budget. Block contents are held
//! byte-for-byte, so the central reliability claim is *executable*:
//! whatever error model corrupts the unsafely fast copies, every read
//! returns the data that was written.
//!
//! Timing fidelity (queueing, bandwidth, batching) lives in `memsim`;
//! this engine models protocol-visible latencies only (the 1 µs
//! frequency transitions and self-refresh exits).

use crate::faults::PermanentFaultTracker;
use crate::governor::{EpochGovernor, GovernorState};
use crate::replication::{ReplicationAction, ReplicationManager};
use dram::channel::{Channel, ChannelConfig, ModuleId};
use dram::Picos;
use ecc::bamboo::{BlockCodec, DetectOutcome, EccBlock, BLOCK_DATA_BYTES};
use ecc::inject::{inject, ErrorModel};
use ecc::tally::ErrorTally;
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use telemetry::trace::{kv, Clock, Tracer};
use telemetry::{Counter, Scope};

/// The operating state of a Hetero-DMR channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMode {
    /// No replication (memory > 50 % used): conventional operation at
    /// specification.
    Conventional,
    /// Replicated, channel unsafely fast, originals in self-refresh;
    /// reads served by copies.
    ReadMode,
    /// Replicated, channel at specification; broadcast writes update
    /// originals and copies together.
    WriteMode,
    /// Replicated but the epoch error budget is exhausted: everything
    /// at specification until the next epoch.
    Degraded,
}

/// How a read was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Clean copy read at the unsafely fast setting.
    FastClean,
    /// The copy was corrupt; the block was recovered from the in-spec
    /// original and the copy repaired in place.
    Recovered,
    /// Served from the originals at specification (conventional /
    /// write-mode / degraded operation).
    Safe,
}

/// Protocol-level errors (caller misuse, not memory errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The operation is not legal in the current [`OpMode`].
    WrongMode {
        /// The mode the channel was in.
        current: OpMode,
    },
    /// An unrecoverable original-block error (beyond ECC correction) —
    /// the same event that would take down a conventional system.
    UncorrectableOriginal {
        /// The affected block.
        block: u64,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::WrongMode { current } => {
                write!(f, "operation illegal in {current:?}")
            }
            ProtocolError::UncorrectableOriginal { block } => {
                write!(f, "uncorrectable error in original block {block}")
            }
        }
    }
}

impl Error for ProtocolError {}

/// Live protocol metric handles; [`ProtocolStats`] is materialized
/// from these on demand (single source of truth, no parallel
/// bookkeeping). Detached until
/// [`HeteroDmrChannel::attach_telemetry`] binds them.
#[derive(Debug, Default)]
struct ProtocolMetrics {
    fast_reads: Counter,
    recoveries: Counter,
    safe_reads: Counter,
    writes: Counter,
    remaps: Counter,
    mode_switches: Counter,
}

impl ProtocolMetrics {
    fn bind(&mut self, scope: &Scope) {
        let rebind = |name: &str, old: &Counter| {
            let fresh = scope.counter(name);
            fresh.add(old.get());
            fresh
        };
        self.fast_reads = rebind("fast_reads", &self.fast_reads);
        self.recoveries = rebind("recoveries", &self.recoveries);
        self.safe_reads = rebind("safe_reads", &self.safe_reads);
        self.writes = rebind("writes", &self.writes);
        self.remaps = rebind("remaps", &self.remaps);
        self.mode_switches = rebind("mode_switches", &self.mode_switches);
    }

    fn stats(&self) -> ProtocolStats {
        ProtocolStats {
            fast_reads: self.fast_reads.get(),
            recoveries: self.recoveries.get(),
            safe_reads: self.safe_reads.get(),
            writes: self.writes.get(),
            remaps: self.remaps.get(),
        }
    }
}

/// Protocol statistics — a snapshot view over the live metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Reads served fast and clean.
    pub fast_reads: u64,
    /// Reads that needed recovery from the original.
    pub recoveries: u64,
    /// Reads served at specification.
    pub safe_reads: u64,
    /// Broadcast writes performed.
    pub writes: u64,
    /// Module-role remaps after permanent-fault detection
    /// (Section III-E).
    pub remaps: u64,
}

/// The slot holding the original blocks; the other slot is the Free
/// Module that holds the copies.
const ORIGINALS: ModuleId = ModuleId(0);

/// One channel under the Hetero-DMR protocol.
#[derive(Debug)]
pub struct HeteroDmrChannel {
    channel: Channel,
    codec: BlockCodec,
    governor: EpochGovernor,
    replication: ReplicationManager,
    originals: HashMap<u64, EccBlock>,
    copies: HashMap<u64, EccBlock>,
    mode: OpMode,
    metrics: ProtocolMetrics,
    /// CE/UE/SDC accounting for every error the channel sees.
    tally: ErrorTally,
    /// Permanent-fault detection for the copy-holding module.
    fault_tracker: PermanentFaultTracker,
    /// Block offsets of the *physically faulty* locations in the
    /// module currently holding copies (simulated stuck cells).
    faulty_copy_blocks: HashSet<u64>,
    /// Whether module roles have been swapped to move copies off the
    /// faulty module.
    roles_swapped: bool,
    /// Causal trace sink (see [`HeteroDmrChannel::attach_trace`]).
    trace: Option<Tracer>,
}

impl HeteroDmrChannel {
    /// Creates a conventional (unreplicated) channel with the paper's
    /// default configuration and `blocks_per_module` of software-
    /// visible capacity per module.
    pub fn new(blocks_per_module: u64) -> HeteroDmrChannel {
        HeteroDmrChannel::with_governor(blocks_per_module, EpochGovernor::default())
    }

    /// Creates a channel with a custom SDC governor (small budgets are
    /// useful in tests and ablations).
    pub fn with_governor(blocks_per_module: u64, governor: EpochGovernor) -> HeteroDmrChannel {
        let config = ChannelConfig::paper_default();
        let modules = config.modules;
        HeteroDmrChannel {
            channel: Channel::new(config),
            codec: BlockCodec::new(),
            governor,
            replication: ReplicationManager::new(modules, blocks_per_module),
            originals: HashMap::new(),
            copies: HashMap::new(),
            mode: OpMode::Conventional,
            metrics: ProtocolMetrics::default(),
            tally: ErrorTally::default(),
            fault_tracker: PermanentFaultTracker::default(),
            faulty_copy_blocks: HashSet::new(),
            roles_swapped: false,
            trace: None,
        }
    }

    /// Current operating mode.
    pub fn mode(&self) -> OpMode {
        self.mode
    }

    /// Protocol statistics so far, materialized from the live metrics.
    pub fn stats(&self) -> ProtocolStats {
        self.metrics.stats()
    }

    /// Rebinds this channel's protocol metrics (and its governor's,
    /// under `governor`) into a registry scope.
    pub fn attach_telemetry(&mut self, scope: &Scope) {
        self.metrics.bind(scope);
        self.governor.attach_telemetry(&scope.scope("governor"));
        self.tally.bind(&scope.scope("ecc"));
    }

    /// The channel's CE/UE/SDC error ledgers.
    pub fn tally(&self) -> &ErrorTally {
        &self.tally
    }

    /// Records protocol causality into `tracer`, all on the
    /// simulation-picosecond clock: `mode.read_enter` / `mode.read_exit`
    /// instants at every Figure 8 transition, an `ecc.detect` instant
    /// when a fast read fails the detection-only decode, an
    /// `ecc.reread` span (parented to its detect instant) covering the
    /// slow-down → re-read → repair → resume chain, and a `down_bin`
    /// instant when the governor exhausts the epoch budget.
    pub fn attach_trace(&mut self, tracer: &Tracer) {
        self.trace = Some(tracer.clone());
    }

    /// Switches the operating mode, tallying actual transitions.
    fn set_mode(&mut self, mode: OpMode) {
        if self.mode != mode {
            self.metrics.mode_switches.inc();
        }
        self.mode = mode;
    }

    /// The governor (error budget) state.
    pub fn governor(&self) -> &EpochGovernor {
        &self.governor
    }

    /// Completed channel frequency transitions.
    pub fn transitions(&self) -> u64 {
        self.channel.transitions()
    }

    /// Whether a permanent fault forced the module roles to swap.
    pub fn roles_swapped(&self) -> bool {
        self.roles_swapped
    }

    /// Injects a permanent (stuck-cell, ECC-correctable) fault into
    /// the copy-holding module at `offset`: every fast read of that
    /// block returns corrupted data until the roles are remapped.
    pub fn inject_persistent_copy_fault(&mut self, offset: u64) {
        self.faulty_copy_blocks.insert(offset);
    }

    /// Section III-E's remedy: move the copies to the healthy module
    /// and park the originals on the faulty one, where the (single-
    /// byte, correctable) fault is absorbed by conventional ECC on the
    /// rare in-spec reads instead of triggering frequency transitions
    /// on every fast read.
    fn swap_roles(&mut self) {
        std::mem::swap(&mut self.originals, &mut self.copies);
        self.roles_swapped = true;
        self.metrics.remaps.inc();
        self.fault_tracker.reset();
    }

    fn address_of(block: u64) -> u64 {
        block * BLOCK_DATA_BYTES as u64
    }

    fn stored(map: &HashMap<u64, EccBlock>, codec: &BlockCodec, block: u64) -> EccBlock {
        map.get(&block)
            .copied()
            .unwrap_or_else(|| codec.encode(Self::address_of(block), &[0u8; BLOCK_DATA_BYTES]))
    }

    /// Reports the channel's software memory demand. Crossing the 50 %
    /// boundary activates or deactivates replication; activation
    /// copies every block and enters read mode (returning the time the
    /// channel is fast), deactivation reverts to conventional
    /// operation.
    pub fn set_used_blocks(&mut self, used: u64, now: Picos) -> Picos {
        match self.replication.set_used_blocks(used) {
            ReplicationAction::Activate => {
                // Populate copies from originals (done at spec, before
                // heterogeneous operation starts).
                self.copies = self.originals.clone();
                self.enter_read_mode(now)
            }
            ReplicationAction::Deactivate => {
                self.copies.clear();
                if self.mode == OpMode::ReadMode {
                    let t = self.leave_read_mode(now);
                    self.set_mode(OpMode::Conventional);
                    t
                } else {
                    self.set_mode(OpMode::Conventional);
                    now
                }
            }
            ReplicationAction::None => now,
        }
    }

    /// Transitions into unsafely fast read mode (Figure 8b): originals
    /// put into self-refresh, channel clocked up. Returns when the
    /// channel is usable.
    fn enter_read_mode(&mut self, now: Picos) -> Picos {
        self.channel
            .enter_self_refresh(ORIGINALS)
            .expect("originals are out of self-refresh outside read mode");
        let ready = self
            .channel
            .begin_speed_up(now)
            .expect("safe channel can speed up");
        self.set_mode(OpMode::ReadMode);
        if let Some(tracer) = &self.trace {
            tracer.instant(
                "mode.read_enter",
                "protocol",
                Clock::SimPs,
                ready,
                Vec::new(),
            );
        }
        ready
    }

    /// Leaves read mode: channel back to spec, then originals out of
    /// self-refresh. Returns when both are ready (the transition's end
    /// plus tXS).
    fn leave_read_mode(&mut self, now: Picos) -> Picos {
        let until = self
            .channel
            .begin_slow_down(now)
            .expect("fast channel can slow down");
        let safe_at = self
            .channel
            .exit_self_refresh(ORIGINALS, until)
            .expect("originals were in self-refresh");
        if let Some(tracer) = &self.trace {
            tracer.instant(
                "mode.read_exit",
                "protocol",
                Clock::SimPs,
                safe_at,
                Vec::new(),
            );
        }
        safe_at
    }

    /// Enters write mode (Figure 8a). Legal from read mode; a no-op
    /// when already safe.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongMode`] when replication is inactive.
    pub fn begin_write_mode(&mut self, now: Picos) -> Result<Picos, ProtocolError> {
        match self.mode {
            OpMode::ReadMode => {
                let ready = self.leave_read_mode(now);
                self.set_mode(OpMode::WriteMode);
                Ok(ready)
            }
            OpMode::WriteMode | OpMode::Degraded => Ok(now),
            OpMode::Conventional => Err(ProtocolError::WrongMode { current: self.mode }),
        }
    }

    /// Returns to read mode after a write batch (Figure 8b).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongMode`] when not in write mode, or when
    /// degraded (the governor keeps the channel safe until the next
    /// epoch — use [`HeteroDmrChannel::try_resume`]).
    pub fn begin_read_mode(&mut self, now: Picos) -> Result<Picos, ProtocolError> {
        match self.mode {
            OpMode::WriteMode => Ok(self.enter_read_mode(now)),
            current => Err(ProtocolError::WrongMode { current }),
        }
    }

    /// After a governor fallback, checks whether a new epoch has begun
    /// and resumes heterogeneous operation if so. Returns `Some(ready
    /// time)` when resumed.
    pub fn try_resume(&mut self, now: Picos) -> Option<Picos> {
        if self.mode == OpMode::Degraded && self.governor.state(now) == GovernorState::Exploiting {
            Some(self.enter_read_mode(now))
        } else {
            None
        }
    }

    /// Writes a block. In write mode this is a broadcast update of
    /// original and copy in one transaction; in conventional/degraded
    /// operation it writes the original (and keeps the copy fresh when
    /// one exists).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongMode`] in read mode — Hetero-DMR never
    /// writes at the unsafely fast setting; the caller must batch
    /// writes behind [`HeteroDmrChannel::begin_write_mode`].
    pub fn write(
        &mut self,
        block: u64,
        data: &[u8; BLOCK_DATA_BYTES],
        _now: Picos,
    ) -> Result<(), ProtocolError> {
        if self.mode == OpMode::ReadMode {
            return Err(ProtocolError::WrongMode { current: self.mode });
        }
        let encoded = self.codec.encode(Self::address_of(block), data);
        self.originals.insert(block, encoded);
        if self.mode != OpMode::Conventional {
            // Same bus transaction updates the copy at the same offset
            // (identical data AND identical ECC bytes — Section III-C).
            let offset = self.replication.copy_offset(block);
            self.copies.insert(offset, encoded);
        }
        self.metrics.writes.inc();
        Ok(())
    }

    /// Reads a block, optionally injecting an error of class `model`
    /// into the copy access (simulating out-of-spec corruption).
    ///
    /// Returns the data, how it was obtained, and the completion time.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UncorrectableOriginal`] only if the *original*
    /// suffered an unrecoverable natural error — the same failure a
    /// conventional system would report.
    pub fn read<R: Rng + ?Sized>(
        &mut self,
        block: u64,
        now: Picos,
        injection: Option<(&mut R, ErrorModel)>,
    ) -> Result<([u8; BLOCK_DATA_BYTES], ReadOutcome, Picos), ProtocolError> {
        let addr = Self::address_of(block);
        if self.mode != OpMode::ReadMode {
            // Safe path: read the original with detect+correct. After a
            // role swap the permanent fault sits here, correctable by
            // conventional ECC.
            let mut original = Self::stored(&self.originals, &self.codec, block);
            if self.roles_swapped && self.faulty_copy_blocks.contains(&block) {
                original.data[0] ^= 0x01;
            }
            let fixed = self.codec.correct(addr, &mut original).map_err(|_| {
                self.tally.note_ue();
                ProtocolError::UncorrectableOriginal { block }
            })?;
            if fixed > 0 {
                self.tally.note_ce();
            }
            self.originals.insert(block, original);
            self.metrics.safe_reads.inc();
            return Ok((original.data, ReadOutcome::Safe, now));
        }

        // Fast path: read the copy at the unsafely fast setting.
        let offset = self.replication.copy_offset(block);
        let mut observed = Self::stored(&self.copies, &self.codec, offset);
        // A permanent fault in the copy-holding module corrupts every
        // fast read of its block (until roles are remapped).
        if !self.roles_swapped && self.faulty_copy_blocks.contains(&offset) {
            observed.data[0] ^= 0x01;
        }
        let mut requested_addr = addr;
        let mut injected = false;
        if let Some((rng, model)) = injection {
            self.tally.note_injected(model);
            injected = true;
            let inj = inject(rng, model, addr, &mut observed);
            if inj.effective_address != addr {
                // Address/command error: the device returned some other
                // location's content.
                let other_block = inj.effective_address / BLOCK_DATA_BYTES as u64;
                observed = Self::stored(
                    &self.copies,
                    &self.codec,
                    other_block % self.replication.capacity_blocks().max(1),
                );
                requested_addr = addr; // the CPU still checks against what it asked for
            }
        }
        let _ = requested_addr;

        match self.codec.detect(addr, &observed) {
            DetectOutcome::Clean => {
                if injected {
                    // An injected error passed the detection-only
                    // decode: the 2⁻⁶⁴ silent escape, made countable.
                    self.tally.note_sdc();
                }
                self.metrics.fast_reads.inc();
                self.fault_tracker.record_clean(block);
                Ok((observed.data, ReadOutcome::FastClean, now))
            }
            DetectOutcome::Detected => {
                let detect = self.trace.as_ref().map(|t| {
                    t.instant(
                        "ecc.detect",
                        "protocol",
                        Clock::SimPs,
                        now,
                        vec![kv("block", block), kv("injected", injected)],
                    )
                });
                let result = self.recover(block, now, detect);
                if result.is_ok() && self.fault_tracker.record_recovery(block) {
                    self.swap_roles();
                }
                result
            }
        }
    }

    /// Figure 8c: slow the channel to specification, read the
    /// original reliably, overwrite the corrupted copy, and speed back
    /// up (unless the governor has exhausted the epoch budget).
    fn recover(
        &mut self,
        block: u64,
        now: Picos,
        cause: Option<u64>,
    ) -> Result<([u8; BLOCK_DATA_BYTES], ReadOutcome, Picos), ProtocolError> {
        let addr = Self::address_of(block);
        let safe_at = self.leave_read_mode(now);
        self.set_mode(OpMode::WriteMode);

        let mut original = Self::stored(&self.originals, &self.codec, block);
        if self.roles_swapped && self.faulty_copy_blocks.contains(&block) {
            original.data[0] ^= 0x01;
        }
        if self.codec.correct(addr, &mut original).is_err() {
            self.tally.note_ue();
            if let Some(tracer) = &self.trace {
                tracer.complete_with_parent(
                    "ecc.reread",
                    "protocol",
                    Clock::SimPs,
                    now,
                    safe_at,
                    cause,
                    vec![kv("block", block), kv("outcome", "uncorrectable")],
                );
            }
            return Err(ProtocolError::UncorrectableOriginal { block });
        }
        self.originals.insert(block, original);
        // Overwrite (repair) the corrupted copy with the good value.
        let offset = self.replication.copy_offset(block);
        self.copies.insert(offset, original);

        // The detected copy error was made good from the original:
        // a corrected error in the system-level ledger.
        self.tally.note_ce();
        self.metrics.recoveries.inc();
        let end = match self.governor.record_error(safe_at) {
            GovernorState::Exploiting => {
                let ready = self.enter_read_mode(safe_at);
                self.set_mode(OpMode::ReadMode);
                ready
            }
            GovernorState::FallBack => {
                self.set_mode(OpMode::Degraded);
                safe_at
            }
        };
        if let Some(tracer) = &self.trace {
            let outcome = match self.mode {
                OpMode::ReadMode => "resumed",
                OpMode::Degraded => "degraded",
                _ => "write_mode",
            };
            let reread = tracer.complete_with_parent(
                "ecc.reread",
                "protocol",
                Clock::SimPs,
                now,
                end,
                cause,
                vec![kv("block", block), kv("outcome", outcome)],
            );
            if self.mode == OpMode::Degraded {
                // The governor exhausted the epoch's error budget: the
                // channel stays down-binned (at specification) until
                // the next epoch.
                tracer.instant_with_parent(
                    "down_bin",
                    "protocol",
                    Clock::SimPs,
                    safe_at,
                    Some(reread),
                    vec![kv("block", block)],
                );
            }
        }
        Ok((original.data, ReadOutcome::Recovered, end))
    }

    /// Injects a *natural* (in-spec) error into an original block —
    /// the kind conventional ECC handles — flipping the given
    /// `(byte index, xor mask)` pairs.
    pub fn corrupt_original(&mut self, block: u64, flips: &[(usize, u8)]) {
        let mut b = Self::stored(&self.originals, &self.codec, block);
        for &(idx, mask) in flips {
            if idx < BLOCK_DATA_BYTES {
                b.data[idx] ^= mask;
            } else {
                b.ecc[idx - BLOCK_DATA_BYTES] ^= mask;
            }
        }
        self.originals.insert(block, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BLOCKS: u64 = 1 << 20;

    /// A channel with replication active (25 % utilization).
    fn replicated() -> (HeteroDmrChannel, Picos) {
        let mut ch = HeteroDmrChannel::new(BLOCKS);
        let t = ch.set_used_blocks(BLOCKS / 2, 0);
        (ch, t)
    }

    fn data(tag: u8) -> [u8; 64] {
        [tag; 64]
    }

    #[test]
    fn starts_conventional_reads_safely() {
        let mut ch = HeteroDmrChannel::new(BLOCKS);
        assert_eq!(ch.mode(), OpMode::Conventional);
        ch.write(5, &data(0xAA), 0).unwrap();
        let (d, outcome, _) = ch.read::<StdRng>(5, 10, None).unwrap();
        assert_eq!(d, data(0xAA));
        assert_eq!(outcome, ReadOutcome::Safe);
    }

    #[test]
    fn activation_enters_read_mode_with_fast_clean_reads() {
        let mut ch = HeteroDmrChannel::new(BLOCKS);
        ch.write(7, &data(0x11), 0).unwrap();
        let ready = ch.set_used_blocks(BLOCKS / 4, 100);
        assert_eq!(ch.mode(), OpMode::ReadMode);
        assert!(ready >= 100 + dram::channel::FREQUENCY_TRANSITION_PS);
        let (d, outcome, _) = ch.read::<StdRng>(7, ready, None).unwrap();
        assert_eq!(d, data(0x11));
        assert_eq!(outcome, ReadOutcome::FastClean);
        assert_eq!(ch.stats().fast_reads, 1);
    }

    #[test]
    fn writes_forbidden_in_read_mode() {
        let (mut ch, t) = replicated();
        let err = ch.write(3, &data(1), t).unwrap_err();
        assert!(matches!(err, ProtocolError::WrongMode { .. }));
    }

    #[test]
    fn write_mode_entry_costs_one_transition_plus_safe_txs() {
        let (mut ch, t) = replicated();
        let w = ch.begin_write_mode(t).unwrap();
        let t_xs = dram::timing::MemorySetting::Specified.timing().t_xs_ps();
        assert_eq!(w, t + dram::channel::FREQUENCY_TRANSITION_PS + t_xs);
    }

    #[test]
    fn write_mode_round_trip_updates_copy() {
        let (mut ch, t) = replicated();
        let w = ch.begin_write_mode(t).unwrap();
        assert_eq!(ch.mode(), OpMode::WriteMode);
        ch.write(9, &data(0x42), w).unwrap();
        let r = ch.begin_read_mode(w + 10).unwrap();
        // The copy (fast path) has the new value.
        let (d, outcome, _) = ch.read::<StdRng>(9, r, None).unwrap();
        assert_eq!(d, data(0x42));
        assert_eq!(outcome, ReadOutcome::FastClean);
    }

    #[test]
    fn every_error_model_recovers_to_written_data() {
        // The paper's central claim, executed: no matter what
        // corruption hits the unsafely fast copies, reads return the
        // written data.
        let mut rng = StdRng::seed_from_u64(77);
        for model in ErrorModel::ALL {
            let (mut ch, mut t) = replicated();
            let w = ch.begin_write_mode(t).unwrap();
            ch.write(13, &data(0x5C), w).unwrap();
            t = ch.begin_read_mode(w).unwrap();
            let (d, outcome, end) = ch.read(13, t, Some((&mut rng, model))).unwrap();
            assert_eq!(d, data(0x5C), "{model:?} corrupted the result");
            assert_eq!(outcome, ReadOutcome::Recovered, "{model:?}");
            assert!(end > t, "recovery costs transitions");
            // Channel resumed fast operation; the copy is repaired.
            assert_eq!(ch.mode(), OpMode::ReadMode);
            let (d2, o2, _) = ch.read::<StdRng>(13, end, None).unwrap();
            assert_eq!(d2, data(0x5C));
            assert_eq!(o2, ReadOutcome::FastClean, "copy was repaired in place");
        }
    }

    #[test]
    fn trace_chains_detect_to_reread_and_marks_down_bin() {
        use telemetry::trace::{check_nesting, Ph, Tracer};
        let mut rng = StdRng::seed_from_u64(5);
        let mut ch = HeteroDmrChannel::with_governor(BLOCKS, EpochGovernor::new(1));
        let tracer = Tracer::new();
        ch.attach_trace(&tracer);
        let t = ch.set_used_blocks(BLOCKS / 4, 0);
        // One erroring read exhausts the single-error budget, so the
        // recovery chain ends in a down-bin.
        let (_, outcome, end) = ch
            .read(1, t, Some((&mut rng, ErrorModel::SingleByte)))
            .unwrap();
        assert_eq!(outcome, ReadOutcome::Recovered);
        assert_eq!(ch.mode(), OpMode::Degraded);
        let events = tracer.take();
        check_nesting(&events).unwrap();
        let find = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        let detect = find("ecc.detect");
        let reread = find("ecc.reread");
        let down_bin = find("down_bin");
        assert_eq!(detect.ph, Ph::Instant);
        assert_eq!(detect.start, t);
        assert_eq!(reread.parent, Some(detect.id), "reread caused by detect");
        assert_eq!((reread.start, reread.end), (t, end));
        assert_eq!(down_bin.parent, Some(reread.id));
        assert!(events.iter().any(|e| e.name == "mode.read_enter"));
        assert!(events.iter().any(|e| e.name == "mode.read_exit"));
        assert!(reread
            .args
            .iter()
            .any(|(k, v)| k == "outcome" && v == "degraded"));
    }

    #[test]
    fn recovery_costs_two_transitions() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut ch, t) = replicated();
        let before = ch.transitions();
        let (_, _, _end) = ch
            .read(21, t, Some((&mut rng, ErrorModel::FullBlock)))
            .unwrap();
        // Down to spec + back up.
        assert_eq!(ch.transitions(), before + 2);
    }

    #[test]
    fn governor_exhaustion_degrades_until_next_epoch() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ch = HeteroDmrChannel::with_governor(BLOCKS, EpochGovernor::new(2));
        let t = ch.set_used_blocks(BLOCKS / 4, 0);
        // Two erroring reads exhaust the budget.
        let (_, _, t1) = ch
            .read(1, t, Some((&mut rng, ErrorModel::SingleByte)))
            .unwrap();
        let (_, _, t2) = ch
            .read(2, t1, Some((&mut rng, ErrorModel::SingleByte)))
            .unwrap();
        assert_eq!(ch.mode(), OpMode::Degraded);
        // Degraded reads are safe and correct.
        let (d, outcome, _) = ch.read::<StdRng>(1, t2, None).unwrap();
        assert_eq!(outcome, ReadOutcome::Safe);
        assert_eq!(d, [0u8; 64]);
        // Next epoch: resumes.
        let resumed = ch.try_resume(crate::governor::EPOCH_PS + t2);
        assert!(resumed.is_some());
        assert_eq!(ch.mode(), OpMode::ReadMode);
    }

    #[test]
    fn natural_original_errors_are_corrected() {
        let mut rng = StdRng::seed_from_u64(9);
        let (mut ch, t) = replicated();
        let w = ch.begin_write_mode(t).unwrap();
        ch.write(30, &data(0x77), w).unwrap();
        // A ≤4-byte natural fault hits the original…
        ch.corrupt_original(30, &[(3, 0x10), (40, 0x02)]);
        let t = ch.begin_read_mode(w).unwrap();
        // …and the copy gets an out-of-spec error at the same time.
        let (d, outcome, _) = ch
            .read(30, t, Some((&mut rng, ErrorModel::ByteBurst(6))))
            .unwrap();
        assert_eq!(d, data(0x77), "recovery corrected the natural error too");
        assert_eq!(outcome, ReadOutcome::Recovered);
    }

    #[test]
    fn uncorrectable_original_is_reported_not_hidden() {
        let mut rng = StdRng::seed_from_u64(11);
        let (mut ch, t) = replicated();
        // Five corrupted bytes exceed RS-8 correction in the original.
        ch.corrupt_original(40, &[(0, 1), (10, 2), (20, 3), (30, 4), (40, 5)]);
        let err = ch
            .read(40, t, Some((&mut rng, ErrorModel::FullBlock)))
            .unwrap_err();
        assert_eq!(err, ProtocolError::UncorrectableOriginal { block: 40 });
    }

    #[test]
    fn deactivation_reverts_to_conventional() {
        let (mut ch, t) = replicated();
        let done = ch.set_used_blocks(BLOCKS * 3 / 2, t);
        assert_eq!(ch.mode(), OpMode::Conventional);
        let (_, outcome, _) = ch.read::<StdRng>(0, done, None).unwrap();
        assert_eq!(outcome, ReadOutcome::Safe);
    }

    #[test]
    fn permanent_fault_triggers_role_remap() {
        // Section III-E: a stuck cell in the copy module causes
        // recovery (and two frequency transitions) on EVERY fast read
        // of that block — until the roles are remapped, after which
        // reads are fast and clean again and the transitions stop.
        let (mut ch, mut t) = replicated();
        let w = ch.begin_write_mode(t).unwrap();
        ch.write(5, &data(0x66), w).unwrap();
        t = ch.begin_read_mode(w).unwrap();
        ch.inject_persistent_copy_fault(5);

        let mut outcomes = Vec::new();
        for _ in 0..6 {
            let (d, outcome, end) = ch.read::<StdRng>(5, t, None).unwrap();
            assert_eq!(d, data(0x66), "data always intact");
            outcomes.push(outcome);
            t = end;
        }
        // Three recoveries (the tracker's default threshold), then a
        // remap makes the remaining reads fast and clean.
        assert!(ch.roles_swapped(), "roles must have been remapped");
        assert_eq!(ch.stats().remaps, 1);
        assert_eq!(
            outcomes,
            vec![
                ReadOutcome::Recovered,
                ReadOutcome::Recovered,
                ReadOutcome::Recovered,
                ReadOutcome::FastClean,
                ReadOutcome::FastClean,
                ReadOutcome::FastClean,
            ]
        );
        let transitions_after_remap = ch.transitions();
        let (_, o, end) = ch.read::<StdRng>(5, t, None).unwrap();
        assert_eq!(o, ReadOutcome::FastClean);
        assert_eq!(
            ch.transitions(),
            transitions_after_remap,
            "no more transitions once remapped"
        );
        // The fault now sits under the originals: a safe read still
        // returns correct data (conventional ECC absorbs it).
        let t2 = ch.begin_write_mode(end).unwrap();
        let (d, o, _) = ch.read::<StdRng>(5, t2, None).unwrap();
        assert_eq!(d, data(0x66));
        assert_eq!(o, ReadOutcome::Safe);
    }

    #[test]
    fn transient_errors_do_not_remap() {
        let mut rng = StdRng::seed_from_u64(21);
        let (mut ch, mut t) = replicated();
        for block in 0..10u64 {
            let (_, _, end) = ch
                .read(block, t, Some((&mut rng, ErrorModel::SingleByte)))
                .unwrap();
            t = end;
        }
        assert!(!ch.roles_swapped(), "distinct transient errors never remap");
        assert_eq!(ch.stats().remaps, 0);
    }

    #[test]
    fn unwritten_blocks_read_as_zeros_everywhere() {
        let (mut ch, t) = replicated();
        let (d, outcome, _) = ch.read::<StdRng>(999, t, None).unwrap();
        assert_eq!(d, [0u8; 64]);
        assert_eq!(outcome, ReadOutcome::FastClean);
    }
}
