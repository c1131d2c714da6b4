//! Per-channel DDR4 memory controller.
//!
//! Models the Table IV controller: per-bank row-buffer state with the
//! hybrid page policy (close an idle row after a 200-cycle timeout),
//! data-bus serialization, refresh, and batched write drains with
//! read/write turnaround. The [`ChannelMode`] knobs turn the same
//! controller into the Commercial Baseline, FMR, Hetero-DMR, or
//! Hetero-DMR+FMR:
//!
//! * separate read-mode and write-mode timing sets (Hetero-DMR reads
//!   beyond spec, writes at spec),
//! * a per-switch turnaround penalty (the 1 µs frequency transition),
//! * large write batches fed by LLC cleaning and the victim writeback
//!   cache,
//! * read-rank restriction (only the Free Module is read), and
//! * FMR's read-from-the-faster-copy choice.
//!
//! # Scheduling structures
//!
//! The hot path is batched and data-oriented (the original
//! scan-and-sort forms survive as
//! [`crate::reference::ReferenceController`], the differential-test
//! referee):
//!
//! * the read queue is struct-of-arrays: parallel `Vec`s of arrival
//!   time, row, serving-bank index, bypass count, and token, walked by
//!   one tight branch-light pass per pick over dense integer arrays
//!   instead of pointer-chasing index walks,
//! * both FR-FCFS candidates — the oldest request and the oldest row
//!   hit, keyed `(arrival, slot)` where the slot component reproduces
//!   the old first-position tie-break exactly, because slots mirror
//!   the `swap_remove` positions the scans used to walk — are cached
//!   minima, making the pick itself `O(1)`: submissions can only
//!   lower them (one compare, plus one bank probe for the hit
//!   candidate),
//! * the post-pick pass does only what the pick kind needs. About two
//!   picks in three take the oldest request (or one arriving with
//!   it): nothing queued is strictly older, so nothing ages, and one
//!   read-only pass rebuilds both minima. The rest are row hits that
//!   bypass an older request (fairness picks are well under 1%): the
//!   oldest survives and is updated in `O(1)` — relabelled if
//!   `swap_remove` moved it, replaced by the moved request on an equal
//!   arrival with a lower slot — and one pass ages the strictly older
//!   requests and rebuilds the row-hit minimum,
//! * each bank's open row lives in a dense `Vec<u64>` apart from its
//!   timing gates, so that pass probes 8 bytes per queued read,
//! * the read and write timing sets are integer picosecond tables
//!   computed once per controller, so no access re-quantizes
//!   nanoseconds to clock cycles,
//! * completions live in a token→slot slab (`Vec` + free list) rather
//!   than a `HashMap`,
//! * pending writes live in a plain `Vec` keyed `(rank·bank, row,
//!   column)`: enqueue is a push, and a drain sorts the queue once,
//!   issues every entry in key order and leaves it empty, and
//! * refresh catch-up is computed in closed form instead of walking
//!   one tREFI at a time.
//!
//! Statistics accrue into plain per-controller values (no atomics in
//! the loop): [`ChannelController::stats`] returns them, and
//! [`ChannelController::publish`] writes them into a registry scope
//! once, at run end.

use crate::address::DramCoord;
use crate::config::{ChannelMode, MemoryConfig};
use dram::timing::TimingParams;
use dram::Picos;
use telemetry::{HistogramSnapshot, Scope};

/// How many younger row-hit requests may bypass an older request
/// before age wins — Table IV's "FR-FCFS scheduling policy with bank
/// fairness".
const MAX_BYPASS: u32 = 64;

/// Queued untracked (prefetch) reads past which new ones are dropped,
/// as real prefetchers throttle under queue pressure.
const MAX_QUEUED_PREFETCHES: usize = 192;

/// Token handed out for untracked (fire-and-forget) reads. Callers
/// never resolve these, so no completion slot is consumed.
const UNTRACKED_TOKEN: u64 = u64::MAX;

/// Sentinel for "no row open" in a bank's row-buffer slot. Real rows
/// come from address bits and can never reach `u64::MAX`.
const ROW_NONE: u64 = u64::MAX;

/// Aggregate controller statistics: the controller's own event
/// counts, a plain value type for result assembly and comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Demand + prefetch reads served from DRAM.
    pub reads: u64,
    /// Writes drained to DRAM (including LLC-cleaning writes).
    pub writes: u64,
    /// Row activations.
    pub activates: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Loads serviced by the victim writeback cache (no DRAM access).
    pub wb_cache_hits: u64,
    /// Read→write→read mode round trips.
    pub write_mode_entries: u64,
    /// Total time the data bus carried bursts.
    pub bus_busy_ps: Picos,
    /// Sum of read latencies (arrival → last data beat).
    pub read_latency_sum_ps: Picos,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Extra DRAM-cell writes from broadcasting to copies.
    pub broadcast_extra_cells: u64,
}

impl ControllerStats {
    /// Row-buffer hit rate over all column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// DRAMPower-style bank-state residency: per-bank time-in-state
/// (active, precharged, refreshing, self-refresh) and command edges,
/// accumulated from the same bank-state transitions the controller
/// already schedules around. This is the simulated-behaviour input
/// the `energy` crate's residency model consumes — deliberately *not*
/// part of [`ControllerStats`], which the frozen reference controller
/// must keep matching field-for-field.
///
/// All `*_bank_ps` fields are bank·picoseconds (one bank active for
/// 2 ps and two banks active for 1 ps both read 2). The precharged
/// residue is derived, not accumulated: see
/// [`precharged_bank_ps`](ResidencyStats::precharged_bank_ps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Bank·time with a row open (activate state).
    pub active_bank_ps: Picos,
    /// Bank·time inside controller-issued tRFC refresh windows.
    pub refresh_bank_ps: Picos,
    /// Bank·time in self-refresh (Hetero-DMR's parked original-module
    /// ranks; zero for conventional modes).
    pub self_refresh_bank_ps: Picos,
    /// Channel time spent in write-mode drains, transitions included.
    pub write_mode_ps: Picos,
    /// Row-activate edges, explicit and broadcast-implied.
    pub act_edges: u64,
    /// Precharge edges: conflict closes, timeout closes, and the
    /// all-bank precharge a refresh implies.
    pub pre_edges: u64,
    /// Banks behind this accumulator (summed across channels when
    /// merged).
    pub banks: u64,
    /// The horizon the residency was finalized at (max when merged).
    pub end_ps: Picos,
}

impl ResidencyStats {
    /// Bank·time precharged-idle: whatever part of `banks × end_ps`
    /// is not active, refreshing, or self-refreshing.
    pub fn precharged_bank_ps(&self) -> Picos {
        (self.banks * self.end_ps)
            .saturating_sub(self.active_bank_ps)
            .saturating_sub(self.refresh_bank_ps)
            .saturating_sub(self.self_refresh_bank_ps)
    }

    /// Accumulates another channel's residency into this one.
    pub fn merge(&mut self, other: &ResidencyStats) {
        self.active_bank_ps += other.active_bank_ps;
        self.refresh_bank_ps += other.refresh_bank_ps;
        self.self_refresh_bank_ps += other.self_refresh_bank_ps;
        self.write_mode_ps += other.write_mode_ps;
        self.act_edges += other.act_edges;
        self.pre_edges += other.pre_edges;
        self.banks += other.banks;
        self.end_ps = self.end_ps.max(other.end_ps);
    }
}

/// A bank's timing gates. Its open row lives apart, in
/// [`ChannelController`]'s dense `open_rows` array, which the post-pick
/// pass probes once per queued read.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// When the currently open row was activated (meaningful only
    /// while a row is open); closes accrue `active_bank_ps`.
    open_since: Picos,
    /// Earliest next ACT (gated by tRP after precharge / tRFC).
    act_allowed_at: Picos,
    /// Earliest next column command (gated by tRCD after ACT and by
    /// tCCD pipelining between bursts).
    next_column_at: Picos,
    /// Earliest precharge (gated by tRAS / tRTP / write recovery).
    pre_allowed_at: Picos,
    /// Last column access (drives the hybrid page-policy timeout).
    last_use: Picos,
}

/// One timing set in picoseconds, read from its [`TimingParams`]
/// accessors once, when the controller is built: each accessor
/// re-quantizes nanoseconds to whole clock cycles, which the per-access
/// path cannot afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimingTable {
    t_rcd: Picos,
    t_rp: Picos,
    t_ras: Picos,
    /// CL, the read column latency.
    cas: Picos,
    /// CWL, the write column latency.
    cwl: Picos,
    t_rtp: Picos,
    t_wr: Picos,
    t_wtr: Picos,
    t_rfc: Picos,
    t_refi: Picos,
    /// One 64-byte burst on the data bus.
    burst: Picos,
}

impl TimingTable {
    fn new(t: &TimingParams) -> TimingTable {
        TimingTable {
            t_rcd: t.t_rcd_ps(),
            t_rp: t.t_rp_ps(),
            t_ras: t.t_ras_ps(),
            cas: t.t_cas_ps(),
            cwl: t.t_cwl_ps(),
            t_rtp: t.t_rtp_ps(),
            t_wr: t.t_wr_ps(),
            t_wtr: t.t_wtr_ps(),
            t_rfc: t.t_rfc_ps(),
            t_refi: t.t_refi_ps(),
            burst: t.burst_ps(),
        }
    }
}

/// A completion slot in the token slab.
#[derive(Debug, Clone, Copy)]
enum Completion {
    /// Slot available for reuse.
    Free,
    /// Submitted, not yet scheduled.
    Pending,
    /// Scheduled; holds the completion time until resolved.
    Done(Picos),
}

/// Pending-write sort key: `(rank·bank, row, column)` — rank and bank
/// packed into one word (both are far below 2³²), ordering identical
/// to the reference controller's `(rank, bank, row, column)` sort.
type WriteKey = (u64, u64, u64);

/// One channel's memory controller.
#[derive(Debug)]
pub struct ChannelController {
    mode: ChannelMode,
    mem: MemoryConfig,
    /// `mode.read_timing` and `mode.write_timing` in picoseconds.
    read_ps: TimingTable,
    write_ps: TimingTable,
    banks: Vec<BankState>,
    /// Per-bank open row, or [`ROW_NONE`] when the bank is precharged;
    /// indexed like `banks`.
    open_rows: Vec<u64>,
    bus_free_at: Picos,
    /// Reads are blocked until this time while a write drain runs.
    write_mode_until: Picos,
    /// Per-rank next scheduled refresh.
    next_refresh: Vec<Picos>,
    /// Pending writes in arrival order; a drain sorts and empties it.
    write_queue: Vec<WriteKey>,
    /// Struct-of-arrays read queue awaiting FR-FCFS scheduling; the
    /// four parallel `Vec`s share slot indexes and `swap_remove`
    /// together. `rq_token` doubles as the tracked flag
    /// ([`UNTRACKED_TOKEN`] = fire-and-forget).
    rq_arrival: Vec<Picos>,
    rq_row: Vec<u64>,
    rq_bank: Vec<u32>,
    rq_bypasses: Vec<u32>,
    rq_token: Vec<u64>,
    /// Cached minimum `(arrival, slot)` over the queue — the oldest
    /// request with the original first-position tie-break. A
    /// submission can only lower it; after a pick it is rebuilt when
    /// the pick was (or tied) the oldest, and updated in `O(1)` when a
    /// row hit bypassed it.
    oldest: Option<(Picos, u32)>,
    /// Cached minimum `(arrival, slot)` over queued requests whose
    /// serving bank currently holds their row open — the FR-FCFS
    /// row-hit pick. Exact between picks because bank state only
    /// changes inside [`schedule_one_read`](Self::schedule_one_read)
    /// (whose post-pick pass rebuilds this against the post-serve bank
    /// states) and inside write drains (which run with the read queue
    /// empty); submissions update it in `O(1)` with one bank probe.
    best_hit: Option<(Picos, u32)>,
    /// Queued untracked (prefetch) reads, for the drop threshold.
    untracked_queued: usize,
    /// Completion slab for tracked reads; tokens are slot indexes.
    completions: Vec<Completion>,
    free_slots: Vec<u32>,
    /// Hybrid page policy timeout.
    page_timeout_ps: Picos,
    /// Bank time-in-state accumulator (plain fields, not atomics: one
    /// add per row close keeps the hot path cheap).
    residency: ResidencyStats,
    /// Set once [`finalize_residency`](Self::finalize_residency) has
    /// closed the books; further calls are no-ops.
    residency_final: bool,
    stats: ControllerStats,
    /// Per-read latency distribution (arrival → last data beat).
    read_latency: HistogramSnapshot,
}

impl ChannelController {
    /// Creates a controller for one channel.
    pub fn new(mode: ChannelMode, mem: MemoryConfig, page_timeout_ps: Picos) -> ChannelController {
        let ranks = mem.ranks_per_channel();
        let read_ps = TimingTable::new(&mode.read_timing);
        let refi = read_ps.t_refi;
        let bank_count = ranks * mem.banks_per_rank;
        ChannelController {
            mode,
            mem,
            read_ps,
            write_ps: TimingTable::new(&mode.write_timing),
            banks: vec![BankState::default(); bank_count],
            open_rows: vec![ROW_NONE; bank_count],
            bus_free_at: 0,
            write_mode_until: 0,
            next_refresh: (0..ranks).map(|r| refi + r as Picos * 100_000).collect(),
            write_queue: Vec::new(),
            rq_arrival: Vec::new(),
            rq_row: Vec::new(),
            rq_bank: Vec::new(),
            rq_bypasses: Vec::new(),
            rq_token: Vec::new(),
            oldest: None,
            best_hit: None,
            untracked_queued: 0,
            completions: Vec::new(),
            free_slots: Vec::new(),
            page_timeout_ps,
            residency: ResidencyStats::default(),
            residency_final: false,
            stats: ControllerStats::default(),
            read_latency: HistogramSnapshot::default(),
        }
    }

    /// The behaviour knobs this controller runs with.
    pub fn mode(&self) -> &ChannelMode {
        &self.mode
    }

    /// Statistics so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Closes the residency books at horizon `end`: charges still-open
    /// rows, credits the parked (read-rank-restricted) ranks with
    /// self-refresh time, and stamps the bank count and horizon.
    /// Idempotent — only the first call accrues.
    pub fn finalize_residency(&mut self, end: Picos) -> ResidencyStats {
        if !self.residency_final {
            self.residency_final = true;
            let banks_per_rank = self.mem.banks_per_rank;
            let first_read_rank = match self.mode.read_ranks {
                Some(n) => self.mem.ranks_per_channel() - n,
                None => 0,
            };
            for idx in 0..self.banks.len() {
                let bank = &self.banks[idx];
                if self.open_rows[idx] != ROW_NONE {
                    // Parked ranks precharge when they re-enter
                    // self-refresh after their last write burst;
                    // everyone else holds the row to the horizon.
                    let close = if idx / banks_per_rank < first_read_rank {
                        bank.last_use.min(end)
                    } else {
                        end
                    };
                    self.residency.active_bank_ps += close.saturating_sub(bank.open_since);
                    self.residency.pre_edges += 1;
                    self.open_rows[idx] = ROW_NONE;
                }
            }
            // Parked ranks self-refresh whenever the channel is not in
            // a write-mode drain (the only time they are woken).
            let sr_banks = (first_read_rank * banks_per_rank) as Picos;
            self.residency.self_refresh_bank_ps +=
                sr_banks * end.saturating_sub(self.residency.write_mode_ps);
            self.residency.banks = self.banks.len() as u64;
            self.residency.end_ps = self.residency.end_ps.max(end);
        }
        self.residency
    }

    /// Writes this controller's statistics, residency totals and
    /// read-latency histogram into `scope`, every name registered even
    /// when its value is 0. Call it once, after
    /// [`finalize_residency`](Self::finalize_residency): the residency
    /// counters publish the totals as they stand.
    pub fn publish(&self, scope: &Scope) {
        let (s, r) = (&self.stats, &self.residency);
        for (name, value) in [
            ("reads", s.reads),
            ("writes", s.writes),
            ("activates", s.activates),
            ("row_hits", s.row_hits),
            ("wb_cache_hits", s.wb_cache_hits),
            ("write_mode_entries", s.write_mode_entries),
            ("bus_busy_ps", s.bus_busy_ps),
            ("read_latency_sum_ps", s.read_latency_sum_ps),
            ("refreshes", s.refreshes),
            ("broadcast_extra_cells", s.broadcast_extra_cells),
            ("residency_active_bank_ps", r.active_bank_ps),
            ("residency_refresh_bank_ps", r.refresh_bank_ps),
            ("residency_self_refresh_bank_ps", r.self_refresh_bank_ps),
            ("residency_write_mode_ps", r.write_mode_ps),
        ] {
            scope.counter(name).add(value);
        }
        scope
            .histogram("read_latency_ps")
            .merge_snapshot(&self.read_latency);
    }

    /// Record a read served by the channel's write-back cache instead
    /// of DRAM. The cache sits outside the controller, but the tally
    /// belongs with the rest of the channel's read statistics.
    pub fn note_wb_cache_hit(&mut self) {
        self.stats.wb_cache_hits += 1;
    }

    /// Pending (queued, not yet drained) writes.
    pub fn pending_writes(&self) -> usize {
        self.write_queue.len()
    }

    fn bank_index(&self, rank: usize, bank: usize) -> usize {
        rank * self.mem.banks_per_rank + bank
    }

    /// Applies any refresh obligation for `rank` that has come due.
    /// Under read-rank restriction (Hetero-DMR), only the readable
    /// (Free Module) ranks are controller-refreshed — the others sit
    /// in self-refresh.
    fn apply_refresh(&mut self, rank: usize, now: Picos) {
        if let Some(read_ranks) = self.mode.read_ranks {
            let first_read_rank = self.mem.ranks_per_channel() - read_ranks;
            if rank < first_read_rank {
                return; // self-refreshed original module
            }
        }
        let due = self.next_refresh[rank];
        if due > now {
            return;
        }
        let t = self.read_ps;
        let refi = t.t_refi;
        // All due refreshes collapse into one bank update: maxing the
        // bank gates against each window's ascending end time equals
        // maxing against the last, and closing the row is idempotent.
        let catch_up = (now - due) / refi;
        let end = due + catch_up * refi + t.t_rfc;
        for b in 0..self.mem.banks_per_rank {
            let idx = self.bank_index(rank, b);
            let bank = &mut self.banks[idx];
            let open_row = &mut self.open_rows[idx];
            if *open_row != ROW_NONE {
                // Refresh implies an all-bank precharge at the window
                // edge; the open row's active time ends there.
                self.residency.active_bank_ps += due.saturating_sub(bank.open_since);
                self.residency.pre_edges += 1;
            }
            bank.act_allowed_at = bank.act_allowed_at.max(end);
            bank.next_column_at = bank.next_column_at.max(end);
            *open_row = ROW_NONE;
        }
        self.next_refresh[rank] = due + (catch_up + 1) * refi;
        self.residency.refresh_bank_ps +=
            (catch_up + 1) * t.t_rfc * self.mem.banks_per_rank as Picos;
        self.stats.refreshes += catch_up + 1;
    }

    /// The rank a *read* is served from, honouring the Free-Module
    /// restriction.
    fn read_rank(&self, home_rank: usize) -> usize {
        match self.mode.read_ranks {
            Some(n) => {
                let base = self.mem.ranks_per_channel() - n;
                base + home_rank % n
            }
            None => home_rank,
        }
    }

    /// Enqueues a read into the FR-FCFS read queue. Returns a token to
    /// resolve the completion with (meaningless when `tracked` is
    /// false — fire-and-forget prefetch traffic).
    ///
    /// Prefetch requests are dropped when too many are already queued,
    /// as real prefetchers throttle under queue pressure.
    pub fn submit_read(&mut self, coord: DramCoord, arrival: Picos, tracked: bool) -> u64 {
        let token = if tracked {
            match self.free_slots.pop() {
                Some(slot) => {
                    self.completions[slot as usize] = Completion::Pending;
                    slot as u64
                }
                None => {
                    self.completions.push(Completion::Pending);
                    (self.completions.len() - 1) as u64
                }
            }
        } else {
            if self.untracked_queued >= MAX_QUEUED_PREFETCHES {
                return UNTRACKED_TOKEN;
            }
            self.untracked_queued += 1;
            UNTRACKED_TOKEN
        };
        let bank_idx = self.bank_index(self.read_rank(coord.rank), coord.bank) as u32;
        let pos = self.rq_arrival.len() as u32;
        self.rq_arrival.push(arrival);
        self.rq_row.push(coord.row);
        self.rq_bank.push(bank_idx);
        self.rq_bypasses.push(0);
        self.rq_token.push(token);
        let key = (arrival, pos);
        if self.oldest.is_none_or(|b| key < b) {
            self.oldest = Some(key);
        }
        if self.open_rows[bank_idx as usize] == coord.row && self.best_hit.is_none_or(|b| key < b) {
            self.best_hit = Some(key);
        }
        token
    }

    /// Schedules every queued read (FR-FCFS: row hits first, oldest
    /// otherwise, with the bank-fairness bypass cap) and records
    /// completions for tracked tokens.
    pub fn process_reads(&mut self) {
        while !self.rq_arrival.is_empty() {
            self.schedule_one_read();
        }
    }

    /// Schedules exactly one queued read (FR-FCFS pick).
    fn schedule_one_read(&mut self) {
        let pick = self.pick_next_read() as usize;
        // Remove the pick from every parallel array; slots relocate by
        // `swap_remove`, mirroring the old AoS queue exactly.
        let arrival = self.rq_arrival.swap_remove(pick);
        let row = self.rq_row.swap_remove(pick);
        let bank_idx = self.rq_bank.swap_remove(pick);
        self.rq_bypasses.swap_remove(pick);
        let token = self.rq_token.swap_remove(pick);
        if token == UNTRACKED_TOKEN {
            self.untracked_queued -= 1;
        }
        // Serve before the post-pick pass: the DRAM work below is what
        // changes bank state, and the pass's row-hit rebuild must see
        // the state the *next* pick will be scheduled against.
        let done = self.serve_read(bank_idx as usize, row, arrival);
        if token != UNTRACKED_TOKEN {
            self.completions[token as usize] = Completion::Done(done);
        }
        // One pass over the shrunk queue rebuilds the cached row-hit
        // key against the post-serve bank states. What else it does
        // depends on the pick. Strict `<` keeps the first occurrence of
        // each minimum arrival, which is exactly the minimum
        // `(arrival, slot)` pair.
        let (oldest_arrival, oldest_slot) = self.oldest.expect("picked from a nonempty queue");
        let ChannelController {
            open_rows,
            rq_arrival,
            rq_row,
            rq_bank,
            rq_bypasses,
            ..
        } = self;
        let mut hit_arrival = Picos::MAX;
        let mut hit_slot = u32::MAX;
        if arrival == oldest_arrival {
            // The pick is (or ties) the oldest: nothing queued is
            // strictly older, so nothing ages. Rebuild both minima
            // read-only.
            let mut best_arrival = Picos::MAX;
            let mut best_slot = u32::MAX;
            for (i, (&a, (&qrow, &qbank))) in rq_arrival
                .iter()
                .zip(rq_row.iter().zip(rq_bank.iter()))
                .enumerate()
            {
                if a < best_arrival {
                    best_arrival = a;
                    best_slot = i as u32;
                }
                // `ROW_NONE` (closed bank) never equals a real row.
                if open_rows[qbank as usize] == qrow && a < hit_arrival {
                    hit_arrival = a;
                    hit_slot = i as u32;
                }
            }
            self.oldest = (best_slot != u32::MAX).then_some((best_arrival, best_slot));
        } else {
            // A row hit bypassed the oldest, which therefore survives.
            // `swap_remove` moved the last slot into `pick`, and only
            // that request's key changed: it takes over when its new key
            // is smaller. That relabels the oldest when it was the one
            // moved, and otherwise needs an equal arrival.
            let moved = rq_arrival.len();
            let mut oldest = (oldest_arrival, oldest_slot);
            if pick < moved && (rq_arrival[pick], pick as u32) < oldest {
                oldest = (rq_arrival[pick], pick as u32);
            }
            self.oldest = Some(oldest);
            // Age every request the pick bypassed toward the fairness
            // cap.
            for (i, ((&a, byp), (&qrow, &qbank))) in rq_arrival
                .iter()
                .zip(rq_bypasses.iter_mut())
                .zip(rq_row.iter().zip(rq_bank.iter()))
                .enumerate()
            {
                *byp += (a < arrival) as u32;
                if open_rows[qbank as usize] == qrow && a < hit_arrival {
                    hit_arrival = a;
                    hit_slot = i as u32;
                }
            }
        }
        self.best_hit = (hit_slot != u32::MAX).then_some((hit_arrival, hit_slot));
    }

    /// FR-FCFS pick: the oldest row-hit request, unless the oldest
    /// overall has been bypassed too often (bank fairness), in which
    /// case age wins. `O(1)`: both candidates are cached minima —
    /// kept by the post-pick pass and lowered incrementally by
    /// submissions (every queued bank index respects the read-rank
    /// restriction by construction).
    fn pick_next_read(&self) -> u32 {
        let (_, oldest) = self.oldest.expect("nonempty queue");
        if self.rq_bypasses[oldest as usize] >= MAX_BYPASS {
            return oldest;
        }
        match self.best_hit {
            Some((_, slot)) => slot,
            None => oldest,
        }
    }

    /// The completion time of a previously submitted tracked read.
    /// Schedules only as much of the queue as needed — younger
    /// requests stay pending so later arrivals can still be reordered
    /// against them.
    ///
    /// # Panics
    ///
    /// Panics if the token was never submitted as tracked (or resolved
    /// twice).
    pub fn resolve_read(&mut self, token: u64) -> Picos {
        loop {
            if let Some(Completion::Done(done)) = self.completions.get(token as usize).copied() {
                self.completions[token as usize] = Completion::Free;
                self.free_slots.push(token as u32);
                return done;
            }
            assert!(
                !self.rq_arrival.is_empty(),
                "token submitted, tracked, and not yet resolved"
            );
            self.schedule_one_read();
        }
    }

    /// Performs the DRAM work of one read at its scheduling point.
    /// `bank_idx` is the precomputed serving-bank index (read-rank
    /// restriction already applied).
    fn serve_read(&mut self, bank_idx: usize, row: u64, arrival: Picos) -> Picos {
        let now = arrival.max(self.write_mode_until);
        let rank = bank_idx / self.mem.banks_per_rank;
        let bank = bank_idx % self.mem.banks_per_rank;
        self.apply_refresh(rank, now);

        // FMR: the block also lives in a paired rank; read whichever
        // copy's bank is in the faster state. Under Hetero-DMR+FMR the
        // pair lives inside the readable (Free Module) rank set.
        let idx = if self.mode.fmr_read_choice {
            let total = self.mem.ranks_per_channel();
            let mirror = match self.mode.read_ranks {
                Some(n) if n > 1 => {
                    let base = total - n;
                    base + (rank - base + 1) % n
                }
                Some(_) => rank,
                None => (rank + total / 2) % total,
            };
            self.apply_refresh(mirror, now);
            let b = self.bank_index(mirror, bank);
            self.faster_bank(bank_idx, b, row, now)
        } else {
            bank_idx
        };

        let (data_end, hit) = self.column_access(idx, row, now, true);
        self.stats.reads += 1;
        self.stats.row_hits += hit as u64;
        let latency = data_end.saturating_sub(arrival);
        self.stats.read_latency_sum_ps += latency;
        self.read_latency.record(latency);
        data_end
    }

    /// Which of two candidate banks serves a read sooner (FMR's
    /// "faster state" choice): prefer whichever copy's row buffer
    /// already holds the requested row; when both would conflict,
    /// take the bank that frees up sooner (the "e.g., in row buffer"
    /// of the paper covers both effects).
    fn faster_bank(&self, home: usize, mirror: usize, row: u64, now: Picos) -> usize {
        let open = |i: usize| {
            self.open_rows[i] == row
                && now.saturating_sub(self.banks[i].last_use) <= self.page_timeout_ps
        };
        match (open(home), open(mirror)) {
            (true, _) => home,
            (false, true) => mirror,
            (false, false) => {
                // Conflict on both: divert to the mirror only when it
                // frees up substantially sooner (a full precharge
                // earlier) — the copy is a spare, not a second port.
                let margin = self.read_ps.t_rp + self.read_ps.t_rcd;
                if self.banks[mirror].pre_allowed_at + margin < self.banks[home].pre_allowed_at {
                    mirror
                } else {
                    home
                }
            }
        }
    }

    /// Performs one column access on bank `idx` at the read-mode or
    /// write-mode timing, returning (last data beat time, was it a row
    /// hit).
    fn column_access(&mut self, idx: usize, row: u64, now: Picos, is_read: bool) -> (Picos, bool) {
        let t = if is_read {
            &self.read_ps
        } else {
            &self.write_ps
        };
        let page_timeout = self.page_timeout_ps;
        let bank = &mut self.banks[idx];
        let open_row = &mut self.open_rows[idx];

        // Hybrid page policy: a row idle past the timeout was closed in
        // the background (precharge already complete by access time if
        // the idle gap also covered tRP).
        if *open_row != ROW_NONE && now.saturating_sub(bank.last_use) > page_timeout {
            let closed_at = bank.pre_allowed_at.max(bank.last_use + page_timeout);
            *open_row = ROW_NONE;
            bank.act_allowed_at = bank.act_allowed_at.max(closed_at + t.t_rp);
            self.residency.active_bank_ps += closed_at.saturating_sub(bank.open_since);
            self.residency.pre_edges += 1;
        }

        let cas = if is_read { t.cas } else { t.cwl };
        let (cmd_time, hit) = if *open_row == row {
            (now.max(bank.next_column_at), true)
        } else if *open_row != ROW_NONE {
            // Conflict: PRE + ACT + column.
            let pre_at = now.max(bank.pre_allowed_at);
            let act_at = pre_at + t.t_rp;
            self.stats.activates += 1;
            self.residency.active_bank_ps += pre_at.saturating_sub(bank.open_since);
            self.residency.pre_edges += 1;
            self.residency.act_edges += 1;
            *open_row = row;
            bank.open_since = act_at;
            bank.pre_allowed_at = act_at + t.t_ras;
            (act_at + t.t_rcd, false)
        } else {
            let act_at = now.max(bank.act_allowed_at);
            self.stats.activates += 1;
            self.residency.act_edges += 1;
            *open_row = row;
            bank.open_since = act_at;
            bank.pre_allowed_at = act_at + t.t_ras;
            (act_at + t.t_rcd, false)
        };
        // Serialize the burst on the data bus; the command is delayed
        // as needed so its data slot aligns with a free bus.
        let data_start = (cmd_time + cas).max(self.bus_free_at);
        let data_end = data_start + t.burst;
        let effective_cmd = data_start - cas;
        self.bus_free_at = data_end;
        self.stats.bus_busy_ps += t.burst;

        let bank = &mut self.banks[idx];
        bank.last_use = data_end;
        // Column commands pipeline at tCCD (= one burst).
        bank.next_column_at = effective_cmd + t.burst;
        bank.pre_allowed_at = if is_read {
            bank.pre_allowed_at.max(effective_cmd + t.t_rtp)
        } else {
            bank.pre_allowed_at.max(data_end + t.t_wr)
        };
        (data_end, hit)
    }

    /// Applies a broadcast write's effect on a copy rank's bank: the
    /// row buffer takes the written row and the bank is busy through
    /// write recovery, with no bus occupancy of its own.
    fn shadow_write(&mut self, idx: usize, row: u64, end: Picos) {
        let bank = &mut self.banks[idx];
        let open_row = &mut self.open_rows[idx];
        if *open_row != row {
            self.stats.activates += 1;
            if *open_row != ROW_NONE {
                self.residency.active_bank_ps += end.saturating_sub(bank.open_since);
                self.residency.pre_edges += 1;
            }
            self.residency.act_edges += 1;
            bank.open_since = end;
        }
        *open_row = row;
        bank.last_use = end;
        bank.next_column_at = bank.next_column_at.max(end);
        bank.pre_allowed_at = bank.pre_allowed_at.max(end + self.write_ps.t_wr);
    }

    /// Queues a write (an LLC writeback that missed or overflowed the
    /// victim writeback cache, or a drained victim / LLC-cleaning
    /// block fed in just before a drain).
    pub fn enqueue_write(&mut self, coord: DramCoord) {
        let rank_bank = ((coord.rank as u64) << 32) | coord.bank as u64;
        self.write_queue.push((rank_bank, coord.row, coord.column));
    }

    /// Enters write mode at `now` and drains every pending write,
    /// leaving the queue empty. Returns the time the channel is back
    /// in read mode.
    ///
    /// The sequence models Hetero-DMR's Figure 8a: (optional frequency
    /// transition down), batched writes at the write-mode timing,
    /// (optional transition back up).
    pub fn drain_writes(&mut self, now: Picos) -> Picos {
        // Reads already queued were issued before the drain decision.
        self.process_reads();
        let t = self.write_ps;
        if self.write_queue.is_empty() {
            return now;
        }
        self.stats.write_mode_entries += 1;

        // Transition into write mode: wait for the bus, pay turnaround.
        let entered = now.max(self.bus_free_at);
        let start = entered + t.t_wtr + self.mode.turnaround_penalty_ps;
        self.bus_free_at = start;

        // FR-FCFS freely reorders the drained batch for row locality:
        // the sorted queue iterates grouped by bank and row, so most
        // writes issue as row hits.
        let mut queue = std::mem::take(&mut self.write_queue);
        queue.sort_unstable();
        let mut clock = start;
        for &(rank_bank, row, _column) in &queue {
            let rank = (rank_bank >> 32) as usize;
            let bank = (rank_bank & 0xFFFF_FFFF) as usize;
            self.apply_refresh(rank, start);
            // Writes pipeline: each issues as soon as its bank and the
            // data bus allow (the bus serializes bursts; banks overlap).
            let (end, hit) = self.column_access(self.bank_index(rank, bank), row, start, false);
            self.stats.writes += 1;
            self.stats.row_hits += hit as u64;
            if self.mode.broadcast_copies > 0 {
                self.stats.broadcast_extra_cells += self.mode.broadcast_copies as u64;
                // The broadcast transaction also lands in the copy
                // rank(s): no extra bus time, but the copy bank's row
                // buffer now holds the written row and the bank is
                // busy through write recovery.
                let total = self.mem.ranks_per_channel();
                let copy_rank = match self.mode.read_ranks {
                    Some(n) if n > 0 => total - n + rank % n,
                    _ => (rank + total / 2) % total,
                };
                if copy_rank != rank {
                    self.shadow_write(self.bank_index(copy_rank, bank), row, end);
                }
            }
            clock = clock.max(end);
        }
        // Keep the allocation for the next batch.
        queue.clear();
        self.write_queue = queue;

        // Transition back to read mode.
        let resume = clock + t.t_wtr + self.mode.turnaround_penalty_ps;
        self.residency.write_mode_ps += resume.saturating_sub(entered);
        self.bus_free_at = resume;
        // A conventional controller interleaves reads with its short
        // write bursts (they contend only for bus and banks, which
        // `column_access` already charges). A frequency-scaling design
        // cannot: the channel is locked at the safe setting for the
        // whole write mode, transitions included.
        if self.mode.turnaround_penalty_ps > 0 {
            self.write_mode_until = resume;
        }
        resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn coord(rank: usize, bank: usize, row: u64, col: u64) -> DramCoord {
        DramCoord {
            channel: 0,
            rank,
            bank,
            row,
            column: col,
        }
    }

    fn controller(mode: ChannelMode) -> ChannelController {
        let h = HierarchyConfig::hierarchy1();
        ChannelController::new(mode, h.memory, h.core.page_timeout_ps())
    }

    /// One-shot read through the pipeline API.
    fn read_now(c: &mut ChannelController, coord: DramCoord, now: Picos) -> Picos {
        let token = c.submit_read(coord, now, true);
        c.resolve_read(token)
    }

    #[test]
    fn row_hit_faster_than_row_miss() {
        let mut c = controller(ChannelMode::commercial_baseline());
        let first = read_now(&mut c, coord(0, 0, 10, 0), 0); // cold: ACT + CL
        let hit = read_now(&mut c, coord(0, 0, 10, 1), first) - first;
        let miss = read_now(&mut c, coord(0, 0, 99, 0), first * 4) - first * 4;
        assert!(hit < miss, "hit {hit} vs miss {miss}");
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().activates, 2);
    }

    #[test]
    fn bus_serializes_parallel_banks() {
        let mut c = controller(ChannelMode::commercial_baseline());
        // Two same-time reads to different banks: second's data must
        // wait for the first burst to clear the bus.
        let a = read_now(&mut c, coord(0, 0, 1, 0), 0);
        let b = read_now(&mut c, coord(0, 1, 1, 0), 0);
        let t = ChannelMode::commercial_baseline().read_timing;
        assert!(b >= a + t.burst_ps());
    }

    #[test]
    fn faster_rate_reduces_latency_under_load() {
        let spec = ChannelMode::commercial_baseline();
        let fast_mode = spec
            .to_builder()
            .read_timing(dram::timing::MemorySetting::FreqLatMargin.timing())
            .build()
            .expect("fast reads over spec writes are valid");
        let mut slow = controller(spec);
        let mut fast = controller(fast_mode);
        // Saturate the bus: arrivals come faster than service.
        let (mut ts, mut tf) = (0, 0);
        for i in 0..2_000u64 {
            let arrival = i * 500; // one request every 0.5 ns
            ts = read_now(&mut slow, coord(0, 0, 5, i % 128), arrival);
            tf = read_now(&mut fast, coord(0, 0, 5, i % 128), arrival);
        }
        assert!(
            tf < ts,
            "4000 MT/s stream must finish sooner: fast {tf} vs slow {ts}"
        );
        // Bandwidth-bound: the ratio approaches the 4000/3200 rate gap.
        let ratio = ts as f64 / tf as f64;
        assert!(ratio > 1.15 && ratio < 1.30, "ratio {ratio}");
    }

    #[test]
    fn hybrid_policy_closes_idle_rows() {
        let mut c = controller(ChannelMode::commercial_baseline());
        let t = ChannelMode::commercial_baseline().read_timing;
        let first = read_now(&mut c, coord(0, 0, 10, 0), 0);
        // Long idle: the row times out and is closed in background, so
        // a different-row access skips the precharge.
        let late = first + 10_000_000;
        let miss = read_now(&mut c, coord(0, 0, 20, 0), late) - late;
        // Closed-page access: ACT + CL + burst, no tRP on the critical
        // path.
        let expect = t.t_rcd_ps() + t.t_cas_ps() + t.burst_ps();
        assert_eq!(miss, expect);
    }

    #[test]
    fn write_drain_contends_with_reads_on_the_bus() {
        let mut c = controller(ChannelMode::commercial_baseline());
        for i in 0..64 {
            c.enqueue_write(coord(0, (i % 16) as usize, 3, i));
        }
        let resume = c.drain_writes(1_000);
        assert!(resume > 1_000);
        assert_eq!(c.stats().writes, 64);
        assert_eq!(c.pending_writes(), 0);
        // A conventional controller interleaves: the read only waits
        // for the bus the drain booked, it is not frozen to `resume`.
        let mut idle = controller(ChannelMode::commercial_baseline());
        let unloaded = read_now(&mut idle, coord(0, 0, 3, 0), 2_000);
        let done = read_now(&mut c, coord(0, 0, 3, 0), 2_000);
        assert!(done > unloaded, "bus contention delays the read");
    }

    #[test]
    fn transition_designs_freeze_reads_during_write_mode() {
        let mut mode = ChannelMode::commercial_baseline();
        mode.turnaround_penalty_ps = 1_000_000;
        let mut c = controller(mode);
        for i in 0..64 {
            c.enqueue_write(coord(0, (i % 16) as usize, 3, i));
        }
        let resume = c.drain_writes(1_000);
        // A read arriving mid-write-mode waits for the channel to be
        // clocked back up.
        let done = read_now(&mut c, coord(0, 0, 3, 0), 2_000);
        assert!(done >= resume);
    }

    #[test]
    fn turnaround_penalty_applies_both_directions() {
        let mut base = controller(ChannelMode::commercial_baseline());
        let mut hdmr_mode = ChannelMode::commercial_baseline();
        hdmr_mode.turnaround_penalty_ps = 1_000_000;
        let mut hdmr = controller(hdmr_mode);
        for i in 0..8 {
            base.enqueue_write(coord(0, 0, 1, i));
            hdmr.enqueue_write(coord(0, 0, 1, i));
        }
        let base_resume = base.drain_writes(0);
        let hdmr_resume = hdmr.drain_writes(0);
        let delta = hdmr_resume - base_resume;
        assert!(
            (1_900_000..=2_100_000).contains(&delta),
            "two 1 us transitions expected, delta {delta}"
        );
    }

    #[test]
    fn read_rank_restriction_hits_free_module_only() {
        let mut mode = ChannelMode::commercial_baseline();
        mode.read_ranks = Some(2); // ranks 2 and 3 hold the copies
        let mut c = controller(mode);
        // Reads to home ranks 0..3 must all land on ranks 2/3: verify
        // via bank state — read rank 0 then rank 2 with the same
        // bank/row; the second is a row hit because they share a bank.
        let first = read_now(&mut c, coord(0, 5, 77, 0), 0);
        let _second = read_now(&mut c, coord(2, 5, 77, 1), first);
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn fmr_choice_prefers_open_row_copy() {
        let mut mode = ChannelMode::commercial_baseline();
        mode.fmr_read_choice = true;
        let mut c = controller(mode);
        // Open row 10 on rank 0 bank 0.
        let t0 = read_now(&mut c, coord(0, 0, 10, 0), 0);
        // Now rank 2 (mirror) bank 0 is cold; a read to row 10 rank 2
        // should be served by rank 0's open row → row hit.
        let _ = read_now(&mut c, coord(2, 0, 10, 1), t0);
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn broadcast_copies_counted_not_timed() {
        let mut mode = ChannelMode::commercial_baseline();
        mode.broadcast_copies = 1;
        let mut with = controller(mode);
        let mut without = controller(ChannelMode::commercial_baseline());
        for i in 0..16 {
            with.enqueue_write(coord(0, 0, 1, i));
            without.enqueue_write(coord(0, 0, 1, i));
        }
        let a = with.drain_writes(0);
        let b = without.drain_writes(0);
        assert_eq!(a, b, "broadcast writes cost no extra bus time");
        assert_eq!(with.stats().broadcast_extra_cells, 16);
        assert_eq!(without.stats().broadcast_extra_cells, 0);
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut c = controller(ChannelMode::commercial_baseline());
        let refi = ChannelMode::commercial_baseline().read_timing.t_refi_ps();
        let mut t = 0;
        for i in 0..1_000u64 {
            t = read_now(&mut c, coord(0, 0, i % 4, 0), t.max(i * refi / 100));
        }
        assert!(c.stats().refreshes > 5, "refreshes {}", c.stats().refreshes);
    }

    #[test]
    fn empty_drain_is_noop() {
        let mut c = controller(ChannelMode::commercial_baseline());
        assert_eq!(c.drain_writes(500), 500);
        assert_eq!(c.stats().write_mode_entries, 0);
    }

    #[test]
    fn residency_decomposes_and_matches_activates() {
        let mut c = controller(ChannelMode::commercial_baseline());
        let mut t = 0;
        for i in 0..500u64 {
            t = read_now(
                &mut c,
                coord(0, (i % 16) as usize, i % 8, i % 64),
                t + 2_000,
            );
        }
        for i in 0..64 {
            c.enqueue_write(coord(1, (i % 16) as usize, 3, i));
        }
        let resume = c.drain_writes(t);
        let r = c.finalize_residency(resume + 1_000_000);
        // Every activate the stats counted opened a row the residency
        // tracked.
        assert_eq!(r.act_edges, c.stats().activates);
        assert!(r.active_bank_ps > 0);
        assert!(r.pre_edges > 0);
        assert!(r.write_mode_ps > 0);
        assert_eq!(r.self_refresh_bank_ps, 0, "no parked ranks here");
        // The four states partition bank-time exactly (precharged is
        // the derived residue).
        let total = r.banks * r.end_ps;
        assert!(r.active_bank_ps + r.refresh_bank_ps <= total);
        assert_eq!(
            r.active_bank_ps + r.refresh_bank_ps + r.self_refresh_bank_ps + r.precharged_bank_ps(),
            total
        );
        // Finalizing again must not double-charge.
        assert_eq!(c.finalize_residency(resume + 5_000_000), r);
    }

    #[test]
    fn residency_parks_restricted_ranks_in_self_refresh() {
        let mut mode = ChannelMode::commercial_baseline();
        mode.read_ranks = Some(2);
        let mut c = controller(mode);
        let end: Picos = 100_000_000;
        let _ = read_now(&mut c, coord(0, 0, 1, 0), 0);
        let r = c.finalize_residency(end);
        let h = HierarchyConfig::hierarchy1();
        let parked = (h.memory.ranks_per_channel() - 2) * h.memory.banks_per_rank;
        assert_eq!(r.self_refresh_bank_ps, parked as Picos * end);
    }

    #[test]
    fn timing_table_matches_the_accessors() {
        use dram::timing::MemorySetting;
        let mut sets: Vec<TimingParams> = [
            MemorySetting::Specified,
            MemorySetting::LatencyMargin,
            MemorySetting::FrequencyMargin,
            MemorySetting::FreqLatMargin,
        ]
        .iter()
        .map(|s| s.timing())
        .collect();
        sets.extend([
            TimingParams::ddr4_2400_spec(),
            TimingParams::ddr4_3200_spec(),
            TimingParams::ddr5_4800_spec(),
            TimingParams::ddr5_6400_spec(),
            TimingParams::mrdimm_8800_spec(),
        ]);
        let (fast, safe) = HierarchyConfig::hetero_dmr_timings(800);
        sets.extend([fast, safe]);
        for (i, &read) in sets.iter().enumerate() {
            // Pair each set with a different one so a swapped read and
            // write table cannot pass.
            let write = sets[(i + 1) % sets.len()];
            let mut mode = ChannelMode::commercial_baseline();
            mode.read_timing = read;
            mode.write_timing = write;
            let c = controller(mode);
            for (table, t) in [(c.read_ps, read), (c.write_ps, write)] {
                assert_eq!(table.t_rcd, t.t_rcd_ps(), "set {i}");
                assert_eq!(table.t_rp, t.t_rp_ps(), "set {i}");
                assert_eq!(table.t_ras, t.t_ras_ps(), "set {i}");
                assert_eq!(table.cas, t.t_cas_ps(), "set {i}");
                assert_eq!(table.cwl, t.t_cwl_ps(), "set {i}");
                assert_eq!(table.t_rtp, t.t_rtp_ps(), "set {i}");
                assert_eq!(table.t_wr, t.t_wr_ps(), "set {i}");
                assert_eq!(table.t_wtr, t.t_wtr_ps(), "set {i}");
                assert_eq!(table.t_rfc, t.t_rfc_ps(), "set {i}");
                assert_eq!(table.t_refi, t.t_refi_ps(), "set {i}");
                assert_eq!(table.burst, t.burst_ps(), "set {i}");
            }
        }
    }

    #[test]
    fn completion_slots_recycle() {
        let mut c = controller(ChannelMode::commercial_baseline());
        // Sequential submit/resolve keeps reusing one slot; the slab
        // never grows past the outstanding count.
        for i in 0..100u64 {
            let t = c.submit_read(coord(0, 0, i % 8, i), i * 700, true);
            c.resolve_read(t);
        }
        assert_eq!(c.completions.len(), 1);
        // Outstanding tokens are distinct.
        let a = c.submit_read(coord(0, 0, 1, 0), 100_000, true);
        let b = c.submit_read(coord(0, 0, 1, 1), 100_100, true);
        assert_ne!(a, b);
        c.resolve_read(b);
        c.resolve_read(a);
    }
}
