//! Naive reference implementation of the channel controller.
//!
//! [`ReferenceController`] freezes the original scan-and-sort
//! algorithms that [`crate::controller::ChannelController`] used
//! before it moved to indexed, allocation-free structures:
//!
//! * `pick_next_read` is a pair of linear `min_by_key` scans over the
//!   pending-read `Vec` (ties broken by current vector position, which
//!   the `swap_remove` bookkeeping shuffles),
//! * completions live in a `HashMap<token, Picos>`,
//! * refresh catch-up is a `while` loop advancing one tREFI at a time,
//! * the write queue is an unsorted `Vec` with a per-drain
//!   `sort_unstable_by_key`.
//!
//! It exists purely as the referee for the differential property test
//! (`tests/differential.rs`): any op sequence must produce identical
//! latencies and statistics on both implementations. It deliberately
//! carries no telemetry — statistics are plain integers.

use crate::address::DramCoord;
use crate::config::{ChannelMode, MemoryConfig};
use crate::controller::ControllerStats;
use dram::timing::TimingParams;
use dram::Picos;
use std::collections::HashMap;

/// Bank-fairness bypass cap (same constant as the real controller).
const MAX_BYPASS: u32 = 64;

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    act_allowed_at: Picos,
    next_column_at: Picos,
    pre_allowed_at: Picos,
    last_use: Picos,
}

#[derive(Debug, Clone, Copy)]
struct PendingRead {
    token: u64,
    coord: DramCoord,
    arrival: Picos,
    bypasses: u32,
    tracked: bool,
}

/// The naive scan-and-sort controller (see module docs). API mirrors
/// [`crate::controller::ChannelController`] so the differential test
/// can drive both from one op sequence; token *values* are an opaque
/// implementation detail and differ between the two.
#[derive(Debug, Clone)]
pub struct ReferenceController {
    mode: ChannelMode,
    mem: MemoryConfig,
    banks: Vec<BankState>,
    bus_free_at: Picos,
    write_mode_until: Picos,
    next_refresh: Vec<Picos>,
    write_queue: Vec<DramCoord>,
    pending_reads: Vec<PendingRead>,
    completions: HashMap<u64, Picos>,
    next_token: u64,
    page_timeout_ps: Picos,
    stats: ControllerStats,
}

impl ReferenceController {
    /// Creates a reference controller for one channel.
    pub fn new(
        mode: ChannelMode,
        mem: MemoryConfig,
        page_timeout_ps: Picos,
    ) -> ReferenceController {
        let ranks = mem.ranks_per_channel();
        let refi = mode.read_timing.t_refi_ps();
        ReferenceController {
            mode,
            mem,
            banks: vec![BankState::default(); ranks * mem.banks_per_rank],
            bus_free_at: 0,
            write_mode_until: 0,
            next_refresh: (0..ranks).map(|r| refi + r as Picos * 100_000).collect(),
            write_queue: Vec::new(),
            pending_reads: Vec::new(),
            completions: HashMap::new(),
            next_token: 0,
            page_timeout_ps,
            stats: ControllerStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Pending (queued, not yet drained) writes.
    pub fn pending_writes(&self) -> usize {
        self.write_queue.len()
    }

    fn bank_index(&self, rank: usize, bank: usize) -> usize {
        rank * self.mem.banks_per_rank + bank
    }

    fn apply_refresh(&mut self, rank: usize, now: Picos) {
        if let Some(read_ranks) = self.mode.read_ranks {
            let first_read_rank = self.mem.ranks_per_channel() - read_ranks;
            if rank < first_read_rank {
                return; // self-refreshed original module
            }
        }
        let t = self.mode.read_timing;
        while self.next_refresh[rank] <= now {
            let start = self.next_refresh[rank];
            let end = start + t.t_rfc_ps();
            for b in 0..self.mem.banks_per_rank {
                let idx = self.bank_index(rank, b);
                let bank = &mut self.banks[idx];
                bank.act_allowed_at = bank.act_allowed_at.max(end);
                bank.next_column_at = bank.next_column_at.max(end);
                bank.open_row = None;
            }
            self.next_refresh[rank] += t.t_refi_ps();
            self.stats.refreshes += 1;
        }
    }

    fn read_rank(&self, home_rank: usize) -> usize {
        match self.mode.read_ranks {
            Some(n) => {
                let base = self.mem.ranks_per_channel() - n;
                base + home_rank % n
            }
            None => home_rank,
        }
    }

    /// Enqueues a read; see the real controller's `submit_read`.
    pub fn submit_read(&mut self, coord: DramCoord, arrival: Picos, tracked: bool) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        if !tracked {
            let queued_prefetches = self.pending_reads.iter().filter(|r| !r.tracked).count();
            if queued_prefetches >= 192 {
                return token;
            }
        }
        self.pending_reads.push(PendingRead {
            token,
            coord,
            arrival,
            bypasses: 0,
            tracked,
        });
        token
    }

    /// Schedules every queued read.
    pub fn process_reads(&mut self) {
        while !self.pending_reads.is_empty() {
            self.schedule_one_read();
        }
    }

    fn schedule_one_read(&mut self) {
        let pick = self.pick_next_read();
        let request = self.pending_reads.swap_remove(pick);
        for other in &mut self.pending_reads {
            if other.arrival < request.arrival {
                other.bypasses += 1;
            }
        }
        let done = self.serve_read(request.coord, request.arrival);
        if request.tracked {
            self.completions.insert(request.token, done);
        }
    }

    fn pick_next_read(&self) -> usize {
        let oldest = self
            .pending_reads
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.arrival)
            .map(|(i, _)| i)
            .expect("nonempty queue");
        if self.pending_reads[oldest].bypasses >= MAX_BYPASS {
            return oldest;
        }
        self.pending_reads
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                let idx = self.bank_index(self.read_rank(r.coord.rank), r.coord.bank);
                self.banks[idx].open_row == Some(r.coord.row)
            })
            .min_by_key(|(_, r)| r.arrival)
            .map(|(i, _)| i)
            .unwrap_or(oldest)
    }

    /// The completion time of a previously submitted tracked read.
    pub fn resolve_read(&mut self, token: u64) -> Picos {
        while !self.completions.contains_key(&token) {
            assert!(
                !self.pending_reads.is_empty(),
                "token submitted, tracked, and not yet resolved"
            );
            self.schedule_one_read();
        }
        self.completions.remove(&token).expect("just scheduled")
    }

    fn serve_read(&mut self, coord: DramCoord, arrival: Picos) -> Picos {
        let now = arrival.max(self.write_mode_until);
        let t = self.mode.read_timing;
        let rank = self.read_rank(coord.rank);
        self.apply_refresh(rank, now);

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
            let a = self.bank_index(rank, coord.bank);
            let b = self.bank_index(mirror, coord.bank);
            self.faster_bank(a, b, coord.row, now)
        } else {
            self.bank_index(rank, coord.bank)
        };

        let (data_end, hit) = self.column_access(idx, coord.row, now, &t, true);
        self.stats.reads += 1;
        if hit {
            self.stats.row_hits += 1;
        }
        let latency = data_end.saturating_sub(arrival);
        self.stats.read_latency_sum_ps += latency;
        data_end
    }

    fn faster_bank(&self, home: usize, mirror: usize, row: u64, now: Picos) -> usize {
        let open = |i: usize| {
            let bank = &self.banks[i];
            bank.open_row == Some(row) && now.saturating_sub(bank.last_use) <= self.page_timeout_ps
        };
        match (open(home), open(mirror)) {
            (true, _) => home,
            (false, true) => mirror,
            (false, false) => {
                let margin = self.mode.read_timing.t_rp_ps() + self.mode.read_timing.t_rcd_ps();
                if self.banks[mirror].pre_allowed_at + margin < self.banks[home].pre_allowed_at {
                    mirror
                } else {
                    home
                }
            }
        }
    }

    fn column_access(
        &mut self,
        idx: usize,
        row: u64,
        now: Picos,
        t: &TimingParams,
        is_read: bool,
    ) -> (Picos, bool) {
        let page_timeout = self.page_timeout_ps;
        let bank = &mut self.banks[idx];

        if bank.open_row.is_some() && now.saturating_sub(bank.last_use) > page_timeout {
            let closed_at = bank.pre_allowed_at.max(bank.last_use + page_timeout);
            bank.open_row = None;
            bank.act_allowed_at = bank.act_allowed_at.max(closed_at + t.t_rp_ps());
        }

        let cas = if is_read { t.t_cas_ps() } else { t.t_cwl_ps() };
        let (cmd_time, hit) = match bank.open_row {
            Some(open) if open == row => (now.max(bank.next_column_at), true),
            Some(_) => {
                let pre_at = now.max(bank.pre_allowed_at);
                let act_at = pre_at + t.t_rp_ps();
                self.stats.activates += 1;
                bank.open_row = Some(row);
                bank.pre_allowed_at = act_at + t.t_ras_ps();
                (act_at + t.t_rcd_ps(), false)
            }
            None => {
                let act_at = now.max(bank.act_allowed_at);
                self.stats.activates += 1;
                bank.open_row = Some(row);
                bank.pre_allowed_at = act_at + t.t_ras_ps();
                (act_at + t.t_rcd_ps(), false)
            }
        };
        let data_start = (cmd_time + cas).max(self.bus_free_at);
        let data_end = data_start + t.burst_ps();
        let effective_cmd = data_start - cas;
        self.bus_free_at = data_end;
        self.stats.bus_busy_ps += t.burst_ps();

        let bank = &mut self.banks[idx];
        bank.last_use = data_end;
        bank.next_column_at = effective_cmd + t.burst_ps();
        bank.pre_allowed_at = if is_read {
            bank.pre_allowed_at.max(effective_cmd + t.t_rtp_ps())
        } else {
            bank.pre_allowed_at.max(data_end + t.t_wr_ps())
        };
        (data_end, hit)
    }

    fn shadow_write(&mut self, idx: usize, row: u64, end: Picos, t: &TimingParams) {
        let bank = &mut self.banks[idx];
        if bank.open_row != Some(row) {
            self.stats.activates += 1;
        }
        bank.open_row = Some(row);
        bank.last_use = end;
        bank.next_column_at = bank.next_column_at.max(end);
        bank.pre_allowed_at = bank.pre_allowed_at.max(end + t.t_wr_ps());
    }

    /// Queues a write.
    pub fn enqueue_write(&mut self, coord: DramCoord) {
        self.write_queue.push(coord);
    }

    /// Enters write mode at `now`, draining every pending write.
    pub fn drain_writes(&mut self, now: Picos) -> Picos {
        self.process_reads();
        let t = self.mode.write_timing;
        let mut queue = std::mem::take(&mut self.write_queue);
        if queue.is_empty() {
            return now;
        }
        self.stats.write_mode_entries += 1;
        queue.sort_unstable_by_key(|c| (c.rank, c.bank, c.row, c.column));

        let start = now.max(self.bus_free_at) + t.t_wtr_ps() + self.mode.turnaround_penalty_ps;
        self.bus_free_at = start;

        let mut clock = start;
        for coord in queue.drain(..) {
            self.apply_refresh(coord.rank, start);
            let (end, hit) = self.column_access(
                self.bank_index(coord.rank, coord.bank),
                coord.row,
                start,
                &t,
                false,
            );
            self.stats.writes += 1;
            if hit {
                self.stats.row_hits += 1;
            }
            if self.mode.broadcast_copies > 0 {
                self.stats.broadcast_extra_cells += self.mode.broadcast_copies as u64;
                let total = self.mem.ranks_per_channel();
                let copy_rank = match self.mode.read_ranks {
                    Some(n) if n > 0 => total - n + coord.rank % n,
                    _ => (coord.rank + total / 2) % total,
                };
                if copy_rank != coord.rank {
                    self.shadow_write(self.bank_index(copy_rank, coord.bank), coord.row, end, &t);
                }
            }
            clock = clock.max(end);
        }
        self.write_queue = queue;

        let resume = clock + t.t_wtr_ps() + self.mode.turnaround_penalty_ps;
        self.bus_free_at = resume;
        if self.mode.turnaround_penalty_ps > 0 {
            self.write_mode_until = resume;
        }
        resume
    }
}
