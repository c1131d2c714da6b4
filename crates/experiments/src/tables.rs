//! Tables I–IV.

use crate::context::{say, Ctx};
use dram::timing::MemorySetting;
use margin::study::TABLE_I;
use memsim::config::HierarchyConfig;

/// Table I: scale of the characterization study vs prior works.
pub fn table1(ctx: &mut Ctx) {
    say!(
        ctx,
        "{:<17} {:<13} {:>9} {:>8}  Margin",
        "Study",
        "DRAM type",
        "# modules",
        "# chips"
    );
    let mut rows = vec![vec![
        "study".into(),
        "dram_type".into(),
        "modules".into(),
        "chips".into(),
        "margin".into(),
    ]];
    for s in TABLE_I {
        let modules = s
            .modules
            .map(|m| m.to_string())
            .unwrap_or_else(|| "N/A".into());
        say!(
            ctx,
            "{:<17} {:<13} {:>9} {:>8}  {}",
            s.name,
            s.dram_type,
            modules,
            s.chips,
            s.margin
        );
        rows.push(vec![
            s.name.into(),
            s.dram_type.into(),
            modules,
            s.chips.to_string(),
            s.margin.into(),
        ]);
    }
    ctx.csv("table1", &rows);
}

/// Table II: the four memory settings.
pub fn table2(ctx: &mut Ctx) {
    say!(
        ctx,
        "{:<38} {:>9} {:>8} {:>7} {:>7} {:>7}",
        "Setting",
        "Data Rate",
        "tRCD",
        "tRP",
        "tRAS",
        "tREFI"
    );
    let mut rows = vec![vec![
        "setting".into(),
        "data_rate_mts".into(),
        "trcd_ns".into(),
        "trp_ns".into(),
        "tras_ns".into(),
        "trefi_us".into(),
    ]];
    for setting in MemorySetting::ALL {
        let t = setting.timing();
        say!(
            ctx,
            "{:<38} {:>7}MT/s {:>6}ns {:>5}ns {:>5}ns {:>5}us",
            setting.name(),
            t.data_rate.mts(),
            t.t_rcd_ns,
            t.t_rp_ns,
            t.t_ras_ns,
            t.t_refi_us
        );
        rows.push(vec![
            setting.name().into(),
            t.data_rate.mts().to_string(),
            t.t_rcd_ns.to_string(),
            t.t_rp_ns.to_string(),
            t.t_ras_ns.to_string(),
            t.t_refi_us.to_string(),
        ]);
    }
    ctx.csv("table2", &rows);
}

/// Table III: the two real-system hierarchies.
pub fn table3(ctx: &mut Ctx) {
    let mut rows = vec![vec![
        "hierarchy".into(),
        "cores".into(),
        "l2_l3_per_core_mb".into(),
        "channels".into(),
        "modules_per_channel".into(),
        "ranks_per_module".into(),
    ]];
    for h in HierarchyConfig::both() {
        say!(
            ctx,
            "{}: {} cores, {:.3} MB L2+L3/core, {} channel(s), {} modules/channel, {} ranks/module",
            h.name,
            h.cores,
            h.cache_per_core_bytes as f64 / (1024.0 * 1024.0),
            h.memory.channels,
            h.memory.modules_per_channel,
            h.memory.ranks_per_module
        );
        rows.push(vec![
            h.name.into(),
            h.cores.to_string(),
            format!("{:.3}", h.cache_per_core_bytes as f64 / (1024.0 * 1024.0)),
            h.memory.channels.to_string(),
            h.memory.modules_per_channel.to_string(),
            h.memory.ranks_per_module.to_string(),
        ]);
    }
    ctx.csv("table3", &rows);
}

/// Table IV's read- and write-queue capacities per channel. The table
/// reports the paper's controller; memsim bounds neither queue (writes
/// drain at the watermark, prefetch reads drop past a fixed depth).
const READ_QUEUE_ENTRIES: usize = 256;
const WRITE_QUEUE_ENTRIES: usize = 128;

/// Table IV: simulated CPU and memory parameters.
pub fn table4(ctx: &mut Ctx) {
    let h = HierarchyConfig::hierarchy1();
    let c = h.core;
    say!(
        ctx,
        "Cores            : {} GHz, {}-wide OoO, {}-entry ROB, {} MSHRs",
        c.clock_ghz,
        c.width,
        c.rob_entries,
        c.mshrs
    );
    say!(
        ctx,
        "L1$              : {} KB, {}-way",
        c.l1_bytes / 1024,
        c.l1_ways
    );
    say!(
        ctx,
        "L1/L2 Prefetcher : stride (degree {}), next-line with auto turn-off",
        c.prefetch_degree
    );
    say!(
        ctx,
        "L2$              : {} MB per core, {}-way",
        c.l2_bytes / (1024 * 1024),
        c.l2_ways
    );
    say!(
        ctx,
        "L3$              : per Table III, {} ns latency",
        c.l3_latency_ns
    );
    say!(
        ctx,
        "Memory Controller: DDR4, {} ranks/channel, {} banks/rank, FR-FCFS w/ bank fairness,",
        h.memory.ranks_per_channel(),
        h.memory.banks_per_rank
    );
    say!(
        ctx,
        "                   hybrid page policy ({} cycle timeout), XOR bank mapping,",
        200
    );
    say!(
        ctx,
        "                   read queue {} entries/channel, write queue {} entries/channel",
        READ_QUEUE_ENTRIES,
        WRITE_QUEUE_ENTRIES
    );
    ctx.csv(
        "table4",
        &[
            vec!["parameter".into(), "value".into()],
            vec!["clock_ghz".into(), c.clock_ghz.to_string()],
            vec!["width".into(), c.width.to_string()],
            vec!["rob".into(), c.rob_entries.to_string()],
            vec!["l1_kb".into(), (c.l1_bytes / 1024).to_string()],
            vec!["l2_mb".into(), (c.l2_bytes / 1024 / 1024).to_string()],
            vec!["l3_latency_ns".into(), c.l3_latency_ns.to_string()],
            vec![
                "ranks_per_channel".into(),
                h.memory.ranks_per_channel().to_string(),
            ],
            vec!["banks_per_rank".into(), h.memory.banks_per_rank.to_string()],
            vec!["read_queue".into(), READ_QUEUE_ENTRIES.to_string()],
            vec!["write_queue".into(), WRITE_QUEUE_ENTRIES.to_string()],
        ],
    );
}
