//! Power/energy targets: the `energy` perf/W companion to Figures 4–5
//! (per-design EPI decomposition plus a DRAM-generation sweep) and the
//! `configurator` fleet sizing tool.
//!
//! Both targets run on the node model: the design table on Hierarchy1,
//! and each generation as a [`MemoryDesign::Generation`] design at its
//! specification timing. [`NodeModel::energy`] prices every run with a
//! calibrated [`ResidencyModel`]: DRAM energy is integrated from
//! time-in-state (active / precharged / refreshing / self-refresh)
//! plus per-command edge energies.

use crate::context::{say, Ctx};
use crate::node_figures::{model, model_scoped};
use dram::organization::ModuleOrganization;
use energy::{CpuPowerParams, DatasheetCurrents, ResidencyBreakdown, ResidencyModel};
use hetero_dmr::{DramGeneration, MemoryDesign, NodeModel};
use memsim::config::HierarchyConfig;
use memsim::SimResult;
use telemetry::slug;
use workloads::Suite;

/// The module geometry a generation ships in, and its residency model:
/// the generation's device currents at its specification timing, over
/// the module's devices per rank.
fn packaging(generation: DramGeneration) -> (ModuleOrganization, ResidencyModel) {
    use DramGeneration::*;
    let organization = match generation {
        Ddr4_2400 => ModuleOrganization::ddr4_2400_9cpr_dual_rank(),
        Ddr4_3200 => ModuleOrganization::ddr4_3200_9cpr_dual_rank(),
        Ddr5_4800 => ModuleOrganization::ddr5_4800_10cpr_dual_rank(),
        Ddr5_6400 => ModuleOrganization::ddr5_6400_10cpr_dual_rank(),
        Mrdimm8800 => ModuleOrganization::mrdimm_8800_10cpr_quad_rank(),
    };
    let currents = match generation {
        Ddr4_2400 | Ddr4_3200 => DatasheetCurrents::ddr4_8gb(),
        Ddr5_4800 | Ddr5_6400 => DatasheetCurrents::ddr5_16gb(),
        Mrdimm8800 => DatasheetCurrents::mrdimm_16gb(),
    };
    let chips = u32::from(organization.chips_per_rank);
    let model = ResidencyModel::from_currents(&currents, &generation.timing(), chips);
    (organization, model)
}

/// Whether `generation` runs on the MRDIMM node of [`hierarchy_for`].
fn mrdimm(generation: DramGeneration) -> bool {
    generation == DramGeneration::Mrdimm8800
}

/// The node a generation runs in: Hierarchy1, or for MRDIMMs its
/// quad-rank variant. MRDIMMs multiplex four physical ranks behind one
/// buffer, so a channel carries one quad-rank module instead of two
/// dual-rank ones: ranks per channel stay four either way, so
/// bank-level parallelism is held constant across the sweep.
fn hierarchy_for(mrdimm: bool) -> HierarchyConfig {
    if mrdimm {
        HierarchyConfig::builder("Hierarchy1-MRDIMM")
            .modules_per_channel(1)
            .ranks_per_module(4)
            .build()
    } else {
        HierarchyConfig::hierarchy1()
    }
}

/// One engine per generation node (indexed by [`mrdimm`]), primed with
/// every generation it hosts on `suites`. The engines record under
/// `sweep`, so a run's metrics and `sim.*` span read
/// `sweep.<generation>.<suite>`.
fn sweep_engines(ctx: &Ctx, suites: &[Suite]) -> [NodeModel; 2] {
    [false, true].map(|on_mrdimm| {
        let m = model_scoped(ctx, hierarchy_for(on_mrdimm), "sweep");
        let pairs: Vec<_> = DramGeneration::ALL
            .into_iter()
            .filter(|&g| mrdimm(g) == on_mrdimm)
            .flat_map(|g| {
                suites
                    .iter()
                    .map(move |&suite| (MemoryDesign::Generation(g), suite))
            })
            .collect();
        m.prime(&pairs);
        m
    })
}

/// Per-design (or per-generation) energy totals accumulated across
/// suites.
#[derive(Debug, Clone, Copy, Default)]
struct EnergyTotals {
    background_j: f64,
    activate_j: f64,
    burst_j: f64,
    refresh_j: f64,
    cpu_j: f64,
    instructions: u64,
    secs: f64,
}

impl EnergyTotals {
    fn add(&mut self, b: &ResidencyBreakdown, cpu: &CpuPowerParams, result: &SimResult) {
        // The four components must reconstruct the model's total: the
        // decomposition is the deliverable, so any drift is a bug.
        let sum = b.background_j + b.activate_j + b.burst_j + b.refresh_j;
        assert!(
            (b.total_j() - sum).abs() < 1e-9,
            "EPI components diverge from total: {} vs {sum}",
            b.total_j()
        );
        let secs = energy::ps_to_s(result.exec_time_ps);
        self.background_j += b.background_j;
        self.activate_j += b.activate_j;
        self.burst_j += b.burst_j;
        self.refresh_j += b.refresh_j;
        self.cpu_j += cpu.energy_j(secs, result.instructions);
        self.instructions += result.instructions;
        self.secs += secs;
    }

    fn dram_j(&self) -> f64 {
        self.background_j + self.activate_j + self.burst_j + self.refresh_j
    }

    /// Energy-per-instruction of one component, nanojoules.
    fn epi_nj(&self, component_j: f64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            component_j / self.instructions as f64 * 1e9
        }
    }

    /// Instructions per second per watt (CPU + DRAM), the perf/W
    /// figure of merit.
    fn perf_per_watt(&self) -> f64 {
        let watts = (self.dram_j() + self.cpu_j) / self.secs.max(f64::MIN_POSITIVE);
        if watts <= 0.0 || self.secs <= 0.0 {
            0.0
        } else {
            (self.instructions as f64 / self.secs) / watts
        }
    }
}

/// The `energy` target: per-design EPI decomposition under the
/// state-residency model (the perf/W companion to Figure 5's speedups)
/// and a DRAM-generation sweep at specification timing.
pub fn energy(ctx: &mut Ctx) {
    per_design(ctx);
    say!(ctx, "");
    generation_sweep(ctx);
}

/// Part one: the Figure 5 / Figure 13 designs on Hierarchy1 DDR4-3200,
/// averaged across the six suites, itemized by energy mechanism.
fn per_design(ctx: &mut Ctx) {
    let h = HierarchyConfig::hierarchy1();
    let m = model(ctx, h);
    let rm = ResidencyModel::ddr4_3200();
    let cpu = CpuPowerParams::default();
    let designs = [
        MemoryDesign::CommercialBaseline,
        MemoryDesign::ExploitLatency,
        MemoryDesign::ExploitFrequency,
        MemoryDesign::ExploitFreqLat,
        MemoryDesign::HeteroDmr { margin_mts: 800 },
    ];
    let runs: Vec<_> = designs
        .into_iter()
        .flat_map(|design| Suite::ALL.map(|suite| (design, suite)))
        .collect();
    m.prime(&runs);
    say!(
        ctx,
        "State-residency EPI by design ({}, DDR4-3200, nJ/instruction, six-suite totals):",
        h.name
    );
    say!(
        ctx,
        "{:<26} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "design",
        "backgnd",
        "activate",
        "burst",
        "refresh",
        "dram_epi",
        "cpu_epi",
        "perf/W"
    );
    let mut rows = vec![vec![
        "design".into(),
        "background_nj".into(),
        "activate_nj".into(),
        "burst_nj".into(),
        "refresh_nj".into(),
        "dram_epi_nj".into(),
        "cpu_epi_nj".into(),
        "perf_per_w_rel".into(),
    ]];
    let mut baseline_ppw = 0.0;
    for design in designs {
        let mut t = EnergyTotals::default();
        for suite in Suite::ALL {
            t.add(&m.energy(design, suite, &rm), &cpu, &m.run(design, suite));
        }
        let ppw = t.perf_per_watt();
        if design == MemoryDesign::CommercialBaseline {
            baseline_ppw = ppw;
        }
        let rel = ppw / baseline_ppw;
        say!(
            ctx,
            "{:<26} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>8.2} {:>7.3}x",
            design.name(),
            t.epi_nj(t.background_j),
            t.epi_nj(t.activate_j),
            t.epi_nj(t.burst_j),
            t.epi_nj(t.refresh_j),
            t.epi_nj(t.dram_j()),
            t.epi_nj(t.cpu_j),
            rel
        );
        let ds = slug(&design.name());
        ctx.summary(&format!("energy.{ds}.dram_epi_nj"), t.epi_nj(t.dram_j()));
        ctx.summary(&format!("energy.{ds}.perf_per_w_rel"), rel);
        if let Some(scope) = ctx.metrics_scope(&format!("design.{ds}")) {
            scope
                .gauge("background_epi_nj")
                .set_scaled(t.epi_nj(t.background_j));
            scope
                .gauge("activate_epi_nj")
                .set_scaled(t.epi_nj(t.activate_j));
            scope.gauge("burst_epi_nj").set_scaled(t.epi_nj(t.burst_j));
            scope
                .gauge("refresh_epi_nj")
                .set_scaled(t.epi_nj(t.refresh_j));
        }
        rows.push(vec![
            design.name(),
            format!("{:.4}", t.epi_nj(t.background_j)),
            format!("{:.4}", t.epi_nj(t.activate_j)),
            format!("{:.4}", t.epi_nj(t.burst_j)),
            format!("{:.4}", t.epi_nj(t.refresh_j)),
            format!("{:.4}", t.epi_nj(t.dram_j())),
            format!("{:.4}", t.epi_nj(t.cpu_j)),
            format!("{rel:.4}"),
        ]);
    }
    ctx.csv("energy_designs", &rows);
}

/// Part two: the DDR4 → DDR5 → MRDIMM generation sweep at
/// specification timing, six-suite totals, normalized to DDR4-3200.
fn generation_sweep(ctx: &mut Ctx) {
    say!(
        ctx,
        "Generation sweep (spec timing, six-suite totals, perf and perf/W vs DDR4-3200):"
    );
    say!(
        ctx,
        "{:<12} {:>6} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "generation",
        "MT/s",
        "perf",
        "backgnd",
        "activate",
        "burst",
        "refresh",
        "dram_epi",
        "dram_W",
        "perf/W"
    );
    let mut rows = vec![vec![
        "generation".into(),
        "mts".into(),
        "perf_rel".into(),
        "background_nj".into(),
        "activate_nj".into(),
        "burst_nj".into(),
        "refresh_nj".into(),
        "dram_epi_nj".into(),
        "dram_w".into(),
        "perf_per_w_rel".into(),
    ]];
    let cpu = CpuPowerParams::default();
    let engines = sweep_engines(ctx, &Suite::ALL);
    let mut measured = Vec::new();
    for g in DramGeneration::ALL {
        let (m, design) = (&engines[mrdimm(g) as usize], MemoryDesign::Generation(g));
        let rm = packaging(g).1;
        let mut t = EnergyTotals::default();
        for suite in Suite::ALL {
            t.add(&m.energy(design, suite, &rm), &cpu, &m.run(design, suite));
        }
        measured.push((g.label(), g.timing().data_rate.mts(), t));
    }
    let base = &measured[1].2; // DDR4-3200
    let base_ips = base.instructions as f64 / base.secs;
    let base_ppw = base.perf_per_watt();
    for (label, mts, t) in &measured {
        let perf_rel = (t.instructions as f64 / t.secs) / base_ips;
        let ppw_rel = t.perf_per_watt() / base_ppw;
        let dram_w = t.dram_j() / t.secs;
        say!(
            ctx,
            "{:<12} {:>6} {:>6.3}x {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>8.2} {:>7.3}x",
            label,
            mts,
            perf_rel,
            t.epi_nj(t.background_j),
            t.epi_nj(t.activate_j),
            t.epi_nj(t.burst_j),
            t.epi_nj(t.refresh_j),
            t.epi_nj(t.dram_j()),
            dram_w,
            ppw_rel
        );
        let gs = slug(label);
        ctx.summary(&format!("energy.sweep.{gs}.perf_rel"), perf_rel);
        ctx.summary(
            &format!("energy.sweep.{gs}.dram_epi_nj"),
            t.epi_nj(t.dram_j()),
        );
        ctx.summary(&format!("energy.sweep.{gs}.perf_per_w_rel"), ppw_rel);
        rows.push(vec![
            (*label).into(),
            format!("{mts}"),
            format!("{perf_rel:.4}"),
            format!("{:.4}", t.epi_nj(t.background_j)),
            format!("{:.4}", t.epi_nj(t.activate_j)),
            format!("{:.4}", t.epi_nj(t.burst_j)),
            format!("{:.4}", t.epi_nj(t.refresh_j)),
            format!("{:.4}", t.epi_nj(t.dram_j())),
            format!("{dram_w:.4}"),
            format!("{ppw_rel:.4}"),
        ]);
    }
    ctx.csv("energy_sweep", &rows);
}

/// What a server in the fleet must satisfy (the configurator's fixed
/// requirement set).
struct ServerRequirements {
    /// DRAM power budget per server, watts.
    power_budget_w: f64,
    /// Minimum interface data rate, MT/s.
    min_data_rate_mts: u32,
    /// Memory capacity floor per server, gigabytes.
    total_capacity_gb: u32,
    /// Workload the per-DIMM power is measured under.
    workload: Suite,
}

/// One candidate configuration: a generation sized to the requirements
/// with measured power and feasibility flags.
struct ServerConfiguration {
    label: &'static str,
    data_rate_mts: u32,
    dimms_per_server: u32,
    capacity_gb: u32,
    power_per_dimm_w: f64,
    server_power_w: f64,
    meets_power: bool,
    meets_performance: bool,
    meets_capacity: bool,
    /// Instructions/s per DRAM watt at server scale — higher is better.
    score: f64,
}

impl ServerConfiguration {
    fn feasible(&self) -> bool {
        self.meets_power && self.meets_performance && self.meets_capacity
    }
}

/// Memory channels a server board carries (16 = 2 sockets × 8
/// channels, the common DDR4/DDR5 server shape).
const CHANNELS_PER_SERVER: u32 = 16;

/// The `configurator` target: sizes each DRAM generation against a
/// fleet requirement set, measures its per-DIMM power from simulation,
/// and ranks the feasible configurations by perf per DRAM watt.
pub fn configurator(ctx: &mut Ctx) {
    let req = ServerRequirements {
        power_budget_w: 90.0,
        min_data_rate_mts: 3200,
        total_capacity_gb: 512,
        workload: Suite::Hpcg,
    };
    say!(
        ctx,
        "Fleet configurator: {} GB/server, >= {} MT/s, DRAM budget {:.0} W, workload {}",
        req.total_capacity_gb,
        req.min_data_rate_mts,
        req.power_budget_w,
        req.workload
    );
    let engines = sweep_engines(ctx, &[req.workload]);
    let mut configs = Vec::new();
    for g in DramGeneration::ALL {
        let (m, design) = (&engines[mrdimm(g) as usize], MemoryDesign::Generation(g));
        let (organization, rm) = packaging(g);
        let result = m.run(design, req.workload);
        let breakdown = m.energy(design, req.workload, &rm);
        let h = m.hierarchy();
        let mts = g.timing().data_rate.mts();
        let secs = energy::ps_to_s(result.exec_time_ps);
        let sim_modules = (h.memory.channels * h.memory.modules_per_channel) as f64;
        let power_per_dimm_w = breakdown.total_j() / secs / sim_modules;
        let slots = CHANNELS_PER_SERVER * h.memory.modules_per_channel as u32;
        let module_gb = organization.capacity_gb();
        let dimms_per_server = req.total_capacity_gb.div_ceil(module_gb).max(1);
        let server_power_w = dimms_per_server as f64 * power_per_dimm_w;
        // Perf proxy: the measured single-channel throughput scaled to
        // the server's channel count (channels are the unit the sweep
        // holds constant, so scaling is linear).
        let server_perf = result.instructions_per_ns() * 1e9 * CHANNELS_PER_SERVER as f64
            / h.memory.channels as f64;
        configs.push(ServerConfiguration {
            label: g.label(),
            data_rate_mts: mts,
            dimms_per_server,
            capacity_gb: dimms_per_server * module_gb,
            power_per_dimm_w,
            server_power_w,
            meets_power: server_power_w <= req.power_budget_w,
            meets_performance: mts >= req.min_data_rate_mts,
            meets_capacity: dimms_per_server <= slots,
            score: server_perf / server_power_w,
        });
    }
    // Feasible configs first, best score first; infeasible ones keep
    // their generation order at the bottom (stable sort).
    configs.sort_by(|a, b| {
        b.feasible().cmp(&a.feasible()).then(
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    say!(
        ctx,
        "{:<5} {:<12} {:>6} {:>6} {:>7} {:>7} {:>8} {:>6} {:>5} {:>5} {:>12}",
        "rank",
        "generation",
        "MT/s",
        "DIMMs",
        "GB",
        "W/DIMM",
        "server_W",
        "power",
        "perf",
        "cap",
        "score(GI/s/W)"
    );
    let yn = |ok: bool| if ok { "yes" } else { "no" };
    let mut rows = vec![vec![
        "rank".into(),
        "generation".into(),
        "mts".into(),
        "dimms".into(),
        "capacity_gb".into(),
        "power_per_dimm_w".into(),
        "server_power_w".into(),
        "meets_power".into(),
        "meets_performance".into(),
        "meets_capacity".into(),
        "score".into(),
    ]];
    let mut feasible = 0u32;
    for (i, c) in configs.iter().enumerate() {
        let rank = if c.feasible() {
            feasible += 1;
            format!("#{feasible}")
        } else {
            "-".into()
        };
        // The score is instructions/s per watt; GI/s/W keeps it
        // readable.
        say!(
            ctx,
            "{:<5} {:<12} {:>6} {:>6} {:>7} {:>7.2} {:>8.2} {:>6} {:>5} {:>5} {:>12.3}",
            rank,
            c.label,
            c.data_rate_mts,
            c.dimms_per_server,
            c.capacity_gb,
            c.power_per_dimm_w,
            c.server_power_w,
            yn(c.meets_power),
            yn(c.meets_performance),
            yn(c.meets_capacity),
            c.score / 1e9
        );
        let gs = slug(c.label);
        ctx.summary(
            &format!("configurator.{gs}.score_gips_per_w"),
            c.score / 1e9,
        );
        rows.push(vec![
            format!("{}", i + 1),
            c.label.into(),
            format!("{}", c.data_rate_mts),
            format!("{}", c.dimms_per_server),
            format!("{}", c.capacity_gb),
            format!("{:.4}", c.power_per_dimm_w),
            format!("{:.4}", c.server_power_w),
            format!("{}", c.meets_power),
            format!("{}", c.meets_performance),
            format!("{}", c.meets_capacity),
            format!("{:.4}", c.score),
        ]);
    }
    assert!(
        feasible >= 3,
        "expected at least 3 feasible generations, got {feasible}"
    );
    say!(
        ctx,
        "{feasible} of {} configurations meet all requirements; best: {}",
        configs.len(),
        configs[0].label
    );
    ctx.summary("configurator.feasible", feasible as f64);
    ctx.csv("configurator", &rows);
}
