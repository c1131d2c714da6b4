//! The `adaptive` target: offline binning vs. online adaptation.
//!
//! The paper bins each module once with an offline stress test and
//! trusts that bin forever. This ablation confronts both policies
//! with the disturbances a deployment actually sees — a machine-room
//! cooling failure (via [`margin::temperature::TemperatureTransient`]),
//! aging drift, and workload phase changes — and reports, per
//! scenario, the time-weighted speedup and the error outcomes of:
//!
//! * **offline** — the stress-test bin, held for the whole run (the
//!   epoch SDC-budget governor still provides its fallback), and
//! * **online** — the closed-loop [`AdaptiveGovernor`] stepping one
//!   200 MT/s bin per epoch from observed CE/UE feedback, with the
//!   stress-test bin as its safety envelope.
//!
//! Epoch time is compressed: a full run covers 96 one-hour epochs (48
//! under `--quick`) with disturbance timescales scaled to match.
//! Per-epoch performance at bin *b* comes from the same `NodeModel`
//! evaluation the paper figures use (`Hetero-DMR@b·200 MT/s`,
//! normalized to the Commercial Baseline); bin 0 means the channel
//! runs at specification, i.e. baseline speed.

use crate::context::{say, Ctx};
use crate::node_figures::model;
use hetero_dmr::adaptive::{
    run_closed_loop, AdaptiveConfig, AdaptiveGovernor, AgingDrift, Environment, MarginResponse,
    BIN_MTS,
};
use hetero_dmr::governor::EpochGovernor;
use hetero_dmr::{MemoryDesign, NodeModel, UsageBucket};
use margin::stress::{measure_margin, sample_poisson, StressConfig};
use margin::temperature::TemperatureTransient;
use memsim::config::HierarchyConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use runner::seed::{iteration_seed, task_seed};
use telemetry::slug;
use workloads::{PhaseSchedule, Suite};

/// One disturbance scenario of the ablation.
struct ScenarioDef {
    name: &'static str,
    /// The silicon's true margin at baseline conditions, MT/s.
    true_margin_mts: u32,
    env: Environment,
}

/// The four scenarios: the offline assumption (steady), then one
/// disturbance axis at a time.
fn scenario_defs(epochs: u64) -> Vec<ScenarioDef> {
    vec![
        ScenarioDef {
            name: "steady",
            true_margin_mts: 600,
            env: Environment::steady(Suite::Hpcg),
        },
        ScenarioDef {
            name: "temp-transient",
            true_margin_mts: 600,
            env: Environment {
                // Cooling failure for the middle quarter of the run:
                // the chamber's ~4x error rates expressed as two bins
                // of margin loss while hot.
                temperature: TemperatureTransient::cooling_failure(epochs / 4, epochs / 4),
                excursion_margin_loss_mts: 2 * BIN_MTS,
                aging: AgingDrift::none(),
                phases: PhaseSchedule::steady(Suite::Hpcg),
            },
        },
        ScenarioDef {
            name: "aging-drift",
            true_margin_mts: 600,
            env: Environment {
                temperature: TemperatureTransient::steady(margin::AmbientTemperature::Room23C),
                excursion_margin_loss_mts: 0,
                // Compressed lifetime wear: ~6 MT/s of margin lost per
                // epoch, i.e. more than a bin over the full run.
                aging: AgingDrift {
                    mts_per_kilo_epoch: 6_000,
                    onset_epoch: 0,
                },
                phases: PhaseSchedule::steady(Suite::Hpcg),
            },
        },
        ScenarioDef {
            name: "phase-shift",
            true_margin_mts: 600,
            env: Environment {
                temperature: TemperatureTransient::steady(margin::AmbientTemperature::Room23C),
                excursion_margin_loss_mts: 0,
                aging: AgingDrift::none(),
                // Memory-bound and compute-bound jobs alternating in
                // 8-hour allocations: error exposure swings with the
                // phase while the silicon stays put.
                phases: PhaseSchedule::alternating(Suite::Hpcg, Suite::Npb, 8),
            },
        },
    ]
}

/// What one policy did over one scenario.
struct PolicyOutcome {
    speedup: f64,
    ce: u64,
    ue: u64,
    fallbacks: u64,
    /// `(up, down, retreats)` — zero for the offline policy.
    steps: (u64, u64, u64),
}

/// Per-epoch speedup at `bin` running `suite`, degraded by the SDC
/// budget governor's expected fallback fraction for that epoch's CE
/// count. Bin 0 is the specification operating point (baseline 1.0).
fn epoch_speedup(m: &NodeModel, budget: &EpochGovernor, bin: u8, suite: Suite, ce: u64) -> f64 {
    if bin == 0 {
        return 1.0;
    }
    let exploiting = m.normalized(
        MemoryDesign::HeteroDmr {
            margin_mts: bin as u32 * BIN_MTS,
        },
        suite,
        UsageBucket::Low,
    );
    let active = budget.expected_active_fraction(ce as f64);
    active * exploiting + (1.0 - active)
}

/// The offline policy: hold `bin` for the whole run, counting the
/// errors that conditions inflict on it. Same counter-based RNG
/// discipline as [`run_closed_loop`], on its own stream.
fn run_offline(
    bin: u8,
    response: &MarginResponse,
    env: &Environment,
    seed: u64,
    epochs: u64,
    budget: &mut EpochGovernor,
) -> Vec<(u64, u64)> {
    let margin_mts = bin as u32 * BIN_MTS;
    (0..epochs)
        .map(|epoch| {
            let d = env.disturbance_at(epoch);
            let (lambda_ce, lambda_ue) = response.lambda(margin_mts, d);
            let mut rng = StdRng::seed_from_u64(iteration_seed(seed, epoch));
            let ce = sample_poisson(&mut rng, lambda_ce);
            let ue = sample_poisson(&mut rng, lambda_ue);
            budget.record_errors(epoch * hetero_dmr::governor::EPOCH_PS, ce);
            (ce, ue)
        })
        .collect()
}

/// The `adaptive` target.
pub fn adaptive(ctx: &mut Ctx) {
    let epochs: u64 = if ctx.quick_run { 48 } else { 96 };
    let h = HierarchyConfig::hierarchy1();
    let m = model(ctx, h);

    // The shared offline stress-test selection: both the static bin
    // and the online governor's safety envelope derive from it.
    let stress = StressConfig::default();
    let defs = scenario_defs(epochs);

    say!(
        ctx,
        "Adaptive margin governor vs offline binning ({}, {} one-hour epochs):",
        h.name,
        epochs
    );
    say!(
        ctx,
        "{:<15} {:<8} {:>8} {:>10} {:>5} {:>9} {:>15}",
        "scenario",
        "policy",
        "perf",
        "CE",
        "UE",
        "budget-exh",
        "up/down/retreat"
    );

    let mut rows = vec![vec![
        "scenario".into(),
        "policy".into(),
        "speedup".into(),
        "ce".into(),
        "ue".into(),
        "fallbacks".into(),
        "steps_up".into(),
        "steps_down".into(),
        "retreats".into(),
    ]];
    let mut offline_ue_total = 0u64;
    let mut online_ue_total = 0u64;

    for (idx, def) in defs.iter().enumerate() {
        let response = MarginResponse::typical(def.true_margin_mts);
        let static_margin = measure_margin(
            dram::rate::DataRate::MT3200,
            def.true_margin_mts,
            &stress,
            None,
        );
        let static_bin = (static_margin / BIN_MTS) as u8;

        // Offline: the stress-test bin, held against the weather.
        let mut offline_budget = EpochGovernor::default();
        if let Some(scope) = ctx.metrics_scope(&format!("adaptive.{}.offline", slug(def.name))) {
            offline_budget.attach_telemetry(&scope);
        }
        let off_trace = run_offline(
            static_bin,
            &response,
            &def.env,
            task_seed(ctx.seed, "adaptive.offline", idx as u64),
            epochs,
            &mut offline_budget,
        );
        let offline = PolicyOutcome {
            speedup: off_trace
                .iter()
                .enumerate()
                .map(|(e, &(ce, _))| {
                    let suite = def.env.phases.suite_at(e as u64);
                    epoch_speedup(&m, &offline_budget, static_bin, suite, ce)
                })
                .sum::<f64>()
                / epochs as f64,
            ce: off_trace.iter().map(|&(ce, _)| ce).sum(),
            ue: off_trace.iter().map(|&(_, ue)| ue).sum(),
            fallbacks: offline_budget.fallbacks(),
            steps: (0, 0, 0),
        };

        // Online: the closed loop, envelope = the stress-test bin.
        let mut governor = AdaptiveGovernor::new(AdaptiveConfig::defaults(static_bin));
        if let Some(scope) = ctx.metrics_scope(&format!("adaptive.{}.online", slug(def.name))) {
            governor.attach_telemetry(&scope);
        }
        if let Some(t) = ctx.obs.tracer() {
            governor.set_tracer(t.clone());
        }
        let records = run_closed_loop(
            &mut governor,
            &response,
            &def.env,
            task_seed(ctx.seed, "adaptive.online", idx as u64),
            epochs,
        );
        let envelope_violations = records
            .iter()
            .filter(|r| r.bin_after > static_bin || r.bin_after > r.bin_during + 1)
            .count();
        assert_eq!(
            envelope_violations, 0,
            "{}: online governor violated the safety envelope",
            def.name
        );
        let (up, down, retreats, _holds) = governor.decision_counts();
        let online = PolicyOutcome {
            speedup: records
                .iter()
                .map(|r| {
                    let suite = def.env.phases.suite_at(r.epoch);
                    epoch_speedup(&m, governor.budget(), r.bin_during, suite, r.ce)
                })
                .sum::<f64>()
                / epochs as f64,
            ce: records.iter().map(|r| r.ce).sum(),
            ue: records.iter().map(|r| r.ue).sum(),
            fallbacks: governor.budget().fallbacks(),
            steps: (up, down, retreats),
        };
        offline_ue_total += offline.ue;
        online_ue_total += online.ue;

        for (label, o) in [("offline", &offline), ("online", &online)] {
            let steps = if label == "online" {
                format!("{}/{}/{}", o.steps.0, o.steps.1, o.steps.2)
            } else {
                "-".into()
            };
            say!(
                ctx,
                "{:<15} {:<8} {:>7.3}x {:>10} {:>5} {:>9} {:>15}",
                def.name,
                label,
                o.speedup,
                o.ce,
                o.ue,
                o.fallbacks,
                steps
            );
            rows.push(vec![
                def.name.into(),
                label.into(),
                format!("{:.4}", o.speedup),
                o.ce.to_string(),
                o.ue.to_string(),
                o.fallbacks.to_string(),
                o.steps.0.to_string(),
                o.steps.1.to_string(),
                o.steps.2.to_string(),
            ]);
            let s = slug(def.name);
            ctx.summary(&format!("adaptive.{s}.{label}_speedup"), o.speedup);
            ctx.summary(&format!("adaptive.{s}.{label}_ue"), o.ue as f64);
        }

        // Under the offline stress test's own assumptions the two
        // policies must agree (the differential test pins this at the
        // library layer; this is the end-to-end echo).
        if def.name == "steady" {
            let settled = records.last().expect("epochs > 0").bin_after;
            assert!(
                (settled as i16 - static_bin as i16).abs() <= 1,
                "steady: online settled at bin {settled}, offline picked {static_bin}"
            );
        }
    }

    // The ablation's headline: adaptation trades a sliver of speedup
    // for the disturbance-window UEs the static bin walks into.
    assert!(
        online_ue_total < offline_ue_total,
        "online adaptation must strictly reduce UEs under disturbances \
         (online {online_ue_total} vs offline {offline_ue_total})"
    );
    say!(
        ctx,
        "uncorrectable errors across all scenarios: offline {}, online {} \
         (0 envelope violations)",
        offline_ue_total,
        online_ue_total
    );
    ctx.summary("adaptive.offline_ue_total", offline_ue_total as f64);
    ctx.summary("adaptive.online_ue_total", online_ue_total as f64);
    ctx.csv("adaptive", &rows);
}
