//! The `health` target: the streaming health plane, end to end.
//!
//! Drives the closed-loop [`AdaptiveGovernor`] through two disturbance
//! scenarios — a slowly degrading module and a machine-room cooling
//! failure — while its series tap streams per-epoch CE/UE/bin rollups
//! into a [`SeriesStore`](telemetry::series::SeriesStore). The
//! detector suite then walks the windows and the breaches fold into a
//! causal [`IncidentLedger`] with the governor's own trace spans linked
//! into each incident.
//!
//! The headline: on the slow-degradation module the CUSUM change-point
//! detector opens an incident **epochs before** the governor's
//! UE-driven retreat. The governor only reacts once an uncorrectable
//! error lands; the health plane sees the correctable-error drift while
//! the margin is still safe, which is exactly the maintenance window an
//! operator wants. The run asserts that lead is at least one epoch.
//!
//! With `--series DIR` the windowed rollups land in
//! `DIR/health.series.jsonl` (via the shared exporter) and the ledger
//! in `DIR/health.incidents.jsonl`; both are byte-identical for any
//! `--jobs` value. Incident span ids index the governor's own
//! per-scenario trace buffer (the `spans` column names them inline).

use crate::context::{say, Ctx};
use hetero_dmr::adaptive::{
    run_closed_loop, AdaptiveConfig, AdaptiveGovernor, AgingDrift, Decision, Environment,
    EpochRecord, MarginResponse, BIN_MTS,
};
use hetero_dmr::governor::EPOCH_PS;
use margin::stress::{measure_margin, StressConfig};
use margin::temperature::TemperatureTransient;
use runner::seed::task_seed;
use std::collections::HashMap;
use telemetry::monitor::{Detector, IncidentLedger, IncidentState, Severity};
use telemetry::trace::{Clock, Tracer};
use workloads::{PhaseSchedule, Suite};

/// One monitored scenario: a disturbance environment plus the governor
/// configuration it runs under.
struct ScenarioDef {
    name: &'static str,
    env: Environment,
    config: AdaptiveConfig,
    /// Detectors watching this scenario's series (scopes already
    /// prefixed `health.<name>.`).
    detectors: Vec<Detector>,
}

/// The two scenarios and their detector suites.
///
/// The slow-degradation governor gets a deliberately complacent config
/// (its CE weaken threshold is far above anything the drift produces),
/// so the *only* signal it acts on is the first uncorrectable error —
/// the worst case the health plane is meant to beat. The cooling
/// failure runs under the production defaults.
fn scenario_defs(epochs: u64, static_bin: u8) -> Vec<ScenarioDef> {
    vec![
        ScenarioDef {
            name: "slow-degradation",
            env: Environment {
                temperature: TemperatureTransient::steady(margin::AmbientTemperature::Room23C),
                excursion_margin_loss_mts: 0,
                // Compressed wear-out: ~12 MT/s of true margin lost per
                // epoch, a bin every ~17 hours.
                aging: AgingDrift {
                    mts_per_kilo_epoch: 12_000,
                    onset_epoch: 0,
                },
                phases: PhaseSchedule::steady(Suite::Hpcg),
            },
            config: AdaptiveConfig::new(100, 10_000_000, 2, 12, static_bin, 2),
            detectors: vec![
                Detector::cusum(
                    "cusum.ce",
                    "health.slow-degradation.ce",
                    Severity::Warning,
                    2_000_000,  // k: drift allowance, 2 000 CE/epoch
                    20_000_000, // h: alarm at 20 000 accumulated excess CE
                ),
                Detector::ewma(
                    "ewma.ce",
                    "health.slow-degradation.ce",
                    Severity::Warning,
                    300,       // alpha 0.3
                    2_000_000, // band: 2 000 CE above the running mean
                    6,
                ),
                Detector::threshold(
                    "ue.any",
                    "health.slow-degradation.ue",
                    Severity::Critical,
                    1,
                ),
            ],
        },
        ScenarioDef {
            name: "temp-transient",
            env: Environment {
                // Cooling failure for the middle quarter of the run,
                // expressed as two bins of margin loss while hot.
                temperature: TemperatureTransient::cooling_failure(epochs / 4, epochs / 4),
                excursion_margin_loss_mts: 2 * BIN_MTS,
                aging: AgingDrift::none(),
                phases: PhaseSchedule::steady(Suite::Hpcg),
            },
            config: AdaptiveConfig::defaults(static_bin),
            detectors: vec![
                Detector::ewma(
                    "ewma.ce",
                    "health.temp-transient.ce",
                    Severity::Warning,
                    300,
                    2_000_000,
                    4,
                ),
                Detector::burn_rate(
                    "burn.ce",
                    "health.temp-transient.ce",
                    Severity::Warning,
                    1_000, // CE budget per epoch window
                    8,     // rolling 8-epoch SLO
                    1_000, // alarm at 1.0x burn
                ),
                Detector::threshold("ue.any", "health.temp-transient.ue", Severity::Critical, 1),
            ],
        },
    ]
}

/// One row of the lead-time narrative table.
struct NarrativeRow {
    scenario: String,
    /// Earliest incident: `(epoch, detector name)`.
    first_alarm: Option<(u64, String)>,
    first_retreat: Option<u64>,
}

/// First epoch (if any) in which the governor retreated.
fn first_retreat(records: &[EpochRecord]) -> Option<u64> {
    records
        .iter()
        .find(|r| matches!(r.decision, Decision::Retreat { .. }))
        .map(|r| r.epoch)
}

/// `"governor.retreat@22+governor.step@35"` for an incident's linked
/// span ids, resolved against the scenario's own trace buffer.
fn span_labels(spans: &[u64], names: &HashMap<u64, String>) -> String {
    if spans.is_empty() {
        return "-".into();
    }
    spans
        .iter()
        .filter_map(|id| names.get(id).cloned())
        .collect::<Vec<_>>()
        .join("+")
}

/// The `health` target.
pub fn health(ctx: &mut Ctx) {
    let epochs: u64 = if ctx.quick_run { 48 } else { 96 };

    // The series store the governor taps stream into: the `--series`
    // store when one is on, a private one otherwise — the detector
    // suite and ledger run (and assert) either way.
    let store = ctx
        .obs
        .series()
        .map(|(store, _)| store.clone())
        .unwrap_or_default();

    // Same offline stress-test envelope as the adaptive ablation.
    let stress = StressConfig::default();
    let static_margin = measure_margin(dram::rate::DataRate::MT3200, 600, &stress, None);
    let static_bin = (static_margin / BIN_MTS) as u8;
    let response = MarginResponse::typical(600);

    say!(
        ctx,
        "Streaming health plane ({} one-hour epochs, stress-test bin {}):",
        epochs,
        static_bin
    );

    let defs = scenario_defs(epochs, static_bin);
    let mut ledger = IncidentLedger::default();
    // Per-scenario: (series prefix, span-id -> label) for rendering the
    // ledger's linked spans, plus the narrative rows.
    let mut span_names: Vec<(String, HashMap<u64, String>)> = Vec::new();
    let mut narrative: Vec<NarrativeRow> = Vec::new();
    let mut slow_lead: Option<i64> = None;

    for (idx, def) in defs.iter().enumerate() {
        let prefix = format!("health.{}", def.name);
        let mut governor = AdaptiveGovernor::new(def.config);
        governor.attach_series(&store, &prefix);
        if let Some(scope) = ctx.metrics_scope(&prefix) {
            governor.attach_telemetry(&scope);
        }
        // A scenario-local tracer: its buffer indexes are what the
        // ledger's span links refer to (deterministic regardless of
        // what else the task traces). The events are absorbed into the
        // task tracer afterwards when `--trace` is on.
        let local = Tracer::new();
        governor.set_tracer(local.clone());

        let records = run_closed_loop(
            &mut governor,
            &response,
            &def.env,
            task_seed(ctx.seed, "health.online", idx as u64),
            epochs,
        );
        let events = local.take();

        // Evaluate this scenario's detectors on its own sub-ledger so
        // span linking only sees this governor's spans (both scenarios
        // share the sim-time axis), then fold into the combined ledger
        // in canonical scenario order.
        let mut sub = IncidentLedger::evaluate(&store.snapshot(), &def.detectors);
        sub.link_spans(&events, Clock::SimPs);
        let names: HashMap<u64, String> = events
            .iter()
            .map(|ev| (ev.id, format!("{}@{}", ev.name, ev.start / EPOCH_PS)))
            .collect();

        let first_alarm = sub
            .incidents()
            .iter()
            .map(|inc| (inc.first / EPOCH_PS, inc.detector.clone()))
            .min();
        let retreat = first_retreat(&records);
        if def.name == "slow-degradation" {
            let cusum_open = sub
                .incidents()
                .iter()
                .find(|inc| inc.detector == "cusum.ce")
                .map(|inc| inc.first / EPOCH_PS)
                .expect("slow degradation must trip the CUSUM detector");
            let retreat = retreat.expect("slow degradation must eventually force a UE retreat");
            let lead = retreat as i64 - cusum_open as i64;
            assert!(
                lead >= 1,
                "CUSUM must lead the governor's UE retreat by >= 1 epoch \
                 (alarm at epoch {cusum_open}, retreat at epoch {retreat})"
            );
            slow_lead = Some(lead);
        }
        narrative.push(NarrativeRow {
            scenario: def.name.to_string(),
            first_alarm,
            first_retreat: retreat,
        });
        span_names.push((format!("{prefix}."), names));
        ledger.absorb(sub);

        if let Some(t) = ctx.obs.tracer() {
            t.absorb(events);
        }

        ctx.summary(
            &format!("{prefix}.ue_total"),
            records.iter().map(|r| r.ue).sum::<u64>() as f64,
        );
    }

    // Operator lifecycle demo: acknowledge the first still-open
    // incident (the ledger keeps the note; the JSONL export carries
    // the state).
    let first_open = ledger
        .incidents()
        .iter()
        .find(|inc| inc.state == IncidentState::Open)
        .map(|inc| inc.id);
    if let Some(id) = first_open {
        ledger.ack(id, "maintenance window scheduled");
    }

    say!(
        ctx,
        "{:<18} {:>12} {:<10} {:>14} {:>6}",
        "scenario",
        "first-alarm",
        "detector",
        "first-retreat",
        "lead"
    );
    for row in &narrative {
        let (alarm_e, det) = match &row.first_alarm {
            Some((e, d)) => (format!("epoch {e}"), d.clone()),
            None => ("-".into(), "-".into()),
        };
        let retreat_e = row
            .first_retreat
            .map_or("-".into(), |e| format!("epoch {e}"));
        let lead = match (&row.first_alarm, row.first_retreat) {
            (Some((a, _)), Some(r)) => format!("{:+}", r as i64 - *a as i64),
            _ => "-".into(),
        };
        say!(
            ctx,
            "{:<18} {:>12} {:<10} {:>14} {:>6}",
            row.scenario,
            alarm_e,
            det,
            retreat_e,
            lead
        );
    }
    say!(
        ctx,
        "CUSUM saw the slow drift {} epoch(s) before the governor's UE retreat",
        slow_lead.expect("slow-degradation ran")
    );

    say!(ctx, "incident ledger ({} incidents):", ledger.len());
    say!(
        ctx,
        "{:>3} {:<9} {:<28} {:<8} {:<8} {:>11} {:>4} {:>12} spans",
        "id",
        "detector",
        "scope",
        "severity",
        "state",
        "epochs",
        "win",
        "peak"
    );
    let mut rows = vec![vec![
        "id".into(),
        "detector".into(),
        "scope".into(),
        "severity".into(),
        "state".into(),
        "first_epoch".into(),
        "last_epoch".into(),
        "windows".into(),
        "peak_milli".into(),
        "spans".into(),
    ]];
    for inc in ledger.incidents() {
        let names = span_names
            .iter()
            .find(|(p, _)| inc.scope.starts_with(p.as_str()))
            .map(|(_, n)| n);
        let spans = names.map_or("-".into(), |n| span_labels(&inc.spans, n));
        let (first_e, last_e) = (inc.first / EPOCH_PS, inc.last / EPOCH_PS);
        say!(
            ctx,
            "{:>3} {:<9} {:<28} {:<8} {:<8} {:>5}..{:<4} {:>4} {:>12} {}",
            inc.id,
            inc.detector,
            inc.scope,
            inc.severity.label(),
            inc.state.label(),
            first_e,
            last_e,
            inc.windows,
            inc.peak_milli / 1_000,
            spans
        );
        rows.push(vec![
            inc.id.to_string(),
            inc.detector.clone(),
            inc.scope.clone(),
            inc.severity.label().into(),
            inc.state.label().into(),
            first_e.to_string(),
            last_e.to_string(),
            inc.windows.to_string(),
            inc.peak_milli.to_string(),
            spans,
        ]);
    }

    ctx.summary("health.incidents_total", ledger.len() as f64);
    ctx.summary("health.incidents_open", ledger.open_count() as f64);
    ctx.summary(
        "health.slow-degradation.cusum_lead_epochs",
        slow_lead.unwrap_or(0) as f64,
    );
    ctx.csv("health", &rows);

    // The ledger rides along with the series export.
    if let Some(dir) = &ctx.series_dir {
        if std::fs::create_dir_all(dir).is_err() {
            eprintln!("cannot create {dir}");
        } else {
            let path = format!("{dir}/health.incidents.jsonl");
            if let Err(e) = std::fs::write(&path, ledger.to_jsonl()) {
                eprintln!("cannot write {path}: {e}");
            }
        }
    }
}
