//! `experiments report`: turns a `--metrics`/`--trace` output
//! directory into a Markdown run report with a paper-drift check.
//!
//! The report ingests the run manifest, the deterministic metrics
//! snapshot, and (when present) the Chrome trace, then compares the
//! run's `summary.*` gauges against the reference figures in
//! `results/` (`--refs`). Any comparison outside its tolerance is a
//! **drift breach**: the breach is flagged in the report and the
//! process exits non-zero, so CI catches a reproduction silently
//! walking away from the paper.

use std::fmt::Write as _;
use telemetry::json::{self, Json};
use telemetry::monitor::parse_incidents_jsonl;
use telemetry::series::parse_series_jsonl;
use telemetry::trace::{check_well_nested, parse_chrome_trace, ChromeEvent};
use telemetry::{parse_csv_line, parse_jsonl, Histogram, MetricValue, Snapshot};

/// How a reference value is derived from a results CSV.
enum RefKind {
    /// Mean of the column over every row matching the filters.
    Mean,
    /// The column of the single row matching the filters.
    Cell,
    /// The `key` column of the row maximizing the (numeric) column.
    ArgmaxKey { key: &'static str },
}

/// One drift comparison: a `summary.<gauge>` metric vs a value derived
/// from a reference CSV, with a relative tolerance sized for the
/// `--quick` smoke configuration (quick runs simulate fewer ops, so
/// they sit near — not on — the full-run references).
struct RefSpec {
    /// Metric name, without the `summary.` prefix.
    gauge: &'static str,
    /// CSV file inside the `--refs` directory.
    file: &'static str,
    /// Column holding the reference value.
    col: &'static str,
    /// `(column, value)` row filters (all must match).
    filters: &'static [(&'static str, &'static str)],
    kind: RefKind,
    /// Allowed |measured − reference| / |reference|.
    rel_tol: f64,
}

/// Every comparison the drift table can make. A run only evaluates
/// the specs whose gauges it recorded (a fig5-only run checks the six
/// fig5 rows and skips the rest).
const REF_SPECS: &[RefSpec] = &[
    RefSpec {
        gauge: "fig5.hierarchy1.latency_margin",
        file: "fig5.csv",
        col: "latency_margin",
        filters: &[("hierarchy", "Hierarchy1")],
        kind: RefKind::Mean,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig5.hierarchy1.frequency_margin",
        file: "fig5.csv",
        col: "frequency_margin",
        filters: &[("hierarchy", "Hierarchy1")],
        kind: RefKind::Mean,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig5.hierarchy1.freq_lat_margins",
        file: "fig5.csv",
        col: "freq_lat_margins",
        filters: &[("hierarchy", "Hierarchy1")],
        kind: RefKind::Mean,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig5.hierarchy2.latency_margin",
        file: "fig5.csv",
        col: "latency_margin",
        filters: &[("hierarchy", "Hierarchy2")],
        kind: RefKind::Mean,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig5.hierarchy2.frequency_margin",
        file: "fig5.csv",
        col: "frequency_margin",
        filters: &[("hierarchy", "Hierarchy2")],
        kind: RefKind::Mean,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig5.hierarchy2.freq_lat_margins",
        file: "fig5.csv",
        col: "freq_lat_margins",
        filters: &[("hierarchy", "Hierarchy2")],
        kind: RefKind::Mean,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig2.mode_bucket_mts",
        file: "fig2.csv",
        col: "modules",
        filters: &[],
        kind: RefKind::ArgmaxKey { key: "bucket_mts" },
        rel_tol: 0.001,
    },
    RefSpec {
        gauge: "fig4.brand_new_mean_mts",
        file: "fig4.csv",
        col: "mean_mts",
        filters: &[("panel", "(a) condition"), ("group", "Brand new")],
        kind: RefKind::Cell,
        rel_tol: 0.02,
    },
    RefSpec {
        gauge: "fig12.h1.hdmr800.low",
        file: "fig12.csv",
        col: "normalized_perf",
        filters: &[
            ("hierarchy", "Hierarchy1"),
            ("margin_mts", "800"),
            ("design", "Hetero-DMR@0.8GT/s"),
            ("bucket", "[0~25%)"),
        ],
        kind: RefKind::Cell,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig13.h1.hdmr800.epi",
        file: "fig13.csv",
        col: "normalized_epi",
        filters: &[
            ("hierarchy", "Hierarchy1"),
            ("design", "Hetero-DMR@0.8GT/s"),
        ],
        kind: RefKind::Cell,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig14.mean_accesses",
        file: "fig14.csv",
        col: "normalized_accesses_per_instr",
        filters: &[],
        kind: RefKind::Mean,
        rel_tol: 0.02,
    },
    RefSpec {
        gauge: "fig15.mean_bw_util",
        file: "fig15.csv",
        col: "bandwidth_utilization",
        filters: &[],
        kind: RefKind::Mean,
        rel_tol: 0.05,
    },
    RefSpec {
        gauge: "fig17.aware_turnaround_speedup",
        file: "fig17.csv",
        col: "turnaround_speedup",
        filters: &[("system", "Hetero-DMR + margin-aware")],
        kind: RefKind::Cell,
        rel_tol: 0.08,
    },
];

/// Entry point for the `report` subcommand. Returns the process exit
/// code: 0 on a clean report, 1 on malformed inputs or drift breaches,
/// 2 on usage errors.
pub fn run(args: &[String]) -> i32 {
    let mut dir: Option<String> = None;
    let mut refs = String::from("results");
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--refs" => match iter.next() {
                Some(v) => refs = v.clone(),
                None => return usage("--refs needs a directory"),
            },
            "--out" => match iter.next() {
                Some(v) => out = Some(v.clone()),
                None => return usage("--out needs a file path"),
            },
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other.to_string()),
            other => return usage(&format!("unexpected argument '{other}'")),
        }
    }
    let Some(dir) = dir else {
        return usage("report needs a metrics/trace directory");
    };
    let out = out.unwrap_or_else(|| format!("{dir}/report.md"));
    match generate(&dir, &refs) {
        Ok((text, breaches)) => {
            if let Err(e) = std::fs::write(&out, &text) {
                eprintln!("cannot write {out}: {e}");
                return 1;
            }
            println!("report -> {out}");
            if breaches > 0 {
                eprintln!("{breaches} drift breach(es) against {refs}/");
                1
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("report failed: {e}");
            1
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("{msg}\nusage: experiments report DIR [--refs DIR] [--out FILE]");
    2
}

/// Builds the report text; the second return is the breach count.
fn generate(dir: &str, refs: &str) -> Result<(String, usize), String> {
    let manifest_path = format!("{dir}/manifest.json");
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {manifest_path}: {e}"))?;
    let manifest = json::parse(&manifest_text).map_err(|e| format!("{manifest_path}: {e}"))?;
    let target = manifest
        .get("target")
        .and_then(Json::as_str)
        .ok_or("manifest has no target")?
        .to_string();

    let metrics_path = format!("{dir}/{target}.metrics.jsonl");
    let snapshot = match std::fs::read_to_string(&metrics_path) {
        Ok(text) => parse_jsonl(&text).map_err(|e| format!("{metrics_path}: {e}"))?,
        Err(_) => Snapshot::default(),
    };

    let trace_path = format!("{dir}/{target}.trace.json");
    let trace = match std::fs::read_to_string(&trace_path) {
        Ok(text) => {
            let events = parse_chrome_trace(&text).map_err(|e| format!("{trace_path}: {e}"))?;
            check_well_nested(&events).map_err(|e| format!("{trace_path}: {e}"))?;
            Some(events)
        }
        Err(_) => None,
    };

    let mut md = String::new();
    let _ = writeln!(md, "# Run report: `{target}`\n");
    render_provenance(&mut md, &manifest, &snapshot);
    render_wall_clock(&mut md, &manifest);
    if let Some(events) = &trace {
        render_trace(&mut md, events);
    }
    render_ecc(&mut md, &snapshot);
    render_energy(&mut md, &snapshot);
    render_adaptive(&mut md, &snapshot);
    render_fleet(&mut md, &snapshot);
    render_queue_delays(&mut md, &snapshot);
    render_health(&mut md, dir, &target)?;
    let breaches = render_drift(&mut md, &snapshot, refs);
    Ok((md, breaches))
}

fn render_provenance(md: &mut String, manifest: &Json, snapshot: &Snapshot) {
    let _ = writeln!(md, "## Provenance\n");
    let _ = writeln!(md, "| field | value |");
    let _ = writeln!(md, "|---|---|");
    for key in ["seed", "git_describe", "metric_count"] {
        if let Some(v) = manifest.get(key) {
            let _ = writeln!(md, "| {key} | {} |", json_scalar(v));
        }
    }
    if let Some(knobs) = manifest.get("knobs").and_then(Json::as_obj) {
        for (k, v) in knobs {
            let _ = writeln!(md, "| knob: {k} | {} |", json_scalar(v));
        }
    }
    let _ = writeln!(md, "| metrics parsed | {} series |", snapshot.len());
    md.push('\n');
}

fn render_wall_clock(md: &mut String, manifest: &Json) {
    let Some(walls) = manifest.get("target_wall_ms").and_then(Json::as_obj) else {
        return;
    };
    if walls.is_empty() {
        return;
    }
    let _ = writeln!(md, "## Wall clock (non-deterministic)\n");
    let _ = writeln!(md, "| target | wall (ms) |");
    let _ = writeln!(md, "|---|---|");
    for (name, ms) in walls {
        let _ = writeln!(md, "| {name} | {} |", json_scalar(ms));
    }
    if let Some(total) = manifest.get("wall_ms").and_then(Json::as_u64) {
        let _ = writeln!(md, "| **total** | **{total}** |");
    }
    md.push('\n');
}

/// Buckets a span name into a reporting family (`write_drain.ch3` and
/// `write_drain.ch0` are the same row; `mode.read_enter` stays whole).
fn name_stem(name: &str) -> &str {
    for prefix in ["write_drain", "job", "sim", "task"] {
        if name
            .strip_prefix(prefix)
            .is_some_and(|r| r.starts_with('.'))
        {
            return prefix;
        }
    }
    name
}

fn render_trace(md: &mut String, events: &[ChromeEvent]) {
    let _ = writeln!(md, "## Trace\n");
    let spans = events.iter().filter(|e| e.ph == "X").count();
    let instants = events.len() - spans;
    let _ = writeln!(
        md,
        "{} event(s): {spans} span(s), {instants} instant(s), well-nested.\n",
        events.len()
    );
    // Family tallies: count, total duration, and log₂-resolution
    // duration quantiles (durations fold into a histogram so the
    // quantile math is the same one the metrics layer uses).
    let mut families: Vec<(String, usize, u64, Histogram)> = Vec::new();
    for ev in events {
        let stem = name_stem(&ev.name).to_string();
        match families.iter_mut().find(|(n, _, _, _)| *n == stem) {
            Some((_, count, dur, hist)) => {
                *count += 1;
                *dur += ev.dur;
                hist.record(ev.dur);
            }
            None => {
                let hist = Histogram::new();
                hist.record(ev.dur);
                families.push((stem, 1, ev.dur, hist));
            }
        }
    }
    families.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let _ = writeln!(
        md,
        "| span family | events | total duration | p50 | p95 | p99 |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for (name, count, dur, hist) in &families {
        let snap = hist.snapshot();
        let q = |q: f64| snap.approx_quantile(q).unwrap_or(0);
        let _ = writeln!(
            md,
            "| {name} | {count} | {dur} | {} | {} | {} |",
            q(0.50),
            q(0.95),
            q(0.99)
        );
    }
    md.push('\n');
    // Mode-transition / down-bin timeline (the down-bin triage view):
    // the first few epoch boundaries in (process, time) order.
    let mut timeline: Vec<&ChromeEvent> = events
        .iter()
        .filter(|e| e.name.starts_with("mode.") || e.name == "down_bin")
        .collect();
    timeline.sort_by_key(|e| (e.pid, e.ts));
    if !timeline.is_empty() {
        let _ = writeln!(md, "### Mode transitions\n");
        const SHOWN: usize = 12;
        for ev in timeline.iter().take(SHOWN) {
            let _ = writeln!(md, "- pid {} @ {} ps: `{}`", ev.pid, ev.ts, ev.name);
        }
        if timeline.len() > SHOWN {
            let _ = writeln!(md, "- … {} more", timeline.len() - SHOWN);
        }
        md.push('\n');
    }
}

/// CE/UE/SDC ledgers per telemetry scope, from the metrics snapshot.
fn render_ecc(md: &mut String, snapshot: &Snapshot) {
    let mut scopes: Vec<(String, [u64; 4])> = Vec::new();
    for entry in &snapshot.entries {
        let Some((scope, leaf)) = entry.name.rsplit_once(".ecc.") else {
            continue;
        };
        let slot = match leaf {
            "injected" => 0,
            "ce" => 1,
            "ue" => 2,
            "sdc" => 3,
            _ => continue,
        };
        let MetricValue::Counter(v) = entry.value else {
            continue;
        };
        match scopes.iter_mut().find(|(s, _)| *s == scope) {
            Some((_, row)) => row[slot] += v,
            None => {
                let mut row = [0u64; 4];
                row[slot] = v;
                scopes.push((scope.to_string(), row));
            }
        }
    }
    if scopes.is_empty() {
        return;
    }
    let _ = writeln!(md, "## ECC outcomes\n");
    let _ = writeln!(md, "| scope | injected | CE | UE | SDC |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for (scope, [injected, ce, ue, sdc]) in &scopes {
        let _ = writeln!(md, "| {scope} | {injected} | {ce} | {ue} | {sdc} |");
    }
    md.push('\n');
}

/// Power/energy results: the `energy` and `configurator` headline
/// gauges plus the simulator's bank-state residency tallies (summed
/// across channel scopes), when the run recorded any.
fn render_energy(md: &mut String, snapshot: &Snapshot) {
    let mut gauges: Vec<(&str, f64)> = Vec::new();
    let mut residency = [("active", 0u64), ("refresh", 0u64), ("self_refresh", 0u64)];
    let mut saw_residency = false;
    for entry in &snapshot.entries {
        if let Some(name) = entry.name.strip_prefix("summary.") {
            if name.starts_with("energy.") || name.starts_with("configurator.") {
                if let MetricValue::Gauge(v) = entry.value {
                    gauges.push((name, v as f64 / telemetry::GAUGE_SCALE));
                }
            }
            continue;
        }
        let Some((_, leaf)) = entry.name.rsplit_once('.') else {
            continue;
        };
        let MetricValue::Counter(v) = entry.value else {
            continue;
        };
        for (state, total) in residency.iter_mut() {
            if leaf == format!("residency_{state}_bank_ps") {
                *total += v;
                saw_residency = true;
            }
        }
    }
    if gauges.is_empty() && !saw_residency {
        return;
    }
    let _ = writeln!(md, "## Power/energy\n");
    if !gauges.is_empty() {
        let _ = writeln!(md, "| gauge | value |");
        let _ = writeln!(md, "|---|---|");
        for (name, v) in &gauges {
            let _ = writeln!(md, "| {name} | {v:.4} |");
        }
        md.push('\n');
    }
    if saw_residency {
        let _ = writeln!(
            md,
            "Bank-state residency (bank·ps, summed over every recorded channel):\n"
        );
        let _ = writeln!(md, "| state | bank·ps |");
        let _ = writeln!(md, "|---|---|");
        for (state, total) in &residency {
            let _ = writeln!(md, "| {state} | {total} |");
        }
        md.push('\n');
    }
}

/// Adaptive-margin ablation results: the `adaptive` target's headline
/// gauges (offline vs online speedup and UE outcomes per disturbance
/// scenario) plus the governor's decision counters, when the run
/// recorded any.
fn render_adaptive(md: &mut String, snapshot: &Snapshot) {
    let mut gauges: Vec<(&str, f64)> = Vec::new();
    let mut decisions: Vec<(&str, u64)> = Vec::new();
    for entry in &snapshot.entries {
        if let Some(name) = entry.name.strip_prefix("summary.adaptive.") {
            if let MetricValue::Gauge(v) = entry.value {
                gauges.push((name, v as f64 / telemetry::GAUGE_SCALE));
            }
            continue;
        }
        let Some(name) = entry.name.strip_prefix("adaptive.") else {
            continue;
        };
        let Some((_, leaf)) = name.rsplit_once('.') else {
            continue;
        };
        if matches!(leaf, "steps_up" | "steps_down" | "retreats" | "fallbacks") {
            if let MetricValue::Counter(v) = entry.value {
                decisions.push((name, v));
            }
        }
    }
    if gauges.is_empty() && decisions.is_empty() {
        return;
    }
    let _ = writeln!(md, "## Adaptive margin\n");
    if !gauges.is_empty() {
        let _ = writeln!(md, "Offline binning vs online adaptation, per scenario:\n");
        let _ = writeln!(md, "| gauge | value |");
        let _ = writeln!(md, "|---|---|");
        for (name, v) in &gauges {
            let _ = writeln!(md, "| {name} | {v:.4} |");
        }
        md.push('\n');
    }
    if !decisions.is_empty() {
        let _ = writeln!(md, "Governor decisions:\n");
        let _ = writeln!(md, "| counter | value |");
        let _ = writeln!(md, "|---|---|");
        for (name, v) in &decisions {
            let _ = writeln!(md, "| {name} | {v} |");
        }
        md.push('\n');
    }
}

/// Fleet-federation results: the `fleet` target's headline gauges
/// (placement-policy comparison) plus per-member job-start counters,
/// when the run recorded any.
fn render_fleet(md: &mut String, snapshot: &Snapshot) {
    let mut gauges: Vec<(&str, f64)> = Vec::new();
    let mut starts: Vec<(&str, u64)> = Vec::new();
    for entry in &snapshot.entries {
        if let Some(name) = entry.name.strip_prefix("summary.fleet.") {
            if let MetricValue::Gauge(v) = entry.value {
                gauges.push((name, v as f64 / telemetry::GAUGE_SCALE));
            }
            continue;
        }
        let Some(name) = entry.name.strip_prefix("fleet.") else {
            continue;
        };
        let Some((_, leaf)) = name.rsplit_once('.') else {
            continue;
        };
        if matches!(
            leaf,
            "jobs_started" | "jobs_backfilled" | "unknown_group_starts"
        ) {
            if let MetricValue::Counter(v) = entry.value {
                starts.push((name, v));
            }
        }
    }
    if gauges.is_empty() && starts.is_empty() {
        return;
    }
    let _ = writeln!(md, "## Fleet federation\n");
    if !gauges.is_empty() {
        let _ = writeln!(
            md,
            "Margin-aware vs capacity-weighted placement over the streamed fleet:\n"
        );
        let _ = writeln!(md, "| gauge | value |");
        let _ = writeln!(md, "|---|---|");
        for (name, v) in &gauges {
            let _ = writeln!(md, "| {name} | {v:.4} |");
        }
        md.push('\n');
    }
    if !starts.is_empty() {
        let _ = writeln!(md, "Per-member scheduling counters:\n");
        let _ = writeln!(md, "| counter | value |");
        let _ = writeln!(md, "|---|---|");
        for (name, v) in &starts {
            let _ = writeln!(md, "| {name} | {v} |");
        }
        md.push('\n');
    }
}

/// Queue-delay latency distributions: every `*.queue_delay_ms`
/// histogram in the snapshot (the scheduler meters one per margin
/// group and the fleet shards one per member), with log₂-resolution
/// quantiles from the snapshot's sparse buckets.
fn render_queue_delays(md: &mut String, snapshot: &Snapshot) {
    let mut rows: Vec<(&str, &telemetry::HistogramSnapshot)> = Vec::new();
    for entry in &snapshot.entries {
        let Some(scope) = entry.name.strip_suffix(".queue_delay_ms") else {
            continue;
        };
        if let MetricValue::Histogram(h) = &entry.value {
            if h.count > 0 {
                rows.push((scope, h));
            }
        }
    }
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(md, "## Queue delays\n");
    let _ = writeln!(md, "| scope | jobs | mean ms | p50 | p95 | p99 |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for (scope, h) in &rows {
        let q = |q: f64| h.approx_quantile(q).unwrap_or(0);
        let _ = writeln!(
            md,
            "| {scope} | {} | {:.1} | {} | {} | {} |",
            h.count,
            h.mean(),
            q(0.50),
            q(0.95),
            q(0.99)
        );
    }
    md.push('\n');
}

/// A unicode sparkline of per-window sums, normalized to the series
/// peak (at most `cap` windows, oldest first).
fn sparkline(windows: &[(u64, telemetry::series::WindowAgg)], cap: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = windows.iter().map(|(_, w)| w.sum).max().unwrap_or(0).max(1);
    windows
        .iter()
        .take(cap)
        .map(|(_, w)| BARS[((w.sum * (BARS.len() as u64 - 1)) / peak) as usize])
        .collect()
}

/// The streaming health plane: per-window sparktables from the
/// `--series` export and the incident ledger's timeline, when the run
/// produced them.
fn render_health(md: &mut String, dir: &str, target: &str) -> Result<(), String> {
    let series_path = format!("{dir}/{target}.series.jsonl");
    let series = match std::fs::read_to_string(&series_path) {
        Ok(text) => {
            parse_series_jsonl(&text)
                .map_err(|e| format!("{series_path}: {e}"))?
                .entries
        }
        Err(_) => Vec::new(),
    };
    let incidents_path = format!("{dir}/health.incidents.jsonl");
    let ledger = match std::fs::read_to_string(&incidents_path) {
        Ok(text) => {
            Some(parse_incidents_jsonl(&text).map_err(|e| format!("{incidents_path}: {e}"))?)
        }
        Err(_) => None,
    };
    if series.is_empty() && ledger.is_none() {
        return Ok(());
    }
    let _ = writeln!(md, "## Health\n");
    if !series.is_empty() {
        const SPARK_CAP: usize = 48;
        let _ = writeln!(
            md,
            "Windowed time-series rollups (sparklines show per-window \
             sums over the first {SPARK_CAP} windows, scaled to each \
             series' peak):\n"
        );
        let _ = writeln!(md, "| series | windows | total | activity |");
        let _ = writeln!(md, "|---|---|---|---|");
        for entry in &series {
            let total: u64 = entry.windows.iter().map(|(_, w)| w.sum).sum();
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} |",
                entry.name,
                entry.windows.len(),
                total,
                sparkline(&entry.windows, SPARK_CAP)
            );
        }
        md.push('\n');
    }
    if let Some(ledger) = ledger {
        let _ = writeln!(
            md,
            "Incident ledger: {} incident(s), {} still open.\n",
            ledger.len(),
            ledger.open_count()
        );
        let _ = writeln!(
            md,
            "| id | detector | scope | severity | state | first | last | windows | peak |"
        );
        let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|");
        for inc in ledger.incidents() {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                inc.id,
                inc.detector,
                inc.scope,
                inc.severity.label(),
                inc.state.label(),
                inc.first,
                inc.last,
                inc.windows,
                inc.peak_milli / 1_000
            );
        }
        md.push('\n');
    }
    Ok(())
}

/// The paper-drift table. Returns the number of tolerance breaches.
fn render_drift(md: &mut String, snapshot: &Snapshot, refs: &str) -> usize {
    let _ = writeln!(md, "## Paper drift\n");
    let _ = writeln!(
        md,
        "`summary.*` gauges vs the reference figures in `{refs}/` \
         (tolerances are sized for `--quick` runs).\n"
    );
    let _ = writeln!(md, "| gauge | measured | reference | Δ | tol | status |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    let mut breaches = 0;
    let mut compared = 0;
    for spec in REF_SPECS {
        let measured = match snapshot.get(&format!("summary.{}", spec.gauge)) {
            Some(MetricValue::Gauge(v)) => *v as f64 / 1e4,
            _ => {
                let _ = writeln!(md, "| {} | — | — | — | — | not run |", spec.gauge);
                continue;
            }
        };
        let reference = match reference_value(refs, spec) {
            Ok(v) => v,
            Err(e) => {
                let _ = writeln!(
                    md,
                    "| {} | {measured:.4} | — | — | — | no reference ({e}) |",
                    spec.gauge
                );
                continue;
            }
        };
        compared += 1;
        let delta = if reference.abs() > f64::EPSILON {
            (measured - reference).abs() / reference.abs()
        } else {
            (measured - reference).abs()
        };
        let ok = delta <= spec.rel_tol;
        if !ok {
            breaches += 1;
        }
        let _ = writeln!(
            md,
            "| {} | {measured:.4} | {reference:.4} | {:.2}% | {:.2}% | {} |",
            spec.gauge,
            delta * 100.0,
            spec.rel_tol * 100.0,
            if ok { "ok" } else { "**BREACH**" }
        );
    }
    let _ = writeln!(md, "\n{compared} comparison(s), {breaches} breach(es).\n");
    breaches
}

/// Derives one reference value from a results CSV.
fn reference_value(refs: &str, spec: &RefSpec) -> Result<f64, String> {
    let path = format!("{refs}/{}", spec.file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = parse_csv_line(lines.next().ok_or("empty CSV")?);
    let col_idx = |name: &str| {
        header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("{path}: no column '{name}'"))
    };
    let value_col = col_idx(spec.col)?;
    let filter_cols: Vec<(usize, &str)> = spec
        .filters
        .iter()
        .map(|(col, want)| col_idx(col).map(|i| (i, *want)))
        .collect::<Result<_, _>>()?;
    let mut matched: Vec<Vec<String>> = Vec::new();
    for line in lines {
        let row = parse_csv_line(line);
        if filter_cols
            .iter()
            .all(|&(i, want)| row.get(i).is_some_and(|v| v == want))
        {
            matched.push(row);
        }
    }
    if matched.is_empty() {
        return Err(format!("{path}: no row matches the filters"));
    }
    let cell = |row: &[String], i: usize| -> Result<f64, String> {
        row.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: non-numeric cell in '{}'", header[i]))
    };
    match &spec.kind {
        RefKind::Mean => {
            let mut sum = 0.0;
            for row in &matched {
                sum += cell(row, value_col)?;
            }
            Ok(sum / matched.len() as f64)
        }
        RefKind::Cell => {
            if matched.len() > 1 {
                return Err(format!("{path}: filters match {} rows", matched.len()));
            }
            cell(&matched[0], value_col)
        }
        RefKind::ArgmaxKey { key } => {
            let key_col = col_idx(key)?;
            let mut best: Option<(f64, f64)> = None;
            for row in &matched {
                let v = cell(row, value_col)?;
                let k = cell(row, key_col)?;
                if best.is_none_or(|(bv, _)| v > bv) {
                    best = Some((v, k));
                }
            }
            Ok(best.expect("matched is non-empty").1)
        }
    }
}

/// Renders a scalar JSON value without quotes-for-numbers noise.
fn json_scalar(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Null => "—".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            if n.fract() == 0.0 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        _ => "…".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_specs_resolve_against_checked_in_results() {
        // Every spec must derive a finite reference from the repo's
        // own results/ directory — catches renamed columns or labels.
        for spec in REF_SPECS {
            let v = reference_value("../../results", spec)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.gauge));
            assert!(v.is_finite() && v > 0.0, "{}: {v}", spec.gauge);
        }
    }

    #[test]
    fn fig5_reference_is_the_suite_mean() {
        let spec = REF_SPECS
            .iter()
            .find(|s| s.gauge == "fig5.hierarchy1.freq_lat_margins")
            .unwrap();
        let v = reference_value("../../results", spec).unwrap();
        // Mean of the six Hierarchy1 freq_lat_margins cells.
        assert!((v - 1.2160).abs() < 0.0015, "{v}");
    }

    #[test]
    fn fig2_reference_is_the_mode_bucket() {
        let spec = REF_SPECS
            .iter()
            .find(|s| s.gauge == "fig2.mode_bucket_mts")
            .unwrap();
        assert_eq!(reference_value("../../results", spec).unwrap(), 800.0);
    }

    #[test]
    fn energy_section_renders_gauges_and_residency() {
        let r = telemetry::Registry::new();
        r.gauge("summary.energy.sweep.ddr5_6400.perf_per_w_rel")
            .set_scaled(1.23);
        r.gauge("summary.configurator.feasible").set_scaled(4.0);
        r.scope("sweep.ddr5_6400.hpcg.ch0.controller")
            .counter("residency_active_bank_ps")
            .add(500);
        r.scope("sweep.ddr5_6400.hpcg.ch1.controller")
            .counter("residency_active_bank_ps")
            .add(250);
        let mut md = String::new();
        render_energy(&mut md, &r.snapshot());
        assert!(md.contains("## Power/energy"));
        assert!(md.contains("| energy.sweep.ddr5_6400.perf_per_w_rel | 1.2300 |"));
        assert!(md.contains("| configurator.feasible | 4.0000 |"));
        assert!(md.contains("| active | 750 |"), "{md}");
        // A snapshot without energy gauges or residency renders nothing.
        let mut empty = String::new();
        render_energy(&mut empty, &Snapshot::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn adaptive_section_renders_gauges_and_decisions() {
        let r = telemetry::Registry::new();
        r.gauge("summary.adaptive.temp_transient.online_speedup")
            .set_scaled(1.12);
        r.gauge("summary.adaptive.offline_ue_total")
            .set_scaled(61.0);
        r.scope("adaptive.temp_transient.online")
            .counter("retreats")
            .add(2);
        r.scope("adaptive.temp_transient.online")
            .counter("steps_up")
            .add(5);
        // Unrelated counters under the prefix stay out of the table.
        r.scope("adaptive.temp_transient.online")
            .counter("epoch_rolls")
            .add(48);
        let mut md = String::new();
        render_adaptive(&mut md, &r.snapshot());
        assert!(md.contains("## Adaptive margin"));
        assert!(md.contains("| temp_transient.online_speedup | 1.1200 |"));
        assert!(md.contains("| offline_ue_total | 61.0000 |"));
        assert!(md.contains("| temp_transient.online.retreats | 2 |"));
        assert!(md.contains("| temp_transient.online.steps_up | 5 |"));
        assert!(!md.contains("epoch_rolls"), "{md}");
        // A snapshot without adaptive series renders nothing.
        let mut empty = String::new();
        render_adaptive(&mut empty, &Snapshot::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn fleet_section_renders_gauges_and_counters() {
        let r = telemetry::Registry::new();
        r.gauge("summary.fleet.aware_turnaround_speedup")
            .set_scaled(1.07);
        r.gauge("summary.fleet.jobs").set_scaled(100_000.0);
        r.scope("fleet.margin_aware.grizzly")
            .counter("jobs_started")
            .add(61_234);
        r.scope("fleet.margin_aware.grizzly")
            .counter("unknown_group_starts")
            .add(0);
        // Unrelated counters under the prefix stay out of the table.
        r.scope("fleet.margin_aware.grizzly")
            .counter("sched_pass_ops")
            .add(9);
        let mut md = String::new();
        render_fleet(&mut md, &r.snapshot());
        assert!(md.contains("## Fleet federation"));
        assert!(md.contains("| aware_turnaround_speedup | 1.0700 |"));
        assert!(md.contains("| jobs | 100000.0000 |"));
        assert!(md.contains("| margin_aware.grizzly.jobs_started | 61234 |"));
        assert!(!md.contains("sched_pass_ops"), "{md}");
        // A snapshot without fleet series renders nothing.
        let mut empty = String::new();
        render_fleet(&mut empty, &Snapshot::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn span_family_table_pins_quantile_columns() {
        let span = |name: &str, dur: u64| ChromeEvent {
            name: name.into(),
            ph: "X".into(),
            dur,
            ..ChromeEvent::default()
        };
        let mut events = vec![span("job.1", 100), span("job.2", 200), span("schedule", 50)];
        events.extend((0..8).map(|i| span(&format!("job.{}", i + 3), 100)));
        let mut md = String::new();
        render_trace(&mut md, &events);
        assert!(
            md.contains("| span family | events | total duration | p50 | p95 | p99 |"),
            "{md}"
        );
        // Ten job spans: nine at 100 (bucket hi 127), one at 200
        // (bucket hi 255): p50 = 127, p95 = p99 = 255.
        assert!(md.contains("| job | 10 | 1100 | 127 | 255 | 255 |"), "{md}");
        assert!(md.contains("| schedule | 1 | 50 | 63 | 63 | 63 |"), "{md}");
    }

    #[test]
    fn queue_delay_table_pins_quantile_columns() {
        let r = telemetry::Registry::new();
        let h = r
            .scope("fleet.margin_aware.grizzly.group800")
            .histogram("queue_delay_ms");
        for _ in 0..99 {
            h.record(100);
        }
        h.record(10_000);
        // Empty histograms and non-queue-delay metrics stay out.
        r.scope("fleet.margin_aware.legacy.group0")
            .histogram("queue_delay_ms");
        r.scope("fleet.margin_aware.grizzly.group800")
            .histogram("exec_ms")
            .record(5);
        let mut md = String::new();
        render_queue_delays(&mut md, &r.snapshot());
        assert!(md.contains("## Queue delays"));
        assert!(md.contains("| scope | jobs | mean ms | p50 | p95 | p99 |"));
        // 99 samples in the 64..=127 bucket, one in 8192..=16383:
        // p50 = p95 = 127, p99 = 127 (99th of 100 is still the low
        // bucket), mean = 199.0.
        assert!(
            md.contains("| fleet.margin_aware.grizzly.group800 | 100 | 199.0 | 127 | 127 | 127 |"),
            "{md}"
        );
        assert!(!md.contains("legacy"), "{md}");
        assert!(!md.contains("exec_ms"), "{md}");
        let mut empty = String::new();
        render_queue_delays(&mut empty, &Snapshot::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn health_section_renders_sparklines_and_incidents() {
        use telemetry::monitor::{Detector, IncidentLedger, Severity};
        use telemetry::series::SeriesStore;
        let dir = std::env::temp_dir().join("hdmr_report_health_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = SeriesStore::new();
        let s = store.series("health.demo.ce", 10);
        for (t, v) in [(5u64, 1u64), (15, 4), (25, 8), (35, 2)] {
            s.record(t, v);
        }
        let snap = store.snapshot();
        std::fs::write(dir.join("health.series.jsonl"), snap.to_jsonl()).unwrap();
        let detectors = [Detector::threshold(
            "thr",
            "health.demo.ce",
            Severity::Warning,
            4,
        )];
        let ledger = IncidentLedger::evaluate(&snap, &detectors);
        assert_eq!(ledger.len(), 1);
        std::fs::write(dir.join("health.incidents.jsonl"), ledger.to_jsonl()).unwrap();

        let mut md = String::new();
        render_health(&mut md, dir.to_str().unwrap(), "health").unwrap();
        assert!(md.contains("## Health"));
        assert!(md.contains("| series | windows | total | activity |"));
        // Sums 1/4/8/2 normalized to peak 8 -> bars 0,3,7,1.
        assert!(md.contains("| health.demo.ce | 4 | 15 | ▁▄█▂ |"), "{md}");
        assert!(md.contains("Incident ledger: 1 incident(s)"), "{md}");
        assert!(
            md.contains("| 1 | thr | health.demo.ce | warning |"),
            "{md}"
        );
        // A directory without exports renders nothing.
        let bare = dir.join("bare");
        std::fs::create_dir_all(&bare).unwrap();
        let mut empty = String::new();
        render_health(&mut empty, bare.to_str().unwrap(), "health").unwrap();
        assert!(empty.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn name_stem_buckets_families() {
        assert_eq!(name_stem("write_drain.ch3"), "write_drain");
        assert_eq!(name_stem("job.4711"), "job");
        assert_eq!(name_stem("sim.fmr.hpcg"), "sim");
        assert_eq!(name_stem("mode.read_enter"), "mode.read_enter");
        assert_eq!(name_stem("down_bin"), "down_bin");
        assert_eq!(name_stem("jobless"), "jobless");
    }
}
