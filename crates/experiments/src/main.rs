//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments <target> [--seed N] [--ops N] [--jobs N] [--quick] [--csv DIR] [--metrics DIR]
//! ```
//!
//! `<target>` is `all` or one of the names listed by `--list`. Targets
//! run as isolated tasks on a fixed-size worker pool (`--jobs`, default
//! one worker per CPU); every RNG stream is derived from the seed by
//! counters rather than thread identity, so stdout and the `--metrics`
//! JSONL export are byte-identical for any `--jobs` value. Output goes
//! to stdout (the same rows/series the paper reports); `--csv` adds
//! per-experiment CSV files and `--metrics` adds a deterministic JSONL
//! snapshot of every simulator-internal metric plus a run manifest
//! (see README § Observability).

mod adaptive;
mod characterization;
mod context;
mod extras;
mod fleet;
mod health;
mod node_figures;
mod power;
mod report;
mod scenario;
mod scenarios;
mod system_figures;
mod tables;

use context::Ctx;
use scenarios::{Outcome, TARGETS};
use telemetry::trace::TraceGroup;
use telemetry::ObsSnapshot;

fn print_usage() {
    println!(
        "usage: experiments [<target>] [options]

Regenerates the paper's tables and figures. <target> defaults to 'all';
run with --list for every individual target name.

options:
  --seed N       master RNG seed (default 0xD1A2)
  --ops N        memory operations per core in node-level runs
  --jobs N       worker threads for running targets (0 or default:
                 one per CPU); output is identical for every N
  --quick        shrink every run for a fast smoke pass
  --fleet-jobs N jobs streamed by the 'fleet' target (default 10 M,
                 100 K with --quick); generated lazily, never stored
  --csv DIR      also write per-experiment CSV files into DIR
  --metrics DIR  record simulator telemetry; writes
                 DIR/<target>.metrics.jsonl (deterministic for a fixed
                 seed) and DIR/manifest.json
  --trace DIR    record causal sim-time traces; writes
                 DIR/<target>.trace.json (Chrome trace-event JSON,
                 deterministic for a fixed seed at any --jobs, 'all'
                 included), DIR/<target>.spans.txt
                 (span tree) and DIR/timing.jsonl (wall clock,
                 quarantined from the deterministic files)
  --series DIR   record windowed sim-time health series; writes
                 DIR/<target>.series.jsonl (one window per line,
                 deterministic for a fixed seed at any --jobs); the
                 'health' target also writes its incident ledger to
                 DIR/health.incidents.jsonl
  --list         print the available targets and exit
  -h, --help     print this help and exit

subcommands:
  report DIR [--refs DIR] [--out FILE]
                 generate a Markdown run report (and paper-drift
                 check) from a --metrics/--trace output directory"
    );
}

/// Usage error: print `msg` to stderr and exit 2 (matching the
/// unknown-flag/unknown-target paths).
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg} (run with --help for usage)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("report") {
        std::process::exit(report::run(&args[1..]));
    }
    let mut target = None;
    let mut jobs = 0usize; // 0 = one worker per CPU
    let mut ctx = Ctx::default();
    // Applied after every flag is read, so an explicit `--ops` wins
    // over `--quick` in either order.
    let mut ops = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_usage();
                return;
            }
            "--list" => {
                for t in TARGETS {
                    println!("{t}");
                }
                return;
            }
            "--seed" => {
                ctx.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an integer"));
            }
            "--ops" => {
                ops = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage_error("--ops needs an integer >= 1")),
                );
            }
            "--jobs" => {
                jobs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--jobs needs an integer"));
            }
            "--quick" => ctx.quick(),
            "--fleet-jobs" => {
                ctx.fleet_jobs = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage_error("--fleet-jobs needs an integer >= 1")),
                );
            }
            "--csv" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--csv needs a directory"));
                ctx.csv_dir = Some(dir.clone());
            }
            "--metrics" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--metrics needs a directory"));
                ctx.enable_metrics(dir.clone());
            }
            "--trace" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--trace needs a directory"));
                ctx.enable_trace(dir.clone());
            }
            "--series" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--series needs a directory"));
                ctx.enable_series(dir.clone());
            }
            other if !other.starts_with('-') => {
                if target.is_some() {
                    usage_error(&format!(
                        "extra argument '{other}': experiments runs one target"
                    ));
                }
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown flag {other} (run with --help for usage)");
                std::process::exit(2);
            }
        }
    }

    if let Some(n) = ops {
        ctx.ops_per_core = n;
    }

    let target = target.unwrap_or_else(|| String::from("all"));
    let names: Vec<&str> = if target == "all" {
        TARGETS.to_vec()
    } else if scenarios::is_target(&target) {
        vec![target.as_str()]
    } else {
        eprintln!("unknown target '{target}'; valid targets:");
        eprintln!("  all {}", TARGETS.join(" "));
        std::process::exit(2);
    };

    if let Some(dir) = &ctx.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create CSV directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    let start = std::time::Instant::now();
    runner::set_jobs(jobs);
    let outcomes = scenarios::run(&ctx, &names);

    // Print buffered outputs in canonical order; failures go to stderr
    // after each target's partial output so the run context survives.
    let mut failed = 0usize;
    for o in &outcomes {
        println!("\n================ {} ================", o.name);
        print!("{}", o.out);
        if let Some(panic) = &o.panic {
            eprintln!("target '{}' panicked: {panic}", o.name);
            failed += 1;
        }
    }

    let wall_ms = start.elapsed().as_millis() as u64;
    // Fold every target's metrics and series into the root handle in
    // canonical target order; traces stay grouped per target.
    for o in &outcomes {
        ctx.obs.absorb(ObsSnapshot {
            metrics: o.obs.metrics.clone(),
            trace: None,
            series: o.obs.series.clone(),
        });
    }
    let merged = ctx.obs.take();
    if let Err(e) = write_metrics(&ctx, &target, &merged, &outcomes, wall_ms) {
        eprintln!("cannot write metrics: {e}");
        std::process::exit(1);
    }
    if let Err(e) = write_trace(&ctx, &target, &outcomes) {
        eprintln!("cannot write trace: {e}");
        std::process::exit(1);
    }
    if let Err(e) = write_series(&ctx, &target, &merged) {
        eprintln!("cannot write series: {e}");
        std::process::exit(1);
    }
    // Timing is inherently non-deterministic, so it goes to stderr
    // only: stdout stays byte-comparable across --jobs values.
    let rss = peak_rss_kb()
        .map(|kb| format!("; peak RSS {kb} kB"))
        .unwrap_or_default();
    eprintln!(
        "ran {} target(s) in {wall_ms} ms on {} worker(s){rss}",
        outcomes.len(),
        runner::jobs()
    );
    if failed > 0 {
        eprintln!("{failed} target(s) failed");
        std::process::exit(1);
    }
}

/// Peak resident-set size of this process in kB (`VmHWM`), for the
/// flat-memory regression gate on streaming runs. Linux-only; stderr
/// only — never part of the deterministic stdout contract.
#[cfg(target_os = "linux")]
fn peak_rss_kb() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_kb() -> Option<u64> {
    None
}

/// Exports the run's metric snapshot and manifest when `--metrics` was
/// requested. The per-task snapshots were merged in canonical target
/// order (so the merge is independent of completion order); stripped
/// of wall-clock series, the JSONL file is byte-identical across runs
/// of the same seed at any `--jobs`. Everything non-deterministic
/// lands in the manifest.
fn write_metrics(
    ctx: &Ctx,
    target: &str,
    merged: &ObsSnapshot,
    outcomes: &[Outcome],
    wall_ms: u64,
) -> std::io::Result<()> {
    let (Some(dir), Some(metrics)) = (&ctx.metrics_dir, &merged.metrics) else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let sim = metrics.sim_only();
    std::fs::write(
        format!("{dir}/{target}.metrics.jsonl"),
        telemetry::format_jsonl(&sim),
    )?;
    let (cache_hits, cache_misses) = hetero_dmr::shared_cache_stats();
    // Job spans the scheduler tracer dropped past `TRACED_JOB_CAP`,
    // summed across every metered schedule in the run — the manifest
    // records how much of each trace the cap truncated.
    let trace_dropped_jobs: u64 = sim
        .entries
        .iter()
        .filter(|e| e.name.ends_with(".trace_dropped_jobs"))
        .map(|e| match &e.value {
            telemetry::MetricValue::Counter(v) => *v,
            _ => 0,
        })
        .sum();
    let manifest = telemetry::RunManifest::new(target, ctx.seed)
        .knob("ops_per_core", ctx.ops_per_core)
        .knob("trials", ctx.trials)
        .knob("trace_jobs", ctx.trace_jobs)
        .knob("trace_dropped_jobs", trace_dropped_jobs)
        .knob("quick", ctx.quick_run)
        .knob("jobs", runner::jobs())
        .knob("model_cache_hits", cache_hits)
        .knob("model_cache_misses", cache_misses)
        .with_git_describe()
        .with_snapshot(&sim)
        .with_wall_ms(wall_ms)
        .with_target_walls(outcomes.iter().map(|o| (o.name.clone(), o.wall_ms as u64)));
    std::fs::write(format!("{dir}/manifest.json"), manifest.to_json())?;
    println!(
        "\nmetrics: {} series -> {dir}/{target}.metrics.jsonl (+ manifest.json)",
        sim.len()
    );
    Ok(())
}

/// Exports the run's causal trace when `--trace` was requested: one
/// Chrome trace-event JSON and one span-tree text file, with per-task
/// traces grouped in canonical target order so both files are
/// byte-identical across `--jobs` (a node-model shared-cache hit
/// records the same spans as the simulation it stands in for, so it
/// does not matter which target pays for it). Wall-clock timings are
/// quarantined in `timing.jsonl`.
fn write_trace(ctx: &Ctx, target: &str, outcomes: &[Outcome]) -> std::io::Result<()> {
    let Some(dir) = &ctx.trace_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let groups: Vec<TraceGroup> = outcomes
        .iter()
        .filter_map(|o| o.obs.trace.clone().map(|t| (o.name.clone(), t)))
        .collect();
    let spans: usize = groups.iter().map(|(_, t)| t.len()).sum();
    std::fs::write(
        format!("{dir}/{target}.trace.json"),
        telemetry::trace::chrome_trace(&groups),
    )?;
    std::fs::write(
        format!("{dir}/{target}.spans.txt"),
        telemetry::trace::span_tree(&groups),
    )?;
    let mut timing = String::new();
    for o in outcomes {
        use std::fmt::Write as _;
        let _ = writeln!(
            timing,
            "{{\"target\": \"{}\", \"wall_ms\": {}}}",
            telemetry::escape_json(&o.name),
            o.wall_ms
        );
    }
    std::fs::write(format!("{dir}/timing.jsonl"), timing)?;
    println!("trace: {spans} span(s) -> {dir}/{target}.trace.json (+ spans.txt)");
    Ok(())
}

/// Exports the run's windowed time-series when `--series` was
/// requested. Window aggregation is order-independent, so the merged
/// JSONL file is byte-identical across runs of the same seed at any
/// `--jobs`.
fn write_series(ctx: &Ctx, target: &str, merged: &ObsSnapshot) -> std::io::Result<()> {
    let (Some(dir), Some(merged)) = (&ctx.series_dir, &merged.series) else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    std::fs::write(format!("{dir}/{target}.series.jsonl"), merged.to_jsonl())?;
    println!(
        "series: {} series / {} window(s) -> {dir}/{target}.series.jsonl",
        merged.len(),
        merged.window_count()
    );
    Ok(())
}
