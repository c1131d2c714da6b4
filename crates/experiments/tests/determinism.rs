//! The parallel runner's core contract: for a fixed seed, stdout and
//! the `--metrics` JSONL export are byte-identical for any `--jobs`
//! value, because every RNG stream is derived from `(seed, target,
//! iteration)` counters and never from thread identity or completion
//! order.
//!
//! Targets are chosen to cover the three parallelism layers:
//! `fig2`/`fig3` (population study + parallel grouping panels),
//! `fig11` (Monte Carlo with parallel per-trial streams), and `fig5`
//! (node simulations primed concurrently across designs × suites).

use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdmr_det_{name}_{}", std::process::id()))
}

/// Runs `target` under the given worker count, writing metrics into
/// `dir` (the same dir for every worker count so the stdout summary
/// line is comparable), and returns `(stdout, metrics JSONL bytes)`.
/// `extra` carries additional flags (e.g. `--no-model-cache`).
fn run_with_jobs_and(
    target: &str,
    jobs: &str,
    dir: &std::path::Path,
    extra: &[&str],
) -> (Vec<u8>, Vec<u8>) {
    let _ = std::fs::remove_dir_all(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            target,
            "--seed",
            "7",
            "--quick",
            "--ops",
            "1200",
            "--jobs",
            jobs,
            "--metrics",
            dir.to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "{target} --jobs {jobs} failed: {out:?}"
    );
    let jsonl =
        std::fs::read(dir.join(format!("{target}.metrics.jsonl"))).expect("metrics written");
    let _ = std::fs::remove_dir_all(dir);
    (out.stdout, jsonl)
}

fn run_with_jobs(target: &str, jobs: &str, dir: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    run_with_jobs_and(target, jobs, dir, &[])
}

fn assert_jobs_invariant(target: &str, expect_series: bool) {
    let dir = tmp_dir(target);
    let (serial_out, serial_jsonl) = run_with_jobs(target, "1", &dir);
    let (parallel_out, parallel_jsonl) = run_with_jobs(target, "8", &dir);
    if expect_series {
        assert!(
            !serial_jsonl.is_empty(),
            "{target} must export at least one metric series"
        );
    }
    assert_eq!(
        serial_out, parallel_out,
        "{target}: stdout differs between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        serial_jsonl, parallel_jsonl,
        "{target}: metrics JSONL differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn fig2_is_jobs_invariant() {
    // Statistics-only target: the export is legitimately empty of
    // simulator series, but stdout must still be byte-stable.
    assert_jobs_invariant("fig2", false);
}

#[test]
fn fig3_is_jobs_invariant() {
    assert_jobs_invariant("fig3", false);
}

#[test]
fn fig5_is_jobs_invariant() {
    assert_jobs_invariant("fig5", true);
}

#[test]
fn fig11_is_jobs_invariant() {
    assert_jobs_invariant("fig11", false);
}

#[test]
fn fig17_is_jobs_invariant() {
    // Cluster variants run concurrently under distinct metric scopes.
    assert_jobs_invariant("fig17", true);
}

#[test]
fn energy_is_jobs_invariant() {
    // Residency-model EPI tables: node simulations (shared-cache) plus
    // direct generation-sweep runs, all inside one scenario.
    assert_jobs_invariant("energy", true);
}

#[test]
fn configurator_is_jobs_invariant() {
    assert_jobs_invariant("configurator", true);
}

#[test]
fn adaptive_is_jobs_invariant() {
    // The closed-loop governor ablation: per-epoch Poisson error
    // draws on counter-derived streams plus node-model speedups, all
    // inside one scenario task.
    assert_jobs_invariant("adaptive", true);
}

#[test]
fn fleet_is_jobs_invariant() {
    // Federation shards run one-per-member on the worker pool and
    // merge streaming summaries, telemetry snapshots, and traces in
    // member order; stdout and the JSONL export must not care how
    // many workers carried the shards. A reduced stream keeps the
    // debug-profile binary fast; the ci.sh smoke covers quick scale.
    let fleet = &["--fleet-jobs", "20000"];
    let dir = tmp_dir("fleet");
    let (serial_out, serial_jsonl) = run_with_jobs_and("fleet", "1", &dir, fleet);
    let (parallel_out, parallel_jsonl) = run_with_jobs_and("fleet", "8", &dir, fleet);
    assert!(
        !serial_jsonl.is_empty(),
        "fleet must export at least one metric series"
    );
    assert_eq!(
        serial_out, parallel_out,
        "fleet: stdout differs between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        serial_jsonl, parallel_jsonl,
        "fleet: metrics JSONL differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn fleet_trace_is_jobs_invariant() {
    let fleet = &["--fleet-jobs", "20000"];
    let dir = tmp_dir("trace_fleet");
    let serial = run_with_trace_and("fleet", "1", &dir, fleet);
    let parallel = run_with_trace_and("fleet", "8", &dir, fleet);
    assert_eq!(
        serial, parallel,
        "fleet: trace differs between --jobs 1 and --jobs 8"
    );
    let text = String::from_utf8(serial).expect("trace is utf8");
    let events = telemetry::trace::parse_chrome_trace(&text).expect("fleet trace parses");
    // One schedule root per member per placement policy.
    let roots = events.iter().filter(|e| e.name == "schedule").count();
    assert_eq!(roots, 10, "5 members x 2 placements");
    telemetry::trace::check_well_nested(&events).expect("fleet trace is well-nested");
}

/// Streaming ingestion holds RSS flat: a 10x bigger fleet stream may
/// not cost 10x the memory. Compares the scheduler's peak RSS (VmHWM,
/// reported on stderr) between 100 K- and 1 M-job runs and allows only
/// a small constant-factor drift.
#[cfg(target_os = "linux")]
#[test]
fn fleet_memory_stays_flat_as_jobs_scale() {
    let peak_rss_kb = |fleet_jobs: &str| -> u64 {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([
                "fleet",
                "--seed",
                "7",
                "--quick",
                "--fleet-jobs",
                fleet_jobs,
                "--jobs",
                "2",
            ])
            .output()
            .expect("spawn experiments binary");
        assert!(
            out.status.success(),
            "fleet --fleet-jobs {fleet_jobs}: {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        stderr
            .lines()
            .find_map(|l| l.split("peak RSS ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .unwrap_or_else(|| panic!("no peak RSS on stderr:\n{stderr}"))
    };
    let small = peak_rss_kb("100000");
    let large = peak_rss_kb("1000000");
    // Flat means bounded, not bit-equal: allocator noise moves peaks
    // by a few MB, but a materialized trace would cost ~50 MB/1M jobs.
    assert!(
        large < small * 2 + 16_384,
        "peak RSS grew from {small} kB (100K jobs) to {large} kB (1M jobs); streaming is broken"
    );
}

/// The node-model result cache must be output-invisible twice over:
/// with the cache enabled, `--jobs 1` and `--jobs 8` agree (hit/miss
/// order differs across schedules, but replayed snapshots record the
/// same values); and a cache-off run produces the same bytes as a
/// cache-on run.
#[test]
fn model_cache_is_output_invisible() {
    // fig5 and fig14 share node simulations, so a multi-target run
    // exercises real cross-target hits.
    let target = "fig5";
    let dir = tmp_dir("cache_on");
    let (on_serial_out, on_serial_jsonl) = run_with_jobs(target, "1", &dir);
    let (on_par_out, on_par_jsonl) = run_with_jobs(target, "8", &dir);
    assert_eq!(on_serial_out, on_par_out, "cache-on stdout jobs 1 vs 8");
    assert_eq!(on_serial_jsonl, on_par_jsonl, "cache-on JSONL jobs 1 vs 8");

    let dir_off = tmp_dir("cache_off");
    let (off_serial_out, off_serial_jsonl) =
        run_with_jobs_and(target, "1", &dir_off, &["--no-model-cache"]);
    let (off_par_out, off_par_jsonl) =
        run_with_jobs_and(target, "8", &dir_off, &["--no-model-cache"]);
    assert_eq!(off_serial_out, off_par_out, "cache-off stdout jobs 1 vs 8");
    assert_eq!(
        off_serial_jsonl, off_par_jsonl,
        "cache-off JSONL jobs 1 vs 8"
    );

    // The two stdouts differ only in the metrics-dir path they echo;
    // normalize before comparing across cache settings.
    let norm = |bytes: &[u8], dir: &std::path::Path| {
        String::from_utf8(bytes.to_vec())
            .expect("utf8 stdout")
            .replace(dir.to_str().unwrap(), "METRICS")
    };
    assert_eq!(
        norm(&on_serial_out, &dir),
        norm(&off_serial_out, &dir_off),
        "stdout differs between cache on and off"
    );
    assert_eq!(
        on_serial_jsonl, off_serial_jsonl,
        "metrics JSONL differs between cache on and off"
    );
}

/// Runs `target` with `--trace` and returns the Chrome trace bytes.
fn run_with_trace(target: &str, jobs: &str, dir: &std::path::Path) -> Vec<u8> {
    run_with_trace_and(target, jobs, dir, &[])
}

fn run_with_trace_and(target: &str, jobs: &str, dir: &std::path::Path, extra: &[&str]) -> Vec<u8> {
    let _ = std::fs::remove_dir_all(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            target,
            "--seed",
            "7",
            "--quick",
            "--ops",
            "1200",
            "--jobs",
            jobs,
            "--trace",
            dir.to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "{target} --jobs {jobs} --trace failed: {out:?}"
    );
    let trace = std::fs::read(dir.join(format!("{target}.trace.json"))).expect("trace written");
    let _ = std::fs::remove_dir_all(dir);
    trace
}

/// Single-target traces are byte-identical across `--jobs`, parse as
/// Chrome trace-event JSON, and respect the span-nesting invariants.
/// Covers the three clock domains: fig5 (SimPs node sims + write
/// drains), fig12 (ECC detect→re-read chains + mode transitions) and
/// fig17 (SchedUs scheduler job spans), plus adaptive (epoch-aligned
/// governor.step/governor.retreat spans).
#[test]
fn single_target_traces_are_jobs_invariant_and_well_formed() {
    for target in ["fig5", "fig12", "fig17", "adaptive"] {
        let dir = tmp_dir(&format!("trace_{target}"));
        let serial = run_with_trace(target, "1", &dir);
        let parallel = run_with_trace(target, "8", &dir);
        assert_eq!(
            serial, parallel,
            "{target}: trace differs between --jobs 1 and --jobs 8"
        );
        let text = String::from_utf8(serial).expect("trace is utf8");
        let events = telemetry::trace::parse_chrome_trace(&text)
            .unwrap_or_else(|e| panic!("{target}: trace does not parse: {e}"));
        assert!(!events.is_empty(), "{target}: trace is empty");
        telemetry::trace::check_well_nested(&events).unwrap_or_else(|e| panic!("{target}: {e}"));
    }
}

/// The health plane's determinism contract is three-way: stdout, the
/// windowed series JSONL, and the incident ledger must all be
/// byte-identical between `--jobs 1` and `--jobs 8`. Both exports must
/// also round-trip through the telemetry parsers, and the headline —
/// the CUSUM alarm leading the governor's UE retreat — must be on
/// stdout.
#[test]
fn health_series_and_incidents_are_jobs_invariant() {
    let dir = tmp_dir("health");
    let run = |jobs: &str| -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([
                "health",
                "--seed",
                "7",
                "--quick",
                "--jobs",
                jobs,
                "--series",
                dir.to_str().unwrap(),
            ])
            .output()
            .expect("spawn experiments binary");
        assert!(out.status.success(), "health --jobs {jobs} failed: {out:?}");
        let series = std::fs::read(dir.join("health.series.jsonl")).expect("series written");
        let incidents =
            std::fs::read(dir.join("health.incidents.jsonl")).expect("incidents written");
        let _ = std::fs::remove_dir_all(&dir);
        (out.stdout, series, incidents)
    };
    // The same dir for every run keeps the stdout `series:` summary
    // line (which echoes the path) directly comparable.
    let serial = run("1");
    let parallel = run("8");
    assert_eq!(serial.0, parallel.0, "health stdout jobs 1 vs 8");
    assert_eq!(serial.1, parallel.1, "health series JSONL jobs 1 vs 8");
    assert_eq!(serial.2, parallel.2, "health incident ledger jobs 1 vs 8");

    let stdout = String::from_utf8(serial.0).expect("stdout is utf8");
    assert!(
        stdout.contains("before the governor's UE retreat"),
        "lead-time headline missing:\n{stdout}"
    );
    let text = String::from_utf8(serial.1).expect("series is utf8");
    let snap = telemetry::series::parse_series_jsonl(&text).expect("series export parses");
    assert!(
        snap.get("health.slow-degradation.ce").is_some(),
        "slow-degradation CE series missing from the export"
    );
    let text = String::from_utf8(serial.2).expect("ledger is utf8");
    let ledger = telemetry::monitor::parse_incidents_jsonl(&text).expect("ledger parses");
    assert!(!ledger.is_empty(), "health must open at least one incident");
}

/// Odd worker counts and a second pass over cheap whole-table targets:
/// task-level parallelism must merge per-target registries in
/// canonical order no matter which worker finishes first.
#[test]
fn multi_target_merge_is_jobs_invariant() {
    for target in ["table1", "fig1"] {
        let dir = tmp_dir(target);
        let (a_out, a_jsonl) = run_with_jobs(target, "1", &dir);
        let (b_out, b_jsonl) = run_with_jobs(target, "3", &dir);
        assert_eq!(a_out, b_out, "{target} stdout");
        assert_eq!(a_jsonl, b_jsonl, "{target} metrics");
    }
}
