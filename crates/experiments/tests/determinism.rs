//! The parallel runner's core contract: for a fixed seed, stdout and
//! every export (metrics JSONL, Chrome trace, series, incident ledger)
//! are byte-identical for any `--jobs` value, because every RNG stream
//! is derived from `(seed, target, iteration)` counters and never from
//! thread identity or completion order.
//!
//! Targets are chosen to cover the three parallelism layers:
//! `fig2`/`fig3` (population study + parallel grouping panels),
//! `fig11` (Monte Carlo with parallel per-trial streams), and `fig5`
//! (node simulations primed concurrently across designs × suites);
//! `all` adds the node-model result cache shared across targets.

use std::path::PathBuf;
use std::process::Command;
use telemetry::trace::{check_well_nested, parse_chrome_trace, ChromeEvent};

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdmr_det_{name}_{}", std::process::id()))
}

/// Runs `target` with every sink on (`--metrics`, `--trace`,
/// `--series`, all into `dir`) and returns stdout followed by the bytes
/// of each named artifact, in order. Sizes are shrunk (`--ops`, and
/// `--fleet-jobs` for the fleet) to keep the debug-profile binary fast.
fn run_observed(target: &str, jobs: &str, dir: &std::path::Path, files: &[&str]) -> Vec<Vec<u8>> {
    let _ = std::fs::remove_dir_all(dir);
    let d = dir.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([target, "--seed", "7", "--quick", "--ops", "600"])
        .args(["--fleet-jobs", "20000", "--jobs", jobs])
        .args(["--metrics", d, "--trace", d, "--series", d])
        .output()
        .expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "{target} --jobs {jobs} failed: {out:?}"
    );
    let mut artifacts = vec![out.stdout];
    for f in files {
        artifacts.push(std::fs::read(dir.join(f)).unwrap_or_else(|e| panic!("{f}: {e}")));
    }
    let _ = std::fs::remove_dir_all(dir);
    artifacts
}

/// Runs `target` at `--jobs 1` and at `--jobs` `jobs`, asserts that
/// stdout and every named artifact are byte-identical, and returns the
/// serial run. Both runs use one dir, so the stdout summary lines
/// (which echo the path) compare directly.
fn assert_files_invariant(target: &str, jobs: &str, files: &[&str]) -> Vec<Vec<u8>> {
    let dir = tmp_dir(target);
    let serial = run_observed(target, "1", &dir, files);
    let parallel = run_observed(target, jobs, &dir, files);
    for (i, name) in ["stdout"].iter().chain(files).enumerate() {
        assert!(
            serial[i] == parallel[i],
            "{target}: {name} differs between --jobs 1 and --jobs {jobs}"
        );
    }
    serial
}

/// Stdout, metrics JSONL and Chrome trace are byte-identical between
/// `--jobs 1` and `--jobs 8`; the trace parses and respects the
/// span-nesting invariants. Returns the parsed trace.
fn assert_jobs_invariant(target: &str, expect_series: bool) -> Vec<ChromeEvent> {
    let metrics = format!("{target}.metrics.jsonl");
    let trace = format!("{target}.trace.json");
    let serial = assert_files_invariant(target, "8", &[&metrics, &trace]);
    if expect_series {
        assert!(
            !serial[1].is_empty(),
            "{target} must export at least one metric series"
        );
    }
    let text = String::from_utf8(serial[2].clone()).expect("trace is utf8");
    let events =
        parse_chrome_trace(&text).unwrap_or_else(|e| panic!("{target}: trace does not parse: {e}"));
    assert!(!events.is_empty(), "{target}: trace is empty");
    check_well_nested(&events).unwrap_or_else(|e| panic!("{target}: {e}"));
    events
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
    // SimPs node sims with write-drain spans nested inside.
    assert_jobs_invariant("fig5", true);
}

#[test]
fn fig11_is_jobs_invariant() {
    assert_jobs_invariant("fig11", false);
}

#[test]
fn fig12_is_jobs_invariant() {
    // ECC detect→re-read chains and mode transitions in the trace.
    assert_jobs_invariant("fig12", true);
}

#[test]
fn fig17_is_jobs_invariant() {
    // Cluster variants run concurrently under distinct metric scopes;
    // the trace carries SchedUs scheduler job spans.
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
    // inside one scenario task; the trace carries epoch-aligned
    // governor.step/governor.retreat spans.
    assert_jobs_invariant("adaptive", true);
}

#[test]
fn fleet_is_jobs_invariant() {
    // One thread routes and steps every member of a placement, and
    // member forks merge in member order; the two placements run
    // concurrently on the worker pool and merge in placement order, so
    // no export may care how many workers carried them. The ci.sh
    // smoke covers quick scale.
    let events = assert_jobs_invariant("fleet", true);
    // One schedule root per member per placement policy.
    let roots = events.iter().filter(|e| e.name == "schedule").count();
    assert_eq!(roots, 10, "5 members x 2 placements");
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

/// The node-model result cache is invisible in every artifact: a
/// shared hit records exactly what the miss it stands in for recorded.
/// So the whole sweep, whose targets race for shared simulations, is
/// byte-identical between `--jobs 1` and `--jobs 8` in stdout and all
/// five artifacts; and fig14, whose every lookup hits inside `all` at
/// `--jobs 1`, records the same span tree there as when it runs alone
/// and misses every lookup.
#[test]
fn all_sweep_artifacts_are_jobs_invariant_and_cache_invisible() {
    let serial = assert_files_invariant(
        "all",
        "8",
        &[
            "all.metrics.jsonl",
            "all.trace.json",
            "all.spans.txt",
            "all.series.jsonl",
            "health.incidents.jsonl",
        ],
    );
    let spans = String::from_utf8(serial[3].clone()).expect("span tree is utf8");
    let start = spans.find("== fig14 ==\n").expect("fig14 section");
    let end = spans[start + 1..]
        .find("\n== ")
        .map_or(spans.len(), |i| start + 1 + i + 1);
    let solo = run_observed("fig14", "1", &tmp_dir("fig14"), &["fig14.spans.txt"]);
    assert_eq!(
        &spans[start..end],
        String::from_utf8(solo[1].clone()).expect("span tree is utf8"),
        "fig14 records different spans inside 'all' than alone"
    );
}

/// The health plane's determinism contract is three-way: stdout, the
/// windowed series JSONL, and the incident ledger must all be
/// byte-identical between `--jobs 1` and `--jobs 8`. Both exports must
/// also round-trip through the telemetry parsers, and the headline —
/// the CUSUM alarm leading the governor's UE retreat — must be on
/// stdout.
#[test]
fn health_series_and_incidents_are_jobs_invariant() {
    let serial = assert_files_invariant(
        "health",
        "8",
        &["health.series.jsonl", "health.incidents.jsonl"],
    );
    let stdout = String::from_utf8(serial[0].clone()).expect("stdout is utf8");
    assert!(
        stdout.contains("before the governor's UE retreat"),
        "lead-time headline missing:\n{stdout}"
    );
    let text = String::from_utf8(serial[1].clone()).expect("series is utf8");
    let snap = telemetry::series::parse_series_jsonl(&text).expect("series export parses");
    assert!(
        snap.get("health.slow-degradation.ce").is_some(),
        "slow-degradation CE series missing from the export"
    );
    let text = String::from_utf8(serial[2].clone()).expect("ledger is utf8");
    let ledger = telemetry::monitor::parse_incidents_jsonl(&text).expect("ledger parses");
    assert!(!ledger.is_empty(), "health must open at least one incident");
}

/// Odd worker counts and a second pass over cheap whole-table targets:
/// task-level parallelism must merge per-target registries in
/// canonical order no matter which worker finishes first.
#[test]
fn multi_target_merge_is_jobs_invariant() {
    for target in ["table1", "fig1"] {
        assert_files_invariant(target, "3", &[&format!("{target}.metrics.jsonl")]);
    }
}
