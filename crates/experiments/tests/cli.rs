//! End-to-end tests of the experiments binary: help/list/diagnostic
//! exit codes and the `--metrics` contracts — deterministic JSONL for
//! a fixed seed, and fig12 exports carrying controller latency
//! histograms, governor counters, and ECC tallies.
//!
//! Simulation sizes are shrunk (`--quick` plus a small `--ops`) so the
//! suite stays fast in the unoptimized test profile; determinism and
//! content are invariant to the op count.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdmr_cli_{name}_{}", std::process::id()))
}

#[test]
fn help_exits_zero_and_documents_the_flags() {
    let out = run(&["--help"]);
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in ["--seed", "--ops", "--quick", "--csv", "--metrics", "--list"] {
        assert!(text.contains(flag), "help must mention {flag}");
    }
    assert!(run(&["-h"]).status.success(), "-h is an alias");
}

#[test]
fn list_prints_every_target() {
    let out = run(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = text.lines().collect();
    for target in ["table1", "fig5", "fig12", "fig17", "extras"] {
        assert!(listed.contains(&target), "--list must include {target}");
    }
}

#[test]
fn unknown_target_fails_with_the_valid_list() {
    let out = run(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown target 'fig99'"));
    assert!(err.contains("fig12"), "diagnostic lists valid targets");
}

/// Unknown flags, missing or non-integer values, and zero sizes are
/// usage errors: exit 2 with a diagnostic naming the flag and pointing
/// at `--help`, before any target prints a row.
#[test]
fn malformed_arguments_exit_2() {
    for (args, flag) in [
        (&["--frobnicate"][..], "--frobnicate"),
        (&["fig5", "--quick", "--windows", "5"], "--windows"),
        (
            &["fig5", "--quick", "--log-level", "summary"],
            "--log-level",
        ),
        (&["fig5", "--quick", "--no-model-cache"], "--no-model-cache"),
        (&["fig5", "--quick", "--ops"], "--ops"),
        (&["fig5", "--quick", "--jobs", "x"], "--jobs"),
        (&["fig5", "--quick", "--ops", "0"], "--ops"),
        (&["fleet", "--quick", "--fleet-jobs", "0"], "--fleet-jobs"),
        (&["fig1", "table1"], "table1"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains("--help"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    }
}

/// The largest `--jobs` is a valid budget: fig1 (one target, no worker
/// threads) prints what it prints at `--jobs 1` and reports the budget.
#[test]
fn largest_jobs_budget_runs_and_is_reported() {
    let huge = run(&["fig1", "--jobs", "18446744073709551615"]);
    assert!(huge.status.success(), "{huge:?}");
    assert_eq!(huge.stdout, run(&["fig1", "--jobs", "1"]).stdout);
    let err = String::from_utf8_lossy(&huge.stderr);
    assert!(err.contains("on 18446744073709551615 worker(s)"), "{err}");
}

/// An explicit `--ops` wins over `--quick`'s default whichever comes
/// first on the command line.
#[test]
fn explicit_ops_wins_over_quick_in_either_order() {
    for (name, args) in [
        ("quick_first", ["--quick", "--ops", "1200"]),
        ("ops_first", ["--ops", "1200", "--quick"]),
    ] {
        let dir = tmp_dir(name);
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&[
            &["table1"][..],
            &args,
            &["--metrics", dir.to_str().unwrap()],
        ]
        .concat());
        assert!(out.status.success(), "{args:?}: {out:?}");
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(
            manifest.contains("\"ops_per_core\": \"1200\""),
            "{args:?}: {manifest}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An output directory that cannot be created fails the run with exit
/// 1 and a one-line diagnostic (a path below a regular file can never
/// become a directory).
#[test]
fn unwritable_output_dirs_exit_1() {
    let file = tmp_dir("not_a_dir");
    std::fs::write(&file, b"").unwrap();
    let bad = file.join("out");
    let bad = bad.to_str().unwrap();
    for (flag, diagnostic) in [
        ("--metrics", "cannot write metrics".to_string()),
        ("--csv", format!("cannot create CSV directory {bad}")),
    ] {
        let out = run(&["table1", flag, bad]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&diagnostic), "{flag}: {err}");
    }
    let _ = std::fs::remove_file(&file);
}

/// A target that panics fails the run with exit 1 but keeps what it
/// printed before the panic, and its trace span closes as failed.
/// `D/fig1.csv` is a directory, so fig1 panics when it writes its CSV,
/// after printing its table.
#[test]
fn failing_target_keeps_its_partial_output_and_closes_its_span() {
    let dir = tmp_dir("failing_target");
    let (csv, trace) = (dir.join("csv"), dir.join("trace"));
    std::fs::create_dir_all(csv.join("fig1.csv")).unwrap();
    let out = run(&[
        "fig1",
        "--quick",
        "--csv",
        csv.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let section = stdout
        .split("================ fig1 ================\n")
        .nth(1)
        .expect("fig1 section");
    assert!(
        section.starts_with("Cluster"),
        "partial output lost:\n{stdout}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("target 'fig1' panicked"), "{err}");
    let text = std::fs::read_to_string(trace.join("fig1.trace.json")).unwrap();
    let events = telemetry::trace::parse_chrome_trace(&text).unwrap();
    telemetry::trace::check_well_nested(&events).unwrap();
    let task = events.iter().find(|e| e.name == "task.fig1").unwrap();
    assert!(task
        .args
        .iter()
        .any(|(k, v)| k == "status" && v == "failed"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fig17 run too short to measure its speedup table fails with exit
/// 1 and tells the user which flag to raise, rather than asserting an
/// internal invariant.
#[test]
fn too_short_fig17_run_names_the_ops_flag() {
    let out = run(&["fig17", "--quick", "--ops", "300"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("target 'fig17' panicked"), "{err}");
    assert!(err.contains("--ops 300"), "{err}");
    assert!(err.contains("--ops <n>"), "{err}");
    assert!(err.contains("below 1.0"), "{err}");
    assert!(!err.contains("is consistent"), "{err}");
}

#[test]
fn fig5_metrics_snapshot_is_deterministic() {
    let dirs = [tmp_dir("det_a"), tmp_dir("det_b")];
    let mut snapshots = Vec::new();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
        let out = run(&[
            "fig5",
            "--seed",
            "42",
            "--quick",
            "--ops",
            "1200",
            "--metrics",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "fig5 run failed: {out:?}");
        snapshots.push(std::fs::read(dir.join("fig5.metrics.jsonl")).expect("metrics written"));
        assert!(dir.join("manifest.json").exists());
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(!snapshots[0].is_empty(), "snapshot must carry metrics");
    assert_eq!(
        snapshots[0], snapshots[1],
        "same seed must produce byte-identical metric snapshots"
    );
}

#[test]
fn fig12_metrics_carry_controller_governor_and_ecc_series() {
    let dir = tmp_dir("fig12");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "fig12",
        "--quick",
        "--ops",
        "800",
        "--metrics",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "fig12 run failed: {out:?}");
    let jsonl = std::fs::read_to_string(dir.join("fig12.metrics.jsonl")).unwrap();

    // Controller read-latency histograms from the timing simulator.
    assert!(jsonl
        .lines()
        .any(|l| l.contains("controller.read_latency_ps") && l.contains("\"type\":\"histogram\"")));
    // Governor / mode-switch counters and ECC tallies from the
    // protocol engine exercise.
    for series in [
        "\"name\":\"protocol.mode_switches\"",
        "\"name\":\"protocol.governor.errors\"",
        "\"name\":\"protocol.ecc.ce\"",
        "\"name\":\"protocol.ecc.ue\"",
        "\"name\":\"protocol.ecc.sdc\"",
    ] {
        assert!(jsonl.contains(series), "fig12 export missing {series}");
    }
    // Injected errors were all detected and recovered: CE > 0, and the
    // deterministic scenario produced no UE/SDC.
    let counter = |name: &str| -> u64 {
        jsonl
            .lines()
            .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .and_then(|l| l.rsplit("\"value\":").next())
            .and_then(|v| v.trim_end_matches('}').trim().parse().ok())
            .unwrap_or(0)
    };
    assert!(counter("protocol.ecc.ce") > 0);
    assert_eq!(counter("protocol.ecc.ue"), 0);
    assert_eq!(counter("protocol.ecc.sdc"), 0);

    // The manifest is self-describing.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    for field in [
        "\"target\": \"fig12\"",
        "\"ops_per_core\": \"800\"",
        "\"quick\": \"true\"",
        "\"metric_count\":",
    ] {
        assert!(manifest.contains(field), "manifest missing {field}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
