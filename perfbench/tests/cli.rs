//! Drives the benchmark binary end to end on shrunken rounds
//! (`--small`): every workload runs, checks its outputs, prints the
//! metrics BENCHMARK.json declares, and prints the same digest with
//! tracing on and off. Run with `cargo test --release`.

use std::process::Command;
use telemetry::json::{self, Json};

const WORKLOADS: [&str; 3] = ["node-cold", "fleet-stream", "sweep-observed"];

struct Run {
    digest: String,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no metric {name}"))
    }

    fn names(&self) -> Vec<String> {
        match self.result.get("metrics") {
            Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("no metrics object"),
        }
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.1",
            "--trace",
            if trace { "1" } else { "0" },
            "--small",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("digest {workload} seed {seed} ")))
        .expect("a digest line")
        .to_string();
    let result = json::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {last}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    Run { digest, result }
}

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    match doc.get(section) {
        Some(Json::Arr(rows)) => rows
            .iter()
            .map(|r| {
                r.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect(),
        _ => panic!("no {section}"),
    }
}

#[test]
fn every_workload_prints_the_declared_metrics_and_one_digest() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in WORKLOADS {
        let timed = run(workload, 3, false);
        let traced = run(workload, 3, true);
        assert_eq!(timed.names(), end_to_end, "{workload}");
        assert_eq!(traced.names(), per_layer, "{workload}");
        assert_eq!(
            timed.digest, traced.digest,
            "{workload}: tracing changed the simulation"
        );
        for name in ["wall_s", "setup_s", "work_per_s", "peak_rss_mb"] {
            assert!(timed.metric(name) > 0.0, "{workload} {name}");
        }
    }
}

#[test]
fn each_workload_exercises_only_its_layers() {
    let node = run("node-cold", 5, true);
    for busy in [
        "workloads.trace.busy_s",
        "memsim.cache.busy_s",
        "memsim.controller.busy_s",
    ] {
        assert!(node.metric(busy) > 0.0, "node-cold {busy}");
    }
    for idle in [
        "workloads.jobs.generated",
        "scheduler.federation.routes",
        "scheduler.cluster.jobs",
        "telemetry.export_bytes",
        "core.node_model.lookups",
    ] {
        assert_eq!(node.metric(idle), 0.0, "node-cold {idle}");
    }

    let fleet = run("fleet-stream", 5, true);
    assert!(fleet.metric("workloads.jobs.busy_s") > 0.0);
    assert!(fleet.metric("scheduler.cluster.busy_s") > 0.0);
    assert_eq!(
        fleet.metric("workloads.jobs.useful_ratio"),
        0.2,
        "5 members, one keeps each job"
    );
    for idle in [
        "memsim.node.ops",
        "memsim.cache.busy_s",
        "memsim.controller.busy_s",
    ] {
        assert_eq!(fleet.metric(idle), 0.0, "fleet-stream {idle}");
    }
    for run in [&node, &fleet] {
        assert!(
            run.metric("trace.coverage") >= 0.95,
            "{}",
            run.metric("trace.coverage")
        );
    }

    let sweep = run("sweep-observed", 5, true);
    // 270 figure lookups and 5 from the adaptive loop.
    assert_eq!(sweep.metric("core.node_model.lookups"), 275.0);
    assert_eq!(sweep.metric("core.node_model.hit_ratio"), 0.6);
    assert!(sweep.metric("telemetry.export_bytes") > 0.0);
    assert!(sweep.metric("core.node_model.miss_busy_s") > 0.0);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload node-cold --seed x --seconds 1 --trace 0",
        "--workload node-cold --seed 1 --seconds 1 --trace 2",
        "--workload node-cold --seed 1 --seconds 1",
        "--bogus",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split_whitespace())
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
