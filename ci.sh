#!/usr/bin/env bash
# Offline CI gate: release build, full test suite, formatting, lints,
# and bench compilation. Everything runs with --offline — the vendored
# stand-in crates under vendor/ are the only dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --offline --workspace --release

echo "== test =="
cargo test --offline --workspace -q

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
# The vendored stand-ins mimic external crate APIs and are exempt from
# first-party lint standards.
# `-D deprecated` fails the gate on any use of a `#[deprecated]` item,
# so an API can only be retired by migrating every caller first.
cargo clippy --offline --workspace \
    --exclude rand --exclude proptest \
    --all-targets -- -D warnings -D deprecated

echo "== benches compile =="
cargo bench --offline --workspace --no-run

echo "== windowed differential (cursor API partition invariance) =="
# Splitting a node run into windows must be byte-identical to the
# single-shot run — SimResult and telemetry both. Runs the node-level
# window suite explicitly so a cursor regression names itself here
# rather than hiding inside the full test sweep above.
cargo test --offline -q -p memsim --test differential windowed -- --nocapture

echo "== batched stepping gate (controller vs frozen reference) =="
# The indexed controller must sustain at least the naive reference's
# ops/s on an identical op sequence (asserts >= 1x internally).
cargo bench --offline -p memsim --bench stepping

echo "== perfbench (builds against the workspace, runs its output checks) =="
# The benchmark depends on the workspace crates by path, so removing an
# API it calls fails here; its tests also check the benchmark's result
# lines and digests on small rounds.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== jobs-invariance (parallel vs serial experiments) =="
# The full evaluation under the parallel runner must produce
# byte-identical stdout and metrics to a serial run.
EXP=target/release/experiments
DET_DIR=$(mktemp -d)
trap 'rm -rf "$DET_DIR"' EXIT
t0=$SECONDS
"$EXP" all --quick --ops 1200 --jobs "$(nproc)" \
    --metrics "$DET_DIR/par" > "$DET_DIR/par.out"
t_par=$((SECONDS - t0))
t0=$SECONDS
"$EXP" all --quick --ops 1200 --jobs 1 \
    --metrics "$DET_DIR/ser" > "$DET_DIR/ser.out"
t_ser=$((SECONDS - t0))
# The stdout summary line embeds the metrics path; normalize it.
sed -i "s|$DET_DIR/par|METRICS|" "$DET_DIR/par.out"
sed -i "s|$DET_DIR/ser|METRICS|" "$DET_DIR/ser.out"
diff -u "$DET_DIR/ser.out" "$DET_DIR/par.out"
diff -u "$DET_DIR/ser/all.metrics.jsonl" "$DET_DIR/par/all.metrics.jsonl"
echo "wall-clock: --jobs $(nproc) ran in ${t_par}s, --jobs 1 in ${t_ser}s"

echo "== trace + drift report smoke =="
# A traced single-target run must be byte-identical across --jobs
# (the 'all' sweep is excluded: its shared model cache makes which
# target pays each simulation schedule-dependent), the Chrome trace
# must parse and nest, and the drift report must come back clean
# against the reference figures in results/.
"$EXP" fig5 --quick --metrics "$DET_DIR/rep" --trace "$DET_DIR/rep" \
    > /dev/null
"$EXP" fig5 --quick --jobs 1 --trace "$DET_DIR/rep1" > /dev/null
diff -u "$DET_DIR/rep1/fig5.trace.json" "$DET_DIR/rep/fig5.trace.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$DET_DIR/rep/fig5.trace.json"
"$EXP" report "$DET_DIR/rep" --out "$DET_DIR/rep/report.md"
grep -q "## Paper drift" "$DET_DIR/rep/report.md"

echo "== power/energy smoke =="
# The residency-model targets must run, their report must render the
# Power/energy section, and the drift table must stay clean (the new
# summary gauges add no reference comparisons).
"$EXP" energy --quick --metrics "$DET_DIR/energy" > /dev/null
"$EXP" report "$DET_DIR/energy" --out "$DET_DIR/energy/report.md"
grep -q "## Power/energy" "$DET_DIR/energy/report.md"
grep -q "0 breach(es)" "$DET_DIR/energy/report.md"
"$EXP" configurator --quick > "$DET_DIR/configurator.out"
grep -q "meet all requirements" "$DET_DIR/configurator.out"

echo "== fleet federation smoke =="
# The federated sweep must report both placement policies on a reduced
# stream, render its report section, and stay drift-clean. Full scale
# (10M jobs) is covered by the bench record, not the CI gate.
"$EXP" fleet --quick --fleet-jobs 200000 --metrics "$DET_DIR/fleet" \
    > "$DET_DIR/fleet.out"
grep -q "placement capacity_weighted:" "$DET_DIR/fleet.out"
grep -q "placement margin_aware:" "$DET_DIR/fleet.out"
grep -q "margin-aware over capacity-weighted placement" "$DET_DIR/fleet.out"
"$EXP" report "$DET_DIR/fleet" --out "$DET_DIR/fleet/report.md"
grep -q "## Fleet federation" "$DET_DIR/fleet/report.md"
grep -q "0 breach(es)" "$DET_DIR/fleet/report.md"

echo "== adaptive governor smoke =="
# The closed-loop ablation must run (its internal asserts cover the
# safety envelope and the UE headline), its report section must render,
# and the drift table must stay clean.
"$EXP" adaptive --quick --metrics "$DET_DIR/adaptive" > "$DET_DIR/adaptive.out"
grep -q "0 envelope violations" "$DET_DIR/adaptive.out"
"$EXP" report "$DET_DIR/adaptive" --out "$DET_DIR/adaptive/report.md"
grep -q "## Adaptive margin" "$DET_DIR/adaptive/report.md"
grep -q "0 breach(es)" "$DET_DIR/adaptive/report.md"

echo "== health plane smoke =="
# The streaming health plane: the run must open incidents and print the
# CUSUM-leads-retreat headline (the target's internal assert enforces a
# lead of >= 1 epoch), the series and incident exports must be
# byte-identical between the parallel and serial runs, the report must
# render the Health section, and the drift table must stay clean.
"$EXP" health --quick --metrics "$DET_DIR/health" \
    --series "$DET_DIR/health" > "$DET_DIR/health.out"
grep -q "incident ledger" "$DET_DIR/health.out"
grep -q "before the governor's UE retreat" "$DET_DIR/health.out"
test -s "$DET_DIR/health/health.incidents.jsonl"
"$EXP" health --quick --jobs 1 --series "$DET_DIR/health1" > /dev/null
diff -u "$DET_DIR/health1/health.series.jsonl" "$DET_DIR/health/health.series.jsonl"
diff -u "$DET_DIR/health1/health.incidents.jsonl" \
    "$DET_DIR/health/health.incidents.jsonl"
"$EXP" report "$DET_DIR/health" --out "$DET_DIR/health/report.md"
grep -q "## Health" "$DET_DIR/health/report.md"
grep -q "0 breach(es)" "$DET_DIR/health/report.md"

echo "CI OK"
