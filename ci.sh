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

echo "== LRU reference (flattened caches vs naive true LRU) =="
# The struct-of-arrays caches, with their u32 recency and its
# renormalization, must match a naive per-set LRU list op for op. Runs
# the suite by name so a recency regression names itself here.
cargo test --offline -q -p memsim --test lru_reference

echo "== closed-form warm fill (batch prewarm vs per-block prewarm) =="
# The L3 warm fill places provably distinct blocks without lookups and
# must leave exactly the state per-block prewarm leaves, on warmup-
# shaped, overlapping, duplicated and many-run sequences. Runs the
# suite by name so a warm-fill regression names itself here.
cargo test --offline -q -p memsim --test prewarm_closed_form

echo "== replay oracle (recorded cache pass vs live simulation) =="
# A prime batch records each suite's cache pass once and times every
# design from the recording; a one-design batch runs live. Every design
# variant on both hierarchies must give the same SimResults, metrics
# and trace events either way, NodeSim::replay must equal NodeSim::run,
# and a replay with its writebacks dropped must fail that comparison.
# Runs the suite by name so a replay regression names itself here.
cargo test --offline -q -p hetero-dmr --test replay_equivalence

echo "== scheduler reference (EASY backfill vs naive O(n²)) =="
# The event loop (sorted-vector event queue, exact backfill bound) must
# match a naive FCFS + EASY-backfill reference job for job, on
# arbitrary and tie-dense traces under arbitrary validated speedup
# tables. The same suite holds the entry-rejection table: a job with 0
# nodes, a negative or non-finite submit time or duration, or a
# utilization outside [0, 1] must panic, naming the job and the field,
# under `run`, `run_streaming` and `Federation::run_observed`. Runs the
# suite by name so a scheduling regression names itself here.
cargo test --release --offline -p scheduler --test scheduler_properties

echo "== batched stepping gate (controller vs frozen reference) =="
# The indexed controller must sustain at least the naive reference's
# ops/s on an identical op sequence (asserts >= 1x internally).
cargo bench --offline -p memsim --bench stepping

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

echo "== five-artifact jobs-invariance (every sink, default model cache) =="
# Targets race for the shared node-model cache, but a shared hit records
# exactly what the simulation it stands in for recorded, so it does not
# matter which target pays each simulation: every artifact of the full
# sweep must be byte-identical between a parallel and a serial run:
# stdout, metrics, Chrome trace, span tree, series and the health
# incident ledger. All three sinks fork and merge through one
# telemetry::Obs path, so this step covers that path end to end.
for run in par ser; do
    jobs=1
    [ "$run" = par ] && jobs=$(nproc)
    out="$DET_DIR/obs_$run"
    t0=$SECONDS
    "$EXP" all --quick --ops 1200 --jobs "$jobs" \
        --metrics "$out" --trace "$out" --series "$out" > "$out.out"
    echo "wall-clock: --jobs $jobs ran in $((SECONDS - t0))s"
    sed -i "s|$out|DIR|" "$out.out"
done
diff -u "$DET_DIR/obs_ser.out" "$DET_DIR/obs_par.out"
for f in all.metrics.jsonl all.trace.json all.spans.txt all.series.jsonl \
    health.incidents.jsonl; do
    diff -u "$DET_DIR/obs_ser/$f" "$DET_DIR/obs_par/$f"
done

echo "== results/ reproduce =="
# results/ is exactly what a default full run prints and writes: its
# stdout is experiments_output.txt and its --csv files are the rest.
# The drift report reads these CSVs as its references, so they must
# come from the program as it stands.
mkdir "$DET_DIR/results"
"$EXP" all --jobs "$(nproc)" --csv "$DET_DIR/results" \
    > "$DET_DIR/results/experiments_output.txt"
diff -r results "$DET_DIR/results"

echo "== trace + drift report smoke =="
# A traced fig5 run at the default --ops must be byte-identical across
# --jobs (the step above covers 'all' at a reduced --ops), the Chrome
# trace must parse, and the drift report must come back clean against
# the reference figures in results/.
"$EXP" fig5 --quick --metrics "$DET_DIR/rep" --trace "$DET_DIR/rep" \
    > /dev/null
"$EXP" fig5 --quick --jobs 1 --trace "$DET_DIR/rep1" > /dev/null
diff -u "$DET_DIR/rep1/fig5.trace.json" "$DET_DIR/rep/fig5.trace.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$DET_DIR/rep/fig5.trace.json"
"$EXP" report "$DET_DIR/rep" --out "$DET_DIR/rep/report.md"
grep -q "## Paper drift" "$DET_DIR/rep/report.md"

echo "== power/energy smoke =="
# The residency energy engine must conserve bank time in its tap and
# stay inside the standby envelope built from the datasheet calibration
# alone (edge sum plus precharge/active standby). Runs the oracle by
# name so an energy-model regression names itself here.
cargo test --offline -q -p energy --test residency_envelope
# Both residency-model targets must run, and the generation sweep fans
# out on the worker pool only when a target has the pool to itself
# (inside 'all' the other targets hold the permits), so these standalone
# runs diff stdout, metrics, trace and span tree between parallel and
# serial runs. The report must render the Power/energy section, and the
# drift table must stay clean.
for t in energy configurator; do
    for run in par ser; do
        jobs=1
        [ "$run" = par ] && jobs=$(nproc)
        out="$DET_DIR/${t}_$run"
        "$EXP" "$t" --quick --jobs "$jobs" --metrics "$out" --trace "$out" \
            > "$out.out"
        sed -i "s|$out|DIR|" "$out.out"
    done
    diff -u "$DET_DIR/${t}_ser.out" "$DET_DIR/${t}_par.out"
    for f in "$t.metrics.jsonl" "$t.trace.json" "$t.spans.txt"; do
        diff -u "$DET_DIR/${t}_ser/$f" "$DET_DIR/${t}_par/$f"
    done
done
"$EXP" report "$DET_DIR/energy_par" --out "$DET_DIR/energy_par/report.md"
grep -q "## Power/energy" "$DET_DIR/energy_par/report.md"
grep -q "0 breach(es)" "$DET_DIR/energy_par/report.md"
grep -q "meet all requirements" "$DET_DIR/configurator_par.out"

echo "== fleet federation smoke =="
# The federated sweep must report both placement policies on a reduced
# stream, render its report section, and stay drift-clean. The two
# placements run concurrently on the worker pool only when fleet has
# the pool to itself (inside 'all' the other targets hold the permits),
# so this standalone run is what diffs stdout, metrics, trace, span
# tree and series between concurrent and serial placements. Full scale
# (10M jobs) is covered by the bench record, not the CI gate.
for run in par ser; do
    jobs=1
    [ "$run" = par ] && jobs=$(nproc)
    out="$DET_DIR/fleet_$run"
    t0=$SECONDS
    "$EXP" fleet --quick --fleet-jobs 200000 --jobs "$jobs" --metrics "$out" \
        --trace "$out" --series "$out" > "$out.out"
    echo "wall-clock: --jobs $jobs ran in $((SECONDS - t0))s"
    sed -i "s|$out|DIR|" "$out.out"
done
diff -u "$DET_DIR/fleet_ser.out" "$DET_DIR/fleet_par.out"
for f in fleet.metrics.jsonl fleet.trace.json fleet.spans.txt fleet.series.jsonl; do
    diff -u "$DET_DIR/fleet_ser/$f" "$DET_DIR/fleet_par/$f"
done
grep -q "placement capacity_weighted:" "$DET_DIR/fleet_par.out"
grep -q "placement margin_aware:" "$DET_DIR/fleet_par.out"
grep -q "margin-aware over capacity-weighted placement" "$DET_DIR/fleet_par.out"
"$EXP" report "$DET_DIR/fleet_par" --out "$DET_DIR/fleet_par/report.md"
grep -q "## Fleet federation" "$DET_DIR/fleet_par/report.md"
grep -q "0 breach(es)" "$DET_DIR/fleet_par/report.md"

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

echo "== rustdoc intra-doc links =="
# Every [`Item`] link in first-party docs must resolve, so a rename or a
# deletion cannot leave a doc pointing at nothing.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --offline --no-deps --workspace --exclude rand --exclude proptest

echo "== perfbench builds =="
# The benchmark depends on the workspace crates by path. Building it
# here, apart from its tests, makes a deleted API it still calls fail
# under this step's name rather than inside the perfbench test step.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== tracked Rust lines =="
# One command gives each change's net-lines figure; it prints before
# the perfbench step so a failing benchmark check cannot hide it.
git ls-files '*.rs' | xargs cat | wc -l

echo "== perfbench (builds against the workspace, runs its output checks) =="
# The benchmark depends on the workspace crates by path, so removing an
# API it calls fails here; its tests also check the benchmark's result
# lines and digests on small rounds. It runs last, so a benchmark
# check that fails does not hide the gates above.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "CI OK"
