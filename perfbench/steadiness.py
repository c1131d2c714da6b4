#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

For every workload, runs BENCHMARK.json's command once per seed and
prints, per end-to-end metric, the median, the first and third
quartiles (Python's statistics.quantiles(n=4)), and the spread
(Q3 - Q1) / median next to the metric's bound.

    python3 perfbench/steadiness.py                     # 10 seeds, every workload
    python3 perfbench/steadiness.py --workload node-cold --seeds 5

Run it from the repository root. Raw result lines are appended to
perfbench/runs/<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), "-")
    return result, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    catalogue = spec["end_to_end"]
    os.makedirs(os.path.join(ROOT, "perfbench", "runs"), exist_ok=True)

    for workload in workloads:
        values = {m["name"]: [] for m in catalogue}
        failed = 0
        with open(os.path.join(ROOT, "perfbench", "runs", f"{workload}.jsonl"), "a") as log:
            for seed in range(1, args.seeds + 1):
                result, digest = run_once(spec, workload, seed)
                log.write(json.dumps({"seed": seed, "digest": digest, **result}) + "\n")
                failed += result["failed"]
                for name, entry in result["metrics"].items():
                    values[name].append(entry["value"])
                print(f"  {workload} seed {seed}: digest {digest} "
                      f"correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        print(f"\n### {workload} ({args.seeds} runs, {failed} failed checks)\n")
        print("| metric | unit | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for m in catalogue:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {m['bound']} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
