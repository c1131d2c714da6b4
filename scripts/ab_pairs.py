#!/usr/bin/env python3
"""Run two binaries in alternating pairs and compare their metrics.

Each pair runs A and B once on the same arguments, alternating which
goes first, so slow drifts in host speed fall on both sides. The script
reads two kinds of output:

- perfbench: the JSON result line on stdout
  ({"metrics": {name: {"value": ..., "unit": ...}}}) and its
  "digest <workload> seed <n> <hex>" line;
- experiments: the stderr line
  "ran N target(s) in W ms on J worker(s); peak RSS K kB",
  read as wall_ms and peak_rss_kb.

Per metric it prints each side's median and interquartile range
(Q1-Q3, Python's statistics.quantiles(n=4)), the change of the medians,
and in how many pairs B was better. Whether higher or lower is better
comes from BENCHMARK.json's catalogue; other metrics count lower as
better. A digest that differs between A and B is reported.

    python3 scripts/ab_pairs.py --pairs 10 PARENT/perfbench CHANGE/perfbench -- \\
        --workload sweep-observed --seed 7 --seconds 30 --trace 0
    python3 scripts/ab_pairs.py --pairs 5 PARENT/experiments CHANGE/experiments -- \\
        fig5 --quick --jobs 1

Run it from the repository root; the binaries run there.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAN = re.compile(r"^ran \d+ target\(s\) in (\d+) ms on \d+ worker\(s\)(?:; peak RSS (\d+) kB)?")


def run_once(binary, args):
    """Runs one side once; returns ({metric: (value, unit)}, digests)."""
    out = subprocess.run([binary] + args, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{binary} exited {out.returncode}:\n{out.stderr[-2000:]}")
    metrics, digests = {}, []
    for line in out.stdout.splitlines():
        if line.startswith("digest "):
            digests.append(line.strip())
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                continue
            for name, m in result.get("metrics", {}).items():
                metrics[name] = (m["value"], m["unit"])
    for line in out.stderr.splitlines():
        ran = RAN.match(line)
        if ran:
            metrics["wall_ms"] = (float(ran.group(1)), "ms")
            if ran.group(2):
                metrics["peak_rss_kb"] = (float(ran.group(2)), "kB")
    if not metrics:
        sys.exit(f"{binary}: no perfbench result line and no experiments 'ran' line")
    return metrics, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def higher_is_better():
    """Metric names whose larger values are better, per BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return set()
    catalogue = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return {m["name"] for m in catalogue if m.get("better") == "higher"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline binary (A)")
    parser.add_argument("b", help="changed binary (B)")
    parser.add_argument("args", nargs="*", help="arguments for both binaries, after --")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs to run")
    opts = parser.parse_args()
    if opts.pairs < 1:
        sys.exit("--pairs must be at least 1")

    sides = {"A": os.path.abspath(opts.a), "B": os.path.abspath(opts.b)}
    runs = {"A": [], "B": []}
    digests = {"A": set(), "B": set()}
    for pair in range(opts.pairs):
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for side in order:
            metrics, seen = run_once(sides[side], opts.args)
            runs[side].append(metrics)
            digests[side].update(seen)
        print(f"pair {pair + 1}/{opts.pairs} done", file=sys.stderr)

    higher = higher_is_better()
    names = [n for n in runs["A"][0] if n in runs["B"][0]]
    print(f"{opts.pairs} alternating pair(s): A={opts.a} B={opts.b}")
    print(f"{'metric':<40} {'A median':>12} {'A Q1-Q3':>23} {'B median':>12} "
          f"{'B Q1-Q3':>23} {'change':>8} {'B wins':>7}")
    for name in names:
        a = [r[name][0] for r in runs["A"] if name in r]
        b = [r[name][0] for r in runs["B"] if name in r]
        if len(a) != opts.pairs or len(b) != opts.pairs:
            print(f"{name:<40} missing in some runs")
            continue
        better = (lambda x, y: y > x) if name in higher else (lambda x, y: y < x)
        wins = sum(better(x, y) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        change = f"{(mb - ma) / ma * 100:+.1f}%" if ma else "-"
        qa, qb = quartiles(a), quartiles(b)
        print(f"{name:<40} {ma:>12.6g} {qa[0]:>11.6g}-{qa[1]:<11.6g} {mb:>12.6g} "
              f"{qb[0]:>11.6g}-{qb[1]:<11.6g} {change:>8} {wins:>3}/{opts.pairs}")
    if digests["A"] != digests["B"]:
        print(f"DIGESTS DIFFER: A {sorted(digests['A'])} B {sorted(digests['B'])}")
    elif digests["A"]:
        print("digests equal: " + "; ".join(sorted(digests["A"])))


if __name__ == "__main__":
    main()
