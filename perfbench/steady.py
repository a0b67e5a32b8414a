#!/usr/bin/env python3
"""Run one workload on several seeds and report, per metric, the median and
the spread (inter-quartile range ÷ median) next to the metric's bound.

    python3 perfbench/steady.py --workload cnn_oma_churn --seeds 101-110 [--trace 0]

A metric is steady enough when its spread stays below a third of its
bound; ``setup_s`` is exempt from the spread (its bound covers medians).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pb import stats  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    first, last = map(int, args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds or spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
        print(f"seed {seed}: exit {out.returncode}, correct {result.get('correct')}", flush=True)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = stats.spread(vs) if len(vs) >= 2 and med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("steady" if spread < bound / 3 else "WIDE")
        print(f"{name:34s} n={len(vs):2d} median={med:<12.6g} spread={spread:.4f} bound={bound} {verdict}")


if __name__ == "__main__":
    main()
