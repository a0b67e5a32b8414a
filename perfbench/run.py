#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Air-FedGA workspace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. It builds ``airfedga-run``,
``airfedga-serve`` and the benchmark's own probe (``perfbench/probe``)
in release mode, runs one workload, checks its outputs, and prints a run
record followed by one JSON result line (the last line of stdout):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones. ``--smoke`` runs the same code paths at
toy size (quick scale, tiny specs), for the benchmark's own tests.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pb import workloads  # noqa: E402

WORKLOADS = ("lr_aircomp_trio", "cnn_oma_churn", "service_dedup_mix")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_env():
    """Release build with the rustflags of the committed .cargo/config.toml
    (target-cpu=native), never the opt-in wide-vector profile."""
    env = dict(os.environ)
    env.pop("RUSTFLAGS", None)
    env.pop("CARGO_ENCODED_RUSTFLAGS", None)
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or "target")
    return env


def build():
    env = build_env()
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "scenario", "--bin", "airfedga-run",
         "-p", "jobserver", "--bin", "airfedga-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for argv in steps:
        subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=880, check=True)
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return {
        "run": os.path.join(release, "airfedga-run"),
        "serve": os.path.join(release, "airfedga-serve"),
        "probe": os.path.join(release, "perfbench-probe"),
    }


def rustflags():
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            return [line.strip() for line in f if line.strip().startswith("rustflags")]
    except OSError:
        return []


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return top[1] if os.path.realpath(top[0]) == os.path.realpath(ROOT) else None


def source_digest():
    """SHA-256 over the workspace sources, to tell builds apart where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", ".cargo", "crates", "src"):
        top = os.path.join(ROOT, base)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep) for f in files)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def declared_metrics(trace):
    """``{name: unit}`` of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    # A terminated run still stops its children and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "scenario")
    ):
        log(f"{ROOT} is not a checkout of the workspace (no Cargo.toml / crates/)")
        return 2
    try:
        bins = build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    threads = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work)
    ctx = workloads.Context(bins, work, threads, args.smoke)
    try:
        if args.workload == "service_dedup_mix":
            metrics, failures = workloads.run_service(ctx, args.seed, args.seconds, args.trace)
        else:
            metrics, failures = workloads.run_batch(
                ctx, workloads.BATCH[args.workload], args.seed, args.seconds, args.trace
            )
    except Exception:
        traceback.print_exc()
        log("run aborted")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    system_seed, run_seed = workloads.run_seeds(args.seed)
    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in metrics]
    wrong_unit = [n for n in names if n in metrics and metrics[n][1] != names[n]]
    if (missing or wrong_unit) and not failures.failed:
        failures.op(0, f"metrics not measured: {missing}; wrong unit: {wrong_unit}", failed=1)
    for reason in failures.reasons:
        log(f"FAILED: {reason}")
    correct = failures.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "system_seed": system_seed,
        "run_seed": run_seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": threads,
        "PARALLEL_THREADS": threads,
        "PARALLEL_CHUNKS": os.environ.get("PARALLEL_CHUNKS", "unset (pool default)"),
        "profile": "release",
        "rustflags": rustflags(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "percentiles": {n: m[2] for n, m in metrics.items() if m[2]},
        "failures": failures.reasons,
        **ctx.record,
    }
    result = {
        "correct": correct,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics}
        if correct else {},
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
