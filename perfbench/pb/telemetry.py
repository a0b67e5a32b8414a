"""Readers for the two span formats the benchmark consumes.

* The engine's ``--telemetry`` artifacts: ``spans.jsonl`` (one span per
  line, keyed by ``(cell, seed, attempt, seq)`` with a per-thread
  ``depth``, duration and self time, no start/end), ``metrics.json``
  (logical-plane counters and log2 histograms) and ``profile.json``
  (adds the schedule-plane counters such as ``pool.fork_joins``).
* The probe's own spans: ``name``, ``start_us``, ``end_us``, ``parent``
  (line index or null) and ``request`` (job id, replicate or repeat).
"""

import json
import os

from . import stats

ROUND_CHILDREN = ("train", "aggregate", "eval", "dispatch")
GEMM_COUNTERS = ("gemm.nn", "gemm.tn", "gemm.tn_acc", "gemm.nt", "gemm.nt_packed")


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def with_parents(spans):
    """Attach ``parent`` (the span's enclosing span name, or None) to
    engine spans. Within one ``(cell, seed, attempt)`` scope the spans are
    recorded by one thread in ``seq`` order, so a span's parent is the
    latest span one level shallower in the same scope."""
    out = []
    open_at = {}
    for s in sorted(spans, key=lambda s: (s["cell"], s["seed"], s["attempt"], s["seq"])):
        scope = (s["cell"], s["seed"], s["attempt"])
        stack = open_at.setdefault(scope, {})
        parent = stack.get(s["depth"] - 1)
        stack[s["depth"]] = s["span"]
        for deeper in [d for d in stack if d > s["depth"]]:
            del stack[deeper]
        out.append(dict(s, parent=parent))
    return out


def histogram_percentile(buckets, q):
    """Floor of the log2 bucket holding quantile ``q`` (the engine's
    ``bucket_floor``: bucket i spans [2^i, 2^(i+1)))."""
    total = sum(c for _, c in buckets)
    seen = 0
    for idx, count in sorted(buckets):
        seen += count
        if seen >= q * total:
            return 0 if idx == 0 else 2 ** idx
    raise ValueError("empty histogram")


class EngineRun:
    """The telemetry of one or more ``airfedga-run --telemetry`` runs."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.sched = {}
        self.mnk = {}
        self.wall_s = 0.0

    def add_dir(self, path, wall_s):
        self.spans.extend(with_parents(read_jsonl(os.path.join(path, "spans.jsonl"))))
        with open(os.path.join(path, "metrics.json")) as f:
            metrics = json.load(f)
        for name, value in metrics["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for idx, count in metrics["histograms"].get("gemm.mnk", {}).get("buckets", []):
            self.mnk[idx] = self.mnk.get(idx, 0) + count
        with open(os.path.join(path, "profile.json")) as f:
            for c in json.load(f)["counters"]:
                if c["plane"] == "sched":
                    self.sched[c["name"]] = self.sched.get(c["name"], 0) + c["value"]
        self.wall_s += wall_s

    def named(self, name):
        return [s for s in self.spans if s["span"] == name]

    def validity(self, expected_replicates):
        """Problems that make the trace unusable; empty when it is valid."""
        problems = []
        rounds = self.counters.get("engine.rounds", 0)
        if len(self.named("round")) != rounds:
            problems.append(f"{len(self.named('round'))} round spans for engine.rounds = {rounds}")
        if len(self.named("replicate")) != expected_replicates:
            problems.append(
                f"{len(self.named('replicate'))} replicate spans, expected {expected_replicates}"
            )
        round_us = sum(s["dur_us"] for s in self.named("round"))
        covered = sum(
            s["self_us"] for s in self.spans if s["span"] in ROUND_CHILDREN and s["parent"] == "round"
        )
        if round_us <= 0 or covered < 0.95 * round_us:
            problems.append(f"round children cover {covered} of {round_us} us (< 95%)")
        return problems

    def layer_metrics(self, threads):
        """Per-layer metrics as ``{name: (value, unit, percentile_info)}``."""
        out = {}
        rounds = self.counters["engine.rounds"]
        round_us = sum(s["dur_us"] for s in self.named("round"))

        def pct(name, values, p, scale, unit):
            value, used, n = stats.percentile(values, p)
            out[name] = (value * scale, unit, {"p_requested": p, "p_used": used, "n": n})

        out["engine.rounds"] = (rounds, "count", None)
        durs = [s["dur_us"] for s in self.named("round")]
        pct("engine.round_ms_p50", durs, 50, 1e-3, "ms")
        pct("engine.round_ms_p99", durs, 99, 1e-3, "ms")
        for layer in ("train", "aggregate"):
            spans = self.named(layer)
            self_us = sum(s["self_us"] for s in spans)
            out[f"{layer}.self_s"] = (self_us * 1e-6, "s", None)
            out[f"{layer}.share"] = (self_us / round_us, "ratio", None)
            pct(f"{layer}.round_ms_p50", [s["dur_us"] for s in spans], 50, 1e-3, "ms")
        evals = self.named("eval")
        out["eval.self_s"] = (sum(s["self_us"] for s in evals) * 1e-6, "s", None)
        pct("eval.ms_p50", [s["dur_us"] for s in evals], 50, 1e-3, "ms")
        calls = sum(self.counters.get(c, 0) for c in GEMM_COUNTERS)
        out["gemm.calls_per_round"] = (calls / rounds, "calls", None)
        out["gemm.mnk_p50"] = (histogram_percentile(list(self.mnk.items()), 0.5), "flop", None)
        took = self.counters.get("engine.participants", 0)
        missed = self.counters.get("engine.participants_filtered", 0)
        # Fault-free runs never consult the fault filter: everyone takes part.
        out["faults.participation"] = (took / (took + missed) if took + missed else 1.0, "ratio", None)
        busy = sum(s["dur_us"] for s in self.named("replicate")) * 1e-6
        capacity = self.wall_s * threads
        out["pool.busy_s"] = (busy, "s", None)
        out["pool.idle_s"] = (max(capacity - busy, 0.0), "s", None)
        out["pool.utilisation"] = (busy / capacity, "ratio", None)
        out["pool.fork_joins"] = (self.sched.get("pool.fork_joins", 0), "count", None)
        return out


def probe_spans(path):
    """Probe spans grouped by name: ``{name: [duration_us, ...]}``."""
    by_name = {}
    for s in read_jsonl(path):
        by_name.setdefault(s["name"], []).append(s["end_us"] - s["start_us"])
    return by_name
