"""The three workloads: how each one runs, what it checks, what it reports.

Every metric is returned as ``{name: (value, unit, percentile_info)}``;
``run.py`` turns that into the result line and the run record.
"""

import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time

from . import proc, stats, telemetry

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = os.path.join(HERE, "specs")

DEFAULT_SEED = 42
WARM_REPEATS = 3  # warm resubmissions per cold service job
BATCH_WARM_RERUNS = 10  # warm `--resume` reruns per cold batch run (they are cheap)
SETUP_PROCESSES = 5  # set-up time also varies per process, so sample several
SETUP_REPEATS = 10  # per process
DAEMON_STARTS = 15  # throwaway start-ups, besides one per pass
SERVICE_COLD_JOBS = 40

# Digests of stdout + result CSVs at the default seed (batch), and of every
# cold job's result files (service). A change here is a change of output.
with open(os.path.join(HERE, "digests.json")) as _f:
    DIGESTS = json.load(_f)


def run_seeds(seed):
    """``--seed n`` → (system seed n, run seed 4200 + n): the default seed
    42 gives the committed scenarios' seeds 42 and 4242."""
    return seed, 4200 + seed


class Workload:
    def __init__(self, name, spec, replicates, rounds, csvs, cells, smoke_rounds, smoke_edits=()):
        self.name = name
        self.spec = spec
        self.replicates = replicates
        self.full_rounds = rounds  # global rounds per replicate
        self.smoke_rounds = smoke_rounds
        self.csvs = csvs
        self.cells = cells  # rows of a grid CSV (None: per-mechanism traces)
        self.smoke_edits = smoke_edits

    def rounds(self, smoke):
        return self.smoke_rounds if smoke else self.full_rounds

    def render(self, path, seed, smoke):
        system_seed, run_seed = run_seeds(seed)
        with open(os.path.join(SPECS, self.spec)) as f:
            text = f.read()
        text = text.replace("@SYSTEM_SEED@", str(system_seed)).replace("@RUN_SEED@", str(run_seed))
        if smoke:
            for old, new in self.smoke_edits:
                assert old in text, old
                text = text.replace(old, new)
        with open(path, "w") as f:
            f.write(text)
        return path


BATCH = {
    "lr_aircomp_trio": Workload(
        "lr_aircomp_trio", "lr_aircomp_trio.toml", replicates=3, rounds=400,
        csvs=("fig3_air_fedavg.csv", "fig3_air_fedga.csv", "fig3_dynamic.csv"), cells=None,
        smoke_rounds=60,  # the quick scale's default budget
    ),
    "cnn_oma_churn": Workload(
        "cnn_oma_churn", "cnn_oma_churn.toml", replicates=8, rounds=200,
        csvs=("cnn_oma_churn_grid.csv",), cells=4, smoke_rounds=6,
        smoke_edits=(("rounds = 200", "rounds = 6"), ("[50, 100]", "[10, 12]")),
    ),
}
SERVICE = Workload(
    "service_dedup_mix", "service_mix.toml", replicates=4, rounds=16,
    csvs=("service_mix_grid.csv",), cells=4, smoke_rounds=16,
)


class Context:
    """Binaries, child environment and the scratch directory of one run."""

    def __init__(self, bins, work, threads, smoke):
        self.bins = bins
        self.work = work
        self.threads = threads
        self.smoke = smoke
        self.env = dict(os.environ)
        self.env["PARALLEL_THREADS"] = str(threads)
        self.env["AIRFEDGA_SCALE"] = "quick" if smoke else "full"
        self.record = {}
        self._n = 0

    def fresh_dir(self, stem):
        self._n += 1
        path = os.path.join(self.work, f"{stem}{self._n}")
        os.makedirs(path)
        return path

    def probe(self, *args):
        child = proc.checked([self.bins["probe"], *map(str, args)], self.work, self.env)
        return json.loads(child.stdout.decode().strip().splitlines()[-1])


class Failures:
    """Operations attempted and failed, with the reasons for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, n, problem=None, failed=None):
        self.attempted += n
        if problem:
            self.failed += n if failed is None else failed
            self.reasons.append(problem)


def pct(out, name, values, p, scale=1.0, unit="ms"):
    value, used, n = stats.percentile(values, p)
    out[name] = (value * scale, unit, {"p_requested": p, "p_used": used, "n": n})


def digest(stdout, files):
    h = hashlib.sha256(stdout)
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()


def read_results(results_dir):
    files = {}
    for name in sorted(os.listdir(results_dir)):
        with open(os.path.join(results_dir, name), "rb") as f:
            files[name] = f.read()
    return files


def check_csvs(w, files, smoke):
    """Structural checks that hold at every seed: the expected CSVs, all
    numbers finite, every replicate ran its full round budget."""
    if sorted(n for n in files if n.endswith(".csv")) != sorted(w.csvs):
        return f"result files {sorted(files)} != {sorted(w.csvs)}"
    for name in w.csvs:
        rows = list(csv.DictReader(io.StringIO(files[name].decode())))
        for row in rows:
            for key, value in row.items():
                try:
                    if not math.isfinite(float(value)):
                        return f"{name}: {key} = {value}"
                except ValueError:
                    pass
        if w.cells is None:
            # Per-mechanism trace: the last point is the final round.
            if not rows or int(rows[-1]["round"]) != w.rounds(smoke):
                return f"{name}: trace does not end at round {w.rounds(smoke)}"
        else:
            if len(rows) != w.cells:
                return f"{name}: {len(rows)} rows, expected {w.cells}"
            key = "rounds_survived_mean" if "rounds_survived_mean" in rows[0] else "rounds_survived"
            if key in rows[0] and any(float(r[key]) != w.rounds(smoke) for r in rows):
                return f"{name}: a replicate lost rounds"
    return None


# --------------------------------------------------------------------------
# Batch workloads: airfedga-run.


def batch_invocation(ctx, spec, store, extra=(), cwd=None):
    cwd = cwd or ctx.fresh_dir("run")
    argv = [ctx.bins["run"], spec, "--resume", "--store-root", store, "--results-dir", "results", *extra]
    child = proc.run(argv, cwd, ctx.env)
    files = read_results(os.path.join(cwd, "results")) if child.code == 0 else {}
    return child, files, cwd


def check_batch(w, child, files, ctx, failures, seed, warm_of=None):
    """Count one invocation's replicates as operations; return its digest."""
    if child.code != 0:
        problem = f"airfedga-run exited {child.code}: {child.stderr.decode(errors='replace')[-500:]}"
    else:
        problem = check_csvs(w, files, ctx.smoke)
    summary = child.stderr.decode(errors="replace")
    if warm_of is not None and problem is None:
        if f"runstore: {w.replicates} hit(s), 0 recomputed" not in summary:
            problem = f"warm rerun was not all hits: {summary.strip()[-200:]}"
        elif (child.stdout, files) != warm_of:
            problem = "warm rerun output differs from its cold run"
    d = digest(child.stdout, files) if problem is None else None
    if d and warm_of is None and seed == DEFAULT_SEED and not ctx.smoke:
        if DIGESTS.get(w.name) != d:
            problem = f"output digest {d} != recorded {DIGESTS.get(w.name)}"
    failures.op(w.replicates, problem)
    return d


def batch_setup(ctx, spec):
    """Probe set-up spans from several processes, merged by name."""
    spans = {}
    for i in range(SETUP_PROCESSES):
        spans_path = os.path.join(ctx.work, f"setup_spans{i}.jsonl")
        summary = ctx.probe("setup", spec, SETUP_REPEATS, spans_path)
        for name, durs in telemetry.probe_spans(spans_path).items():
            spans.setdefault(name, []).extend(durs)
    return spans, summary


def run_batch(ctx, w, seed, seconds, trace):
    failures = Failures()
    spec = w.render(os.path.join(ctx.work, "spec.toml"), seed, ctx.smoke)
    spans, setup_summary = batch_setup(ctx, spec)
    if trace:
        return trace_batch(ctx, w, seed, spec, spans, setup_summary, failures)

    # Closed loop of "jobs": a cold run on an empty store, then warm
    # `--resume` reruns that must load every replicate and reproduce its
    # output byte for byte. As many whole iterations as the first one says
    # fit in `seconds` (at least one).
    cold, warm, digests = [], [], []
    start = time.perf_counter()
    iterations = None
    while iterations is None or len(cold) < iterations:
        store = ctx.fresh_dir("store")
        child, files, cwd = batch_invocation(ctx, spec, store)
        digests.append(check_batch(w, child, files, ctx, failures, seed))
        cold.append(child)
        for _ in range(BATCH_WARM_RERUNS):
            again, again_files, _ = batch_invocation(ctx, spec, store, cwd=ctx.fresh_dir("warm"))
            check_batch(w, again, again_files, ctx, failures, seed, warm_of=(child.stdout, files))
            warm.append(again)
        shutil.rmtree(store)
        shutil.rmtree(cwd)
        if iterations is None:
            iterations = max(1, int(seconds // (time.perf_counter() - start)))
    wall = time.perf_counter() - start
    rounds = w.replicates * w.rounds(ctx.smoke)
    out = {}
    out["rounds_per_s"] = (statistics.median([rounds / c.wall_s for c in cold]), "rounds/s", None)
    out["cpu_s"] = (statistics.median([c.cpu_s for c in cold]), "s", None)
    out["peak_rss_mb"] = (statistics.median([c.peak_rss_mb for c in cold]), "MiB", None)
    out["setup_s"] = (statistics.median(spans["setup"]) * 1e-6, "s", None)
    out["jobs_per_s"] = ((len(cold) + len(warm)) / wall, "jobs/s", None)
    pct(out, "cold_job_p50_ms", [c.wall_s for c in cold], 50, 1e3)
    pct(out, "cold_job_p75_ms", [c.wall_s for c in cold], 75, 1e3)
    pct(out, "warm_job_p50_ms", [c.wall_s for c in warm], 50, 1e3)
    pct(out, "warm_job_p90_ms", [c.wall_s for c in warm], 90, 1e3)
    ctx.record["digest"] = digests[0]
    ctx.record["cold_wall_s"] = [c.wall_s for c in cold]
    ctx.record["warm_runs"] = len(warm)
    return out, failures


def setup_layers(out, spans, setup_summary):
    pct(out, "scenario.parse_ms", spans["scenario.parse"], 50, 1e-3)
    pct(out, "system.build_ms", spans["system.build"], 50, 1e-3)
    pct(out, "grouping.alg3_ms", spans["grouping.alg3"], 50, 1e-3)
    out["grouping.groups"] = (setup_summary["alg3_groups"], "count", None)


def sampler_layers(ctx, out, spec, store_root):
    spans_path = os.path.join(ctx.work, "wireless_spans.jsonl")
    radio = ctx.probe("wireless", spec, 20, spans_path)
    spans = telemetry.probe_spans(spans_path)
    pct(out, "wireless.power_us_p50", spans["wireless.optimize_power"], 50, 1.0, "us")
    pct(out, "wireless.aircomp_us_p50", spans["wireless.air_aggregate"], 50, 1.0, "us")
    pct(out, "wireless.update_us_p50", spans["wireless.group_update"], 50, 1.0, "us")
    out["wireless.aircomp_bytes_per_call"] = (radio["aircomp_bytes"] / radio["calls"], "bytes", None)
    spans_path = os.path.join(ctx.work, "runstore_spans.jsonl")
    scratch = os.path.join(ctx.work, "sampler-store")
    store = ctx.probe("runstore", store_root, scratch, 3, spans_path)
    spans = telemetry.probe_spans(spans_path)
    for op in ("store", "load", "encode", "decode"):
        pct(out, f"runstore.{op}_ms_p50", spans[f"runstore.{op}"], 50, 1e-3)
    out["runstore.bytes_per_replicate"] = (store["bytes"] / store["replicates"], "bytes", None)
    return store["mismatches"]


def jobserver_layers(out, loop_spans, jobs):
    """Latencies seen by the closed-loop client; ``first_active`` is the
    first poll that found the job no longer queued."""
    pct(out, "jobserver.submit_ms_p50", loop_spans["client.submit"], 50, 1e-3)
    pct(out, "jobserver.http_rtt_ms_p50", loop_spans["client.status"] + loop_spans["client.healthz"], 50, 1e-3)
    pct(out, "jobserver.queue_wait_ms_p50", [j["first_active_us"] - j["submit_end_us"] for j in jobs], 50, 1e-3)
    for kind, warm in (("warm", True), ("cold", False)):
        execs = [j["done_us"] - j["first_active_us"] for j in jobs if j["warm"] == warm]
        pct(out, f"jobserver.exec_{kind}_ms_p50", execs, 50, 1e-3)
    hits = sum(j["hits"] for j in jobs)
    misses = sum(j["misses"] for j in jobs)
    out["runstore.hit_ratio"] = (hits / (hits + misses), "ratio", None)


def check_jobs(ctx, w, root, jobs, failures):
    """Every job done; warm jobs all hits with results byte-equal to their
    cold twin's. Returns the digest over the cold jobs' results."""
    cold_files = {}
    for j in jobs:
        problem = None
        files = read_results(os.path.join(root, "jobs", str(j["id"]), "results"))
        if j["state"] != "done":
            problem = f"job {j['id']} ended {j['state']}"
        elif not j["warm"]:
            cold_files[j["spec"]] = files
            problem = check_csvs(w, files, ctx.smoke)
            if problem is None and (j["misses"] != w.replicates or j["hits"] != 0):
                problem = f"cold job {j['id']}: {j['hits']} hits, {j['misses']} misses"
        elif j["misses"] != 0 or j["hits"] != w.replicates:
            problem = f"warm job {j['id']}: {j['hits']} hits, {j['misses']} misses"
        elif files != cold_files.get(j["spec"]):
            problem = f"warm job {j['id']} results differ from its cold twin"
        failures.op(1, problem)
    return results_digest([cold_files[i] for i in sorted(cold_files)])


def results_digest(per_job_files):
    """One digest over several jobs' result files, in job order."""
    h = hashlib.sha256()
    for files in per_job_files:
        h.update(digest(b"", files).encode())
    return h.hexdigest()


def serve_loop(ctx, spec_paths):
    """Fresh daemon, closed loop over ``spec_paths``, clean shutdown."""
    daemon = proc.Daemon(ctx.bins["serve"], os.path.join(ctx.fresh_dir("serve"), "daemon"), ctx.env)
    try:
        spans_path = os.path.join(ctx.work, "loop_spans.jsonl")
        result = ctx.probe("serve-loop", daemon.addr, WARM_REPEATS, spans_path, *spec_paths)
    except BaseException:
        daemon.kill()
        raise
    usage = daemon.stop()
    return daemon, usage, result, telemetry.probe_spans(spans_path)


def trace_engine(ctx, spec_paths):
    """Untraced then traced ``airfedga-run`` over each spec; returns the
    merged telemetry, both wall totals and the traced runs' outputs."""
    engine = telemetry.EngineRun()
    untraced = traced = 0.0
    outputs = []
    for spec in spec_paths:
        plain, plain_files, cwd = batch_invocation(ctx, spec, ctx.fresh_dir("store"))
        shutil.rmtree(cwd)
        tel = ctx.fresh_dir("tel")
        child, files, cwd = batch_invocation(ctx, spec, ctx.fresh_dir("store"), ("--telemetry", tel))
        shutil.rmtree(cwd)
        if child.code == 0:
            engine.add_dir(tel, child.wall_s)
        untraced += plain.wall_s
        traced += child.wall_s
        same = plain.code == 0 and (plain.stdout, plain_files) == (child.stdout, files)
        outputs.append((child, files, same))
    return engine, untraced, traced, outputs


def engine_layers(ctx, out, engine, expected_replicates, expected_total_rounds, failures):
    problems = engine.validity(expected_replicates)
    if engine.counters.get("engine.rounds") != expected_total_rounds:
        problems.append(f"engine.rounds = {engine.counters.get('engine.rounds')}, expected {expected_total_rounds}")
    if problems:
        failures.op(0, "traced run invalid: " + "; ".join(problems), failed=1)
        return
    out.update(engine.layer_metrics(ctx.threads))


def trace_batch(ctx, w, seed, spec, spans, setup_summary, failures):
    out = {}
    setup_layers(out, spans, setup_summary)
    engine, untraced, traced, outputs = trace_engine(ctx, [spec])
    child, files, same = outputs[0]
    ctx.record["digest"] = check_batch(w, child, files, ctx, failures, seed)
    if not same:
        failures.op(0, "telemetry changed the output", failed=1)
    rounds = w.replicates * w.rounds(ctx.smoke)
    engine_layers(ctx, out, engine, w.replicates, rounds, failures)
    out["telemetry.overhead_ratio"] = (traced / untraced, "ratio", None)
    # The same spec through the job service: one cold job, warm repeats,
    # whose results must equal the batch run's (service ≡ batch).
    daemon, _, loop, loop_spans = serve_loop(ctx, [spec])
    jobserver_layers(out, loop_spans, loop["jobs"])
    if check_jobs(ctx, w, daemon.root, loop["jobs"], failures) != results_digest([files]):
        failures.op(0, "service results differ from the batch run's", failed=1)
    if sampler_layers(ctx, out, spec, os.path.join(daemon.root, "runstore")):
        failures.op(0, "run store round trip was not byte-exact", failed=1)
    return out, failures


# --------------------------------------------------------------------------
# Service workload: airfedga-serve.


def service_specs(ctx, seed):
    count = 2 if ctx.smoke else SERVICE_COLD_JOBS
    return [SERVICE.render(os.path.join(ctx.work, f"service{i}.toml"), seed + i, ctx.smoke) for i in range(count)]


def run_service(ctx, seed, seconds, trace):
    """Closed loop of 40 cold + 120 warm jobs on a fresh daemon, repeated
    (on another fresh daemon each time) as often as the first pass says fits
    in ``seconds``; the traced run makes one pass."""
    failures = Failures()
    specs = service_specs(ctx, seed)
    starts = []
    for _ in range(DAEMON_STARTS):
        d = proc.Daemon(ctx.bins["serve"], os.path.join(ctx.fresh_dir("serve"), "daemon"), ctx.env)
        starts.append(d.start_s)
        d.stop()
    passes, digests = [], set()
    start = time.perf_counter()
    iterations = None
    while iterations is None or len(passes) < iterations:
        daemon, usage, loop, loop_spans = serve_loop(ctx, specs)
        starts.append(daemon.start_s)
        digests.add(check_jobs(ctx, SERVICE, daemon.root, loop["jobs"], failures))
        passes.append((daemon, usage, loop, loop_spans))
        if iterations is None:
            iterations = 1 if trace else max(1, int(seconds // (time.perf_counter() - start)))
    ctx.record["digest"] = sorted(digests)
    ctx.record["passes"] = len(passes)
    if len(digests) != 1:
        failures.op(0, "service passes produced different results", failed=1)
    elif seed == DEFAULT_SEED and not ctx.smoke and DIGESTS.get(SERVICE.name) not in digests:
        failures.op(0, f"service digest {digests} != recorded", failed=1)
    out = {}
    if trace:
        daemon, _, loop, loop_spans = passes[0]
        spans, setup_summary = batch_setup(ctx, specs[0])
        setup_layers(out, spans, setup_summary)
        jobserver_layers(out, loop_spans, loop["jobs"])
        # The daemon's telemetry is process-global and leaks across jobs, so
        # the engine layers come from replaying the cold specs in batch.
        engine, untraced, traced, outputs = trace_engine(ctx, specs)
        if not all(same for _, _, same in outputs):
            failures.op(0, "telemetry changed a replayed job's output", failed=1)
        n = len(specs)
        engine_layers(ctx, out, engine, n * SERVICE.replicates,
                      n * SERVICE.replicates * SERVICE.rounds(ctx.smoke), failures)
        out["telemetry.overhead_ratio"] = (traced / untraced, "ratio", None)
        if sampler_layers(ctx, out, specs[0], os.path.join(daemon.root, "runstore")):
            failures.op(0, "run store round trip was not byte-exact", failed=1)
        return out, failures
    jobs = [j for _, _, loop, _ in passes for j in loop["jobs"]]
    loop_s = sum(loop["loop_us"] for _, _, loop, _ in passes) * 1e-6
    latency = lambda warm: [(j["done_us"] - j["submit_start_us"]) for j in jobs if j["warm"] == warm]
    rounds = len(passes) * len(specs) * SERVICE.replicates * SERVICE.rounds(ctx.smoke)
    out["rounds_per_s"] = (rounds / loop_s, "rounds/s", None)
    out["cpu_s"] = (statistics.median([usage.cpu_s for _, usage, _, _ in passes]), "s", None)
    out["peak_rss_mb"] = (statistics.median([usage.peak_rss_mb for _, usage, _, _ in passes]), "MiB", None)
    out["setup_s"] = (statistics.median(starts), "s", None)
    out["jobs_per_s"] = (len(jobs) / loop_s, "jobs/s", None)
    pct(out, "cold_job_p50_ms", latency(False), 50, 1e-3)
    pct(out, "cold_job_p75_ms", latency(False), 75, 1e-3)
    pct(out, "warm_job_p50_ms", latency(True), 50, 1e-3)
    pct(out, "warm_job_p90_ms", latency(True), 90, 1e-3)
    return out, failures
