"""Smoke run of every workload in both modes at toy size (``--smoke``):
exercises the build, every runner, check and metric path, and the
result-line contract. Needs cargo; the first run builds the binaries."""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("lr_aircomp_trio", "cnn_oma_churn", "service_dedup_mix")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace, seed=3):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(lines[-2].startswith("run_record "))
        return result, json.loads(lines[-2][len("run_record "):])

    def test_every_workload_reports_every_metric_in_both_modes(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            names = declared(kind)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, record = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], record["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), list(names))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], names[name])
                        self.assertIsInstance(m["value"], (int, float))
                    for key in ("nproc", "PARALLEL_THREADS", "PARALLEL_CHUNKS", "rustflags",
                                "git_commit", "seed", "percentiles", "digest"):
                        self.assertIn(key, record)

    def test_same_seed_same_outputs(self):
        digests = [self.run_bench("cnn_oma_churn", 0, seed=5)[1]["digest"] for _ in range(2)]
        self.assertEqual(digests[0], digests[1])

    def test_refuses_a_directory_without_the_workspace(self):
        import shutil
        import tempfile

        scratch = os.path.join(ROOT, ".bench_work")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lr_aircomp_trio", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    unittest.main()
