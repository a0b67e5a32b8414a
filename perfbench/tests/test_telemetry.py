"""Span and metrics parsing against captured fixtures.

``fixtures/engine/`` is the ``--telemetry`` output of ``airfedga-run`` on
``fixtures/tiny.toml`` at quick scale with ``PARALLEL_THREADS=2`` (Dynamic
and Air-FedGA, 6 rounds each); ``fixtures/probe_spans.jsonl`` is
``perfbench-probe setup fixtures/tiny.toml 2 ...`` output."""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from pb import telemetry  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")
ENGINE = os.path.join(FIXTURES, "engine")


def load(wall_s=1.0):
    run = telemetry.EngineRun()
    run.add_dir(ENGINE, wall_s)
    return run


class EngineSpans(unittest.TestCase):
    def test_every_line_parses_with_the_documented_keys(self):
        rows = telemetry.read_jsonl(os.path.join(ENGINE, "spans.jsonl"))
        self.assertTrue(rows)
        for r in rows:
            self.assertEqual(
                set(r), {"cell", "seed", "attempt", "seq", "span", "depth", "detail", "dur_us", "self_us"}
            )

    def test_parents_follow_depth_within_a_scope(self):
        spans = load().spans
        by_name = {}
        for s in spans:
            by_name.setdefault(s["span"], set()).add(s["parent"])
        for child in ("train", "aggregate", "dispatch"):
            self.assertEqual(by_name[child], {"round"}, child)
        self.assertEqual(by_name["round"], {"replicate"})
        self.assertEqual(by_name["replicate"], {None})

    def test_counters_histograms_and_sched_plane(self):
        run = load()
        self.assertEqual(run.counters["engine.rounds"], 12)
        self.assertEqual(len(run.named("round")), 12)
        self.assertGreater(sum(run.mnk.values()), 0)
        self.assertIn("pool.fork_joins", run.sched)
        self.assertNotIn("pool.fork_joins", run.counters)  # sched plane is not in metrics.json

    def test_validity_checks(self):
        run = load()
        self.assertEqual(run.validity(expected_replicates=2), [])
        self.assertTrue(run.validity(expected_replicates=3))
        run.spans = [s for s in run.spans if s["span"] != "train"]
        self.assertTrue(any("95%" in p for p in run.validity(expected_replicates=2)))

    def test_layer_metrics(self):
        run = load(wall_s=2.0)
        m = run.layer_metrics(threads=2)
        self.assertEqual(m["engine.rounds"][0], 12)
        train_us = sum(s["self_us"] for s in run.named("train"))
        round_us = sum(s["dur_us"] for s in run.named("round"))
        self.assertAlmostEqual(m["train.self_s"][0], train_us * 1e-6)
        self.assertAlmostEqual(m["train.share"][0], train_us / round_us)
        busy = sum(s["dur_us"] for s in run.named("replicate")) * 1e-6
        self.assertAlmostEqual(m["pool.utilisation"][0], busy / 4.0)
        self.assertAlmostEqual(m["pool.idle_s"][0], 4.0 - busy)
        self.assertEqual(m["faults.participation"][0], 1.0)  # fault-free
        self.assertEqual(m["engine.round_ms_p99"][2]["n"], 12)
        self.assertEqual(m["engine.round_ms_p99"][2]["p_used"], 50.0)  # too few rounds for p99

    def test_histogram_percentile_uses_bucket_floors(self):
        self.assertEqual(telemetry.histogram_percentile([(13, 3), (15, 3), (16, 4)], 0.5), 2 ** 15)
        self.assertEqual(telemetry.histogram_percentile([(0, 5), (4, 1)], 0.5), 0)
        with self.assertRaises(ValueError):
            telemetry.histogram_percentile([], 0.5)


class ProbeSpans(unittest.TestCase):
    def test_probe_spans_carry_start_end_parent_request(self):
        rows = telemetry.read_jsonl(os.path.join(FIXTURES, "probe_spans.jsonl"))
        for i, r in enumerate(rows):
            self.assertEqual(set(r), {"name", "start_us", "end_us", "parent", "request"})
            self.assertLessEqual(r["start_us"], r["end_us"])
            if r["parent"] is not None:
                parent = rows[r["parent"]]
                self.assertLess(r["parent"], i)
                self.assertEqual(parent["name"], "setup")
                self.assertEqual(parent["request"], r["request"])
                self.assertLessEqual(parent["start_us"], r["start_us"])
                self.assertLessEqual(r["end_us"], parent["end_us"])

    def test_grouped_by_name(self):
        by_name = telemetry.probe_spans(os.path.join(FIXTURES, "probe_spans.jsonl"))
        self.assertEqual(len(by_name["setup"]), 2)
        self.assertEqual(len(by_name["scenario.parse"]), 2)
        self.assertEqual(len(by_name["grouping.alg3"]), 2)
        self.assertTrue(all(d >= 0 for d in by_name["system.build"]))


if __name__ == "__main__":
    unittest.main()
