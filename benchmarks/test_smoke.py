"""Smoke test of the benchmark on tiny universes.

    python3 -m unittest benchmarks/test_smoke.py      (from the checkout root)

Runs each workload's kind of op on G2, A3 and B3, untraced and traced,
and checks that every metric BENCHMARK.json names is emitted, that the
layer split holds, and that a corrupted digest counts as a failed op.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep-simply-laced": run.Workload(
        "sweep-simply-laced", ("A3",), lambda seed: run.sweep_ops(["A3"])),
    "sweep-two-lengths": run.Workload(
        "sweep-two-lengths", ("G2", "B3"),
        lambda seed: run.shuffled(run.sweep_ops(["G2", "B3"]), seed)),
    "coxeter-orbits": run.Workload(
        "coxeter-orbits", ("A3",),
        lambda seed: run.verify_ops([("prop51", "A3"), ("lemma54_56", "A3")])),
    "demazure-queries": run.Workload(
        "demazure-queries", ("A3", "B3", "G2"),
        lambda seed: run.demazure_ops(
            {"A3": [(1, 0, 0), (0, 1, 1)], "B3": [(0, 0, 1)], "G2": [(1, 0), (1, 1)]},
            2, seed)),
}


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.require_engine()
        cls.digests = run.load_digests()
        cls.untraced = {name: run.run_workload(w, 1, 0, 0, cls.digests)[0]
                        for name, w in TINY.items()}
        cls.traced = {name: run.run_workload(w, 1, 0, 1, cls.digests)[0]
                      for name, w in TINY.items()}

    def test_spec_matches_harness(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]], list(run.END_TO_END))
        self.assertEqual({m["name"] for m in SPEC["per_layer"]},
                         set(run.PER_LAYER) | set(run.DERIVED))
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for result in list(self.untraced.values()) + list(self.traced.values()):
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name], name)

    def test_every_end_to_end_metric_emitted_and_positive(self):
        for name, result in self.untraced.items():
            with self.subTest(workload=name):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                for metric, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, metric)

    def test_every_per_layer_metric_emitted(self):
        for name, result in self.traced.items():
            with self.subTest(workload=name):
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER) | set(run.DERIVED))

    def test_layer_split(self):
        def calls(workload, metric):
            return self.traced[workload]["metrics"][metric]["value"]
        self.assertGreater(calls("sweep-simply-laced", "weyl.bruhat_leq.calls"), 0)
        self.assertEqual(calls("sweep-two-lengths", "weyl.bruhat_leq.calls"), 0)
        self.assertEqual(calls("demazure-queries", "weyl.bruhat_leq.calls"), 0)
        self.assertEqual(calls("coxeter-orbits", "charring.demazure_op.calls"), 0)
        self.assertEqual(calls("coxeter-orbits", "weyl.enumerate_group.calls"), 0)
        self.assertEqual(calls("demazure-queries", "weyl.enumerate_group.calls"), 0)
        self.assertGreater(calls("demazure-queries", "charring.char_sorted_terms.busy_s"), 0)

    def test_corrupted_digest_fails_the_op(self):
        corrupted = dict(self.digests)
        corrupted["sweep A3"] = "0" * 64
        result, record = run.run_workload(TINY["sweep-simply-laced"], 1, 0, 0, corrupted)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("sweep A3: digest mismatch", record["failures"])

    def test_oracle_rejects_a_wrong_character(self):
        query = {"type": "A3", "word": (1, 2, 1, 3, 2, 1), "weight": (1, 0, 0)}
        doc = {"type": "A3", "word": [1, 2, 1, 3, 2, 1], "weight_fw": [1, 0, 0],
               "term_count": 3, "terms": [{"fw": [1, 0, 0], "mult": 1},
                                          {"fw": [-1, 1, 0], "mult": 1},
                                          {"fw": [0, -1, 1], "mult": 1}]}
        self.assertIsNotNone(run.check_demazure(query, doc))
        doc["terms"].append({"fw": [0, 0, -1], "mult": 1})
        doc["term_count"] = 4
        self.assertIsNone(run.check_demazure(query, doc))


if __name__ == "__main__":
    unittest.main()
