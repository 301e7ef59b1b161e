"""Tests of the runner's output validator and of BENCHMARK.json's shape.

Run from anywhere: python3 e2e_bench/test_run.py
"""

import math
import re
import unittest

import run

SPEC = run.load_spec()


def good_result(traced=False):
    table = SPEC["per_layer" if traced else "end_to_end"]
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]} for m in table},
    }


class ValidatorTest(unittest.TestCase):
    def test_complete_results_pass(self):
        self.assertEqual(run.validate(good_result(), SPEC, traced=False), [])
        self.assertEqual(run.validate(good_result(True), SPEC, traced=True), [])

    def test_end_to_end_and_per_layer_are_not_interchangeable(self):
        problems = run.validate(good_result(True), SPEC, traced=False)
        self.assertTrue(any(p.startswith("missing metric samples_per_s") for p in problems))

    def test_missing_metric_is_refused(self):
        r = good_result()
        del r["metrics"]["setup_s"]
        self.assertEqual(run.validate(r, SPEC, False), ["missing metric setup_s"])

    def test_wrong_unit_is_refused(self):
        r = good_result()
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertEqual(len(run.validate(r, SPEC, False)), 1)

    def test_malformed_and_unlisted_names_are_refused(self):
        r = good_result()
        r["metrics"]["bad name"] = {"value": 1.0, "unit": "ms"}
        problems = run.validate(r, SPEC, False)
        self.assertTrue(any("malformed" in p for p in problems))
        self.assertTrue(any("not listed" in p for p in problems))

    def test_values_must_be_finite_numbers(self):
        for bad in [math.nan, math.inf, True, "1.0", None]:
            r = good_result()
            r["metrics"]["round_ms_p50"]["value"] = bad
            self.assertEqual(len(run.validate(r, SPEC, False)), 1, bad)

    def test_top_level_shape(self):
        r = good_result()
        r["extra"] = 1
        self.assertTrue(run.validate(r, SPEC, False))
        for key, bad in [("attempted", 0), ("attempted", 1.5), ("failed", -1),
                         ("failed", 11), ("correct", "yes")]:
            r = good_result()
            r[key] = bad
            self.assertTrue(run.validate(r, SPEC, False), (key, bad))
        r = good_result()
        r["metrics"]["setup_s"] = {"value": 1.0, "unit": "s", "extra": 0}
        self.assertTrue(run.validate(r, SPEC, False))
        self.assertEqual(run.validate([], SPEC, False), ["result is not a JSON object"])


class SpecTest(unittest.TestCase):
    NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["chan-wide", "tcp-adversarial", "sim-alie"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, self.NAME)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertRegex(m["unit"], self.UNIT)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], self.UNIT)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_end_to_end_metrics_are_named(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for n in ["samples_per_s", "round_ms_p50", "round_ms_p90", "setup_s",
                  "cpu_ms_per_round", "peak_rss_mb", "ingress_bytes_per_round",
                  "test_accuracy"]:
            self.assertIn(n, names)

    def test_source_digest_is_stable(self):
        self.assertEqual(run.source_digest(), run.source_digest())


if __name__ == "__main__":
    unittest.main()
