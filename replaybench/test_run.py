"""Tests of run.py's checks: the emitted metric names and units must match
BENCHMARK.json, and BENCHMARK.json itself must keep the benchmark contract's
shape. Run with `python3 -m unittest test_run` from this directory (the
self-check does)."""

import os
import re
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def result_with(metrics, checks=None, workload="soak_mix"):
    return {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "checks": {"alert_mismatch": 0} if checks is None else checks,
        "info": {"workload": workload},
    }


class ValidateTest(unittest.TestCase):
    expected = {"a_pkt_s": "pkt/s", "setup_s": "s"}

    def test_matching_names_and_units_pass(self):
        result = result_with({"a_pkt_s": (1.5, "pkt/s"), "setup_s": (2.0, "s")})
        self.assertEqual(run.validate(result, self.expected, trace=0), [])

    def test_missing_extra_and_misunited_metrics_fail(self):
        result = result_with({"a_pkt_s": (1.5, "ms"), "other": (1.0, "s")})
        problems = run.validate(result, self.expected, trace=0)
        self.assertIn("missing metric: setup_s", problems)
        self.assertIn("undeclared metric: other", problems)
        self.assertTrue(any(p.startswith("a_pkt_s: unit") for p in problems))

    def test_end_to_end_metrics_must_be_positive(self):
        result = result_with({"a_pkt_s": (0.0, "pkt/s"), "setup_s": (2.0, "s")})
        self.assertEqual(len(run.validate(result, self.expected, trace=0)), 1)
        # Per-layer metrics may be zero (a count of nothing is a reading).
        self.assertEqual(run.validate(result, self.expected, trace=1), [])

    def test_correctness_outputs_are_required_but_not_judged(self):
        metrics = {"a_pkt_s": (1.5, "pkt/s"), "setup_s": (2.0, "s")}
        self.assertIn("missing correctness output: alert_mismatch",
                      run.validate(result_with(metrics, checks={}),
                                   self.expected, trace=0))
        benign = result_with(metrics, checks={"alert_mismatch": 1},
                             workload="benign_media")
        self.assertIn("missing correctness output: false_alerts",
                      run.validate(benign, self.expected, trace=0))
        benign["checks"]["false_alerts"] = 1150
        # Nonzero failure counts are reported, never a validation failure.
        self.assertEqual(run.validate(benign, self.expected, trace=0), [])


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_contract_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(set(names)), len(names))
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_workloads_are_the_programs(self):
        # BENCHMARK.json measures workloads the C++ table defines.
        with open(os.path.join(run.HERE, "src", "workloads.cpp")) as f:
            source = f.read()
        for name in run.WORKLOADS:
            self.assertIn('"%s"' % name, source)
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
