#!/usr/bin/env python3
"""Checks compare.py's labels, in particular that swapping the two sets
never turns a pair that reads regressed into one that reads unchanged, and
that layers.json maps exactly the per-layer metrics of BENCHMARK.json.

    python3 bench/e2e/test_e2e.py
"""

import itertools
import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402


def metric(samples):
    """A summary metric as summarize.py writes it."""
    q = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q[0], "q3": q[2],
            "samples": list(samples)}


def around(median, spread, n):
    """n samples spread evenly over median * (1 +- spread)."""
    return [median * (1 + spread * (2 * k / (n - 1) - 1)) for k in range(n)]


class LabelTest(unittest.TestCase):
    def test_same_runs_are_unchanged(self):
        a = metric(around(100.0, 0.02, 10))
        for better in ("lower", "higher"):
            self.assertEqual(compare.label(a, a, better, 0.1), "unchanged")

    def test_worse_past_bound_is_regressed(self):
        a = metric(around(100.0, 0.02, 5))
        b = metric(around(120.0, 0.02, 5))
        self.assertEqual(compare.label(a, b, "lower", 0.1), "regressed")
        self.assertEqual(compare.label(b, a, "higher", 0.1), "regressed")

    def test_better_past_bound_without_evidence_is_unresolved(self):
        # Five runs each: too few pairs to claim a gain, so a median that
        # moved 28.5% the better way means the two sets disagree, and so
        # does the 22% move back (28.5% of the smaller median).
        a = metric(around(100.0, 0.02, 5))
        b = metric(around(128.5, 0.02, 5))
        self.assertEqual(compare.label(a, b, "higher", 0.25), "unresolved")
        self.assertEqual(compare.label(b, a, "higher", 0.25), "unresolved")
        self.assertEqual(compare.label(a, b, "lower", 0.25), "regressed")
        self.assertEqual(compare.label(b, a, "lower", 0.25), "unresolved")

    def test_gain_over_ten_winning_pairs_is_improved(self):
        a = metric(around(100.0, 0.02, 10))
        b = metric(around(80.0, 0.02, 10))
        self.assertEqual(compare.label(a, b, "lower", 0.1), "improved")

    def test_wide_spread_is_unresolved(self):
        a = metric(around(100.0, 0.4, 10))
        self.assertEqual(compare.label(a, a, "lower", 0.1), "unresolved")

    def test_swapping_sets_never_hides_a_regression(self):
        medians = [80.0, 88.0, 90.5, 95.0, 100.0, 105.0, 109.5, 111.0, 125.0]
        spreads = [0.0, 0.03, 0.2]
        for better, bound in itertools.product(("lower", "higher"),
                                               (0.05, 0.1, 0.25)):
            for (ma, sa), (mb, sb) in itertools.product(
                    itertools.product(medians, spreads), repeat=2):
                for n in (5, 10):
                    a = metric(around(ma, sa, n))
                    b = metric(around(mb, sb, n))
                    forward = compare.label(a, b, better, bound)
                    backward = compare.label(b, a, better, bound)
                    case = (better, bound, ma, sa, mb, sb, n, forward,
                            backward)
                    self.assertNotEqual({forward, backward},
                                        {"unchanged", "regressed"}, case)
                    # Within the bound's noise, agreement is symmetric: a
                    # pair reads unchanged both ways, or one way reads a
                    # proven gain.
                    noise = max(compare.spread(a), compare.spread(b))
                    if noise <= bound and forward == "unchanged":
                        self.assertIn(backward, ("unchanged", "improved"),
                                      case)


class LayersTest(unittest.TestCase):
    def test_layers_cover_the_per_layer_metrics(self):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        named = layers["outcomes"] + layers["checks"]
        for group in layers["layers"]:
            named += group["metrics"]
        self.assertEqual(sorted(named),
                         sorted(m["name"] for m in bench["per_layer"]))
        targets = set(layers["outcomes"]) | {m["name"]
                                             for m in bench["end_to_end"]}
        workloads = {w["name"] for w in bench["workloads"]}
        for group in layers["layers"]:
            for entry in group["moves"] + group["no_move"]:
                metric, workload = entry.split("@")
                self.assertIn(metric, targets, group["layer"])
                self.assertIn(workload, workloads, group["layer"])


if __name__ == "__main__":
    unittest.main()
