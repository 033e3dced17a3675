#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark.

    compare.py A B [--benchmark BENCHMARK.json]

A and B are summary.json files written by bench/e2e/run.sh (A the parent,
B the change). For every workload and every end-to-end metric of
BENCHMARK.json it labels the pair:

  regressed   B's median is worse than A's by more than the metric's bound;
  improved    B's median is better by more than A's own spread (quartile
              distance / median), over at least 10 paired runs of which B
              wins at least 9 in 10;
  unresolved  A's or B's spread exceeds the bound, so noise could hide a
              regression -- unless every B run beats every A run; or the
              medians differ by more than the bound, measured from either
              one, and B does not qualify as improved;
  unchanged   otherwise.

Throughput and latency carry no bound (BENCHMARK.json lists them among the
per-layer metrics); the untraced runs report them as details. Each of those
found in both sets is labelled improved, by the rule above, or unproven.

A workload whose B runs fail a larger share of their jobs, or fail a
correctness check, counts as regressed whatever its timings. Each cell shows
the label and the change of the median. One row per workload; exits 1 on
any regression.
"""

import argparse
import json
import os
import sys

# A gain needs at least ten paired runs (choosing-metrics section 8).
MIN_PAIRS = 10


def load_groups(path):
    with open(path) as f:
        summary = json.load(f)
    return {g["workload"]: g for g in summary["groups"] if g["trace"] == 0}


def failed_share(group):
    return group["failed"] / group["attempted"] if group["attempted"] else 0.0


def spread(metric):
    med = metric["median"]
    return (metric["q3"] - metric["q1"]) / abs(med) if med else 0.0


def change(a, b):
    return (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0


def improved(a, b, sign):
    """B beats A by more than A's spread, winning 9 in 10 of >= 10 pairs."""
    pairs = list(zip(a["samples"], b["samples"]))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    return (-sign * change(a, b) > spread(a) and len(pairs) >= MIN_PAIRS
            and wins >= 0.9 * len(pairs))


def label(a, b, better, bound):
    """Labels one metric of one workload; `a`, `b` are summary metrics."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = a["median"], b["median"]
    b_beats_all = all(sign * (y - x) < 0
                      for y in b["samples"] for x in a["samples"])
    if max(spread(a), spread(b)) > bound and not b_beats_all:
        return "unresolved"
    if sign * change(a, b) > bound:
        return "regressed"
    if improved(a, b, sign):
        return "improved"
    # The medians are further apart than the bound, measured from either
    # one, without the evidence for a gain: the sets do not agree, and with
    # A and B swapped the pair could read regressed.
    if abs(mb - ma) > bound * min(abs(ma), abs(mb)):
        return "unresolved"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    default_bench = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "..", "..", "BENCHMARK.json")
    parser.add_argument("--benchmark", default=default_bench)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    ga, gb = load_groups(args.a), load_groups(args.b)
    regressed = False
    for workload in sorted(set(ga) & set(gb)):
        a, b = ga[workload], gb[workload]
        cells = []
        if failed_share(b) > failed_share(a) or not b["correct"]:
            cells.append(f"failed_share:regressed({failed_share(b):.3f})")
            regressed = True
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            ma, mb = a["metrics"][name], b["metrics"][name]
            verdict = label(ma, mb, m["better"], m["bound"])
            regressed |= verdict == "regressed"
            cells.append(f"{name}:{verdict}({change(ma, mb):+.1%})")
        for m in bench["per_layer"]:
            name = m["name"]
            if name not in a["details"] or name not in b["details"]:
                continue
            ma, mb = a["details"][name], b["details"][name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            verdict = "improved" if improved(ma, mb, sign) else "unproven"
            cells.append(f"{name}:{verdict}({change(ma, mb):+.1%})")
        print(f"{workload:14s} " + " ".join(cells))
    missing = sorted(set(ga) ^ set(gb))
    if missing:
        print("only in one set: " + ", ".join(missing))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
