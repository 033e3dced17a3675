#!/usr/bin/env python3
"""Folds the per-run JSON files of bench/e2e/run.sh into one summary.

    summarize.py --out summary.json RUN.json [RUN.json ...]

For every (workload, traced or not) it keeps each metric's samples across
runs with their median and quartiles, checks that every run passed its
checks and that runs of one seed agree on the result fingerprint, prints
`workload metric median unit` lines, and prints as its last line one JSON
object with the medians: {"correct", "attempted", "failed", "metrics"}.
Exits 1 when any check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_sha(path):
    try:
        out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()

    groups = {}
    for path in args.runs:
        with open(path) as f:
            run = json.load(f)
        key = (run["workload"], run["trace"])
        groups.setdefault(key, []).append(run)

    correct = True
    attempted = failed = 0
    summary = {"git_sha": git_sha(os.path.dirname(os.path.abspath(__file__))),
               "groups": []}
    final_metrics = {}
    for (workload, trace), runs in sorted(groups.items()):
        group = {"workload": workload, "trace": trace, "runs": len(runs),
                 "seeds": sorted({r["seed"] for r in runs}),
                 "env": runs[0]["env"], "errors": [],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        attempted += group["attempted"]
        failed += group["failed"]
        for r in runs:
            if not r["correct"]:
                correct = False
                group["errors"] += r["errors"]
        # A zero fingerprint marks a workload whose results depend on timing
        # (serve-churn); every other workload must repeat bitwise per seed.
        by_seed = {}
        for r in runs:
            if r["result_fnv1a"] != "0" * 16:
                by_seed.setdefault(r["seed"], set()).add(r["result_fnv1a"])
        for s, fps in by_seed.items():
            if len(fps) != 1:
                correct = False
                group["errors"].append(
                    f"seed {s}: runs disagree on result_fnv1a {sorted(fps)}")
        group["result_fnv1a"] = {str(s): sorted(fps)[0]
                                 for s, fps in by_seed.items()}
        # "metrics" are the ones BENCHMARK.json names; "details" are
        # reported alongside (latency tails, sample counts, serve RTTs).
        for section in ("metrics", "details"):
            group[section] = {}
            for name, m in runs[0][section].items():
                values = [r[section][name]["value"] for r in runs
                          if name in r[section]]
                q1, q3 = quartiles(values)
                med = statistics.median(values)
                group[section][name] = {"unit": m["unit"], "median": med,
                                        "q1": q1, "q3": q3, "samples": values}
                print(f"{workload} {name} {med!r} {m['unit']}")
                if section == "metrics":
                    key = name if len(groups) == 1 else f"{workload}/{name}"
                    final_metrics[key] = {"value": med, "unit": m["unit"]}
        for s, fp in group["result_fnv1a"].items():
            print(f"{workload} result_fnv1a {fp} (seed {s})")
        group["correct"] = not group["errors"]
        summary["groups"].append(group)
        for e in group["errors"]:
            print(f"summarize: {workload}: {e}", file=sys.stderr)

    summary["correct"] = correct
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
