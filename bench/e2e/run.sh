#!/usr/bin/env bash
# End-to-end ingest benchmark: configures and builds build-e2e/ (Release)
# from this checkout, runs reps x workloads as separate processes, writes
# build-e2e/results/summary.json, prints `workload metric value unit` lines
# and, last, one JSON object with the medians. Exits non-zero when any
# correctness check fails.
#
#   bench/e2e/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--reps R] [--trace 0|1] [--smoke] [--selftest]
#
# Workloads: single-covid fleet-steady fleet-replan serve-churn (default all).
# --seconds is the measured window of one run; --smoke runs 1/20-size
# inputs once each; --selftest checks seed determinism.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
results="$build/results"

workloads="single-covid fleet-steady fleet-replan serve-churn"
selected="all"
seed=1
seconds=20
reps=1
trace=0
smoke=0
selftest=0

usage() {
  sed -n '2,14p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) selected="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --reps) reps="${2:?--reps needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --selftest) selftest=1; shift ;;
    -h|--help) usage ;;
    *) echo "run.sh: unknown argument $1" >&2; usage ;;
  esac
done
case "$trace" in
  0|1) ;;
  *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac
if [ "$selected" != "all" ]; then
  case " $workloads " in
    *" $selected "*) workloads="$selected" ;;
    *) echo "run.sh: unknown workload $selected" >&2; exit 2 ;;
  esac
fi

# Build. Everything goes to a log so stdout stays the result stream.
mkdir -p "$results"
log="$build/build.log"
if [ ! -f "$build/CMakeCache.txt" ]; then
  if ! cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
    tail -n 20 "$log" >&2
    echo "run.sh: configure failed (see $log)" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" --target sky_e2e -j "$(nproc)" >>"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (see $log)" >&2
  exit 1
fi
bin="$build/sky_e2e"

if [ "$selftest" = 1 ]; then
  exec "$bin" --selftest --seed "$seed" --out-dir "$results"
fi

# Runs. Each (rep, workload) is its own process; the workload order rotates
# from rep to rep so no workload always runs first.
read -r -a order <<<"$workloads"
files=()
status=0
for ((rep = 1; rep <= reps; rep++)); do
  n=${#order[@]}
  for ((k = 0; k < n; k++)); do
    w="${order[$(((k + rep - 1) % n))]}"
    stem="$results/$w.seed$seed.trace$trace.rep$rep"
    args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
          --json "$stem.json" --out-dir "$results")
    [ "$smoke" = 1 ] && args+=(--smoke)
    rm -f "$stem.json"
    if ! "$bin" "${args[@]}" >"$stem.log"; then
      echo "run.sh: $w rep $rep failed a check (see $stem.log)" >&2
      status=1
    fi
    if [ -f "$stem.json" ]; then
      files+=("$stem.json")
    else
      echo "run.sh: $w rep $rep wrote no result" >&2
      status=1
    fi
  done
done

if [ ${#files[@]} -gt 0 ]; then
  python3 "$here/summarize.py" --out "$results/summary.json" "${files[@]}" ||
    status=1
fi
exit "$status"
