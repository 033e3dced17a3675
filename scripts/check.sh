#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the test suite (which includes the
# session/StreamSet parity gates — session_test, stream_set_test, api_test —
# and the model-persistence round-trip/ingest-parity gates in
# model_io_test). CI's build-and-test job runs this default mode, and its
# asan and tsan jobs run --asan and --tsan, so each list lives here only.
#
# After the tests: scripts/smoke.sh (the `sky` CLI's train-once /
# serve-many flow, its exit-code and hygiene contract, and the `sky serve`
# kill -9 + SIGTERM recovery smoke), the end-to-end bench's smoke
# (bench/e2e/run.sh --smoke and --selftest, which build build-e2e/ against
# libsky's public API, so a deletion that breaks the benchmark's build
# fails here too), the docs link check, and the gating
# benches so the trajectory
# (BENCH_planner_scaling.json, BENCH_forecast_training.json,
# BENCH_appd_multistream.json, BENCH_table3_offline_runtime.json,
# BENCH_forecast_inference.json — kernel-tier GEMM gate —
# BENCH_fault_robustness.json — quality-under-faults and recovery parity
# gates — and BENCH_serve.json — serve-vs-in-process overhead gate) is
# refreshed on every local check; each exits non-zero when a perf or parity
# gate fails. All of them run, each one's exit status is printed, and the
# script exits non-zero at the end if any failed.
# `--tsan` instead runs only the concurrency suite (the tests labelled
# `tsan` in CMakeLists.txt: thread pool, StreamSet scheduler, fleet
# recovery, sessions, kernel-dispatch first use, content noise first use,
# the offline phase's pool, the clustering restarts that share it) under
# ThreadSanitizer in a separate build-tsan tree and skips the benches: it
# is a race detector pass, not a perf gate.
# `--props` runs only the randomized property suites (property_test,
# scenario_test) with a fresh SKY_PROP_SEED — a different slice of the
# instance space each run. The chosen seed is logged, written to
# build/PROPS_SEED.txt for artifact upload, and a one-line reproduce
# command is printed if the suite fails. `--props SEED` pins it.
# `--paper` runs every paper figure and table bench (bench/bench_fig*.cc and
# bench/bench_table6_forecast_features.cc) in the Release tree and compares
# the FNV-1a fingerprints they print, one per table, with the golden file
# bench/paper_fingerprints.txt: a paper number that moves, even below print
# precision, fails it. The fingerprints it got land in
# build/paper_fingerprints.txt; a change that means to move a paper number
# copies that file over the golden one and names each table it moved.
# `--asan` runs the FULL test suite under AddressSanitizer and
# UndefinedBehaviorSanitizer, with libstdc++'s container assertions on, in a
# separate build-asan tree (also bench-free): a memory-error pass over
# everything, including the fault-injection and crash-recovery suites, whose
# restore/replay paths are exactly where lifetime bugs would hide.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--tsan" ]]; then
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSKY_SANITIZE=thread -DSKY_BUILD_BENCHES=OFF -DSKY_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$(nproc)"
  cd build-tsan
  ctest --output-on-failure -L tsan -j "$(nproc)"
  echo "TSan concurrency suite passed"
  exit 0
fi

if [[ "${1:-}" == "--props" ]]; then
  # Seed precedence: explicit argument > SKY_PROP_SEED already in the
  # environment > a fresh draw. Logged up front and persisted so a CI
  # failure is reproducible from the artifact alone.
  SEED="${2:-${SKY_PROP_SEED:-$(( (RANDOM << 15) ^ RANDOM ^ $$ ))}}"
  echo "property suites: SKY_PROP_SEED=${SEED}"
  echo "reproduce: SKY_PROP_SEED=${SEED} scripts/check.sh --props ${SEED}"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$(nproc)"
  echo "${SEED}" > build/PROPS_SEED.txt
  cd build
  SKY_PROP_SEED="${SEED}" ctest --output-on-failure \
    -R "property_test|scenario_test" -j "$(nproc)" ||
    { echo "property suites FAILED; reproduce with:" >&2
      echo "  SKY_PROP_SEED=${SEED} scripts/check.sh --props ${SEED}" >&2
      exit 1; }
  echo "property suites passed (SKY_PROP_SEED=${SEED})"
  exit 0
fi

if [[ "${1:-}" == "--paper" ]]; then
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$(nproc)"
  golden=bench/paper_fingerprints.txt
  actual=build/paper_fingerprints.txt
  compiler="$(grep -m1 '^CMAKE_CXX_COMPILER:' build/CMakeCache.txt | cut -d= -f2)"
  start=${SECONDS}
  {
    echo "# Paper figure fingerprints: scripts/check.sh --paper"
    echo "# compiler: $("${compiler}" --version | head -1)"
    echo "# libc: $(getconf GNU_LIBC_VERSION)"
  } > "${actual}"
  failed=()
  for src in bench/bench_fig*.cc bench/bench_table6_forecast_features.cc; do
    bench="$(basename "${src}" .cc)"
    status=0
    out="$(cd build && "./${bench}")" || status=$?
    echo "${bench}: exit ${status}"
    [[ ${status} -eq 0 ]] || failed+=("${bench}")
    sed -n "s/^fingerprint /${bench} /p" <<< "${out}" >> "${actual}"
  done
  echo "paper benches took $(( SECONDS - start )) s"
  if (( ${#failed[@]} > 0 )); then
    echo "paper benches FAILED: ${failed[*]}" >&2
    exit 1
  fi
  if ! diff <(grep -v '^#' "${golden}") <(grep -v '^#' "${actual}"); then
    echo "paper fingerprints differ from ${golden} (recorded with:" >&2
    grep '^# [cl]' "${golden}" >&2
    echo "this run: see ${actual})" >&2
    exit 1
  fi
  echo "paper fingerprints match ${golden}"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSKY_SANITIZE=address,undefined -DSKY_BUILD_BENCHES=OFF \
    -DSKY_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$(nproc)"
  cd build-asan
  ctest --output-on-failure -j "$(nproc)"
  echo "ASan + UBSan full suite passed"
  exit 0
fi

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

scripts/smoke.sh build
bash bench/e2e/run.sh --smoke
bash bench/e2e/run.sh --selftest
scripts/check_md_links.sh
cd build

# Every gate bench runs even after one fails, so each verdict is known;
# each one's exit status is printed, and the script fails at the end if
# any of them did.
failed=()
for bench in bench_planner_scaling bench_forecast_training \
             bench_appd_multistream bench_table3_offline_runtime \
             bench_forecast_inference bench_fault_robustness bench_serve; do
  status=0
  "./${bench}" || status=$?
  echo "${bench}: exit ${status}"
  [[ ${status} -eq 0 ]] || failed+=("${bench}")
done
if (( ${#failed[@]} > 0 )); then
  echo "gate benches FAILED: ${failed[*]}" >&2
  exit 1
fi
