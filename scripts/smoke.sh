#!/usr/bin/env bash
# End-to-end smoke of the `sky` binary in BUILD_DIR, run by scripts/check.sh
# and by CI. Usage: scripts/smoke.sh <build-dir>
#
#  1. The train-once / serve-many flow: offline -> save -> load -> ingest as
#     separate processes.
#  2. The error contract: each failure class exits with ITS documented code
#     (3 I/O, 4 corrupt, 5 wrong workload) and writes nothing to stdout.
#  3. CLI hygiene: --help on stdout, usage errors (malformed numbers and
#     values the fit or the ingest run refuses included) exit 2.
#  4. `sky serve`: a live server multiplexes two concurrent client sessions
#     (metrics frame checked) from a model file deleted once the server is
#     up, since it reads the file only at start; the same pair is then
#     re-run under periodic checkpointing, killed -9 mid-run, recovered with
#     --recover, and finally drained by SIGTERM and recovered once more —
#     every recovered result must carry the uninterrupted run's bitwise
#     fingerprint.
set -euo pipefail
BUILD_DIR=${1:?usage: scripts/smoke.sh <build-dir>}
cd "${BUILD_DIR}"

SKY_SMOKE_MODEL=$(mktemp /tmp/sky_smoke_model.XXXXXX.bin)
SKY_SMOKE_CORRUPT=$(mktemp /tmp/sky_smoke_corrupt.XXXXXX.bin)
SKY_SERVE_DIR=$(mktemp -d /tmp/sky_serve_smoke.XXXXXX)
SKY_SERVE_PID=""
trap 'rm -f "${SKY_SMOKE_MODEL}" "${SKY_SMOKE_CORRUPT}"
      rm -rf "${SKY_SERVE_DIR}"
      [[ -n "${SKY_SERVE_PID}" ]] && kill -9 "${SKY_SERVE_PID}" 2>/dev/null
      true' EXIT

./sky offline --workload ev --out "${SKY_SMOKE_MODEL}" \
  --train-days 3 --plan-days 1 --categories 3
./sky inspect --model "${SKY_SMOKE_MODEL}"
./sky ingest --model "${SKY_SMOKE_MODEL}" --workload ev --duration-days 0.25

# expect_exit CODE cmd...: the command must fail with exactly CODE and keep
# stdout empty (failures are one stderr line, never partial output). With
# EXPECT_STDERR set, that line must also contain it.
expect_exit() {
  local want=$1; shift
  local got=0 out err="${SKY_SERVE_DIR}/expect_exit.stderr"
  out=$("$@" 2>"${err}") || got=$?
  if [[ ${got} -ne ${want} ]]; then
    echo "expected exit ${want} from: $*  (got ${got})" >&2
    exit 1
  fi
  if [[ -n "${out}" ]]; then
    echo "expected empty stdout from: $*  (got: ${out})" >&2
    exit 1
  fi
  if [[ -n "${EXPECT_STDERR:-}" ]] && ! grep -qF -- "${EXPECT_STDERR}" "${err}"; then
    echo "expected stderr naming ${EXPECT_STDERR} from: $*  (got: $(cat "${err}"))" >&2
    exit 1
  fi
}

# Missing model file -> I/O failure (3).
expect_exit 3 ./sky ingest --model /nonexistent/model.bin --workload ev \
  --duration-days 0.25
# Flipped bytes in the middle of the file -> corrupt model (4).
cp "${SKY_SMOKE_MODEL}" "${SKY_SMOKE_CORRUPT}"
printf '\xde\xad\xbe\xef' |
  dd of="${SKY_SMOKE_CORRUPT}" bs=1 seek=64 conv=notrunc status=none
expect_exit 4 ./sky ingest --model "${SKY_SMOKE_CORRUPT}" --workload ev \
  --duration-days 0.25
# A model trained for another workload must be refused (5).
expect_exit 5 ./sky ingest --model "${SKY_SMOKE_MODEL}" --workload covid \
  --duration-days 0.25
echo "sky CLI smoke test passed"

# CLI hygiene: every subcommand answers --help on stdout (exit 0); unknown
# flags, subcommands, client verbs and a missing required flag are usage
# errors (exit 2) that keep stdout empty.
for sub in offline ingest inspect serve client; do
  ./sky "${sub}" --help | grep -q "^usage: sky ${sub}" ||
    { echo "sky ${sub} --help did not print usage" >&2; exit 1; }
done
expect_exit 2 ./sky frobnicate
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --bogus-flag
expect_exit 2 ./sky client frobnicate --port 1
expect_exit 2 ./sky client open
expect_exit 2 ./sky client fetch --port 1
# Number flags parse strictly: trailing junk, a value that is not finite,
# a sign on a count, or an overflow is a usage error, not a silent 0.
expect_exit 2 ./sky client set-budget --port 1 --budget typo
expect_exit 2 ./sky client set-budget --port 1 --budget inf
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --duration-days 0.1x
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --cores 4abc
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --duration-days nan
expect_exit 2 ./sky client open --port 1 --content-seed -1
expect_exit 2 ./sky offline --categories 99999999999999999999999
expect_exit 2 ./sky serve --model "${SKY_SMOKE_MODEL}" --shared-budget 1e999
# A value the program would wrap is refused too: a buffer size whose byte
# count is negative or past 2^64, and a port outside [0, 65535].
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --buffer-gb -1
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --buffer-gb 1e12
expect_exit 2 ./sky serve --model "${SKY_SMOKE_MODEL}" --port 70000
expect_exit 2 ./sky client open --port 70000
# A value the offline fit or the ingest run refuses is a usage error too,
# not a corrupt model (4), and the fit prints nothing before it fails.
expect_exit 2 ./sky offline --workload ev --train-days 1 --categories 0 \
  --out "${SKY_SERVE_DIR}/refused.bin"
expect_exit 2 ./sky offline --workload ev --train-days 1 --plan-days 0 \
  --out "${SKY_SERVE_DIR}/refused.bin"
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --duration-days -1
# More offline threads than the bound its --help states is refused before
# any pool starts a thread.
EXPECT_STDERR=--threads expect_exit 2 ./sky offline --workload ev \
  --threads 100000000 --out "${SKY_SERVE_DIR}/refused.bin"
# A fit that asks for more memory than there is fails as a runtime error
# (exit 1, one "sky: out of memory" line), not an abort. The address space
# is capped at 4 GiB so the check holds the same on any machine.
EXPECT_STDERR="sky: out of memory" expect_exit 1 bash -c \
  'ulimit -v 4194304 && exec ./sky offline --workload ev \
     --segment-seconds 0.0000001 --train-days 1 --out "$0"' \
  "${SKY_SERVE_DIR}/refused.bin"
# A zero planning budget is refused by the CLI, naming the flag; with cloud
# credits the same core count runs.
EXPECT_STDERR=--cores expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" \
  --cores 0
./sky ingest --model "${SKY_SMOKE_MODEL}" --workload ev --duration-days 0.25 \
  --cores 0 --cloud-budget 5 >/dev/null
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --cloud-budget -5
expect_exit 2 ./sky ingest --model "${SKY_SMOKE_MODEL}" --start-days 1e300
# Left out, the start and the plan interval derive from the model; given,
# they must be a day, or the run exits 2 naming the flag instead of
# quietly taking the model's value. `sky client open` refuses them before
# it connects (no server listens on port 1).
EXPECT_STDERR=--plan-interval-days expect_exit 2 ./sky ingest \
  --model "${SKY_SMOKE_MODEL}" --plan-interval-days -3
EXPECT_STDERR=--plan-interval-days expect_exit 2 ./sky ingest \
  --model "${SKY_SMOKE_MODEL}" --plan-interval-days 0
EXPECT_STDERR=--start-days expect_exit 2 ./sky ingest \
  --model "${SKY_SMOKE_MODEL}" --start-days -5
EXPECT_STDERR=--start-days expect_exit 2 ./sky client open --port 1 \
  --start-days -1
EXPECT_STDERR=--plan-interval-days expect_exit 2 ./sky client open --port 1 \
  --plan-interval-days 0
# Each subcommand accepts only the flags its --help lists: another
# subcommand's flag is unknown here, not silently ignored.
for flag in "--port 5" "--categories 7" "--checkpoint-every 3"; do
  # shellcheck disable=SC2086  # the flag and its value are two words
  EXPECT_STDERR="${flag% *}" expect_exit 2 ./sky ingest \
    --model "${SKY_SMOKE_MODEL}" ${flag}
done
EXPECT_STDERR=--duration-days expect_exit 2 ./sky offline --workload ev \
  --out "${SKY_SERVE_DIR}/refused.bin" --duration-days 5
EXPECT_STDERR=--model expect_exit 2 ./sky offline --workload ev \
  --out "${SKY_SERVE_DIR}/refused.bin" --model foo
EXPECT_STDERR=--workload expect_exit 2 ./sky inspect \
  --model "${SKY_SMOKE_MODEL}" --workload ev
EXPECT_STDERR=--budget expect_exit 2 ./sky client fetch --port 1 --session 1 \
  --budget 3
echo "sky CLI hygiene smoke passed"

serve_wait_port() {  # serve_wait_port PORT_FILE -> echoes the bound port
  local pf=$1 i
  for i in $(seq 1 100); do
    [[ -s "${pf}" ]] && { cat "${pf}"; return 0; }
    sleep 0.1
  done
  echo "server never wrote ${pf}" >&2
  return 1
}

fingerprints() {  # fingerprints OUT FILES... -> sorted `result fnv1a` values
  local out=$1; shift
  grep -h 'result fnv1a' "$@" | awk '{print $NF}' | sort > "${out}"
  [[ -s "${out}" ]]
}

OPEN_FLAGS=(--workload ev --duration-days 2 --plan-interval-days 0.25
            --record-trace)

# Reference run: uninterrupted server, two genuinely concurrent clients. It
# serves from a copy of the model that is deleted as soon as the server is
# up: admission must reuse the model loaded at start.
cp "${SKY_SMOKE_MODEL}" "${SKY_SERVE_DIR}/ref_model.bin"
./sky serve --model "${SKY_SERVE_DIR}/ref_model.bin" \
  --port-file "${SKY_SERVE_DIR}/ref.port" --start-after 2 &
SKY_SERVE_PID=$!
PORT=$(serve_wait_port "${SKY_SERVE_DIR}/ref.port")
rm "${SKY_SERVE_DIR}/ref_model.bin"
./sky client open --port "${PORT}" --content-seed 11 "${OPEN_FLAGS[@]}" \
  --wait > "${SKY_SERVE_DIR}/ref1.txt" &
SKY_C1=$!
# Admission order assigns the stream slots, and the joint plan depends on
# them: admit seed 11 first, as the interrupted run below does.
for i in $(seq 1 100); do
  grep -q opened "${SKY_SERVE_DIR}/ref1.txt" && break
  sleep 0.1
done
./sky client open --port "${PORT}" --content-seed 22 "${OPEN_FLAGS[@]}" \
  --wait > "${SKY_SERVE_DIR}/ref2.txt" &
SKY_C2=$!
wait "${SKY_C1}" "${SKY_C2}"
./sky client metrics --port "${PORT}" |
  grep -q '"sessions_accepted": 2' ||
  { echo "serve metrics missing the session counters" >&2; exit 1; }
./sky client drain --port "${PORT}"
wait "${SKY_SERVE_PID}"
SKY_SERVE_PID=""
fingerprints "${SKY_SERVE_DIR}/ref_fps.txt" \
  "${SKY_SERVE_DIR}/ref1.txt" "${SKY_SERVE_DIR}/ref2.txt"

# Interrupted run: kill -9 once the first auto-checkpoint exists, recover.
./sky serve --model "${SKY_SMOKE_MODEL}" \
  --port-file "${SKY_SERVE_DIR}/int.port" --start-after 2 \
  --checkpoint "${SKY_SERVE_DIR}/serve_ckpt.bin" --checkpoint-every 1 &
SKY_SERVE_PID=$!
PORT=$(serve_wait_port "${SKY_SERVE_DIR}/int.port")
./sky client open --port "${PORT}" --content-seed 11 "${OPEN_FLAGS[@]}"
./sky client open --port "${PORT}" --content-seed 22 "${OPEN_FLAGS[@]}"
for i in $(seq 1 100); do
  [[ -s "${SKY_SERVE_DIR}/serve_ckpt.bin" ]] && break
  sleep 0.1
done
kill -9 "${SKY_SERVE_PID}"
wait "${SKY_SERVE_PID}" 2>/dev/null || true
SKY_SERVE_PID=""

./sky serve --model "${SKY_SMOKE_MODEL}" \
  --port-file "${SKY_SERVE_DIR}/rec.port" \
  --recover "${SKY_SERVE_DIR}/serve_ckpt.bin" \
  --checkpoint "${SKY_SERVE_DIR}/serve_ckpt.bin" &
SKY_SERVE_PID=$!
PORT=$(serve_wait_port "${SKY_SERVE_DIR}/rec.port")
./sky client fetch --port "${PORT}" --session 1 > "${SKY_SERVE_DIR}/rec1.txt"
./sky client fetch --port "${PORT}" --session 2 > "${SKY_SERVE_DIR}/rec2.txt"
fingerprints "${SKY_SERVE_DIR}/rec_fps.txt" \
  "${SKY_SERVE_DIR}/rec1.txt" "${SKY_SERVE_DIR}/rec2.txt"
diff "${SKY_SERVE_DIR}/ref_fps.txt" "${SKY_SERVE_DIR}/rec_fps.txt" ||
  { echo "kill -9 recovery diverged from the uninterrupted run" >&2
    exit 1; }

# SIGTERM drains gracefully (exit 0, final checkpoint); the finished
# sessions' results must survive one more recover cycle bitwise.
kill -TERM "${SKY_SERVE_PID}"
wait "${SKY_SERVE_PID}"
SKY_SERVE_PID=""
./sky serve --model "${SKY_SMOKE_MODEL}" \
  --port-file "${SKY_SERVE_DIR}/rec2.port" \
  --recover "${SKY_SERVE_DIR}/serve_ckpt.bin" &
SKY_SERVE_PID=$!
PORT=$(serve_wait_port "${SKY_SERVE_DIR}/rec2.port")
./sky client fetch --port "${PORT}" --session 1 > "${SKY_SERVE_DIR}/sig1.txt"
./sky client fetch --port "${PORT}" --session 2 > "${SKY_SERVE_DIR}/sig2.txt"
./sky client drain --port "${PORT}"
wait "${SKY_SERVE_PID}"
SKY_SERVE_PID=""
fingerprints "${SKY_SERVE_DIR}/sig_fps.txt" \
  "${SKY_SERVE_DIR}/sig1.txt" "${SKY_SERVE_DIR}/sig2.txt"
diff "${SKY_SERVE_DIR}/ref_fps.txt" "${SKY_SERVE_DIR}/sig_fps.txt" ||
  { echo "post-SIGTERM recovery diverged from the uninterrupted run" >&2
    exit 1; }
echo "sky serve smoke test passed (kill -9 + SIGTERM recovery bitwise)"
