#!/usr/bin/env bash
# Realnet perf smoke: one `dpaxos_cli --experiment=realnet` pass with the
# open-loop async driver against a real cluster, gated on two
# regressions the unit lane can't see:
#
#   1. a throughput floor (ops/s per mode) — catches the serving path
#      collapsing to request-at-a-time behavior, while staying far below
#      any real host's capacity so CI core count doesn't flake it;
#   2. frames_coalesced > 0 — catches the writev gather path silently
#      degenerating into one syscall per frame.
#
# The absolute before/after numbers live in docs/perf.md; this script
# only defends the floor.
#
# Usage: scripts/realnet_perf_smoke.sh [requests-per-mode]  (default: 3000)
# Env:   DPAXOS_CLI     path to dpaxos_cli (default: build/tools/dpaxos_cli)
#        MIN_OPS        throughput floor in ops/s (default: 2000)
#        SMOKE_OUT_DIR  where BENCH_realnet.json and node logs go
#                       (default: a fresh temp dir, removed on success)
set -euo pipefail

cd "$(dirname "$0")/.."
REQUESTS="${1:-3000}"
CLI="${DPAXOS_CLI:-build/tools/dpaxos_cli}"
MIN_OPS="${MIN_OPS:-2000}"

if [[ ! -x "$CLI" ]]; then
  echo "realnet_perf_smoke: $CLI not found or not executable" >&2
  echo "build it first: cmake --build build --target dpaxos_cli" >&2
  exit 1
fi

CLEANUP_OUT=""
if [[ -z "${SMOKE_OUT_DIR:-}" ]]; then
  SMOKE_OUT_DIR="$(mktemp -d /tmp/dpaxos_perf.XXXXXX)"
  CLEANUP_OUT="$SMOKE_OUT_DIR"
fi
mkdir -p "$SMOKE_OUT_DIR"
OUT_JSON="$SMOKE_OUT_DIR/BENCH_realnet.json"

echo "realnet_perf_smoke: $REQUESTS ops/mode, floor ${MIN_OPS} ops/s," \
     "logs in $SMOKE_OUT_DIR"
LOG="$SMOKE_OUT_DIR/realnet.out"
"$CLI" --experiment=realnet \
  --requests="$REQUESTS" \
  --connections=2 \
  --pipeline=64 \
  --seed=7 \
  --logdir="$SMOKE_OUT_DIR" \
  --out="$OUT_JSON" | tee "$LOG"

# Gate 1: every mode's measured throughput clears the floor.
awk -v floor="$MIN_OPS" '
  /"throughput_ops":/ {
    v = $0; sub(/.*"throughput_ops": /, "", v); sub(/,.*/, "", v)
    ++modes
    if (v + 0 < floor) { bad = 1
      printf "realnet_perf_smoke: FAIL (throughput %.1f < floor %d)\n",
             v, floor > "/dev/stderr" }
  }
  END { if (modes == 0) { print "realnet_perf_smoke: FAIL (no modes in json)" \
          > "/dev/stderr"; exit 1 }
        exit bad }
' "$OUT_JSON"

# Gate 2: the gather-write path coalesced frames in every mode.
awk '
  /"frames_coalesced":/ {
    v = $0; sub(/.*"frames_coalesced": /, "", v); sub(/[,}].*/, "", v)
    ++modes
    if (v + 0 <= 0) { bad = 1
      print "realnet_perf_smoke: FAIL (frames_coalesced == 0)" \
        > "/dev/stderr" }
  }
  END { if (modes == 0) { print "realnet_perf_smoke: FAIL (no tcp stats)" \
          > "/dev/stderr"; exit 1 }
        exit bad }
' "$OUT_JSON"

grep -q '"hardware_threads":' "$OUT_JSON" || {
  echo "realnet_perf_smoke: FAIL (no hardware_threads in $OUT_JSON)" >&2
  exit 1
}

echo "realnet_perf_smoke: PASS"
if [[ -n "$CLEANUP_OUT" ]]; then rm -rf "$CLEANUP_OUT"; fi
