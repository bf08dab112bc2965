#!/usr/bin/env bash
# gprof flat profiles of the benchmark's measured realnet cluster.
#
# Builds dpaxos_cli and the perfbench driver with -pg, linked statically,
# into their own build directory, then runs one perfbench workload with --server
# pointing at that dpaxos_cli and GMON_OUT_PREFIX set, so every server
# process writes gmon.out.<pid> when it exits. The driver starts 45
# clusters and measures the last one (perfbench/README.md, "Phases of a
# realnet run"), so the measured cluster's four nodes are the last four
# server pids, spawned in node order. The script prints each one's flat
# profile. It only runs the benchmark; nothing under perfbench/ changes.
#
# Usage: scripts/profile_realnet.sh <workload> [seconds] [build-dir]
#   workload   leader-put or edge-mixed
#   seconds    measured run length (default 25, the benchmark's)
#   build-dir  default build-gprof; profiles land in <build-dir>/profile
#
# Static linking puts libc and libstdc++ inside the profiled binary, so
# the flat profile covers malloc/free and the containers too, and time
# spent in the kernel lands on the syscall wrapper that entered it
# (sendmsg, recv, epoll_wait). Read the flat profile's self seconds and
# call counts, not the call graph, and remember -pg inflates call-heavy
# functions (docs/perf.md, "Profiling in this container").
set -euo pipefail

cd "$(dirname "$0")/.."
WORKLOAD="${1:-}"
RUN_SECONDS="${2:-25}"
BUILD_DIR="${3:-build-gprof}"
case "$WORKLOAD" in
  leader-put|edge-mixed) ;;
  *)
    echo "usage: scripts/profile_realnet.sh <leader-put|edge-mixed>" \
         "[seconds] [build-dir]" >&2
    exit 2
    ;;
esac

cmake -S perfbench -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target dpaxos_cli perfbench_driver >/dev/null

BUILD_ABS="$(cd "$BUILD_DIR" && pwd)"
SERVER="$BUILD_ABS/dpaxos_tools/dpaxos_cli"
PROFILE_DIR="$BUILD_ABS/profile"
rm -rf "$PROFILE_DIR"
mkdir -p "$PROFILE_DIR"

# The driver inherits GMON_OUT_PREFIX and passes it on to the servers.
# It is built with -pg too, so its own gmon file is set aside by pid.
GMON_OUT_PREFIX="$PROFILE_DIR/gmon.out" "$BUILD_ABS/perfbench_driver" \
    --workload="$WORKLOAD" --seed=1 --seconds="$RUN_SECONDS" --trace=0 \
    --server="$SERVER" --workdir="$PROFILE_DIR/run" \
    >"$PROFILE_DIR/driver.out" &
DRIVER_PID=$!
wait "$DRIVER_PID"
echo "# $(tail -n 1 "$PROFILE_DIR/driver.out")"

mapfile -t PIDS < <(ls "$PROFILE_DIR" | sed -n 's/^gmon\.out\.//p' |
                    grep -vx "$DRIVER_PID" | sort -n | tail -n 4)
if [ "${#PIDS[@]}" -ne 4 ]; then
  echo "profile_realnet: expected 4 server profiles, found ${#PIDS[@]}" >&2
  exit 1
fi
for i in "${!PIDS[@]}"; do
  FLAT="$PROFILE_DIR/flat-node$i.txt"
  gprof -b -p "$SERVER" "$PROFILE_DIR/gmon.out.${PIDS[$i]}" >"$FLAT"
  echo
  echo "=== node $i (pid ${PIDS[$i]}, full profile in $FLAT) ==="
  sed -n '1,25p' "$FLAT"
done
