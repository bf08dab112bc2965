#!/usr/bin/env bash
# ThreadSanitizer gate for the shard-parallel runner.
#
# Builds the repo with -DDPAXOS_SANITIZE=thread and runs the two targets
# that exercise real worker threads: shard_runner_test (pool mechanics +
# thread-count invariance) and the sharded bench smoke. Any data race in
# the ShardSet claim loop, the counter fold-back, or a shard body that
# leaks shared state fails the script.
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDPAXOS_SANITIZE=thread
cmake --build "$BUILD_DIR" \
    --target shard_runner_test bench_simperf mpsc_queue_test \
             transport_test fast_path_test wal_test ownership_test \
             node_server_test -j"$(nproc)"

# halt_on_error so the first race fails the gate instead of scrolling by.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

"$BUILD_DIR/tests/shard_runner_test"
"$BUILD_DIR/bench/bench_simperf" --smoke --shards=4 --threads=4 \
    --out="$BUILD_DIR/BENCH_simperf_tsan_smoke.json"
# Multi-producer contention on the queue behind EventLoop::PostTask —
# the reactor pool's inbound handoff rides entirely on its ordering.
"$BUILD_DIR/tests/mpsc_queue_test"
# Reactor threads vs the main loop: the end-of-round reply flush races
# enqueue against the coalescing flush, and fast-path message fan-in
# lands on the pool's handoff queue from every reactor at once.
"$BUILD_DIR/tests/transport_test" --gtest_filter='*ReactorPool*'
"$BUILD_DIR/tests/fast_path_test"
# Batched serving: a reactor thread posts pipelined client requests to
# the home loop while it commits them in shared slots and fans each
# batch's replies back out through the pool.
"$BUILD_DIR/tests/node_server_test"
# WAL group commit: SyncThen callbacks scheduled through the event loop
# vs the append path — single-threaded by design, but the death test and
# simulator-driven batch release must stay clean under instrumentation.
"$BUILD_DIR/tests/wal_test"
# Ownership steals: the placement counters ride ThreadPerfCounters
# (thread-local by design) and the steal path retains callbacks across
# election + commit — run it instrumented so any future threading of
# the store surfaces immediately.
"$BUILD_DIR/tests/ownership_test" --gtest_filter='ProtocolStealTest.*:OwnershipStoreTest.*'

echo "tsan_check: PASS (no data races reported)"
