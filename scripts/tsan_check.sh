#!/usr/bin/env bash
# ThreadSanitizer gate for the shard-parallel runner.
#
# Builds the repo with -DDPAXOS_SANITIZE=thread and runs the targets
# that exercise real threads: shard_runner_test (pool mechanics +
# thread-count invariance), the sharded bench smoke, the MPSC queue and
# the chaos proxy, plus a few single-threaded targets kept instrumented.
# Any data race in the ShardSet claim loop, the counter fold-back, a
# shard body that leaks shared state or a cross-thread post fails the
# script.
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDPAXOS_SANITIZE=thread
cmake --build "$BUILD_DIR" \
    --target shard_runner_test bench_simperf mpsc_queue_test \
             chaos_proxy_test fast_path_test wal_test ownership_test \
             node_server_test transport_test smr_test txn_test crc32_test \
             -j"$(nproc)"

# halt_on_error so the first race fails the gate instead of scrolling by.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

"$BUILD_DIR/tests/shard_runner_test"
"$BUILD_DIR/bench/bench_simperf" --smoke --shards=4 --threads=4 \
    --out="$BUILD_DIR/BENCH_simperf_tsan_smoke.json"
# Multi-producer contention on the queue behind EventLoop::PostTask.
"$BUILD_DIR/tests/mpsc_queue_test"
# The one PostTask user that crosses threads: a test thread adds and
# removes fault rules and cuts links while the proxy's relay thread
# forwards frames through them.
"$BUILD_DIR/tests/chaos_proxy_test"
# Fast-path commits: vote and deferred-ack bookkeeping that retains
# callbacks across rounds (simulator-driven, single-threaded by design).
"$BUILD_DIR/tests/fast_path_test"
# Batched serving: pipelined client requests commit in shared slots,
# closed batches go out while others are in flight, and each batch's
# replies fan back out into shared buffers, all on the node's one loop
# thread; run instrumented so any thread a later change adds surfaces
# here.
"$BUILD_DIR/tests/node_server_test"
# The pieces of that path on their own: apply from payload views, the
# dedup window's in-order fast path, the field-level batch Add, and
# replies appended into one buffer.
"$BUILD_DIR/tests/smr_test" --gtest_filter='KvStateMachineTest.*'
"$BUILD_DIR/tests/txn_test" --gtest_filter='BatchBuilderTest.*'
"$BUILD_DIR/tests/crc32_test" --gtest_filter='FrozenBytesTest.*'
# Fan-out frame cache: the transport keeps the last message it encoded
# (and its frame) for the next peer; client replies share a staged
# buffer per connection. Loop-thread only by design; run instrumented so
# any thread a later change adds to Send or the reply path surfaces here.
"$BUILD_DIR/tests/transport_test" \
    --gtest_filter='TcpTransportTest.FanOutEncodesEachMessageOnce:TcpTransportTest.ClientRepliesKeepRequestOrderAndShareWrites'
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
