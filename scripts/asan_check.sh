#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer gate for the byte paths.
#
# Builds the repo with -DDPAXOS_SANITIZE=address,undefined (both abort on
# their first report: -fno-sanitize-recover) and runs the targets that
# shuffle raw bytes around: the CRC-32 equivalence and frozen-bytes
# cells (the sliced loop reads unaligned words and the folded loop
# unaligned 16-byte blocks; a direct misaligned load fails here), the
# envelope unit tests, the wire codec fuzzers (one specimen of every
# message type under hostile length prefixes, splices and bit flips;
# every decoder is generated from the field layouts in
# paxos/wire_layout.h), the catch-up/snapshot-transfer
# integration tests, and the chaos recovery cells (chunk reassembly +
# install under crashes). Any heap overflow, use-after-free in the
# reassembly buffer, OOB read in the decoder or misaligned access fails
# the script.
#
# Usage: scripts/asan_check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DDPAXOS_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" \
    --target crc32_test smr_test txn_test snapshot_test wire_fuzz_test wire_test \
             catchup_test restart_test chaos_test soak_test fast_path_test \
             chaos_proxy_test real_chaos_test mpsc_queue_test \
             transport_test wal_test ownership_test mobility_test \
             node_server_test dpaxos_cli -j"$(nproc)"

# abort_on_error so the first report fails the gate instead of running on
# poisoned state; detect_leaks covers the long-lived harness allocations.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"

# CRC-32: every length and alignment of the folded loop (on x86-64 with
# PCLMULQDQ: unaligned 16-byte loads, the sliced loop on the tail) and of
# the sliced loop alone, plus the frame and WAL bytes they checksum.
"$BUILD_DIR/tests/crc32_test"
# In-order apply hands the state machine the caller's payload (no copy),
# which it applies through views into that payload after parsing it
# whole (truncated at every length); snapshot serialization walks the
# key index, pointers into the live map that every restore rebuilds
# (the random-steps cell installs images between Puts).
"$BUILD_DIR/tests/smr_test" --gtest_filter='LogApplierTest.*:KvStateMachineTest.*'
# The field-level batch Add encodes request views straight into the batch.
"$BUILD_DIR/tests/txn_test" --gtest_filter='BatchBuilderTest.*'
"$BUILD_DIR/tests/snapshot_test"
# The codec runs each message's layout both ways: the specimens of all
# 35 types, every truncation, flip and splice of them, and every tag
# byte outside the message list.
"$BUILD_DIR/tests/wire_fuzz_test"
"$BUILD_DIR/tests/wire_test"
"$BUILD_DIR/tests/catchup_test"
"$BUILD_DIR/tests/restart_test"
"$BUILD_DIR/tests/chaos_test" --gtest_filter='*Recovery*:*FastPath*'
"$BUILD_DIR/tests/soak_test" --gtest_filter='*Compaction*'
# Fast-path commits: vote tracking moves Values between the attempt,
# slot-tracker, and deferred-ack maps (move-heavy, callback-retaining),
# and elections adopt fast entries out of promise vectors.
"$BUILD_DIR/tests/fast_path_test"
# Realnet chaos path: the fault-injecting proxy shuffles and corrupts
# raw frame bytes (prime OOB territory), and the failover client's
# SIGSTOP rotation exercises partial-read teardown.
"$BUILD_DIR/tests/chaos_proxy_test"
"$BUILD_DIR/tests/real_chaos_test" --gtest_filter='*Failover*'
# Serving-path plumbing: the MPSC queue behind PostTask (node lifetime
# across producer/consumer threads) and the writev gather path (iovec
# construction over the outbound buffer deque, partial-write walks) for
# peer frames and client replies framed into shared buffers, request
# views of the decoder's buffer, and the frame cache a fanned-out
# message shares across peers.
"$BUILD_DIR/tests/mpsc_queue_test"
"$BUILD_DIR/tests/transport_test" --gtest_filter='TcpTransportTest.*'
# Batched serving: waiters move from the open batch into the commit
# callback and on to the read poll, an inline submit failure runs the
# callback inside the submit loop, and hundreds of pipelined batches are
# in flight at once.
"$BUILD_DIR/tests/node_server_test"
# WAL + fault-injecting Env: recovery parses raw frame bytes off disk
# through the same field layouts as the wire (torn tails, flipped bits —
# classic OOB territory; the hostile-count cell hands it a checksummed
# intent count no record can hold), the group-commit path retains reply
# callbacks across fsyncs, and the truncation/bit-flip sweeps re-open
# the log hundreds of times.
"$BUILD_DIR/tests/wal_test"
# Ownership steal path: the transfer-record codec parses hostile
# tagged values, the StealRequest/OwnershipGrant exchange moves Values
# between steal state and the commit pipeline (callback-retaining), and
# the crash-mid-steal fallback tears down a half-armed exchange.
"$BUILD_DIR/tests/ownership_test"
"$BUILD_DIR/tests/mobility_test"

echo "asan_check: PASS (no memory errors or undefined behavior reported)"
