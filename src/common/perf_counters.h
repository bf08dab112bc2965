// Cheap, always-on performance counters for the simulation hot path.
//
// Every counter is a plain uint64_t increment on a THREAD-LOCAL instance
// (each simulation shard runs confined to one thread; see
// src/sim/shard_runner.h), so instrumentation costs one add per event —
// no atomics, no false sharing, cheap enough to keep enabled in every
// build. The counters answer two questions:
//   1. How much work did a run do? (events, messages, bytes — the
//      numerator of every events/sec benchmark, see bench/bench_simperf)
//   2. Is the steady-state path allocation-free? (slab_growths,
//      callable_heap_allocs and delivery_pool_growths must stay flat
//      across a warm window — asserted by tests/perf_counters_test.cc)
//
// Threading model: a Simulator and everything attached to it (transport,
// replicas, stores) must be driven from ONE thread at a time; that
// thread's counters record the work. The ShardSet runner snapshots the
// worker thread's counters around each shard and folds the per-shard
// deltas back into the launching thread IN SHARD-ID ORDER, so aggregate
// numbers are a pure function of the workload — bit-identical regardless
// of how many worker threads carried it.
//
// Counters accumulate across simulators; measure deltas with Snapshot().
#ifndef DPAXOS_COMMON_PERF_COUNTERS_H_
#define DPAXOS_COMMON_PERF_COUNTERS_H_

#include <cstdint>
#include <string>

namespace dpaxos {

/// Every counter field, for generated fieldwise operations (DeltaSince,
/// Add). Keep in sync with the member declarations below.
#define DPAXOS_PERF_COUNTER_FIELDS(X) \
  X(events_scheduled)                 \
  X(events_executed)                  \
  X(events_cancelled)                 \
  X(stale_cancels)                    \
  X(heap_pushes)                      \
  X(heap_pops)                        \
  X(slab_growths)                     \
  X(callable_heap_allocs)             \
  X(messages_sent)                    \
  X(messages_delivered)               \
  X(bytes_sent)                       \
  X(deliveries_coalesced)             \
  X(delivery_pool_growths)            \
  X(wire_encodes)                     \
  X(wire_encode_bytes)                \
  X(wire_decodes)                     \
  X(store_steals)                     \
  X(store_partition_migrations)       \
  X(store_snapshot_transfers)         \
  X(store_snapshot_bytes)             \
  X(placement_steals_attempted)       \
  X(placement_steals_completed)       \
  X(placement_steals_rejected)        \
  X(placement_pingpongs_suppressed)   \
  X(tcp_bytes_in)                     \
  X(tcp_bytes_out)                    \
  X(tcp_frames_in)                    \
  X(tcp_frames_out)                   \
  X(tcp_frames_dropped)               \
  X(tcp_reconnects)                   \
  X(tcp_accepts)                      \
  X(tcp_malformed_frames)             \
  X(tcp_writev_calls)                 \
  X(tcp_frames_coalesced)             \
  X(wal_appends)                      \
  X(wal_bytes)                        \
  X(wal_fsyncs)                       \
  X(wal_torn_tail_truncations)        \
  X(wal_sync_failures)

/// \brief Per-thread hot-path counters (see ThreadPerfCounters()).
struct PerfCounters {
  // --- simulation kernel (src/sim/simulator.*) -----------------------
  uint64_t events_scheduled = 0;
  uint64_t events_executed = 0;
  uint64_t events_cancelled = 0;  ///< live events removed by Cancel()
  uint64_t stale_cancels = 0;     ///< Cancel() of an already-fired handle
  uint64_t heap_pushes = 0;
  uint64_t heap_pops = 0;
  /// Event-slab slots taken from fresh memory instead of the free list.
  /// Flat across a warm window == the kernel runs allocation-free; zero
  /// over a whole run == the workload hint (Simulator::Reserve) covered
  /// the peak event population.
  uint64_t slab_growths = 0;
  /// Closures too large for the EventFn inline buffer (heap fallback).
  uint64_t callable_heap_allocs = 0;

  // --- transport (src/net/transport.*) -------------------------------
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t bytes_sent = 0;
  /// Same-tick deliveries folded into an already-scheduled drain.
  uint64_t deliveries_coalesced = 0;
  /// Delivery batches taken from fresh memory instead of the pool.
  uint64_t delivery_pool_growths = 0;

  // --- wire codec (src/paxos/wire.*) ----------------------------------
  uint64_t wire_encodes = 0;
  uint64_t wire_encode_bytes = 0;
  uint64_t wire_decodes = 0;

  // --- sharded store (src/directory/sharded_store.*) -------------------
  /// Successful WPaxos-style steal elections (includes first claims).
  uint64_t store_steals = 0;
  /// Steals that moved a partition away from an existing leader in a
  /// different zone — true placement migrations.
  uint64_t store_partition_migrations = 0;
  /// Handovers that shipped a checksummed snapshot instead of paging the
  /// incumbent's full decided log, and the chunk payload bytes moved.
  uint64_t store_snapshot_transfers = 0;
  uint64_t store_snapshot_bytes = 0;

  // --- placement control loop (src/placement/*, docs/PROTOCOL.md
  // §ownership) ---------------------------------------------------------
  /// Protocol-level ownership steals the placement layer initiated.
  uint64_t placement_steals_attempted = 0;
  /// Steals whose takeover election committed a transfer record.
  uint64_t placement_steals_completed = 0;
  /// Steals the incumbent refused (busy, fast grant outstanding, not
  /// leader). Timeouts are not rejections — they fall back to election.
  uint64_t placement_steals_rejected = 0;
  /// Advisor-recommended moves suppressed by the post-steal cooldown
  /// (anti-ping-pong; hysteresis handles steady 50/50 splits, the
  /// cooldown handles alternating bursts).
  uint64_t placement_pingpongs_suppressed = 0;

  // --- real-network transport (src/net/tcp/*) --------------------------
  uint64_t tcp_bytes_in = 0;   ///< frame bytes read off sockets
  uint64_t tcp_bytes_out = 0;  ///< frame bytes written to sockets
  uint64_t tcp_frames_in = 0;
  uint64_t tcp_frames_out = 0;
  /// Sends discarded by drop-oldest outbound-queue overflow or because
  /// the peer connection died with frames still queued (both are within
  /// the Transport::Send may-drop contract).
  uint64_t tcp_frames_dropped = 0;
  uint64_t tcp_reconnects = 0;  ///< outbound connection (re)establishments
  uint64_t tcp_accepts = 0;
  /// Inbound protocol violations (oversized/zero-length/undecodable
  /// frames); each one closes its connection.
  uint64_t tcp_malformed_frames = 0;
  /// Gather-write syscalls (sendmsg with an iovec batch). The ratio
  /// tcp_frames_out / tcp_writev_calls is the frames-per-syscall metric
  /// the realnet bench tracks.
  uint64_t tcp_writev_calls = 0;
  /// Frames that shared a gather-write syscall with at least one other
  /// frame (counted as batch_size - 1 per syscall, mirroring the sim
  /// transport's deliveries_coalesced).
  uint64_t tcp_frames_coalesced = 0;

  // --- acceptor write-ahead log (src/storage/wal.*) --------------------
  // Mirrored from WalStats by the NodeServer stats sweep so WAL activity
  // shows up alongside the tcp counters in --serve stats.
  uint64_t wal_appends = 0;  ///< logical records journaled
  uint64_t wal_bytes = 0;    ///< framed bytes appended
  uint64_t wal_fsyncs = 0;   ///< fdatasync calls (group commits)
  uint64_t wal_torn_tail_truncations = 0;  ///< torn tails repaired at open
  uint64_t wal_sync_failures = 0;          ///< failed appends/fsyncs

  /// Counter-wise difference (this - since); used for warm-window deltas.
  PerfCounters DeltaSince(const PerfCounters& since) const {
    PerfCounters d;
#define DPAXOS_PERF_DELTA(field) d.field = field - since.field;
    DPAXOS_PERF_COUNTER_FIELDS(DPAXOS_PERF_DELTA)
#undef DPAXOS_PERF_DELTA
    return d;
  }

  /// Counter-wise accumulation; used to fold per-shard deltas into an
  /// aggregate (always in shard-id order, so reports are deterministic).
  void Add(const PerfCounters& other) {
#define DPAXOS_PERF_ADD(field) field += other.field;
    DPAXOS_PERF_COUNTER_FIELDS(DPAXOS_PERF_ADD)
#undef DPAXOS_PERF_ADD
  }

  /// Multi-line human-readable dump (benches print this after a run).
  std::string ToString() const;
};

/// The calling thread's counter instance. All simulators, transports and
/// codecs driven by this thread increment the same counters; callers
/// measure intervals by snapshotting before/after. Worker threads (shard
/// runners) start from zero; their deltas are folded back into the
/// launching thread by ShardSet::Run.
inline PerfCounters& ThreadPerfCounters() {
  thread_local PerfCounters counters;
  return counters;
}

/// Copy of the calling thread's current counter values (for DeltaSince).
inline PerfCounters SnapshotPerfCounters() { return ThreadPerfCounters(); }

}  // namespace dpaxos

#endif  // DPAXOS_COMMON_PERF_COUNTERS_H_
