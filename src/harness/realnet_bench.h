// Realnet benchmark: drives a real multi-process cluster (RealCluster)
// through each protocol mode over loopback TCP. The measured phase runs
// the open-loop async LoadGen (pipelined connections, honest
// p50/p99/p999 from intended arrival times) against the leader; then the
// crash path is exercised with a blocking client (SIGKILL a follower,
// keep committing, restart it, verify it rejoins via snapshot transfer)
// and a clean SIGTERM shutdown. Results land in BENCH_realnet.json.
#ifndef DPAXOS_HARNESS_REALNET_BENCH_H_
#define DPAXOS_HARNESS_REALNET_BENCH_H_

#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "quorum/quorum_system.h"

namespace dpaxos {

struct RealnetBenchOptions {
  /// Server binary to exec (dpaxos_cli; the CLI passes /proc/self/exe).
  std::string server_binary;
  /// Client ops completed in the measured phase per mode.
  uint64_t requests = 10000;
  /// Additional puts committed while the killed node is down (blocking
  /// client, retried — this phase probes recovery, not throughput).
  uint64_t requests_while_down = 500;
  uint64_t seed = 1;
  std::vector<ProtocolMode> modes = {ProtocolMode::kLeaderZone,
                                     ProtocolMode::kDelegate,
                                     ProtocolMode::kMultiPaxos};
  /// Measured-phase driver shape (see harness/load_gen.h).
  uint32_t connections = 4;
  uint32_t pipeline = 256;
  /// Offered ops/s; 0 = closed loop at the pipeline depth.
  double rate = 0;
  /// Add the edge-write comparison cells: the same open-loop load aimed
  /// at a NON-leader node, once classic (forwarded to the leader) and
  /// once with --fast-path (origin drives the fast quorum directly).
  /// The pair is what shows the collapsed round trip in the JSON.
  bool fast_path_cells = true;
  /// Which node the edge cells target (must not be the leader hint and
  /// must survive the kill phase; the 2x2 cluster uses zone 1's first
  /// node).
  NodeId edge_node = 2;
  /// Add the durability cell: the first mode re-run with per-node
  /// acceptor WALs (every ack waits for a real fdatasync), so the JSON
  /// shows the fsync cost next to the volatile row. The killed node
  /// then restarts from its disk instead of empty.
  bool durable_cell = true;
  /// WAL directory base for the durable cell (node N gets
  /// `<base>/node<N>`); empty = a fresh temp dir per run.
  std::string data_dir_base;
  /// Group-commit window for the durable cell (--wal-commit-us).
  Duration wal_commit_delay = 0;
  /// Output path; empty skips the file.
  std::string json_path = "BENCH_realnet.json";
  /// Directory for per-node server logs; empty inherits stdio.
  std::string log_dir;
  /// Add the mobility pair: a 2x2 Leader Zone cluster behind a
  /// latency-shaping ChaosProxy (inter-zone links slow, intra-zone links
  /// fast), with a blocking client that starts in the leader's zone and
  /// then "moves" to the far zone. The static cell leaves the leader
  /// where it started; the adaptive cell runs --ownership, so the far
  /// zone's replica steals the partition via the protocol and commit
  /// latency falls back to near-local. The gate: adaptive post-migration
  /// p50 < 2x the intra-zone RTT.
  bool mobility = false;
  /// Ops per mobility phase (local / moved / post).
  uint64_t mobility_phase_ops = 150;
  /// One-way proxy latencies shaping the zone asymmetry.
  double mobility_inter_oneway_ms = 25.0;
  double mobility_intra_oneway_ms = 3.0;
  /// How long the adaptive moved phase waits for the protocol steal.
  Duration mobility_steal_wait = 60 * kSecond;
};

struct RealnetModeResult {
  ProtocolMode mode = ProtocolMode::kLeaderZone;
  /// Row label in the table/JSON: the mode name for the standard cells,
  /// "<mode>/edge-classic" or "<mode>/edge-fast" for the edge pair.
  std::string label;
  bool fast_path = false;       ///< servers ran with --fast-path
  NodeId target_node = 0;       ///< node the measured load was aimed at
  /// Client ops acknowledged OK in the measured (healthy-cluster) phase.
  /// Separate from any internal/recovery traffic by construction.
  uint64_t measured_ops = 0;
  uint64_t measured_ops_failed = 0;
  /// Blocking-client puts committed during the kill phase.
  uint64_t ops_while_down = 0;
  double elapsed_seconds = 0;
  double throughput_ops = 0;  ///< measured_ops / elapsed_seconds
  double offered_ops = 0;     ///< configured open-loop rate (0 = closed)
  Histogram latency;          ///< measured phase, intended-arrival based
  uint64_t snapshots_installed = 0;  ///< on the restarted node
  uint64_t restarted_watermark = 0;
  uint64_t leader_watermark = 0;
  uint64_t checksum_match = 0;  ///< 1 iff restarted node converged
  uint64_t tcp_reconnects = 0;  ///< summed over all nodes at mode end
  uint64_t tcp_frames_dropped = 0;
  uint64_t tcp_malformed_frames = 0;
  uint64_t tcp_bytes_out = 0;
  uint64_t tcp_writev_calls = 0;
  uint64_t tcp_frames_coalesced = 0;
  /// Fast-path protocol counters summed over all nodes at mode end
  /// (zero unless the cell ran with --fast-path).
  uint64_t fast_commits = 0;
  uint64_t fast_fallbacks = 0;
  /// Durability: whether this cell ran with acceptor WALs, and the WAL
  /// counters summed over all nodes at mode end (zero when volatile).
  bool durable = false;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
};

/// One phase of a mobility cell: a contiguous run of blocking puts from
/// one (zone, endpoint) vantage.
struct RealnetMobilityPhase {
  std::string name;  ///< "local", "moved", "post"
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
  Histogram latency;  ///< per-op wall time, OK replies only
};

/// One mobility cell (static baseline or adaptive ownership).
struct RealnetMobilityResult {
  bool adaptive = false;  ///< servers ran with --ownership
  std::string label;      ///< "mobility/static" or "mobility/adaptive"
  std::vector<RealnetMobilityPhase> phases;
  double inter_oneway_ms = 0;  ///< proxy-imposed inter-zone one-way
  double intra_rtt_ms = 0;     ///< 2x intra-zone one-way (the gate base)
  /// Adaptive: moved-phase seconds until the first completed protocol
  /// steal was observed (0 for the static cell).
  double migration_seconds = 0;
  // Placement + steal counters summed over all nodes at cell end.
  uint64_t steals_attempted = 0;
  uint64_t steals_completed = 0;
  uint64_t steals_rejected = 0;
  uint64_t pingpongs_suppressed = 0;
  uint64_t steal_requests_sent = 0;
  uint64_t steals_granted = 0;
  uint64_t steals_won = 0;
  uint64_t ownership_records = 0;  ///< max over nodes (directory depth)
  /// Redirect hints followed by the post-steal straggler client that
  /// still dialed the old leader's zone.
  uint64_t redirects_followed = 0;
  /// Adaptive: post-migration p50 < 2x intra-zone RTT. Static cells
  /// carry no gate and report true.
  bool gate_pass = true;
};

struct RealnetBenchReport {
  std::vector<RealnetModeResult> results;
  std::vector<RealnetMobilityResult> mobility;
  bool clean_shutdown = true;
};

/// Run the full benchmark. Returns the report, or the first hard error
/// (a mode that cannot start, a node that cannot rejoin, ...).
Result<RealnetBenchReport> RunRealnetBench(const RealnetBenchOptions& options);

/// Serialize a report to the BENCH_realnet.json schema.
std::string RealnetReportToJson(const RealnetBenchOptions& options,
                                const RealnetBenchReport& report);

}  // namespace dpaxos

#endif  // DPAXOS_HARNESS_REALNET_BENCH_H_
