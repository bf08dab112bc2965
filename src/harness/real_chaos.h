// End-to-end chaos for the real-network tier: a proxied multi-process
// cluster (RealCluster behind a ChaosProxy), a pool of retrying
// FailoverTcpClients recording a Jepsen-style history over the wall
// clock, a RealNemesis executing a declarative fault schedule, and the
// SAME Wing–Gong linearizability + session-guarantee checkers that
// judge the simulator tier (src/harness/lin_checker.h). Shared by
// tests/real_chaos_test.cc and `dpaxos_cli --experiment=realchaos`.
#ifndef DPAXOS_HARNESS_REAL_CHAOS_H_
#define DPAXOS_HARNESS_REAL_CHAOS_H_

#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/types.h"
#include "harness/lin_checker.h"
#include "net/tcp/chaos_proxy.h"
#include "quorum/quorum_system.h"

namespace dpaxos {

struct RealChaosOptions {
  /// Server binary to exec (tests pass DPAXOS_CLI_PATH; the CLI passes
  /// /proc/self/exe).
  std::string server_binary;
  ProtocolMode mode = ProtocolMode::kLeaderZone;
  /// RealNemesis schedule name (see RealNemesis::ScheduleNames()), or
  /// "none" for a fault-free soak over the proxied links.
  std::string schedule = "mixed";
  uint64_t seed = 1;

  uint32_t zones = 2;
  uint32_t nodes_per_zone = 2;

  /// Run the servers with --fast-path: follower origins drive the fast
  /// quorum directly and fall back to classic forwarding on conflict or
  /// timeout (docs/PROTOCOL.md §fast-path). The checkers judge the
  /// resulting history exactly as in classic runs. After the faulty
  /// phase a fast-path run forces one fallback whatever the schedule
  /// did: it SIGSTOPs the leader past the fast timeout while one more
  /// checked Put goes through a follower holding the fast grant.
  bool fast_path = false;

  uint32_t num_clients = 4;
  /// Key-pool size. Sized so no key collects more than ~63 ops: the
  /// per-key linearizability search is bitmask based and reports
  /// over-long histories as failures (RunRealChaos widens the pool
  /// automatically if duration/think_time would overflow it).
  uint32_t num_keys = 32;
  double read_fraction = 0.4;
  /// Mean think time between a client's completion and its next op.
  Duration think_time = 50 * kMillisecond;

  /// Faulty phase length (nemesis horizon and workload span).
  Duration duration = 10 * kSecond;
  /// Post-quiesce budget for converging the appliers.
  Duration settle = 30 * kSecond;

  /// Per-operation failover budget (FailoverTcpClient overall timeout).
  Duration op_timeout = 4 * kSecond;

  /// Sustained-load soak riding alongside the checked workload: an
  /// open-loop LoadGen (harness/load_gen.h) against the proxied
  /// endpoints for the whole faulty phase. 0 connections disables. Soak
  /// traffic uses its own key prefix ("soak") and client-id range, so it
  /// pressures the serving path without polluting the checked history.
  uint32_t soak_connections = 0;
  uint32_t soak_pipeline = 64;
  double soak_rate = 500;  ///< offered ops/s across soak connections

  /// Directory for per-node server logs; empty inherits stdio.
  std::string log_dir;

  /// Durable mode: run every node with an acceptor WAL under
  /// `<data_dir_base>/node<N>` and with --disk-faults, so disk nemesis
  /// ops (and the "disk" schedule's whole-cluster power loss) apply.
  /// Requires data_dir_base to be set.
  bool durable = false;
  std::string data_dir_base;
  /// WAL group-commit window (forwarded as --wal-commit-us).
  Duration wal_commit_delay = 0;

  /// Run every node with --ownership (partition ownership directory +
  /// placement sweep). Required by — and forced on for — the "mobility"
  /// schedule, which SIGKILLs the incumbent leader mid-run: with no
  /// failure detector in the harness, the stalled-partition rescue steal
  /// is what restores liveness, and the checkers then judge the history
  /// across the ownership transfer.
  bool ownership = false;
  /// Placement sweep cadence / post-transfer cooldown forwarded to the
  /// servers (--placement-sweep-ms / --steal-cooldown-ms).
  Duration placement_sweep = 500 * kMillisecond;
  Duration steal_cooldown = 5 * kSecond;
  /// Ownership runs only: fraction of the run after which every checked
  /// client "moves" — re-dials a zone-1 replica and declares zone 1 on
  /// its requests — giving the placement sweep a locality shift to act
  /// on. Sequenced after the mobility schedule's kill of node 0 (at
  /// 20%), the steal this provokes finds its incumbent already dead and
  /// must fall back to an ordinary takeover election. <= 0 disables.
  double client_move_frac = 0.30;
};

struct RealChaosReport {
  ConsistencyReport consistency;

  uint64_t ops_invoked = 0;
  uint64_t ops_committed = 0;
  uint64_t ops_failed = 0;
  uint64_t ops_indeterminate = 0;
  uint64_t client_failovers = 0;  ///< endpoint rotations, all clients
  Histogram latency;  ///< completed-op latency under fault (microseconds)

  ChaosProxyStats proxy;       ///< fault-injection totals
  uint64_t nemesis_actions = 0;
  uint64_t nemesis_partitions = 0;
  uint64_t nemesis_pauses = 0;
  uint64_t nemesis_kills = 0;
  uint64_t nemesis_restarts = 0;
  uint64_t nemesis_corrupt_bursts = 0;
  uint64_t nemesis_disk_faults = 0;
  uint64_t nemesis_power_losses = 0;
  std::vector<std::string> nemesis_log;

  /// WAL counters summed post-quiesce (durable runs only; restarted
  /// nodes reset theirs, so lower bounds — but recovery re-journals the
  /// recovered state, so nonzero proves the WAL path was live).
  uint64_t wal_fsyncs = 0;
  uint64_t wal_torn_tail_truncations = 0;

  /// Node-side TCP damage counters, summed post-quiesce (restarted
  /// nodes reset theirs, so these are lower bounds under kill
  /// schedules).
  uint64_t tcp_reconnects = 0;
  uint64_t tcp_dropped_frames = 0;
  uint64_t tcp_malformed_frames = 0;

  /// Fast-path counters summed post-quiesce (same lower-bound caveat as
  /// the tcp counters; zero unless fast_path was on).
  uint64_t fast_commits = 0;
  uint64_t fast_fallbacks = 0;

  /// Ownership/steal counters summed post-quiesce (zero unless
  /// ownership was on; same lower-bound caveat for killed nodes).
  uint64_t steals_attempted = 0;
  uint64_t steals_completed = 0;
  uint64_t steals_rejected = 0;
  uint64_t pingpongs_suppressed = 0;
  uint64_t placement_rescues = 0;
  uint64_t steals_won = 0;
  uint64_t ownership_records = 0;  ///< max over nodes (directory depth)

  /// Soak-driver results (zero when the soak was disabled).
  uint64_t soak_ops_ok = 0;
  uint64_t soak_ops_failed = 0;
  uint64_t soak_conn_errors = 0;
  double soak_achieved_ops = 0;
  double soak_p99_ms = 0;

  bool converged = false;  ///< all nodes reached one identical state
  std::string error;       ///< non-empty if the run aborted early

  bool ok() const {
    return error.empty() && consistency.ok() && converged;
  }
  std::string Summary() const;
};

/// Run one real-network chaos scenario end to end.
RealChaosReport RunRealChaos(const RealChaosOptions& options);

/// The BENCH_realnet.json "chaos" section for one run (a complete JSON
/// object value, no trailing newline).
std::string RealChaosSectionJson(const RealChaosOptions& options,
                                 const RealChaosReport& report);

/// Splice `"chaos": <section>` into an existing BENCH_realnet.json
/// document, replacing any previous chaos section. `existing` may be
/// empty or unparseable — the result is then a fresh document holding
/// only the chaos section. Pure string transform (unit-tested in
/// tier-1); callers own file IO.
std::string MergeChaosIntoBenchJson(const std::string& existing,
                                    const std::string& chaos_section);

}  // namespace dpaxos

#endif  // DPAXOS_HARNESS_REAL_CHAOS_H_
