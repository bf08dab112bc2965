// NodeServer: one DPaxos replica hosted in one real OS process.
//
// Composition (the real-network mirror of harness/Cluster, minus the
// simulator): EventLoop (real clock) + TcpTransport (real sockets) +
// NodeHost/Replica (partition 0) + KvStateMachine behind a LogApplier,
// with the same snapshot hooks and (client_id, seq) exactly-once dedup
// the chaos harness wires in the simulator tier. The process runs one
// thread: every socket, client or peer, is served on the replica's loop.
//
// Lifecycle:
//   NodeServer server(options);
//   server.Start();                  // bind, wire, schedule catch-up
//   server.InstallSignalHandlers();  // SIGTERM/SIGINT -> graceful stop
//   server.Run();                    // blocks until Shutdown()/signal
//
// A (re)started server assumes nothing survived: storage is in-memory,
// so Start() schedules CatchUpViaSnapshot from its peers — over real
// sockets — which is exactly how a killed-and-restarted process rejoins
// (tests/real_cluster_test.cc proves the full cycle).
//
// Client Puts and Gets are batched: every request joins the open batch
// until a later one has to start a new batch behind it; the closed
// batch then goes out at once, and the open batch waits until nothing is
// in flight (self-clocked). Up to kCatchUpPageSize batches are in flight,
// and the replica's window is set to match. An idle node proposes a
// batch of one at once.
#ifndef DPAXOS_HARNESS_NODE_SERVER_H_
#define DPAXOS_HARNESS_NODE_SERVER_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/tcp/event_loop.h"
#include "net/tcp/tcp_transport.h"
#include "net/topology.h"
#include "paxos/node_host.h"
#include "paxos/replica.h"
#include "placement/ownership.h"
#include "placement/placement.h"
#include "quorum/quorum_system.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "txn/batch.h"

namespace dpaxos {

struct NodeServerOptions {
  NodeId node = 0;
  /// cluster[n] = node n's listen endpoint; size = cluster size.
  std::vector<HostPort> cluster;
  uint32_t zones = 1;
  ProtocolMode mode = ProtocolMode::kMultiPaxos;
  FaultTolerance ft{0, 0};
  uint64_t seed = 1;
  /// Where SubmitOrForward routes client writes before any protocol
  /// traffic reveals a leader. kInvalidNode = no hint (first write
  /// triggers self-election via auto_elect_on_submit).
  NodeId leader_hint = kInvalidNode;
  /// decide_policy is forced to kAll (full SMR) and max_inflight to
  /// kCatchUpPageSize (the serving window, see the top of this file).
  ReplicaConfig replica;
  TcpTransportOptions tcp;
  /// Pull state from peers shortly after start (snapshot-first).
  bool catchup_on_start = true;
  Duration catchup_delay = 300 * kMillisecond;
  /// Periodic Compact() sweep; 0 disables. Requires
  /// replica.enable_compaction, which on its own also compacts whenever
  /// the payload decided since the last compaction outgrows the last
  /// snapshot (the sweep covers nodes that go idle).
  Duration compaction_interval = 0;
  /// Anti-entropy: when the applied watermark makes no progress across
  /// one interval, pull decided entries from a peer (rotating). This is
  /// what heals log holes torn by dropped decide traffic — without it a
  /// follower that lost frames during a partition stays wedged forever
  /// once the fault clears. 0 disables.
  Duration anti_entropy_interval = 1 * kSecond;
  /// WAL mode (real durability, storage/wal.h): non-empty = open an
  /// acceptor write-ahead log in this directory. Every promise/accept/
  /// fast-vote reply then waits for the group-commit fdatasync, and a
  /// restarted process recovers its acceptor state (and the applied
  /// prefix, via the durable snapshot) from disk alone. Recovery
  /// failures (Corruption in a sealed segment) make Start() fail: a node
  /// with damaged durable state must not serve.
  std::string data_dir;
  /// Wrap the disk in a FaultInjectingEnv and poll <data_dir>/FAULTS for
  /// fault commands (see docs/fault_model.md). Requires data_dir.
  bool disk_faults = false;
  /// Group-commit window for the WAL (WalOptions::group_commit_delay).
  Duration wal_commit_delay = 0;
  /// Partition ownership mode (docs/PROTOCOL.md §ownership): learn the
  /// owner from decided transfer records, stamp redirect hints on
  /// misdirected requests, feed per-zone access stats from request
  /// arrivals, and run the placement sweep — the owner invites protocol
  /// steals toward the hottest zone; a non-owner seeing local traffic
  /// with a stalled log rescues a dead incumbent by stealing from it.
  bool ownership = false;
  Duration placement_sweep_interval = 1 * kSecond;
  /// Post-transfer cooldown before the sweep may move the partition
  /// again (anti-ping-pong; counted as placement_pingpongs_suppressed).
  Duration steal_cooldown = 10 * kSecond;
  /// Advisor hysteresis (see PlacementAdvisor).
  double placement_min_improvement = 0.3;
  double placement_min_weight = 3.0;
  Duration placement_stats_half_life = 10 * kSecond;
  /// RTTs the advisor ranks zones by. The serving topology carries
  /// placeholder latencies (real sockets impose their own), so the
  /// advisor gets a dedicated topology reflecting the deployment's
  /// actual zone asymmetry.
  double placement_inter_zone_rtt_ms = 50.0;
  double placement_intra_zone_rtt_ms = 2.0;
  /// Consecutive stalled sweeps (no applied progress while local client
  /// traffic keeps arriving) before a non-owner starts a rescue steal
  /// against the incumbent.
  uint32_t rescue_stalled_sweeps = 3;
};

/// \brief One-process replica server speaking the net/tcp framing.
class NodeServer {
 public:
  explicit NodeServer(NodeServerOptions options);
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Bind the listener and wire replica <-> state machine <-> clients.
  Status Start();

  /// Route SIGTERM/SIGINT to a graceful Shutdown() of THIS server (one
  /// live NodeServer per process).
  void InstallSignalHandlers();

  /// Drive the loop until Shutdown() (or a routed signal). Returns the
  /// signal number that stopped it, or 0 for a programmatic stop.
  int Run();

  /// Stop the loop after the current dispatch round. Loop-thread safe;
  /// for cross-thread/signal use, the handlers installed above.
  void Shutdown();

  EventLoop& loop() { return loop_; }
  TcpTransport& transport() { return *transport_; }
  Replica* replica() { return replica_; }
  const KvStateMachine& kv() const { return kv_; }
  uint16_t listen_port() const { return transport_->listen_port(); }

  /// Key=value introspection line, also served to clients as the
  /// "stats" op (see docs/realnet.md for the fields).
  std::string StatsString() const;

 private:
  /// A client request waiting on the batch it joined.
  struct Waiter {
    uint64_t conn = 0;
    uint64_t request_id = 0;
    bool get = false;
    std::string key;  ///< Gets only: the key read once the batch commits
  };
  /// Client requests that will share one consensus slot.
  struct Batch {
    explicit Batch(uint64_t cap_bytes) : builder(cap_bytes) {}
    BatchBuilder builder;
    std::vector<Waiter> waiters;
    /// Hashes of the keys with a Put here; a collision only closes the
    /// batch early.
    std::vector<size_t> put_keys;
  };

  void OnClientRequest(uint64_t conn, uint64_t client_id,
                       const ClientRequestView& req);
  /// Add a Put or Get to the open batch, then submit what the window
  /// allows. A request starts a new batch when its key already has a
  /// Put in the open one, or when it would push the batch past
  /// batch_cap_bytes_; so commit order is arrival order.
  void Enqueue(uint64_t conn, uint64_t client_id,
               const ClientRequestView& req);
  /// Submit closed batches (all but the open back()) while fewer than
  /// kCatchUpPageSize are in flight, and the open one once none is.
  void SubmitBatches();
  /// After a batch completes: SubmitBatches() at the end of this loop
  /// round.
  void ScheduleSubmit();
  /// Commit callback of one batch: Puts are answered with the slot,
  /// Gets once the applier has crossed every slot below it.
  void AnswerBatch(std::vector<Waiter> waiters, const Status& st, SlotId slot);
  /// Serve a batch's reads once the local applier reaches `slot` (the
  /// batch's commit position); polls the applier until `deadline`.
  void AnswerReadsAtSlot(std::vector<Waiter> gets, SlotId slot,
                         Timestamp deadline);
  uint64_t NextValueId() {
    return ((static_cast<uint64_t>(options_.node) + 1) << 40) |
           next_value_id_++;
  }
  void StartCatchUp();
  void ScheduleCompactionSweep();
  /// Compact the log behind the applied watermark, keeping
  /// compaction_retained_suffix slots (then checkpoint the WAL).
  void CompactLog();
  /// Decide-callback tap: post a CompactLog() once the payload decided
  /// since the last compaction outgrows the last snapshot, so the log
  /// copies a busy node holds stay near one snapshot's size.
  void NoteDecided(const Value& value);
  void ScheduleAntiEntropySweep();
  /// Ownership mode: decide-callback tap that feeds the directory (and
  /// the forwarding hint) from decided transfer records.
  void ObserveOwnership(SlotId slot, const Value& value);
  /// Ownership mode: periodic placement sweep (owner side: advisor +
  /// steal invitations; non-owner side: dead-incumbent rescue).
  void SchedulePlacementSweep();
  /// Thief side of a protocol steal (invited, or rescuing).
  void StartProtocolSteal(NodeId incumbent);
  /// WAL mode: open + recover the log, adopt it into the host's storage,
  /// restore the applied prefix from the durable snapshot.
  Status OpenWal();
  /// disk_faults: poll <data_dir>/FAULTS for armed fault commands.
  void ScheduleFaultPoll();

  NodeServerOptions options_;
  EventLoop loop_;
  std::optional<Topology> topology_;  ///< set by Start()
  std::unique_ptr<QuorumSystem> quorums_;
  /// Declared before host_: the WAL (owned by the host's NodeStorage)
  /// writes through this env, so it must be destroyed after the host.
  std::unique_ptr<FaultInjectingEnv> fault_env_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<NodeHost> host_;
  Replica* replica_ = nullptr;
  Wal* wal_ = nullptr;  ///< owned by host_->storage(); null without data_dir
  KvStateMachine kv_;
  LogApplier applier_{&kv_};
  uint64_t next_value_id_ = 1;
  /// Batches not yet submitted; back() is the open one, the rest are
  /// closed and wait only for room in the window.
  std::deque<Batch> batches_;
  uint32_t batches_inflight_ = 0;
  bool submit_scheduled_ = false;
  /// A catch-up page of kCatchUpPageSize batches fits one frame.
  uint64_t batch_cap_bytes_ = 0;
  uint64_t decided_bytes_since_compaction_ = 0;
  bool compaction_posted_ = false;
  uint64_t catchups_completed_ = 0;
  SlotId last_sweep_watermark_ = 0;
  uint64_t sweep_count_ = 0;
  uint64_t catchup_repairs_ = 0;
  bool started_ = false;
  // Ownership mode state (options_.ownership; partition 0 is the only
  // partition a NodeServer hosts).
  std::optional<OwnershipDirectory> directory_;
  std::optional<AccessStats> access_stats_;
  std::optional<Topology> advisor_topology_;  ///< declared before advisor_
  std::optional<PlacementAdvisor> advisor_;
  bool steal_inflight_ = false;
  uint64_t transfer_seq_ = 0;
  Timestamp last_transfer_time_ = 0;  ///< loop time of last directory change
  uint32_t stalled_sweeps_ = 0;
  uint64_t puts_since_sweep_ = 0;
  SlotId placement_sweep_watermark_ = 0;
  uint64_t steals_attempted_ = 0;
  uint64_t steals_completed_ = 0;
  uint64_t steals_rejected_ = 0;
  uint64_t pingpongs_suppressed_ = 0;
  uint64_t rescues_started_ = 0;
};

}  // namespace dpaxos

#endif  // DPAXOS_HARNESS_NODE_SERVER_H_
