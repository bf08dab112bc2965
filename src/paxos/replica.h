// The DPaxos replica: one node's participation in one partition's
// consensus instance.
//
// A Replica combines
//   - the acceptor role (delegated to the pure Acceptor state machine),
//   - the proposer/leader role generic over a QuorumSystem — Multi-Paxos,
//     Flexible Paxos, DPaxos Delegate, DPaxos Leader-Zone, or the
//     leaderless baseline,
//   - the learner role (decided log + commit notifications),
//   - DPaxos extensions: Expanding Quorums (intent declaration, detection
//     and LE-quorum expansion), Leader Handoff, leader-based read leases,
//     and the Leader Zone migration protocol.
//
// All I/O goes through the Transport; all time through the EventScheduler
// (virtual-clock Simulator or the real-clock net/tcp EventLoop).
#ifndef DPAXOS_PAXOS_REPLICA_H_
#define DPAXOS_PAXOS_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "net/transport.h"
#include "paxos/acceptor.h"
#include "paxos/decided_log.h"
#include "paxos/messages.h"
#include "paxos/replica_config.h"
#include "paxos/value.h"
#include "quorum/quorum_system.h"
#include "sim/scheduler.h"

namespace dpaxos {

/// Decided entries shipped per learn-reply page during catch-up. Hosts
/// that pack many commands into one value cap the value so a full page
/// still fits one transport frame.
inline constexpr uint32_t kCatchUpPageSize = 256;

/// \brief Per-replica protocol counters (observability; see
/// Replica::counters). All monotonically increasing.
struct ProtocolCounters {
  // Acceptor side.
  uint64_t prepares_received = 0;
  uint64_t promises_sent = 0;
  uint64_t prepare_nacks_sent = 0;
  uint64_t proposes_received = 0;
  uint64_t accepts_sent = 0;
  uint64_t accept_nacks_sent = 0;
  // Proposer side.
  uint64_t elections_started = 0;
  uint64_t proposes_sent = 0;
  uint64_t retransmits = 0;
  uint64_t step_downs = 0;
  // DPaxos extensions.
  uint64_t intents_detected = 0;
  uint64_t handoffs_sent = 0;
  uint64_t handoffs_received = 0;
  uint64_t forwards_handled = 0;
  uint64_t redirects_sent = 0;
  // Snapshot transfer & log compaction (docs/fault_model.md).
  uint64_t snapshots_served = 0;     ///< full envelopes generated for peers
  uint64_t snapshot_chunks_sent = 0;
  uint64_t snapshot_bytes_received = 0;  ///< chunk payload bytes accepted
  uint64_t snapshots_installed = 0;  ///< CRC-verified installs completed
  uint64_t snapshot_corruptions_detected = 0;
  uint64_t catchup_failovers = 0;    ///< catch-ups retargeted to a new peer
  uint64_t log_compactions = 0;      ///< successful Compact() truncations
  /// Structurally valid messages dropped as semantically implausible
  /// (decide slot beyond the horizon, value conflict on a decided slot).
  /// Nonzero under on-the-wire corruption; see LearnDecided.
  uint64_t suspect_msgs_rejected = 0;
  // Fast path (enable_fast_path; docs/PROTOCOL.md §fast-path).
  uint64_t fast_commits = 0;    ///< proposer: one-round-trip completions
  uint64_t fast_fallbacks = 0;  ///< proposer: attempts that left the fast path
  uint64_t fast_votes = 0;      ///< acceptor: fast-round votes cast
  uint64_t fast_conflicts = 0;  ///< leader: conflicting-vote resolutions
  // Partition ownership steals (docs/PROTOCOL.md §ownership).
  uint64_t steal_requests_sent = 0;      ///< thief: StealRequest issued
  uint64_t steal_requests_received = 0;  ///< incumbent: requests + invites
  uint64_t steals_granted = 0;  ///< incumbent: grants sent (log fenced)
  uint64_t steals_refused = 0;  ///< incumbent: refusals sent
  uint64_t steals_won = 0;      ///< thief: takeover elections completed
};

/// \brief One replica of one partition.
class Replica {
 public:
  /// (status, slot, commit latency). slot/latency are meaningful on OK.
  using CommitCallback = std::function<void(const Status&, SlotId, Duration)>;
  using StatusCallback = std::function<void(const Status&)>;
  /// Invoked once per newly learned decided slot (possibly out of order;
  /// see smr::LogApplier for in-order application).
  using DecideCallback = std::function<void(SlotId, const Value&)>;

  /// All pointers must outlive the replica. `quorums` must match the
  /// protocol family the whole partition runs. `record` is the durable
  /// acceptor state (see NodeStorage); nullptr gives the replica a
  /// private volatile record.
  Replica(EventScheduler* sim, Transport* transport, const Topology* topology,
          const QuorumSystem* quorums, NodeId id, ReplicaConfig config,
          AcceptorRecord* record = nullptr);

  /// Cancels this replica's pending timers/closures: events scheduled by
  /// a destroyed replica never fire (safe node restarts).
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // --- client API -------------------------------------------------------

  /// Submit a value for commitment. If this replica leads, it replicates
  /// (respecting the multi-programming window, queueing any excess); if
  /// not, it either elects itself first (auto_elect_on_submit) or fails
  /// with FailedPrecondition. In leaderless mode it proposes directly on
  /// its next owned slot.
  void Submit(Value value, CommitCallback cb);

  /// Submit a value from a (possibly remote) client attached to this
  /// replica: if this replica leads, it commits locally; otherwise the
  /// value is forwarded to the known leader over the network and the
  /// callback fires when the leader's reply returns — the paper's remote
  /// request model (Section 5.3). Redirects and retries are handled
  /// internally; without any leader hint this falls back to Submit().
  void SubmitOrForward(Value value, CommitCallback cb);

  /// Install/replace the leader hint used by SubmitOrForward (normally
  /// learned from protocol traffic or cluster metadata).
  void set_leader_hint(NodeId hint) { leader_hint_ = hint; }
  NodeId leader_hint() const { return leader_hint_; }

  /// Run a Leader Election for this replica (paper Algorithms 1 and 2).
  /// Completes OK once the (possibly expanded) LE quorum promised, after
  /// which is_leader() holds and adopted values are re-proposed.
  void TryBecomeLeader(StatusCallback cb);

  /// Leader Handoff, pull side: ask `old_leader` to relinquish to us with
  /// a single round of messaging (paper Section 4.4). Fails TimedOut if
  /// the request or relinquish message is lost (then only a Leader
  /// Election can recover, exactly as the paper specifies).
  void RequestHandoffFrom(NodeId old_leader, StatusCallback cb);

  /// Leader Handoff, push side: relinquish our leadership to `new_leader`.
  /// Only permitted while leading with no in-flight proposals. After the
  /// relinquish message is sent this replica stops acting as leader even
  /// if the message is lost.
  Status HandoffTo(NodeId new_leader);

  /// Partition ownership steal, thief side (docs/PROTOCOL.md
  /// §ownership): ask `incumbent` to fence its log and grant us the
  /// partition, catch up to its decided prefix (via snapshot transfer
  /// when the gap warrants it), win a Leader Election, and commit
  /// `transfer_record` — an opaque consensus value built by the host,
  /// normally MakeOwnershipTransferValue — as the first entry of the new
  /// regime. A refusal fails the callback with FailedPrecondition; a
  /// lost request/grant or an incumbent crash mid-handoff falls back to
  /// an ordinary Leader Election after propose_timeout and still commits
  /// the record on victory.
  void StealOwnershipFrom(NodeId incumbent, Value transfer_record,
                          StatusCallback cb);

  /// Ownership steal, incumbent side: invite `thief` to steal this
  /// partition (the placement sweep runs on the owner, which cannot
  /// grant to itself). The thief's steal-invite callback decides whether
  /// to act; the invitation itself changes no state.
  void InviteSteal(NodeId thief);

  /// Invoked on a replica that received a steal invitation (InviteSteal)
  /// while not leading and not already mid-steal. The host builds the
  /// transfer record and calls StealOwnershipFrom(incumbent, ...).
  using StealInviteCallback = std::function<void(NodeId incumbent)>;
  void set_steal_invite_callback(StealInviteCallback cb) {
    steal_invite_cb_ = std::move(cb);
  }

  /// Voluntarily re-run a Leader Election while already leading, with no
  /// in-flight proposals. Declares fresh intents for the CURRENT location
  /// — the way a leader that received the role via handoff re-homes its
  /// replication quorum near itself (a handoff recipient is restricted to
  /// the relinquished intents, Section 4.4/4.6).
  void RefreshLeadership(StatusCallback cb);

  /// Migrate the Leader Zone to `next_zone` (kLeaderZone mode only):
  /// registers the next zone through the Leader Zone Instance synod,
  /// runs the transition phase, and lazily announces completion
  /// (paper Section 4.3.2 Steps 1-3).
  void MigrateLeaderZone(ZoneId next_zone, StatusCallback cb);

  /// True if this replica can currently serve linearizable reads locally:
  /// it leads and holds a quorum-confirmed read lease (Section 4.5).
  bool CanServeLocalRead() const;

  /// Quorum-lease read (enable_quorum_reads): true if this replica is a
  /// lease-granting replication-quorum member whose learned prefix
  /// provably contains every committed write — it granted an active
  /// lease and has no accepted entry beyond its decided watermark.
  /// Writes cannot commit without this member's accept, so a quiet
  /// acceptor state implies the committed prefix is fully learned.
  bool CanServeQuorumRead() const;

  /// Feed an externally learned ballot (gossip, cluster metadata). A
  /// primed aspirant picks its first election ballot above the hint,
  /// avoiding one guaranteed-preempted round against a live leader whose
  /// traffic it never observed. Purely an optimization; never unsafe.
  void PrimeBallot(const Ballot& hint) { ObserveBallot(hint); }

  // --- learner ------------------------------------------------------------

  void set_decide_callback(DecideCallback cb) { decide_cb_ = std::move(cb); }

  /// Invoked whenever a synchronous storage write completes (i.e. just
  /// before the durable promise/accept reply is sent). The NodeHost uses
  /// it to checkpoint the acceptor record for crash-fault modelling.
  void set_sync_hook(std::function<void()> hook) {
    sync_hook_ = std::move(hook);
  }

  /// Real-durability gate (WAL mode, storage/wal.h). `gate(done)` must
  /// make every acceptor mutation journaled so far durable and then
  /// invoke `done` — typically Wal::SyncThen, which batches many callers
  /// behind one fdatasync (group commit). When set, it replaces the
  /// modelled storage_sync_delay at every reply-gated sync point: the
  /// promise/accept/fast-vote reply is only sent once the disk confirms.
  void set_persist_gate(std::function<void(std::function<void()>)> gate) {
    persist_gate_ = std::move(gate);
  }

  /// Synchronous durability barrier (WAL mode): flush + fdatasync now.
  /// Used by the crash-consistent compaction/install order, which needs
  /// write-snapshot → barrier → release-prefix → barrier.
  void set_persist_barrier(std::function<void()> barrier) {
    persist_barrier_ = std::move(barrier);
  }
  const DecidedLog& decided() const { return decided_; }
  /// Lowest slot id not yet known decided (contiguous watermark).
  SlotId DecidedWatermark() const;

  // --- catch-up, truncation and snapshots ---------------------------------

  /// Produces a checksummed snapshot envelope (smr/snapshot.h format) of
  /// all applied state and reports the slot it covers (exclusive):
  /// everything below it is baked in.
  using SnapshotProvider = std::function<std::string(SlotId* through_slot)>;
  /// Verifies and installs a received snapshot envelope covering slots
  /// below `through_slot`. Must return Status::Corruption (and leave the
  /// application state untouched) when the envelope fails its CRC; the
  /// replica then fails over to another peer instead of applying it.
  using SnapshotInstaller =
      std::function<Status(SlotId through_slot, const std::string& snapshot)>;

  /// Wire the application's snapshot hooks (both or neither). Without
  /// them, log truncation still works but peers that fell behind the
  /// truncation point cannot recover from this replica.
  void set_snapshot_hooks(SnapshotProvider provider,
                          SnapshotInstaller installer) {
    snapshot_provider_ = std::move(provider);
    snapshot_installer_ = std::move(installer);
  }

  /// Pull decided entries (and, if needed, a snapshot) from `peer` until
  /// this replica's watermark reaches the peer's. Used by recovered or
  /// lagging replicas.
  void CatchUpFrom(NodeId peer, StatusCallback cb);

  /// Catch up with failover: peers are tried in order, each with its own
  /// catchup_retry_limit budget; a timeout or corrupted snapshot moves on
  /// to the next peer. Fails with the last peer's status when the list is
  /// exhausted.
  void CatchUpFrom(std::vector<NodeId> peers, StatusCallback cb);

  /// Like CatchUpFrom, but opens with a snapshot transfer instead of log
  /// pages — cheaper when the peer's log is long relative to its state
  /// (e.g. a partition handover). Requires the snapshot installer; the
  /// residual log above the snapshot is still paged afterwards.
  void CatchUpViaSnapshot(std::vector<NodeId> peers, StatusCallback cb);

  /// True when this replica can install snapshots from peers.
  bool snapshot_transfer_ready() const {
    return snapshot_installer_ != nullptr;
  }
  /// True when this replica can serve snapshots to peers.
  bool snapshot_serve_ready() const { return snapshot_provider_ != nullptr; }

  /// Drop decided log entries below `slot` (which must not exceed the
  /// contiguous watermark). After truncation this replica serves
  /// catch-ups only from `slot` upward; earlier history requires the
  /// snapshot hooks.
  Status TruncateDecidedBelow(SlotId slot);

  /// Log compaction (enable_compaction): snapshot the applied state via
  /// the provider, persist the envelope durably, then truncate the
  /// decided log and release the accepted prefix below
  /// min(through, provider coverage, contiguous watermark), keeping
  /// compaction_retained_suffix entries of slack for ordinary laggards.
  /// The crash-consistent order is write-snapshot -> sync -> release ->
  /// sync (see docs/PROTOCOL.md). No-op OK when nothing can be released.
  Status Compact(SlotId through);

  /// Discard the durable snapshot persisted by Compact()/installs —
  /// the harness calls this when the envelope at rest fails its CRC
  /// after a restart. Resets the learner to slot 0 so recovery refetches
  /// everything from peers; the acceptor's compaction watermark stays.
  void DropInstalledSnapshot();

  /// One-shot fault injection: corrupt the NEXT snapshot envelope this
  /// replica generates for a peer (nemesis CorruptSnapshot action).
  enum class SnapshotFault { kNone, kBitFlip, kTruncate };
  void InjectSnapshotFault(SnapshotFault fault) { snapshot_fault_ = fault; }

  /// Lowest decided slot still retained in the log.
  SlotId log_start() const { return log_start_; }
  /// Durable compaction watermark (accepted prefix released below this).
  SlotId compacted_through() const { return acceptor_.compacted_through(); }

  // --- introspection --------------------------------------------------------

  NodeId id() const { return id_; }
  ZoneId zone() const { return topology_->ZoneOf(id_); }
  bool is_leader() const { return role_ == Role::kLeader; }
  bool is_candidate() const { return role_ == Role::kCandidate; }
  const Ballot& ballot() const { return ballot_; }
  SlotId next_slot() const { return next_slot_; }
  const LeaderZoneView& lz_view() const { return lz_view_; }
  const Acceptor& acceptor() const { return acceptor_; }
  const std::vector<Intent>& declared_intents() const {
    return declared_intents_;
  }
  const ReplicaConfig& config() const { return config_; }

  /// True once this leader has re-committed every value it adopted in
  /// its election; until then its proposes do not advance the garbage
  /// collection threshold (see ProposeMsg::recovery_complete).
  bool RecoveryComplete() const { return recovery_pending_ == 0; }

  /// Monotonic protocol event counters for observability.
  const ProtocolCounters& counters() const { return counters_; }

  /// The fast-path grant this node currently holds (enable_fast_path):
  /// the leader regime's ballot, the pinned fast quorum, and the slot
  /// fence below which fast votes may not land. Volatile by design — a
  /// restarted node nacks fast accepts until the next grant, which only
  /// costs the proposer a classic fallback.
  struct FastGrant {
    Ballot ballot;
    SlotId first_slot = 0;
    std::vector<NodeId> quorum;  ///< sorted; empty = no grant armed
    bool valid() const { return !quorum.empty(); }
  };
  const FastGrant& fast_grant() const { return fast_grant_; }

  /// Leader Election rounds this replica has completed successfully.
  uint64_t elections_won() const { return elections_won_; }
  /// Expansion rounds (second LE phases) this replica has issued.
  uint64_t expansion_rounds() const { return expansion_rounds_; }

  // --- wiring ---------------------------------------------------------------

  /// Entry point for every message addressed to this (node, partition);
  /// normally invoked by NodeHost.
  void HandleMessage(NodeId from, const MessagePtr& msg);

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  // Per-slot leader-side replication state.
  struct InFlight {
    Value value;
    std::vector<NodeId> acks;  // sorted, unique (a handful of nodes)
    CommitCallback cb;
    Timestamp start = 0;
    uint32_t retries = 0;
    EventId timer = 0;
    bool lease_requested = false;
    // True for re-proposals of values adopted during Leader Election;
    // the leader's recovery completes when none remain.
    bool adopted_recovery = false;
  };

  // Candidate-side election state.
  struct Election {
    StatusCallback cb;
    QuorumRule base_rule;
    QuorumRule effective_rule;  // base + detected intent intersections
    std::vector<NodeId> round1_targets;
    std::set<NodeId> promises;
    std::set<NodeId> contacted;
    std::map<Ballot, Intent> detected_intents;
    std::map<SlotId, AcceptedEntry> adopted;
    SlotId first_slot = 0;
    /// Highest compaction watermark advertised by any promise: slots
    /// below it were released by a quorum member because its snapshot
    /// covers them, so the new leader must not fill them as holes.
    SlotId max_compacted = 0;
    uint32_t attempt = 0;
    bool expanded = false;
    EventId timer = 0;
  };

  // Leader Zone migration driver state (Steps 1-3).
  struct LzMigration {
    StatusCallback cb;
    uint64_t epoch = 0;        // the epoch being decided (view.epoch + 1)
    ZoneId synod_zone = kInvalidZone;  // the Leader Zone running the synod
    ZoneId requested = kInvalidZone;   // what we asked for
    ZoneId target = kInvalidZone;      // what the synod decided
    Ballot ballot;             // synod ballot
    int step = 1;              // 1 synod-prepare, 2 synod-propose,
                               // 3 transition, 4 store-intents
    std::set<NodeId> acks;
    Ballot best_accepted;              // highest accepted synod ballot seen
    ZoneId best_accepted_zone = kInvalidZone;
    std::vector<Intent> transferred;   // union of old-zone intents
    uint32_t attempt = 0;
    EventId timer = 0;
  };

  // Synod acceptor state for the Leader Zone Instance (next epoch only).
  struct LzSynod {
    uint64_t epoch = 0;
    Ballot promised;
    Ballot accepted_ballot;
    ZoneId accepted_zone = kInvalidZone;
  };

  // --- message handlers ---
  void OnPrepare(NodeId from, const PrepareMsg& msg);
  void OnPromise(NodeId from, const PromiseMsg& msg);
  void OnPrepareNack(NodeId from, const PrepareNackMsg& msg);
  void OnPropose(NodeId from, const ProposeMsg& msg);
  void OnAccept(NodeId from, const AcceptMsg& msg);
  void OnAcceptNack(NodeId from, const AcceptNackMsg& msg);
  void OnDecide(NodeId from, const DecideMsg& msg);
  void OnHandoffRequest(NodeId from, const HandoffRequestMsg& msg);
  void OnHeartbeat(NodeId from, const HeartbeatMsg& msg);
  void OnRelinquish(NodeId from, const RelinquishMsg& msg);
  void OnStealRequest(NodeId from, const StealRequestMsg& msg);
  void OnOwnershipGrant(NodeId from, const OwnershipGrantMsg& msg);
  void OnForward(NodeId from, const ForwardMsg& msg);
  void OnForwardReply(NodeId from, const ForwardReplyMsg& msg);
  void OnFastGrant(NodeId from, const FastGrantMsg& msg);
  void OnFastAccept(NodeId from, const FastAcceptMsg& msg);
  void OnFastAccepted(NodeId from, const FastAcceptedMsg& msg);
  void OnFastNack(NodeId from, const FastNackMsg& msg);
  void OnLearnRequest(NodeId from, const LearnRequestMsg& msg);
  void OnLearnReply(NodeId from, const LearnReplyMsg& msg);
  void OnSnapshotRequest(NodeId from, const SnapshotRequestMsg& msg);
  void OnSnapshotChunk(NodeId from, const SnapshotChunkMsg& msg);
  void OnGcPoll(NodeId from, const GcPollMsg& msg);
  /// NodeHost routes poll replies to the co-located GarbageCollector.
  void OnGcPollReply(NodeId, const GcPollReplyMsg&) {}
  void OnGcThreshold(NodeId from, const GcThresholdMsg& msg);
  void OnLzPrepare(NodeId from, const LzPrepareMsg& msg);
  void OnLzPromise(NodeId from, const LzPromiseMsg& msg);
  void OnLzPropose(NodeId from, const LzProposeMsg& msg);
  void OnLzAccept(NodeId from, const LzAcceptMsg& msg);
  void OnLzNack(NodeId from, const LzNackMsg& msg);
  void OnLzTransition(NodeId from, const LzTransitionMsg& msg);
  void OnLzTransitionAck(NodeId from, const LzTransitionAckMsg& msg);
  void OnLzStoreIntents(NodeId from, const LzStoreIntentsMsg& msg);
  void OnLzStoreAck(NodeId from, const LzStoreAckMsg& msg);
  void OnLzAnnounce(NodeId from, const LzAnnounceMsg& msg);

  // --- election internals ---
  void StartElection(StatusCallback cb, uint32_t attempt);
  void CheckElectionProgress();
  void FinishElection();
  void FailElection(const Status& status, Duration retry_after);
  std::vector<Intent> BuildIntents() const;
  QuorumRule CurrentLeaderElectionRule() const;

  // --- leader internals ---
  void StartPropose(SlotId slot, Value value, CommitCallback cb,
                    bool adopted_recovery = false);
  void OnRecoveryProgress();
  void RetransmitPropose(SlotId slot);
  void Decide(SlotId slot);
  /// Commit-notification fan-out per decide_policy (factored out of
  /// Decide so fast unanimity commits share it).
  void AnnounceDecide(SlotId slot, const Value& value);
  void LearnDecided(SlotId slot, const Value& value);
  void DrainPending();
  void StepDown(const Ballot& preemptor);
  void FailInFlight(const Status& status);
  const QuorumRule& ReplicationRule() const;
  /// ReplicationRule().Targets(), cached alongside the rule (the hot
  /// path reads it once per propose/retransmit/heartbeat fan-out).
  const std::vector<NodeId>& ReplicationTargets() const;
  /// Must be called whenever declared_intents_ or active_intent_
  /// changes; the cached rule is rebuilt on next use.
  void InvalidateReplicationRule() { replication_rule_valid_ = false; }
  void RecomputeLeaseExpiry();

  // --- leaderless ---
  void SubmitLeaderless(Value value, CommitCallback cb);

  // --- leader zone migration internals ---
  void LzAdvance();
  void LzSendCurrentStep();
  void LzArmTimer();
  void LzFinish(const Status& status);
  void AdoptView(const LeaderZoneView& view);

  // --- helpers ---
  void SendTo(NodeId to, MessagePtr msg) {
    transport_->Send(id_, to, std::move(msg));
  }
  /// Schedule a closure that is dropped if this replica is destroyed
  /// before it fires (e.g. across a simulated process restart).
  EventId ScheduleSafe(Duration delay, std::function<void()> fn);
  void SendToAll(const std::vector<NodeId>& targets, const MessagePtr& msg);
  void ObserveBallot(const Ballot& ballot);
  Duration BackoffFor(uint32_t attempt);

  EventScheduler* sim_;
  Transport* transport_;
  const Topology* topology_;
  const QuorumSystem* quorums_;
  const NodeId id_;
  ReplicaConfig config_;
  Rng rng_;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Acceptor acceptor_;
  Role role_ = Role::kFollower;
  Ballot ballot_;
  uint64_t max_round_seen_ = 0;
  LeaderZoneView lz_view_;
  LzSynod lz_synod_;
  std::unique_ptr<LzMigration> lz_migration_;

  // Leader state.
  SlotId next_slot_ = 0;
  // Adopted re-proposals still in flight; recovery_complete once 0.
  uint32_t recovery_pending_ = 0;
  std::vector<Intent> declared_intents_;
  size_t active_intent_ = 0;
  // Cache of ReplicationRule()/Targets() for the current intent; the
  // old code rebuilt the rule (vector-of-vectors churn) on every accept
  // ack, which dominated the load-phase profile.
  mutable bool replication_rule_valid_ = false;
  mutable QuorumRule cached_replication_rule_;
  mutable std::vector<NodeId> cached_replication_targets_;
  std::map<SlotId, InFlight> inflight_;
  std::deque<std::pair<Value, CommitCallback>> pending_;
  std::map<NodeId, Timestamp> lease_votes_;
  Timestamp lease_until_ = 0;

  // Candidate state.
  std::unique_ptr<Election> election_;

  // Handoff state.
  StatusCallback handoff_cb_;
  EventId handoff_timer_ = 0;

  // Ownership steal state (thief side; docs/PROTOCOL.md §ownership).
  StatusCallback steal_cb_;
  EventId steal_timer_ = 0;
  Value steal_record_;  ///< transfer record to commit on victory
  StealInviteCallback steal_invite_cb_;
  /// Election + transfer-record commit (grant received, catch-up done,
  /// or timeout fallback).
  void StealElectAndRecord();
  void FinishSteal(const Status& status);

  // Failure detector (enable_failure_detector).
  EventId heartbeat_timer_ = 0;   // leader side: periodic beacons
  EventId watchdog_timer_ = 0;    // member side: election on silence
  void SendHeartbeats();
  void ArmWatchdog();
  void OnLeaderSilence();

  // Learner state.
  DecidedLog decided_;
  SlotId watermark_ = 0;   // lowest slot not yet known decided
  /// Lease fence (enable_leases && enable_fast_path): lease-local reads
  /// serve the contiguous decided prefix [0, watermark_), so a commit
  /// ack may only leave the leader once the watermark covers its slot.
  /// Fast-mode decides complete out of order (a conflicted slot waits
  /// out its fast timeout while higher slots commit unanimously), so
  /// acks for slots above a hole park here until LearnDecided advances
  /// the watermark past them.
  std::multimap<SlotId, std::function<void()>> deferred_acks_;
  void DeferOrAck(SlotId slot, std::function<void()> ack);
  void FlushDeferredAcks();
  SlotId log_start_ = 0;   // lowest retained decided slot (truncation)
  DecideCallback decide_cb_;
  std::function<void()> sync_hook_;
  std::function<void(std::function<void()>)> persist_gate_;
  std::function<void()> persist_barrier_;

  /// Run `deliver` once the acceptor mutations behind it are durable:
  /// through the persist gate (WAL mode), after the modelled
  /// storage_sync_delay, or inline. Fires sync_hook_ first in all paths.
  void SyncThenDeliver(std::function<void()> deliver);

  /// Storage barrier at the compaction/install sync points: marks the
  /// modelled sync and, in WAL mode, fsyncs the journal synchronously.
  void StorageBarrier() {
    if (sync_hook_) sync_hook_();
    if (persist_barrier_) persist_barrier_();
  }

  // Forwarding state (origin side).
  struct PendingForward {
    Value value;
    CommitCallback cb;
    uint32_t attempts = 0;
    EventId timer = 0;
  };
  NodeId leader_hint_ = kInvalidNode;
  uint64_t next_forward_id_ = 1;
  std::map<uint64_t, PendingForward> pending_forwards_;
  void SendForward(uint64_t request_id);
  void FinishForward(uint64_t request_id, const Status& status, SlotId slot);

  // Fast path (enable_fast_path; docs/PROTOCOL.md §fast-path).
  //
  // Proposer-side attempt: rides the pending_forwards_ entry of the same
  // request_id (fallback re-drives SendForward; the leader's conflict
  // resolutions answer with ordinary ForwardReply messages).
  struct FastAttempt {
    Ballot ballot;           ///< the grant ballot this attempt targets
    size_t quorum_size = 0;  ///< unanimity threshold (|fast quorum|)
    std::map<SlotId, std::set<NodeId>> votes;  ///< voters per slot
    std::set<NodeId> voters;                   ///< all members heard from
    EventId timer = 0;
  };
  // Leader-side per-slot vote tracker: detects unanimity (commit) and
  // conflicting values (classic re-proposal on the same slot).
  struct FastSlot {
    std::map<NodeId, uint64_t> votes;  ///< voter -> value id
    std::map<uint64_t, Value> values;  ///< distinct values seen (by id)
    /// value id -> (proposer, request id), for ForwardReply routing.
    std::map<uint64_t, std::pair<NodeId, uint64_t>> origins;
    EventId timer = 0;
  };
  FastGrant fast_grant_;
  std::map<uint64_t, FastAttempt> fast_attempts_;
  std::map<SlotId, FastSlot> fast_slots_;
  void StartFastAttempt(uint64_t request_id);
  /// Leave the fast path for `request_id` and re-drive it classically.
  void FastFallback(uint64_t request_id);
  /// Drop the attempt without re-driving (the forward already resolved).
  void CancelFastAttempt(uint64_t request_id);
  void TrackFastVote(NodeId voter, SlotId slot, const Value& value,
                     NodeId proposer, uint64_t request_id);
  /// Conflict/timeout resolution: classic-propose the winner on the same
  /// slot, bounce the losers back to their proposers.
  void ResolveFastSlot(SlotId slot);
  void ClearFastSlots();
  Duration FastTimeout() const {
    return config_.fast_timeout > 0 ? config_.fast_timeout
                                    : config_.propose_timeout;
  }

  // Catch-up state.
  struct CatchUp {
    std::vector<NodeId> peers;  // failover order; peers[index] is current
    size_t index = 0;
    StatusCallback cb;
    uint32_t attempts = 0;  // retries against the CURRENT peer
    EventId timer = 0;
    // Snapshot reassembly (chunked transfer).
    bool snapshotting = false;
    std::string snap_buffer;
    SlotId snap_through = 0;
    uint64_t snap_total = 0;

    NodeId peer() const { return peers[index]; }
  };
  std::unique_ptr<CatchUp> catchup_;
  SnapshotProvider snapshot_provider_;
  SnapshotInstaller snapshot_installer_;
  // Serving-side cache of the envelope a peer is currently fetching:
  // regenerated on every offset-0 request so later chunks come from one
  // consistent image.
  struct SnapshotServe {
    SlotId through = 0;
    std::string bytes;
  };
  SnapshotServe snapshot_cache_;
  SnapshotFault snapshot_fault_ = SnapshotFault::kNone;
  // Dedicated deterministic stream for catch-up backoff jitter, seeded as
  // a pure function of (node, partition) — never forked from rng_, whose
  // draw sequence legacy golden schedules depend on.
  Rng catchup_rng_;
  void CatchUpRequestNext();
  void CatchUpArmTimer();
  void CatchUpTimeout();
  void CatchUpFailover(const Status& status);
  void CatchUpFinish(const Status& status);
  void InstallReassembledSnapshot();

  // Leaderless proposer state.
  SlotId leaderless_next_ = 0;

  // Metrics.
  ProtocolCounters counters_;
  uint64_t elections_won_ = 0;
  uint64_t expansion_rounds_ = 0;
};

}  // namespace dpaxos

#endif  // DPAXOS_PAXOS_REPLICA_H_
