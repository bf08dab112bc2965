#include "paxos/replica.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace dpaxos {

namespace {

// Internal commit callback for no-op / adopted-value re-proposals.
void IgnoreCommit(const Status&, SlotId, Duration) {}

}  // namespace

Replica::Replica(EventScheduler* sim, Transport* transport,
                 const Topology* topology, const QuorumSystem* quorums,
                 NodeId id, ReplicaConfig config, AcceptorRecord* record)
    : sim_(sim),
      transport_(transport),
      topology_(topology),
      quorums_(quorums),
      id_(id),
      config_(config),
      rng_(sim->rng().Fork()),
      acceptor_(quorums->mode() == ProtocolMode::kLeaderless, record),
      // A pure function of (node, partition): never forked from rng_ or
      // sim->rng(), whose draw sequences existing schedules depend on.
      catchup_rng_(0x9e3779b97f4a7c15ULL * (id + 1) + config.partition) {
  DPAXOS_CHECK(sim && transport && topology && quorums);
  lz_view_.current = config_.initial_leader_zone;
  // A restarted acceptor remembers its promises (durable record); the
  // proposer must never reuse a round it might have promised away.
  ObserveBallot(acceptor_.promised());
  ObserveBallot(acceptor_.max_propose_ballot());
  // A durable snapshot means the log prefix it covers was released:
  // resume the learner at the snapshot boundary. The slot bound is
  // trusted because records only ever store CRC-verified envelopes (the
  // harness re-verifies the bytes and calls DropInstalledSnapshot() if
  // the image at rest rotted).
  if (acceptor_.snapshot_through() > 0) {
    log_start_ = acceptor_.snapshot_through();
    watermark_ = acceptor_.snapshot_through();
    decided_.EraseBelow(log_start_);
  }
  if (quorums_->mode() == ProtocolMode::kLeaderless) {
    DPAXOS_CHECK_GT(config_.leaderless_total, 0u);
    DPAXOS_CHECK_LT(config_.leaderless_index, config_.leaderless_total);
    ballot_ = Ballot{1, id_};
    leaderless_next_ = config_.leaderless_index;
  }
}

Replica::~Replica() { *alive_ = false; }

// -----------------------------------------------------------------------
// Helpers

EventId Replica::ScheduleSafe(Duration delay, std::function<void()> fn) {
  return sim_->Schedule(
      delay, [alive = alive_, fn = std::move(fn)] {
        if (*alive) fn();
      });
}

void Replica::SendToAll(const std::vector<NodeId>& targets,
                        const MessagePtr& msg) {
  for (NodeId t : targets) transport_->Send(id_, t, msg);
}

void Replica::SyncThenDeliver(std::function<void()> deliver) {
  if (persist_gate_) {
    // WAL mode: the gate releases `deliver` once the journaled mutations
    // are on disk (one group-commit fdatasync may release a batch). The
    // callback can outlive this replica — the WAL lives in NodeStorage —
    // so it guards on alive_ like every deferred closure.
    persist_gate_([this, alive = alive_, deliver = std::move(deliver)] {
      if (!*alive) return;
      if (sync_hook_) sync_hook_();
      deliver();
    });
    return;
  }
  if (config_.storage_sync_delay > 0) {
    ScheduleSafe(config_.storage_sync_delay,
                 [this, deliver = std::move(deliver)] {
                   if (sync_hook_) sync_hook_();
                   deliver();
                 });
  } else {
    if (sync_hook_) sync_hook_();
    deliver();
  }
}

void Replica::ObserveBallot(const Ballot& ballot) {
  max_round_seen_ = std::max(max_round_seen_, ballot.round);
}

Duration Replica::BackoffFor(uint32_t attempt) {
  const uint32_t shift = std::min(attempt, 6u);
  const Duration base = config_.retry_backoff_base * (1ull << shift);
  // Jitter in [0.5, 1.5) de-synchronizes dueling proposers.
  return static_cast<Duration>(static_cast<double>(base) *
                               (0.5 + rng_.NextDouble()));
}

SlotId Replica::DecidedWatermark() const { return watermark_; }

QuorumRule Replica::CurrentLeaderElectionRule() const {
  return quorums_->LeaderElectionRule(id_, lz_view_);
}

const QuorumRule& Replica::ReplicationRule() const {
  if (!replication_rule_valid_) {
    if (quorums_->UsesIntents()) {
      DPAXOS_CHECK(!declared_intents_.empty());
      DPAXOS_CHECK_LT(active_intent_, declared_intents_.size());
      cached_replication_rule_ = QuorumSystem::ReplicationRuleForIntent(
          declared_intents_[active_intent_].quorum);
    } else {
      cached_replication_rule_ = quorums_->DefaultReplicationRule(id_);
    }
    cached_replication_targets_ = cached_replication_rule_.Targets();
    replication_rule_valid_ = true;
  }
  return cached_replication_rule_;
}

const std::vector<NodeId>& Replica::ReplicationTargets() const {
  ReplicationRule();  // refresh the cache if stale
  return cached_replication_targets_;
}

std::vector<Intent> Replica::BuildIntents() const {
  if (!quorums_->UsesIntents()) return {};
  std::vector<Intent> intents;
  const std::vector<NodeId> primary = quorums_->IntentQuorum(id_);
  intents.push_back(Intent{ballot_, id_, primary});
  // Additional intents (paper Section 4.6): alternate fd-companions from
  // the home zone, giving the leader failover replication quorums.
  const ZoneId home = topology_->ZoneOf(id_);
  std::vector<NodeId> peers;
  for (NodeId n : topology_->NodesInZone(home)) {
    if (n != id_) peers.push_back(n);
  }
  const uint32_t fd = quorums_->fault_tolerance().fd;
  for (uint32_t k = 1; k < config_.num_intents; ++k) {
    if (peers.size() < fd) break;
    std::vector<NodeId> quorum = primary;
    // Swap the home-zone companions for a rotated selection.
    std::set<NodeId> drop;
    for (NodeId n : primary) {
      if (topology_->ZoneOf(n) == home && n != id_) drop.insert(n);
    }
    std::erase_if(quorum, [&](NodeId n) { return drop.count(n) > 0; });
    uint32_t added = 0;
    for (uint32_t i = 0; i < peers.size() && added < fd; ++i) {
      const NodeId candidate = peers[(k + i) % peers.size()];
      if (std::find(quorum.begin(), quorum.end(), candidate) ==
          quorum.end()) {
        quorum.push_back(candidate);
        ++added;
      }
    }
    if (added < fd) break;
    std::sort(quorum.begin(), quorum.end());
    const bool duplicate =
        std::any_of(intents.begin(), intents.end(), [&](const Intent& have) {
          return have.quorum == quorum;
        });
    if (duplicate) continue;
    intents.push_back(Intent{ballot_, id_, std::move(quorum)});
  }
  return intents;
}

// -----------------------------------------------------------------------
// Client API

void Replica::Submit(Value value, CommitCallback orig_cb) {
  // Commit latency is measured from submission, so it includes queueing
  // and any Leader Election the submission triggered.
  CommitCallback cb = [this, submitted = sim_->Now(),
                       inner = std::move(orig_cb)](
                          const Status& st, SlotId slot, Duration) {
    if (inner) inner(st, slot, sim_->Now() - submitted);
  };
  if (quorums_->mode() == ProtocolMode::kLeaderless) {
    SubmitLeaderless(std::move(value), std::move(cb));
    return;
  }
  if (role_ == Role::kLeader) {
    if (inflight_.size() <
        static_cast<size_t>(std::max(config_.max_inflight, 1u))) {
      StartPropose(next_slot_++, std::move(value), std::move(cb));
    } else {
      pending_.emplace_back(std::move(value), std::move(cb));
    }
    return;
  }
  if (role_ == Role::kCandidate) {
    pending_.emplace_back(std::move(value), std::move(cb));
    return;
  }
  if (!config_.auto_elect_on_submit) {
    cb(Status::FailedPrecondition("not the leader"), kInvalidSlot, 0);
    return;
  }
  pending_.emplace_back(std::move(value), std::move(cb));
  TryBecomeLeader([this](const Status& st) {
    if (!st.ok()) {
      // DrainPending never ran; fail queued submissions.
      auto queued = std::move(pending_);
      pending_.clear();
      for (auto& [v, cb2] : queued) cb2(st, kInvalidSlot, 0);
    }
  });
}

void Replica::SubmitLeaderless(Value value, CommitCallback cb) {
  if (inflight_.size() <
      static_cast<size_t>(std::max(config_.max_inflight, 1u))) {
    const SlotId slot = leaderless_next_;
    leaderless_next_ += config_.leaderless_total;
    StartPropose(slot, std::move(value), std::move(cb));
  } else {
    pending_.emplace_back(std::move(value), std::move(cb));
  }
}

void Replica::TryBecomeLeader(StatusCallback cb) {
  if (quorums_->mode() == ProtocolMode::kLeaderless) {
    cb(Status::NotSupported("leaderless mode has no leader election"));
    return;
  }
  if (role_ == Role::kLeader) {
    cb(Status::OK());
    return;
  }
  if (role_ == Role::kCandidate) {
    cb(Status::Aborted("election already in progress"));
    return;
  }
  StartElection(std::move(cb), 0);
}

void Replica::RefreshLeadership(StatusCallback cb) {
  if (quorums_->mode() == ProtocolMode::kLeaderless) {
    cb(Status::NotSupported("leaderless mode has no leader"));
    return;
  }
  if (role_ != Role::kLeader) {
    TryBecomeLeader(std::move(cb));
    return;
  }
  if (!inflight_.empty() || !pending_.empty()) {
    cb(Status::FailedPrecondition("in-flight proposals pending"));
    return;
  }
  role_ = Role::kFollower;  // step down voluntarily, then re-elect
  StartElection(std::move(cb), 0);
}

// -----------------------------------------------------------------------
// Leader Election (paper Algorithms 1 and 2)

void Replica::StartElection(StatusCallback cb, uint32_t attempt) {
  DPAXOS_CHECK(role_ == Role::kFollower);
  role_ = Role::kCandidate;
  ballot_ = Ballot{max_round_seen_ + 1, id_};
  max_round_seen_ = ballot_.round;

  declared_intents_ = BuildIntents();
  active_intent_ = 0;
  InvalidateReplicationRule();
  ++counters_.elections_started;

  election_ = std::make_unique<Election>();
  election_->cb = std::move(cb);
  election_->attempt = attempt;
  election_->first_slot = DecidedWatermark();
  election_->base_rule = CurrentLeaderElectionRule();
  election_->effective_rule = election_->base_rule;

  // First attempt: the preferred (nearest) target set. Retries fall back
  // to every rule candidate for liveness under failures.
  std::vector<NodeId> targets;
  if (config_.consolidate_le_rounds) {
    targets = topology_->AllNodes();
  } else if (attempt == 0) {
    targets = quorums_->LeaderElectionTargets(id_, lz_view_);
  } else {
    targets = election_->base_rule.Targets();
  }
  election_->round1_targets = targets;
  auto prepare = std::make_shared<PrepareMsg>(
      config_.partition, ballot_, election_->first_slot, declared_intents_,
      /*expansion=*/false, lz_view_);
  for (NodeId t : targets) {
    election_->contacted.insert(t);
    SendTo(t, prepare);
  }

  election_->timer = ScheduleSafe(config_.le_timeout, [this] {
    if (election_ != nullptr) {
      election_->timer = 0;
      FailElection(Status::TimedOut("leader election timed out"),
                   BackoffFor(election_->attempt));
    }
  });
  DPAXOS_DEBUG("node " << id_ << " starts election " << ballot_.ToString()
                       << " rule=" << election_->base_rule.ToString());
}

void Replica::OnPromise(NodeId from, const PromiseMsg& msg) {
  ObserveBallot(msg.ballot);
  AdoptView(msg.lz_view);
  if (election_ == nullptr || role_ != Role::kCandidate ||
      msg.ballot != ballot_) {
    return;  // stale vote for an abandoned attempt
  }
  election_->promises.insert(from);

  // A promise from a compacted acceptor: slots below its watermark were
  // released because its durable snapshot covers them (all decided), so
  // the election must not treat them as undecided holes.
  election_->max_compacted =
      std::max(election_->max_compacted, msg.compacted_through);

  // Adopt previously accepted values: highest ballot wins per slot. At
  // equal ballots a classic entry beats a fast one (the leader only ever
  // classic-proposes over a fast slot when unanimity was impossible —
  // see docs/PROTOCOL.md §fast-path), and disagreeing all-fast entries
  // are broken by smallest value id: deterministic, and safe because a
  // disagreement proves the slot was never fast-committed.
  for (const AcceptedEntry& e : msg.accepted) {
    auto it = election_->adopted.find(e.slot);
    if (it == election_->adopted.end()) {
      election_->adopted[e.slot] = e;
      continue;
    }
    AcceptedEntry& cur = it->second;
    if (e.ballot > cur.ballot) {
      cur = e;
    } else if (e.ballot == cur.ballot && cur.fast) {
      if (!e.fast || e.value.id < cur.value.id) cur = e;
    }
  }

  // Intents from expansion-round promises may be discarded (paper
  // Section 4.3.1): their declaring leaders are guaranteed to observe
  // our intent and defer to our higher ballot.
  if (!msg.expansion) {
    for (const Intent& intent : msg.intents) {
      if (intent.ballot == ballot_) continue;  // our own declaration
      if (election_->detected_intents.count(intent.ballot) > 0) continue;
      election_->detected_intents[intent.ballot] = intent;
      ++counters_.intents_detected;
      // The LE quorum must expand to intersect this intent's replication
      // quorum in at least one node.
      election_->effective_rule = election_->effective_rule.MergedWith(
          QuorumRule::Simple(intent.quorum, 1));
      DPAXOS_DEBUG("node " << id_ << " detected " << intent.ToString());
    }
  }
  CheckElectionProgress();
}

void Replica::CheckElectionProgress() {
  DPAXOS_CHECK(election_ != nullptr);
  if (election_->effective_rule.IsSatisfied(election_->promises)) {
    FinishElection();
    return;
  }
  // (Re)send prepares to any first-round targets we have not contacted —
  // this happens after a Leader Zone view upgrade changed the rule.
  std::vector<NodeId> round1;
  for (NodeId t : election_->round1_targets) {
    if (election_->contacted.insert(t).second) round1.push_back(t);
  }
  if (!round1.empty()) {
    auto prepare = std::make_shared<PrepareMsg>(
        config_.partition, ballot_, election_->first_slot, declared_intents_,
        /*expansion=*/false, lz_view_);
    SendToAll(round1, prepare);
  }
  // Expansion round: once the base quorum has promised, contact every
  // detected intent's replication quorum (paper: the second round).
  if (!election_->base_rule.IsSatisfied(election_->promises)) return;
  std::vector<NodeId> expansion;
  for (const auto& [b, intent] : election_->detected_intents) {
    for (NodeId t : intent.quorum) {
      if (election_->contacted.insert(t).second) expansion.push_back(t);
    }
  }
  if (!expansion.empty()) {
    ++expansion_rounds_;
    election_->expanded = true;
    auto prepare = std::make_shared<PrepareMsg>(
        config_.partition, ballot_, election_->first_slot, declared_intents_,
        /*expansion=*/true, lz_view_);
    SendToAll(expansion, prepare);
    DPAXOS_DEBUG("node " << id_ << " expands LE quorum to " << expansion.size()
                         << " more nodes");
  }
}

void Replica::FinishElection() {
  DPAXOS_CHECK(election_ != nullptr);
  if (election_->timer != 0) sim_->Cancel(election_->timer);
  role_ = Role::kLeader;
  ++elections_won_;
  leader_hint_ = id_;
  lease_votes_.clear();
  lease_until_ = 0;

  // Fast-forward past the highest compaction watermark any voter
  // advertised: those slots are decided-and-released, and filling them
  // with no-ops would conflict with the decided history (safe by quorum
  // intersection — see docs/PROTOCOL.md "Log compaction").
  const SlotId first =
      std::max(election_->first_slot, election_->max_compacted);
  next_slot_ = first;
  bool has_adopted = false;
  SlotId max_adopted = 0;
  for (const auto& [slot, e] : election_->adopted) {
    if (slot < first) continue;
    has_adopted = true;
    max_adopted = std::max(max_adopted, slot);
  }

  StatusCallback cb = std::move(election_->cb);
  auto adopted = std::move(election_->adopted);
  election_.reset();
  recovery_pending_ = 0;

  if (has_adopted) {
    // Re-propose adopted values under our ballot; fill gaps with no-ops
    // so the log becomes contiguous (standard Multi-Paxos recovery).
    // These are marked: until all of them commit, our proposes do not
    // advance the GC threshold (see ProposeMsg::recovery_complete).
    for (SlotId slot = first; slot <= max_adopted; ++slot) {
      if (decided_.count(slot) > 0) continue;
      auto it = adopted.find(slot);
      Value v = (it != adopted.end()) ? it->second.value : Value::NoOp();
      StartPropose(slot, std::move(v), IgnoreCommit,
                   /*adopted_recovery=*/true);
    }
    next_slot_ = max_adopted + 1;
  }
  if (RecoveryComplete()) OnRecoveryProgress();

  // Fast path: pin this regime's fast quorum and fence it above every
  // slot a lower ballot could have committed (everything below next_slot_
  // was either adopted and re-proposed above, or provably undecided).
  ClearFastSlots();
  if (config_.enable_fast_path &&
      quorums_->mode() != ProtocolMode::kLeaderless) {
    std::vector<NodeId> fq = quorums_->FastQuorum(id_);
    std::sort(fq.begin(), fq.end());
    if (!fq.empty() &&
        std::binary_search(fq.begin(), fq.end(), id_)) {
      fast_grant_.ballot = ballot_;
      fast_grant_.first_slot = next_slot_;
      fast_grant_.quorum = fq;
      auto grant = std::make_shared<FastGrantMsg>(config_.partition, ballot_,
                                                  next_slot_, std::move(fq));
      for (NodeId t : topology_->AllNodes()) {
        if (t != id_) SendTo(t, grant);
      }
    }
  }

  if (config_.enable_failure_detector) {
    if (watchdog_timer_ != 0) {
      sim_->Cancel(watchdog_timer_);
      watchdog_timer_ = 0;
    }
    SendHeartbeats();
  }
  DPAXOS_DEBUG("node " << id_ << " elected leader " << ballot_.ToString()
                       << " next_slot=" << next_slot_);
  if (cb) cb(Status::OK());
  DrainPending();
}

// --- failure detector ----------------------------------------------------

void Replica::SendHeartbeats() {
  heartbeat_timer_ = 0;
  if (!config_.enable_failure_detector || role_ != Role::kLeader) return;
  auto hb = std::make_shared<HeartbeatMsg>(config_.partition, ballot_);
  for (NodeId t : ReplicationTargets()) {
    if (t != id_) SendTo(t, hb);
  }
  heartbeat_timer_ = ScheduleSafe(config_.heartbeat_interval,
                                  [this] { SendHeartbeats(); });
}

void Replica::ArmWatchdog() {
  if (!config_.enable_failure_detector) return;
  if (watchdog_timer_ != 0) sim_->Cancel(watchdog_timer_);
  // Randomized in [timeout, 2*timeout): staggers rival candidacies.
  const Duration wait =
      config_.election_timeout +
      rng_.NextBounded(std::max<Duration>(config_.election_timeout, 1));
  watchdog_timer_ =
      ScheduleSafe(wait, [this] {
        watchdog_timer_ = 0;
        OnLeaderSilence();
      });
}

void Replica::OnLeaderSilence() {
  if (role_ != Role::kFollower) return;
  DPAXOS_DEBUG("node " << id_ << " suspects the leader; electing itself");
  TryBecomeLeader([this](const Status& st) {
    if (!st.ok()) ArmWatchdog();  // keep watching if we lost the race
  });
}

void Replica::OnHeartbeat(NodeId from, const HeartbeatMsg& msg) {
  (void)from;
  ObserveBallot(msg.ballot);
  if (quorums_->mode() != ProtocolMode::kLeaderless) {
    leader_hint_ = msg.ballot.node;
  }
  ArmWatchdog();  // the leader is alive; push the election out
}

void Replica::OnRecoveryProgress() {
  // All adopted values are re-secured at our quorum: from here on our
  // proposes advance the GC threshold, and the aggressive variant may
  // broadcast the threshold outright.
  if (config_.leader_broadcasts_gc_threshold && role_ == Role::kLeader) {
    auto gc = std::make_shared<GcThresholdMsg>(config_.partition, ballot_);
    SendToAll(topology_->AllNodes(), gc);
  }
}

void Replica::FailElection(const Status& status, Duration retry_after) {
  DPAXOS_CHECK(election_ != nullptr);
  if (election_->timer != 0) sim_->Cancel(election_->timer);
  StatusCallback cb = std::move(election_->cb);
  const uint32_t attempt = election_->attempt;
  election_.reset();
  role_ = Role::kFollower;

  if (attempt + 1 >= config_.max_le_attempts) {
    DPAXOS_DEBUG("node " << id_ << " gives up election: "
                         << status.ToString());
    if (cb) cb(status);
    return;
  }
  ScheduleSafe(retry_after, [this, cb = std::move(cb), attempt]() mutable {
    if (role_ == Role::kFollower) {
      StartElection(std::move(cb), attempt + 1);
    } else if (cb) {
      // Another role change intervened (e.g. a relinquish arrived).
      cb(role_ == Role::kLeader
             ? Status::OK()
             : Status::Aborted("election preempted during backoff"));
    }
  });
}

void Replica::OnPrepare(NodeId from, const PrepareMsg& msg) {
  ObserveBallot(msg.ballot);
  ++counters_.prepares_received;

  if (quorums_->mode() == ProtocolMode::kLeaderZone &&
      lz_view_.epoch > msg.lz_view.epoch) {
    // The aspirant's Leader Zone view is a whole migration behind: do not
    // vote; redirect it to the new Leader Zone (paper Step 3).
    auto nack = std::make_shared<PrepareNackMsg>(config_.partition, msg.ballot);
    nack->lz_view = lz_view_;
    ++counters_.prepare_nacks_sent;
    SendTo(from, nack);
    return;
  }
  AdoptView(msg.lz_view);

  Acceptor::PrepareOutcome out = acceptor_.OnPrepare(msg, sim_->Now());
  if (!out.promised) {
    auto nack = std::make_shared<PrepareNackMsg>(config_.partition, msg.ballot);
    nack->promised = out.promised_ballot;
    nack->lease_until = out.lease_until;
    nack->lz_view = lz_view_;
    ++counters_.prepare_nacks_sent;
    SendTo(from, nack);
    return;
  }
  // Promising a strictly higher ballot dethrones us locally.
  if (msg.ballot > ballot_ && role_ != Role::kFollower &&
      msg.ballot.node != id_) {
    StepDown(msg.ballot);
  }
  auto promise = std::make_shared<PromiseMsg>(config_.partition, msg.ballot,
                                              msg.expansion);
  promise->accepted = std::move(out.accepted);
  promise->intents = std::move(out.intents);
  promise->lz_view = lz_view_;
  // Advertise the durable compaction watermark (0 until the first
  // compaction, keeping legacy message sizes bit-identical).
  promise->compacted_through = acceptor_.compacted_through();
  ++counters_.promises_sent;
  // The promise is durable before it is answered.
  SyncThenDeliver([this, from, promise] { SendTo(from, promise); });
}

void Replica::OnPrepareNack(NodeId from, const PrepareNackMsg& msg) {
  (void)from;
  ObserveBallot(msg.promised);
  AdoptView(msg.lz_view);
  if (election_ == nullptr || role_ != Role::kCandidate ||
      msg.ballot != ballot_) {
    return;
  }
  if (!msg.promised.is_null() && msg.promised > ballot_) {
    // First preemption usually means our ballot was stale, not that a
    // live contender is racing us: retry immediately with a higher ballot
    // (we just observed the conflicting one). Repeated preemptions back
    // off to break proposer duels.
    const Duration wait =
        election_->attempt == 0 ? 0 : BackoffFor(election_->attempt);
    FailElection(Status::Aborted("preempted by " + msg.promised.ToString()),
                 wait);
    return;
  }
  if (msg.lease_until > 0) {
    // A read lease blocks elections until it expires (paper Section 4.5).
    const Duration wait = msg.lease_until > sim_->Now()
                              ? msg.lease_until - sim_->Now() + kMillisecond
                              : kMillisecond;
    FailElection(Status::Unavailable("blocked by read lease"), wait);
    return;
  }
  // Redirect nack: AdoptView above updated the rule; contact new targets.
  CheckElectionProgress();
}

// -----------------------------------------------------------------------
// Replication phase

void Replica::StartPropose(SlotId slot, Value value, CommitCallback cb,
                           bool adopted_recovery) {
  DPAXOS_CHECK(role_ == Role::kLeader ||
               quorums_->mode() == ProtocolMode::kLeaderless);
  DPAXOS_CHECK_MSG(inflight_.count(slot) == 0, "slot " << slot);

  InFlight& fl = inflight_[slot];
  fl.value = value;
  fl.cb = std::move(cb);
  fl.start = sim_->Now();
  fl.lease_requested = config_.enable_leases;
  fl.adopted_recovery = adopted_recovery;
  if (adopted_recovery) ++recovery_pending_;

  auto propose =
      std::make_shared<ProposeMsg>(config_.partition, ballot_, slot, value);
  propose->recovery_complete = RecoveryComplete();
  if (fl.lease_requested) {
    propose->lease_request = true;
    propose->lease_until = sim_->Now() + config_.lease_duration;
  }
  ++counters_.proposes_sent;
  SendToAll(ReplicationTargets(), propose);

  fl.timer = ScheduleSafe(config_.propose_timeout,
                            [this, slot] { RetransmitPropose(slot); });
}

void Replica::RetransmitPropose(SlotId slot) {
  auto it = inflight_.find(slot);
  if (it == inflight_.end()) return;
  InFlight& fl = it->second;
  fl.timer = 0;
  ++fl.retries;
  ++counters_.retransmits;
  if (fl.retries > config_.max_propose_retries) {
    // The declared replication quorum is unreachable. With multiple
    // declared intents we fail over to an alternate quorum (paper
    // Section 4.6); otherwise only a new Leader Election can change the
    // quorum, so we step down.
    if (quorums_->UsesIntents() &&
        active_intent_ + 1 < declared_intents_.size()) {
      ++active_intent_;
      InvalidateReplicationRule();
      DPAXOS_DEBUG("node " << id_ << " fails over to intent "
                           << active_intent_);
      for (auto& [s, f] : inflight_) f.retries = 0;
    } else {
      DPAXOS_DEBUG("node " << id_ << " cannot reach replication quorum");
      StepDown(ballot_);
      return;
    }
  }
  auto propose = std::make_shared<ProposeMsg>(config_.partition, ballot_,
                                              slot, fl.value);
  propose->recovery_complete = RecoveryComplete();
  if (fl.lease_requested) {
    propose->lease_request = true;
    propose->lease_until = sim_->Now() + config_.lease_duration;
  }
  for (NodeId t : ReplicationTargets()) {
    if (!std::binary_search(fl.acks.begin(), fl.acks.end(), t)) {
      SendTo(t, propose);
    }
  }
  fl.timer = ScheduleSafe(config_.propose_timeout,
                            [this, slot] { RetransmitPropose(slot); });
}

void Replica::OnPropose(NodeId from, const ProposeMsg& msg) {
  ObserveBallot(msg.ballot);
  ++counters_.proposes_received;
  if (msg.ballot.node != id_) ArmWatchdog();  // write traffic = liveness
  // Propose traffic reveals the acting leader — remember it for
  // forwarding.
  if (quorums_->mode() != ProtocolMode::kLeaderless) {
    leader_hint_ = msg.ballot.node;
  }
  Acceptor::ProposeOutcome out = acceptor_.OnPropose(msg, sim_->Now());
  if (!out.accepted) {
    ++counters_.accept_nacks_sent;
    SendTo(from, std::make_shared<AcceptNackMsg>(config_.partition,
                                                 msg.ballot, msg.slot,
                                                 out.promised_ballot));
    return;
  }
  if (msg.ballot > ballot_ && role_ != Role::kFollower &&
      msg.ballot.node != id_) {
    StepDown(msg.ballot);
  }
  auto accept =
      std::make_shared<AcceptMsg>(config_.partition, msg.ballot, msg.slot);
  accept->lease_vote = out.lease_vote;
  accept->lease_until = out.lease_until;
  ++counters_.accepts_sent;
  // The acceptance is durable before it is answered.
  SyncThenDeliver([this, from, accept] { SendTo(from, accept); });
}

void Replica::OnAccept(NodeId from, const AcceptMsg& msg) {
  if (msg.ballot != ballot_) return;
  auto it = inflight_.find(msg.slot);
  if (it == inflight_.end()) return;  // already decided or failed
  InFlight& fl = it->second;
  const auto pos = std::lower_bound(fl.acks.begin(), fl.acks.end(), from);
  if (pos == fl.acks.end() || *pos != from) fl.acks.insert(pos, from);
  if (msg.lease_vote) {
    Timestamp& have = lease_votes_[from];
    have = std::max(have, msg.lease_until);
    RecomputeLeaseExpiry();
  }
  if (ReplicationRule().IsSatisfiedSorted(fl.acks)) {
    Decide(msg.slot);
  }
}

void Replica::OnAcceptNack(NodeId from, const AcceptNackMsg& msg) {
  (void)from;
  ObserveBallot(msg.promised);
  if (msg.ballot != ballot_) return;
  if (inflight_.count(msg.slot) == 0) return;
  StepDown(msg.promised);
}

void Replica::Decide(SlotId slot) {
  auto it = inflight_.find(slot);
  DPAXOS_CHECK(it != inflight_.end());
  InFlight fl = std::move(it->second);
  inflight_.erase(it);
  if (fl.timer != 0) sim_->Cancel(fl.timer);
  if (fl.adopted_recovery) {
    DPAXOS_CHECK_GT(recovery_pending_, 0u);
    if (--recovery_pending_ == 0) OnRecoveryProgress();
  }

  const Value& value = fl.value;
  LearnDecided(slot, value);
  if (fl.cb) {
    // Under the lease fence the ack waits for watermark coverage; in
    // every other configuration DeferOrAck fires it inline here.
    DeferOrAck(slot, [this, cb = std::move(fl.cb), slot, start = fl.start] {
      cb(Status::OK(), slot, sim_->Now() - start);
    });
  }
  AnnounceDecide(slot, value);
  DrainPending();
}

void Replica::AnnounceDecide(SlotId slot, const Value& value) {
  // Commit notification to learners.
  std::vector<NodeId> learners;
  switch (config_.decide_policy) {
    case DecidePolicy::kNone:
      break;
    case DecidePolicy::kQuorum:
      learners = ReplicationTargets();
      break;
    case DecidePolicy::kZone:
      learners = topology_->NodesInZone(topology_->ZoneOf(id_));
      break;
    case DecidePolicy::kAll:
      learners = topology_->AllNodes();
      break;
  }
  if (!learners.empty()) {
    auto decide = std::make_shared<DecideMsg>(config_.partition, slot, value);
    for (NodeId t : learners) {
      if (t != id_) SendTo(t, decide);
    }
  }
}

void Replica::OnDecide(NodeId from, const DecideMsg& msg) {
  (void)from;
  LearnDecided(msg.slot, msg.value);
}

// Upper bound on how far beyond the local watermark a decide slot may
// land. Legitimate run-ahead is the in-flight window (tens of slots);
// anything past this is a corrupt-but-parseable slot field, and feeding
// it to DecidedLog would force an allocation proportional to the gap.
constexpr SlotId kMaxDecideHorizon = 1u << 20;

void Replica::LearnDecided(SlotId slot, const Value& value) {
  if (slot < log_start_) return;  // baked into an installed snapshot
  if (slot > watermark_ && slot - watermark_ > kMaxDecideHorizon) {
    // Reached from OnDecide/OnLearnReply with unauthenticated fields: a
    // bit flip in the slot can clear any bound. Dropping a real decide
    // is always safe (the anti-entropy sweep re-learns it); crashing on
    // a deque resize of 2^50 cells is not.
    ++counters_.suspect_msgs_rejected;
    DPAXOS_WARN("node " << id_ << " rejected decide in implausible slot "
                        << slot << " (watermark " << watermark_ << ")");
    return;
  }
  auto [it, inserted] = decided_.emplace(slot, value);
  if (!inserted) {
    if (it->second != value) {
      // Either an agreement violation (protocol bug) or a corrupted
      // value field on the wire — indistinguishable here, so drop and
      // count rather than abort; the harnesses' cluster-checksum
      // convergence check is the agreement oracle for both tiers.
      ++counters_.suspect_msgs_rejected;
      DPAXOS_WARN("node " << id_ << " dropped conflicting decision in slot "
                          << slot);
    }
    return;
  }
  // Advance over the contiguous decided run; each step is one O(1)
  // window probe.
  while (decided_.Contains(watermark_)) ++watermark_;
  FlushDeferredAcks();
  if (decide_cb_) decide_cb_(slot, value);
}

void Replica::DeferOrAck(SlotId slot, std::function<void()> ack) {
  if (!(config_.enable_leases && config_.enable_fast_path) ||
      watermark_ > slot) {
    ack();
    return;
  }
  deferred_acks_.emplace(slot, std::move(ack));
}

void Replica::FlushDeferredAcks() {
  while (!deferred_acks_.empty() &&
         deferred_acks_.begin()->first < watermark_) {
    auto fn = std::move(deferred_acks_.begin()->second);
    deferred_acks_.erase(deferred_acks_.begin());
    fn();  // may reenter (FinishForward -> client resubmit); entry gone
  }
}

void Replica::DrainPending() {
  const size_t window = std::max(config_.max_inflight, 1u);
  while (!pending_.empty() && inflight_.size() < window &&
         (role_ == Role::kLeader ||
          quorums_->mode() == ProtocolMode::kLeaderless)) {
    auto [value, cb] = std::move(pending_.front());
    pending_.pop_front();
    SlotId slot;
    if (quorums_->mode() == ProtocolMode::kLeaderless) {
      slot = leaderless_next_;
      leaderless_next_ += config_.leaderless_total;
    } else {
      slot = next_slot_++;
    }
    StartPropose(slot, std::move(value), std::move(cb));
  }
}

void Replica::StepDown(const Ballot& preemptor) {
  ObserveBallot(preemptor);
  if (quorums_->mode() == ProtocolMode::kLeaderless) return;
  ++counters_.step_downs;
  DPAXOS_DEBUG("node " << id_ << " steps down (preempted by "
                       << preemptor.ToString() << ")");
  role_ = Role::kFollower;
  if (preemptor.node != id_ && !preemptor.is_null()) {
    leader_hint_ = preemptor.node;
  }
  lease_until_ = 0;
  lease_votes_.clear();
  // The fast-slot tracker is a leader structure; a deposed leader's
  // unresolved fast votes are recovered by the next election. The grant
  // itself stays: completed unanimities under it remain safe and visible
  // to any later election (docs/PROTOCOL.md §fast-path).
  ClearFastSlots();
  FailInFlight(Status::Aborted("leadership preempted"));
  auto queued = std::move(pending_);
  pending_.clear();
  for (auto& [v, cb] : queued) cb(Status::Aborted("leadership preempted"),
                                  kInvalidSlot, 0);
}

void Replica::FailInFlight(const Status& status) {
  recovery_pending_ = 0;
  auto inflight = std::move(inflight_);
  inflight_.clear();
  for (auto& [slot, fl] : inflight) {
    if (fl.timer != 0) sim_->Cancel(fl.timer);
    if (fl.cb) fl.cb(status, slot, sim_->Now() - fl.start);
  }
}

// -----------------------------------------------------------------------
// Read leases (paper Section 4.5)

void Replica::RecomputeLeaseExpiry() {
  // The lease holds until t iff the nodes whose lease votes extend past t
  // satisfy the replication quorum rule. Scan vote expiries descending.
  std::vector<Timestamp> expiries;
  expiries.reserve(lease_votes_.size());
  for (const auto& [n, t] : lease_votes_) expiries.push_back(t);
  std::sort(expiries.rbegin(), expiries.rend());
  const QuorumRule& rule = ReplicationRule();
  for (Timestamp t : expiries) {
    std::set<NodeId> voters;
    for (const auto& [n, exp] : lease_votes_) {
      if (exp >= t) voters.insert(n);
    }
    if (rule.IsSatisfied(voters)) {
      lease_until_ = std::max(lease_until_, t);
      return;
    }
  }
}

bool Replica::CanServeLocalRead() const {
  return role_ == Role::kLeader && config_.enable_leases &&
         lease_until_ > sim_->Now();
}

bool Replica::CanServeQuorumRead() const {
  if (!config_.enable_quorum_reads || !config_.enable_leases) return false;
  if (CanServeLocalRead()) return true;  // the leader always qualifies
  // A member that granted the active lease sees every write (the intent
  // requires all members to accept). It may answer reads only when its
  // learned prefix covers everything it has accepted: a write committed
  // before this read started was accepted here earlier, so either it is
  // below the watermark (learned, visible) or it would show up as a
  // pending accepted entry and block the read.
  if (!acceptor_.HasActiveLease(sim_->Now())) return false;
  if (acceptor_.accepted_count() == 0) return watermark_ == 0;
  return acceptor_.HighestAcceptedSlot() < watermark_;
}

// -----------------------------------------------------------------------
// Leader Handoff (paper Section 4.4)

Status Replica::HandoffTo(NodeId new_leader) {
  if (role_ != Role::kLeader) {
    return Status::FailedPrecondition("only a leader can relinquish");
  }
  if (!inflight_.empty() || !pending_.empty()) {
    return Status::FailedPrecondition("in-flight proposals pending");
  }
  if (new_leader == id_) {
    return Status::InvalidArgument("cannot hand off to self");
  }
  if (config_.enable_fast_path && fast_grant_.valid() &&
      fast_grant_.ballot == ballot_) {
    // A handoff continues the same ballot with no promise barrier, so the
    // new leader could classic-propose over a fast commit it never saw.
    // Refusing forces the requester into an election, whose prepare round
    // observes every fast vote.
    return Status::FailedPrecondition("fast grant outstanding; elect instead");
  }
  auto msg = std::make_shared<RelinquishMsg>(
      config_.partition, ballot_, next_slot_, declared_intents_, lz_view_);
  SendTo(new_leader, msg);
  // After sending relinquish(), the old leader refrains from acting as a
  // leader for the relinquished slots — even if the message is lost.
  ++counters_.handoffs_sent;
  role_ = Role::kFollower;
  DPAXOS_DEBUG("node " << id_ << " relinquished leadership to "
                       << new_leader);
  return Status::OK();
}

void Replica::RequestHandoffFrom(NodeId old_leader, StatusCallback cb) {
  if (role_ == Role::kLeader) {
    cb(Status::OK());
    return;
  }
  if (handoff_cb_) {
    cb(Status::Aborted("handoff already in progress"));
    return;
  }
  handoff_cb_ = std::move(cb);
  SendTo(old_leader, std::make_shared<HandoffRequestMsg>(config_.partition));
  handoff_timer_ = ScheduleSafe(config_.propose_timeout, [this] {
    handoff_timer_ = 0;
    if (handoff_cb_) {
      // Lost request or relinquish: neither node may lead now; the
      // caller must fall back to a Leader Election (paper Section 4.4).
      auto cb = std::move(handoff_cb_);
      handoff_cb_ = nullptr;
      cb(Status::TimedOut("handoff timed out; leader election required"));
    }
  });
}

void Replica::OnHandoffRequest(NodeId from, const HandoffRequestMsg& msg) {
  (void)msg;
  if (role_ != Role::kLeader) return;
  const Status st = HandoffTo(from);
  if (!st.ok()) {
    DPAXOS_DEBUG("node " << id_ << " refuses handoff: " << st.ToString());
  }
}

void Replica::OnRelinquish(NodeId from, const RelinquishMsg& msg) {
  (void)from;
  ObserveBallot(msg.ballot);
  AdoptView(msg.lz_view);
  if (role_ == Role::kLeader) return;  // already leading; ignore
  if (acceptor_.promised() > msg.ballot) {
    // A higher ballot superseded this leadership line; assuming it would
    // only produce doomed proposals.
    return;
  }
  if (!acceptor_.ConsumeRelinquish(msg.ballot)) {
    // Duplicate delivery (or a replay after we already consumed this
    // handoff and possibly lost the role again): never re-activate.
    return;
  }
  if (role_ == Role::kCandidate && election_ != nullptr) {
    // The relinquish supersedes our own election attempt.
    if (election_->timer != 0) sim_->Cancel(election_->timer);
    StatusCallback cb = std::move(election_->cb);
    election_.reset();
    if (cb) cb(Status::OK());
  }
  ++counters_.handoffs_received;
  role_ = Role::kLeader;
  ballot_ = msg.ballot;
  next_slot_ = msg.next_slot;
  recovery_pending_ = 0;  // the old leader only relinquishes when idle
  // The new leader may only use the relinquished leader's declared
  // replication quorums (restriction under Expanding Quorums).
  declared_intents_ = msg.intents;
  active_intent_ = 0;
  InvalidateReplicationRule();
  if (config_.enable_failure_detector) {
    if (watchdog_timer_ != 0) {
      sim_->Cancel(watchdog_timer_);
      watchdog_timer_ = 0;
    }
    SendHeartbeats();
  }
  lease_votes_.clear();
  lease_until_ = 0;
  DPAXOS_DEBUG("node " << id_ << " received leadership via handoff, ballot "
                       << ballot_.ToString());
  if (handoff_cb_) {
    if (handoff_timer_ != 0) sim_->Cancel(handoff_timer_);
    handoff_timer_ = 0;
    auto cb = std::move(handoff_cb_);
    handoff_cb_ = nullptr;
    cb(Status::OK());
  }
  DrainPending();
}

// -----------------------------------------------------------------------
// Partition ownership steals (docs/PROTOCOL.md §ownership)

void Replica::StealOwnershipFrom(NodeId incumbent, Value transfer_record,
                                 StatusCallback cb) {
  if (steal_cb_) {
    if (cb) cb(Status::Aborted("steal already in progress"));
    return;
  }
  if (incumbent == id_) {
    if (cb) cb(Status::InvalidArgument("cannot steal from self"));
    return;
  }
  steal_cb_ = std::move(cb);
  steal_record_ = std::move(transfer_record);
  if (role_ == Role::kLeader) {
    // Degenerate steal: we already hold the log (e.g. a directory lagging
    // a crash-recovery election). Just commit the transfer record.
    StealElectAndRecord();
    return;
  }
  ++counters_.steal_requests_sent;
  SendTo(incumbent,
         std::make_shared<StealRequestMsg>(config_.partition, ballot_, zone(),
                                           /*invite=*/false));
  steal_timer_ = ScheduleSafe(config_.propose_timeout, [this] {
    steal_timer_ = 0;
    if (!steal_cb_) return;
    // Lost request, lost grant, or incumbent crash mid-handoff. If the
    // incumbent fenced before dying, nobody leads now; if our request
    // never arrived, the election preempts the incumbent by ballot
    // order. Either way an ordinary Leader Election is safe and
    // sufficient (docs/PROTOCOL.md §ownership).
    StealElectAndRecord();
  });
}

void Replica::InviteSteal(NodeId thief) {
  if (thief == id_) return;
  SendTo(thief, std::make_shared<StealRequestMsg>(config_.partition, ballot_,
                                                  zone(), /*invite=*/true));
}

void Replica::OnStealRequest(NodeId from, const StealRequestMsg& msg) {
  ++counters_.steal_requests_received;
  ObserveBallot(msg.ballot);
  if (msg.invite) {
    // Incumbent -> would-be thief invitation (placement sweep). Acting on
    // it is the host's decision; mid-steal or already-leading replicas
    // ignore it.
    if (steal_invite_cb_ && !steal_cb_ && role_ != Role::kLeader) {
      steal_invite_cb_(from);
    }
    return;
  }
  StealRefusal refusal = StealRefusal::kNone;
  if (role_ != Role::kLeader) {
    refusal = StealRefusal::kNotLeader;
  } else if (!inflight_.empty() || !pending_.empty()) {
    refusal = StealRefusal::kBusy;
  } else if (config_.enable_fast_path && fast_grant_.valid() &&
             fast_grant_.ballot == ballot_) {
    // Same hazard as HandoffTo: with a fast grant outstanding there may
    // be fast commits only an election's prepare round observes, so the
    // thief must win one rather than inherit the regime.
    refusal = StealRefusal::kFastGrant;
  }
  if (refusal != StealRefusal::kNone) {
    ++counters_.steals_refused;
    SendTo(from, std::make_shared<OwnershipGrantMsg>(
                     config_.partition, /*granted=*/false, refusal, ballot_,
                     next_slot_, DecidedWatermark(), /*snapshot_ready=*/false,
                     role_ == Role::kLeader ? id_ : leader_hint_));
    return;
  }
  auto grant = std::make_shared<OwnershipGrantMsg>(
      config_.partition, /*granted=*/true, StealRefusal::kNone, ballot_,
      next_slot_, DecidedWatermark(), snapshot_serve_ready(), id_);
  SendTo(from, grant);
  ++counters_.steals_granted;
  // Fence: after the grant is sent this replica stops acting as leader
  // even if the grant is lost — the relinquish discipline. Unlike a
  // handoff, leadership itself transfers by the thief's election, whose
  // prepare round supersedes this ballot.
  role_ = Role::kFollower;
  leader_hint_ = from;
  DPAXOS_DEBUG("node " << id_ << " granted ownership steal to " << from);
}

void Replica::OnOwnershipGrant(NodeId from, const OwnershipGrantMsg& msg) {
  ObserveBallot(msg.ballot);
  if (!steal_cb_) return;  // stale or duplicate grant
  if (steal_timer_ != 0) {
    sim_->Cancel(steal_timer_);
    steal_timer_ = 0;
  }
  if (!msg.granted) {
    if (msg.leader_hint != kInvalidNode && msg.leader_hint != id_) {
      leader_hint_ = msg.leader_hint;
    }
    const char* why = msg.reason == StealRefusal::kNotLeader ? "not leader"
                      : msg.reason == StealRefusal::kBusy
                          ? "in-flight proposals pending"
                          : "fast grant outstanding";
    FinishSteal(Status::FailedPrecondition(std::string("steal refused: ") +
                                           why));
    return;
  }
  // The incumbent fenced its log. Catch up to its decided prefix before
  // electing, so the election adopts little and the transfer record
  // lands right at the fence; a failed catch-up is not fatal because the
  // prepare round adopts whatever we missed.
  const SlotId mine = DecidedWatermark();
  const uint64_t gap = msg.decided_size > mine ? msg.decided_size - mine : 0;
  StatusCallback next = [this](const Status&) { StealElectAndRecord(); };
  if (msg.snapshot_ready && snapshot_transfer_ready() &&
      gap >= config_.steal_snapshot_min_slots) {
    CatchUpViaSnapshot({from}, std::move(next));
  } else if (gap > 0) {
    CatchUpFrom(from, std::move(next));
  } else {
    StealElectAndRecord();
  }
}

void Replica::StealElectAndRecord() {
  TryBecomeLeader([this](const Status& st) {
    if (!st.ok()) {
      FinishSteal(st);
      return;
    }
    ++counters_.steals_won;
    Value record = std::move(steal_record_);
    steal_record_ = Value();
    Submit(std::move(record),
           [this](const Status& cst, SlotId, Duration) { FinishSteal(cst); });
  });
}

void Replica::FinishSteal(const Status& status) {
  if (steal_timer_ != 0) {
    sim_->Cancel(steal_timer_);
    steal_timer_ = 0;
  }
  steal_record_ = Value();
  if (!steal_cb_) return;
  auto cb = std::move(steal_cb_);
  steal_cb_ = nullptr;
  cb(status);
}

// -----------------------------------------------------------------------
// Request forwarding (remote clients)

void Replica::SubmitOrForward(Value value, CommitCallback cb) {
  // Fast path: with a grant armed, skip the leader relay and send the
  // value straight to the fast quorum's acceptors; any nack, conflict or
  // timeout falls back to the classic forward below (same request id).
  if (config_.enable_fast_path && !is_leader() &&
      quorums_->mode() != ProtocolMode::kLeaderless && fast_grant_.valid()) {
    const uint64_t request_id = next_forward_id_++;
    PendingForward& fw = pending_forwards_[request_id];
    fw.value = std::move(value);
    const Timestamp submitted = sim_->Now();
    fw.cb = [this, submitted, inner = std::move(cb)](
                const Status& st, SlotId slot, Duration) {
      if (inner) inner(st, slot, sim_->Now() - submitted);
    };
    StartFastAttempt(request_id);
    return;
  }
  if (is_leader() || quorums_->mode() == ProtocolMode::kLeaderless ||
      leader_hint_ == kInvalidNode || leader_hint_ == id_) {
    Submit(std::move(value), std::move(cb));
    return;
  }
  // Latency is end-to-end at the origin: forward + commit + reply.
  const uint64_t request_id = next_forward_id_++;
  PendingForward& fw = pending_forwards_[request_id];
  fw.value = std::move(value);
  const Timestamp submitted = sim_->Now();
  fw.cb = [this, submitted, inner = std::move(cb)](
              const Status& st, SlotId slot, Duration) {
    if (inner) inner(st, slot, sim_->Now() - submitted);
  };
  SendForward(request_id);
}

void Replica::SendForward(uint64_t request_id) {
  auto it = pending_forwards_.find(request_id);
  DPAXOS_CHECK(it != pending_forwards_.end());
  PendingForward& fw = it->second;
  SendTo(leader_hint_, std::make_shared<ForwardMsg>(config_.partition,
                                                    request_id, fw.value));
  fw.timer = ScheduleSafe(config_.propose_timeout, [this, request_id] {
    auto it2 = pending_forwards_.find(request_id);
    if (it2 == pending_forwards_.end()) return;
    it2->second.timer = 0;
    if (++it2->second.attempts > config_.max_propose_retries) {
      FinishForward(request_id,
                    Status::TimedOut("forwarded request timed out"),
                    kInvalidSlot);
      return;
    }
    SendForward(request_id);
  });
}

void Replica::FinishForward(uint64_t request_id, const Status& status,
                            SlotId slot) {
  CancelFastAttempt(request_id);  // the request is resolved either way
  auto it = pending_forwards_.find(request_id);
  if (it == pending_forwards_.end()) return;
  PendingForward fw = std::move(it->second);
  pending_forwards_.erase(it);
  if (fw.timer != 0) sim_->Cancel(fw.timer);
  if (fw.cb) fw.cb(status, slot, 0);
}

void Replica::OnForward(NodeId from, const ForwardMsg& msg) {
  const uint64_t request_id = msg.request_id;
  if (!is_leader() && quorums_->mode() != ProtocolMode::kLeaderless &&
      leader_hint_ != kInvalidNode && leader_hint_ != id_) {
    // Never forward a forward (no chains): redirect to the better hint.
    // Without one we fall through to Submit below, which elects us if
    // the configuration allows (auto_elect_on_submit).
    auto reply =
        std::make_shared<ForwardReplyMsg>(config_.partition, request_id);
    reply->code = StatusCode::kFailedPrecondition;
    reply->leader_hint = leader_hint_;
    ++counters_.redirects_sent;
    SendTo(from, reply);
    return;
  }
  ++counters_.forwards_handled;
  Submit(msg.value, [this, from, request_id](const Status& st, SlotId slot,
                                             Duration /*latency*/) {
    auto reply =
        std::make_shared<ForwardReplyMsg>(config_.partition, request_id);
    reply->code = st.code();
    reply->slot = slot;
    reply->leader_hint = is_leader() ? id_ : leader_hint_;
    SendTo(from, reply);
  });
}

void Replica::OnForwardReply(NodeId from, const ForwardReplyMsg& msg) {
  (void)from;
  // A reply for a live fast attempt resolves it: OK means the leader's
  // tracker committed for us; anything else (a conflict-loser bounce) is
  // a fallback, and the retry logic below re-drives it classically.
  if (auto fa = fast_attempts_.find(msg.request_id);
      fa != fast_attempts_.end()) {
    if (fa->second.timer != 0) sim_->Cancel(fa->second.timer);
    fast_attempts_.erase(fa);
    if (msg.code != StatusCode::kOk) {
      ++counters_.fast_fallbacks;
    } else {
      // Leader-acked fast commit: the safety-net reply resolved the
      // attempt before (or instead of, under enable_leases) our own
      // tally.
      ++counters_.fast_commits;
    }
  }
  auto it = pending_forwards_.find(msg.request_id);
  if (it == pending_forwards_.end()) return;  // duplicate / late reply
  if (msg.code == StatusCode::kOk) {
    FinishForward(msg.request_id, Status::OK(), msg.slot);
    return;
  }
  // Redirect or transient failure: retry against the fresher hint.
  if (msg.leader_hint != kInvalidNode && msg.leader_hint != id_) {
    leader_hint_ = msg.leader_hint;
  }
  PendingForward& fw = it->second;
  if (fw.timer != 0) sim_->Cancel(fw.timer);
  fw.timer = 0;
  if (++fw.attempts > config_.max_propose_retries ||
      leader_hint_ == kInvalidNode) {
    FinishForward(msg.request_id,
                  Status::Unavailable("no reachable leader (last: " +
                                      std::string(StatusCodeToString(
                                          msg.code)) +
                                      ")"),
                  kInvalidSlot);
    return;
  }
  if (leader_hint_ == id_) {
    // We are supposedly the leader now; commit locally.
    PendingForward local = std::move(fw);
    pending_forwards_.erase(it);
    Submit(std::move(local.value),
           [cb = std::move(local.cb)](const Status& st, SlotId slot,
                                      Duration d) { cb(st, slot, d); });
    return;
  }
  SendForward(msg.request_id);
}

// -----------------------------------------------------------------------
// Fast path (enable_fast_path; docs/PROTOCOL.md §fast-path)

void Replica::StartFastAttempt(uint64_t request_id) {
  auto fw = pending_forwards_.find(request_id);
  DPAXOS_CHECK(fw != pending_forwards_.end());
  FastAttempt& fa = fast_attempts_[request_id];
  fa.ballot = fast_grant_.ballot;
  fa.quorum_size = fast_grant_.quorum.size();
  auto msg = std::make_shared<FastAcceptMsg>(
      config_.partition, fast_grant_.ballot, request_id, fw->second.value);
  // One round trip: straight to the fast quorum's acceptors (the leader
  // is a member and tracks votes from its own copy's replies).
  SendToAll(fast_grant_.quorum, msg);
  fa.timer = ScheduleSafe(FastTimeout(), [this, request_id] {
    auto it = fast_attempts_.find(request_id);
    if (it == fast_attempts_.end()) return;
    it->second.timer = 0;
    FastFallback(request_id);
  });
}

void Replica::FastFallback(uint64_t request_id) {
  auto it = fast_attempts_.find(request_id);
  if (it == fast_attempts_.end()) return;
  if (it->second.timer != 0) sim_->Cancel(it->second.timer);
  fast_attempts_.erase(it);
  ++counters_.fast_fallbacks;
  auto fw = pending_forwards_.find(request_id);
  if (fw == pending_forwards_.end()) return;  // already resolved
  if (!is_leader() && quorums_->mode() != ProtocolMode::kLeaderless &&
      leader_hint_ != kInvalidNode && leader_hint_ != id_) {
    SendForward(request_id);  // classic relay, same request id
    return;
  }
  // No usable hint (or we got elected meanwhile): commit locally.
  PendingForward local = std::move(fw->second);
  pending_forwards_.erase(fw);
  if (local.timer != 0) sim_->Cancel(local.timer);
  Submit(std::move(local.value), std::move(local.cb));
}

void Replica::CancelFastAttempt(uint64_t request_id) {
  auto it = fast_attempts_.find(request_id);
  if (it == fast_attempts_.end()) return;
  if (it->second.timer != 0) sim_->Cancel(it->second.timer);
  fast_attempts_.erase(it);
}

void Replica::OnFastGrant(NodeId from, const FastGrantMsg& msg) {
  (void)from;
  ObserveBallot(msg.ballot);
  if (!config_.enable_fast_path) return;
  if (fast_grant_.valid() && msg.ballot < fast_grant_.ballot) return;
  // Prepare-lite: promising the grant ballot keeps a deposed leader's
  // classic proposals from landing under fast votes it cannot see.
  if (acceptor_.PromiseAtLeast(msg.ballot) && sync_hook_) sync_hook_();
  if (msg.ballot > ballot_ && role_ != Role::kFollower &&
      msg.ballot.node != id_) {
    StepDown(msg.ballot);
  }
  if (quorums_->mode() != ProtocolMode::kLeaderless) {
    leader_hint_ = msg.ballot.node;
  }
  fast_grant_.ballot = msg.ballot;
  fast_grant_.first_slot = msg.first_slot;
  fast_grant_.quorum = msg.quorum;
  DPAXOS_CHECK(std::is_sorted(fast_grant_.quorum.begin(),
                              fast_grant_.quorum.end()));
}

void Replica::OnFastAccept(NodeId from, const FastAcceptMsg& msg) {
  ObserveBallot(msg.ballot);
  const bool eligible =
      config_.enable_fast_path && fast_grant_.valid() &&
      msg.ballot == fast_grant_.ballot &&
      std::binary_search(fast_grant_.quorum.begin(), fast_grant_.quorum.end(),
                         id_);
  Acceptor::FastVoteOutcome out;
  if (eligible) {
    // Fence fast votes above every slot committed below the grant ballot
    // (first_slot) and above what this node already knows decided; the
    // leader additionally fences its own classic allocation cursor so a
    // concurrent classic propose never lands under a local fast vote.
    SlotId min_slot = std::max(fast_grant_.first_slot, watermark_);
    if (role_ == Role::kLeader) min_slot = std::max(min_slot, next_slot_);
    out = acceptor_.OnFastAccept(msg.ballot, msg.value, min_slot);
  } else {
    out.promised_ballot = acceptor_.promised();
  }
  if (!out.voted) {
    auto nack = std::make_shared<FastNackMsg>(
        config_.partition, msg.ballot, out.promised_ballot, msg.request_id);
    nack->leader_hint = leader_hint_;
    SendTo(from, nack);
    return;
  }
  ++counters_.fast_votes;
  if (role_ == Role::kLeader) {
    next_slot_ = std::max(next_slot_, out.slot + 1);
  }
  auto reply = std::make_shared<FastAcceptedMsg>(
      config_.partition, msg.ballot, out.slot, from, msg.request_id,
      msg.value);
  const NodeId leader = fast_grant_.ballot.node;
  // The vote is durable before it is answered.
  SyncThenDeliver([this, from, leader, reply] {
    SendTo(from, reply);
    // The grant leader tracks every vote (unanimity and conflicts); our
    // own copy reaches the local tracker through the loopback transport.
    if (leader != from) SendTo(leader, reply);
  });
}

void Replica::OnFastAccepted(NodeId from, const FastAcceptedMsg& msg) {
  ObserveBallot(msg.ballot);
  // Proposer-side tally (this copy was addressed to the proposer).
  if (msg.proposer == id_) {
    auto it = fast_attempts_.find(msg.request_id);
    if (it != fast_attempts_.end() && msg.ballot == it->second.ballot) {
      FastAttempt& fa = it->second;
      fa.voters.insert(from);
      std::set<NodeId>& slot_votes = fa.votes[msg.slot];
      slot_votes.insert(from);
      if (slot_votes.size() >= fa.quorum_size) {
        if (config_.enable_leases) {
          // Lease-local reads serve the leaseholder's decided prefix,
          // so the commit point must be the LEADER's unanimity: an
          // origin-side ack here could let the client read at the
          // leaseholder before the leader observed the final vote.
          // Wait for the safety-net ForwardReply (OnForwardReply
          // finishes; the attempt timer still guards liveness).
          return;
        }
        // Unanimity on one slot: committed in a single round trip.
        if (fa.timer != 0) sim_->Cancel(fa.timer);
        fast_attempts_.erase(it);
        ++counters_.fast_commits;
        FinishForward(msg.request_id, Status::OK(), msg.slot);
        return;
      }
      if (fa.voters.size() >= fa.quorum_size) {
        // Every member voted, but across different slots: unanimity is
        // now impossible — do not wait out the timer.
        FastFallback(msg.request_id);
        return;
      }
    }
  }
  // Leader-side tracker (this copy was addressed to the grant leader).
  if (role_ == Role::kLeader && msg.ballot == ballot_) {
    TrackFastVote(from, msg.slot, msg.value, msg.proposer, msg.request_id);
  }
}

void Replica::OnFastNack(NodeId from, const FastNackMsg& msg) {
  (void)from;
  ObserveBallot(msg.promised);
  if (fast_attempts_.count(msg.request_id) == 0) return;
  if (msg.leader_hint != kInvalidNode && msg.leader_hint != id_) {
    leader_hint_ = msg.leader_hint;
  }
  FastFallback(msg.request_id);
}

void Replica::TrackFastVote(NodeId voter, SlotId slot, const Value& value,
                            NodeId proposer, uint64_t request_id) {
  if (!fast_grant_.valid() || fast_grant_.ballot != ballot_) return;
  if (!std::binary_search(fast_grant_.quorum.begin(),
                          fast_grant_.quorum.end(), voter)) {
    return;
  }
  if (decided_.count(slot) > 0) return;  // already resolved
  FastSlot& fs = fast_slots_[slot];
  fs.votes[voter] = value.id;
  fs.values.emplace(value.id, value);
  fs.origins.emplace(value.id, std::make_pair(proposer, request_id));
  if (fs.timer == 0) {
    // Liveness net: a slot that never reaches unanimity (lost votes,
    // nacked members) is resolved classically so the log has no holes.
    fs.timer = ScheduleSafe(FastTimeout(), [this, slot] {
      auto it = fast_slots_.find(slot);
      if (it == fast_slots_.end()) return;
      it->second.timer = 0;
      ResolveFastSlot(slot);
    });
  }
  if (fs.values.size() > 1) {
    ResolveFastSlot(slot);  // two values on one slot: conflict
    return;
  }
  if (fs.votes.size() >= fast_grant_.quorum.size()) {
    // Unanimous: committed. (Our own acceptor is a member, so its vote —
    // which advanced next_slot_ — is part of this count.)
    FastSlot done = std::move(fs);
    fast_slots_.erase(slot);
    if (done.timer != 0) sim_->Cancel(done.timer);
    next_slot_ = std::max(next_slot_, slot + 1);
    const Value v = done.values.begin()->second;
    LearnDecided(slot, v);
    AnnounceDecide(slot, v);
    // Safety net: resolve the proposer's forward even if its own tally
    // copies were lost (duplicate replies are ignored there). Under the
    // lease fence this reply IS the commit ack, so it too waits for
    // watermark coverage.
    DeferOrAck(slot, [this, proposer, request_id, slot] {
      auto reply =
          std::make_shared<ForwardReplyMsg>(config_.partition, request_id);
      reply->code = StatusCode::kOk;
      reply->slot = slot;
      reply->leader_hint = id_;
      SendTo(proposer, reply);
    });
    DrainPending();
  }
}

void Replica::ResolveFastSlot(SlotId slot) {
  auto it = fast_slots_.find(slot);
  if (it == fast_slots_.end()) return;
  FastSlot fs = std::move(it->second);
  fast_slots_.erase(it);
  if (fs.timer != 0) sim_->Cancel(fs.timer);
  if (role_ != Role::kLeader) return;  // a later election recovers
  if (fs.values.size() > 1) ++counters_.fast_conflicts;

  const bool slot_taken =
      decided_.count(slot) > 0 || inflight_.count(slot) > 0;
  // Winner: the value our own acceptor fast-voted here if any (every
  // fast-committable value must include our vote), else the smallest
  // value id — deterministic without any RNG draw.
  uint64_t winner_id = fs.values.begin()->first;
  const AcceptedEntry* own = acceptor_.AcceptedFor(slot);
  if (own != nullptr && own->fast && own->ballot == ballot_ &&
      fs.values.count(own->value.id) > 0) {
    winner_id = own->value.id;
  }
  // Bounce the losers (and, if the slot is already spoken for, everyone)
  // back to their proposers: they re-drive the same request classically,
  // which avoids committing a fallback value twice.
  for (const auto& [vid, origin] : fs.origins) {
    if (!slot_taken && vid == winner_id) continue;
    auto reply =
        std::make_shared<ForwardReplyMsg>(config_.partition, origin.second);
    reply->code = StatusCode::kAborted;
    reply->leader_hint = id_;
    SendTo(origin.first, reply);
  }
  if (slot_taken) return;

  next_slot_ = std::max(next_slot_, slot + 1);
  Value winner = fs.values.at(winner_id);
  CommitCallback cb = IgnoreCommit;
  if (auto origin = fs.origins.find(winner_id); origin != fs.origins.end()) {
    const NodeId prop = origin->second.first;
    const uint64_t rid = origin->second.second;
    cb = [this, prop, rid](const Status& st, SlotId s, Duration) {
      auto reply = std::make_shared<ForwardReplyMsg>(config_.partition, rid);
      reply->code = st.code();
      reply->slot = s;
      reply->leader_hint = id_;
      SendTo(prop, reply);
    };
  }
  StartPropose(slot, std::move(winner), std::move(cb));
}

void Replica::ClearFastSlots() {
  for (auto& [slot, fs] : fast_slots_) {
    if (fs.timer != 0) sim_->Cancel(fs.timer);
  }
  fast_slots_.clear();
}

// -----------------------------------------------------------------------
// Learner catch-up, log truncation and snapshots

void Replica::CatchUpFrom(NodeId peer, StatusCallback cb) {
  CatchUpFrom(std::vector<NodeId>{peer}, std::move(cb));
}

void Replica::CatchUpFrom(std::vector<NodeId> peers, StatusCallback cb) {
  if (catchup_ != nullptr) {
    cb(Status::Aborted("catch-up already in progress"));
    return;
  }
  std::erase(peers, id_);
  if (peers.empty()) {
    cb(Status::InvalidArgument("cannot catch up from self"));
    return;
  }
  catchup_ = std::make_unique<CatchUp>();
  catchup_->peers = std::move(peers);
  catchup_->cb = std::move(cb);
  CatchUpRequestNext();
}

void Replica::CatchUpViaSnapshot(std::vector<NodeId> peers, StatusCallback cb) {
  if (snapshot_installer_ == nullptr) {
    // No installer wired: degrade to the ordinary log-page path.
    CatchUpFrom(std::move(peers), std::move(cb));
    return;
  }
  if (catchup_ != nullptr) {
    cb(Status::Aborted("catch-up already in progress"));
    return;
  }
  std::erase(peers, id_);
  if (peers.empty()) {
    cb(Status::InvalidArgument("cannot catch up from self"));
    return;
  }
  catchup_ = std::make_unique<CatchUp>();
  catchup_->peers = std::move(peers);
  catchup_->cb = std::move(cb);
  catchup_->snapshotting = true;
  CatchUpRequestNext();
}

void Replica::CatchUpRequestNext() {
  DPAXOS_CHECK(catchup_ != nullptr);
  CatchUp& cu = *catchup_;
  if (cu.snapshotting) {
    SendTo(cu.peer(), std::make_shared<SnapshotRequestMsg>(
                          config_.partition, cu.snap_buffer.size()));
  } else {
    SendTo(cu.peer(), std::make_shared<LearnRequestMsg>(
                          config_.partition, watermark_, kCatchUpPageSize));
  }
  CatchUpArmTimer();
}

void Replica::CatchUpArmTimer() {
  catchup_->timer =
      ScheduleSafe(config_.propose_timeout, [this] { CatchUpTimeout(); });
}

void Replica::CatchUpTimeout() {
  if (catchup_ == nullptr) return;
  CatchUp& cu = *catchup_;
  cu.timer = 0;
  if (++cu.attempts > config_.catchup_retry_limit) {
    CatchUpFailover(Status::TimedOut("catch-up peer unresponsive"));
    return;
  }
  if (config_.catchup_backoff_base == 0) {
    // Legacy spacing: the propose_timeout wait itself paces retries.
    CatchUpRequestNext();
    return;
  }
  // Jittered exponential backoff from the dedicated catch-up stream
  // (rng_ draws would shift every schedule that shares it).
  const uint32_t shift = std::min(cu.attempts - 1, 6u);
  Duration wait = config_.catchup_backoff_base * (1ull << shift);
  wait = static_cast<Duration>(static_cast<double>(wait) *
                               (1.0 + catchup_rng_.NextDouble()));
  wait = std::min(wait, config_.catchup_backoff_cap);
  cu.timer = ScheduleSafe(wait, [this] {
    if (catchup_ == nullptr) return;
    catchup_->timer = 0;
    CatchUpRequestNext();
  });
}

void Replica::CatchUpFailover(const Status& status) {
  DPAXOS_CHECK(catchup_ != nullptr);
  CatchUp& cu = *catchup_;
  if (cu.timer != 0) {
    sim_->Cancel(cu.timer);
    cu.timer = 0;
  }
  if (cu.index + 1 >= cu.peers.size()) {
    CatchUpFinish(status);
    return;
  }
  ++cu.index;
  cu.attempts = 0;
  // Any half-reassembled snapshot belonged to the old peer's image.
  cu.snapshotting = false;
  cu.snap_buffer.clear();
  cu.snap_through = 0;
  cu.snap_total = 0;
  ++counters_.catchup_failovers;
  DPAXOS_DEBUG("node " << id_ << " catch-up fails over to node " << cu.peer()
                       << " after: " << status.ToString());
  CatchUpRequestNext();
}

void Replica::CatchUpFinish(const Status& status) {
  DPAXOS_CHECK(catchup_ != nullptr);
  if (catchup_->timer != 0) sim_->Cancel(catchup_->timer);
  StatusCallback cb = std::move(catchup_->cb);
  catchup_.reset();
  if (cb) cb(status);
}

Status Replica::TruncateDecidedBelow(SlotId slot) {
  if (slot > watermark_) {
    return Status::FailedPrecondition(
        "cannot truncate beyond the contiguous watermark");
  }
  if (slot > log_start_ && snapshot_provider_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot hooks required before truncating history");
  }
  decided_.EraseBelow(slot);
  log_start_ = std::max(log_start_, slot);
  return Status::OK();
}

Status Replica::Compact(SlotId through) {
  if (!config_.enable_compaction) {
    return Status::FailedPrecondition("compaction is disabled");
  }
  if (snapshot_provider_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot hooks required before compacting history");
  }
  // The release point never exceeds min(through, watermark_): when that
  // is already released, skip serializing an image nobody would keep.
  if (std::min(through, watermark_) <= log_start_) return Status::OK();
  // Snapshot first: everything we drop must be covered by a durable,
  // CRC-protected image. The provider reports the true coverage slot,
  // which may exceed the requested compaction point.
  SlotId covered = 0;
  std::string envelope = snapshot_provider_(&covered);
  const SlotId point = std::min({through, watermark_, covered});
  if (point <= log_start_) return Status::OK();  // nothing new to release
  acceptor_.StoreSnapshot(covered, std::move(envelope));
  StorageBarrier();
  // Snapshot durable: releasing the prefix is now crash-safe.
  decided_.TruncateTo(point);
  log_start_ = point;
  acceptor_.ReleaseAcceptedBelow(point);
  StorageBarrier();
  ++counters_.log_compactions;
  return Status::OK();
}

void Replica::DropInstalledSnapshot() {
  acceptor_.DropStoredSnapshot();
  StorageBarrier();
  // The compaction watermark survives: the prefix is gone either way,
  // so this replica must relearn state from its peers.
  decided_ = DecidedLog();
  log_start_ = 0;
  watermark_ = 0;
}

void Replica::OnLearnRequest(NodeId from, const LearnRequestMsg& msg) {
  auto reply = std::make_shared<LearnReplyMsg>(config_.partition);
  reply->from_slot = msg.from_slot;
  reply->peer_watermark = watermark_;
  reply->first_available = log_start_;
  if (msg.from_slot >= log_start_) {
    uint32_t count = 0;
    for (auto it = decided_.lower_bound(msg.from_slot);
         it != decided_.end() && count < msg.max_entries; ++it, ++count) {
      reply->entries.push_back(DecidedEntryWire{it->first, it->second});
    }
  }
  SendTo(from, reply);
}

void Replica::OnLearnReply(NodeId from, const LearnReplyMsg& msg) {
  if (catchup_ == nullptr || from != catchup_->peer() ||
      catchup_->snapshotting) {
    return;
  }
  if (msg.from_slot != watermark_) return;  // stale page
  if (catchup_->timer != 0) sim_->Cancel(catchup_->timer);
  catchup_->timer = 0;
  catchup_->attempts = 0;

  if (msg.first_available > watermark_) {
    // The peer compacted this prefix away: fall back to a snapshot.
    if (snapshot_installer_ == nullptr) {
      CatchUpFinish(Status::FailedPrecondition(
          "peer truncated its log and no snapshot installer is wired"));
      return;
    }
    catchup_->snapshotting = true;
    catchup_->snap_buffer.clear();
    catchup_->snap_through = 0;
    catchup_->snap_total = 0;
    CatchUpRequestNext();
    return;
  }

  for (const DecidedEntryWire& e : msg.entries) {
    LearnDecided(e.slot, e.value);
  }
  if (watermark_ >= msg.peer_watermark) {
    CatchUpFinish(Status::OK());
    return;
  }
  if (msg.entries.empty()) {
    // The peer has a gap too; nothing more to pull from it.
    CatchUpFinish(Status::Unavailable("peer cannot provide further slots"));
    return;
  }
  CatchUpRequestNext();
}

void Replica::OnSnapshotRequest(NodeId from, const SnapshotRequestMsg& msg) {
  if (snapshot_provider_ == nullptr) return;  // cannot serve
  if (msg.offset == 0 || snapshot_cache_.bytes.empty()) {
    // Fresh transfer: regenerate, so every later chunk comes from one
    // consistent image.
    SlotId through = 0;
    snapshot_cache_.bytes = snapshot_provider_(&through);
    snapshot_cache_.through = through;
    ++counters_.snapshots_served;
    // Nemesis fault injection: corrupt the image we are about to serve.
    // The requester's CRC check must catch either mutation.
    if (snapshot_fault_ == SnapshotFault::kBitFlip &&
        !snapshot_cache_.bytes.empty()) {
      snapshot_cache_.bytes[snapshot_cache_.bytes.size() / 2] ^= 0x01;
      snapshot_fault_ = SnapshotFault::kNone;
    } else if (snapshot_fault_ == SnapshotFault::kTruncate) {
      const size_t torn = snapshot_cache_.bytes.size() / 2;
      snapshot_cache_.bytes.resize(torn);
      snapshot_fault_ = SnapshotFault::kNone;
    }
  }
  if (msg.offset >= snapshot_cache_.bytes.size()) return;  // stale offset
  const uint64_t chunk = std::max<uint64_t>(config_.snapshot_chunk_bytes, 1);
  auto reply = std::make_shared<SnapshotChunkMsg>(
      config_.partition, snapshot_cache_.through, msg.offset,
      snapshot_cache_.bytes.size(),
      snapshot_cache_.bytes.substr(msg.offset, chunk));
  ++counters_.snapshot_chunks_sent;
  SendTo(from, reply);
}

void Replica::OnSnapshotChunk(NodeId from, const SnapshotChunkMsg& msg) {
  if (catchup_ == nullptr || !catchup_->snapshotting ||
      from != catchup_->peer()) {
    return;
  }
  CatchUp& cu = *catchup_;
  if (msg.offset == 0) {
    // First chunk (or the peer regenerated its image): start over.
    cu.snap_buffer.clear();
    cu.snap_through = msg.through_slot;
    cu.snap_total = msg.total_bytes;
  } else if (msg.through_slot != cu.snap_through ||
             msg.total_bytes != cu.snap_total ||
             msg.offset != cu.snap_buffer.size()) {
    // Duplicate, reordered or cross-image chunk: ignore; the retry
    // timer re-requests from our current offset.
    return;
  }
  if (cu.timer != 0) sim_->Cancel(cu.timer);
  cu.timer = 0;
  cu.attempts = 0;
  cu.snap_buffer.append(msg.data);
  counters_.snapshot_bytes_received += msg.data.size();
  if (cu.snap_buffer.size() < cu.snap_total) {
    CatchUpRequestNext();
    return;
  }
  InstallReassembledSnapshot();
}

void Replica::InstallReassembledSnapshot() {
  DPAXOS_CHECK(catchup_ != nullptr && snapshot_installer_ != nullptr);
  CatchUp& cu = *catchup_;
  const SlotId through = cu.snap_through;
  std::string envelope = std::move(cu.snap_buffer);
  cu.snapshotting = false;
  cu.snap_buffer.clear();
  cu.snap_through = 0;
  cu.snap_total = 0;

  // The installer verifies the envelope CRC before touching any state;
  // a corrupt transfer must never be applied silently.
  const Status st = snapshot_installer_(through, envelope);
  if (!st.ok()) {
    ++counters_.snapshot_corruptions_detected;
    DPAXOS_WARN("node " << id_ << " rejected snapshot through " << through
                        << ": " << st.ToString());
    CatchUpFailover(st);
    return;
  }
  ++counters_.snapshots_installed;
  if (through > watermark_) {
    // Crash-consistent install: persist the verified envelope, sync,
    // THEN truncate. A lossy restart between the two syncs keeps the
    // snapshot and merely re-releases the prefix.
    acceptor_.StoreSnapshot(through, std::move(envelope));
    StorageBarrier();
    decided_.TruncateTo(through);
    log_start_ = std::max(log_start_, through);
    watermark_ = std::max(watermark_, through);
    while (decided_.Contains(watermark_)) ++watermark_;
    FlushDeferredAcks();
    acceptor_.ReleaseAcceptedBelow(through);
    StorageBarrier();
  }
  // Resume pulling the residual log tail above the snapshot.
  CatchUpRequestNext();
}

// -----------------------------------------------------------------------
// Intents garbage collection (paper Section 4.3.4)

void Replica::OnGcPoll(NodeId from, const GcPollMsg& msg) {
  (void)msg;
  SendTo(from, std::make_shared<GcPollReplyMsg>(
                   config_.partition, acceptor_.gc_poll_ballot()));
}

void Replica::OnGcThreshold(NodeId from, const GcThresholdMsg& msg) {
  (void)from;
  acceptor_.ApplyGcThreshold(msg.threshold, sim_->Now());
}

// -----------------------------------------------------------------------
// Leader Zone migration (paper Section 4.3.2)

void Replica::MigrateLeaderZone(ZoneId next_zone, StatusCallback cb) {
  if (quorums_->mode() != ProtocolMode::kLeaderZone) {
    cb(Status::NotSupported("leader zone migration requires kLeaderZone"));
    return;
  }
  if (next_zone >= topology_->num_zones()) {
    cb(Status::InvalidArgument("no such zone"));
    return;
  }
  if (lz_migration_ != nullptr) {
    cb(Status::Aborted("migration already in progress"));
    return;
  }
  if (next_zone == lz_view_.current && !lz_view_.in_transition()) {
    cb(Status::OK());
    return;
  }
  lz_migration_ = std::make_unique<LzMigration>();
  lz_migration_->cb = std::move(cb);
  lz_migration_->epoch = lz_view_.epoch + 1;
  lz_migration_->synod_zone = lz_view_.current;
  lz_migration_->requested = next_zone;
  lz_migration_->ballot = Ballot{max_round_seen_ + 1, id_};
  max_round_seen_ = lz_migration_->ballot.round;
  lz_migration_->step = 1;
  LzSendCurrentStep();
  LzArmTimer();
}

void Replica::LzSendCurrentStep() {
  LzMigration& m = *lz_migration_;
  const PartitionId p = config_.partition;
  std::vector<NodeId> targets;
  MessagePtr msg;
  switch (m.step) {
    case 1:
      targets = topology_->NodesInZone(m.synod_zone);
      msg = std::make_shared<LzPrepareMsg>(p, m.epoch, m.ballot);
      break;
    case 2:
      targets = topology_->NodesInZone(m.synod_zone);
      msg = std::make_shared<LzProposeMsg>(p, m.epoch, m.ballot, m.target);
      break;
    case 3:
      targets = topology_->NodesInZone(m.synod_zone);
      msg = std::make_shared<LzTransitionMsg>(p, m.epoch, m.target);
      break;
    case 4:
      targets = topology_->NodesInZone(m.target);
      msg = std::make_shared<LzStoreIntentsMsg>(p, m.epoch, m.target,
                                                m.transferred);
      break;
    default:
      DPAXOS_UNREACHABLE();
  }
  for (NodeId t : targets) {
    if (m.acks.count(t) == 0) SendTo(t, msg);
  }
}

void Replica::LzArmTimer() {
  LzMigration& m = *lz_migration_;
  m.timer = ScheduleSafe(config_.propose_timeout, [this] {
    if (lz_migration_ == nullptr) return;
    lz_migration_->timer = 0;
    if (++lz_migration_->attempt > config_.max_propose_retries) {
      LzFinish(Status::TimedOut("leader zone migration timed out"));
      return;
    }
    LzSendCurrentStep();
    LzArmTimer();
  });
}

void Replica::LzAdvance() {
  LzMigration& m = *lz_migration_;
  if (m.timer != 0) sim_->Cancel(m.timer);
  m.timer = 0;
  m.acks.clear();
  m.attempt = 0;
  ++m.step;
  if (m.step == 5) {
    // Step 3 of the paper: the transition is complete; lazily announce
    // the new Leader Zone to everyone.
    LeaderZoneView view;
    view.epoch = m.epoch;
    view.current = m.target;
    view.next = kInvalidZone;
    auto announce = std::make_shared<LzAnnounceMsg>(config_.partition, view);
    SendToAll(topology_->AllNodes(), announce);
    const bool won = m.target == m.requested;
    AdoptView(view);
    LzFinish(won ? Status::OK()
                 : Status::Aborted("another migration won the synod"));
    return;
  }
  LzSendCurrentStep();
  LzArmTimer();
}

void Replica::LzFinish(const Status& status) {
  DPAXOS_CHECK(lz_migration_ != nullptr);
  if (lz_migration_->timer != 0) sim_->Cancel(lz_migration_->timer);
  StatusCallback cb = std::move(lz_migration_->cb);
  lz_migration_.reset();
  if (cb) cb(status);
}

void Replica::OnLzPrepare(NodeId from, const LzPrepareMsg& msg) {
  const PartitionId p = config_.partition;
  if (msg.epoch != lz_view_.epoch + 1 || topology_->ZoneOf(id_) != lz_view_.current) {
    auto nack = std::make_shared<LzNackMsg>(p, msg.epoch, msg.ballot,
                                            Ballot{}, lz_view_);
    SendTo(from, nack);
    return;
  }
  if (lz_synod_.epoch != msg.epoch) lz_synod_ = LzSynod{msg.epoch, {}, {}, kInvalidZone};
  if (msg.ballot >= lz_synod_.promised) {
    lz_synod_.promised = msg.ballot;
    auto promise = std::make_shared<LzPromiseMsg>(p, msg.epoch, msg.ballot);
    promise->accepted_ballot = lz_synod_.accepted_ballot;
    promise->accepted_zone = lz_synod_.accepted_zone;
    SendTo(from, promise);
  } else {
    SendTo(from, std::make_shared<LzNackMsg>(p, msg.epoch, msg.ballot,
                                             lz_synod_.promised, lz_view_));
  }
}

void Replica::OnLzPromise(NodeId from, const LzPromiseMsg& msg) {
  if (lz_migration_ == nullptr || lz_migration_->step != 1) return;
  LzMigration& m = *lz_migration_;
  if (msg.epoch != m.epoch || msg.ballot != m.ballot) return;
  m.acks.insert(from);
  if (!msg.accepted_ballot.is_null() &&
      msg.accepted_ballot > m.best_accepted) {
    m.best_accepted = msg.accepted_ballot;
    m.best_accepted_zone = msg.accepted_zone;
  }
  if (m.acks.size() >= MajorityOf(topology_->nodes_in_zone(m.synod_zone))) {
    // Synod value: a previously accepted zone wins over our request.
    m.target = (m.best_accepted_zone != kInvalidZone) ? m.best_accepted_zone
                                                      : m.requested;
    LzAdvance();  // -> step 2 (synod propose)
  }
}

void Replica::OnLzPropose(NodeId from, const LzProposeMsg& msg) {
  const PartitionId p = config_.partition;
  if (msg.epoch != lz_view_.epoch + 1 ||
      topology_->ZoneOf(id_) != lz_view_.current) {
    SendTo(from, std::make_shared<LzNackMsg>(p, msg.epoch, msg.ballot,
                                             Ballot{}, lz_view_));
    return;
  }
  if (lz_synod_.epoch != msg.epoch) lz_synod_ = LzSynod{msg.epoch, {}, {}, kInvalidZone};
  if (msg.ballot >= lz_synod_.promised) {
    lz_synod_.promised = msg.ballot;
    lz_synod_.accepted_ballot = msg.ballot;
    lz_synod_.accepted_zone = msg.next_zone;
    SendTo(from, std::make_shared<LzAcceptMsg>(p, msg.epoch, msg.ballot,
                                               msg.next_zone));
  } else {
    SendTo(from, std::make_shared<LzNackMsg>(p, msg.epoch, msg.ballot,
                                             lz_synod_.promised, lz_view_));
  }
}

void Replica::OnLzAccept(NodeId from, const LzAcceptMsg& msg) {
  if (lz_migration_ == nullptr || lz_migration_->step != 2) return;
  LzMigration& m = *lz_migration_;
  if (msg.epoch != m.epoch || msg.ballot != m.ballot ||
      msg.next_zone != m.target) {
    return;
  }
  m.acks.insert(from);
  if (m.acks.size() >= MajorityOf(topology_->nodes_in_zone(m.synod_zone))) {
    // The next Leader Zone is registered (paper Step 1 complete).
    LzAdvance();  // -> step 3 (transition phase)
  }
}

void Replica::OnLzNack(NodeId from, const LzNackMsg& msg) {
  (void)from;
  AdoptView(msg.lz_view);
  if (lz_migration_ == nullptr) return;
  LzMigration& m = *lz_migration_;
  if (msg.epoch != m.epoch) return;
  if (lz_view_.epoch >= m.epoch) {
    // Migration for this epoch completed elsewhere while we were running.
    LzFinish(lz_view_.current == m.requested
                 ? Status::OK()
                 : Status::Aborted("another migration won the epoch"));
    return;
  }
  if (!msg.promised.is_null() && msg.promised > m.ballot && m.step <= 2) {
    // Synod preempted: retry phase 1 with a higher ballot after backoff.
    if (m.timer != 0) sim_->Cancel(m.timer);
    m.timer = 0;
    m.step = 1;
    m.acks.clear();
    m.best_accepted = Ballot{};
    m.best_accepted_zone = kInvalidZone;
    m.ballot = Ballot{std::max(max_round_seen_, msg.promised.round) + 1, id_};
    max_round_seen_ = m.ballot.round;
    const Duration backoff = BackoffFor(m.attempt++);
    ScheduleSafe(backoff, [this] {
      if (lz_migration_ != nullptr && lz_migration_->step == 1) {
        LzSendCurrentStep();
        LzArmTimer();
      }
    });
  }
}

void Replica::OnLzTransition(NodeId from, const LzTransitionMsg& msg) {
  if (msg.epoch == lz_view_.epoch + 1 &&
      topology_->ZoneOf(id_) == lz_view_.current && !lz_view_.in_transition()) {
    // Enter the transition phase: future promises piggyback the next
    // zone; new intents are no longer stored here (paper Step 2).
    LeaderZoneView view = lz_view_;
    view.next = msg.next_zone;
    AdoptView(view);
  }
  // Reply with our stored intents regardless (idempotent; a retransmit
  // after completion still answers so the driver can make progress).
  SendTo(from, std::make_shared<LzTransitionAckMsg>(
                   config_.partition, msg.epoch,
                   std::vector<Intent>(acceptor_.intents())));
}

void Replica::OnLzTransitionAck(NodeId from, const LzTransitionAckMsg& msg) {
  if (lz_migration_ == nullptr || lz_migration_->step != 3) return;
  LzMigration& m = *lz_migration_;
  if (msg.epoch != m.epoch) return;
  m.acks.insert(from);
  for (const Intent& i : msg.intents) {
    const bool dup = std::any_of(
        m.transferred.begin(), m.transferred.end(),
        [&](const Intent& have) { return have.ballot == i.ballot; });
    if (!dup) m.transferred.push_back(i);
  }
  if (m.acks.size() >= MajorityOf(topology_->nodes_in_zone(m.synod_zone))) {
    LzAdvance();  // -> step 4 (store intents at the next zone)
  }
}

void Replica::OnLzStoreIntents(NodeId from, const LzStoreIntentsMsg& msg) {
  acceptor_.AddIntents(msg.intents);
  if (msg.epoch == lz_view_.epoch + 1 && !lz_view_.in_transition()) {
    // Learn about the in-progress transition early.
    LeaderZoneView view = lz_view_;
    view.next = msg.next_zone;
    AdoptView(view);
  }
  SendTo(from,
         std::make_shared<LzStoreAckMsg>(config_.partition, msg.epoch));
}

void Replica::OnLzStoreAck(NodeId from, const LzStoreAckMsg& msg) {
  if (lz_migration_ == nullptr || lz_migration_->step != 4) return;
  LzMigration& m = *lz_migration_;
  if (msg.epoch != m.epoch) return;
  m.acks.insert(from);
  if (m.acks.size() >= MajorityOf(topology_->nodes_in_zone(m.target))) {
    LzAdvance();  // -> step 5 (announce completion)
  }
}

void Replica::OnLzAnnounce(NodeId from, const LzAnnounceMsg& msg) {
  (void)from;
  AdoptView(msg.view);
}

void Replica::AdoptView(const LeaderZoneView& view) {
  if (!view.IsNewerThan(lz_view_)) return;
  lz_view_ = view;
  // Old-Leader-Zone nodes stop storing new intents during the transition
  // (paper Step 2); everyone else stores normally.
  if (lz_view_.in_transition() &&
      topology_->ZoneOf(id_) == lz_view_.current) {
    acceptor_.PauseIntentStorage();
  } else {
    acceptor_.ResumeIntentStorage();
  }
  // A completed migration invalidates synod state for older epochs.
  if (lz_synod_.epoch <= lz_view_.epoch) lz_synod_ = LzSynod{};
  // An in-progress election must follow the new view: its quorum rule
  // changes (transition requires both zones; completion moves the zone).
  if (election_ != nullptr && role_ == Role::kCandidate) {
    election_->base_rule = CurrentLeaderElectionRule();
    election_->round1_targets = quorums_->LeaderElectionTargets(id_, lz_view_);
    election_->effective_rule = election_->base_rule;
    for (const auto& [b, intent] : election_->detected_intents) {
      election_->effective_rule = election_->effective_rule.MergedWith(
          QuorumRule::Simple(intent.quorum, 1));
    }
    CheckElectionProgress();
  }
}

// -----------------------------------------------------------------------
// Message dispatch

void Replica::HandleMessage(NodeId from, const MessagePtr& msg) {
  const Message& m = *msg;
  // One virtual call picks the handler; the tag is authoritative for the
  // concrete type (each message class returns its own WireType), so the
  // static_casts are exact. The switch is generated from the message
  // list and has no default: a WireType missing from the list fails the
  // build.
#pragma GCC diagnostic push
#pragma GCC diagnostic error "-Wswitch"
  switch (static_cast<WireType>(m.wire_tag())) {
#define DPAXOS_HANDLE_CASE(Name) \
  case WireType::k##Name:        \
    return On##Name(from, static_cast<const Name##Msg&>(m));
    DPAXOS_WIRE_MESSAGES(DPAXOS_HANDLE_CASE)
#undef DPAXOS_HANDLE_CASE
  }
#pragma GCC diagnostic pop
  DPAXOS_WARN("node " << id_ << " ignores unknown message "
              << m.TypeName());
}
}  // namespace dpaxos
