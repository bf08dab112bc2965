#include "harness/node_server.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/perf_counters.h"
#include "paxos/wire.h"
#include "txn/transaction.h"

namespace dpaxos {

namespace {

// Signal -> loop bridge. Handlers may only do async-signal-safe work, so
// they record the signal and write the loop's eventfd; Run() picks the
// flag up after the poll wakes.
volatile sig_atomic_t g_signal_received = 0;
int g_signal_wakeup_fd = -1;

// What a learn-reply page adds around each batch on the wire (slot,
// value id, two lengths, the batch's count word) plus the page header's
// share, rounded up: the batch cap leaves this much of each entry's
// share of a frame free.
constexpr uint64_t kBatchEnvelopeBytes = 64;

void HandleStopSignal(int signo) {
  g_signal_received = signo;
  if (g_signal_wakeup_fd >= 0) {
    const uint64_t one = 1;
    // Best effort: a full eventfd counter still wakes the loop.
    ssize_t ignored = write(g_signal_wakeup_fd, &one, sizeof(one));
    (void)ignored;
  }
}

}  // namespace

NodeServer::NodeServer(NodeServerOptions options)
    : options_(std::move(options)), loop_(options_.seed) {
  DPAXOS_CHECK(!options_.cluster.empty());
  DPAXOS_CHECK_LT(options_.node, options_.cluster.size());
  DPAXOS_CHECK(options_.zones > 0 &&
               options_.cluster.size() % options_.zones == 0);
  const uint64_t page_share = options_.tcp.max_frame_bytes / kCatchUpPageSize;
  DPAXOS_CHECK_GT(page_share, kBatchEnvelopeBytes);
  batch_cap_bytes_ = page_share - kBatchEnvelopeBytes;
}

NodeServer::~NodeServer() = default;

Status NodeServer::Start() {
  DPAXOS_CHECK(!started_);
  started_ = true;

  // Latencies in the topology only matter to the simulator; the quorum
  // construction just needs the zone layout.
  const uint32_t nodes_per_zone =
      static_cast<uint32_t>(options_.cluster.size()) / options_.zones;
  topology_ = Topology::Uniform(options_.zones, nodes_per_zone,
                                /*inter_zone_rtt_ms=*/1.0,
                                /*intra_zone_rtt_ms=*/1.0);
  quorums_ = MakeQuorumSystem(options_.mode, &*topology_, options_.ft);

  transport_ = std::make_unique<TcpTransport>(&loop_, options_.node,
                                              options_.cluster, options_.tcp);
  transport_->set_wire_codec(
      [](const Message& m, std::string* out) { SerializeMessageInto(m, out); },
      [](std::string_view bytes) -> MessagePtr {
        Result<MessagePtr> r = DeserializeMessage(bytes);
        return r.ok() ? r.value() : nullptr;
      });
  Status st = transport_->Listen();
  if (!st.ok()) return st;

  host_ = std::make_unique<NodeHost>(&loop_, transport_.get(), &*topology_,
                                     options_.node);
  if (!options_.data_dir.empty()) {
    // Recover BEFORE AddReplica: the replica binds to the recovered
    // record and resumes from its promises/accepted values/snapshot.
    st = OpenWal();
    if (!st.ok()) return st;
  }
  ReplicaConfig config = options_.replica;
  // Every node applies the full log locally (serves reads + snapshots).
  config.decide_policy = DecidePolicy::kAll;
  // The replica's window is the serving window: every batch this node
  // has in flight gets a slot at once, and a follower that falls that
  // far behind catches up in one page.
  config.max_inflight = kCatchUpPageSize;
  if (options_.mode == ProtocolMode::kLeaderless) {
    config.leaderless_index = options_.node;
    config.leaderless_total = topology_->num_nodes();
  }
  replica_ = host_->AddReplica(quorums_.get(), config);
  replica_->set_decide_callback([this](SlotId slot, const Value& value) {
    // Ownership transfers are learned from the same decided stream the
    // state machine consumes; the record value itself applies as a no-op.
    if (directory_.has_value()) ObserveOwnership(slot, value);
    applier_.OnDecided(slot, value);
    NoteDecided(value);
  });
  replica_->set_snapshot_hooks(
      [this](SlotId* through) {
        *through = applier_.applied_watermark();
        return EncodeKvSnapshot(*through, kv_);
      },
      [this](SlotId through, const std::string& envelope) {
        return InstallKvSnapshot(through, envelope, &kv_, &applier_);
      });
  if (options_.leader_hint != kInvalidNode) {
    replica_->set_leader_hint(options_.leader_hint);
  }
  if (wal_ != nullptr) {
    // Reply-gated sync points ride the group commit; the compaction/
    // install order uses the synchronous barrier. An fsync failure
    // aborts the process inside the WAL (panic_on_sync_failure), so the
    // barrier's sticky status here is only ever a shutdown race.
    replica_->set_persist_gate(
        [this](std::function<void()> done) { wal_->SyncThen(std::move(done)); });
    replica_->set_persist_barrier([this] {
      Status barrier = wal_->SyncNow();
      if (!barrier.ok()) {
        DPAXOS_WARN("node " << options_.node
                            << " wal barrier failed: " << barrier.ToString());
      }
    });
    // Restore the applied prefix from the snapshot at rest. After a
    // whole-cluster power loss there is no live peer to pull it from:
    // the disk is the only source, which is the point of WAL mode.
    const std::string& durable = replica_->acceptor().snapshot_bytes();
    if (!durable.empty()) {
      Status restored =
          InstallKvSnapshot(replica_->acceptor().snapshot_through(), durable,
                            &kv_, &applier_);
      if (restored.ok()) {
        DPAXOS_INFO("node " << options_.node
                            << " restored snapshot from wal through "
                            << replica_->acceptor().snapshot_through());
      } else {
        // The image at rest rotted. The compaction watermark survives
        // (the log prefix is gone either way); relearn from peers.
        DPAXOS_WARN("node " << options_.node << " dropped rotten snapshot: "
                            << restored.ToString());
        replica_->DropInstalledSnapshot();
      }
    }
  }

  transport_->set_client_request_handler(
      [this](uint64_t conn, uint64_t client_id,
             const ClientRequestView& req) {
        OnClientRequest(conn, client_id, req);
      });

  if (options_.ownership) {
    directory_.emplace(/*num_partitions=*/1);
    access_stats_.emplace(options_.zones, options_.placement_stats_half_life);
    advisor_topology_ = Topology::Uniform(options_.zones, nodes_per_zone,
                                          options_.placement_inter_zone_rtt_ms,
                                          options_.placement_intra_zone_rtt_ms);
    advisor_.emplace(&*advisor_topology_, options_.placement_min_improvement,
                     options_.placement_min_weight);
    replica_->set_steal_invite_callback(
        [this](NodeId incumbent) { StartProtocolSteal(incumbent); });
    if (options_.placement_sweep_interval > 0) SchedulePlacementSweep();
  }

  if (options_.catchup_on_start) {
    loop_.Schedule(options_.catchup_delay, [this] { StartCatchUp(); });
  }
  if (options_.compaction_interval > 0 && config.enable_compaction) {
    ScheduleCompactionSweep();
  }
  if (options_.anti_entropy_interval > 0 && options_.cluster.size() > 1) {
    ScheduleAntiEntropySweep();
  }
  DPAXOS_INFO("node " << options_.node << " serving "
                      << ProtocolModeName(options_.mode) << " on port "
                      << transport_->listen_port());
  return Status::OK();
}

void NodeServer::OnClientRequest(uint64_t conn, uint64_t client_id,
                                 const ClientRequestView& req) {
  switch (req.op) {
    case ClientOp::kPut: {
      if (options_.ownership) {
        // Feed the placement loop from real request arrivals. Legacy
        // clients (no declared zone) still commit, they just don't
        // steer placement.
        if (req.zone != kInvalidIdWire && req.zone < options_.zones) {
          access_stats_->Record(req.zone, loop_.Now());
        }
        ++puts_since_sweep_;
      }
      Enqueue(conn, client_id, req);
      return;
    }
    case ClientOp::kGet:
      Enqueue(conn, client_id, req);
      return;
    case ClientOp::kStats: {
      ClientReply reply;
      reply.request_id = req.request_id;
      reply.status_code = static_cast<uint8_t>(StatusCode::kOk);
      reply.value = StatsString();
      transport_->SendClientReply(conn, reply);
      return;
    }
  }
  // Unknown op byte: framing-level validation rejects it before we get
  // here, but answer defensively rather than dropping the request.
  ClientReply reply;
  reply.request_id = req.request_id;
  reply.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
  transport_->SendClientReply(conn, reply);
}

void NodeServer::Enqueue(uint64_t conn, uint64_t client_id,
                         const ClientRequestView& req) {
  // A Get rides as a zero-op transaction: it commits nothing, but its
  // (client_id, seq) fills the client's dedup window like a Put's would.
  const bool get = req.op == ClientOp::kGet;
  const OperationView put{Operation::Kind::kPut, req.key, req.value};
  const std::span<const OperationView> ops(&put, get ? 0 : 1);
  const uint64_t bytes = kTxnHeaderBytes + (get ? 0 : EncodedOpSize(put));
  const size_t key_hash = std::hash<std::string_view>{}(req.key);
  Batch* open = batches_.empty() ? nullptr : &batches_.back();
  if (open == nullptr ||
      std::ranges::find(open->put_keys, key_hash) != open->put_keys.end() ||
      (!open->builder.empty() &&
       open->builder.pending_bytes() + bytes > batch_cap_bytes_)) {
    open = &batches_.emplace_back(batch_cap_bytes_);
  }
  open->builder.Add(NextValueId(), client_id, req.request_id, ops);
  if (!get) open->put_keys.push_back(key_hash);
  open->waiters.push_back(Waiter{conn, req.request_id, get,
                                 get ? std::string(req.key) : std::string()});
  SubmitBatches();
}

void NodeServer::SubmitBatches() {
  // A closed batch cannot grow, so it goes out at once; the open one
  // waits for every batch in flight, and gathers what arrives meanwhile.
  while (!batches_.empty() && batches_inflight_ < kCatchUpPageSize &&
         (batches_.size() > 1 || batches_inflight_ == 0)) {
    Batch batch = std::move(batches_.front());
    batches_.pop_front();
    ++batches_inflight_;
    Value value = batch.builder.Take(NextValueId());
    // The callback may run inline (a submit that fails at once), inside
    // this loop: it only frees the window, and the loop goes on.
    replica_->SubmitOrForward(
        std::move(value),
        [this, waiters = std::move(batch.waiters)](
            const Status& st, SlotId slot, Duration) mutable {
          --batches_inflight_;
          AnswerBatch(std::move(waiters), st, slot);
          ScheduleSubmit();
        });
  }
}

void NodeServer::ScheduleSubmit() {
  if (submit_scheduled_ || batches_.empty()) return;
  submit_scheduled_ = true;
  // End of this loop round, not inline: the decide that completed a
  // batch goes on to hand the freed slot to the replica's own queue
  // (batches peers forwarded here), which an inline submit would jump.
  loop_.Schedule(0, [this] {
    submit_scheduled_ = false;
    SubmitBatches();
  });
}

void NodeServer::AnswerBatch(std::vector<Waiter> waiters, const Status& st,
                             SlotId slot) {
  // Misdirected requests in ownership mode were still forwarded and
  // answered, but hint the client toward the partition's owner for its
  // next operation.
  const bool redirect = directory_.has_value() && directory_->has_owner(0) &&
                        directory_->owner_node(0) != options_.node;
  // Every Put (and, on failure, every Get) gets the same answer.
  ClientReply reply;
  reply.status_code = static_cast<uint8_t>(st.code());
  reply.value = st.ok() ? std::to_string(slot) : st.ToString();
  reply.watermark = st.ok() ? slot : 0;
  for (const Waiter& w : waiters) {
    if (w.get && st.ok()) continue;  // answered once the applier is there
    reply.request_id = w.request_id;
    reply.redirect =
        !w.get && redirect ? directory_->owner_node(0) : kInvalidIdWire;
    transport_->SendClientReply(w.conn, reply);
  }
  if (!st.ok()) return;
  std::erase_if(waiters, [](const Waiter& w) { return !w.get; });
  if (!waiters.empty()) {
    AnswerReadsAtSlot(std::move(waiters), slot, loop_.Now() + 5 * kSecond);
  }
}

void NodeServer::AnswerReadsAtSlot(std::vector<Waiter> gets, SlotId slot,
                                   Timestamp deadline) {
  // Linearizable read: the batch's slot was assigned after the Get
  // arrived, so once the applier has crossed every slot below it the
  // local state holds every write acknowledged before the Get was sent.
  // A dirty local read would serve stale state from a lagging follower
  // after failover — exactly the violation the chaos checkers exist to
  // catch.
  if (applier_.applied_watermark() >= slot) {
    ClientReply reply;  // one for all: its value keeps its capacity
    reply.watermark = applier_.applied_watermark();
    for (const Waiter& w : gets) {
      reply.request_id = w.request_id;
      const std::string* found = kv_.Find(w.key);
      reply.status_code = static_cast<uint8_t>(
          found != nullptr ? StatusCode::kOk : StatusCode::kNotFound);
      if (found != nullptr) {
        reply.value.assign(*found);
      } else {
        reply.value.clear();
      }
      transport_->SendClientReply(w.conn, reply);
    }
    return;
  }
  if (loop_.Now() >= deadline) {
    // The applier never crossed the slot (log hole, lost decide
    // traffic): let the clients fail over to a healthier replica.
    for (const Waiter& w : gets) {
      ClientReply reply;
      reply.request_id = w.request_id;
      reply.status_code = static_cast<uint8_t>(StatusCode::kTimedOut);
      reply.value = "read barrier not applied";
      transport_->SendClientReply(w.conn, reply);
    }
    return;
  }
  loop_.Schedule(2 * kMillisecond,
                 [this, gets = std::move(gets), slot, deadline]() mutable {
                   AnswerReadsAtSlot(std::move(gets), slot, deadline);
                 });
}

void NodeServer::StartCatchUp() {
  std::vector<NodeId> peers;
  for (NodeId n = 0; n < topology_->num_nodes(); ++n) {
    if (n != options_.node) peers.push_back(n);
  }
  if (peers.empty()) return;
  replica_->CatchUpViaSnapshot(peers, [this](const Status& st) {
    if (st.ok()) {
      ++catchups_completed_;
      DPAXOS_INFO("node " << options_.node << " caught up; watermark="
                          << applier_.applied_watermark());
    } else {
      // Normal on a fresh cluster (peers have nothing yet): log and move
      // on; ordinary decide traffic keeps us current from here.
      DPAXOS_INFO("node " << options_.node
                          << " catch-up did not complete: " << st.ToString());
    }
  });
}

void NodeServer::ScheduleCompactionSweep() {
  loop_.Schedule(options_.compaction_interval, [this] {
    CompactLog();
    ScheduleCompactionSweep();
  });
}

void NodeServer::CompactLog() {
  const SlotId watermark = applier_.applied_watermark();
  const uint64_t retained = options_.replica.compaction_retained_suffix;
  if (watermark <= retained) return;
  Status st = replica_->Compact(watermark - retained);
  if (!st.ok()) {
    if (!st.IsFailedPrecondition()) {
      DPAXOS_WARN("compaction failed: " << st.ToString());
    }
    return;
  }
  decided_bytes_since_compaction_ = 0;
  if (wal_ != nullptr) {
    // The log prefix just shrank; fold the WAL down to full images so
    // recovery time tracks the live state, not history.
    Status ck = wal_->Checkpoint();
    if (!ck.ok()) {
      DPAXOS_WARN("wal checkpoint failed: " << ck.ToString());
    }
  }
}

void NodeServer::NoteDecided(const Value& value) {
  if (!options_.replica.enable_compaction) return;
  // Until compacted, every decided value sits in the decided log and
  // the accepted log; under load that outgrows the state itself.
  decided_bytes_since_compaction_ += value.payload.size();
  if (compaction_posted_ || decided_bytes_since_compaction_ <=
                                replica_->acceptor().snapshot_bytes().size()) {
    return;
  }
  if (applier_.applied_watermark() <=
      replica_->log_start() + options_.replica.compaction_retained_suffix) {
    return;  // nothing past the retained suffix to release yet
  }
  compaction_posted_ = true;
  // Posted, not run here: this callback sits in the middle of the
  // replica's commit path, and a compaction (a full snapshot, plus two
  // fsyncs in WAL mode) would hold up that commit's ack and decide.
  loop_.PostTask([this] {
    compaction_posted_ = false;
    CompactLog();
  });
}

Status NodeServer::OpenWal() {
  Env* env = PosixEnv();
  if (options_.disk_faults) {
    fault_env_ = std::make_unique<FaultInjectingEnv>(PosixEnv());
    env = fault_env_.get();
  }
  WalOptions wopts;
  wopts.group_commit_delay = options_.wal_commit_delay;
  Result<std::unique_ptr<Wal>> wal =
      Wal::Open(env, options_.data_dir, wopts, &loop_);
  if (!wal.ok()) {
    // Corruption in a sealed segment (bit rot at rest): refuse to serve.
    // A node running on a damaged promise record can break Paxos safety.
    DPAXOS_WARN("node " << options_.node
                        << " wal open failed: " << wal.status().ToString());
    return wal.status();
  }
  host_->storage().AdoptWal(std::move(wal.value()));
  wal_ = host_->storage().wal();
  DPAXOS_INFO("node " << options_.node << " wal at " << options_.data_dir
                      << " seq=" << wal_->active_seq() << " torn_repairs="
                      << wal_->stats().torn_tail_truncations);
  if (options_.disk_faults) ScheduleFaultPoll();
  return Status::OK();
}

void NodeServer::ScheduleFaultPoll() {
  loop_.Schedule(50 * kMillisecond, [this] {
    // The control file is read through the REAL env: an armed eio_reads
    // fault must not be able to sever the channel that armed it.
    const std::string path = options_.data_dir + "/FAULTS";
    if (PosixEnv()->FileExists(path)) {
      Result<std::string> bytes = PosixEnv()->ReadFileToString(path);
      if (bytes.ok()) {
        DiskFaults& faults = fault_env_->faults();
        const std::string& text = bytes.value();
        size_t pos = 0;
        while (pos < text.size()) {
          size_t eol = text.find('\n', pos);
          if (eol == std::string::npos) eol = text.size();
          const std::string line = text.substr(pos, eol - pos);
          pos = eol + 1;
          long long n = 0;
          if (sscanf(line.c_str(), "eio_appends=%lld", &n) == 1) {
            faults.eio_appends = static_cast<int>(n);
          } else if (sscanf(line.c_str(), "eio_syncs=%lld", &n) == 1) {
            faults.eio_syncs = static_cast<int>(n);
          } else if (sscanf(line.c_str(), "eio_reads=%lld", &n) == 1) {
            faults.eio_reads = static_cast<int>(n);
          } else if (sscanf(line.c_str(), "lying_syncs=%lld", &n) == 1) {
            faults.lying_syncs = static_cast<int>(n);
          } else if (sscanf(line.c_str(), "short_write=%lld", &n) == 1) {
            faults.short_write_bytes = n;
          } else if (sscanf(line.c_str(), "torn_tail=%lld", &n) == 1) {
            faults.torn_tail_bytes = n;
          } else if (!line.empty()) {
            DPAXOS_WARN("node " << options_.node
                                << " ignoring fault command: " << line);
          }
        }
        DPAXOS_INFO("node " << options_.node << " armed disk faults");
      }
      PosixEnv()->DeleteFile(path);
    }
    ScheduleFaultPoll();
  });
}

void NodeServer::ScheduleAntiEntropySweep() {
  loop_.Schedule(options_.anti_entropy_interval, [this] {
    const SlotId watermark = applier_.applied_watermark();
    if (watermark == last_sweep_watermark_) {
      // No progress for a whole interval: either the cluster is idle (the
      // pull returns empty and costs one round trip) or we are wedged on a
      // log hole and the pull is what unwedges us. CatchUpFrom rejects
      // re-entry with Aborted, so firing every sweep is safe.
      std::vector<NodeId> peers;
      for (NodeId n = 0; n < topology_->num_nodes(); ++n) {
        if (n != options_.node) peers.push_back(n);
      }
      if (!peers.empty()) {
        std::rotate(peers.begin(),
                    peers.begin() + (sweep_count_ % peers.size()),
                    peers.end());
        ++catchup_repairs_;
        replica_->CatchUpFrom(peers, [](const Status&) {});
      }
    }
    last_sweep_watermark_ = applier_.applied_watermark();
    ++sweep_count_;
    ScheduleAntiEntropySweep();
  });
}

void NodeServer::ObserveOwnership(SlotId slot, const Value& value) {
  if (!IsOwnershipValueId(value.id)) return;
  std::optional<OwnershipRecord> record = DecodeOwnershipRecord(value);
  // A NodeServer hosts exactly partition 0; a record naming any other
  // partition in this log is hostile or corrupt, never applicable.
  if (!record.has_value() || record->partition != 0) return;
  if (!directory_->Observe(slot, *record)) return;
  last_transfer_time_ = loop_.Now();
  stalled_sweeps_ = 0;
  if (record->node == options_.node) steal_inflight_ = false;
  if (record->node != options_.node && record->node != kInvalidNode) {
    // Route future submissions straight at the new owner.
    replica_->set_leader_hint(record->node);
  }
  DPAXOS_INFO("node " << options_.node << " observed ownership transfer: owner="
                      << record->node << " zone=" << record->zone
                      << " epoch=" << record->epoch << " slot=" << slot);
}

void NodeServer::SchedulePlacementSweep() {
  loop_.Schedule(options_.placement_sweep_interval, [this] {
    const Timestamp now = loop_.Now();
    const ZoneId my_zone = topology_->ZoneOf(options_.node);
    const bool cooling = last_transfer_time_ != 0 &&
                         now - last_transfer_time_ < options_.steal_cooldown;
    // The incumbent this node would steal from: the directory's owner, or
    // (before any transfer record exists) the configured initial leader.
    NodeId incumbent = kInvalidNode;
    ZoneId incumbent_zone = my_zone;
    if (directory_->has_owner(0)) {
      incumbent = directory_->owner_node(0);
      incumbent_zone = directory_->owner_zone(0);
    } else if (options_.leader_hint != kInvalidNode) {
      incumbent = options_.leader_hint;
      incumbent_zone = topology_->ZoneOf(options_.leader_hint);
    }
    if (replica_->is_leader()) {
      // Owner side: each node only sees its own clients' arrivals, so
      // the owner's advice covers traffic that reached it directly
      // (centralized deployments); remote-zone arrivals trigger the
      // thief side below on the nodes that actually receive them.
      stalled_sweeps_ = 0;
      const PlacementAdvice advice =
          advisor_->Advise(*access_stats_, my_zone, now);
      if (advice.should_move) {
        if (cooling) {
          ++pingpongs_suppressed_;
          ++ThreadPerfCounters().placement_pingpongs_suppressed;
        } else {
          const NodeId thief =
              topology_->NodesInZone(advice.best_zone).front();
          if (thief != options_.node) {
            DPAXOS_INFO("node " << options_.node << " placement: inviting "
                                << thief << " (zone " << advice.best_zone
                                << ") to steal; cost "
                                << advice.current_cost_ms << "ms -> "
                                << advice.best_cost_ms << "ms");
            replica_->InviteSteal(thief);
          }
        }
      }
    } else if (incumbent != kInvalidNode && incumbent != options_.node) {
      // Thief side: local arrivals say this zone is where the traffic
      // is, yet the partition is owned elsewhere. The advisor's
      // hysteresis (min_weight, min_improvement) and the post-transfer
      // cooldown keep an even split from ping-ponging ownership.
      if (!steal_inflight_ && incumbent_zone != my_zone) {
        const PlacementAdvice advice =
            advisor_->Advise(*access_stats_, incumbent_zone, now);
        if (advice.should_move && advice.best_zone == my_zone) {
          if (cooling) {
            ++pingpongs_suppressed_;
            ++ThreadPerfCounters().placement_pingpongs_suppressed;
          } else {
            StartProtocolSteal(incumbent);
          }
        }
      }
      // Rescue path: clients keep arriving here and the applied
      // watermark is frozen — the incumbent is likely dead. Steal from
      // it; if it really is dead the steal times out into an ordinary
      // election and still commits the transfer record.
      const SlotId wm = applier_.applied_watermark();
      const bool stalled = options_.rescue_stalled_sweeps > 0 &&
                           wm == placement_sweep_watermark_ &&
                           puts_since_sweep_ > 0;
      if (stalled) {
        if (++stalled_sweeps_ >= options_.rescue_stalled_sweeps &&
            !steal_inflight_) {
          stalled_sweeps_ = 0;
          ++rescues_started_;
          DPAXOS_INFO("node " << options_.node
                              << " placement: rescuing stalled partition from "
                              << incumbent);
          StartProtocolSteal(incumbent);
        }
      } else {
        stalled_sweeps_ = 0;
      }
    }
    placement_sweep_watermark_ = applier_.applied_watermark();
    puts_since_sweep_ = 0;
    SchedulePlacementSweep();
  });
}

void NodeServer::StartProtocolSteal(NodeId incumbent) {
  if (!options_.ownership || steal_inflight_) return;
  if (incumbent == options_.node || replica_->is_leader()) return;
  steal_inflight_ = true;
  ++steals_attempted_;
  ++ThreadPerfCounters().placement_steals_attempted;
  OwnershipRecord record;
  record.partition = 0;
  record.zone = topology_->ZoneOf(options_.node);
  record.node = options_.node;
  record.epoch = directory_->epoch(0) + 1;
  // Node id in the high bits keeps transfer value ids unique across
  // concurrent thieves.
  const uint64_t seq =
      (static_cast<uint64_t>(options_.node) << 32) | ++transfer_seq_;
  replica_->StealOwnershipFrom(
      incumbent, MakeOwnershipTransferValue(record, seq),
      [this, incumbent](const Status& st) {
        steal_inflight_ = false;
        if (st.ok()) {
          ++steals_completed_;
          ++ThreadPerfCounters().placement_steals_completed;
          DPAXOS_INFO("node " << options_.node << " stole partition from "
                              << incumbent);
        } else {
          if (st.IsFailedPrecondition()) {
            ++steals_rejected_;
            ++ThreadPerfCounters().placement_steals_rejected;
          }
          DPAXOS_INFO("node " << options_.node << " steal from " << incumbent
                              << " failed: " << st.ToString());
        }
      });
}

std::string NodeServer::StatsString() const {
  const ProtocolCounters& pc = replica_->counters();
  const TcpTransportStats& ts = transport_->stats();
  std::string out;
  out += "node=" + std::to_string(options_.node);
  out += " mode=";
  out += ProtocolModeName(options_.mode);
  out += " is_leader=" + std::to_string(replica_->is_leader() ? 1 : 0);
  out += " watermark=" + std::to_string(applier_.applied_watermark());
  out += " applied=" + std::to_string(kv_.applied_commands());
  out += " keys=" + std::to_string(kv_.size());
  out += " checksum=" + std::to_string(kv_.Checksum());
  out += " snapshots_installed=" + std::to_string(pc.snapshots_installed);
  out += " log_compactions=" + std::to_string(pc.log_compactions);
  out += " catchups=" + std::to_string(catchups_completed_);
  out += " catchup_repairs=" + std::to_string(catchup_repairs_);
  out += " suspect_msgs=" + std::to_string(pc.suspect_msgs_rejected);
  out += " fast_commits=" + std::to_string(pc.fast_commits);
  out += " fast_fallbacks=" + std::to_string(pc.fast_fallbacks);
  out += " fast_votes=" + std::to_string(pc.fast_votes);
  out += " fast_conflicts=" + std::to_string(pc.fast_conflicts);
  // Ownership / placement fields: always emitted (zeros with ownership
  // off) so bench parsing never branches on the mode.
  out += " ownership=" + std::to_string(options_.ownership ? 1 : 0);
  const bool have_owner = directory_.has_value() && directory_->has_owner(0);
  out += " owner=" +
         std::to_string(have_owner ? directory_->owner_node(0) : kInvalidNode);
  out += " ownership_records=" +
         std::to_string(directory_.has_value() ? directory_->records_observed()
                                               : 0);
  out += " steal_requests_sent=" + std::to_string(pc.steal_requests_sent);
  out += " steal_requests_received=" +
         std::to_string(pc.steal_requests_received);
  out += " steals_granted=" + std::to_string(pc.steals_granted);
  out += " steals_refused=" + std::to_string(pc.steals_refused);
  out += " steals_won=" + std::to_string(pc.steals_won);
  out += " placement_steals_attempted=" + std::to_string(steals_attempted_);
  out += " placement_steals_completed=" + std::to_string(steals_completed_);
  out += " placement_steals_rejected=" + std::to_string(steals_rejected_);
  out += " placement_pingpongs_suppressed=" +
         std::to_string(pingpongs_suppressed_);
  out += " placement_rescues=" + std::to_string(rescues_started_);
  out += " tcp_bytes_in=" + std::to_string(ts.bytes_in);
  out += " tcp_bytes_out=" + std::to_string(ts.bytes_out);
  out += " tcp_reconnects=" + std::to_string(ts.reconnects);
  out += " tcp_frames_dropped=" + std::to_string(ts.frames_dropped);
  out += " tcp_malformed_frames=" + std::to_string(ts.malformed_frames);
  out += " tcp_accepts=" + std::to_string(ts.accepts);
  out += " tcp_writev_calls=" + std::to_string(ts.writev_calls);
  out += " tcp_frames_coalesced=" + std::to_string(ts.frames_coalesced);
  // Always emitted (zeros without --data-dir) so bench/checker parsing
  // never has to branch on durability mode.
  const WalStats ws = wal_ != nullptr ? wal_->stats() : WalStats{};
  out += " wal=" + std::to_string(wal_ != nullptr ? 1 : 0);
  out += " wal_appends=" + std::to_string(ws.appends);
  out += " wal_bytes=" + std::to_string(ws.bytes);
  out += " wal_fsyncs=" + std::to_string(ws.fsyncs);
  out += " wal_torn_tail_truncations=" + std::to_string(ws.torn_tail_truncations);
  out += " wal_sync_failures=" + std::to_string(ws.sync_failures);
  out += " wal_segments=" + std::to_string(ws.segments_created);
  out += " wal_checkpoints=" + std::to_string(ws.checkpoints);
  return out;
}

void NodeServer::InstallSignalHandlers() {
  g_signal_received = 0;
  g_signal_wakeup_fd = loop_.wakeup_fd();
  struct sigaction sa = {};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

int NodeServer::Run() {
  DPAXOS_CHECK(started_);
  while (!loop_.stopped() && g_signal_received == 0) {
    loop_.PollOnce(1 * kSecond);
  }
  const int signo = g_signal_received;
  if (signo != 0) {
    DPAXOS_INFO("node " << options_.node << " stopping on signal " << signo);
  }
  return signo;
}

void NodeServer::Shutdown() { loop_.Stop(); }

}  // namespace dpaxos
