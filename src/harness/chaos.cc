#include "harness/chaos.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "client/client.h"
#include "harness/cluster.h"
#include "harness/history.h"
#include "harness/nemesis.h"
#include "net/topology.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "txn/transaction.h"

namespace dpaxos {

namespace {

// One line per op, every field included: any schedule divergence between
// two kernels shows up as a text diff of this dump.
std::string DumpHistory(const std::vector<HistoryOp>& ops) {
  std::ostringstream os;
  for (const HistoryOp& op : ops) {
    os << "c" << op.client_id << " seq=" << op.seq
       << (op.is_read ? " r " : " w ") << op.key;
    if (op.is_read) {
      os << " saw=" << (op.observed.has_value() ? *op.observed : "<none>");
    } else {
      os << " put=" << op.written;
    }
    os << " invoke=" << op.invoke << " complete=" << op.complete
       << " outcome=" << static_cast<int>(op.outcome) << " slot=" << op.slot
       << " wm=" << op.observed_watermark
       << " local=" << (op.local_read ? 1 : 0) << "\n";
  }
  return os.str();
}

HistoryOutcome ToHistoryOutcome(ClientOutcome outcome) {
  switch (outcome) {
    case ClientOutcome::kCommitted:
      return HistoryOutcome::kOk;
    case ClientOutcome::kFailed:
      return HistoryOutcome::kFail;
    case ClientOutcome::kIndeterminate:
      return HistoryOutcome::kIndeterminate;
  }
  return HistoryOutcome::kIndeterminate;
}

// Per-node application stack (survives replica restarts: a restarted
// node restores its state machine from local applied state and
// re-learns the missing log suffix via catch-up).
struct NodeApp {
  KvStateMachine sm;
  LogApplier applier{&sm};
};

class ChaosRun {
 public:
  explicit ChaosRun(const ChaosOptions& options) : options_(options) {}

  ChaosReport Run();

 private:
  struct ClientCtx {
    std::unique_ptr<Client> client;
    Rng rng{0};
    uint64_t ops_issued = 0;
    bool stopped = false;
  };

  void WireNode(NodeId node);
  void OnNodeRestart(NodeId node);
  void StartRepairLoop();
  void CompactionSweep();
  void StartCompactionLoop();
  void IssueNext(size_t ci);
  void RecordCompletion(size_t history_index, bool is_read,
                        const OpResult& r);
  bool Converged() const;

  const ChaosOptions& options_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Nemesis> nemesis_;
  std::vector<std::unique_ptr<NodeApp>> apps_;
  std::vector<std::unique_ptr<ClientCtx>> clients_;
  HistoryRecorder recorder_;
  Timestamp workload_end_ = 0;
  uint64_t pending_ = 0;
};

void ChaosRun::WireNode(NodeId node) {
  NodeApp* app = apps_[node].get();
  Replica* replica = cluster_->replica(node);
  replica->set_decide_callback([app](SlotId slot, const Value& value) {
    app->applier.OnDecided(slot, value);
  });
  if (!options_.enable_compaction) return;
  // Snapshot hooks close over `this` + node, not the NodeApp pointer:
  // a restart replaces the app, and a stale capture would serve (or
  // install into) the dead instance.
  replica->set_snapshot_hooks(
      [this, node](SlotId* through) {
        NodeApp& a = *apps_[node];
        *through = a.applier.applied_watermark();
        return EncodeKvSnapshot(*through, a.sm);
      },
      [this, node](SlotId through, const std::string& envelope) {
        NodeApp& a = *apps_[node];
        return InstallKvSnapshot(through, envelope, &a.sm, &a.applier);
      });
}

void ChaosRun::OnNodeRestart(NodeId node) {
  if (options_.enable_compaction) {
    // Model a true process death: the volatile applied state is gone.
    // Rebuild from the node's own durable snapshot, re-verifying its
    // CRC — a torn install must surface as Corruption here, never as
    // silently wrong state. On failure the replica sheds the snapshot
    // and recovers from its peers instead.
    apps_[node] = std::make_unique<NodeApp>();
    NodeApp& a = *apps_[node];
    Replica* replica = cluster_->replica(node);
    const std::string& durable = replica->acceptor().snapshot_bytes();
    if (!durable.empty()) {
      Status st = InstallKvSnapshot(replica->acceptor().snapshot_through(),
                                    durable, &a.sm, &a.applier);
      if (!st.ok()) replica->DropInstalledSnapshot();
    }
  }
  WireNode(node);  // NodeHost::Restart dropped the decide callback
}

void ChaosRun::StartRepairLoop() {
  // Anti-entropy: periodically pull lagging nodes up to the most applied
  // node. This is what lets a restarted replica (whose decided log died
  // with the process) refill its applier.
  cluster_->sim().Schedule(1 * kSecond, [this] {
    NodeId best = 0, second = 0;
    SlotId best_wm = 0, second_wm = 0;
    for (NodeId n : cluster_->topology().AllNodes()) {
      const SlotId wm = apps_[n]->applier.applied_watermark();
      if (wm > best_wm) {
        second_wm = best_wm;
        second = best;
        best_wm = wm;
        best = n;
      } else if (wm > second_wm) {
        second_wm = wm;
        second = n;
      }
    }
    for (NodeId n : cluster_->topology().AllNodes()) {
      if (n == best || cluster_->transport().IsCrashed(n)) continue;
      if (cluster_->replica(n)->DecidedWatermark() < best_wm) {
        if (options_.enable_compaction && second != best && second != n &&
            second_wm > 0) {
          // Failover list: a corrupted or unresponsive snapshot source
          // must not strand the laggard until the next sweep.
          cluster_->replica(n)->CatchUpFrom(std::vector<NodeId>{best, second},
                                            [](const Status&) {});
        } else {
          cluster_->replica(n)->CatchUpFrom(best, [](const Status&) {});
        }
      }
    }
    StartRepairLoop();
  });
}

void ChaosRun::CompactionSweep() {
  // Quorum applied watermark: the (majority)-th highest applier
  // watermark. Every slot below it is applied by a majority, so with the
  // retained suffix subtracted the remaining log still lets any minority
  // laggard catch up without a snapshot (see docs/PROTOCOL.md).
  std::vector<SlotId> wms;
  for (NodeId n : cluster_->topology().AllNodes()) {
    wms.push_back(apps_[n]->applier.applied_watermark());
  }
  std::sort(wms.begin(), wms.end(), std::greater<SlotId>());
  const SlotId quorum_wm = wms[wms.size() / 2];
  if (quorum_wm <= options_.compaction_retained_suffix) return;
  const SlotId point = quorum_wm - options_.compaction_retained_suffix;
  for (NodeId n : cluster_->topology().AllNodes()) {
    if (cluster_->transport().IsCrashed(n)) continue;
    (void)cluster_->replica(n)->Compact(point);
  }
}

void ChaosRun::StartCompactionLoop() {
  cluster_->sim().Schedule(options_.compaction_interval, [this] {
    CompactionSweep();
    StartCompactionLoop();
  });
}

void ChaosRun::RecordCompletion(size_t history_index, bool is_read,
                                const OpResult& r) {
  recorder_.Complete(history_index, ToHistoryOutcome(r.outcome),
                     cluster_->sim().Now());
  HistoryOp& op = recorder_.op(history_index);
  op.seq = r.seq;
  op.slot = r.slot;
  op.observed_watermark = r.observed_watermark;
  op.local_read = r.local_read;
  if (is_read) {
    if (r.outcome == ClientOutcome::kCommitted && !r.reads.empty()) {
      op.observed = r.reads[0];
    } else if (r.outcome == ClientOutcome::kCommitted) {
      // Committed but nothing observed (no hooks): useless for the
      // checker; demote to a failed read so it constrains nothing.
      op.outcome = HistoryOutcome::kFail;
    }
  }
}

void ChaosRun::IssueNext(size_t ci) {
  ClientCtx& ctx = *clients_[ci];
  if (ctx.stopped || cluster_->sim().Now() >= workload_end_) {
    ctx.stopped = true;
    return;
  }
  const uint64_t cid = ctx.client->client_id();
  const std::string key =
      "k" + std::to_string(ctx.rng.NextBounded(options_.num_keys));
  const bool is_read = ctx.rng.NextBool(options_.read_fraction);
  ++ctx.ops_issued;
  ++pending_;
  const Timestamp now = cluster_->sim().Now();

  auto on_done = [this, ci, is_read](size_t history_index) {
    return [this, ci, is_read, history_index](const OpResult& r) {
      RecordCompletion(history_index, is_read, r);
      --pending_;
      ClientCtx& c = *clients_[ci];
      const Duration think =
          options_.think_time / 2 + c.rng.NextBounded(options_.think_time);
      cluster_->sim().Schedule(think, [this, ci] { IssueNext(ci); });
    };
  };

  if (is_read) {
    Transaction txn;
    txn.id = (cid << 32) | ctx.ops_issued;
    txn.ops.push_back(Operation::Get(key));
    const size_t idx =
        recorder_.Invoke(cid, 0, /*is_read=*/true, key, "", now);
    ctx.client->ExecuteReadOnlyWithRetry(std::move(txn), on_done(idx));
  } else {
    const std::string value =
        "c" + std::to_string(cid) + "-" + std::to_string(ctx.ops_issued);
    Transaction txn;
    txn.id = (cid << 32) | ctx.ops_issued;
    txn.ops.push_back(Operation::Put(key, value));
    const size_t idx =
        recorder_.Invoke(cid, 0, /*is_read=*/false, key, value, now);
    ctx.client->ExecuteWithRetry(std::move(txn), on_done(idx));
  }
}

bool ChaosRun::Converged() const {
  const auto nodes = cluster_->topology().AllNodes();
  const SlotId wm = apps_[nodes[0]]->applier.applied_watermark();
  const uint64_t checksum = apps_[nodes[0]]->sm.Checksum();
  for (NodeId n : nodes) {
    if (apps_[n]->applier.applied_watermark() != wm) return false;
    if (apps_[n]->sm.Checksum() != checksum) return false;
  }
  return true;
}

ChaosReport ChaosRun::Run() {
  ChaosReport report;

  ClusterOptions copts;
  copts.seed = options_.seed;
  // Chaos is the most timer-heavy workload in the repo (failure
  // detectors, leases, nemesis schedules, retrying clients); pre-size
  // the event slab and delivery pool so even this cell runs with zero
  // pool growth (see docs/perf.md, "Pre-sizing from workload hints").
  copts.expected_pending_events = 4096;
  copts.transport.initial_delivery_batches = 4096;
  copts.transport.drop_probability = options_.drop_probability;
  copts.transport.duplicate_probability = options_.duplicate_probability;
  copts.transport.max_jitter = 5 * kMillisecond;
  copts.replica.le_timeout = 800 * kMillisecond;
  copts.replica.propose_timeout = 400 * kMillisecond;
  copts.replica.num_intents = 2;
  copts.replica.storage_sync_delay = 100 * kMicrosecond;
  copts.replica.decide_policy = DecidePolicy::kAll;
  copts.replica.enable_leases = true;
  copts.replica.lease_duration = 1 * kSecond;
  copts.replica.enable_failure_detector = true;
  copts.replica.heartbeat_interval = 300 * kMillisecond;
  copts.replica.election_timeout = 2 * kSecond;
  copts.replica.enable_fast_path = options_.enable_fast_path;
  copts.replica.enable_compaction = options_.enable_compaction;
  copts.replica.compaction_retained_suffix =
      options_.compaction_retained_suffix;
  if (options_.enable_compaction) {
    copts.replica.snapshot_chunk_bytes = options_.snapshot_chunk_bytes;
  }
  cluster_ = std::make_unique<Cluster>(
      Topology::Uniform(options_.zones, options_.nodes_per_zone,
                        options_.inter_zone_rtt_ms),
      options_.mode, copts);

  const uint32_t num_nodes = cluster_->topology().num_nodes();
  apps_.resize(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    apps_[n] = std::make_unique<NodeApp>();
    WireNode(n);
  }

  nemesis_ = std::make_unique<Nemesis>(cluster_.get(), options_.seed);
  nemesis_->set_restart_hook([this](NodeId node) { OnNodeRestart(node); });
  if (options_.enable_compaction) {
    nemesis_->set_compaction_hook([this] { CompactionSweep(); });
  }
  if (options_.schedule != "none") {
    if (!nemesis_->AddNamedSchedule(options_.schedule, 1 * kSecond,
                                    options_.duration)) {
      report.consistency.violations.push_back("unknown nemesis schedule '" +
                                              options_.schedule + "'");
      return report;
    }
  }

  // Clients: one per zone round-robin, each with failover access points
  // in the other zones.
  Rng workload_rng(options_.seed * 7919 + 11);
  for (uint32_t i = 0; i < options_.num_clients; ++i) {
    const ZoneId zone = i % options_.zones;
    Replica* access = cluster_->ReplicaInZone(
        zone, (i / options_.zones) % options_.nodes_per_zone);
    Client::Options copts_client;
    // Pin client ids per run: the auto-allocator is process-global, and
    // the golden history (tests/determinism_golden_test.cc) must not
    // depend on how many clients earlier runs in the process created.
    copts_client.client_id = i + 1;
    copts_client.request_deadline = options_.request_deadline;
    copts_client.retry_backoff_base = 20 * kMillisecond;
    copts_client.retry_backoff_cap = 400 * kMillisecond;
    auto ctx = std::make_unique<ClientCtx>();
    ctx->client =
        std::make_unique<Client>(&cluster_->sim(), access, copts_client);
    ctx->rng = workload_rng.Fork();
    for (uint32_t z = 1; z <= 3 && z < options_.zones; ++z) {
      ctx->client->AddFailoverAccess(
          cluster_->ReplicaInZone((zone + z) % options_.zones, 0));
    }
    Client::StateHooks hooks;
    hooks.get = [this](NodeId node, const std::string& key) {
      return apps_[node]->sm.Get(key);
    };
    hooks.applied_watermark = [this](NodeId node) {
      return apps_[node]->applier.applied_watermark();
    };
    hooks.resolve = [this](NodeId node) { return cluster_->replica(node); };
    ctx->client->set_state_hooks(std::move(hooks));
    clients_.push_back(std::move(ctx));
  }

  StartRepairLoop();
  if (options_.enable_compaction) StartCompactionLoop();
  (void)cluster_->ElectLeader(cluster_->NodeInZone(0, 0));

  workload_end_ = cluster_->sim().Now() + options_.duration;
  nemesis_->Arm();
  for (size_t i = 0; i < clients_.size(); ++i) {
    cluster_->sim().Schedule(10 * kMillisecond * (i + 1),
                             [this, i] { IssueNext(i); });
  }
  cluster_->sim().RunFor(options_.duration + 2 * kSecond);

  // Quiesce: stop the faults, drain the clients, converge the appliers.
  nemesis_->Quiesce();
  cluster_->RunUntil([this] { return pending_ == 0; }, options_.settle);
  // Drive one election + commit probe so the final leader's recovery
  // fills any log holes left by interrupted proposals.
  (void)cluster_->ElectLeader(cluster_->NodeInZone(0, 0));
  (void)cluster_->Commit(cluster_->NodeInZone(0, 0),
                         Value::Of(~0ULL, EncodeBatch({})));
  cluster_->RunUntil([this] { return pending_ == 0 && Converged(); },
                     options_.settle);

  // --- report -----------------------------------------------------------
  report.converged = Converged() && pending_ == 0;
  report.ops_invoked = recorder_.size();
  report.ops_committed = recorder_.CountOutcome(HistoryOutcome::kOk);
  report.ops_failed = recorder_.CountOutcome(HistoryOutcome::kFail);
  report.ops_indeterminate =
      recorder_.CountOutcome(HistoryOutcome::kIndeterminate) +
      recorder_.CountOutcome(HistoryOutcome::kPending);

  NodeId best = 0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    const NodeApp& app = *apps_[n];
    report.duplicates_skipped += app.sm.duplicates_skipped();
    report.max_applied_commands =
        std::max(report.max_applied_commands, app.sm.applied_commands());
    if (app.applier.applied_watermark() >
        apps_[best]->applier.applied_watermark()) {
      best = n;
    }
  }
  const KvStateMachine& final_sm = apps_[best]->sm;
  report.applied_writes = final_sm.applied_writes();
  for (const HistoryOp& op : recorder_.ops()) {
    if (op.is_read) continue;
    ++report.writes_invoked;
    if (op.outcome == HistoryOutcome::kOk) ++report.writes_committed;
    if (op.seq != 0 && final_sm.WasApplied(op.client_id, op.seq)) {
      ++report.writes_eventually_applied;
    }
  }
  for (const auto& ctx : clients_) {
    report.client_retries += ctx->client->retries();
    report.local_reads += ctx->client->local_reads();
  }
  report.nemesis_actions = nemesis_->actions_executed();
  report.nemesis_log = nemesis_->action_log();
  for (NodeId n = 0; n < num_nodes; ++n) {
    const ProtocolCounters& pc = cluster_->replica(n)->counters();
    report.snapshots_served += pc.snapshots_served;
    report.fast_commits += pc.fast_commits;
    report.fast_fallbacks += pc.fast_fallbacks;
    report.snapshots_installed += pc.snapshots_installed;
    report.snapshot_corruptions_detected += pc.snapshot_corruptions_detected;
    report.log_compactions += pc.log_compactions;
    report.catchup_failovers += pc.catchup_failovers;
    report.max_resident_decided = std::max<uint64_t>(
        report.max_resident_decided, cluster_->replica(n)->decided().size());
    std::ostringstream os;
    os << "node " << n << ": applied="
       << apps_[n]->applier.applied_watermark()
       << " decided=" << cluster_->replica(n)->DecidedWatermark()
       << " checksum=" << std::hex << apps_[n]->sm.Checksum();
    report.node_states.push_back(os.str());
  }
  report.consistency = CheckHistory(recorder_.ops());
  report.history_text = DumpHistory(recorder_.ops());
  return report;
}

}  // namespace

std::string ChaosReport::Summary() const {
  std::ostringstream os;
  os << (ok() ? "OK" : "VIOLATIONS") << ": " << ops_invoked << " ops ("
     << ops_committed << " committed, " << ops_failed << " failed, "
     << ops_indeterminate << " indeterminate), " << client_retries
     << " retries, " << local_reads << " lease reads; writes "
     << writes_eventually_applied << "/" << writes_invoked
     << " eventually applied (" << applied_writes
     << " puts executed); " << duplicates_skipped
     << " duplicate applies skipped; converged="
     << (converged ? "yes" : "no") << "; nemesis actions="
     << nemesis_actions;
  if (fast_commits > 0 || fast_fallbacks > 0) {
    os << "; fast commits/fallbacks=" << fast_commits << "/"
       << fast_fallbacks;
  }
  if (log_compactions > 0 || snapshots_installed > 0 ||
      snapshot_corruptions_detected > 0) {
    os << "; compactions=" << log_compactions << " snapshots served/installed="
       << snapshots_served << "/" << snapshots_installed
       << " corruptions detected=" << snapshot_corruptions_detected
       << " catch-up failovers=" << catchup_failovers
       << " max resident decided=" << max_resident_decided;
  }
  os << "\nconsistency: " << consistency.Summary();
  return os.str();
}

ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosRun run(options);
  return run.Run();
}

}  // namespace dpaxos
