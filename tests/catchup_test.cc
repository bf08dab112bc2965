// Tests for learner catch-up, log truncation and snapshot transfer.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "smr/snapshot.h"
#include "txn/transaction.h"

namespace dpaxos {
namespace {

Value PutValue(uint64_t id, const std::string& key, const std::string& val) {
  Transaction txn;
  txn.id = id;
  txn.ops = {Operation::Put(key, val)};
  return Value::Of(id, EncodeBatch({txn}));
}

Status AwaitCatchUp(Cluster& cluster, Replica* replica, NodeId peer) {
  std::optional<Status> result;
  replica->CatchUpFrom(peer, [&](const Status& st) { result = st; });
  while (!result.has_value() && cluster.sim().Step()) {
  }
  return result.value_or(Status::TimedOut("no progress"));
}

Status AwaitCatchUpFrom(Cluster& cluster, Replica* replica,
                        std::vector<NodeId> peers) {
  std::optional<Status> result;
  replica->CatchUpFrom(std::move(peers),
                       [&](const Status& st) { result = st; });
  while (!result.has_value() && cluster.sim().Step()) {
  }
  return result.value_or(Status::TimedOut("no progress"));
}

// Standard snapshot hook pair: the provider wraps the serialized KV
// state in a CRC-checksummed envelope; the installer verifies it before
// restoring and fast-forwards the applier past the covered prefix.
void WireSnapshotHooks(Replica* r, KvStateMachine* kv, LogApplier* applier) {
  r->set_snapshot_hooks(
      [kv, applier](SlotId* through) {
        *through = applier->applied_watermark();
        return EncodeSnapshot(*through, kv->SerializeFull());
      },
      [kv, applier](SlotId through, const std::string& envelope) {
        Result<Snapshot> snap = DecodeSnapshot(envelope);
        if (!snap.ok()) return snap.status();
        Status st = kv->RestoreFull(snap->payload);
        if (!st.ok()) return st;
        applier->FastForwardTo(through);
        return Status::OK();
      });
}

TEST(CatchUpTest, RecoveredReplicaPullsMissedSlots) {
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  ASSERT_TRUE(cluster.Commit(leader, PutValue(1, "a", "1")).ok());

  // A distant replica crashes and misses a batch of commits.
  const NodeId lagging = cluster.NodeInZone(5, 0);
  cluster.transport().Crash(lagging);
  for (uint64_t i = 2; i <= 10; ++i) {
    ASSERT_TRUE(cluster.Commit(leader, PutValue(i, "k", "v")).ok());
  }
  cluster.transport().Recover(lagging);
  EXPECT_EQ(cluster.replica(lagging)->DecidedWatermark(), 0u);

  ASSERT_TRUE(AwaitCatchUp(cluster, cluster.replica(lagging), leader).ok());
  EXPECT_EQ(cluster.replica(lagging)->DecidedWatermark(), 10u);
  for (const auto& [slot, value] : cluster.replica(leader)->decided()) {
    auto it = cluster.replica(lagging)->decided().find(slot);
    ASSERT_NE(it, cluster.replica(lagging)->decided().end());
    EXPECT_EQ(it->second.id, value.id);
  }
}

TEST(CatchUpTest, PagesThroughLongLogs) {
  // More slots than one learn-reply page (256).
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  for (uint64_t i = 1; i <= 600; ++i) {
    ASSERT_TRUE(cluster.Commit(leader, Value::Synthetic(i, 64)).ok());
  }
  Replica* lagging = cluster.ReplicaInZone(6, 2);
  ASSERT_TRUE(AwaitCatchUp(cluster, lagging, leader).ok());
  EXPECT_EQ(lagging->DecidedWatermark(), 600u);
}

TEST(CatchUpTest, RejectsSelfAndConcurrent) {
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone);
  Replica* r = cluster.replica(3);
  Status st;
  r->CatchUpFrom(3, [&](const Status& s) { st = s; });
  EXPECT_TRUE(st.IsInvalidArgument());

  r->CatchUpFrom(0, [](const Status&) {});
  Status st2;
  r->CatchUpFrom(1, [&](const Status& s) { st2 = s; });
  EXPECT_TRUE(st2.IsAborted());
}

TEST(CatchUpTest, TruncationGuards) {
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(cluster.Commit(leader, PutValue(i, "k", "v")).ok());
  }
  Replica* r = cluster.replica(leader);
  // Beyond the watermark: refused.
  EXPECT_TRUE(r->TruncateDecidedBelow(99).IsFailedPrecondition());
  // Without snapshot hooks: refused.
  EXPECT_TRUE(r->TruncateDecidedBelow(3).IsFailedPrecondition());

  KvStateMachine kv;
  r->set_snapshot_hooks(
      [&](SlotId* through) {
        *through = r->DecidedWatermark();
        return EncodeSnapshot(*through, kv.SerializeFull());
      },
      [&](SlotId, const std::string& envelope) {
        Result<Snapshot> snap = DecodeSnapshot(envelope);
        if (!snap.ok()) return snap.status();
        return kv.RestoreFull(snap->payload);
      });
  ASSERT_TRUE(r->TruncateDecidedBelow(3).ok());
  EXPECT_EQ(r->log_start(), 3u);
  EXPECT_EQ(r->decided().size(), 2u);
  EXPECT_EQ(r->DecidedWatermark(), 5u);  // watermark unaffected
}

// Compact serializes an image only when it can release something: an
// idle node's periodic sweep must not pay for an image it would drop.
TEST(CatchUpTest, CompactSkipsTheImageWhenNothingCanBeReleased) {
  ClusterOptions options;
  options.replica.enable_compaction = true;
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone,
                  options);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(cluster.Commit(leader, PutValue(i, "k", "v")).ok());
  }
  Replica* r = cluster.replica(leader);
  KvStateMachine kv;
  int images = 0;
  r->set_snapshot_hooks(
      [&](SlotId* through) {
        ++images;
        *through = r->DecidedWatermark();
        return EncodeSnapshot(*through, kv.SerializeFull());
      },
      [](SlotId, const std::string&) { return Status::OK(); });

  ASSERT_TRUE(r->Compact(5).ok());
  EXPECT_EQ(images, 1);
  EXPECT_EQ(r->log_start(), 5u);
  EXPECT_EQ(r->counters().log_compactions, 1u);

  // Nothing was decided since: the sweep's next Compact has nothing to
  // release, and neither does one below the released prefix.
  ASSERT_TRUE(r->Compact(5).ok());
  ASSERT_TRUE(r->Compact(99).ok());
  ASSERT_TRUE(r->Compact(3).ok());
  EXPECT_EQ(images, 1);
  EXPECT_EQ(r->log_start(), 5u);
  EXPECT_EQ(r->counters().log_compactions, 1u);
}

TEST(CatchUpTest, SnapshotFallbackAfterTruncation) {
  // Full flow: leader applies+snapshots+truncates; a blank replica must
  // recover via snapshot + log tail and converge to identical KV state.
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());

  KvStateMachine leader_kv;
  LogApplier leader_applier(&leader_kv);
  cluster.replica(leader)->set_decide_callback(
      [&](SlotId s, const Value& v) { leader_applier.OnDecided(s, v); });
  WireSnapshotHooks(cluster.replica(leader), &leader_kv, &leader_applier);

  for (uint64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(cluster
                    .Commit(leader, PutValue(i, "key" + std::to_string(i),
                                             "value" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(cluster.replica(leader)->TruncateDecidedBelow(6).ok());
  for (uint64_t i = 9; i <= 12; ++i) {
    ASSERT_TRUE(cluster.Commit(leader, PutValue(i, "tail", "t")).ok());
  }

  // The recovering replica wires a KV installer + applier.
  Replica* fresh = cluster.ReplicaInZone(6, 1);
  KvStateMachine fresh_kv;
  LogApplier fresh_applier(&fresh_kv);
  fresh->set_decide_callback(
      [&](SlotId s, const Value& v) { fresh_applier.OnDecided(s, v); });
  WireSnapshotHooks(fresh, &fresh_kv, &fresh_applier);

  ASSERT_TRUE(AwaitCatchUp(cluster, fresh, leader).ok());
  cluster.sim().RunFor(kSecond);
  EXPECT_EQ(fresh->DecidedWatermark(), 12u);
  EXPECT_EQ(fresh_kv.Checksum(), leader_kv.Checksum());
  EXPECT_GT(fresh->counters().snapshots_installed, 0u);
  EXPECT_EQ(fresh_kv.Get("key3"), "value3");  // came from the snapshot
  EXPECT_EQ(fresh_kv.Get("tail"), "t");       // came from the log tail
}

TEST(CatchUpTest, MultiChunkSnapshotTransfer) {
  // Force the snapshot to cross many chunks: tiny chunk size, fat values.
  ClusterOptions options;
  options.replica.snapshot_chunk_bytes = 64;
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone,
                  options);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());

  KvStateMachine leader_kv;
  LogApplier leader_applier(&leader_kv);
  cluster.replica(leader)->set_decide_callback(
      [&](SlotId s, const Value& v) { leader_applier.OnDecided(s, v); });
  WireSnapshotHooks(cluster.replica(leader), &leader_kv, &leader_applier);
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(cluster
                    .Commit(leader, PutValue(i, "key" + std::to_string(i),
                                             std::string(100, 'x')))
                    .ok());
  }
  ASSERT_TRUE(cluster.replica(leader)->TruncateDecidedBelow(10).ok());

  Replica* fresh = cluster.ReplicaInZone(5, 1);
  KvStateMachine fresh_kv;
  LogApplier fresh_applier(&fresh_kv);
  fresh->set_decide_callback(
      [&](SlotId s, const Value& v) { fresh_applier.OnDecided(s, v); });
  WireSnapshotHooks(fresh, &fresh_kv, &fresh_applier);

  ASSERT_TRUE(AwaitCatchUp(cluster, fresh, leader).ok());
  EXPECT_EQ(fresh_kv.Checksum(), leader_kv.Checksum());
  EXPECT_GT(cluster.replica(leader)->counters().snapshot_chunks_sent, 10u);
}

TEST(CatchUpTest, CorruptSnapshotTriggersFailoverToHealthyPeer) {
  // The first peer serves a bit-flipped snapshot; the CRC check must
  // reject it (never applying it silently) and the catch-up must fail
  // over to the second peer and still converge.
  ClusterOptions options;
  options.replica.decide_policy = DecidePolicy::kAll;  // bad_peer learns too
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone,
                  options);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());

  const NodeId bad_peer = cluster.NodeInZone(1, 0);
  std::vector<Replica*> sources = {cluster.replica(bad_peer),
                                   cluster.replica(leader)};
  std::vector<KvStateMachine> kvs(2);
  std::vector<std::unique_ptr<LogApplier>> appliers;
  for (size_t i = 0; i < sources.size(); ++i) {
    appliers.push_back(std::make_unique<LogApplier>(&kvs[i]));
    LogApplier* a = appliers.back().get();
    sources[i]->set_decide_callback(
        [a](SlotId s, const Value& v) { a->OnDecided(s, v); });
    WireSnapshotHooks(sources[i], &kvs[i], a);
  }

  // The recovering node is down while the history is committed (and
  // later compacted away), so it must come back through a snapshot.
  const NodeId fresh_node = cluster.NodeInZone(6, 0);
  cluster.transport().Crash(fresh_node);
  for (uint64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(cluster.Commit(leader, PutValue(i, "k" + std::to_string(i),
                                                "v"))
                    .ok());
  }
  cluster.sim().RunFor(kSecond);  // let decides propagate to bad_peer
  ASSERT_TRUE(cluster.replica(bad_peer)->TruncateDecidedBelow(8).ok());
  ASSERT_TRUE(cluster.replica(leader)->TruncateDecidedBelow(8).ok());
  cluster.replica(bad_peer)->InjectSnapshotFault(
      Replica::SnapshotFault::kBitFlip);
  cluster.transport().Recover(fresh_node);

  Replica* fresh = cluster.replica(fresh_node);
  KvStateMachine fresh_kv;
  LogApplier fresh_applier(&fresh_kv);
  fresh->set_decide_callback(
      [&](SlotId s, const Value& v) { fresh_applier.OnDecided(s, v); });
  WireSnapshotHooks(fresh, &fresh_kv, &fresh_applier);

  ASSERT_TRUE(AwaitCatchUpFrom(cluster, fresh, {bad_peer, leader}).ok());
  EXPECT_GE(fresh->counters().snapshot_corruptions_detected, 1u);
  EXPECT_GE(fresh->counters().catchup_failovers, 1u);
  EXPECT_GT(fresh->counters().snapshots_installed, 0u);
  EXPECT_EQ(fresh_kv.Checksum(), kvs[1].Checksum());
  EXPECT_EQ(fresh_kv.Get("k3"), "v");
}

TEST(CatchUpTest, TimesOutAgainstDeadPeer) {
  ClusterOptions options;
  options.replica.propose_timeout = 200 * kMillisecond;
  options.replica.catchup_retry_limit = 2;
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone,
                  options);
  cluster.transport().Crash(0);
  Status st = AwaitCatchUp(cluster, cluster.replica(5), 0);
  EXPECT_TRUE(st.IsTimedOut());
}

TEST(CatchUpTest, BackoffAndFailoverPastDeadPeers) {
  // Jittered exponential backoff enabled; first two peers are dead, the
  // third is healthy. The retry budget must drain per peer and the
  // catch-up must still land on the live one.
  ClusterOptions options;
  options.replica.propose_timeout = 100 * kMillisecond;
  options.replica.catchup_retry_limit = 2;
  options.replica.catchup_backoff_base = 20 * kMillisecond;
  options.replica.catchup_backoff_cap = 500 * kMillisecond;
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone,
                  options);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(cluster.Commit(leader, PutValue(i, "k", "v")).ok());
  }
  const NodeId dead1 = cluster.NodeInZone(1, 0);
  const NodeId dead2 = cluster.NodeInZone(2, 0);
  cluster.transport().Crash(dead1);
  cluster.transport().Crash(dead2);

  Replica* fresh = cluster.ReplicaInZone(6, 2);
  ASSERT_TRUE(
      AwaitCatchUpFrom(cluster, fresh, {dead1, dead2, leader}).ok());
  EXPECT_EQ(fresh->counters().catchup_failovers, 2u);
  EXPECT_EQ(fresh->DecidedWatermark(), 4u);

  // All peers dead: the overall catch-up surfaces the timeout.
  cluster.transport().Crash(leader);
  Replica* other = cluster.ReplicaInZone(6, 1);
  Status st = AwaitCatchUpFrom(cluster, other, {dead1, dead2, leader});
  EXPECT_TRUE(st.IsTimedOut());
}

// Corrupt-but-parseable messages (realnet bit flips survive the codec
// when they land in value bytes or integer fields): the replica must
// drop them, never abort or allocate proportionally to a forged slot.
TEST(CatchUpTest, ImplausibleDecideSlotIsRejectedNotAllocated) {
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  ASSERT_TRUE(cluster.Commit(leader, PutValue(1, "a", "1")).ok());

  Replica* follower = cluster.ReplicaInZone(3, 0);
  const SlotId before = follower->DecidedWatermark();
  // A bit flip high in the slot field: feeding this to the decided log
  // would resize it by ~2^50 cells.
  follower->HandleMessage(
      leader, std::make_shared<DecideMsg>(0, SlotId{1} << 50,
                                          PutValue(99, "k", "v")));
  EXPECT_EQ(follower->DecidedWatermark(), before);
  EXPECT_EQ(follower->counters().suspect_msgs_rejected, 1u);
  EXPECT_EQ(follower->decided().count(SlotId{1} << 50), 0u);
}

TEST(CatchUpTest, ConflictingDecideIsDroppedNotFatal) {
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  ASSERT_TRUE(cluster.Commit(leader, PutValue(1, "a", "1")).ok());

  // The leader learned its own decide; forge a conflicting one at it
  // from any peer.
  Replica* learner = cluster.replica(leader);
  ASSERT_FALSE(learner->decided().empty());
  const auto [slot, original] = *learner->decided().begin();

  // Same slot, different value — a flipped value byte on the wire.
  learner->HandleMessage(
      cluster.NodeInZone(1), std::make_shared<DecideMsg>(0, slot, PutValue(2, "a", "X")));
  EXPECT_EQ(learner->counters().suspect_msgs_rejected, 1u);
  EXPECT_TRUE(learner->decided().at(slot) == original);
}

}  // namespace
}  // namespace dpaxos
