// Clock-abstraction test (realnet tier): the same Replica that runs on
// the virtual-clock Simulator elects a leader and commits end-to-end on
// a real-clock EventLoop, over TCP loopback sockets, with no protocol
// changes — timers go through the EventScheduler interface either way.
//
// Three in-process nodes share one EventLoop (single-threaded, like the
// simulator, so no locking questions); what is real here is the clock,
// the sockets, and the wire codec. Labeled `realnet` and excluded from
// the tier-1 ctest default because it depends on wall-clock timing.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <optional>
#include <string_view>
#include <vector>

#include "net/tcp/event_loop.h"
#include "net/tcp/tcp_transport.h"
#include "paxos/node_host.h"
#include "quorum/quorum_system.h"
#include "paxos/replica.h"
#include "paxos/wire.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "txn/transaction.h"

namespace dpaxos {
namespace {

constexpr Duration kWait = 10 * kSecond;

struct RealNode {
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<NodeHost> host;
  Replica* replica = nullptr;
  KvStateMachine kv;
  std::unique_ptr<LogApplier> applier;
};

class RealnetElectionTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 3;

  void SetUp() override {
    topology_ = Topology::Uniform(/*zones=*/1, kNodes, 1.0, 1.0);
    quorums_ = MakeQuorumSystem(ProtocolMode::kMultiPaxos, &*topology_,
                                FaultTolerance{});
    loop_ = std::make_unique<EventLoop>(/*seed=*/41);

    const std::vector<HostPort> any(kNodes, HostPort{"127.0.0.1", 0});
    for (NodeId n = 0; n < kNodes; ++n) {
      auto& node = nodes_[n];
      node.transport =
          std::make_unique<TcpTransport>(loop_.get(), n, any);
      node.transport->set_wire_codec(
          [](const Message& m, std::string* out) {
            SerializeMessageInto(m, out);
          },
          [](std::string_view bytes) -> MessagePtr {
            Result<MessagePtr> r = DeserializeMessage(bytes);
            return r.ok() ? r.value() : nullptr;
          });
      ASSERT_TRUE(node.transport->Listen().ok());
    }
    // Everyone bound an ephemeral port; tell every node where the
    // others actually ended up.
    for (NodeId a = 0; a < kNodes; ++a) {
      for (NodeId b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        nodes_[a].transport->UpdatePeerAddress(
            b, HostPort{"127.0.0.1", nodes_[b].transport->listen_port()});
      }
    }
    for (NodeId n = 0; n < kNodes; ++n) {
      auto& node = nodes_[n];
      node.host = std::make_unique<NodeHost>(
          loop_.get(), node.transport.get(), &*topology_, n);
      ReplicaConfig config;
      // Tight real-time timeouts: the whole test runs in well under a
      // second on an idle host, with headroom for loaded CI machines.
      config.heartbeat_interval = 20 * kMillisecond;
      config.election_timeout = 100 * kMillisecond;
      config.le_timeout = 200 * kMillisecond;
      config.propose_timeout = 200 * kMillisecond;
      config.retry_backoff_base = 10 * kMillisecond;
      config.decide_policy = DecidePolicy::kAll;
      node.replica = node.host->AddReplica(quorums_.get(), config);
      node.applier = std::make_unique<LogApplier>(&node.kv);
      LogApplier* applier = node.applier.get();
      node.replica->set_decide_callback(
          [applier](SlotId slot, const Value& value) {
            applier->OnDecided(slot, value);
          });
    }
  }

  Topology* topology() { return &*topology_; }

  std::optional<Topology> topology_;
  std::unique_ptr<QuorumSystem> quorums_;
  std::unique_ptr<EventLoop> loop_;
  // In place: a node's KvStateMachine neither copies nor moves.
  std::array<RealNode, kNodes> nodes_;
};

TEST_F(RealnetElectionTest, ElectsAndCommitsOnRealClock) {
  // Phase 1: node 0 campaigns; the Phase-1 round trips run over real
  // loopback TCP with real timers.
  Status election = Status::Unavailable("pending");
  bool election_done = false;
  nodes_[0].replica->TryBecomeLeader([&](const Status& st) {
    election = st;
    election_done = true;
  });
  ASSERT_TRUE(loop_->RunUntil([&] { return election_done; }, kWait));
  ASSERT_TRUE(election.ok()) << election.ToString();
  EXPECT_TRUE(nodes_[0].replica->is_leader());

  // Phase 2: commit one write through the elected leader and watch it
  // apply on every replica (decide broadcast over TCP).
  Transaction txn;
  txn.id = 1;
  txn.client_id = 77;
  txn.seq = 1;
  txn.ops.push_back(Operation::Put("greeting", "from-a-real-clock"));
  Status commit = Status::Unavailable("pending");
  bool committed = false;
  nodes_[0].replica->Submit(
      Value::Of(txn.id, EncodeBatch({txn})),
      [&](const Status& st, SlotId, Duration) {
        commit = st;
        committed = true;
      });
  ASSERT_TRUE(loop_->RunUntil([&] { return committed; }, kWait));
  ASSERT_TRUE(commit.ok()) << commit.ToString();

  ASSERT_TRUE(loop_->RunUntil(
      [&] {
        for (const auto& node : nodes_) {
          if (!node.kv.Get("greeting").has_value()) return false;
        }
        return true;
      },
      kWait));
  for (const auto& node : nodes_) {
    EXPECT_EQ(node.kv.Get("greeting").value_or(""), "from-a-real-clock");
    EXPECT_TRUE(node.kv.WasApplied(77, 1));
  }
  // All state machines converged byte-for-byte.
  EXPECT_EQ(nodes_[0].kv.Checksum(), nodes_[1].kv.Checksum());
  EXPECT_EQ(nodes_[1].kv.Checksum(), nodes_[2].kv.Checksum());
}

TEST_F(RealnetElectionTest, FollowerForwardsToLeaderOverTcp) {
  bool elected = false;
  nodes_[0].replica->TryBecomeLeader([&](const Status&) { elected = true; });
  ASSERT_TRUE(loop_->RunUntil([&] { return elected; }, kWait));
  ASSERT_TRUE(nodes_[0].replica->is_leader());

  // A follower that knows the leader forwards the submission instead of
  // campaigning (SubmitOrForward path, over a real socket).
  nodes_[2].replica->set_leader_hint(0);
  Transaction txn;
  txn.id = 2;
  txn.client_id = 78;
  txn.seq = 9;
  txn.ops.push_back(Operation::Put("fwd", "yes"));
  Status commit = Status::Unavailable("pending");
  bool committed = false;
  nodes_[2].replica->SubmitOrForward(
      Value::Of(txn.id, EncodeBatch({txn})),
      [&](const Status& st, SlotId, Duration) {
        commit = st;
        committed = true;
      });
  ASSERT_TRUE(loop_->RunUntil([&] { return committed; }, kWait));
  ASSERT_TRUE(commit.ok()) << commit.ToString();
  ASSERT_TRUE(loop_->RunUntil(
      [&] { return nodes_[2].kv.Get("fwd").has_value(); }, kWait));
  EXPECT_EQ(nodes_[2].kv.Get("fwd").value_or(""), "yes");
}

}  // namespace
}  // namespace dpaxos
