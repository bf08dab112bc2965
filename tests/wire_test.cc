// Wire codec tests: round-trip every message type, fuzz the decoder, and
// run full protocol scenarios with every message forced through the
// codec (SimTransportOptions::validate_wire_codec).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <type_traits>

#include "common/random.h"
#include "harness/cluster.h"
#include "paxos/wire.h"
#include "paxos/wire_layout.h"
#include "wire_specimens.h"

namespace dpaxos {
namespace {

// Round-trip helper: serialize, deserialize, return the typed copy.
template <typename T>
std::shared_ptr<const T> RoundTrip(const T& msg) {
  const std::string bytes = SerializeMessage(msg);
  Result<MessagePtr> decoded = DeserializeMessage(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return nullptr;
  auto typed = std::dynamic_pointer_cast<const T>(decoded.value());
  EXPECT_NE(typed, nullptr) << "decoded to wrong type";
  if (typed != nullptr) {
    EXPECT_EQ(typed->partition, msg.partition);
    EXPECT_STREQ(typed->TypeName(), msg.TypeName());
  }
  return typed;
}

Intent SampleIntent(uint64_t round, NodeId leader) {
  return Intent{Ballot{round, leader}, leader, {leader, leader + 1}};
}

LeaderZoneView SampleView() {
  LeaderZoneView view;
  view.epoch = 3;
  view.current = 2;
  view.next = 5;
  return view;
}

TEST(WireTest, PrepareRoundTrip) {
  PrepareMsg msg(7, Ballot{42, 3}, 17,
                 {SampleIntent(42, 3), SampleIntent(41, 9)}, true,
                 SampleView());
  auto rt = RoundTrip(msg);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->ballot, msg.ballot);
  EXPECT_EQ(rt->first_slot, 17u);
  ASSERT_EQ(rt->intents.size(), 2u);
  EXPECT_EQ(rt->intents[1], msg.intents[1]);
  EXPECT_TRUE(rt->expansion);
  EXPECT_EQ(rt->lz_view, msg.lz_view);
}

TEST(WireTest, PromiseRoundTrip) {
  PromiseMsg msg(1, Ballot{9, 2}, false);
  msg.accepted.push_back(
      AcceptedEntry{5, Ballot{8, 1}, Value::Of(77, "payload\x00bytes")});
  // The fast flag must survive the codec: recovery ranks a classic
  // entry above a fast entry at the same ballot, so dropping the bit
  // on the wire would change election outcomes.
  msg.accepted.push_back(
      AcceptedEntry{6, Ballot{8, 1}, Value::Of(78, "fastvote"), true});
  msg.intents.push_back(SampleIntent(7, 4));
  msg.lz_view = SampleView();
  auto rt = RoundTrip(msg);
  ASSERT_NE(rt, nullptr);
  ASSERT_EQ(rt->accepted.size(), 2u);
  EXPECT_EQ(rt->accepted[0].slot, 5u);
  EXPECT_EQ(rt->accepted[0].ballot, (Ballot{8, 1}));
  EXPECT_EQ(rt->accepted[0].value, msg.accepted[0].value);
  EXPECT_FALSE(rt->accepted[0].fast);
  EXPECT_EQ(rt->accepted[1].slot, 6u);
  EXPECT_TRUE(rt->accepted[1].fast);
  EXPECT_EQ(rt->intents[0], msg.intents[0]);
}

TEST(WireTest, FastPathMessagesRoundTrip) {
  {
    auto rt = RoundTrip(FastGrantMsg(2, Ballot{7, 1}, 40, {1, 4, 9}));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->ballot, (Ballot{7, 1}));
    EXPECT_EQ(rt->first_slot, 40u);
    EXPECT_EQ(rt->quorum, (std::vector<NodeId>{1, 4, 9}));
  }
  {
    auto rt =
        RoundTrip(FastAcceptMsg(2, Ballot{7, 1}, 55, Value::Of(9, "fastv")));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->request_id, 55u);
    EXPECT_EQ(rt->value.payload, "fastv");
  }
  {
    auto rt = RoundTrip(
        FastAcceptedMsg(2, Ballot{7, 1}, 41, 4, 55, Value::Of(9, "fastv")));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->slot, 41u);
    EXPECT_EQ(rt->proposer, 4u);
    EXPECT_EQ(rt->request_id, 55u);
    EXPECT_EQ(rt->value.id, 9u);
  }
  {
    FastNackMsg m(2, Ballot{7, 1}, Ballot{8, 2}, 55);
    m.leader_hint = 3;
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->promised, (Ballot{8, 2}));
    EXPECT_EQ(rt->request_id, 55u);
    EXPECT_EQ(rt->leader_hint, 3u);
  }
}

TEST(WireTest, ProposeAndAcceptRoundTrip) {
  ProposeMsg propose(2, Ballot{5, 0}, 9, Value::Synthetic(123, 4096));
  propose.lease_request = true;
  propose.lease_until = 999'999;
  auto p = RoundTrip(propose);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value.size_bytes, 4096u);
  EXPECT_TRUE(p->lease_request);
  EXPECT_EQ(p->lease_until, 999'999u);

  AcceptMsg accept(2, Ballot{5, 0}, 9);
  accept.lease_vote = true;
  accept.lease_until = 1'000'000;
  auto a = RoundTrip(accept);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->lease_vote);
}

TEST(WireTest, ControlMessagesRoundTrip) {
  {
    PrepareNackMsg m(0, Ballot{3, 1});
    m.promised = Ballot{9, 9};
    m.lease_until = 55;
    m.lz_view = SampleView();
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->promised, m.promised);
    EXPECT_EQ(rt->lease_until, 55u);
  }
  {
    AcceptNackMsg m(0, Ballot{1, 1}, 4, Ballot{2, 2});
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->promised, (Ballot{2, 2}));
  }
  {
    DecideMsg m(3, 11, Value::Of(5, "decided"));
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->value.payload, "decided");
  }
  RoundTrip(HandoffRequestMsg(4));
  {
    RelinquishMsg m(4, Ballot{6, 6}, 100, {SampleIntent(6, 6)}, SampleView());
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->next_slot, 100u);
    EXPECT_EQ(rt->intents[0], m.intents[0]);
  }
}

TEST(WireTest, GcMessagesRoundTrip) {
  RoundTrip(GcPollMsg(1));
  auto reply = RoundTrip(GcPollReplyMsg(1, Ballot{12, 3}));
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->max_propose_ballot, (Ballot{12, 3}));
  auto thr = RoundTrip(GcThresholdMsg(1, Ballot{13, 4}));
  ASSERT_NE(thr, nullptr);
  EXPECT_EQ(thr->threshold, (Ballot{13, 4}));
}

TEST(WireTest, LeaderZoneMessagesRoundTrip) {
  RoundTrip(LzPrepareMsg(0, 2, Ballot{1, 1}));
  {
    LzPromiseMsg m(0, 2, Ballot{1, 1});
    m.accepted_ballot = Ballot{1, 0};
    m.accepted_zone = 4;
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->accepted_zone, 4u);
  }
  RoundTrip(LzProposeMsg(0, 2, Ballot{1, 1}, 5));
  RoundTrip(LzAcceptMsg(0, 2, Ballot{1, 1}, 5));
  {
    auto rt = RoundTrip(
        LzNackMsg(0, 2, Ballot{1, 1}, Ballot{2, 2}, SampleView()));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->lz_view, SampleView());
  }
  RoundTrip(LzTransitionMsg(0, 2, 6));
  {
    auto rt = RoundTrip(LzTransitionAckMsg(0, 2, {SampleIntent(1, 1)}));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->intents.size(), 1u);
  }
  RoundTrip(LzStoreIntentsMsg(0, 2, 6, {SampleIntent(1, 1)}));
  RoundTrip(LzStoreAckMsg(0, 2));
  RoundTrip(LzAnnounceMsg(0, SampleView()));
}

TEST(WireTest, OwnershipMessagesRoundTrip) {
  {
    StealRequestMsg m(3, Ballot{12, 4}, /*zone=*/6, /*inv=*/false);
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->ballot, (Ballot{12, 4}));
    EXPECT_EQ(rt->thief_zone, 6u);
    EXPECT_FALSE(rt->invite);
  }
  {
    StealRequestMsg m(0, Ballot{1, 0}, 2, /*inv=*/true);
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_TRUE(rt->invite);
  }
  {
    OwnershipGrantMsg m(3, /*g=*/true, StealRefusal::kNone, Ballot{12, 4},
                        /*next=*/88, /*decided=*/87, /*snap=*/true,
                        /*hint=*/4);
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_TRUE(rt->granted);
    EXPECT_EQ(rt->reason, StealRefusal::kNone);
    EXPECT_EQ(rt->ballot, (Ballot{12, 4}));
    EXPECT_EQ(rt->next_slot, 88u);
    EXPECT_EQ(rt->decided_size, 87u);
    EXPECT_TRUE(rt->snapshot_ready);
    EXPECT_EQ(rt->leader_hint, 4u);
  }
  {
    // Every refusal reason survives the codec; an out-of-range reason
    // byte must be rejected, not silently clamped.
    for (StealRefusal r : {StealRefusal::kNotLeader, StealRefusal::kBusy,
                           StealRefusal::kFastGrant}) {
      OwnershipGrantMsg m(1, false, r, Ballot{5, 5}, 0, 0, false, 9);
      auto rt = RoundTrip(m);
      ASSERT_NE(rt, nullptr);
      EXPECT_FALSE(rt->granted);
      EXPECT_EQ(rt->reason, r);
    }
    OwnershipGrantMsg bad(1, false, StealRefusal::kBusy, Ballot{5, 5}, 0, 0,
                          false, 9);
    std::string bytes = SerializeMessage(bad);
    // The reason byte sits right after tag+partition+granted flag.
    bytes[6] = '\x17';
    EXPECT_FALSE(DeserializeMessage(bytes).ok());
  }
}

TEST(WireTest, ForwardingAndCatchUpRoundTrip) {
  {
    auto rt = RoundTrip(ForwardMsg(2, 55, Value::Of(9, "fwd")));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->request_id, 55u);
  }
  {
    ForwardReplyMsg m(2, 55);
    m.code = StatusCode::kFailedPrecondition;
    m.slot = 3;
    m.leader_hint = 17;
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->code, StatusCode::kFailedPrecondition);
    EXPECT_EQ(rt->leader_hint, 17u);
  }
  RoundTrip(LearnRequestMsg(0, 42, 256));
  {
    LearnReplyMsg m(0);
    m.from_slot = 42;
    m.entries.push_back(DecidedEntryWire{42, Value::Of(1, "a")});
    m.entries.push_back(DecidedEntryWire{43, Value::Of(2, "b")});
    m.peer_watermark = 44;
    m.first_available = 40;
    auto rt = RoundTrip(m);
    ASSERT_NE(rt, nullptr);
    ASSERT_EQ(rt->entries.size(), 2u);
    EXPECT_EQ(rt->entries[1].value.payload, "b");
    EXPECT_EQ(rt->first_available, 40u);
  }
  {
    auto rt = RoundTrip(SnapshotRequestMsg(0, 4096));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->offset, 4096u);
  }
  {
    auto rt = RoundTrip(SnapshotChunkMsg(0, 9, 128, 512, "snapshot-bytes"));
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->through_slot, 9u);
    EXPECT_EQ(rt->offset, 128u);
    EXPECT_EQ(rt->total_bytes, 512u);
    EXPECT_EQ(rt->data, "snapshot-bytes");
  }
}

TEST(WireTest, DecodeRejectsTruncationEverywhere) {
  PromiseMsg msg(1, Ballot{9, 2}, false);
  msg.accepted.push_back(AcceptedEntry{5, Ballot{8, 1}, Value::Of(7, "x")});
  msg.intents.push_back(SampleIntent(7, 4));
  const std::string full = SerializeMessage(msg);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DeserializeMessage(full.substr(0, cut)).ok())
        << "accepted truncation at " << cut;
  }
  EXPECT_FALSE(DeserializeMessage(full + "x").ok());
}

TEST(WireTest, DecodeRejectsUnknownTag) {
  std::string bytes = SerializeMessage(GcPollMsg(0));
  bytes[0] = '\x7f';
  EXPECT_FALSE(DeserializeMessage(bytes).ok());
}

TEST(WireTest, DecodeFuzzNeverCrashes) {
  Rng rng(4242);
  for (int i = 0; i < 5000; ++i) {
    std::string garbage(rng.NextBounded(300), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next());
    auto r = DeserializeMessage(garbage);
    if (r.ok()) {
      // Anything that decodes must re-encode identically.
      EXPECT_EQ(SerializeMessage(*r.value()), garbage);
    }
  }
}

// Walks a message's fields through its layout and flags every one left
// at zero, false or empty.
class NonDefaultCheck {
 public:
  explicit NonDefaultCheck(const char* type) : type_(type) {}

  template <typename... F>
  bool operator()(const F&... fields) {
    (Check(fields), ...);
    return true;
  }

 private:
  template <typename T>
  void Check(const T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      EXPECT_NE(v, T{}) << type_ << " field " << field_;
      ++field_;
    } else if constexpr (std::is_same_v<T, std::string>) {
      EXPECT_FALSE(v.empty()) << type_ << " field " << field_;
      ++field_;
    } else if constexpr (kIsWireVector<T>) {
      EXPECT_FALSE(v.empty()) << type_ << " field " << field_;
      for (const auto& item : v) Check(item);
    } else {
      WireLayout<T>::Visit(*this, v);
    }
  }

  const char* type_;
  int field_ = 0;
};

// The message list, the specimens and the decoder agree: every listed
// type has a specimen with every field set, and every other tag byte,
// retired tag 28 included, decodes as unknown.
TEST(WireTest, EveryListedTypeHasAFullSpecimenAndNoOtherTagDecodes) {
  std::set<uint8_t> listed;
#define DPAXOS_LIST_TAG(Name) \
  listed.insert(static_cast<uint8_t>(WireType::k##Name));
  DPAXOS_WIRE_MESSAGES(DPAXOS_LIST_TAG)
#undef DPAXOS_LIST_TAG
  EXPECT_EQ(listed.size(), 35u);

  std::set<uint8_t> covered;
  for (const MessagePtr& msg : WireSpecimens()) {
    covered.insert(msg->wire_tag());
    EXPECT_NE(static_cast<const PaxosMessage&>(*msg).partition, 0u);
    NonDefaultCheck check(msg->TypeName());
    switch (static_cast<WireType>(msg->wire_tag())) {
#define DPAXOS_CHECK_SPECIMEN(Name)             \
  case WireType::k##Name:                       \
    check(static_cast<const Name##Msg&>(*msg)); \
    break;
      DPAXOS_WIRE_MESSAGES(DPAXOS_CHECK_SPECIMEN)
#undef DPAXOS_CHECK_SPECIMEN
    }
  }
  EXPECT_EQ(covered, listed);

  for (int tag = 0; tag < 256; ++tag) {
    if (listed.count(static_cast<uint8_t>(tag)) != 0) continue;
    std::string bytes(5, '\0');
    bytes[0] = static_cast<char>(tag);
    Result<MessagePtr> decoded = DeserializeMessage(bytes);
    ASSERT_FALSE(decoded.ok()) << "tag " << tag;
    EXPECT_EQ(decoded.status().message(), "unknown wire type tag")
        << "tag " << tag;
  }
}

// --- end-to-end conformance: whole protocol through the codec -----------

class WireConformanceTest : public ::testing::TestWithParam<ProtocolMode> {};

TEST_P(WireConformanceTest, FullProtocolThroughCodec) {
  ClusterOptions options;
  options.transport.validate_wire_codec = true;
  Cluster cluster(Topology::AwsSevenZones(), GetParam(), options);
  const NodeId proposer = cluster.NodeInZone(1);
  for (uint64_t i = 1; i <= 5; ++i) {
    Result<Duration> r = cluster.Commit(
        proposer, Value::Of(i, "payload" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(cluster.replica(proposer)->decided().size(), 5u);
}

TEST_P(WireConformanceTest, LeaderChangeThroughCodec) {
  if (GetParam() == ProtocolMode::kLeaderless) GTEST_SKIP();
  ClusterOptions options;
  options.transport.validate_wire_codec = true;
  Cluster cluster(Topology::AwsSevenZones(), GetParam(), options);
  const NodeId first = cluster.NodeInZone(6);
  ASSERT_TRUE(cluster.ElectLeader(first).ok());
  ASSERT_TRUE(cluster.Commit(first, Value::Of(1, "a")).ok());
  const NodeId second = cluster.NodeInZone(0);
  cluster.replica(second)->PrimeBallot(cluster.replica(first)->ballot());
  ASSERT_TRUE(cluster.ElectLeader(second).ok());
  cluster.sim().RunFor(5 * kSecond);
  ASSERT_TRUE(cluster.Commit(second, Value::Of(2, "b")).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, WireConformanceTest,
    ::testing::Values(ProtocolMode::kMultiPaxos, ProtocolMode::kFlexiblePaxos,
                      ProtocolMode::kDelegate, ProtocolMode::kLeaderZone,
                      ProtocolMode::kLeaderless),
    [](const ::testing::TestParamInfo<ProtocolMode>& info) {
      std::string name = ProtocolModeName(info.param);
      std::erase(name, '-');
      return name;
    });

TEST(WireConformanceTest, LzMigrationAndHandoffThroughCodec) {
  ClusterOptions options;
  options.transport.validate_wire_codec = true;
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone,
                  options);
  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  ASSERT_TRUE(cluster.Commit(leader, Value::Of(1, "a")).ok());

  bool migrated = false;
  cluster.replica(cluster.NodeInZone(4))
      ->MigrateLeaderZone(4, [&](const Status& st) {
        ASSERT_TRUE(st.ok()) << st.ToString();
        migrated = true;
      });
  ASSERT_TRUE(cluster.RunUntil([&] { return migrated; }, 60 * kSecond));

  ASSERT_TRUE(cluster.replica(leader)->HandoffTo(5).ok());
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.replica(5)->is_leader(); }, 10 * kSecond));
  ASSERT_TRUE(cluster.Commit(5, Value::Of(2, "b")).ok());
}

}  // namespace
}  // namespace dpaxos
