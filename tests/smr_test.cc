// Tests for the state machine replication layer: in-order application,
// the KV state machine, and cross-replica convergence through a real
// consensus run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/random.h"
#include "harness/cluster.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "txn/transaction.h"
#include "workload/oltp.h"

namespace dpaxos {
namespace {

Value PutValue(uint64_t id, const std::string& key, const std::string& val) {
  Transaction txn;
  txn.id = id;
  txn.ops = {Operation::Put(key, val)};
  return Value::Of(id, EncodeBatch({txn}));
}

Transaction TaggedPut(uint64_t client_id, uint64_t seq, const std::string& key,
                      const std::string& val) {
  Transaction txn;
  txn.id = seq + 1;
  txn.client_id = client_id;
  txn.seq = seq;
  txn.ops = {Operation::Put(key, val)};
  return txn;
}

TEST(LogApplierTest, AppliesContiguously) {
  KvStateMachine kv;
  LogApplier applier(&kv);
  applier.OnDecided(0, PutValue(1, "a", "1"));
  EXPECT_EQ(applier.applied_watermark(), 1u);
  EXPECT_EQ(kv.Get("a"), "1");
}

TEST(LogApplierTest, BuffersOutOfOrderSlots) {
  KvStateMachine kv;
  LogApplier applier(&kv);
  applier.OnDecided(2, PutValue(3, "c", "3"));
  applier.OnDecided(1, PutValue(2, "b", "2"));
  EXPECT_EQ(applier.applied_watermark(), 0u);
  EXPECT_EQ(applier.buffered(), 2u);
  EXPECT_FALSE(kv.Get("b").has_value());

  applier.OnDecided(0, PutValue(1, "a", "1"));  // unblocks everything
  EXPECT_EQ(applier.applied_watermark(), 3u);
  EXPECT_EQ(applier.buffered(), 0u);
  EXPECT_EQ(kv.Get("a"), "1");
  EXPECT_EQ(kv.Get("b"), "2");
  EXPECT_EQ(kv.Get("c"), "3");
}

// Checks, on every Apply, that the payload is the caller's own string
// (applied in place, not copied) and that the applier holds nothing
// buffered while applying it.
class InPlaceProbe final : public StateMachine {
 public:
  void Apply(SlotId slot, const std::string& payload) override {
    applied.push_back(slot);
    if (&payload != expected_payload) ++copied;
    if (applier->buffered() != 0) ++buffered_during_apply;
  }

  const LogApplier* applier = nullptr;
  const std::string* expected_payload = nullptr;
  std::vector<SlotId> applied;
  int copied = 0;
  int buffered_during_apply = 0;
};

TEST(LogApplierTest, InOrderFeedAppliesInPlaceWithoutBuffering) {
  InPlaceProbe probe;
  LogApplier applier(&probe);
  probe.applier = &applier;
  for (SlotId slot = 0; slot < 64; ++slot) {
    const Value value = PutValue(slot + 1, "k", std::to_string(slot));
    probe.expected_payload = &value.payload;
    applier.OnDecided(slot, value);
    EXPECT_EQ(applier.buffered(), 0u);
  }
  EXPECT_EQ(applier.applied_watermark(), 64u);
  ASSERT_EQ(probe.applied.size(), 64u);
  for (SlotId slot = 0; slot < 64; ++slot) EXPECT_EQ(probe.applied[slot], slot);
  EXPECT_EQ(probe.copied, 0);
  EXPECT_EQ(probe.buffered_during_apply, 0);
}

TEST(LogApplierTest, IgnoresDuplicateLearns) {
  KvStateMachine kv;
  LogApplier applier(&kv);
  applier.OnDecided(0, PutValue(1, "a", "first"));
  applier.OnDecided(0, PutValue(9, "a", "dup"));
  EXPECT_EQ(kv.Get("a"), "first");
  EXPECT_EQ(kv.applied_commands(), 1u);
}

TEST(KvStateMachineTest, AppliesWritesSkipsReads) {
  KvStateMachine kv;
  Transaction txn;
  txn.id = 1;
  txn.ops = {Operation::Get("x"), Operation::Put("k", "v"),
             Operation::Get("k")};
  kv.Apply(0, EncodeBatch({txn}));
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.applied_writes(), 1u);
  EXPECT_EQ(kv.Get("k"), "v");
  EXPECT_FALSE(kv.Get("x").has_value());
}

TEST(KvStateMachineTest, NoOpAndGarbagePayloadsAreHarmless) {
  KvStateMachine kv;
  kv.Apply(0, "");          // no-op filler
  kv.Apply(1, "garbage!");  // undecodable: logged, not applied
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.applied_commands(), 0u);
}

TEST(KvStateMachineTest, BatchWithTruncatedLastTransactionAppliesNothing) {
  const std::string whole = EncodeBatch(
      {TaggedPut(7, 1, "a", "1"), TaggedPut(7, 2, "b", "22")});
  KvStateMachine kv;
  // A cut inside the second transaction leaves the first one whole; no
  // cut may apply it or fill the client's dedup window.
  for (size_t length = 1; length < whole.size(); ++length) {
    kv.Apply(length, whole.substr(0, length));
    ASSERT_EQ(kv.size(), 0u) << "length " << length;
    ASSERT_EQ(kv.applied_commands(), 0u) << "length " << length;
    ASSERT_FALSE(kv.WasApplied(7, 1)) << "length " << length;
  }
  kv.Apply(whole.size(), whole);
  EXPECT_EQ(kv.Get("a"), "1");
  EXPECT_EQ(kv.Get("b"), "22");
  EXPECT_EQ(kv.applied_commands(), 2u);
}

// One client's seqs applied one per slot, and whether each was applied
// or skipped as a duplicate: the answers of the window before in-order
// seqs bypassed its set. The snapshot size pins the window itself: it
// grows 8 bytes per seq left in the sparse set (a seq-0 entry never
// drains, so everything after it stays sparse).
TEST(KvStateMachineTest, DedupWindowKeepsItsAnswers) {
  struct Case {
    const char* name;
    std::vector<uint64_t> seqs;
    std::vector<bool> applied;
    size_t snapshot_bytes;
  };
  const std::vector<Case> cases = {
      {"in order", {1, 2, 3, 4, 5}, {true, true, true, true, true}, 74},
      {"gap then fill",
       {1, 3, 5, 2, 4, 6, 3},
       {true, true, true, true, true, true, false},
       74},
      {"open gap", {1, 3, 5, 3}, {true, true, true, false}, 90},
      {"duplicates",
       {1, 1, 2, 2, 1, 3},
       {true, false, true, false, false, true},
       74},
      {"seq 0",
       {0, 0, 1, 0, 2, 1, 3},
       {true, false, true, false, true, false, true},
       106},
      {"starts above 1",
       {4, 5, 1, 2, 3, 5},
       {true, true, true, true, true, false},
       74},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.seqs.size(), c.applied.size()) << c.name;
    KvStateMachine kv;
    for (size_t i = 0; i < c.seqs.size(); ++i) {
      const uint64_t skipped = kv.duplicates_skipped();
      kv.Apply(i, EncodeBatch({TaggedPut(5, c.seqs[i], "k", "v")}));
      EXPECT_EQ(kv.duplicates_skipped() == skipped, c.applied[i])
          << c.name << ", seq " << c.seqs[i] << " at step " << i;
      EXPECT_TRUE(kv.WasApplied(5, c.seqs[i])) << c.name << ", step " << i;
    }
    EXPECT_EQ(kv.SerializeFull().size(), c.snapshot_bytes) << c.name;
  }
}

TEST(KvStateMachineTest, ChecksumTracksContentNotOrder) {
  KvStateMachine a, b;
  Transaction t1;
  t1.id = 1;
  t1.ops = {Operation::Put("x", "1"), Operation::Put("y", "2")};
  Transaction t2;
  t2.id = 2;
  t2.ops = {Operation::Put("y", "2"), Operation::Put("x", "1")};
  a.Apply(0, EncodeBatch({t1}));
  b.Apply(0, EncodeBatch({t2}));
  EXPECT_EQ(a.Checksum(), b.Checksum());

  b.Apply(1, EncodeBatch({t1}));  // same content again: unchanged
  EXPECT_EQ(a.Checksum(), b.Checksum());

  Transaction t3;
  t3.id = 3;
  t3.ops = {Operation::Put("x", "DIFFERENT")};
  b.Apply(2, EncodeBatch({t3}));
  EXPECT_NE(a.Checksum(), b.Checksum());
}

// What a KvStateMachine fed only in-order tagged Puts holds, kept apart
// from it: the pairs, each client's last seq and the counters.
struct KvModel {
  std::unordered_map<std::string, std::string> pairs;
  std::map<uint64_t, uint64_t> last_seq;  // client id -> applied prefix
  uint64_t commands = 0;
  uint64_t writes = 0;
};

// SerializeFull's bytes for `model`, computed without any index: gather
// a copy of the pairs and sort it.
std::string ReferenceImage(const KvModel& model) {
  std::vector<std::pair<std::string, std::string>> pairs(model.pairs.begin(),
                                                         model.pairs.end());
  std::sort(pairs.begin(), pairs.end());
  std::string out;
  ByteWriter w(&out);
  w.PutU64(pairs.size());
  for (const auto& [key, value] : pairs) {
    w.PutString(key);
    w.PutString(value);
  }
  w.PutU64(model.last_seq.size());
  for (const auto& [client, seq] : model.last_seq) {
    w.PutU64(client);
    w.PutU64(seq);  // the prefix; in-order seqs leave no sparse entries
    w.PutU64(0);
  }
  w.PutU64(model.commands);
  w.PutU64(model.writes);
  w.PutU64(0);  // no duplicates
  return out;
}

std::string RandomBytes(Rng& rng, size_t max_length) {
  // A small alphabet with NUL and 0xff, so keys share prefixes and
  // order by unsigned bytes.
  static constexpr char kAlphabet[] = {'a', 'b', '\0', '\xff'};
  std::string out(rng.NextBounded(max_length + 1), '\0');
  for (char& c : out) c = kAlphabet[rng.NextBounded(4)];
  return out;
}

// The key index under random traffic: Puts that create keys, Puts that
// overwrite them and installs of another machine's image, on three
// machines. After every step the machine's image must be the one a
// gather-and-sort of its pairs gives, and SerializedSize its size.
TEST(KvStateMachineTest, KeyIndexMatchesSortedReferenceUnderRandomSteps) {
  constexpr int kMachines = 3;
  constexpr int kSteps = 4000;
  Rng rng(0x5eed1dc5);
  std::vector<KvStateMachine> kvs(kMachines);
  std::vector<KvModel> models(kMachines);
  for (int step = 0; step < kSteps; ++step) {
    const size_t m = rng.NextBounded(kMachines);
    KvStateMachine& kv = kvs[m];
    KvModel& model = models[m];
    const uint64_t action = rng.NextBounded(10);
    if (action == 9) {
      const size_t from = (m + 1 + rng.NextBounded(kMachines - 1)) % kMachines;
      ASSERT_TRUE(kv.RestoreFull(kvs[from].SerializeFull()).ok());
      model = models[from];
    } else {
      std::string key;
      if (action < 5 || model.pairs.empty()) {
        do {
          key = RandomBytes(rng, 8);
        } while (model.pairs.count(key) > 0);
      } else {
        auto it = model.pairs.begin();
        std::advance(it, rng.NextBounded(model.pairs.size()));
        key = it->first;
      }
      const std::string value = RandomBytes(rng, 40);
      const uint64_t client = 1 + rng.NextBounded(3);
      const uint64_t seq = ++model.last_seq[client];
      kv.Apply(step, EncodeBatch({TaggedPut(client, seq, key, value)}));
      model.pairs[key] = value;
      ++model.commands;
      ++model.writes;
    }
    const std::string image = kv.SerializeFull();
    ASSERT_EQ(image, ReferenceImage(model))
        << "machine " << m << ", step " << step << ", action " << action;
    ASSERT_EQ(kv.SerializedSize(), image.size()) << "step " << step;
  }
}

TEST(SmrIntegrationTest, ReplicasConvergeThroughConsensus) {
  // Full stack: OLTP batches -> consensus (decide broadcast to all) ->
  // per-replica appliers -> identical KV state everywhere.
  ClusterOptions options;
  options.replica.decide_policy = DecidePolicy::kAll;
  Cluster cluster(Topology::AwsSevenZones(), ProtocolMode::kLeaderZone,
                  options);

  std::vector<std::unique_ptr<KvStateMachine>> machines;
  std::vector<std::unique_ptr<LogApplier>> appliers;
  for (NodeId n : cluster.topology().AllNodes()) {
    machines.push_back(std::make_unique<KvStateMachine>());
    appliers.push_back(std::make_unique<LogApplier>(machines.back().get()));
    LogApplier* applier = appliers.back().get();
    cluster.replica(n)->set_decide_callback(
        [applier](SlotId slot, const Value& value) {
          applier->OnDecided(slot, value);
        });
  }

  const NodeId leader = cluster.NodeInZone(0);
  ASSERT_TRUE(cluster.ElectLeader(leader).ok());
  OltpGenerator gen(OltpConfig{.num_keys = 1000}, 42);
  for (int i = 0; i < 15; ++i) {
    const std::vector<Transaction> batch = gen.NextBatch(1024);
    ASSERT_TRUE(cluster
                    .Commit(leader, Value::Of(static_cast<uint64_t>(i) + 1,
                                              EncodeBatch(batch)))
                    .ok());
  }
  cluster.sim().RunFor(5 * kSecond);  // let decide broadcasts land

  ASSERT_GT(machines[leader]->applied_writes(), 0u);
  const uint64_t checksum = machines[leader]->Checksum();
  for (NodeId n : cluster.topology().AllNodes()) {
    EXPECT_EQ(appliers[n]->applied_watermark(), 15u) << "node " << n;
    EXPECT_EQ(machines[n]->Checksum(), checksum) << "node " << n;
  }
}

}  // namespace
}  // namespace dpaxos
