// Micro-benchmarks (google-benchmark) of the core data structures on the
// hot paths: quorum tallying, intent bookkeeping, the event queue, the
// transaction codec, topology queries, the CRC-32 and one compaction's
// snapshot image.
#include <benchmark/benchmark.h>

#include <set>
#include <string>

#include "common/crc32.h"
#include "net/topology.h"
#include "paxos/acceptor.h"
#include "quorum/quorum_system.h"
#include "sim/simulator.h"
#include "smr/kv_store.h"
#include "txn/transaction.h"
#include "workload/oltp.h"

namespace dpaxos {
namespace {

void BM_QuorumRuleIsSatisfied(benchmark::State& state) {
  const Topology topo = Topology::AwsSevenZones();
  DelegateQuorumSystem qs(&topo, FaultTolerance{1, 0});
  const QuorumRule rule = qs.LeaderElectionRule(0, LeaderZoneView{});
  std::set<NodeId> acks;
  for (NodeId n = 0; n < 11; ++n) acks.insert(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule.IsSatisfied(acks));
  }
}
BENCHMARK(BM_QuorumRuleIsSatisfied);

void BM_QuorumRuleMergeExpand(benchmark::State& state) {
  const Topology topo = Topology::AwsSevenZones();
  DelegateQuorumSystem qs(&topo, FaultTolerance{1, 0});
  const QuorumRule base = qs.LeaderElectionRule(0, LeaderZoneView{});
  for (auto _ : state) {
    QuorumRule expanded = base.MergedWith(QuorumRule::Simple({9, 10}, 1));
    benchmark::DoNotOptimize(expanded);
  }
}
BENCHMARK(BM_QuorumRuleMergeExpand);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(7);
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<Duration>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.RunUntilIdle());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_AcceptorPrepare(benchmark::State& state) {
  uint64_t round = 1;
  Acceptor acceptor;
  const Intent intent{Ballot{1, 1}, 1, {1, 2}};
  for (auto _ : state) {
    PrepareMsg msg(0, Ballot{round++, 1}, 0, {intent}, false,
                   LeaderZoneView{});
    benchmark::DoNotOptimize(acceptor.OnPrepare(msg, round));
  }
}
BENCHMARK(BM_AcceptorPrepare);

void BM_TxnEncodeDecode(benchmark::State& state) {
  OltpGenerator gen(OltpConfig{}, 42);
  const std::vector<Transaction> batch =
      gen.NextBatch(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    const std::string payload = EncodeBatch(batch);
    auto decoded = DecodeBatch(payload);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(EncodeBatch(batch).size()));
}
BENCHMARK(BM_TxnEncodeDecode)->Arg(1024)->Arg(50 * 1024);

void BM_TopologyProximity(benchmark::State& state) {
  const Topology topo = Topology::AwsSevenZones();
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.ZonesByProximity(6));
  }
}
BENCHMARK(BM_TopologyProximity);

// Sizes on the serving path: a Put's reply frame, a request frame, a
// decide of a full batch, and a snapshot image.
void BM_Crc32(benchmark::State& state) {
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(30)->Arg(90)->Arg(2400)->Arg(64 * 1024);

// One compaction's image, built the way NodeServer's snapshot provider
// builds it, of a leader-put-like state: 1,024 keys created in scrambled
// order, 50-byte values, five clients with in-order seqs.
void BM_SnapshotImage(benchmark::State& state) {
  KvStateMachine kv;
  constexpr uint64_t kPuts = 20000;
  for (uint64_t i = 0; i < kPuts; ++i) {
    Transaction txn;
    txn.id = i + 1;
    txn.client_id = 1 + i % 5;
    txn.seq = 1 + i / 5;
    const std::string value(50, static_cast<char>('a' + i % 26));
    txn.ops = {Operation::Put("k" + std::to_string((i * 389) % 1024), value)};
    kv.Apply(i, EncodeBatch({txn}));
  }
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string envelope = EncodeKvSnapshot(kPuts, kv);
    bytes = envelope.size();
    benchmark::DoNotOptimize(envelope.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotImage);

}  // namespace
}  // namespace dpaxos

BENCHMARK_MAIN();
