// Realnet perf lane (ctest -C realnet -L realnet_perf): the open-loop
// async LoadGen against a real cluster. Asserts the
// serving-path plumbing — closed-loop saturation completes, open-loop
// arrivals follow the clock, gather writes actually coalesce frames
// (counters prove frames-per-syscall > 1), and a sustained-load soak
// rides the mixed RealNemesis schedule with zero checker violations.
//
// Throughput FLOORS live in scripts/realnet_perf_smoke.sh, not here:
// absolute numbers depend on host core count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>
#include <string>

#include "harness/load_gen.h"
#include "harness/real_chaos.h"
#include "harness/real_cluster.h"
#include "net/tcp/tcp_client.h"

namespace dpaxos {
namespace {

uint64_t StatsU64(const std::string& stats, const std::string& key) {
  const std::string field = StatsField(stats, key);
  return field.empty() ? 0 : strtoull(field.c_str(), nullptr, 10);
}

RealClusterOptions BaseCluster() {
  RealClusterOptions copts;
  copts.server_binary = DPAXOS_CLI_PATH;
  copts.zones = 2;
  copts.nodes_per_zone = 2;
  copts.mode = ProtocolMode::kLeaderZone;
  copts.seed = 11;
  copts.leader_hint = 0;
  return copts;
}

// Absorb the initial leader election with a blocking client so the
// driver measures a settled cluster.
void Warmup(const RealCluster& cluster) {
  TcpClient client(/*client_id=*/9001);
  ASSERT_TRUE(client.Connect(cluster.endpoint(0), 2 * kSecond).ok());
  Status st;
  for (int attempt = 0; attempt < 100; ++attempt) {
    st = client.Put("warm", "up", 2 * kSecond);
    if (st.ok()) break;
    usleep(50 * 1000);
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  client.Close();
}

TEST(RealnetPerfTest, ClosedLoopDriverCompletesAndCoalesces) {
  RealCluster cluster(BaseCluster());
  ASSERT_TRUE(cluster.Start().ok());
  Warmup(cluster);

  LoadGenOptions lg;
  lg.endpoints = {cluster.endpoint(0)};
  lg.connections = 2;
  lg.pipeline = 64;
  lg.rate = 0;  // closed loop: measure capacity
  lg.total_ops = 2000;
  lg.timeout = 120 * kSecond;
  lg.client_id_base = 9100;
  lg.seed = 11;
  Result<LoadGenResult> result = RunLoadGen(lg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->completed);
  EXPECT_GE(result->ops_ok, lg.total_ops * 9 / 10);
  EXPECT_GT(result->achieved_ops, 0.0);
  EXPECT_GT(result->latency.count(), 0u);

  // The tentpole claim: pipelined load batches into gather writes, so
  // frames-per-syscall > 1 somewhere in the cluster. Sum over nodes —
  // the leader's reply path and the followers' ack path both coalesce.
  uint64_t writev_calls = 0, frames_coalesced = 0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    Result<std::string> stats = cluster.Stats(n);
    ASSERT_TRUE(stats.ok()) << "node " << n;
    writev_calls += StatsU64(stats.value(), "tcp_writev_calls");
    frames_coalesced += StatsU64(stats.value(), "tcp_frames_coalesced");
  }
  EXPECT_GT(writev_calls, 0u);
  EXPECT_GT(frames_coalesced, 0u);
  EXPECT_TRUE(cluster.ShutdownAll().ok());
}

TEST(RealnetPerfTest, OpenLoopArrivalsFollowTheClock) {
  RealCluster cluster(BaseCluster());
  ASSERT_TRUE(cluster.Start().ok());
  Warmup(cluster);

  LoadGenOptions lg;
  lg.endpoints = {cluster.endpoint(0)};
  lg.connections = 2;
  lg.pipeline = 128;
  lg.rate = 400;  // offered load well under loopback capacity
  lg.total_ops = 800;
  lg.timeout = 60 * kSecond;
  lg.client_id_base = 9200;
  lg.seed = 12;
  Result<LoadGenResult> result = RunLoadGen(lg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->completed);
  EXPECT_EQ(result->offered_ops, 400.0);
  EXPECT_GE(result->ops_ok, lg.total_ops * 9 / 10);
  // 800 ops at 400/s: the clock, not the server, pacing arrivals means
  // elapsed ~2s regardless of service speed.
  EXPECT_GE(result->elapsed_seconds, 1.5);
  EXPECT_LT(result->elapsed_seconds, 30.0);
  EXPECT_GT(result->latency.count(), 0u);
  EXPECT_TRUE(cluster.ShutdownAll().ok());
}

TEST(RealnetPerfTest, SoakUnderMixedNemesisKeepsConsistency) {
  // The acceptance soak: open-loop driver + checked workload together
  // under the mixed fault schedule. Checkers must report zero
  // violations and the cluster must converge; the soak driver must have
  // actually attempted traffic through the faults.
  RealChaosOptions chaos;
  chaos.server_binary = DPAXOS_CLI_PATH;
  chaos.mode = ProtocolMode::kLeaderZone;
  chaos.schedule = "mixed";
  chaos.seed = 21;
  chaos.duration = 6 * kSecond;
  chaos.soak_connections = 2;
  chaos.soak_pipeline = 32;
  chaos.soak_rate = 200;
  const RealChaosReport report = RunRealChaos(chaos);
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.consistency.violations.size(), 0u)
      << report.consistency.Summary();
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.soak_ops_ok + report.soak_ops_failed, 0u);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace dpaxos
