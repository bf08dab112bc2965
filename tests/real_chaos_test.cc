// Real-network chaos tests (realnet tier): the FailoverTcpClient
// against a paused replica, and one full RunRealChaos pass — proxied
// 4-process cluster, mixed nemesis schedule, history through the
// linearizability + session checkers.
//
// Wall-clock pacing, SIGSTOP/SIGKILL, fork/exec: realnet configuration,
// never tier-1. The CLI path is stamped in by CMake as DPAXOS_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/real_chaos.h"
#include "harness/real_cluster.h"
#include "net/tcp/tcp_client.h"

namespace dpaxos {
namespace {

#ifndef DPAXOS_CLI_PATH
#define DPAXOS_CLI_PATH ""
#endif

std::string TestLogDir() {
  const char* dir = std::getenv("DPAXOS_TEST_LOG_DIR");
  return dir != nullptr ? dir : "";
}

// A SIGSTOP'd replica is the nastiest failure for a blocking client:
// the TCP connection stays open but nothing answers. The failover
// client must burn only its per-attempt budget there, rotate to a live
// replica, and complete the op exactly once.
TEST(RealChaosTest, FailoverClientSurvivesPausedReplica) {
  RealClusterOptions options;
  options.server_binary = DPAXOS_CLI_PATH;
  options.mode = ProtocolMode::kLeaderZone;
  options.seed = 42;
  options.log_dir = TestLogDir();
  RealCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());

  // Endpoint order puts node 1 first so the client starts there; node 0
  // stays last (leader hint — pausing it would stall consensus, which
  // is a different test).
  std::vector<HostPort> endpoints;
  for (NodeId n = 1; n < cluster.num_nodes(); ++n) {
    endpoints.push_back(cluster.endpoint(n));
  }
  endpoints.push_back(cluster.endpoint(0));

  FailoverTcpClient::Options copt;
  copt.attempt_timeout = 500 * kMillisecond;
  copt.connect_timeout = 500 * kMillisecond;
  copt.overall_timeout = 10 * kSecond;
  FailoverTcpClient client(0xFA170, endpoints, copt);

  FailoverTcpClient::CallResult warm =
      client.Call(ClientOp::kPut, "warm", "up");
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ASSERT_EQ(client.current_endpoint(), 0u);  // still pinned to node 1

  ASSERT_TRUE(cluster.Pause(1).ok());
  FailoverTcpClient::CallResult stuck =
      client.Call(ClientOp::kPut, "k", "v-through-pause");
  EXPECT_TRUE(stuck.status.ok()) << stuck.status.ToString();
  EXPECT_GT(stuck.failovers, 0u) << "call should have rotated off node 1";

  // Reads fail over too, and see the write (same request path).
  FailoverTcpClient::CallResult read = client.Call(ClientOp::kGet, "k", "");
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(read.reply.value, "v-through-pause");

  ASSERT_TRUE(cluster.Resume(1).ok());
  EXPECT_TRUE(cluster.ShutdownAll().ok());
}

// One end-to-end pass of the realchaos experiment at test scale: the
// mixed schedule fires a partition, a pause, a kill/restart and a
// corruption burst; the checkers must come back clean and every node
// must converge to one state.
TEST(RealChaosTest, MixedScheduleRunsCleanAndConverges) {
  RealChaosOptions options;
  options.server_binary = DPAXOS_CLI_PATH;
  options.mode = ProtocolMode::kLeaderZone;
  options.schedule = "mixed";
  options.seed = 5;
  options.duration = 6 * kSecond;
  options.num_clients = 3;
  options.log_dir = TestLogDir();

  RealChaosReport report = RunRealChaos(options);
  SCOPED_TRACE(report.Summary());

  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.consistency.ok());
  EXPECT_TRUE(report.converged);
  EXPECT_TRUE(report.ok());

  EXPECT_GT(report.ops_invoked, 0u);
  EXPECT_GT(report.ops_committed, 0u);
  // The schedule guarantees each fault class at least once.
  EXPECT_GE(report.nemesis_partitions, 1u);
  EXPECT_GE(report.nemesis_pauses, 1u);
  EXPECT_GE(report.nemesis_kills, 1u);
  EXPECT_GE(report.nemesis_restarts, 1u);
  EXPECT_GE(report.nemesis_corrupt_bursts, 1u);
  // And the proxy actually injected faults into live traffic.
  EXPECT_GT(report.proxy.total_faults(), 0u);
}

// The fast-path cell: clients staggered across zone-local entry points
// drive writes through the fast quorum while the mixed schedule kills,
// pauses and corrupts. Both halves of the state machine must show up —
// one-round fast commits when a quorum answers, classic fallbacks when
// contention or injected faults starve the unanimous vote — and the
// history must still be linearizable with every node converged. The
// schedule alone does not always starve a vote, so the run ends with a
// forced fallback (RealChaosOptions::fast_path): the leader is paused
// past the fast timeout while a checked Put goes through a follower.
TEST(RealChaosTest, FastPathCommitsAndFallbacksStayLinearizable) {
  RealChaosOptions options;
  options.server_binary = DPAXOS_CLI_PATH;
  options.mode = ProtocolMode::kLeaderZone;
  options.schedule = "mixed";
  options.seed = 11;
  options.duration = 6 * kSecond;
  options.num_clients = 3;
  options.fast_path = true;
  options.log_dir = TestLogDir();

  RealChaosReport report = RunRealChaos(options);
  SCOPED_TRACE(report.Summary());

  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.consistency.ok());
  EXPECT_TRUE(report.converged);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.ops_committed, 0u);
  // The fast path actually carried traffic, and faults/contention
  // genuinely forced classic fallbacks.
  EXPECT_GT(report.fast_commits, 0u);
  EXPECT_GT(report.fast_fallbacks, 0u);
  EXPECT_GT(report.proxy.total_faults(), 0u);
}

// The mobility cell: --ownership servers under the "mobility" schedule,
// the one schedule that deliberately SIGKILLs node 0 (the leader hint /
// presumed incumbent owner). The checked clients start parked in zone 0
// and migrate to zone 1 AFTER the kill, so the protocol steal their
// traffic provokes finds its incumbent already dead: the thief's
// StealRequest times out into an ordinary takeover election that still
// commits the ownership-transfer record, and the restarted incumbent
// rejoins as a follower learning the new owner from its own log. The
// same linearizability + session checkers judge the history across the
// transfer.
TEST(RealChaosTest, MobilityScheduleStealsFromDeadIncumbent) {
  RealChaosOptions options;
  options.server_binary = DPAXOS_CLI_PATH;
  options.mode = ProtocolMode::kLeaderZone;
  options.schedule = "mobility";
  options.seed = 42;
  options.duration = 10 * kSecond;
  options.num_clients = 4;
  options.log_dir = TestLogDir();

  RealChaosReport report = RunRealChaos(options);
  SCOPED_TRACE(report.Summary());

  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.consistency.ok());
  EXPECT_TRUE(report.converged);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.ops_committed, 0u);
  // The incumbent really was killed and restarted...
  EXPECT_GE(report.nemesis_kills, 1u);
  EXPECT_GE(report.nemesis_restarts, 1u);
  // ...and ownership moved through the protocol, not around it: a steal
  // was attempted, its takeover election won, and the transfer record
  // was decided into the partition's log.
  EXPECT_GE(report.steals_attempted, 1u);
  EXPECT_GE(report.steals_won, 1u);
  EXPECT_GE(report.ownership_records, 1u);
}

// The durability cell: a durable (WAL-backed) cluster under the "disk"
// schedule — lying fsyncs, a torn write and a fsync EIO that panic the
// victim (recovered from its own WAL on restart), capped by a
// whole-cluster power loss where every node is SIGKILLed at once and
// the restart has nothing but the per-node WAL directories. The same
// linearizability checkers judge the history: no acknowledged write may
// be lost.
TEST(RealChaosTest, DiskScheduleSurvivesWholeClusterPowerLoss) {
  const std::string data_base =
      ::testing::TempDir() + "dpaxos_chaos_disk";
  const std::string wipe =
      "rm -rf '" + data_base + "' && mkdir -p '" + data_base + "'";
  ASSERT_EQ(std::system(wipe.c_str()), 0);

  RealChaosOptions options;
  options.server_binary = DPAXOS_CLI_PATH;
  options.mode = ProtocolMode::kLeaderZone;
  options.schedule = "disk";
  options.seed = 17;
  options.duration = 8 * kSecond;
  options.num_clients = 3;
  options.durable = true;
  options.data_dir_base = data_base;
  options.log_dir = TestLogDir();

  RealChaosReport report = RunRealChaos(options);
  SCOPED_TRACE(report.Summary());

  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.consistency.ok());
  EXPECT_TRUE(report.converged);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.ops_committed, 0u);
  // The schedule armed its disk faults and fired the power loss...
  EXPECT_GE(report.nemesis_disk_faults, 3u);
  EXPECT_GE(report.nemesis_power_losses, 1u);
  EXPECT_GE(report.nemesis_kills, static_cast<uint64_t>(4));
  // ...and the WAL was live: real fdatasyncs backed the acks.
  EXPECT_GT(report.wal_fsyncs, 0u);
}

}  // namespace
}  // namespace dpaxos
