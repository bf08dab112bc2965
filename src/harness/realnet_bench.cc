#include "harness/realnet_bench.h"

#include <stdlib.h>
#include <time.h>

#include <cstdio>
#include <functional>
#include <thread>

#include "common/logging.h"
#include "harness/load_gen.h"
#include "harness/real_cluster.h"
#include "net/tcp/chaos_proxy.h"
#include "net/tcp/socket_util.h"
#include "net/tcp/tcp_client.h"

namespace dpaxos {

namespace {

Timestamp NowMicros() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Timestamp>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

void SleepMillis(uint64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  nanosleep(&ts, nullptr);
}

uint64_t StatsU64(const std::string& stats, const std::string& key) {
  const std::string field = StatsField(stats, key);
  return field.empty() ? 0 : strtoull(field.c_str(), nullptr, 10);
}

// Commit `count` puts through `client`, retrying each request until it
// commits (leader elections and forwards surface as transient errors the
// first few times). Used for warmup and the degraded-cluster phase; the
// measured phase runs LoadGen instead.
Status CommitPuts(TcpClient& client, uint64_t count, uint64_t key_base,
                  uint64_t* committed) {
  for (uint64_t i = 0; i < count; ++i) {
    const std::string key = "k" + std::to_string((key_base + i) % 512);
    const std::string value = "v" + std::to_string(key_base + i);
    Status st;
    for (int attempt = 0; attempt < 50; ++attempt) {
      st = client.Put(key, value, 2 * kSecond);
      if (st.ok()) break;
      SleepMillis(20 + 10 * attempt);
    }
    if (!st.ok()) {
      return Status::Unavailable("put " + std::to_string(key_base + i) +
                                 " never committed: " + st.ToString());
    }
    if (committed != nullptr) ++(*committed);
  }
  return Status::OK();
}

// Poll `node`'s stats until its watermark reaches `target` and it
// reports at least one snapshot install.
Result<std::string> AwaitCatchUp(RealCluster& cluster, NodeId node,
                                 uint64_t target, Duration timeout) {
  const Timestamp deadline = NowMicros() + timeout;
  std::string last;
  while (NowMicros() < deadline) {
    Result<std::string> stats = cluster.Stats(node);
    if (stats.ok()) {
      last = stats.value();
      if (StatsU64(last, "watermark") >= target &&
          StatsU64(last, "snapshots_installed") >= 1) {
        return last;
      }
    }
    SleepMillis(100);
  }
  return Status::TimedOut("node " + std::to_string(node) +
                          " did not catch up; last stats: " + last);
}

/// One benchmark cell: which mode, whether the servers run the fast
/// path, and which node takes the measured load.
struct CellSpec {
  ProtocolMode mode = ProtocolMode::kLeaderZone;
  bool fast_path = false;
  NodeId target = 0;
  std::string label;
  /// Durable cell: per-node WALs under `<data_dir_base>/<label>/nodeN`.
  bool durable = false;
  std::string data_dir_base;
};

Result<RealnetModeResult> RunMode(const RealnetBenchOptions& options,
                                  const CellSpec& cell) {
  const ProtocolMode mode = cell.mode;
  RealClusterOptions copts;
  copts.server_binary = options.server_binary;
  copts.zones = 2;
  copts.nodes_per_zone = 2;
  copts.mode = mode;
  copts.seed = options.seed;
  copts.leader_hint = 0;
  copts.enable_compaction = true;
  copts.log_dir = options.log_dir;
  if (cell.fast_path) copts.extra_args.push_back("--fast-path");
  if (cell.durable) {
    copts.data_dir_base = cell.data_dir_base;
    copts.wal_commit_delay = options.wal_commit_delay;
  }
  RealCluster cluster(copts);
  Status st = cluster.Start();
  if (!st.ok()) return st;

  RealnetModeResult result;
  result.mode = mode;
  result.label = cell.label.empty() ? ProtocolModeName(mode) : cell.label;
  result.fast_path = cell.fast_path;
  result.target_node = cell.target;
  result.durable = cell.durable;

  // Warmup with a blocking client: absorb the initial leader election so
  // the measured phase starts against a settled cluster.
  TcpClient client(/*client_id=*/7001);
  st = client.Connect(cluster.endpoint(0), 2 * kSecond);
  if (!st.ok()) return st;
  st = CommitPuts(client, 8, 900000, nullptr);
  if (!st.ok()) return st;

  // Phase 1: measured open-loop async load against the cell's target
  // (the leader for the standard cells, an edge follower for the
  // edge-classic/edge-fast pair).
  LoadGenOptions lg;
  lg.endpoints = {cluster.endpoint(cell.target)};
  lg.connections = options.connections;
  lg.pipeline = options.pipeline;
  lg.rate = options.rate;
  lg.total_ops = options.requests;
  lg.timeout = 180 * kSecond;
  lg.client_id_base = 7100;
  lg.seed = options.seed;
  Result<LoadGenResult> load = RunLoadGen(lg);
  if (!load.ok()) return load.status();
  if (!load->completed || load->ops_ok == 0) {
    return Status::Unavailable(
        "measured phase did not complete: ok=" + std::to_string(load->ops_ok) +
        " failed=" + std::to_string(load->ops_failed));
  }
  result.measured_ops = load->ops_ok;
  result.measured_ops_failed = load->ops_failed;
  result.elapsed_seconds = load->elapsed_seconds;
  result.throughput_ops = load->achieved_ops;
  // In a closed loop every reply funds the next request, so offered ==
  // achieved by construction; reporting the configured 0 made the JSON
  // rows read as "no load was offered".
  result.offered_ops =
      options.rate > 0 ? load->offered_ops : load->achieved_ops;
  result.latency = std::move(load->latency);

  // Phase 2: SIGKILL the last follower (zone 1 keeps a live node, so
  // ft{0,0} quorums in every mode survive), keep committing.
  const NodeId victim = cluster.num_nodes() - 1;
  st = cluster.Kill(victim);
  if (!st.ok()) return st;
  st = CommitPuts(client, options.requests_while_down, options.requests,
                  &result.ops_while_down);
  if (!st.ok()) return st;

  // Phase 3: restart it with empty state. Compaction on the survivors
  // has truncated the log past what replay could serve, so rejoining
  // requires a genuine snapshot transfer over TCP.
  st = cluster.Restart(victim);
  if (!st.ok()) return st;
  Result<std::string> leader_stats = cluster.Stats(0);
  if (!leader_stats.ok()) return leader_stats.status();
  result.leader_watermark = StatsU64(leader_stats.value(), "watermark");
  Result<std::string> caught = AwaitCatchUp(cluster, victim,
                                            result.leader_watermark,
                                            30 * kSecond);
  if (!caught.ok()) return caught.status();
  result.snapshots_installed = StatsU64(caught.value(), "snapshots_installed");
  result.restarted_watermark = StatsU64(caught.value(), "watermark");
  // Re-read the leader AFTER the rejoin so both checksums cover the
  // same committed prefix (commits stopped before the restart).
  leader_stats = cluster.Stats(0);
  if (!leader_stats.ok()) return leader_stats.status();
  result.checksum_match =
      !StatsField(caught.value(), "checksum").empty() &&
              StatsField(caught.value(), "checksum") ==
                  StatsField(leader_stats.value(), "checksum")
          ? 1
          : 0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    Result<std::string> stats = cluster.Stats(n);
    if (!stats.ok()) continue;
    result.tcp_reconnects += StatsU64(stats.value(), "tcp_reconnects");
    result.tcp_frames_dropped += StatsU64(stats.value(), "tcp_frames_dropped");
    result.tcp_malformed_frames +=
        StatsU64(stats.value(), "tcp_malformed_frames");
    result.tcp_bytes_out += StatsU64(stats.value(), "tcp_bytes_out");
    result.tcp_writev_calls += StatsU64(stats.value(), "tcp_writev_calls");
    result.tcp_frames_coalesced +=
        StatsU64(stats.value(), "tcp_frames_coalesced");
    result.fast_commits += StatsU64(stats.value(), "fast_commits");
    result.fast_fallbacks += StatsU64(stats.value(), "fast_fallbacks");
    result.wal_appends += StatsU64(stats.value(), "wal_appends");
    result.wal_bytes += StatsU64(stats.value(), "wal_bytes");
    result.wal_fsyncs += StatsU64(stats.value(), "wal_fsyncs");
  }

  client.Close();
  st = cluster.ShutdownAll();
  if (!st.ok()) return st;
  return result;
}

// Drive one mobility phase: `ops` blocking puts through `client`,
// per-op wall time into the phase histogram. The optional `stop` poll
// ends the phase early (the adaptive moved phase runs until the steal
// completes, not a fixed op count).
RealnetMobilityPhase RunMobilityPhase(
    FailoverTcpClient& client, const std::string& name, uint64_t ops,
    uint64_t key_base, const std::function<bool(uint64_t)>& stop) {
  RealnetMobilityPhase phase;
  phase.name = name;
  for (uint64_t i = 0; i < ops; ++i) {
    const std::string key = "m" + std::to_string((key_base + i) % 512);
    const std::string value = "v" + std::to_string(key_base + i);
    const Timestamp t0 = NowMicros();
    FailoverTcpClient::CallResult r =
        client.Call(ClientOp::kPut, key, value);
    if (r.status.ok()) {
      phase.latency.Add(NowMicros() - t0);
      ++phase.ops;
    } else {
      ++phase.ops_failed;
    }
    if (stop && stop(i)) break;
  }
  return phase;
}

// One mobility cell: 2x2 Leader Zone cluster, every inter-node link
// through a latency-shaping proxy (inter-zone slow, intra-zone fast),
// clients dialing their zone's replica DIRECTLY (the client link models
// "nearest edge", the proxied peer links model the WAN). The client
// commits from zone 0, moves to zone 1, and keeps committing. Adaptive
// cells run --ownership: zone 1's replica sees the local traffic, the
// placement sweep clears hysteresis, and it steals the partition via
// the StealRequest/OwnershipGrant exchange — after which commits close
// inside zone 1's quorum.
Result<RealnetMobilityResult> RunMobilityCell(
    const RealnetBenchOptions& options, bool adaptive) {
  const uint32_t kNodes = 4;
  Result<std::vector<uint16_t>> ports = PickFreeLoopbackPorts(kNodes);
  if (!ports.ok()) return ports.status();
  std::vector<HostPort> real_endpoints;
  for (uint16_t port : ports.value()) {
    real_endpoints.push_back(HostPort{"127.0.0.1", port});
  }

  ChaosProxyOptions popts;
  popts.upstreams = real_endpoints;
  popts.zones = 2;
  popts.seed = options.seed;
  ChaosProxy proxy(popts);
  Status st = proxy.Start();
  if (!st.ok()) return st;
  auto shape = [&proxy](int32_t src_zone, int32_t dst_zone, double ms) {
    LinkSelector sel;
    sel.src_zone = src_zone;
    sel.dst_zone = dst_zone;
    LinkFault f;
    f.latency = static_cast<Duration>(ms * static_cast<double>(kMillisecond));
    proxy.AddFault(sel, f);
  };
  shape(0, 1, options.mobility_inter_oneway_ms);
  shape(1, 0, options.mobility_inter_oneway_ms);
  shape(0, 0, options.mobility_intra_oneway_ms);
  shape(1, 1, options.mobility_intra_oneway_ms);

  RealClusterOptions copts;
  copts.server_binary = options.server_binary;
  copts.zones = 2;
  copts.nodes_per_zone = 2;
  copts.mode = ProtocolMode::kLeaderZone;  // zone-local commit quorums
  copts.seed = options.seed;
  copts.leader_hint = 0;
  copts.enable_compaction = true;
  copts.log_dir = options.log_dir;
  copts.listen_endpoints = real_endpoints;
  copts.peer_view = proxy.endpoints();
  if (adaptive) {
    copts.extra_args.push_back("--ownership");
    copts.extra_args.push_back("--placement-sweep-ms=300");
    copts.extra_args.push_back("--steal-cooldown-ms=2000");
  }
  RealCluster cluster(copts);
  st = cluster.Start();
  if (!st.ok()) {
    proxy.Stop();
    return st;
  }

  RealnetMobilityResult result;
  result.adaptive = adaptive;
  result.label = adaptive ? "mobility/adaptive" : "mobility/static";
  result.inter_oneway_ms = options.mobility_inter_oneway_ms;
  result.intra_rtt_ms = 2 * options.mobility_intra_oneway_ms;

  auto cleanup_fail = [&](const Status& why) -> Status {
    cluster.ShutdownAll();
    proxy.Stop();
    return Status::Internal(result.label + ": " + why.ToString());
  };

  // Warmup: settle the initial leader at node 0 (zone 0).
  TcpClient warm(/*client_id=*/7301);
  st = warm.Connect(cluster.endpoint(0), 2 * kSecond);
  if (!st.ok()) return cleanup_fail(st);
  st = CommitPuts(warm, 8, 910000, nullptr);
  if (!st.ok()) return cleanup_fail(st);
  warm.Close();

  // The mobile client: one identity for the whole tour, endpoint list
  // indexed by node id so redirect hints resolve.
  FailoverTcpClient mobile(/*client_id=*/7302, real_endpoints);
  const uint64_t ops = options.mobility_phase_ops;

  // Phase "local": the client lives in zone 0, dials node 0.
  mobile.set_zone(0);
  mobile.set_endpoint(0);
  result.phases.push_back(
      RunMobilityPhase(mobile, "local", ops, 0, nullptr));

  // Phase "moved": the client moves to zone 1 and dials node 2. Static:
  // every put is forwarded across the WAN to the stale leader. Adaptive:
  // node 2's sweep sees the zone-1 traffic and steals the partition;
  // the phase runs until the first completed steal shows in its stats.
  mobile.set_zone(1);
  mobile.set_endpoint(2);
  const Timestamp moved_start = NowMicros();
  std::function<bool(uint64_t)> stop;
  if (adaptive) {
    const Timestamp steal_deadline = moved_start + options.mobility_steal_wait;
    stop = [&](uint64_t i) {
      if ((i + 1) % 4 != 0) return false;
      Result<std::string> stats = cluster.Stats(2);
      if (stats.ok() &&
          StatsU64(stats.value(), "placement_steals_completed") >= 1) {
        return true;
      }
      return NowMicros() >= steal_deadline;
    };
  }
  const uint64_t moved_ops = adaptive ? 100000 : ops;
  result.phases.push_back(
      RunMobilityPhase(mobile, "moved", moved_ops, 1000, stop));
  if (adaptive) {
    result.migration_seconds =
        static_cast<double>(NowMicros() - moved_start) / 1e6;
    Result<std::string> stats = cluster.Stats(2);
    if (!stats.ok() ||
        StatsU64(stats.value(), "placement_steals_completed") < 1) {
      return cleanup_fail(Status::TimedOut(
          "no protocol steal completed within the moved phase"));
    }
  }

  // Phase "post": steady state after the move — the gated histogram.
  result.phases.push_back(
      RunMobilityPhase(mobile, "post", ops, 2000, nullptr));
  mobile.Close();

  // Straggler: a zone-0 client still dialing node 0 after the steal. In
  // the adaptive cell its first reply carries a redirect hint to the new
  // owner, which the failover client follows.
  FailoverTcpClient straggler(/*client_id=*/7303, real_endpoints);
  straggler.set_zone(0);
  straggler.set_endpoint(0);
  for (uint64_t i = 0; i < 5; ++i) {
    straggler.Call(ClientOp::kPut, "m-straggler", "v" + std::to_string(i));
  }
  result.redirects_followed = straggler.redirects_followed();
  straggler.Close();

  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    Result<std::string> stats = cluster.Stats(n);
    if (!stats.ok()) continue;
    const std::string& s = stats.value();
    result.steals_attempted += StatsU64(s, "placement_steals_attempted");
    result.steals_completed += StatsU64(s, "placement_steals_completed");
    result.steals_rejected += StatsU64(s, "placement_steals_rejected");
    result.pingpongs_suppressed += StatsU64(s, "placement_pingpongs_suppressed");
    result.steal_requests_sent += StatsU64(s, "steal_requests_sent");
    result.steals_granted += StatsU64(s, "steals_granted");
    result.steals_won += StatsU64(s, "steals_won");
    const uint64_t records = StatsU64(s, "ownership_records");
    if (records > result.ownership_records) result.ownership_records = records;
  }

  if (adaptive) {
    const RealnetMobilityPhase& post = result.phases.back();
    result.gate_pass = post.ops > 0 &&
                       post.latency.P50Millis() < 2 * result.intra_rtt_ms;
  }

  st = cluster.ShutdownAll();
  proxy.Stop();
  if (!st.ok()) return Status::Internal(result.label + ": " + st.ToString());
  return result;
}

}  // namespace

Result<RealnetBenchReport> RunRealnetBench(const RealnetBenchOptions& options) {
  RealnetBenchReport report;
  std::vector<CellSpec> cells;
  for (ProtocolMode mode : options.modes) {
    cells.push_back(CellSpec{mode, /*fast_path=*/false, /*target=*/0, ""});
  }
  if (options.fast_path_cells && !options.modes.empty()) {
    // The edge pair runs the first mode with the load aimed at a
    // follower: "edge-classic" pays forward-to-leader + classic commit,
    // "edge-fast" lets the origin drive the fast quorum directly — the
    // round trip the fast path collapses.
    const ProtocolMode mode = options.modes.front();
    const std::string base = ProtocolModeName(mode);
    cells.push_back(CellSpec{mode, /*fast_path=*/false, options.edge_node,
                             base + "/edge-classic"});
    cells.push_back(CellSpec{mode, /*fast_path=*/true, options.edge_node,
                             base + "/edge-fast"});
  }
  if (options.durable_cell && !options.modes.empty()) {
    // The durability cell: the first mode again, but every ack waits
    // for a real fdatasync into a per-node WAL. Against the volatile
    // row of the same mode this is the measured price of durability —
    // and the killed node restarts from its disk instead of empty.
    std::string base = options.data_dir_base;
    if (base.empty()) {
      char tmpl[] = "/tmp/dpaxos_bench_wal.XXXXXX";
      const char* made = mkdtemp(tmpl);
      if (made == nullptr) {
        return Status::Unavailable("mkdtemp for the durable cell failed");
      }
      base = made;
    }
    const ProtocolMode mode = options.modes.front();
    CellSpec cell{mode, /*fast_path=*/false, /*target=*/0,
                  std::string(ProtocolModeName(mode)) + "/durable"};
    cell.durable = true;
    cell.data_dir_base = base;
    cells.push_back(cell);
  }
  for (const CellSpec& cell : cells) {
    const std::string label =
        cell.label.empty() ? ProtocolModeName(cell.mode) : cell.label;
    DPAXOS_INFO("realnet: running cell " << label);
    Result<RealnetModeResult> result = RunMode(options, cell);
    if (!result.ok()) {
      return Status::Internal(label + ": " + result.status().ToString());
    }
    report.results.push_back(std::move(result.value()));
  }
  if (options.mobility) {
    // The pair shares one seed and one latency shape; only --ownership
    // differs, so the adaptive row's post-migration drop is attributable
    // to the protocol steal alone.
    for (bool adaptive : {false, true}) {
      DPAXOS_INFO("realnet: running cell mobility/"
                  << (adaptive ? "adaptive" : "static"));
      Result<RealnetMobilityResult> cell = RunMobilityCell(options, adaptive);
      if (!cell.ok()) return cell.status();
      report.mobility.push_back(std::move(cell.value()));
    }
  }
  return report;
}

std::string RealnetReportToJson(const RealnetBenchOptions& options,
                                const RealnetBenchReport& report) {
  char buf[320];
  std::string out = "{\n  \"benchmark\": \"realnet\",\n";
  snprintf(buf, sizeof(buf),
           "  \"requests_per_mode\": %llu,\n"
           "  \"hardware_threads\": %u,\n"
           "  \"open_loop\": {\"connections\": %u, \"pipeline\": %u, "
           "\"rate_ops\": %.1f},\n  \"modes\": [\n",
           static_cast<unsigned long long>(options.requests),
           std::thread::hardware_concurrency(), options.connections,
           options.pipeline, options.rate);
  out += buf;
  for (size_t i = 0; i < report.results.size(); ++i) {
    const RealnetModeResult& r = report.results[i];
    snprintf(buf, sizeof(buf),
             "    {\"mode\": \"%s\", \"label\": \"%s\", "
             "\"fast_path\": %s, \"target_node\": %u,\n"
             "     \"measured_ops\": %llu, "
             "\"measured_ops_failed\": %llu, \"ops_while_down\": %llu,\n"
             "     \"elapsed_s\": %.3f, \"throughput_ops\": %.1f, "
             "\"offered_ops\": %.1f,\n",
             ProtocolModeName(r.mode),
             r.label.empty() ? ProtocolModeName(r.mode) : r.label.c_str(),
             r.fast_path ? "true" : "false", r.target_node,
             static_cast<unsigned long long>(r.measured_ops),
             static_cast<unsigned long long>(r.measured_ops_failed),
             static_cast<unsigned long long>(r.ops_while_down),
             r.elapsed_seconds, r.throughput_ops, r.offered_ops);
    out += buf;
    snprintf(buf, sizeof(buf),
             "     \"fast\": {\"commits\": %llu, \"fallbacks\": %llu},\n",
             static_cast<unsigned long long>(r.fast_commits),
             static_cast<unsigned long long>(r.fast_fallbacks));
    out += buf;
    const double fsyncs_per_op =
        r.measured_ops > 0
            ? static_cast<double>(r.wal_fsyncs) /
                  static_cast<double>(r.measured_ops)
            : 0;
    snprintf(buf, sizeof(buf),
             "     \"durability\": {\"durable\": %s, \"wal_appends\": %llu, "
             "\"wal_bytes\": %llu, \"wal_fsyncs\": %llu, "
             "\"fsyncs_per_op\": %.3f},\n",
             r.durable ? "true" : "false",
             static_cast<unsigned long long>(r.wal_appends),
             static_cast<unsigned long long>(r.wal_bytes),
             static_cast<unsigned long long>(r.wal_fsyncs), fsyncs_per_op);
    out += buf;
    snprintf(buf, sizeof(buf),
             "     \"latency_ms\": {\"mean\": %.3f, \"p50\": %.3f, "
             "\"p99\": %.3f, \"p999\": %.3f, \"max\": %.3f},\n",
             r.latency.MeanMillis(), r.latency.P50Millis(),
             r.latency.P99Millis(), r.latency.P999Millis(),
             ToMillis(r.latency.Max()));
    out += buf;
    snprintf(buf, sizeof(buf),
             "     \"recovery\": {\"snapshots_installed\": %llu, "
             "\"restarted_watermark\": %llu, \"leader_watermark\": %llu, "
             "\"checksum_match\": %llu},\n",
             static_cast<unsigned long long>(r.snapshots_installed),
             static_cast<unsigned long long>(r.restarted_watermark),
             static_cast<unsigned long long>(r.leader_watermark),
             static_cast<unsigned long long>(r.checksum_match));
    out += buf;
    const double frames_per_writev =
        r.tcp_writev_calls > 0
            ? static_cast<double>(r.tcp_writev_calls + r.tcp_frames_coalesced) /
                  static_cast<double>(r.tcp_writev_calls)
            : 0;
    snprintf(buf, sizeof(buf),
             "     \"tcp\": {\"reconnects\": %llu, \"frames_dropped\": %llu, "
             "\"malformed_frames\": %llu, \"bytes_out\": %llu,\n"
             "      \"writev_calls\": %llu, \"frames_coalesced\": %llu, "
             "\"frames_per_writev\": %.2f}}%s\n",
             static_cast<unsigned long long>(r.tcp_reconnects),
             static_cast<unsigned long long>(r.tcp_frames_dropped),
             static_cast<unsigned long long>(r.tcp_malformed_frames),
             static_cast<unsigned long long>(r.tcp_bytes_out),
             static_cast<unsigned long long>(r.tcp_writev_calls),
             static_cast<unsigned long long>(r.tcp_frames_coalesced),
             frames_per_writev, i + 1 < report.results.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  if (!report.mobility.empty()) {
    out += "  \"mobility\": [\n";
    for (size_t i = 0; i < report.mobility.size(); ++i) {
      const RealnetMobilityResult& m = report.mobility[i];
      snprintf(buf, sizeof(buf),
               "    {\"label\": \"%s\", \"adaptive\": %s, "
               "\"inter_oneway_ms\": %.1f, \"intra_rtt_ms\": %.1f, "
               "\"gate_ms\": %.1f, \"gate_pass\": %s,\n"
               "     \"migration_s\": %.3f, \"redirects_followed\": %llu,\n",
               m.label.c_str(), m.adaptive ? "true" : "false",
               m.inter_oneway_ms, m.intra_rtt_ms, 2 * m.intra_rtt_ms,
               m.gate_pass ? "true" : "false", m.migration_seconds,
               static_cast<unsigned long long>(m.redirects_followed));
      out += buf;
      snprintf(buf, sizeof(buf),
               "     \"steals\": {\"attempted\": %llu, \"completed\": %llu, "
               "\"rejected\": %llu, \"pingpongs_suppressed\": %llu,\n"
               "      \"requests_sent\": %llu, \"granted\": %llu, "
               "\"won\": %llu, \"ownership_records\": %llu},\n",
               static_cast<unsigned long long>(m.steals_attempted),
               static_cast<unsigned long long>(m.steals_completed),
               static_cast<unsigned long long>(m.steals_rejected),
               static_cast<unsigned long long>(m.pingpongs_suppressed),
               static_cast<unsigned long long>(m.steal_requests_sent),
               static_cast<unsigned long long>(m.steals_granted),
               static_cast<unsigned long long>(m.steals_won),
               static_cast<unsigned long long>(m.ownership_records));
      out += buf;
      out += "     \"phases\": [\n";
      for (size_t p = 0; p < m.phases.size(); ++p) {
        const RealnetMobilityPhase& ph = m.phases[p];
        snprintf(buf, sizeof(buf),
                 "      {\"name\": \"%s\", \"ops\": %llu, "
                 "\"ops_failed\": %llu, \"latency_ms\": "
                 "{\"mean\": %.3f, \"p50\": %.3f, \"p99\": %.3f, "
                 "\"max\": %.3f}}%s\n",
                 ph.name.c_str(), static_cast<unsigned long long>(ph.ops),
                 static_cast<unsigned long long>(ph.ops_failed),
                 ph.latency.MeanMillis(), ph.latency.P50Millis(),
                 ph.latency.P99Millis(), ToMillis(ph.latency.Max()),
                 p + 1 < m.phases.size() ? "," : "");
        out += buf;
      }
      out += std::string("     ]}") +
             (i + 1 < report.mobility.size() ? "," : "") + "\n";
    }
    out += "  ],\n";
  }
  out += std::string("  \"clean_shutdown\": ") +
         (report.clean_shutdown ? "true" : "false") + "\n}\n";
  return out;
}

}  // namespace dpaxos
