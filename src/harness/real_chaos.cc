#include "harness/real_chaos.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "harness/load_gen.h"
#include "harness/real_cluster.h"
#include "harness/real_nemesis.h"
#include "net/tcp/tcp_client.h"
#include "paxos/replica_config.h"

namespace dpaxos {

namespace {

Timestamp NowMicros() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Timestamp>(ts.tv_sec) * kSecond + ts.tv_nsec / 1000;
}

void SleepMicros(Duration us) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(us / kSecond);
  ts.tv_nsec = static_cast<long>((us % kSecond) * 1000);
  nanosleep(&ts, nullptr);
}

uint64_t StatsU64(const std::string& stats, const std::string& key) {
  const std::string field = StatsField(stats, key);
  return field.empty() ? 0 : strtoull(field.c_str(), nullptr, 10);
}

/// One client thread: issue ops against the proxied cluster until told
/// to stop, recording every invocation/completion in the shared history.
struct ClientCtx {
  uint64_t client_id = 0;
  Rng rng{1};
  FailoverTcpClient* client = nullptr;
  uint64_t next_op = 1;
  /// Ownership runs: wall-clock instant at which this client "moves" —
  /// re-dials `move_endpoint` and declares `move_zone` from then on (0 =
  /// never). The locality shift is what gives the placement sweep a
  /// reason to steal mid-chaos.
  Timestamp move_at = 0;
  uint32_t move_zone = 0;
  size_t move_endpoint = 0;
  bool moved = false;
};

struct SharedState {
  std::mutex mu;  // guards recorder + latency (HistoryRecorder is not
                  // thread-safe; contention is think-time bounded)
  HistoryRecorder recorder;
  Histogram latency;
  std::atomic<bool> stop{false};
};

/// Issue one op through ctx's client, recording its invocation and its
/// outcome in the shared history.
void RunCheckedOp(ClientCtx* ctx, SharedState* shared, bool is_read,
                  const std::string& key) {
  // Written values are unique per (client, op) — the linearizability
  // search requires distinguishable writes per key.
  const std::string value =
      is_read ? ""
              : "c" + std::to_string(ctx->client_id) + "-" +
                    std::to_string(ctx->next_op);
  ++ctx->next_op;

  size_t index;
  const Timestamp invoked = NowMicros();
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    index = shared->recorder.Invoke(ctx->client_id, ctx->next_op, is_read,
                                    key, value, invoked);
  }
  FailoverTcpClient::CallResult result = ctx->client->Call(
      is_read ? ClientOp::kGet : ClientOp::kPut, key, value);
  const Timestamp completed = NowMicros();
  std::lock_guard<std::mutex> lock(shared->mu);
  HistoryOp& op = shared->recorder.op(index);
  if (result.status.ok()) {
    const StatusCode code = static_cast<StatusCode>(result.reply.status_code);
    if (is_read) {
      if (code == StatusCode::kOk) op.observed = result.reply.value;
      // kNotFound leaves observed == nullopt: a definite "absent".
      op.observed_watermark = result.reply.watermark;
    } else {
      op.slot = result.reply.watermark;
    }
    shared->recorder.Complete(index, HistoryOutcome::kOk, completed);
    shared->latency.Add(completed - invoked);
  } else if (is_read || !result.ever_sent) {
    // Reads have no effect; writes that never reached a live
    // connection definitely did not happen.
    shared->recorder.Complete(index, HistoryOutcome::kFail, completed);
  } else {
    // The write reached a server and no definitive answer came
    // back — it may commit any time later.
    shared->recorder.Complete(index, HistoryOutcome::kIndeterminate,
                              completed);
  }
}

void ClientLoop(const RealChaosOptions& options, ClientCtx* ctx,
                SharedState* shared) {
  while (!shared->stop.load(std::memory_order_relaxed)) {
    if (!ctx->moved && ctx->move_at != 0 && NowMicros() >= ctx->move_at) {
      ctx->client->set_zone(ctx->move_zone);
      ctx->client->set_endpoint(ctx->move_endpoint);
      ctx->moved = true;
    }
    const bool is_read = ctx->rng.NextBool(options.read_fraction);
    const std::string key =
        "k" + std::to_string(ctx->rng.NextBounded(options.num_keys));
    RunCheckedOp(ctx, shared, is_read, key);
    if (shared->stop.load(std::memory_order_relaxed)) break;
    const Duration think =
        options.think_time / 2 + ctx->rng.NextBounded(options.think_time);
    SleepMicros(think);
  }
}

/// Fast-path runs: force one fast-path fallback, so every run exercises
/// the fallback whether or not its fault schedule caused one. The leader
/// (node 0, the leader hint) is in every fast quorum, so SIGSTOPping it
/// for longer than the servers' fast timeout, while a checked client
/// writes through a follower holding the fast grant, makes that
/// follower's fast attempt time out and fall back to a classic forward,
/// which commits once the leader resumes. Call with the cluster healed
/// and the other clients stopped.
void ForceFastFallback(const RealChaosOptions& options, RealCluster& cluster,
                       const ChaosProxy& proxy, SharedState* shared) {
  // A follower that committed on the fast path holds the grant: restarts
  // reset counters, and a restarted node has no grant until the next
  // election.
  NodeId follower = 1;
  uint64_t most_fast_commits = 0;
  for (NodeId n = 1; n < cluster.num_nodes(); ++n) {
    Result<std::string> stats = cluster.Stats(n);
    if (!stats.ok()) continue;
    const uint64_t fast_commits = StatsU64(stats.value(), "fast_commits");
    if (fast_commits > most_fast_commits) {
      most_fast_commits = fast_commits;
      follower = n;
    }
  }
  // The servers run ReplicaConfig's timers: the fast timeout is
  // propose_timeout unless fast_timeout is set.
  const ReplicaConfig server;
  const Duration fast_timeout = server.fast_timeout > 0
                                    ? server.fast_timeout
                                    : server.propose_timeout;
  const Duration pause = fast_timeout + kSecond;

  FailoverTcpClient::Options fopts;
  // One attempt, on the follower, that outlasts the pause.
  fopts.attempt_timeout = pause + options.op_timeout;
  fopts.overall_timeout = fopts.attempt_timeout;
  ClientCtx ctx;
  ctx.client_id = options.num_clients + 1;
  FailoverTcpClient client(ctx.client_id, proxy.endpoints(), fopts);
  client.set_endpoint(follower);
  ctx.client = &client;

  Status st = cluster.Pause(0);
  if (!st.ok()) {
    DPAXOS_WARN("realchaos: cannot pause the leader: " << st.ToString());
    return;
  }
  std::thread resume([&cluster, pause] {
    SleepMicros(pause);
    Status resumed = cluster.Resume(0);
    if (!resumed.ok()) {
      DPAXOS_WARN("realchaos: cannot resume the leader: "
                  << resumed.ToString());
    }
  });
  RunCheckedOp(&ctx, shared, /*is_read=*/false, "kfallback");
  resume.join();
  client.Close();
}

/// Poll direct (non-proxied) stats until every node reports the same
/// checksum at the same watermark.
bool AwaitConvergence(RealCluster& cluster, Duration budget,
                      std::string* detail) {
  const Timestamp deadline = NowMicros() + budget;
  while (NowMicros() < deadline) {
    std::string first_checksum;
    uint64_t min_watermark = ~0ull, max_watermark = 0;
    bool all_answered = true, checksums_match = true;
    std::string states;
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      Result<std::string> stats = cluster.Stats(n);
      if (!stats.ok()) {
        all_answered = false;
        states += " node" + std::to_string(n) + "=unreachable";
        continue;
      }
      const std::string checksum = StatsField(stats.value(), "checksum");
      const uint64_t watermark = StatsU64(stats.value(), "watermark");
      if (first_checksum.empty()) {
        first_checksum = checksum;
      } else if (checksum != first_checksum) {
        checksums_match = false;
      }
      if (watermark < min_watermark) min_watermark = watermark;
      if (watermark > max_watermark) max_watermark = watermark;
      states += " node" + std::to_string(n) + "=w" +
                std::to_string(watermark) + "/" + checksum;
    }
    *detail = states;
    if (all_answered && checksums_match && min_watermark == max_watermark) {
      return true;
    }
    SleepMicros(200 * kMillisecond);
  }
  return false;
}

}  // namespace

RealChaosReport RunRealChaos(const RealChaosOptions& options) {
  RealChaosReport report;
  auto fail = [&report](const std::string& what) -> RealChaosReport& {
    report.error = what;
    DPAXOS_WARN("realchaos: " << what);
    return report;
  };

  const uint32_t num_nodes = options.zones * options.nodes_per_zone;

  // Keep every key's op count under the checker's 63-op bitmask bound:
  // expected ops ~= clients * duration / think_time, and ~2x headroom
  // against think-time jitter and fast retries.
  uint32_t num_keys = options.num_keys;
  if (options.think_time > 0) {
    const uint64_t expected_ops = options.num_clients *
                                  (options.duration / options.think_time + 1);
    const uint32_t floor_keys =
        static_cast<uint32_t>(expected_ops / 24 + 1);
    if (num_keys < floor_keys) num_keys = floor_keys;
  }

  // 1. Real endpoints first, so the proxy can wrap them before spawn.
  Result<std::vector<uint16_t>> ports = PickFreeLoopbackPorts(num_nodes);
  if (!ports.ok()) return fail("ports: " + ports.status().ToString());
  std::vector<HostPort> real_endpoints;
  for (uint16_t port : ports.value()) {
    real_endpoints.push_back(HostPort{"127.0.0.1", port});
  }

  ChaosProxyOptions popts;
  popts.upstreams = real_endpoints;
  popts.zones = options.zones;
  popts.seed = options.seed;
  ChaosProxy proxy(popts);
  Status st = proxy.Start();
  if (!st.ok()) return fail("proxy: " + st.ToString());

  // 2. Cluster: every node binds its real endpoint but dials peers (and
  // is dialed by clients) through the proxy.
  RealClusterOptions copts;
  copts.server_binary = options.server_binary;
  copts.zones = options.zones;
  copts.nodes_per_zone = options.nodes_per_zone;
  copts.mode = options.mode;
  copts.seed = options.seed;
  copts.leader_hint = 0;
  copts.enable_compaction = true;
  copts.log_dir = options.log_dir;
  copts.listen_endpoints = real_endpoints;
  copts.peer_view = proxy.endpoints();
  if (options.fast_path) copts.extra_args.push_back("--fast-path");
  const bool ownership = options.ownership || options.schedule == "mobility";
  if (ownership) {
    copts.extra_args.push_back("--ownership");
    copts.extra_args.push_back(
        "--placement-sweep-ms=" +
        std::to_string(options.placement_sweep / kMillisecond));
    copts.extra_args.push_back(
        "--steal-cooldown-ms=" +
        std::to_string(options.steal_cooldown / kMillisecond));
  }
  if (options.durable) {
    if (options.data_dir_base.empty()) {
      return fail("durable mode requires data_dir_base");
    }
    copts.data_dir_base = options.data_dir_base;
    copts.disk_faults = true;
    copts.wal_commit_delay = options.wal_commit_delay;
  }
  RealCluster cluster(copts);
  st = cluster.Start();
  if (!st.ok()) return fail("cluster: " + st.ToString());

  // 3. Nemesis schedule (validated before any thread starts).
  RealNemesis nemesis(&cluster, &proxy, options.seed);
  if (options.schedule != "none" &&
      !nemesis.AddNamedSchedule(options.schedule, 0, options.duration)) {
    return fail("unknown schedule '" + options.schedule + "'");
  }

  // 4. Clients against the PROXIED endpoints, so client links share the
  // cluster's fault surface.
  SharedState shared;
  std::vector<ClientCtx> ctxs(options.num_clients);
  std::vector<std::unique_ptr<FailoverTcpClient>> clients;
  RealChaosOptions effective = options;
  effective.num_keys = num_keys;
  FailoverTcpClient::Options fopts;
  fopts.overall_timeout = options.op_timeout;
  for (uint32_t c = 0; c < options.num_clients; ++c) {
    ctxs[c].client_id = c + 1;
    ctxs[c].rng = Rng(options.seed + 7919 * (c + 1));
    // With the fast path on, stagger each client's home replica (the
    // zone-local entry DPaxos optimizes for): a client parked on the
    // leader never drives a fast round, it just submits classically.
    std::vector<HostPort> eps = proxy.endpoints();
    if (options.fast_path) {
      std::rotate(eps.begin(), eps.begin() + (c % eps.size()), eps.end());
    }
    clients.push_back(std::make_unique<FailoverTcpClient>(
        ctxs[c].client_id, std::move(eps), fopts));
    ctxs[c].client = clients.back().get();
    if (ownership) {
      // The checked clients start parked in zone 0 (the leader hint's
      // zone) and later migrate to zone 1, so the placement sweep sees
      // the locality shift through real request arrivals.
      ctxs[c].client->set_zone(0);
      if (options.client_move_frac > 0 && options.zones > 1) {
        ctxs[c].move_at =
            NowMicros() + static_cast<Timestamp>(
                              static_cast<double>(options.duration) *
                              options.client_move_frac);
        ctxs[c].move_zone = 1;
        ctxs[c].move_endpoint =
            options.nodes_per_zone + (c % options.nodes_per_zone);
      }
    }
  }
  std::vector<std::thread> client_threads;
  for (uint32_t c = 0; c < options.num_clients; ++c) {
    client_threads.emplace_back(ClientLoop, std::cref(effective), &ctxs[c],
                                &shared);
  }
  std::thread nemesis_thread([&nemesis] { nemesis.Run(); });

  // 4b. Optional sustained-load soak: the open-loop async driver runs
  // against the same proxied endpoints for the whole faulty phase, on a
  // disjoint key prefix and client-id range so the checked history stays
  // untouched. It redials through kills/partitions on its own.
  Result<LoadGenResult> soak = LoadGenResult{};
  std::thread soak_thread;
  if (options.soak_connections > 0) {
    LoadGenOptions sopts;
    sopts.endpoints = proxy.endpoints();
    sopts.connections = options.soak_connections;
    sopts.pipeline = options.soak_pipeline;
    sopts.rate = options.soak_rate;
    sopts.total_ops = 0;
    sopts.duration = options.duration;
    sopts.timeout = options.duration + 30 * kSecond;
    sopts.key_prefix = "soak";
    sopts.key_space = 64;
    sopts.client_id_base = 500;
    sopts.seed = options.seed + 104729;
    soak_thread = std::thread(
        [&soak, sopts] { soak = RunLoadGen(sopts); });
  }

  // 5. Let the faulty phase run its course, then drain.
  SleepMicros(options.duration);
  nemesis_thread.join();
  shared.stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : client_threads) t.join();
  for (auto& client : clients) client->Close();
  if (soak_thread.joinable()) {
    soak_thread.join();
    if (soak.ok()) {
      report.soak_ops_ok = soak->ops_ok;
      report.soak_ops_failed = soak->ops_failed;
      report.soak_conn_errors = soak->conn_errors;
      report.soak_achieved_ops = soak->achieved_ops;
      report.soak_p99_ms = soak->latency.P99Millis();
    } else if (report.error.empty()) {
      report.error = "soak: " + soak.status().ToString();
    }
  }

  // 6. Heal the world and wait for one identical state everywhere.
  nemesis.Quiesce();
  if (options.fast_path) ForceFastFallback(options, cluster, proxy, &shared);
  std::string converge_detail;
  report.converged =
      AwaitConvergence(cluster, options.settle, &converge_detail);
  if (!report.converged) {
    DPAXOS_WARN("realchaos: no convergence:" << converge_detail);
  }

  // 7. Node-side damage counters (direct, not proxied).
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    Result<std::string> stats = cluster.Stats(n);
    if (!stats.ok()) continue;
    report.tcp_reconnects += StatsU64(stats.value(), "tcp_reconnects");
    report.tcp_dropped_frames += StatsU64(stats.value(), "tcp_frames_dropped");
    report.tcp_malformed_frames +=
        StatsU64(stats.value(), "tcp_malformed_frames");
    report.fast_commits += StatsU64(stats.value(), "fast_commits");
    report.fast_fallbacks += StatsU64(stats.value(), "fast_fallbacks");
    report.wal_fsyncs += StatsU64(stats.value(), "wal_fsyncs");
    report.wal_torn_tail_truncations +=
        StatsU64(stats.value(), "wal_torn_tail_truncations");
    report.steals_attempted +=
        StatsU64(stats.value(), "placement_steals_attempted");
    report.steals_completed +=
        StatsU64(stats.value(), "placement_steals_completed");
    report.steals_rejected +=
        StatsU64(stats.value(), "placement_steals_rejected");
    report.pingpongs_suppressed +=
        StatsU64(stats.value(), "placement_pingpongs_suppressed");
    report.placement_rescues += StatsU64(stats.value(), "placement_rescues");
    report.steals_won += StatsU64(stats.value(), "steals_won");
    const uint64_t records = StatsU64(stats.value(), "ownership_records");
    if (records > report.ownership_records) {
      report.ownership_records = records;
    }
  }

  // 8. Verdicts.
  report.consistency = CheckHistory(shared.recorder.ops());
  report.ops_invoked = shared.recorder.size();
  report.ops_committed = shared.recorder.CountOutcome(HistoryOutcome::kOk);
  report.ops_failed = shared.recorder.CountOutcome(HistoryOutcome::kFail);
  report.ops_indeterminate =
      shared.recorder.CountOutcome(HistoryOutcome::kIndeterminate);
  report.latency = shared.latency;
  for (const auto& client : clients) {
    report.client_failovers += client->total_failovers();
  }
  report.proxy = proxy.stats();
  report.nemesis_actions = nemesis.actions_executed();
  report.nemesis_partitions = nemesis.partitions();
  report.nemesis_pauses = nemesis.pauses();
  report.nemesis_kills = nemesis.kills();
  report.nemesis_restarts = nemesis.restarts();
  report.nemesis_corrupt_bursts = nemesis.corrupt_bursts();
  report.nemesis_disk_faults = nemesis.disk_faults_armed();
  report.nemesis_power_losses = nemesis.power_losses();
  report.nemesis_log = nemesis.action_log();

  st = cluster.ShutdownAll();
  if (!st.ok() && report.error.empty()) {
    report.error = "shutdown: " + st.ToString();
  }
  proxy.Stop();
  return report;
}

std::string RealChaosReport::Summary() const {
  char buf[160];
  std::string out;
  snprintf(buf, sizeof(buf),
           "ops=%llu ok=%llu fail=%llu indet=%llu failovers=%llu\n",
           static_cast<unsigned long long>(ops_invoked),
           static_cast<unsigned long long>(ops_committed),
           static_cast<unsigned long long>(ops_failed),
           static_cast<unsigned long long>(ops_indeterminate),
           static_cast<unsigned long long>(client_failovers));
  out += buf;
  snprintf(buf, sizeof(buf),
           "latency under fault: p50=%.1fms p99=%.1fms max=%.1fms\n",
           latency.P50Millis(), latency.P99Millis(), ToMillis(latency.Max()));
  out += buf;
  snprintf(buf, sizeof(buf),
           "proxy faults=%llu (dropped=%llu blackholed=%llu corrupted=%llu "
           "delayed=%llu cut=%llu)\n",
           static_cast<unsigned long long>(proxy.total_faults()),
           static_cast<unsigned long long>(proxy.frames_dropped),
           static_cast<unsigned long long>(proxy.frames_blackholed),
           static_cast<unsigned long long>(proxy.frames_corrupted),
           static_cast<unsigned long long>(proxy.frames_delayed),
           static_cast<unsigned long long>(proxy.links_closed));
  out += buf;
  snprintf(buf, sizeof(buf),
           "nemesis actions=%llu (partitions=%llu pauses=%llu kills=%llu "
           "restarts=%llu corrupt-bursts=%llu)\n",
           static_cast<unsigned long long>(nemesis_actions),
           static_cast<unsigned long long>(nemesis_partitions),
           static_cast<unsigned long long>(nemesis_pauses),
           static_cast<unsigned long long>(nemesis_kills),
           static_cast<unsigned long long>(nemesis_restarts),
           static_cast<unsigned long long>(nemesis_corrupt_bursts));
  out += buf;
  snprintf(buf, sizeof(buf),
           "node tcp: reconnects=%llu dropped=%llu malformed=%llu\n",
           static_cast<unsigned long long>(tcp_reconnects),
           static_cast<unsigned long long>(tcp_dropped_frames),
           static_cast<unsigned long long>(tcp_malformed_frames));
  out += buf;
  if (nemesis_disk_faults > 0 || nemesis_power_losses > 0 || wal_fsyncs > 0) {
    snprintf(buf, sizeof(buf),
             "disk: faults_armed=%llu power_losses=%llu wal_fsyncs=%llu "
             "torn_tail_truncations=%llu\n",
             static_cast<unsigned long long>(nemesis_disk_faults),
             static_cast<unsigned long long>(nemesis_power_losses),
             static_cast<unsigned long long>(wal_fsyncs),
             static_cast<unsigned long long>(wal_torn_tail_truncations));
    out += buf;
  }
  if (fast_commits > 0 || fast_fallbacks > 0) {
    snprintf(buf, sizeof(buf), "fast path: commits=%llu fallbacks=%llu\n",
             static_cast<unsigned long long>(fast_commits),
             static_cast<unsigned long long>(fast_fallbacks));
    out += buf;
  }
  if (steals_attempted > 0 || ownership_records > 0) {
    snprintf(buf, sizeof(buf),
             "ownership: steals=%llu/%llu rejected=%llu rescues=%llu "
             "pingpongs_suppressed=%llu records=%llu\n",
             static_cast<unsigned long long>(steals_completed),
             static_cast<unsigned long long>(steals_attempted),
             static_cast<unsigned long long>(steals_rejected),
             static_cast<unsigned long long>(placement_rescues),
             static_cast<unsigned long long>(pingpongs_suppressed),
             static_cast<unsigned long long>(ownership_records));
    out += buf;
  }
  if (soak_ops_ok + soak_ops_failed > 0) {
    snprintf(buf, sizeof(buf),
             "soak: ok=%llu failed=%llu conn_errors=%llu achieved=%.1f/s "
             "p99=%.1fms\n",
             static_cast<unsigned long long>(soak_ops_ok),
             static_cast<unsigned long long>(soak_ops_failed),
             static_cast<unsigned long long>(soak_conn_errors),
             soak_achieved_ops, soak_p99_ms);
    out += buf;
  }
  out += consistency.Summary();
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += converged ? "converged: yes\n" : "converged: NO\n";
  if (!error.empty()) out += "error: " + error + "\n";
  out += ok() ? "REALCHAOS OK\n" : "REALCHAOS FAILED\n";
  return out;
}

std::string RealChaosSectionJson(const RealChaosOptions& options,
                                 const RealChaosReport& report) {
  char buf[192];
  std::string out = "{\n";
  snprintf(buf, sizeof(buf),
           "    \"mode\": \"%s\", \"schedule\": \"%s\", \"seed\": %llu, "
           "\"duration_s\": %.1f, \"fast_path\": %s, \"durable\": %s,\n",
           ProtocolModeName(options.mode), options.schedule.c_str(),
           static_cast<unsigned long long>(options.seed),
           static_cast<double>(options.duration) / 1e6,
           options.fast_path ? "true" : "false",
           options.durable ? "true" : "false");
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"ops\": {\"invoked\": %llu, \"ok\": %llu, \"failed\": %llu, "
           "\"indeterminate\": %llu, \"failovers\": %llu},\n",
           static_cast<unsigned long long>(report.ops_invoked),
           static_cast<unsigned long long>(report.ops_committed),
           static_cast<unsigned long long>(report.ops_failed),
           static_cast<unsigned long long>(report.ops_indeterminate),
           static_cast<unsigned long long>(report.client_failovers));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"latency_under_fault_ms\": {\"p50\": %.3f, \"p99\": %.3f, "
           "\"max\": %.3f},\n",
           report.latency.P50Millis(), report.latency.P99Millis(),
           ToMillis(report.latency.Max()));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"faults\": {\"total\": %llu, \"dropped\": %llu, "
           "\"blackholed\": %llu, \"corrupted\": %llu, \"delayed\": %llu, "
           "\"links_cut\": %llu,\n",
           static_cast<unsigned long long>(report.proxy.total_faults()),
           static_cast<unsigned long long>(report.proxy.frames_dropped),
           static_cast<unsigned long long>(report.proxy.frames_blackholed),
           static_cast<unsigned long long>(report.proxy.frames_corrupted),
           static_cast<unsigned long long>(report.proxy.frames_delayed),
           static_cast<unsigned long long>(report.proxy.links_closed));
  out += buf;
  snprintf(buf, sizeof(buf),
           "      \"partitions\": %llu, \"pauses\": %llu, \"kills\": %llu, "
           "\"restarts\": %llu, \"corrupt_bursts\": %llu},\n",
           static_cast<unsigned long long>(report.nemesis_partitions),
           static_cast<unsigned long long>(report.nemesis_pauses),
           static_cast<unsigned long long>(report.nemesis_kills),
           static_cast<unsigned long long>(report.nemesis_restarts),
           static_cast<unsigned long long>(report.nemesis_corrupt_bursts));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"tcp\": {\"reconnects\": %llu, \"dropped_frames\": %llu, "
           "\"malformed_frames\": %llu},\n",
           static_cast<unsigned long long>(report.tcp_reconnects),
           static_cast<unsigned long long>(report.tcp_dropped_frames),
           static_cast<unsigned long long>(report.tcp_malformed_frames));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"fast\": {\"commits\": %llu, \"fallbacks\": %llu},\n",
           static_cast<unsigned long long>(report.fast_commits),
           static_cast<unsigned long long>(report.fast_fallbacks));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"ownership\": {\"steals_attempted\": %llu, "
           "\"steals_completed\": %llu, \"steals_rejected\": %llu, "
           "\"rescues\": %llu, \"pingpongs_suppressed\": %llu, "
           "\"steals_won\": %llu, \"records\": %llu},\n",
           static_cast<unsigned long long>(report.steals_attempted),
           static_cast<unsigned long long>(report.steals_completed),
           static_cast<unsigned long long>(report.steals_rejected),
           static_cast<unsigned long long>(report.placement_rescues),
           static_cast<unsigned long long>(report.pingpongs_suppressed),
           static_cast<unsigned long long>(report.steals_won),
           static_cast<unsigned long long>(report.ownership_records));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"disk\": {\"faults_armed\": %llu, \"power_losses\": %llu, "
           "\"wal_fsyncs\": %llu, \"torn_tail_truncations\": %llu},\n",
           static_cast<unsigned long long>(report.nemesis_disk_faults),
           static_cast<unsigned long long>(report.nemesis_power_losses),
           static_cast<unsigned long long>(report.wal_fsyncs),
           static_cast<unsigned long long>(report.wal_torn_tail_truncations));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"checkers\": {\"violations\": %llu, \"keys_checked\": %llu, "
           "\"reads_checked\": %llu, \"writes_checked\": %llu},\n",
           static_cast<unsigned long long>(report.consistency.violations.size()),
           static_cast<unsigned long long>(report.consistency.keys_checked),
           static_cast<unsigned long long>(report.consistency.reads_checked),
           static_cast<unsigned long long>(report.consistency.writes_checked));
  out += buf;
  snprintf(buf, sizeof(buf),
           "    \"soak\": {\"connections\": %u, \"rate_ops\": %.1f, "
           "\"ok\": %llu, \"failed\": %llu, \"conn_errors\": %llu, "
           "\"achieved_ops\": %.1f, \"p99_ms\": %.3f},\n",
           options.soak_connections, options.soak_rate,
           static_cast<unsigned long long>(report.soak_ops_ok),
           static_cast<unsigned long long>(report.soak_ops_failed),
           static_cast<unsigned long long>(report.soak_conn_errors),
           report.soak_achieved_ops, report.soak_p99_ms);
  out += buf;
  out += std::string("    \"converged\": ") +
         (report.converged ? "true" : "false") + ",\n";
  out += std::string("    \"ok\": ") + (report.ok() ? "true" : "false") +
         "\n  }";
  return out;
}

std::string MergeChaosIntoBenchJson(const std::string& existing,
                                    const std::string& chaos_section) {
  const std::string entry = "  \"chaos\": " + chaos_section;
  // No (usable) existing document: emit a fresh one.
  const size_t close = existing.rfind('}');
  if (close == std::string::npos) {
    return "{\n" + entry + "\n}\n";
  }
  std::string head = existing.substr(0, close);
  // Strip a previous chaos section: from its key through its balanced
  // closing brace (and one trailing comma/newline run, if present).
  const size_t key = head.find("\"chaos\":");
  if (key != std::string::npos) {
    size_t start = head.find_last_not_of(" \t", key - 1);
    start = (start == std::string::npos) ? 0 : start + 1;
    size_t pos = head.find('{', key);
    if (pos != std::string::npos) {
      int depth = 0;
      size_t end = pos;
      for (; end < head.size(); ++end) {
        if (head[end] == '{') ++depth;
        if (head[end] == '}' && --depth == 0) break;
      }
      if (depth == 0) {
        ++end;
        while (end < head.size() &&
               (head[end] == ',' || head[end] == '\n' || head[end] == ' ')) {
          ++end;
        }
        head.erase(start, end - start);
      }
    }
  }
  // Ensure the preceding member is comma-terminated.
  size_t last = head.find_last_not_of(" \t\n");
  if (last != std::string::npos && head[last] != ',' && head[last] != '{') {
    head.insert(last + 1, ",");
  }
  if (!head.empty() && head.back() != '\n') head += "\n";
  return head + entry + "\n" + existing.substr(close);
}

}  // namespace dpaxos
