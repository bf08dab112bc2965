// Realnet workloads: a 2-zone x 2-node Leader Zone cluster of
// `dpaxos_cli --serve` processes on loopback, no injected delay, driven
// through the public client framing. Phases: set-up (repeated), warm-up,
// rounds of an open-loop slice at a fixed rate and a closed-loop slice at
// a fixed depth, then (on a durable cluster) a follower crash/restart
// tail, then the correctness gate.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client.h"
#include "harness/real_cluster.h"
#include "micro.h"
#include "net/tcp/tcp_client.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dpaxos::NodeId;
using dpaxos::RealCluster;
using dpaxos::Status;

constexpr uint64_t kClientIdBase = 7100;
constexpr uint64_t kTailClientIdBase = 7200;
constexpr uint64_t kReadbackClientId = 7300;
constexpr uint64_t kSetupClientId = 7400;
/// Tail-phase op indices: disjoint from the main client's, so every
/// written value stays unique.
constexpr uint64_t kTailFirstIndex = 1ull << 40;
constexpr size_t kReadbackKeys = 64;
constexpr uint64_t kHashedOps = 100000;
constexpr int64_t kWarmupNs = 500'000'000;
constexpr int64_t kSampleIntervalNs = 100'000'000;
constexpr int64_t kSettleMs = 25;
/// Set-up polls the nodes this often, so its clock stops within this
/// long of the moment the cluster serves.
constexpr int64_t kSetupPollUs = 200;
/// An open-loop generator whose median send lateness exceeds this fell
/// behind its schedule (rather than jittering around it); the run is
/// flagged. Lateness is charged to every latency either way.
constexpr double kBehindScheduleMs = 1.0;

/// `stats` and per-thread CPU of every node at one instant.
struct Snapshot {
  std::vector<NodeStats> stats;
  std::vector<std::vector<ThreadCpu>> cpu;
};

Snapshot TakeSnapshot(RealCluster& cluster, Tracer* tracer) {
  Snapshot s;
  const uint64_t span = tracer->Begin("snapshot", 0, NowNs());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    const int64_t t0 = NowNs();
    NodeStats ns;
    dpaxos::Result<std::string> st = cluster.Stats(n);
    ns.ok = st.ok();
    if (st.ok()) ns.raw = st.value();
    tracer->Record("stats_poll", span, t0, NowNs(), n);
    s.stats.push_back(ns);
    const int64_t t1 = NowNs();
    s.cpu.push_back(cluster.alive(n) ? ReadThreadCpu(cluster.pid(n))
                                     : std::vector<ThreadCpu>{});
    tracer->Record("proc_sample", span, t1, NowNs(), n);
  }
  tracer->End(span, NowNs());
  return s;
}

uint64_t Delta(const Snapshot& a, const Snapshot& b, NodeId n,
               const char* key) {
  return EpochDelta(a.stats[n].U64(key), b.stats[n].U64(key));
}

uint64_t DeltaAll(const Snapshot& a, const Snapshot& b, const char* key) {
  uint64_t total = 0;
  for (NodeId n = 0; n < a.stats.size(); ++n) total += Delta(a, b, n, key);
  return total;
}

double MainCpuDelta(const Snapshot& a, const Snapshot& b, NodeId n,
                    pid_t pid) {
  return std::max(0.0, MainThreadCpu(b.cpu[n], pid) -
                           MainThreadCpu(a.cpu[n], pid));
}

double OtherCpuDelta(const Snapshot& a, const Snapshot& b, NodeId n,
                     pid_t pid) {
  return std::max(0.0, OtherThreadsCpu(b.cpu[n], pid) -
                           OtherThreadsCpu(a.cpu[n], pid));
}

dpaxos::RealClusterOptions MakeClusterOptions(const Args& args,
                                              const RealnetSpec& spec,
                                              const std::string& wal_base,
                                              const std::string& log_dir) {
  dpaxos::RealClusterOptions opts;
  opts.server_binary = args.server;
  opts.zones = 2;
  opts.nodes_per_zone = 2;
  opts.mode = dpaxos::ProtocolMode::kLeaderZone;
  opts.seed = args.seed;
  opts.leader_hint = 0;
  opts.log_dir = log_dir;
  opts.extra_args.push_back("--reactors=" + std::to_string(kReactors));
  if (spec.durable) opts.data_dir_base = wal_base;
  return opts;
}

// Poll until every node answers `stats` and a first Put commits.
Status WaitServing(const std::vector<dpaxos::HostPort>& endpoints,
                   int64_t deadline) {
  for (size_t n = 0; n < endpoints.size(); ++n) {
    for (;;) {
      dpaxos::TcpClient probe(kSetupClientId + 1 + n);
      if (probe.Connect(endpoints[n], 100 * dpaxos::kMillisecond).ok() &&
          probe.Stats(dpaxos::kSecond).ok()) {
        break;
      }
      if (NowNs() > deadline) {
        return Status::TimedOut("node " + std::to_string(n) +
                                " never answered stats");
      }
      SleepUs(kSetupPollUs);
    }
  }
  dpaxos::TcpClient client(kSetupClientId);
  Status st = client.Connect(endpoints[0], 2 * dpaxos::kSecond);
  if (!st.ok()) return st;
  for (;;) {
    st = client.Put("setup", "v", 2 * dpaxos::kSecond);
    if (st.ok() || NowNs() > deadline) return st;
    SleepUs(kSetupPollUs);
  }
}

// Set-up time: spawn until every node answers `stats` and a first Put
// commits. RealCluster::Start() polls readiness only every 50 ms, so it
// runs on a second thread while this one polls the pre-picked endpoints
// every kSetupPollUs and stops the clock. Both threads, and so every
// server they fork, run on the last core (the load generator's once the
// measured cluster is placed): spread over the cores, set-up time follows
// how many cores the host's other tenants leave free (it doubled within
// minutes on a shared host), while on one core it is the set-up's own
// work and waits. The caller's affinity is restored after.
Status StartCluster(RealCluster* cluster, double* seconds) {
  const unsigned core =
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))) - 1;
  cpu_set_t saved;
  const bool restore = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  PinThread(0, core, core);
  const int64_t t0 = NowNs();
  Status started;
  std::thread starter([&] {
    PinThread(0, core, core);
    started = cluster->Start();
  });
  const Status serving = WaitServing(cluster->options().listen_endpoints,
                                     t0 + 10'000'000'000);
  const int64_t t1 = NowNs();
  starter.join();
  if (restore) sched_setaffinity(0, sizeof(saved), &saved);
  if (!started.ok()) return started;
  if (!serving.ok()) return serving;
  *seconds = static_cast<double>(t1 - t0) / 1e9;
  return Status::OK();
}

// A new cluster on fresh loopback ports, started and its set-up timed.
Status NewCluster(const Args& args, const RealnetSpec& spec,
                  const std::string& wal_base, const std::string& log_dir,
                  std::unique_ptr<RealCluster>* cluster, double* setup_s) {
  std::error_code ec;
  std::filesystem::remove_all(wal_base, ec);
  dpaxos::RealClusterOptions opts =
      MakeClusterOptions(args, spec, wal_base, log_dir);
  dpaxos::Result<std::vector<uint16_t>> ports =
      dpaxos::PickFreeLoopbackPorts(opts.zones * opts.nodes_per_zone);
  if (!ports.ok()) return ports.status();
  for (const uint16_t port : ports.value()) {
    opts.listen_endpoints.push_back({"127.0.0.1", port});
  }
  *cluster = std::make_unique<RealCluster>(std::move(opts));
  return StartCluster(cluster->get(), setup_s);
}

// Wait, outside the timed set-up, until every node's start-up snapshot
// catch-up (a fixed timer) has run. Load must not start before it: a node
// that installs its peer's snapshot after applying newer slots itself
// rolls its state machine back to the snapshot (its applied watermark
// stays), and serves stale reads from then on.
Status WaitStartupCatchUp(RealCluster& cluster) {
  const int64_t deadline = NowNs() + 10'000'000'000;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    for (;;) {
      dpaxos::Result<std::string> s = cluster.Stats(n);
      if (s.ok()) {
        NodeStats ns;
        ns.raw = s.value();
        if (ns.U64("catchups") + ns.U64("snapshots_installed") > 0) break;
      }
      if (NowNs() > deadline) {
        return Status::TimedOut("node " + std::to_string(n) +
                                " never finished its start-up catch-up");
      }
      SleepMs(2);
    }
  }
  return Status::OK();
}

// With at least four cores every process gets a core of its own: the
// leader, the serving follower (else the leader's zone peer, the rest of
// every Put's quorum), the two other followers together, and this load
// generator. Requests cross cores as in a deployment, and no process
// competes with another for its core. With fewer cores every thread may
// run on every core (undoing set-up's single core).
void PlaceProcesses(const std::vector<pid_t>& pids, NodeId serving) {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (cores < 4) {
    for (const pid_t pid : pids) {
      for (const ThreadCpu& t : ReadThreadCpu(pid)) {
        PinThread(t.tid, 0, static_cast<unsigned>(std::max(1L, cores)) - 1);
      }
    }
    return;
  }
  const NodeId second = serving != 0 ? serving : 1;
  for (NodeId n = 0; n < pids.size(); ++n) {
    const unsigned core = n == 0 ? 0 : n == second ? 1 : 2;
    for (const ThreadCpu& t : ReadThreadCpu(pids[n])) {
      PinThread(t.tid, core, core);
    }
  }
  PinThread(0, 3, 3);
}

// Fold one slice's result into the pooled result of its kind.
void Pool(PhaseResult* into, const PhaseResult& from) {
  into->attempted += from.attempted;
  into->ok += from.ok;
  into->failed += from.failed;
  into->puts_ok += from.puts_ok;
  into->gets_ok += from.gets_ok;
  into->conn_errors += from.conn_errors;
  into->put_ns.insert(into->put_ns.end(), from.put_ns.begin(),
                      from.put_ns.end());
  into->get_ns.insert(into->get_ns.end(), from.get_ns.begin(),
                      from.get_ns.end());
  into->late_ns.insert(into->late_ns.end(), from.late_ns.begin(),
                       from.late_ns.end());
  into->seconds += from.seconds;
  into->cpu_s += from.cpu_s;
}

struct TailResult {
  double catchup_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Durable tail, outside the measured phases: keep the open-loop load
// on the leader while the last follower is SIGKILLed and restarted, then
// wait until the restarted follower reaches the leader's watermark.
Status RunRecoveryTail(RealCluster& cluster, const RealnetSpec& spec,
                       const OpStream& ops, History* history,
                       TailResult* out) {
  const NodeId victim = cluster.num_nodes() - 1;
  History tail_history;
  Client tail(cluster.endpoint(0), 1, kTailClientIdBase, kTailFirstIndex,
              &ops, &tail_history, nullptr);
  Status st = tail.Connect();
  if (!st.ok()) return st;
  std::atomic<bool> stop{false};
  PhaseResult load;
  std::thread loader([&] {
    PhaseSpec p;
    p.name = "recovery-tail";
    p.rate = spec.open_rate;
    p.duration_ns = 60'000'000'000;
    p.stop = &stop;
    load = tail.Run(p);
  });
  SleepMs(200);
  Status killed = cluster.Kill(victim);
  SleepMs(300);
  const int64_t restart_at = NowNs();
  Status restarted = killed.ok() ? cluster.Restart(victim) : killed;
  SleepMs(300);
  stop.store(true);
  loader.join();
  history->Append(tail_history);
  out->attempted = load.attempted;
  out->failed = load.failed;
  if (!restarted.ok()) return restarted;

  dpaxos::Result<std::string> leader = cluster.Stats(0);
  if (!leader.ok()) return leader.status();
  NodeStats ls;
  ls.raw = leader.value();
  const uint64_t target = ls.U64("watermark");
  const int64_t deadline = NowNs() + 20'000'000'000;
  std::string last;
  while (NowNs() < deadline) {
    dpaxos::Result<std::string> s = cluster.Stats(victim);
    if (s.ok()) {
      NodeStats vs;
      vs.raw = s.value();
      last = vs.raw;
      if (vs.U64("watermark") >= target) {
        out->catchup_s = static_cast<double>(NowNs() - restart_at) / 1e9;
        return Status::OK();
      }
    }
    SleepMs(10);
  }
  return Status::TimedOut("restarted follower stuck below watermark " +
                          std::to_string(target) + ": " + last);
}

// Gate: every node applies the same prefix and ends with the same
// checksum.
void CheckConvergence(RealCluster& cluster, RunResult* res) {
  const int64_t deadline = NowNs() + 10'000'000'000;
  std::vector<NodeStats> all;
  while (NowNs() < deadline) {
    all.clear();
    bool same_watermark = true;
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      NodeStats ns;
      dpaxos::Result<std::string> s = cluster.Stats(n);
      ns.ok = s.ok();
      if (s.ok()) ns.raw = s.value();
      all.push_back(ns);
      same_watermark = same_watermark && ns.ok &&
                       ns.U64("watermark") == all[0].U64("watermark");
    }
    if (same_watermark) {
      for (const NodeStats& ns : all) {
        if (ns.Str("checksum") != all[0].Str("checksum")) {
          res->Fail("checksum mismatch at watermark " +
                    all[0].Str("watermark") + ": " + ns.Str("checksum") +
                    " vs " + all[0].Str("checksum"));
          return;
        }
      }
      res->notes.push_back("gate: " + std::to_string(all.size()) +
                           " nodes agree at watermark " +
                           all[0].Str("watermark") + " checksum " +
                           all[0].Str("checksum"));
      return;
    }
    SleepMs(20);
  }
  std::string marks;
  for (const NodeStats& ns : all) marks += " " + ns.Str("watermark");
  res->Fail("nodes did not converge; watermarks" + marks);
}

// Gate: a seeded sample of keys reads back the acknowledged Put with the
// highest commit slot (or a Put whose outcome the client never learned).
void CheckReadBack(RealCluster& cluster, NodeId node, const History& history,
                   uint64_t seed, RunResult* res) {
  std::unordered_map<uint32_t, History::PutAck> latest;
  for (const History::PutAck& p : history.puts) {
    auto it = latest.find(p.key);
    if (it == latest.end() || p.slot > it->second.slot) latest[p.key] = p;
  }
  const std::unordered_set<uint64_t> indeterminate(
      history.indeterminate.begin(), history.indeterminate.end());
  std::vector<uint32_t> keys;
  for (const auto& [key, ack] : latest) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::mt19937_64 rng(seed);
  std::shuffle(keys.begin(), keys.end(), rng);
  if (keys.size() > kReadbackKeys) keys.resize(kReadbackKeys);

  dpaxos::TcpClient reader(kReadbackClientId);
  Status st = reader.Connect(cluster.endpoint(node), 2 * dpaxos::kSecond);
  if (!st.ok()) {
    res->Fail("readback connect: " + st.ToString());
    return;
  }
  size_t bad = 0;
  std::string first_bad;
  for (const uint32_t key : keys) {
    const uint64_t expected = latest[key].index;
    dpaxos::Result<std::string> got =
        reader.Get(OpStream::KeyName(key), 5 * dpaxos::kSecond);
    uint64_t index = 0;
    const bool ok = got.ok() && OpStream::ParseValueIndex(got.value(), &index) &&
                    (index == expected || indeterminate.count(index) > 0);
    if (!ok && bad++ == 0) {
      first_bad = OpStream::KeyName(key) + " expected op " +
                  std::to_string(expected) + " read " +
                  (got.ok() ? got.value() : got.status().ToString());
    }
  }
  if (bad > 0) {
    res->Fail("readback: " + std::to_string(bad) + " of " +
              std::to_string(keys.size()) + " keys wrong, e.g. " + first_bad);
  } else {
    res->notes.push_back("gate: " + std::to_string(keys.size()) +
                         " sampled keys read back their last acknowledged "
                         "Put");
  }
}

// Gate: per key, a read never returns a write older than any write or
// read that completed before the read was sent (slot order is the
// witness: every acknowledged Put carries its commit slot).
void CheckReadsMonotonic(const History& history, RunResult* res) {
  if (history.reads.empty()) return;
  std::unordered_map<uint64_t, uint64_t> slot_of;  // op index -> slot + 1
  slot_of.reserve(history.puts.size());
  for (const History::PutAck& p : history.puts) slot_of[p.index] = p.slot + 1;
  const std::unordered_set<uint64_t> indeterminate(
      history.indeterminate.begin(), history.indeterminate.end());

  struct Event {
    uint32_t key;
    int64_t t;
    int kind;  // 0 = read sent, 1 = something completed
    uint64_t slot;
    size_t read;  // the read sent, or the read that completed
  };
  constexpr size_t kNone = ~size_t{0};
  std::vector<Event> events;
  std::vector<int64_t> resolved(history.reads.size(), -1);  // -1 unknown
  events.reserve(history.puts.size() + 2 * history.reads.size());
  for (const History::PutAck& p : history.puts) {
    events.push_back({p.key, p.ack_ns, 1, p.slot + 1, kNone});
  }
  size_t foreign = 0;
  for (size_t i = 0; i < history.reads.size(); ++i) {
    const History::Read& r = history.reads[i];
    if (r.value_index == -1) {
      resolved[i] = 0;
    } else if (r.value_index >= 0) {
      auto it = slot_of.find(static_cast<uint64_t>(r.value_index));
      if (it != slot_of.end()) {
        resolved[i] = static_cast<int64_t>(it->second);
      } else if (!indeterminate.count(static_cast<uint64_t>(r.value_index))) {
        ++foreign;
      }
    } else {
      ++foreign;
    }
    events.push_back({r.key, r.send_ns, 0, 0, i});
    if (resolved[i] >= 0) {
      events.push_back(
          {r.key, r.reply_ns, 1, static_cast<uint64_t>(resolved[i]), i});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.t != b.t) return a.t < b.t;
    return a.kind < b.kind;
  });
  std::vector<uint64_t> floor(history.reads.size(), 0);
  std::vector<size_t> floor_from(history.reads.size(), kNone);
  uint32_t key = ~0u;
  uint64_t seen = 0;
  size_t seen_from = kNone;
  for (const Event& e : events) {
    if (e.key != key) {
      key = e.key;
      seen = 0;
      seen_from = kNone;
    }
    if (e.kind == 0) {
      floor[e.read] = seen;
      floor_from[e.read] = seen_from;
    } else if (e.slot > seen) {
      seen = e.slot;
      seen_from = e.read;
    }
  }
  size_t backwards = 0;
  std::string example;
  for (size_t i = 0; i < history.reads.size(); ++i) {
    if (resolved[i] >= 0 && static_cast<uint64_t>(resolved[i]) < floor[i]) {
      if (backwards++ < 3) {
        const History::Read& r = history.reads[i];
        example += " [" + OpStream::KeyName(r.key) + " read slot " +
                   std::to_string(resolved[i] - 1) + " at watermark " +
                   std::to_string(r.watermark) + ", after " +
                   (floor_from[i] == kNone ? "a put" : "a read") +
                   " of slot " + std::to_string(floor[i] - 1) + "]";
      }
    }
  }
  if (foreign > 0) {
    res->Fail(std::to_string(foreign) +
              " reads returned a value no client wrote");
  }
  if (backwards > 0) {
    res->Fail(std::to_string(backwards) + " of " +
              std::to_string(history.reads.size()) +
              " reads went backwards after an acknowledged write;" + example);
  } else {
    res->notes.push_back("gate: " + std::to_string(history.reads.size()) +
                         " reads never went backwards per key");
  }
}

/// Everything one cluster's lifetime measured.
struct ClusterRun {
  std::vector<double> setups;
  std::vector<pid_t> pids;
  Snapshot s0;  ///< before the measured rounds
  Snapshot s2;  ///< after them
  PhaseResult open;    ///< open-loop slices pooled
  PhaseResult closed;  ///< closed-loop slices pooled
  /// Distinct commit slots of the Puts acknowledged in the measured
  /// rounds (Puts that share a slot count once).
  uint64_t put_slots = 0;
  std::vector<double> slice_p50_ms;
  std::vector<double> slice_rates;
  double leader_loop_closed_s = 0;    ///< leader main thread CPU, closed
  double serving_other_closed_s = 0;  ///< serving node's reactors, closed
  TailResult tail;
  double peak_rss_mb = 0;
};

// One cluster's lifetime: set-up (repeated), warm-up, the measured
// rounds, the tail on a durable cluster, the correctness gate and a
// graceful shutdown. Failures land in `res`; returns false if the run
// could not go on.
bool RunCluster(const Args& args, const RealnetSpec& spec, double seconds,
                Tracer* tracer, RunResult* res, ClusterRun* out) {
  const std::string log_dir = args.workdir + "/logs";
  const std::string wal_base =
      args.workdir + "/wal-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(log_dir, ec);
  std::filesystem::create_directories(log_dir, ec);
  const OpStream ops(args.seed, spec.get_fraction, kKeySpace);

  // Set-up, repeated; the last cluster is the one measured. Only it takes
  // load, so only it waits out the start-up catch-up.
  std::unique_ptr<RealCluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (cluster != nullptr) {
      Status down = cluster->ShutdownAll();
      if (!down.ok()) res->Fail("set-up shutdown: " + down.ToString());
      cluster.reset();
    }
    double setup_s = 0;
    const int64_t t0 = NowNs();
    Status st = NewCluster(args, spec, wal_base, log_dir, &cluster, &setup_s);
    if (st.ok() && i + 1 == kSetupRepeats) st = WaitStartupCatchUp(*cluster);
    tracer->Record("setup", 0, t0, NowNs());
    if (!st.ok()) {
      res->Fail("set-up: " + st.ToString());
      return false;
    }
    out->setups.push_back(setup_s);
  }
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    out->pids.push_back(cluster->pid(n));
  }
  const std::vector<pid_t>& pids = out->pids;
  const pid_t leader_pid = pids[0];
  const NodeId serving = spec.target;
  const pid_t serving_pid = pids[serving];
  const unsigned cores =
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  PlaceProcesses(pids, serving);

  History history;
  Client client(cluster->endpoint(serving), kConnections, kClientIdBase, 0,
                &ops, &history, tracer);
  Status st = client.Connect();
  if (!st.ok()) {
    res->Fail("connect: " + st.ToString());
    return false;
  }
  PhaseSpec warm;
  warm.name = "warmup";
  warm.depth = 8;
  warm.duration_ns = kWarmupNs;
  client.Run(warm);

  std::function<void(int64_t)> sampler;
  if (tracer->enabled()) {
    sampler = [tracer, leader_pid](int64_t) {
      const int64_t t0 = NowNs();
      ReadThreadCpu(leader_pid);
      tracer->Record("proc_sample", 0, t0, NowNs());
    };
  }
  // The measured phases alternate open-loop and closed-loop slices, so
  // both sample the whole run and a slow stretch of the host costs a few
  // slices' figures, not a phase's.
  const int64_t slice_ns =
      static_cast<int64_t>(seconds * 1e9 / (2 * kRounds));
  const size_t puts_before = history.puts.size();
  out->s0 = TakeSnapshot(*cluster, tracer);
  for (int round = 0; round < kRounds; ++round) {
    PhaseSpec open;
    open.name = "open-loop";
    open.rate = spec.open_rate;
    open.duration_ns = slice_ns;
    open.sample = sampler;
    open.sample_interval_ns = kSampleIntervalNs;
    const PhaseResult os = client.Run(open);
    std::vector<int64_t> latencies = os.put_ns;
    latencies.insert(latencies.end(), os.get_ns.begin(), os.get_ns.end());
    out->slice_p50_ms.push_back(QuantileMs(latencies, 0.5));
    Pool(&out->open, os);

    const std::vector<ThreadCpu> leader0 = ReadThreadCpu(leader_pid);
    const std::vector<ThreadCpu> serving0 = ReadThreadCpu(serving_pid);
    PhaseSpec closed;
    closed.name = "closed-loop";
    closed.depth = kClosedDepth;
    closed.duration_ns = slice_ns;
    closed.sample = sampler;
    closed.sample_interval_ns = kSampleIntervalNs;
    const PhaseResult cs = client.Run(closed);
    const std::vector<ThreadCpu> leader1 = ReadThreadCpu(leader_pid);
    const std::vector<ThreadCpu> serving1 = ReadThreadCpu(serving_pid);
    out->leader_loop_closed_s += std::max(
        0.0, MainThreadCpu(leader1, leader_pid) -
                 MainThreadCpu(leader0, leader_pid));
    out->serving_other_closed_s += std::max(
        0.0, OtherThreadsCpu(serving1, serving_pid) -
                 OtherThreadsCpu(serving0, serving_pid));
    out->slice_rates.push_back(static_cast<double>(cs.in_window) /
                               (static_cast<double>(slice_ns) / 1e9));
    Pool(&out->closed, cs);
    // Let the followers finish the closed slice's tail of work before
    // the next open slice is timed.
    SleepMs(kSettleMs);
  }
  out->s2 = TakeSnapshot(*cluster, tracer);
  std::unordered_set<uint64_t> put_slots;
  for (size_t i = puts_before; i < history.puts.size(); ++i) {
    put_slots.insert(history.puts[i].slot);
  }
  out->put_slots = put_slots.size();

  if (spec.durable) {
    st = RunRecoveryTail(*cluster, spec, ops, &history, &out->tail);
    if (!st.ok()) res->Fail("recovery tail: " + st.ToString());
  }

  // Correctness gate.
  CheckConvergence(*cluster, res);
  CheckReadBack(*cluster, serving, history, args.seed, res);
  CheckReadsMonotonic(history, res);
  if (history.mismatched > 0) {
    res->Fail(std::to_string(history.mismatched) +
              " answers did not match their request");
  }
  for (const char* must_be_zero :
       {"tcp_frames_dropped", "suspect_msgs", "catchup_repairs"}) {
    const uint64_t n = DeltaAll(out->s0, out->s2, must_be_zero);
    if (n != 0) {
      res->Fail(std::string(must_be_zero) + " rose by " + std::to_string(n) +
                " during the measured phases");
    }
  }
  out->peak_rss_mb = VmHwmMb(leader_pid);
  st = cluster->ShutdownAll();
  if (!st.ok()) res->Fail("shutdown: " + st.ToString());
  cluster.reset();
  std::filesystem::remove_all(wal_base, ec);
  PinThread(0, 0, cores - 1);
  return true;
}

// The WAL rows, from the leader's counters.
void SetWalMetrics(const ClusterRun& run, Metrics* l) {
  const uint64_t ops_ok = run.open.ok + run.closed.ok;
  const double per_op = ops_ok > 0 ? 1.0 / static_cast<double>(ops_ok) : 0;
  const uint64_t fsyncs = Delta(run.s0, run.s2, 0, "wal_fsyncs");
  const uint64_t appends = Delta(run.s0, run.s2, 0, "wal_appends");
  l->Set("storage.wal.fsyncs_per_op", static_cast<double>(fsyncs) * per_op,
         "1/op");
  l->Set("storage.wal.appends_per_op", static_cast<double>(appends) * per_op,
         "1/op");
  l->Set("storage.wal.bytes_per_op",
         static_cast<double>(Delta(run.s0, run.s2, 0, "wal_bytes")) * per_op,
         "B/op");
  l->Set("storage.wal.records_per_sync",
         fsyncs > 0 ? static_cast<double>(appends) / static_cast<double>(fsyncs)
                    : 0,
         "ratio");
}

}  // namespace

RunResult RunRealnet(const Args& args, const RealnetSpec& spec) {
  RunResult res;
  Tracer tracer(args.trace);
  const OpStream ops(args.seed, spec.get_fraction, kKeySpace);
  res.notes.push_back("workload_hash=" + HexU64(ops.Fingerprint(kHashedOps)) +
                      " (first " + std::to_string(kHashedOps) +
                      " ops of seed " + std::to_string(args.seed) + ")");
  ClusterRun run;
  if (!RunCluster(args, spec, args.seconds, &tracer, &res, &run)) return res;
  const Snapshot& s0 = run.s0;
  const Snapshot& s2 = run.s2;
  const PhaseResult& o = run.open;
  const PhaseResult& c = run.closed;
  const std::vector<pid_t>& pids = run.pids;
  const NodeId serving = spec.target;
  res.attempted = o.attempted + c.attempted;
  res.failed = o.failed + c.failed;

  const HostShape host = ProbeHost(args.workdir);
  res.notes.push_back(
      "host nproc=" + std::to_string(host.nproc) +
      " effective_parallelism=" + std::to_string(host.effective_parallelism) +
      " kernel=" + host.kernel + " wal_fs=" + host.fs_type);

  // --- metrics ------------------------------------------------------------
  const uint64_t ops_ok = o.ok + c.ok;
  const uint64_t gets_ok = o.gets_ok + c.gets_ok;
  const double per_op = ops_ok > 0 ? 1.0 / static_cast<double>(ops_ok) : 0;
  const double latency_p50 = Median(run.slice_p50_ms);
  const double capacity = Median(run.slice_rates);
  const double late_p99 = QuantileMs(o.late_ns, 0.99);
  const bool behind = QuantileMs(o.late_ns, 0.5) > kBehindScheduleMs;
  res.notes.push_back(
      "latency put_p50_ms=" + std::to_string(QuantileMs(o.put_ns, 0.5)) +
      " put_p99_ms=" + std::to_string(QuantileMs(o.put_ns, 0.99)) +
      " put_samples=" + std::to_string(o.put_ns.size()) +
      " get_p50_ms=" + std::to_string(QuantileMs(o.get_ns, 0.5)) +
      " get_p99_ms=" + std::to_string(QuantileMs(o.get_ns, 0.99)) +
      " get_samples=" + std::to_string(o.get_ns.size()) +
      " late_p99_ms=" + std::to_string(late_p99) +
      " capacity_ops_s=" + std::to_string(capacity));
  std::string slices = "setups_s";
  for (const double v : run.setups) slices += " " + std::to_string(v);
  res.notes.push_back(slices);
  slices = "slices latency_p50_ms";
  for (const double v : run.slice_p50_ms) slices += " " + std::to_string(v);
  slices += " capacity_ops_s";
  for (const double v : run.slice_rates) slices += " " + std::to_string(v);
  res.notes.push_back(slices);
  if (behind) {
    res.notes.push_back("warning: the generator fell behind its schedule "
                        "(median lateness above " +
                        std::to_string(kBehindScheduleMs) + " ms)");
  }

  Metrics& e2e = res.end_to_end;
  // The 10th percentile: slow stretches of a shared host move the median
  // and the best third of the set-ups, the fast tail much less.
  e2e.Set("setup_s", Quantile(run.setups, 0.1), "s");
  e2e.Set("capacity_ops_s", capacity, "ops/s");
  e2e.Set("peak_rss_mb", run.peak_rss_mb, "MB");

  Metrics& l = res.per_layer;
  const uint64_t slots = Delta(s0, s2, 0, "watermark");
  l.Set("paxos.slots_per_op", static_cast<double>(slots) * per_op, "1/op");
  // The slots no acknowledged Put landed in are the Gets' read barriers.
  if (spec.get_fraction > 0) {
    l.Set("paxos.barriers_per_get",
          gets_ok > 0 && slots > run.put_slots
              ? static_cast<double>(slots - run.put_slots) /
                    static_cast<double>(gets_ok)
              : 0,
          "1/op");
  } else {
    for (const char* name :
         {"paxos.barriers_per_get", "client.get_p50_ms", "client.get_p99_ms",
          "client.get_samples"}) {
      l.NotApplicable(name);
    }
  }
  l.Set("paxos.loop_cpu_us_per_op",
        MainCpuDelta(s0, s2, 0, pids[0]) * 1e6 * per_op, "us");
  l.Set("paxos.loop_busy_frac",
        c.seconds > 0 ? run.leader_loop_closed_s / c.seconds : 0, "ratio");
  double follower_cpu = 0;
  for (NodeId n = 1; n < pids.size(); ++n) {
    follower_cpu += MainCpuDelta(s0, s2, n, pids[n]);
  }
  l.Set("paxos.follower_loop_cpu_us_per_op",
        follower_cpu / static_cast<double>(pids.size() - 1) * 1e6 * per_op,
        "us");
  l.Set("paxos.suspect_msgs",
        static_cast<double>(DeltaAll(s0, s2, "suspect_msgs")), "count");
  l.Set("paxos.catchup_repairs",
        static_cast<double>(DeltaAll(s0, s2, "catchup_repairs")), "count");
  // Every thread of every server: what the serving path costs in CPU,
  // however its work is spread over cores.
  double server_cpu = 0;
  for (NodeId n = 0; n < pids.size(); ++n) {
    server_cpu += MainCpuDelta(s0, s2, n, pids[n]) +
                  OtherCpuDelta(s0, s2, n, pids[n]);
  }
  l.Set("server.cpu_us_per_op", server_cpu * 1e6 * per_op, "us");

  // Never tcp_bytes_in: with reactors on it is always 0.
  const uint64_t writev = Delta(s0, s2, serving, "tcp_writev_calls");
  const uint64_t coalesced = Delta(s0, s2, serving, "tcp_frames_coalesced");
  l.Set("net.tcp.writev_per_op", static_cast<double>(writev) * per_op, "1/op");
  l.Set("net.tcp.frames_per_writev",
        writev > 0 ? static_cast<double>(writev + coalesced) /
                         static_cast<double>(writev)
                   : 0,
        "ratio");
  l.Set("net.tcp.bytes_out_per_op",
        static_cast<double>(Delta(s0, s2, serving, "tcp_bytes_out")) * per_op,
        "B/op");
  l.Set("net.tcp.reactor_busy_frac",
        c.seconds > 0 ? run.serving_other_closed_s / (c.seconds * kReactors)
                      : 0,
        "ratio");
  l.Set("net.tcp.reactor_cpu_us_per_op",
        OtherCpuDelta(s0, s2, serving, pids[serving]) * 1e6 * per_op, "us");
  l.Set("net.tcp.frames_dropped",
        static_cast<double>(DeltaAll(s0, s2, "tcp_frames_dropped")), "count");

  uint64_t slowest = s2.stats[0].U64("watermark");
  for (NodeId n = 1; n < s2.stats.size(); ++n) {
    slowest = std::min(slowest, s2.stats[n].U64("watermark"));
  }
  l.Set("smr.apply_lag_slots",
        static_cast<double>(s2.stats[0].U64("watermark") - slowest), "count");

  l.Set("client.latency_p50_ms", latency_p50, "ms");
  l.Set("client.put_p50_ms", QuantileMs(o.put_ns, 0.5), "ms");
  l.Set("client.put_p99_ms", QuantileMs(o.put_ns, 0.99), "ms");
  l.Set("client.put_samples", static_cast<double>(o.put_ns.size()), "count");
  if (spec.get_fraction > 0) {
    l.Set("client.get_p50_ms", QuantileMs(o.get_ns, 0.5), "ms");
    l.Set("client.get_p99_ms", QuantileMs(o.get_ns, 0.99), "ms");
    l.Set("client.get_samples", static_cast<double>(o.get_ns.size()),
          "count");
  }
  l.Set("client.late_p99_ms", late_p99, "ms");
  l.Set("client.behind_schedule", behind ? 1 : 0, "count");
  l.Set("client.cpu_us_per_op", (o.cpu_s + c.cpu_s) * 1e6 * per_op, "us");
  l.Set("client.conn_errors", static_cast<double>(o.conn_errors + c.conn_errors),
        "count");
  l.Set("failed_frac",
        res.attempted > 0 ? static_cast<double>(res.failed) /
                                static_cast<double>(res.attempted)
                          : 0,
        "ratio");
  l.Set("host.nproc", host.nproc, "count");
  l.Set("host.effective_parallelism", host.effective_parallelism, "x");
  for (const char* name :
       {"sim.events_per_s_1t", "sim.shard_wall_ms_p50", "sim.shard_wall_ms_max",
        "sim.cpu_per_wall", "sim.slab_growths"}) {
    l.NotApplicable(name);
  }

  if (tracer.enabled()) {
    MicroInputs micro;
    micro.key_space = kKeySpace;
    micro.seed = args.seed;
    if (spec.durable_probe) {
      // The WAL layer: a short run of the same Puts on a durable cluster
      // (fsync cost, group commit, the crash/restart tail), kept out of
      // the end-to-end figures because the host's shared disk stalls.
      res.notes.push_back("durable probe follows");
      ClusterRun durable;
      if (!RunCluster(args, kDurableProbe, kDurableProbeSeconds, &tracer,
                      &res, &durable)) {
        return res;
      }
      SetWalMetrics(durable, &l);
      l.Set("recovery.catchup_s", durable.tail.catchup_s, "s");
      l.Set("recovery.failed_ops", static_cast<double>(durable.tail.failed),
            "count");
      micro.wal_dir = args.workdir + "/walmicro";
    } else {
      SetWalMetrics(run, &l);
      l.NotApplicable("recovery.catchup_s");
      l.NotApplicable("recovery.failed_ops");
    }
    RunMicro(micro, &tracer, &l);
    l.Set("trace.capacity_ops_s", capacity, "ops/s");
    l.Set("trace.latency_p50_ms", latency_p50, "ms");
    l.Set("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::string path =
        args.workdir + "/trace-" + spec.name + ".csv";
    if (!tracer.WriteCsv(path)) res.Fail("cannot write " + path);
  }
  return res;
}

}  // namespace perfbench
