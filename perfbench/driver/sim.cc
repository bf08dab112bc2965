// sim-sharded: the shard-parallel simulator (RunSimperfSharded, 8 shards
// over 32 partitions, fixed seed) run back to back at 1 thread and at
// min(4, nproc) threads for the measured time.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/simperf.h"
#include "micro.h"
#include "net/topology.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// The simulated workload is fixed; its determinism fingerprint is
/// compared across thread counts.
constexpr uint64_t kSimSeed = 42;
constexpr int kSimSetupRepeats = 31;

// Construct the clusters of every shard as RunSimperfSharded lays them
// out (AWS seven-zone topology, Leader Zone, fd=1, the shard's slice of
// the partitions), without running them.
double TimeClusterConstruction(const dpaxos::SimperfOptions& options) {
  const uint32_t per_shard = options.partitions / options.shards;
  std::vector<std::unique_ptr<dpaxos::Cluster>> clusters;
  const int64_t t0 = NowNs();
  for (uint32_t s = 0; s < options.shards; ++s) {
    dpaxos::ClusterOptions co;
    co.ft = dpaxos::FaultTolerance{1, 0};
    co.seed = options.seed + s;
    co.partitions.clear();
    for (uint32_t p = 0; p < per_shard; ++p) {
      co.partitions.push_back(s * per_shard + p);
    }
    clusters.push_back(std::make_unique<dpaxos::Cluster>(
        dpaxos::Topology::AwsSevenZones(), dpaxos::ProtocolMode::kLeaderZone,
        co));
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

}  // namespace

RunResult RunSimSharded(const Args& args) {
  RunResult res;
  Tracer tracer(args.trace);
  dpaxos::SimperfOptions base;
  base.seed = kSimSeed;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const uint32_t threads =
      std::max<uint32_t>(1, std::min<uint32_t>(4, online > 0 ? online : 1));

  std::vector<double> setups;
  for (int i = 0; i < kSimSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    setups.push_back(TimeClusterConstruction(base));
    tracer.Record("setup", 0, t0, NowNs());
  }

  std::string golden;
  uint64_t fingerprint = 0;
  std::vector<double> eps_one, eps_n, wall_n, shard_walls, max_walls,
      cpu_per_wall;
  uint64_t slab_growths = 0;
  uint64_t runs = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    for (const uint32_t t : {1u, threads}) {
      // One more set-up sample before every run, so the set-up figure
      // spans the whole run as the other figures do.
      setups.push_back(TimeClusterConstruction(base));
      dpaxos::SimperfOptions o = base;
      o.threads = t;
      const double cpu0 = ProcessCpuSeconds();
      const int64_t t0 = NowNs();
      const dpaxos::ShardedSimperfReport rep = dpaxos::RunSimperfSharded(o);
      const double cpu = ProcessCpuSeconds() - cpu0;
      tracer.Record(t == 1 ? "sim.run_1t" : "sim.run_nt", 0, t0, NowNs(), t);
      ++runs;
      const std::string det = rep.DeterminismString();
      if (golden.empty()) {
        golden = det;
        fingerprint = rep.Fingerprint();
      } else if (det != golden) {
        res.Fail("determinism fingerprint differs at " + std::to_string(t) +
                 " threads");
      }
      if (t == 1) {
        eps_one.push_back(rep.EventsPerSec());
      }
      if (t == threads) {
        eps_n.push_back(rep.EventsPerSec());
        wall_n.push_back(rep.wall_ms);
        double worst = 0;
        for (const dpaxos::SimperfShard& s : rep.per_shard) {
          shard_walls.push_back(s.wall_ms);
          worst = std::max(worst, s.wall_ms);
        }
        max_walls.push_back(worst);
        cpu_per_wall.push_back(
            rep.wall_ms > 0 ? cpu / (rep.wall_ms / 1e3 * t) : 0);
        slab_growths = rep.counters.slab_growths;
      }
    }
  } while (NowNs() < end);
  res.attempted = runs;
  res.failed = 0;
  res.notes.push_back("workload_hash=" + HexU64(fingerprint) +
                      " (determinism fingerprint, seed " +
                      std::to_string(kSimSeed) + ")");
  if (res.correct()) {
    res.notes.push_back("gate: " + std::to_string(runs) +
                        " runs at 1 and " + std::to_string(threads) +
                        " threads share one determinism fingerprint");
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const HostShape host = ProbeHost(args.workdir);
  res.notes.push_back(
      "host nproc=" + std::to_string(host.nproc) +
      " effective_parallelism=" + std::to_string(host.effective_parallelism) +
      " kernel=" + host.kernel + " wal_fs=" + host.fs_type +
      " sim_threads=" + std::to_string(threads));
  std::string samples = "setups_s";
  for (const double v : setups) samples += " " + std::to_string(v);
  res.notes.push_back(samples);

  Metrics& e2e = res.end_to_end;
  e2e.Set("setup_s", Quantile(setups, 0.1), "s");
  e2e.Set("capacity_ops_s", BestThirdMean(eps_n, false), "ops/s");
  e2e.Set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");

  Metrics& l = res.per_layer;
  l.Set("sim.events_per_s_1t", Median(eps_one), "1/s");
  l.Set("sim.shard_wall_ms_p50", Quantile(shard_walls, 0.5), "ms");
  l.Set("sim.shard_wall_ms_max", Median(max_walls), "ms");
  l.Set("sim.cpu_per_wall", Median(cpu_per_wall), "ratio");
  l.Set("sim.slab_growths", static_cast<double>(slab_growths), "count");
  l.Set("host.nproc", host.nproc, "count");
  l.Set("host.effective_parallelism", host.effective_parallelism, "x");
  // The simulator has no server processes, client or disk.
  for (const char* name :
       {"paxos.slots_per_op", "paxos.barriers_per_get",
        "paxos.loop_cpu_us_per_op", "paxos.loop_busy_frac",
        "paxos.follower_loop_cpu_us_per_op", "paxos.suspect_msgs",
        "paxos.catchup_repairs", "server.cpu_us_per_op",
        "storage.wal.fsyncs_per_op", "storage.wal.appends_per_op",
        "storage.wal.bytes_per_op", "storage.wal.records_per_sync",
        "net.tcp.writev_per_op", "net.tcp.frames_per_writev",
        "net.tcp.bytes_out_per_op", "net.tcp.reactor_busy_frac",
        "net.tcp.reactor_cpu_us_per_op", "net.tcp.frames_dropped",
        "smr.apply_lag_slots", "client.latency_p50_ms",
        "client.put_p50_ms", "client.put_p99_ms",
        "client.put_samples", "client.get_p50_ms", "client.get_p99_ms",
        "client.get_samples", "client.late_p99_ms", "client.behind_schedule",
        "client.cpu_us_per_op", "client.conn_errors", "failed_frac",
        "recovery.catchup_s", "recovery.failed_ops"}) {
    l.NotApplicable(name);
  }
  if (tracer.enabled()) {
    MicroInputs micro;
    micro.key_space = kKeySpace;
    micro.seed = args.seed;
    RunMicro(micro, &tracer, &l);
    l.Set("trace.capacity_ops_s", BestThirdMean(eps_n, false), "ops/s");
    l.Set("trace.latency_p50_ms", BestThirdMean(wall_n, true), "ms");
    l.Set("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::string path = args.workdir + "/trace-sim-sharded.csv";
    if (!tracer.WriteCsv(path)) res.Fail("cannot write " + path);
  }
  return res;
}

}  // namespace perfbench
