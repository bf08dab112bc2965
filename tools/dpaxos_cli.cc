// dpaxos_cli: run ad-hoc DPaxos experiments from the command line.
//
// Examples:
//   dpaxos_cli --experiment=load --mode=leaderzone --batch=50K \
//              --duration=30 --window=4 --zone=2
//   dpaxos_cli --experiment=election --mode=delegate --aws=false \
//              --zones=9 --nodes=5 --rtt=120
//   dpaxos_cli --experiment=load --mode=multipaxos --reads=0.5 --leases
//
// Prints a latency/throughput summary plus transport statistics. All
// runs are deterministic for a given --seed.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <vector>

#include "harness/chaos.h"
#include "harness/cluster.h"
#include "harness/load_driver.h"
#include "harness/nemesis.h"
#include "harness/node_server.h"
#include "harness/real_chaos.h"
#include "harness/real_cluster.h"
#include "harness/real_nemesis.h"
#include "harness/realnet_bench.h"
#include "harness/simperf.h"
#include "harness/table.h"
#include "net/tcp/tcp_client.h"

#ifndef DPAXOS_VERSION
#define DPAXOS_VERSION "unknown"
#endif

using namespace dpaxos;

namespace {

struct CliOptions {
  std::string experiment = "load";
  std::string mode = "leaderzone";
  bool aws = true;
  uint32_t zones = 7;
  uint32_t nodes = 3;
  double rtt_ms = 100.0;
  uint32_t fd = 1;
  uint32_t fz = 0;
  ZoneId zone = 0;
  uint64_t batch_bytes = 1024;
  Duration duration = 10 * kSecond;
  uint32_t window = 1;
  double reads = 0.0;
  bool leases = false;
  /// Fast-path commits (docs/PROTOCOL.md §fast-path): applies to load/
  /// election/chaos clusters, --serve replicas and realchaos servers.
  bool fast_path = false;
  uint64_t seed = 42;
  std::string topology_csv;  // path to an RTT matrix, overrides --aws

  // --experiment=chaos only.
  std::string schedule = "mixed";
  uint32_t clients = 4;
  uint32_t keys = 16;
  bool compaction = false;
  uint64_t retained = 64;

  // --experiment=simperf only.
  bool smoke = false;
  std::string out = "BENCH_simperf.json";
  bool out_set = false;  // --out given explicitly (realnet default differs)
  /// 0 = legacy single-shard workload; >0 runs the shard-parallel
  /// workload instead (see src/sim/shard_runner.h).
  uint32_t shards = 0;
  uint32_t threads = 1;
  uint32_t partitions = 32;
  uint32_t sim_window = 8;  // clients per partition (sharded workload)

  // --serve (real-network node server; docs/realnet.md).
  bool serve = false;
  NodeId node = 0;
  std::string cluster_spec;  // host:port,host:port,...
  std::string data_dir;      // acceptor WAL directory ("" = in-memory)
  bool disk_faults = false;  // FaultInjectingEnv + FAULTS control file
  Duration wal_commit_delay = 0;
  NodeId hint = 0;
  Duration catchup_delay = 300 * kMillisecond;
  Duration compaction_interval = 0;  // 0 = compaction off
  uint64_t compaction_retain = 64;

  // --client (blocking TCP client against a --serve node).
  bool client = false;
  std::string connect_spec;  // host:port
  uint64_t client_id = 0;    // 0 = derive from pid
  /// Ops in argv order: {"put", "K=V"}, {"get", "K"}, {"stats", ""},
  /// {"bench", "N"}.
  std::vector<std::pair<std::string, std::string>> client_ops;

  // --experiment=realnet only.
  uint64_t requests = 10000;
  uint32_t connections = 4;  // open-loop driver shape
  uint32_t pipeline = 256;
  double rate = 0;  // offered ops/s, 0 = closed loop
  std::string log_dir;

  // --experiment=realchaos only.
  uint32_t soak_connections = 0;

  // Partition ownership (docs/PROTOCOL.md §ownership): --serve nodes
  // learn/steal ownership, realchaos clusters run with it on, realnet
  // adds the mobility cells.
  bool ownership = false;
  Duration placement_sweep = 1 * kSecond;
  Duration steal_cooldown = 10 * kSecond;
  bool mobility = false;
};

void Usage() {
  std::cout <<
      "usage: dpaxos_cli [--experiment=load|election|chaos|simperf|realnet|\n"
      "                    realchaos]\n"
      "       dpaxos_cli --serve --node=N --cluster=HOST:PORT,...\n"
      "       dpaxos_cli --client --connect=HOST:PORT [ops...]\n"
      "  --mode=leaderzone|delegate|fpaxos|multipaxos|leaderless\n"
      "  --aws=true|false       paper topology (default) or uniform\n"
      "  --topology=FILE.csv    load a zone RTT matrix (overrides --aws)\n"
      "  --zones=N --nodes=N --rtt=MS   uniform topology shape\n"
      "  --fd=N --fz=N          fault tolerance (default 1, 0)\n"
      "  --zone=Z               proposer zone (default 0)\n"
      "  --batch=BYTES[K|M]     batch size (default 1024)\n"
      "  --duration=SECONDS     virtual run time (default 10)\n"
      "  --window=N             multi-programming level (default 1)\n"
      "  --reads=F              read-only fraction 0..1 (implies --leases)\n"
      "  --leases               enable master leases\n"
      "  --fast-path            fast commits for uncontended writes\n"
      "                         (load/chaos clusters, --serve, realchaos)\n"
      "  --seed=N               RNG seed (default 42)\n"
      "chaos experiment (nemesis + retrying clients + checker):\n"
      "  --schedule=NAME        mixed|storm|partitions|lossy|moves|\n"
      "                         recovery|disk|none\n"
      "  --clients=N            client sessions (default 4)\n"
      "  --keys=N               key-pool size (default 16)\n"
      "  --compaction           enable log compaction + snapshot recovery\n"
      "  --retained=N           compaction retained suffix (default 64)\n"
      "simperf experiment (wall-clock kernel throughput):\n"
      "  --smoke                short phases (per-build smoke run)\n"
      "  --out=PATH             JSON output (default BENCH_simperf.json)\n"
      "  --shards=K             run the shard-parallel workload on K\n"
      "                         independent cluster shards (0 = legacy)\n"
      "  --threads=T            worker threads for the shard pool\n"
      "                         (0 = hardware; results identical for any T)\n"
      "  --partitions=P         total partitions across shards "
      "(default 32)\n"
      "realnet experiment (multi-process cluster over loopback TCP):\n"
      "  --requests=N           measured ops per mode (default 10000)\n"
      "  --connections=N        open-loop driver connections (default 4)\n"
      "  --pipeline=N           in-flight ops per connection (default 256)\n"
      "  --rate=OPS             offered ops/s; 0 = closed loop (default)\n"
      "  --mobility             add the mobility cells: a client\n"
      "                         population that moves zones mid-run,\n"
      "                         static-leader vs --ownership adaptive\n"
      "  --logdir=DIR           per-node server logs (default: inherit)\n"
      "  --out=PATH             JSON output (default BENCH_realnet.json)\n"
      "realchaos experiment (proxied cluster + nemesis + checkers):\n"
      "  --schedule=NAME        mixed|partitions|process|lossy|disk|\n"
      "                         mobility|none\n"
      "  --clients=N --keys=N --reads=F --duration=SECONDS\n"
      "  --data-dir=BASE        durable cluster: node N keeps its WAL in\n"
      "                         BASE/nodeN (required for --schedule=disk)\n"
      "  --soak-connections=N   open-loop soak alongside the checked\n"
      "                         workload (default 0 = off)\n"
      "  --logdir=DIR           per-node server logs (default: inherit)\n"
      "  --out=PATH             BENCH json to merge the chaos section\n"
      "                         into (default BENCH_realnet.json)\n"
      "real-network server (see docs/realnet.md):\n"
      "  --serve --node=N --cluster=HOST:PORT,...   run one node\n"
      "  --reactors=N           ignored: a node serves every socket on\n"
      "                         one thread (kept for existing scripts)\n"
      "  --zones=Z              zone count (nodes split evenly)\n"
      "  --hint=N               leader hint for forwarded writes\n"
      "  --catchup-delay-ms=MS  snapshot catch-up delay after start\n"
      "  --compaction-interval-ms=MS   periodic compaction (0 = off)\n"
      "  --compaction-retain=N  decided suffix kept behind compaction\n"
      "  --data-dir=DIR         acceptor WAL directory: replies wait for\n"
      "                         fdatasync, restarts recover from disk\n"
      "  --wal-commit-us=US     WAL group-commit window (default 0)\n"
      "  --disk-faults          inject disk faults armed via DIR/FAULTS\n"
      "  --ownership            partition ownership: learn the owner from\n"
      "                         decided transfer records, redirect\n"
      "                         misdirected clients, steal the partition\n"
      "                         toward observed traffic\n"
      "  --placement-sweep-ms=MS   placement sweep period (default 1000)\n"
      "  --steal-cooldown-ms=MS    post-transfer cooldown (default 10000)\n"
      "real-network client:\n"
      "  --client --connect=HOST:PORT [--id=N]\n"
      "  --put=K=V --get=K --stats --bench=N   ops, run in argv order\n"
      "  --version              print build version\n";
}

bool ParseArgImpl(const std::string& arg, CliOptions* o) {
  auto value_of = [&](const char* name, std::string* out) {
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0) return false;
    *out = arg.substr(prefix.size());
    return true;
  };
  std::string v;
  if (value_of("--experiment", &v)) {
    o->experiment = v;
  } else if (value_of("--mode", &v)) {
    o->mode = v;
  } else if (value_of("--aws", &v)) {
    o->aws = v != "false" && v != "0";
  } else if (value_of("--topology", &v)) {
    o->topology_csv = v;
  } else if (value_of("--zones", &v)) {
    o->zones = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--nodes", &v)) {
    o->nodes = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--rtt", &v)) {
    o->rtt_ms = std::stod(v);
  } else if (value_of("--fd", &v)) {
    o->fd = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--fz", &v)) {
    o->fz = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--zone", &v)) {
    o->zone = static_cast<ZoneId>(std::stoul(v));
  } else if (value_of("--batch", &v)) {
    uint64_t mult = 1;
    if (!v.empty() && (v.back() == 'K' || v.back() == 'k')) {
      mult = 1024;
      v.pop_back();
    } else if (!v.empty() && (v.back() == 'M' || v.back() == 'm')) {
      mult = 1024 * 1024;
      v.pop_back();
    }
    o->batch_bytes = std::stoull(v) * mult;
  } else if (value_of("--duration", &v)) {
    o->duration = static_cast<Duration>(std::stod(v) * kSecond);
  } else if (value_of("--window", &v)) {
    o->window = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--reads", &v)) {
    o->reads = std::stod(v);
    if (o->reads > 0) o->leases = true;
  } else if (arg == "--leases") {
    o->leases = true;
  } else if (arg == "--fast-path") {
    o->fast_path = true;
  } else if (value_of("--seed", &v)) {
    o->seed = std::stoull(v);
  } else if (value_of("--schedule", &v)) {
    o->schedule = v;
  } else if (value_of("--clients", &v)) {
    o->clients = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--keys", &v)) {
    o->keys = static_cast<uint32_t>(std::stoul(v));
  } else if (arg == "--compaction") {
    o->compaction = true;
  } else if (value_of("--retained", &v)) {
    o->retained = std::stoull(v);
  } else if (arg == "--smoke") {
    o->smoke = true;
  } else if (value_of("--out", &v)) {
    o->out = v;
    o->out_set = true;
  } else if (arg == "--serve") {
    o->serve = true;
  } else if (value_of("--node", &v)) {
    o->node = static_cast<NodeId>(std::stoul(v));
  } else if (value_of("--cluster", &v)) {
    o->cluster_spec = v;
  } else if (value_of("--data-dir", &v)) {
    o->data_dir = v;
  } else if (value_of("--wal-commit-us", &v)) {
    o->wal_commit_delay = std::stoull(v) * kMicrosecond;
  } else if (arg == "--disk-faults") {
    o->disk_faults = true;
  } else if (value_of("--hint", &v)) {
    o->hint = static_cast<NodeId>(std::stoul(v));
  } else if (value_of("--catchup-delay-ms", &v)) {
    o->catchup_delay = std::stoull(v) * kMillisecond;
  } else if (value_of("--compaction-interval-ms", &v)) {
    o->compaction_interval = std::stoull(v) * kMillisecond;
  } else if (value_of("--compaction-retain", &v)) {
    o->compaction_retain = std::stoull(v);
  } else if (arg == "--client") {
    o->client = true;
  } else if (value_of("--connect", &v)) {
    o->connect_spec = v;
  } else if (value_of("--id", &v)) {
    o->client_id = std::stoull(v);
  } else if (value_of("--put", &v)) {
    o->client_ops.emplace_back("put", v);
  } else if (value_of("--get", &v)) {
    o->client_ops.emplace_back("get", v);
  } else if (arg == "--stats") {
    o->client_ops.emplace_back("stats", "");
  } else if (value_of("--bench", &v)) {
    o->client_ops.emplace_back("bench", v);
  } else if (value_of("--requests", &v)) {
    o->requests = std::stoull(v);
  } else if (value_of("--connections", &v)) {
    o->connections = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--pipeline", &v)) {
    o->pipeline = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--rate", &v)) {
    o->rate = std::stod(v);
  } else if (value_of("--reactors", &v)) {
    // Accepted and ignored (see Usage).
  } else if (value_of("--soak-connections", &v)) {
    o->soak_connections = static_cast<uint32_t>(std::stoul(v));
  } else if (arg == "--ownership") {
    o->ownership = true;
  } else if (value_of("--placement-sweep-ms", &v)) {
    o->placement_sweep = std::stoull(v) * kMillisecond;
  } else if (value_of("--steal-cooldown-ms", &v)) {
    o->steal_cooldown = std::stoull(v) * kMillisecond;
  } else if (arg == "--mobility") {
    o->mobility = true;
  } else if (value_of("--logdir", &v)) {
    o->log_dir = v;
  } else if (arg == "--version") {
    std::cout << "dpaxos_cli " << DPAXOS_VERSION << "\n";
    std::exit(0);
  } else if (value_of("--shards", &v)) {
    o->shards = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--threads", &v)) {
    o->threads = static_cast<uint32_t>(std::stoul(v));
  } else if (value_of("--partitions", &v)) {
    o->partitions = static_cast<uint32_t>(std::stoul(v));
  } else if (arg == "--help" || arg == "-h") {
    Usage();
    std::exit(0);
  } else {
    return false;
  }
  return true;
}

// std::sto* throw on malformed numbers; surface that as a usage error
// instead of terminating.
bool ParseArg(const std::string& arg, CliOptions* o) {
  try {
    return ParseArgImpl(arg, o);
  } catch (const std::exception&) {
    return false;
  }
}

Result<ProtocolMode> ParseMode(const std::string& mode) {
  if (mode == "leaderzone") return ProtocolMode::kLeaderZone;
  if (mode == "delegate") return ProtocolMode::kDelegate;
  if (mode == "fpaxos") return ProtocolMode::kFlexiblePaxos;
  if (mode == "multipaxos") return ProtocolMode::kMultiPaxos;
  if (mode == "leaderless") return ProtocolMode::kLeaderless;
  return Status::InvalidArgument("unknown --mode " + mode);
}

int RunLoad(Cluster& cluster, const CliOptions& o) {
  Replica* proposer = cluster.ReplicaInZone(o.zone);
  if (cluster.mode() != ProtocolMode::kLeaderless) {
    Result<Duration> elect = cluster.ElectLeader(proposer->id());
    if (!elect.ok()) {
      std::cerr << "election failed: " << elect.status().ToString() << "\n";
      return 1;
    }
    std::cout << "leader: node " << proposer->id() << " in "
              << cluster.topology().ZoneName(o.zone) << ", elected in "
              << DurationToString(elect.value()) << "\n";
    if (o.leases) {
      // Warm-up commit to acquire the lease.
      (void)cluster.Commit(proposer->id(), Value::Synthetic(1, 128));
    }
  }

  LoadOptions load;
  load.batch_bytes = o.batch_bytes;
  load.duration = o.duration;
  load.window = o.window;
  load.read_only_fraction = o.reads;
  const LoadResult result = RunClosedLoop(cluster, proposer, load);

  TablePrinter table({"metric", "value"});
  table.AddRow({"committed batches", std::to_string(result.committed)});
  table.AddRow({"failed", std::to_string(result.failed)});
  table.AddRow({"throughput", Fmt(result.ThroughputKBps(), 1) + " KB/s"});
  table.AddRow({"commit latency mean",
                Fmt(result.commit_latency.MeanMillis(), 2) + " ms"});
  table.AddRow({"commit latency p50",
                Fmt(result.commit_latency.P50Millis(), 2) + " ms"});
  table.AddRow({"commit latency p99",
                Fmt(result.commit_latency.P99Millis(), 2) + " ms"});
  if (result.reads_served > 0) {
    table.AddRow({"lease-local reads", std::to_string(result.reads_served)});
    table.AddRow({"read latency mean",
                  Fmt(result.read_latency.MeanMillis(), 2) + " ms"});
  }
  table.AddRow({"cluster bytes sent",
                Fmt(static_cast<double>(cluster.transport().TotalBytesSent()) /
                        1024.0 / 1024.0,
                    2) +
                    " MB"});
  table.Print(std::cout);

  const ProtocolCounters& pc = proposer->counters();
  std::cout << "\nproposer protocol counters: elections="
            << pc.elections_started << " proposes=" << pc.proposes_sent
            << " retransmits=" << pc.retransmits
            << " step_downs=" << pc.step_downs
            << " intents_detected=" << pc.intents_detected << "\n";
  return 0;
}

int RunElection(Cluster& cluster, const CliOptions& o) {
  (void)o;
  TablePrinter table({"aspirant zone", "election latency (ms)"});
  for (ZoneId z = 0; z < cluster.topology().num_zones(); ++z) {
    // Fresh ballot per zone; prior leaders get preempted.
    Replica* aspirant = cluster.ReplicaInZone(z);
    aspirant->PrimeBallot(Ballot{(z + 1) * 100, 0});
    Result<Duration> latency = cluster.ElectLeader(aspirant->id());
    table.AddRow({cluster.topology().ZoneName(z),
                  latency.ok() ? Fmt(ToMillis(latency.value()), 1)
                               : latency.status().ToString()});
  }
  table.Print(std::cout);
  return 0;
}

int RunChaosCli(const CliOptions& o, ProtocolMode mode) {
  if (o.schedule != "none") {
    const auto names = Nemesis::ScheduleNames();
    if (std::find(names.begin(), names.end(), o.schedule) == names.end()) {
      std::cerr << "unknown --schedule " << o.schedule << "\n";
      return 2;
    }
  }
  ChaosOptions chaos;
  chaos.mode = mode;
  chaos.schedule = o.schedule;
  chaos.seed = o.seed;
  chaos.zones = o.aws ? 5 : o.zones;  // chaos always runs uniform
  chaos.nodes_per_zone = o.nodes;
  chaos.inter_zone_rtt_ms = o.aws ? 50.0 : o.rtt_ms;
  chaos.num_clients = o.clients;
  chaos.num_keys = o.keys;
  if (o.reads > 0) chaos.read_fraction = o.reads;
  chaos.duration = o.duration;
  chaos.enable_compaction = o.compaction;
  chaos.compaction_retained_suffix = o.retained;
  chaos.enable_fast_path = o.fast_path;

  std::cout << "== dpaxos_cli: chaos / " << ProtocolModeName(mode)
            << ", schedule=" << chaos.schedule << ", " << chaos.zones
            << " zones x " << chaos.nodes_per_zone << " nodes, seed="
            << chaos.seed
            << (o.compaction ? ", compaction on" : "") << "\n\n";
  const ChaosReport report = RunChaos(chaos);
  if (!report.nemesis_log.empty()) {
    std::cout << "nemesis actions:\n";
    for (const std::string& line : report.nemesis_log) {
      std::cout << "  " << line << "\n";
    }
    std::cout << "\n";
  }
  if (!report.converged) {
    std::cout << "node states:\n";
    for (const std::string& line : report.node_states) {
      std::cout << "  " << line << "\n";
    }
    std::cout << "\n";
  }
  std::cout << report.Summary() << "\n";
  return report.ok() ? 0 : 1;
}

/// Shard-parallel simperf: per-shard table (including the ShardedStore
/// steal/migration counters) plus the aggregate, written to JSON with the
/// "sharded" section. Results are bit-identical for any --threads value.
void PrintSimperfMobility(const SimperfMobilityReport& mobility) {
  std::cout << "\nmobility tour (3 zones, inter "
            << Fmt(mobility.inter_zone_rtt_ms, 0) << "ms / intra "
            << Fmt(mobility.intra_zone_rtt_ms, 0) << "ms RTT):\n";
  TablePrinter table({"cell", "zone", "ops", "p50 (ms)", "p99 (ms)",
                      "tail p50 (ms)", "steals"});
  for (const SimperfMobilityCell& cell : mobility.cells) {
    for (const SimperfMobilitySegment& seg : cell.segments) {
      const bool last = &seg == &cell.segments.back();
      table.AddRow({cell.label, std::to_string(seg.zone),
                    std::to_string(seg.ops), Fmt(seg.p50_ms, 2),
                    Fmt(seg.p99_ms, 2), Fmt(seg.tail_p50_ms, 2),
                    last ? std::to_string(cell.steals) : ""});
    }
  }
  table.Print(std::cout);
  std::cout << "adaptive_tracks_client: "
            << (mobility.adaptive_tracks_client ? "yes" : "NO") << "\n";
}

int RunSimperfShardedCli(const CliOptions& o) {
  SimperfOptions options;
  options.smoke = o.smoke;
  options.seed = o.seed;
  options.shards = o.shards;
  options.threads = o.threads;
  options.partitions = std::max(o.partitions, o.shards);
  options.window = o.sim_window;
  std::cout << "== dpaxos_cli: simperf sharded"
            << (options.smoke ? " (smoke)" : "") << ", shards="
            << options.shards << " threads=" << options.threads
            << " partitions=" << options.partitions << ", seed="
            << options.seed << "\n\n";
  const ShardedSimperfReport report = RunSimperfSharded(options);
  TablePrinter table({"shard", "partitions", "wall (ms)", "events",
                      "events/sec", "committed", "steals", "migrations"});
  for (const SimperfShard& s : report.per_shard) {
    table.AddRow({std::to_string(s.shard_id), std::to_string(s.partitions),
                  Fmt(s.wall_ms, 1), std::to_string(s.events),
                  Fmt(s.wall_ms > 0 ? s.events / (s.wall_ms / 1000.0) : 0,
                      0),
                  std::to_string(s.committed), std::to_string(s.steals),
                  std::to_string(s.migrations)});
  }
  table.AddRow({"TOTAL", std::to_string(report.partitions),
                Fmt(report.wall_ms, 1), std::to_string(report.events),
                Fmt(report.EventsPerSec(), 0),
                std::to_string(report.committed),
                std::to_string(report.steals),
                std::to_string(report.migrations)});
  table.Print(std::cout);
  std::cout << "\n" << report.counters.ToString() << "\n"
            << "aggregate " << Fmt(report.EventsPerSec(), 0)
            << " events/sec on " << report.threads
            << " threads, fingerprint " << report.Fingerprint() << "\n";

  // The legacy single-shard workload still provides the baseline/current
  // sections so the JSON shape stays stable for downstream tooling.
  SimperfOptions legacy;
  legacy.smoke = o.smoke;
  legacy.seed = o.seed;
  const SimperfReport current = RunSimperf(legacy);
  const SimperfMobilityReport mobility = RunSimperfMobility(legacy);
  PrintSimperfMobility(mobility);
  SimperfJsonExtras extras;
  extras.sharded = &report;
  extras.mobility = &mobility;
  if (!WriteSimperfJson(
          o.out, SimperfJson(current, legacy.baseline_events_per_sec,
                             extras))) {
    return 1;
  }
  std::cout << "wrote " << o.out << "\n";
  return 0;
}

int RunServe(const CliOptions& o, ProtocolMode mode) {
  Result<std::vector<HostPort>> cluster = ParseClusterSpec(o.cluster_spec);
  if (!cluster.ok()) {
    std::cerr << "bad --cluster: " << cluster.status().ToString() << "\n";
    return 2;
  }
  if (cluster->empty() || o.node >= cluster->size()) {
    std::cerr << "--node must index into --cluster\n";
    return 2;
  }
  if (o.zones == 0 || cluster->size() % o.zones != 0) {
    std::cerr << "--zones must evenly divide the cluster size\n";
    return 2;
  }
  NodeServerOptions server;
  server.node = o.node;
  server.cluster = std::move(cluster).value();
  server.zones = o.zones;
  server.mode = mode;
  server.ft = FaultTolerance{0, 0};  // a 2x2 cluster admits nothing more
  server.seed = o.seed;
  server.leader_hint = o.hint;
  server.catchup_delay = o.catchup_delay;
  server.compaction_interval = o.compaction_interval;
  server.replica.enable_compaction = o.compaction_interval > 0;
  server.replica.compaction_retained_suffix = o.compaction_retain;
  server.replica.enable_fast_path = o.fast_path;
  server.data_dir = o.data_dir;
  server.disk_faults = o.disk_faults;
  server.wal_commit_delay = o.wal_commit_delay;
  server.ownership = o.ownership;
  server.placement_sweep_interval = o.placement_sweep;
  server.steal_cooldown = o.steal_cooldown;
  if (o.disk_faults && o.data_dir.empty()) {
    std::cerr << "--disk-faults requires --data-dir\n";
    return 2;
  }
  NodeServer node(std::move(server));
  Status st = node.Start();
  if (!st.ok()) {
    std::cerr << "serve failed: " << st.ToString() << "\n";
    return 1;
  }
  node.InstallSignalHandlers();
  node.Run();
  std::cout << node.StatsString() << "\n";
  return 0;
}

int RunClient(const CliOptions& o) {
  Result<HostPort> addr = HostPort::Parse(o.connect_spec);
  if (!addr.ok()) {
    std::cerr << "bad --connect: " << addr.status().ToString() << "\n";
    return 2;
  }
  const uint64_t id =
      o.client_id != 0 ? o.client_id : static_cast<uint64_t>(getpid());
  TcpClient client(id);
  Status st = client.Connect(addr.value(), 2 * kSecond);
  if (!st.ok()) {
    std::cerr << "connect failed: " << st.ToString() << "\n";
    return 1;
  }
  if (o.client_ops.empty()) {
    std::cerr << "--client needs at least one of --put/--get/--stats/--bench\n";
    return 2;
  }
  for (const auto& [op, arg] : o.client_ops) {
    if (op == "put") {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--put wants K=V\n";
        return 2;
      }
      st = client.Put(arg.substr(0, eq), arg.substr(eq + 1), 5 * kSecond);
      if (!st.ok()) {
        std::cerr << "put failed: " << st.ToString() << "\n";
        return 1;
      }
      std::cout << "OK\n";
    } else if (op == "get") {
      Result<std::string> value = client.Get(arg, 5 * kSecond);
      if (!value.ok()) {
        std::cerr << "get failed: " << value.status().ToString() << "\n";
        return 1;
      }
      std::cout << value.value() << "\n";
    } else if (op == "stats") {
      Result<std::string> stats = client.Stats(5 * kSecond);
      if (!stats.ok()) {
        std::cerr << "stats failed: " << stats.status().ToString() << "\n";
        return 1;
      }
      std::cout << stats.value() << "\n";
    } else {  // bench
      const uint64_t n = std::stoull(arg);
      Histogram latency;
      for (uint64_t i = 0; i < n; ++i) {
        const auto start = std::chrono::steady_clock::now();
        st = client.Put("bench" + std::to_string(i % 128),
                        std::to_string(i), 5 * kSecond);
        if (!st.ok()) {
          std::cerr << "bench put " << i << " failed: " << st.ToString()
                    << "\n";
          return 1;
        }
        latency.Add(static_cast<Duration>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
      }
      std::cout << "bench " << n << " puts: " << latency.Summary() << "\n";
    }
  }
  return 0;
}

int RunRealnetCli(const CliOptions& o) {
  RealnetBenchOptions bench;
  bench.server_binary = "/proc/self/exe";
  bench.requests = o.requests;
  bench.seed = o.seed;
  bench.connections = o.connections;
  bench.pipeline = o.pipeline;
  bench.rate = o.rate;
  bench.json_path = o.out_set ? o.out : "BENCH_realnet.json";
  bench.log_dir = o.log_dir;
  bench.data_dir_base = o.data_dir;  // "" = temp dir for the durable cell
  bench.wal_commit_delay = o.wal_commit_delay;
  bench.mobility = o.mobility;
  std::cout << "== dpaxos_cli: realnet, 2 zones x 2 nodes on loopback, "
            << bench.requests << " ops/mode over " << bench.connections
            << " conns x " << bench.pipeline << " pipeline"
            << (bench.rate > 0 ? " @" + Fmt(bench.rate, 0) + " ops/s"
                               : " (closed loop)")
            << ", seed=" << bench.seed
            << "\n\n";
  Result<RealnetBenchReport> report = RunRealnetBench(bench);
  if (!report.ok()) {
    std::cerr << "realnet failed: " << report.status().ToString() << "\n";
    return 1;
  }
  TablePrinter table({"cell", "ops", "ops/sec", "p50 (ms)", "p99 (ms)",
                      "p999 (ms)", "fast c/f", "frames/writev",
                      "snap installs", "checksum match"});
  for (const RealnetModeResult& r : report->results) {
    const double frames_per_writev =
        r.tcp_writev_calls > 0
            ? static_cast<double>(r.tcp_writev_calls + r.tcp_frames_coalesced) /
                  static_cast<double>(r.tcp_writev_calls)
            : 0;
    table.AddRow({r.label, std::to_string(r.measured_ops),
                  Fmt(r.throughput_ops, 1), Fmt(r.latency.P50Millis(), 2),
                  Fmt(r.latency.P99Millis(), 2),
                  Fmt(r.latency.P999Millis(), 2),
                  std::to_string(r.fast_commits) + "/" +
                      std::to_string(r.fast_fallbacks),
                  Fmt(frames_per_writev, 2),
                  std::to_string(r.snapshots_installed),
                  r.checksum_match ? "yes" : "NO"});
  }
  table.Print(std::cout);
  for (const RealnetModeResult& r : report->results) {
    if (r.snapshots_installed == 0 || r.checksum_match == 0) {
      std::cerr << "\nrecovery check failed for " << r.label << "\n";
      return 1;
    }
  }
  if (!report->mobility.empty()) {
    std::cout << "\nmobility (leader-zone, inter "
              << Fmt(report->mobility.front().inter_oneway_ms, 0)
              << "ms one-way, gate: post p50 < 2x intra RTT):\n";
    TablePrinter mob({"cell", "phase", "ops", "p50 (ms)", "p99 (ms)",
                      "steals", "migration (s)", "redirects", "gate"});
    for (const RealnetMobilityResult& m : report->mobility) {
      for (const RealnetMobilityPhase& ph : m.phases) {
        const bool last = &ph == &m.phases.back();
        mob.AddRow({m.label, ph.name, std::to_string(ph.ops),
                    Fmt(ph.latency.P50Millis(), 2),
                    Fmt(ph.latency.P99Millis(), 2),
                    last ? std::to_string(m.steals_completed) + "/" +
                               std::to_string(m.steals_attempted)
                         : "",
                    last ? Fmt(m.migration_seconds, 2) : "",
                    last ? std::to_string(m.redirects_followed) : "",
                    last ? (m.gate_pass ? (m.adaptive ? "pass" : "-")
                                        : "FAIL")
                         : ""});
      }
    }
    mob.Print(std::cout);
    for (const RealnetMobilityResult& m : report->mobility) {
      if (m.adaptive && (!m.gate_pass || m.steals_completed == 0)) {
        std::cerr << "\nmobility gate failed for " << m.label
                  << ": steals=" << m.steals_completed << " post_p50="
                  << Fmt(m.phases.back().latency.P50Millis(), 2)
                  << "ms (limit " << Fmt(2 * m.intra_rtt_ms, 1) << "ms)\n";
        return 1;
      }
    }
  }
  if (!bench.json_path.empty()) {
    std::ofstream out_file(bench.json_path);
    if (!out_file) {
      std::cerr << "cannot write " << bench.json_path << "\n";
      return 1;
    }
    out_file << RealnetReportToJson(bench, report.value());
    std::cout << "\nwrote " << bench.json_path << "\n";
  }
  return 0;
}

int RunRealChaosCli(const CliOptions& o, ProtocolMode mode) {
  if (o.schedule != "none") {
    const auto names = RealNemesis::ScheduleNames();
    if (std::find(names.begin(), names.end(), o.schedule) == names.end()) {
      std::cerr << "unknown --schedule " << o.schedule
                << " (realchaos schedules: "
                   "mixed|partitions|process|lossy|disk|mobility)\n";
      return 2;
    }
  }
  RealChaosOptions chaos;
  chaos.server_binary = "/proc/self/exe";
  chaos.mode = mode;
  chaos.schedule = o.schedule;
  chaos.seed = o.seed;
  chaos.num_clients = o.clients;
  chaos.num_keys = std::max(o.keys, 32u);
  if (o.reads > 0) chaos.read_fraction = o.reads;
  chaos.duration = o.duration;
  chaos.soak_connections = o.soak_connections;
  chaos.log_dir = o.log_dir;
  chaos.fast_path = o.fast_path;
  chaos.ownership = o.ownership || o.schedule == "mobility";
  if (!o.data_dir.empty()) {
    chaos.durable = true;
    chaos.data_dir_base = o.data_dir;
    chaos.wal_commit_delay = o.wal_commit_delay;
  } else if (o.schedule == "disk") {
    std::cerr << "--schedule=disk requires --data-dir=BASE "
                 "(durable cluster)\n";
    return 2;
  }
  std::cout << "== dpaxos_cli: realchaos / " << ProtocolModeName(mode)
            << ", schedule=" << chaos.schedule << ", " << chaos.zones
            << " zones x " << chaos.nodes_per_zone
            << " proxied nodes, seed=" << chaos.seed << "\n\n";
  const RealChaosReport report = RunRealChaos(chaos);
  if (!report.nemesis_log.empty()) {
    std::cout << "nemesis actions:\n";
    for (const std::string& line : report.nemesis_log) {
      std::cout << "  " << line << "\n";
    }
    std::cout << "\n";
  }
  for (const std::string& violation : report.consistency.violations) {
    std::cout << "VIOLATION: " << violation << "\n";
  }
  std::cout << report.Summary() << "\n";

  // The chaos soak cell rides in BENCH_realnet.json next to the perf
  // rows rather than overwriting them.
  const std::string json_path = o.out_set ? o.out : "BENCH_realnet.json";
  if (!json_path.empty()) {
    std::string existing;
    {
      std::ifstream in(json_path);
      if (in) {
        std::ostringstream buf;
        buf << in.rdbuf();
        existing = buf.str();
      }
    }
    std::ofstream out_file(json_path);
    if (!out_file) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out_file << MergeChaosIntoBenchJson(
        existing, RealChaosSectionJson(chaos, report));
    std::cout << "merged chaos section into " << json_path << "\n";
  }
  return report.ok() ? 0 : 1;
}

int RunSimperfCli(const CliOptions& o) {
  if (o.shards > 0) return RunSimperfShardedCli(o);
  SimperfOptions options;
  options.smoke = o.smoke;
  options.seed = o.seed;
  std::cout << "== dpaxos_cli: simperf"
            << (options.smoke ? " (smoke)" : "") << ", seed="
            << options.seed << "\n\n";
  const SimperfReport report = RunSimperf(options);
  TablePrinter table({"phase", "wall (ms)", "events", "events/sec"});
  for (const auto& p : report.phases) {
    table.AddRow({p.name, Fmt(p.wall_ms, 1), std::to_string(p.events),
                  Fmt(p.wall_ms > 0 ? p.events / (p.wall_ms / 1000.0) : 0,
                      0)});
  }
  table.AddRow({"TOTAL", Fmt(report.wall_ms, 1),
                std::to_string(report.events),
                Fmt(report.EventsPerSec(), 0)});
  table.Print(std::cout);
  std::cout << "\n" << report.counters.ToString() << "\n"
            << "baseline " << Fmt(options.baseline_events_per_sec, 0)
            << " -> current " << Fmt(report.EventsPerSec(), 0)
            << " events/sec\n";
  const SimperfMobilityReport mobility = RunSimperfMobility(options);
  PrintSimperfMobility(mobility);
  SimperfJsonExtras extras;
  extras.mobility = &mobility;
  if (!WriteSimperfJson(
          o.out, SimperfJson(report, options.baseline_events_per_sec,
                             extras))) {
    return 1;
  }
  std::cout << "wrote " << o.out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    if (!ParseArg(argv[i], &options)) {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      Usage();
      return 2;
    }
  }

  Result<ProtocolMode> mode = ParseMode(options.mode);
  if (!mode.ok()) {
    std::cerr << mode.status().ToString() << "\n";
    return 2;
  }

  // Server and client modes bypass the experiment dispatch entirely.
  if (options.serve) return RunServe(options, mode.value());
  if (options.client) return RunClient(options);

  // Validate the experiment name up front, before any cluster is built
  // or output produced — a typo must not half-run something else.
  if (options.experiment != "load" && options.experiment != "election" &&
      options.experiment != "chaos" && options.experiment != "simperf" &&
      options.experiment != "realnet" &&
      options.experiment != "realchaos") {
    std::cerr << "unknown --experiment " << options.experiment << "\n";
    Usage();
    return 2;
  }

  // Chaos, simperf and realnet build their own clusters.
  if (options.experiment == "chaos") {
    return RunChaosCli(options, mode.value());
  }
  if (options.experiment == "simperf") {
    return RunSimperfCli(options);
  }
  if (options.experiment == "realnet") {
    return RunRealnetCli(options);
  }
  if (options.experiment == "realchaos") {
    return RunRealChaosCli(options, mode.value());
  }

  ClusterOptions cluster_options;
  cluster_options.ft = FaultTolerance{options.fd, options.fz};
  cluster_options.seed = options.seed;
  cluster_options.replica.max_inflight = options.window;
  cluster_options.replica.enable_leases = options.leases;
  cluster_options.replica.enable_fast_path = options.fast_path;

  Topology topology =
      options.aws ? Topology::AwsSevenZones(options.nodes)
                  : Topology::Uniform(options.zones, options.nodes,
                                      options.rtt_ms);
  if (!options.topology_csv.empty()) {
    std::ifstream in(options.topology_csv);
    if (!in) {
      std::cerr << "cannot read " << options.topology_csv << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Result<Topology> parsed =
        Topology::FromRttCsv(buf.str(), options.nodes);
    if (!parsed.ok()) {
      std::cerr << "bad topology csv: " << parsed.status().ToString()
                << "\n";
      return 2;
    }
    topology = std::move(parsed).value();
  }
  if (options.zone >= topology.num_zones()) {
    std::cerr << "--zone out of range\n";
    return 2;
  }
  Cluster cluster(std::move(topology), mode.value(), cluster_options);

  std::cout << "== dpaxos_cli: " << options.experiment << " / "
            << ProtocolModeName(mode.value()) << ", "
            << cluster.topology().num_zones() << " zones x "
            << cluster.topology().nodes_in_zone(0) << " nodes, fd="
            << options.fd << " fz=" << options.fz << ", seed="
            << options.seed << "\n\n";

  if (options.experiment == "load") return RunLoad(cluster, options);
  return RunElection(cluster, options);
}
