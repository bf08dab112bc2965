// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload=leader-put --seed=1 --seconds=10 --trace=0
//       --server=<dpaxos_cli> --workdir=<scratch dir>
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// holding the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). Lines before it start with '#' and give context: the
// workload hash, the host's shape, the gate's verdicts. A run that fails
// a correctness check prints the failures to stderr, publishes no
// metrics and exits 1. Bad arguments exit 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every run prints all of these, so every workload reports the same
// names; a row a workload declares not applicable reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"capacity_ops_s", "ops/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"paxos.slots_per_op", "1/op"},
    {"paxos.barriers_per_get", "1/op"},
    {"paxos.loop_cpu_us_per_op", "us"},
    {"paxos.loop_busy_frac", "ratio"},
    {"paxos.follower_loop_cpu_us_per_op", "us"},
    {"paxos.suspect_msgs", "count"},
    {"paxos.catchup_repairs", "count"},
    {"server.cpu_us_per_op", "us"},
    {"paxos.wire.serialize_us", "us"},
    {"paxos.wire.deserialize_us", "us"},
    {"storage.wal.fsyncs_per_op", "1/op"},
    {"storage.wal.appends_per_op", "1/op"},
    {"storage.wal.bytes_per_op", "B/op"},
    {"storage.wal.records_per_sync", "ratio"},
    {"storage.wal.open_us", "us"},
    {"storage.wal.append_us_p50", "us"},
    {"storage.wal.sync_us_p50", "us"},
    {"storage.wal.sync_us_p99", "us"},
    {"net.tcp.writev_per_op", "1/op"},
    {"net.tcp.frames_per_writev", "ratio"},
    {"net.tcp.bytes_out_per_op", "B/op"},
    {"net.tcp.reactor_busy_frac", "ratio"},
    {"net.tcp.reactor_cpu_us_per_op", "us"},
    {"net.tcp.frames_dropped", "count"},
    {"net.tcp.frame_parse_us", "us"},
    {"net.tcp.reply_encode_us", "us"},
    {"smr.apply_lag_slots", "count"},
    {"smr.apply_us_p50", "us"},
    {"txn.encode_batch_us", "us"},
    {"client.latency_p50_ms", "ms"},
    {"client.put_p50_ms", "ms"},
    {"client.put_p99_ms", "ms"},
    {"client.put_samples", "count"},
    {"client.get_p50_ms", "ms"},
    {"client.get_p99_ms", "ms"},
    {"client.get_samples", "count"},
    {"client.late_p99_ms", "ms"},
    {"client.behind_schedule", "count"},
    {"client.cpu_us_per_op", "us"},
    {"client.conn_errors", "count"},
    {"failed_frac", "ratio"},
    {"recovery.catchup_s", "s"},
    {"recovery.failed_ops", "count"},
    {"sim.events_per_s_1t", "1/s"},
    {"sim.shard_wall_ms_p50", "ms"},
    {"sim.shard_wall_ms_max", "ms"},
    {"sim.cpu_per_wall", "ratio"},
    {"sim.slab_growths", "count"},
    {"host.nproc", "count"},
    {"host.effective_parallelism", "x"},
    {"trace.capacity_ops_s", "ops/s"},
    {"trace.latency_p50_ms", "ms"},
    {"trace.spans", "count"},
};

int Usage(const char* why) {
  fprintf(stderr,
          "perfbench_driver: %s\n"
          "usage: perfbench_driver --workload=NAME --seed=N --seconds=S "
          "--trace=0|1 --server=PATH --workdir=DIR\n"
          "workloads: leader-put edge-mixed sim-sharded\n",
          why);
  return 2;
}

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = strlen(name);
  if (strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// Order `got` by `defs`. False if a name is unknown or has another
/// unit, or if a declared metric was neither measured nor declared not
/// applicable to the workload (those print as 0).
template <size_t N>
bool Canonical(const MetricDef (&defs)[N], const Metrics& got,
               std::vector<Metrics::Item>* out, std::string* error) {
  auto declared = [&defs](const std::string& name) -> const MetricDef* {
    for (const MetricDef& d : defs) {
      if (name == d.name) return &d;
    }
    return nullptr;
  };
  for (const Metrics::Item& item : got.items()) {
    const MetricDef* d = declared(item.name);
    if (d == nullptr || item.unit != d->unit) {
      *error = "metric " + item.name + " [" + item.unit + "] is not declared";
      return false;
    }
  }
  const std::vector<std::string>& skipped = got.not_applicable();
  for (const std::string& name : skipped) {
    if (declared(name) == nullptr) {
      *error = "metric " + name + " is not declared";
      return false;
    }
  }
  for (const MetricDef& d : defs) {
    const Metrics::Item* found = nullptr;
    for (const Metrics::Item& item : got.items()) {
      if (item.name == d.name) found = &item;
    }
    if (found != nullptr) {
      out->push_back(*found);
    } else if (std::find(skipped.begin(), skipped.end(), d.name) !=
               skipped.end()) {
      out->push_back({d.name, 0, d.unit});
    } else {
      *error = std::string("metric ") + d.name + " was not measured";
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &v)) {
      args.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      args.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      args.seconds = atof(v.c_str());
    } else if (Flag(argv[i], "--trace", &v)) {
      args.trace = v == "1";
    } else if (Flag(argv[i], "--server", &v)) {
      args.server = v;
    } else if (Flag(argv[i], "--workdir", &v)) {
      args.workdir = v;
    } else {
      return Usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.workdir.empty()) return Usage("--workdir is required");
  const bool realnet =
      args.workload == "leader-put" || args.workload == "edge-mixed";
  if (!realnet && args.workload != "sim-sharded") {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (realnet && args.server.empty()) return Usage("--server is required");
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);

  RunResult r;
  if (args.workload == "leader-put") {
    r = RunRealnet(args, kLeaderPut);
  } else if (args.workload == "edge-mixed") {
    r = RunRealnet(args, kEdgeMixed);
  } else {
    r = RunSimSharded(args);
  }
  for (const std::string& note : r.notes) printf("# %s\n", note.c_str());
  fflush(stdout);
  if (!r.correct()) {
    for (const std::string& f : r.failures) {
      fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    return 1;
  }

  std::vector<Metrics::Item> items;
  std::string error;
  const bool ok = args.trace
                      ? Canonical(kPerLayer, r.per_layer, &items, &error)
                      : Canonical(kEndToEnd, r.end_to_end, &items, &error);
  if (!ok) {
    fprintf(stderr, "perfbench_driver: %s\n", error.c_str());
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < items.size(); ++i) {
    char num[64];
    snprintf(num, sizeof(num), "%.10g",
             std::isfinite(items[i].value) ? items[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + items[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + items[i].unit + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
