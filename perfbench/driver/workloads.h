// The benchmark's workloads. Every knob that shapes the offered load is
// a constant here: it is the same on every commit and never recomputed
// from a run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"

namespace perfbench {

/// One realnet workload on a 2-zone x 2-node Leader Zone cluster.
struct RealnetSpec {
  const char* name = "";
  uint32_t target = 0;         ///< node the client talks to (0 = leader)
  double get_fraction = 0;     ///< share of linearizable Gets
  double open_rate = 0;        ///< open-loop slices, ops/s
  /// Acceptor WAL on every node; the run ends with a follower
  /// SIGKILLed and restarted under load, outside the measured phases.
  bool durable = false;
  /// Traced runs add a short run of kDurableProbe for the WAL rows.
  bool durable_probe = false;
};

inline constexpr uint32_t kConnections = 4;
/// Closed-loop slices: requests in flight per connection.
inline constexpr uint32_t kClosedDepth = 64;
inline constexpr uint32_t kReactors = 1;
inline constexpr uint32_t kKeySpace = 1024;
/// Set-ups per cluster; the last cluster is the one measured.
inline constexpr int kSetupRepeats = 45;
/// Open/closed slice pairs the measured time is split into.
inline constexpr int kRounds = 40;

inline constexpr RealnetSpec kLeaderPut{"leader-put", 0, 0.0, 4000, false,
                                        true};
inline constexpr RealnetSpec kEdgeMixed{"edge-mixed", 2, 0.5, 4000, false,
                                        false};
/// leader-put's Puts with a WAL on every node, at a rate sized to the
/// durable path's lower capacity. Not a workload of its own: on a host
/// whose disk is shared, fsync stalls of up to 200 ms made its
/// end-to-end figures spread too far to gate on, so it runs only inside
/// leader-put's traced run and feeds the storage.wal and recovery rows.
inline constexpr RealnetSpec kDurableProbe{"durable-probe", 0, 0.0, 2000, true,
                                           false};
inline constexpr double kDurableProbeSeconds = 4;

RunResult RunRealnet(const Args& args, const RealnetSpec& spec);
/// The shard-parallel simulator (RunSimperfSharded) at 1 and
/// min(4, nproc) threads.
RunResult RunSimSharded(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
