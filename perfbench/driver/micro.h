// Timed calls into the public library functions on the serving path,
// run by the traced invocation after its workload, with inputs sized
// from that workload (key space, 50-byte values).
#ifndef PERFBENCH_MICRO_H_
#define PERFBENCH_MICRO_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct MicroInputs {
  uint32_t key_space = 1024;
  uint64_t seed = 1;
  /// Non-empty: time Wal::Open / SyncThen in this directory (same
  /// filesystem as the workload's WAL). Empty: the WAL rows are declared
  /// not applicable.
  std::string wal_dir;
};

/// Sets storage.wal.open_us / append_us_p50 / sync_us_p50 / sync_us_p99,
/// paxos.wire.serialize_us / deserialize_us, txn.encode_batch_us,
/// net.tcp.frame_parse_us / reply_encode_us and smr.apply_us_p50.
void RunMicro(const MicroInputs& inputs, Tracer* tracer, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_MICRO_H_
