#include "common/perf_counters.h"

#include <sstream>

namespace dpaxos {

std::string PerfCounters::ToString() const {
  std::ostringstream out;
  out << "sim: scheduled=" << events_scheduled
      << " executed=" << events_executed
      << " cancelled=" << events_cancelled
      << " stale_cancels=" << stale_cancels
      << " heap_pushes=" << heap_pushes << " heap_pops=" << heap_pops
      << " slab_growths=" << slab_growths
      << " callable_heap_allocs=" << callable_heap_allocs << "\n"
      << "net: sent=" << messages_sent
      << " delivered=" << messages_delivered << " bytes=" << bytes_sent
      << " coalesced=" << deliveries_coalesced
      << " pool_growths=" << delivery_pool_growths << "\n"
      << "wire: encodes=" << wire_encodes
      << " encode_bytes=" << wire_encode_bytes
      << " decodes=" << wire_decodes << "\n"
      << "store: steals=" << store_steals
      << " migrations=" << store_partition_migrations
      << " snapshot_transfers=" << store_snapshot_transfers
      << " snapshot_bytes=" << store_snapshot_bytes << "\n"
      << "tcp: bytes_in=" << tcp_bytes_in << " bytes_out=" << tcp_bytes_out
      << " frames_in=" << tcp_frames_in << " frames_out=" << tcp_frames_out
      << " frames_dropped=" << tcp_frames_dropped
      << " reconnects=" << tcp_reconnects << " accepts=" << tcp_accepts
      << " malformed=" << tcp_malformed_frames
      << " writev_calls=" << tcp_writev_calls
      << " frames_coalesced=" << tcp_frames_coalesced << "\n"
      << "wal: appends=" << wal_appends << " bytes=" << wal_bytes
      << " fsyncs=" << wal_fsyncs
      << " torn_tail_truncations=" << wal_torn_tail_truncations
      << " sync_failures=" << wal_sync_failures;
  return out.str();
}

}  // namespace dpaxos
