// Seeded operation stream and the open/closed-loop client that sends it
// to a node over the public client framing (net/tcp/framing.h).
//
// LoadGen (harness/load_gen.h) only issues Puts, so the benchmark
// carries its own driver: Puts and linearizable Gets, an open loop timed
// from each request's intended send time, a closed loop at a fixed
// depth, and a record of every acknowledged write and every read for the
// correctness gate.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "net/tcp/socket_util.h"

namespace perfbench {

inline constexpr size_t kValueBytes = 50;

/// \brief The workload's operations as a pure function of the seed.
///
/// Operation i is a Get or a Put on a uniform key; a Put's 50-byte value
/// embeds i, so every written value is unique and maps back to its op.
class OpStream {
 public:
  OpStream(uint64_t seed, double get_fraction, uint32_t key_space);

  struct Op {
    bool get = false;
    uint32_t key = 0;
  };
  Op At(uint64_t index) const;
  static std::string KeyName(uint32_t key);
  std::string Value(uint64_t index) const;
  /// Inverse of Value(): the op index a stored value came from.
  static bool ParseValueIndex(std::string_view value, uint64_t* index);
  /// FNV-1a over the first `count` ops (kind, key, value).
  uint64_t Fingerprint(uint64_t count) const;

 private:
  uint64_t seed_;
  uint32_t get_permille_;
  uint32_t key_space_;
};

/// What the clients saw, for the correctness gate. Times are the
/// client's monotonic clock.
struct History {
  struct PutAck {
    uint32_t key;
    uint64_t index;
    uint64_t slot;  ///< commit slot returned in the reply
    int64_t ack_ns;
  };
  struct Read {
    uint32_t key;
    int64_t send_ns;
    int64_t reply_ns;
    int64_t value_index;  ///< -1 = key not found
    uint64_t watermark;   ///< applied prefix the read was served at
  };
  std::vector<PutAck> puts;
  std::vector<Read> reads;
  /// Puts that failed or never got an answer: they may or may not have
  /// committed.
  std::vector<uint64_t> indeterminate;
  /// Answers that cannot belong to the request they were matched to.
  uint64_t mismatched = 0;

  void Append(const History& other);
};

struct PhaseSpec {
  const char* name = "phase";
  double rate = 0;         ///< open loop, ops/s; 0 selects the closed loop
  uint32_t depth = 0;      ///< closed loop: requests in flight per connection
  int64_t duration_ns = 0;
  /// Optional: ends issuing early when set (another thread's signal).
  const std::atomic<bool>* stop = nullptr;
  /// Optional: called every `sample_interval_ns` while the phase runs.
  std::function<void(int64_t now_ns)> sample;
  int64_t sample_interval_ns = 0;
};

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t puts_ok = 0;
  uint64_t gets_ok = 0;
  uint64_t conn_errors = 0;
  std::vector<int64_t> put_ns;   ///< latency of OK puts
  std::vector<int64_t> get_ns;   ///< latency of OK gets
  std::vector<int64_t> late_ns;  ///< open loop: send time - intended time
  /// OK completions before `duration_ns` elapsed (the capacity window).
  uint64_t in_window = 0;
  double seconds = 0;  ///< issuing window length
  double cpu_s = 0;    ///< client thread CPU over the phase
  uint64_t span = 0;   ///< trace span of the phase
};

/// \brief Single-threaded epoll client over `connections` sockets.
class Client {
 public:
  /// Op indices start at `first_index`, so two clients sharing a stream
  /// write disjoint values.
  Client(dpaxos::HostPort endpoint, uint32_t connections,
         uint64_t client_id_base, uint64_t first_index, const OpStream* ops,
         History* history, Tracer* tracer);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  dpaxos::Status Connect();
  PhaseResult Run(const PhaseSpec& spec);

 private:
  struct Conn;
  struct Inflight;
  // The per-phase state below (spec_, result_, ...) is set by Run().
  void Issue(Conn* conn, int64_t intended_ns);
  void Flush(Conn* conn);
  void Read(Conn* conn);
  void Complete(Conn* conn, const Inflight& op, bool ok, uint8_t status,
                const std::string& value, uint64_t slot, uint64_t request);
  void OnConnError(Conn* conn);
  void ArmTimer(int64_t when_ns);
  size_t InflightTotal() const;
  size_t LiveConns() const;

  dpaxos::HostPort endpoint_;
  uint64_t client_id_base_;
  uint64_t next_index_;
  const OpStream* ops_;
  History* history_;
  Tracer* tracer_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;

  const PhaseSpec* spec_ = nullptr;
  PhaseResult* result_ = nullptr;
  int64_t start_ns_ = 0;
  bool issuing_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
