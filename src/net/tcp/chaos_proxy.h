// ChaosProxy: a toxiproxy-style fault-injecting TCP proxy for the
// real-network tier.
//
// One proxy instance fronts a whole cluster: it opens one listener per
// upstream node (ephemeral loopback ports) and relays every accepted
// connection to the real endpoint. The harness hands the *proxy*
// endpoints to the other nodes and to clients (see
// RealClusterOptions::peer_view), so every inter-node and client link
// crosses the proxy and can be faulted per direction:
//
//   * added latency +- jitter        (FIFO per link is preserved)
//   * probabilistic frame drop
//   * bandwidth throttle             (token-bucket pacing per direction)
//   * full / asymmetric partitions   (blackhole by zone or node)
//   * byte corruption                (random bit flips in the encoded
//                                     frame; the downstream FrameDecoder
//                                     or parser must catch it)
//   * slow-close                     (EOF propagation delayed, so the
//                                     surviving side hangs instead of
//                                     promptly redialing)
//
// The relay is frame-aware: each direction runs a FrameDecoder and
// re-emits complete frames, so drop/latency/throttle act on protocol
// frames (the unit the Send contract reasons about), never on arbitrary
// byte boundaries. Link identity comes from passively decoding the HELLO
// that opens every connection (net/tcp/framing.h); the dialed listener
// names the destination node.
//
// Threading: the proxy owns an EventLoop on a dedicated thread. All
// public methods are callable from any thread; mutations are posted to
// the loop thread (EventLoop::PostTask), stats are atomics.
#ifndef DPAXOS_NET_TCP_CHAOS_PROXY_H_
#define DPAXOS_NET_TCP_CHAOS_PROXY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/tcp/event_loop.h"
#include "net/tcp/framing.h"
#include "net/tcp/socket_util.h"

namespace dpaxos {

struct ChaosProxyOptions {
  /// Real node endpoints, in NodeId order. listeners()/endpoint(n) give
  /// the proxied addresses after Start().
  std::vector<HostPort> upstreams;
  /// Zone layout (nodes split evenly in NodeId order) for zone-scoped
  /// selectors.
  uint32_t zones = 1;
  uint64_t seed = 1;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  int listen_backlog = 64;
};

/// One direction's fault set. Unset fields (zeros) inject nothing; when
/// several rules match a link, the strongest value per field wins.
struct LinkFault {
  Duration latency = 0;        ///< added to every frame
  Duration jitter = 0;         ///< extra uniform [0, jitter) per frame
  double drop_rate = 0;        ///< per-frame drop probability
  double corrupt_rate = 0;     ///< per-frame bit-flip probability
  uint64_t bytes_per_sec = 0;  ///< bandwidth throttle; 0 = unlimited
  bool partitioned = false;    ///< blackhole every frame
  /// Delay between one side closing and the other side learning it.
  Duration close_delay = 0;
};

/// Matches directed links (src -> dst). Node/zone fields: kAny matches
/// everything, kClient matches external-client endpoints (clients have
/// no node id or zone), >= 0 matches that node/zone exactly.
struct LinkSelector {
  static constexpr int32_t kAny = -1;
  static constexpr int32_t kClient = -2;

  int32_t src_node = kAny;
  int32_t dst_node = kAny;
  int32_t src_zone = kAny;
  int32_t dst_zone = kAny;
};

/// Monotonic counters, snapshot via stats().
struct ChaosProxyStats {
  uint64_t conns_accepted = 0;
  uint64_t conns_closed = 0;
  uint64_t frames_relayed = 0;
  uint64_t bytes_relayed = 0;
  uint64_t frames_dropped = 0;     ///< random (drop_rate) losses
  uint64_t frames_blackholed = 0;  ///< partition losses
  uint64_t frames_corrupted = 0;
  uint64_t frames_delayed = 0;     ///< held for latency/throttle
  uint64_t links_closed = 0;       ///< connections cut by CloseLinks()

  uint64_t total_faults() const {
    return frames_dropped + frames_blackholed + frames_corrupted +
           frames_delayed + links_closed;
  }
};

/// \brief Fault-injecting TCP proxy for a RealCluster.
class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyOptions options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Bind all listeners and start the relay thread.
  Status Start();
  /// Stop the relay thread and close every connection. Idempotent.
  void Stop();

  /// The proxied address for upstream `node` (valid after Start()).
  const HostPort& endpoint(NodeId node) const { return endpoints_[node]; }
  const std::vector<HostPort>& endpoints() const { return endpoints_; }

  /// Install a fault rule on every link matching `selector`; returns a
  /// rule id for RemoveFault. Applies to live and future connections.
  uint64_t AddFault(const LinkSelector& selector, const LinkFault& fault);
  void RemoveFault(uint64_t rule_id);
  void ClearFaults();

  /// Hard-close every live connection whose (either) direction matches
  /// `selector` — reconnect churn without a standing fault.
  void CloseLinks(const LinkSelector& selector);

  ChaosProxyStats stats() const;

 private:
  struct Endpoint {
    bool is_client = true;
    NodeId node = 0;  ///< valid when !is_client
  };

  struct Rule {
    uint64_t id = 0;
    LinkSelector selector;
    LinkFault fault;
  };

  struct DelayedFrame {
    Timestamp deliver_at = 0;
    std::string bytes;
  };

  /// One direction of a proxied connection; writes to its own dst fd.
  struct Flow {
    FrameDecoder decoder;
    std::deque<DelayedFrame> delayed;
    EventId delay_timer = 0;
    Timestamp next_ready = 0;  ///< FIFO + throttle floor for deliver_at
    std::string outbuf;
    size_t outpos = 0;
    bool want_write = false;
  };

  struct ProxyConn {
    uint64_t id = 0;
    NodeId dst_node = 0;
    int client_fd = -1;    ///< accepted side
    int upstream_fd = -1;  ///< dialed side
    bool upstream_up = false;
    bool src_known = false;
    Endpoint src;          ///< accepted peer, identified by its HELLO
    Flow forward;          ///< client -> upstream
    Flow backward;         ///< upstream -> client
    EventId close_timer = 0;
  };

  void ThreadMain();

  void AcceptReady(size_t listener_index);
  void ConnEvent(uint64_t conn_id, bool client_side, uint32_t events);
  void ReadSide(ProxyConn* conn, bool client_side);
  void ProcessFrame(ProxyConn* conn, bool forward, std::string_view body);
  void EnqueueFrame(ProxyConn* conn, bool forward, std::string bytes,
                    Timestamp deliver_at);
  void ArmDelayTimer(uint64_t conn_id, bool forward);
  void FlushFlow(ProxyConn* conn, bool forward);
  void UpdateInterest(ProxyConn* conn, bool client_side);
  void OnSideDown(uint64_t conn_id, bool client_side);
  void CloseConn(uint64_t conn_id);
  ProxyConn* FindConn(uint64_t conn_id);

  ZoneId ZoneOf(NodeId node) const;
  bool Matches(const LinkSelector& selector, const Endpoint& src,
               const Endpoint& dst) const;
  LinkFault EffectiveFault(const Endpoint& src, const Endpoint& dst) const;
  void Corrupt(std::string* bytes);

  ChaosProxyOptions options_;
  EventLoop loop_;
  std::vector<HostPort> endpoints_;
  std::vector<int> listen_fds_;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  std::atomic<uint64_t> next_rule_id_{1};

  // Loop-thread state.
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<ProxyConn>> conns_;
  std::vector<Rule> rules_;

  struct AtomicStats {
    std::atomic<uint64_t> conns_accepted{0};
    std::atomic<uint64_t> conns_closed{0};
    std::atomic<uint64_t> frames_relayed{0};
    std::atomic<uint64_t> bytes_relayed{0};
    std::atomic<uint64_t> frames_dropped{0};
    std::atomic<uint64_t> frames_blackholed{0};
    std::atomic<uint64_t> frames_corrupted{0};
    std::atomic<uint64_t> frames_delayed{0};
    std::atomic<uint64_t> links_closed{0};
  };
  AtomicStats stats_;
};

}  // namespace dpaxos

#endif  // DPAXOS_NET_TCP_CHAOS_PROXY_H_
