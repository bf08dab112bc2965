// Multi-reactor connection service for NodeServer.
//
// N reactor threads, each running its own EventLoop, own the sockets the
// acceptor hands off (round-robin): they read, frame-decode and
// wire-decode inbound traffic and write replies with the same gather
// (sendmsg) coalescing as TcpTransport. Protocol work stays serialized:
// every decoded node message and client request is posted to the
// replica's HOME loop (EventLoop::PostTask — lock-free MPSC), so Replica
// and the state machine remain single-threaded. One readable event's
// whole drain becomes ONE home task (a batch), amortizing the cross-
// thread handoff the same way the sim's DeliveryBatch pooling amortizes
// dispatch.
//
// Identity: connections served here get tokens with the reactor index in
// the top 16 bits (((reactor+1) << 48) | conn_id), disjoint from
// TcpTransport's conn ids — NodeServer routes SendClientReply on that
// tag. Replies are batched on the home side too: a 0-delay timer folds
// all replies of a home dispatch round into one PostTask per reactor.
//
// Threading contract: Start/Stop/Adopt/SendClientReply and the two
// handlers run on the home thread; everything socket-side runs on the
// owning reactor thread; stats are relaxed atomics readable anywhere.
#ifndef DPAXOS_NET_TCP_REACTOR_POOL_H_
#define DPAXOS_NET_TCP_REACTOR_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/tcp/event_loop.h"
#include "net/tcp/framing.h"
#include "net/transport.h"

namespace dpaxos {

struct ReactorPoolOptions {
  uint32_t reactors = 1;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Cluster size, for validating node HELLO ids (0 rejects all node
  /// peers — client-only pools).
  size_t num_nodes = 0;
  uint64_t seed = 1;
};

/// Aggregated pool counters (one snapshot across all reactors).
struct ReactorPoolStats {
  uint64_t conns_adopted = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t writev_calls = 0;
  uint64_t frames_coalesced = 0;
  uint64_t malformed_frames = 0;
  uint64_t rounds_busy = 0;
  uint64_t rounds_idle = 0;
};

/// \brief Reactor thread pool serving accepted connections.
class ReactorPool {
 public:
  /// `home` is the replica's loop; must outlive the pool.
  ReactorPool(EventLoop* home, ReactorPoolOptions options);
  ~ReactorPool();

  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  /// Decoded node message from a peer connection; runs on the home loop.
  using NodeMessageHandler = std::function<void(NodeId from, MessagePtr msg)>;
  /// Client request with its connection token; runs on the home loop.
  using ClientRequestHandler = std::function<void(
      uint64_t conn_token, uint64_t client_id, const ClientRequest& req)>;

  void set_node_message_handler(NodeMessageHandler handler) {
    node_handler_ = std::move(handler);
  }
  void set_client_request_handler(ClientRequestHandler handler) {
    client_handler_ = std::move(handler);
  }
  /// Wire decoder for node-message bodies. Must be a pure function: it
  /// runs on reactor threads.
  void set_wire_decoder(SimTransport::Decoder decode) {
    decode_ = std::move(decode);
  }

  /// Spawn the reactor threads. Handlers must already be installed.
  void Start();
  /// Stop and join all reactors, closing their connections. Idempotent.
  void Stop();

  /// Take ownership of a freshly accepted fd (nonblocking, NODELAY set)
  /// and pin it to the next reactor round-robin. Home thread.
  void Adopt(int fd);

  /// Queue a reply for a pool-served connection (token from the request
  /// handler). No-op if the connection is gone. Home thread.
  void SendClientReply(uint64_t conn_token, const ClientReply& reply);

  uint32_t reactors() const { return static_cast<uint32_t>(shards_.size()); }
  ReactorPoolStats stats() const;

 private:
  struct RConn {
    uint64_t id = 0;
    int fd = -1;
    bool hello_done = false;
    PeerKind kind = PeerKind::kNode;
    uint64_t peer_id = 0;
    FrameDecoder decoder;
    std::deque<std::string> outq;  ///< staged frames (gather-written)
    size_t outpos = 0;             ///< written bytes of the front frame
    size_t outq_bytes = 0;
    bool want_write = false;
  };

  /// One reactor: loop + thread + the conns pinned to it. The conns map
  /// is touched ONLY by the reactor thread (and by Stop after join).
  struct Shard {
    explicit Shard(uint64_t seed) : loop(seed) {}
    EventLoop loop;
    std::thread thread;
    uint32_t index = 0;
    uint64_t next_conn_id = 1;
    std::unordered_map<uint64_t, std::unique_ptr<RConn>> conns;
  };

  /// One decoded inbound frame, posted home in per-drain batches.
  struct InboundItem {
    bool is_node = false;
    NodeId from = 0;          // node messages
    MessagePtr msg;           // node messages
    uint64_t conn_token = 0;  // client requests
    uint64_t client_id = 0;   // client requests
    ClientRequest req;        // client requests
  };

  void ReactorMain(Shard* shard);
  void AdoptOnReactor(Shard* shard, int fd);
  void ConnEvent(Shard* shard, uint64_t conn_id, uint32_t events);
  void ReadReady(Shard* shard, RConn* conn);
  /// Returns false when the frame poisoned the connection.
  bool ConsumeFrame(Shard* shard, RConn* conn, std::string_view body,
                    std::vector<InboundItem>* batch);
  void DispatchBatch(std::vector<InboundItem> batch);
  void FlushConn(Shard* shard, RConn* conn);
  void CloseConn(Shard* shard, uint64_t conn_id);
  void ScheduleReplyFlush();

  EventLoop* home_;
  ReactorPoolOptions options_;
  NodeMessageHandler node_handler_;
  ClientRequestHandler client_handler_;
  SimTransport::Decoder decode_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint32_t next_shard_ = 0;  ///< round-robin cursor (home thread)
  /// Replies staged per reactor between home flush rounds (home thread).
  std::vector<std::vector<std::pair<uint64_t, std::string>>> pending_replies_;
  bool reply_flush_scheduled_ = false;
  std::atomic<bool> stop_{true};
  bool started_ = false;

  // Pool counters (relaxed; summed into ReactorPoolStats snapshots).
  std::atomic<uint64_t> conns_adopted_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> writev_calls_{0};
  std::atomic<uint64_t> frames_coalesced_{0};
  std::atomic<uint64_t> malformed_frames_{0};
  std::atomic<uint64_t> rounds_busy_{0};
  std::atomic<uint64_t> rounds_idle_{0};
  /// Destructor guard for timers the pool schedules on the home loop.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Token layout: reactor index + 1 in the top 16 bits. TcpTransport conn
/// ids never reach that range, so NodeServer can route replies by tag.
inline uint64_t ReactorConnToken(uint32_t reactor_index, uint64_t conn_id) {
  return (static_cast<uint64_t>(reactor_index + 1) << 48) | conn_id;
}
inline uint32_t ReactorIndexOfToken(uint64_t token) {
  return static_cast<uint32_t>(token >> 48) - 1;
}
inline bool IsReactorConnToken(uint64_t token) { return (token >> 48) != 0; }

}  // namespace dpaxos

#endif  // DPAXOS_NET_TCP_REACTOR_POOL_H_
