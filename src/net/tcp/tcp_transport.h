// Real-socket Transport implementation on top of EventLoop.
//
// One listening socket per node accepts both peer-node and external
// client connections; the first frame on every connection is a HELLO
// declaring which (see net/tcp/framing.h). For node traffic each node
// WRITES only on connections it dialed itself and treats accepted node
// connections as receive-only, so a pair of nodes exchanging messages
// holds two sockets — no simultaneous-open coordination, no connection
// ownership tiebreak.
//
// Delivery contract: exactly the Transport::Send contract (may drop, may
// duplicate, no cross-peer ordering). Concretely this implementation
//   * drops the oldest queued frame when a peer's bounded outbound queue
//     overflows (slow/unreachable peer),
//   * drops whatever was queued or half-written when a connection dies,
//   * redials with jittered exponential backoff (the catch-up retry
//     shape: base * 2^attempt * [1,2), capped).
// Paxos tolerates all of this by design; transport_test asserts the
// implementation stays inside the contract under forced disconnects.
//
// Defensive decoding: frames above the max-size cap, zero-length frames,
// undecodable node messages and protocol-order violations (no HELLO
// first, client frames on node connections) close the offending
// connection and count tcp_malformed_frames — never crash, never block
// other peers.
#ifndef DPAXOS_NET_TCP_TCP_TRANSPORT_H_
#define DPAXOS_NET_TCP_TCP_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/tcp/event_loop.h"
#include "net/tcp/framing.h"
#include "net/tcp/socket_util.h"
#include "net/transport.h"

namespace dpaxos {

struct TcpTransportOptions {
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-peer bound on frames awaiting transmission; overflow evicts the
  /// OLDEST frame (UDP-like may-drop, and old consensus traffic is the
  /// least useful to deliver late).
  size_t max_queued_frames = 1024;
  /// Reconnect backoff: base * 2^attempt * [1, 2), capped.
  Duration reconnect_backoff_base = 50 * kMillisecond;
  Duration reconnect_backoff_cap = 2 * kSecond;
  int listen_backlog = 64;
};

/// Instance-level traffic counters (ThreadPerfCounters() mirrors these
/// process-wide; see tcp_* fields in common/perf_counters.h).
struct TcpTransportStats {
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t frames_dropped = 0;
  uint64_t reconnects = 0;
  uint64_t accepts = 0;
  uint64_t malformed_frames = 0;
  uint64_t writev_calls = 0;      ///< gather-write syscalls issued
  /// Frames that shared a syscall: frames written by each call, less
  /// one. A frame split across two calls counts in both.
  uint64_t frames_coalesced = 0;
};

/// \brief TCP Transport for one node of a real cluster.
class TcpTransport final : public Transport {
 public:
  /// `cluster[n]` is node n's listen endpoint; `cluster[self]` is ours.
  /// `loop` must outlive the transport; all calls are loop-thread only.
  TcpTransport(EventLoop* loop, NodeId self, std::vector<HostPort> cluster,
               TcpTransportOptions options = {});
  ~TcpTransport() override;

  /// Wire codec hooks, same shape as SimTransport::set_wire_codec (the
  /// net layer stays independent of the protocol message set). Must be
  /// installed before the first Send/delivery.
  using Encoder = SimTransport::Encoder;
  using Decoder = SimTransport::Decoder;
  void set_wire_codec(Encoder encode, Decoder decode) {
    encode_ = std::move(encode);
    decode_ = std::move(decode);
    last_sent_.reset();
  }

  /// Bind + listen on cluster[self]. Call once before the loop runs.
  Status Listen();
  /// The actually-bound listen port (differs from the spec when the
  /// endpoint was given port 0).
  uint16_t listen_port() const { return listen_port_; }

  // --- Transport ------------------------------------------------------
  void RegisterHandler(NodeId node, Handler handler) override;
  void Send(NodeId from, NodeId to, MessagePtr msg) override;

  // --- external clients ----------------------------------------------
  /// `conn` identifies the client connection for SendClientReply;
  /// `client_id` is the id the client declared in its HELLO (servers tag
  /// transactions with it for exactly-once dedup). The request's key and
  /// value view the received frame: copy what must outlive the call.
  using ClientRequestHandler = std::function<void(
      uint64_t conn, uint64_t client_id, const ClientRequestView&)>;
  void set_client_request_handler(ClientRequestHandler handler) {
    client_handler_ = std::move(handler);
  }
  /// Queue a reply on a client connection; no-op if it already closed.
  /// The reply is framed straight into the connection's staged output,
  /// so the replies of one loop round share a buffer and a gather write.
  void SendClientReply(uint64_t conn, const ClientReply& reply);

  // --- introspection & fault injection -------------------------------
  const TcpTransportStats& stats() const { return stats_; }
  size_t open_connections() const { return conns_.size(); }
  NodeId self() const { return self_; }

  /// Test hook: fix up a peer endpoint after it bound an ephemeral port.
  void UpdatePeerAddress(NodeId node, HostPort addr);

  /// Test hook (forced-disconnect nemesis): hard-close every open
  /// connection. Outbound peers redial with backoff; queued and
  /// half-written frames are dropped, which the Send contract allows.
  void CloseAllConnections();

 private:
  /// Bytes staged for one socket: one frame, or a run of client replies
  /// framed into one buffer. The counters count `frames`, not buffers.
  struct OutBuffer {
    std::string bytes;
    size_t frames = 0;
  };

  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    bool inbound = false;
    bool established = false;  ///< TCP connect completed (outbound)
    bool hello_done = false;   ///< inbound: peer identified itself
    PeerKind kind = PeerKind::kNode;
    uint64_t peer_id = 0;   ///< HELLO id (NodeId or client id)
    NodeId peer_node = 0;   ///< outbound: dialed node
    FrameDecoder decoder;
    /// Buffers staged for this socket, flushed with one gather write per
    /// syscall. outpos is the bytes of the FRONT buffer already written
    /// (partial-write resumption); outq_bytes is the staged total that
    /// bounds refill from the peer queue.
    std::deque<OutBuffer> outq;
    size_t outpos = 0;
    size_t outq_bytes = 0;
    /// Client connections: a written-out reply buffer, kept empty with
    /// its capacity so the next round's replies need no allocation.
    std::string spare;
    bool want_write = false;
    bool flush_scheduled = false;  ///< a flush timer is pending
  };

  /// Per-peer outbound state; survives connection churn (the queue is
  /// what reconnects drain).
  struct PeerState {
    std::deque<std::string> queue;  ///< encoded frames awaiting a socket
    uint64_t conn_id = 0;           ///< current outbound conn, 0 if none
    EventId reconnect_timer = 0;
    uint32_t attempts = 0;       ///< consecutive failed dials
    bool ever_connected = false;  ///< distinguishes connects from reconnects
  };

  void AcceptReady();
  void ConnEvent(uint64_t conn_id, uint32_t events);
  void ReadReady(Conn* conn);
  bool ConsumeFrame(Conn* conn, std::string_view body);
  void FlushConn(Conn* conn);
  /// Arm the per-conn flush timer (no-op if one is already pending). It
  /// fires at the END of the current poll round, so every frame queued
  /// while dispatching one epoll batch shares a single gather write.
  void ScheduleFlush(Conn* conn);
  /// Stage one encoded frame on the conn (counts frames_out).
  void StageFrame(Conn* conn, std::string frame);
  /// The kNodeMessage frame for `msg`, encoded only if `msg` is not the
  /// message the previous call encoded.
  std::string FrameFor(MessagePtr msg);
  void EnsureConnected(NodeId to);
  void OnOutboundUp(Conn* conn);
  void OnConnError(uint64_t conn_id);
  void CloseConn(uint64_t conn_id);
  void ScheduleReconnect(NodeId to);
  Duration ReconnectDelay(uint32_t attempt);
  void MarkMalformed(Conn* conn, const char* why);
  Conn* FindConn(uint64_t conn_id);
  void UpdateWriteInterest(Conn* conn);

  EventLoop* loop_;
  NodeId self_;
  std::vector<HostPort> cluster_;
  TcpTransportOptions options_;
  Handler handler_;
  ClientRequestHandler client_handler_;
  Encoder encode_;
  Decoder decode_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<PeerState> peers_;
  TcpTransportStats stats_;
  /// The last message Send encoded and its frame: a message fanned out
  /// to several peers is encoded and checksummed once. Holding the
  /// pointer keeps the message alive, so no later message can reuse its
  /// address and be mistaken for it.
  MessagePtr last_sent_;
  std::string last_frame_;
  /// Flipped by the destructor so in-flight self-delivery closures
  /// scheduled on the loop become no-ops instead of use-after-free.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dpaxos

#endif  // DPAXOS_NET_TCP_TCP_TRANSPORT_H_
