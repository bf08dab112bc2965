#include "net/tcp/tcp_transport.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>

#include <cerrno>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/perf_counters.h"

namespace dpaxos {

namespace {

/// Gather-write batch limits: at most this many frames per sendmsg, and
/// refill from the peer queue stops once this many bytes are staged (one
/// flush cannot buffer an unbounded burst in user space).
constexpr size_t kMaxIovPerWrite = 64;
constexpr size_t kFlushSliceBytes = 64 * 1024;
/// Largest frame Send keeps for the next peer of a fan-out.
constexpr size_t kMaxCachedFrameBytes = kFlushSliceBytes;

}  // namespace

TcpTransport::TcpTransport(EventLoop* loop, NodeId self,
                           std::vector<HostPort> cluster,
                           TcpTransportOptions options)
    : loop_(loop),
      self_(self),
      cluster_(std::move(cluster)),
      options_(options),
      peers_(cluster_.size()) {
  DPAXOS_CHECK(self_ < cluster_.size());
}

TcpTransport::~TcpTransport() {
  *alive_ = false;
  for (PeerState& peer : peers_) {
    if (peer.reconnect_timer != 0) loop_->Cancel(peer.reconnect_timer);
  }
  for (auto& [id, conn] : conns_) {
    loop_->UnwatchFd(conn->fd);
    close(conn->fd);
  }
  if (listen_fd_ >= 0) {
    loop_->UnwatchFd(listen_fd_);
    close(listen_fd_);
  }
}

Status TcpTransport::Listen() {
  DPAXOS_CHECK(listen_fd_ < 0);
  Result<int> fd = OpenListener(cluster_[self_], options_.listen_backlog);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  Result<uint16_t> port = BoundPort(listen_fd_);
  if (!port.ok()) return port.status();
  listen_port_ = port.value();
  cluster_[self_].port = listen_port_;
  return loop_->WatchFd(listen_fd_, EPOLLIN,
                        [this](uint32_t) { AcceptReady(); });
}

void TcpTransport::RegisterHandler(NodeId node, Handler handler) {
  DPAXOS_CHECK_MSG(node == self_,
                   "TcpTransport hosts exactly one node per process");
  handler_ = std::move(handler);
}

void TcpTransport::Send(NodeId from, NodeId to, MessagePtr msg) {
  DPAXOS_CHECK(from == self_);
  DPAXOS_CHECK(to < cluster_.size());
  PerfCounters& pc = ThreadPerfCounters();
  ++pc.messages_sent;
  if (to == self_) {
    // Local delivery still goes through the loop (never reentrant into
    // the handler), matching the simulator's loopback asynchrony.
    std::shared_ptr<bool> alive = alive_;
    loop_->Schedule(0, [this, alive, from, msg = std::move(msg)]() {
      if (!*alive || !handler_) return;
      ++ThreadPerfCounters().messages_delivered;
      handler_(from, msg);
    });
    return;
  }
  PeerState& peer = peers_[to];
  if (peer.queue.size() >= options_.max_queued_frames) {
    peer.queue.pop_front();
    ++stats_.frames_dropped;
    ++pc.tcp_frames_dropped;
  }
  peer.queue.push_back(FrameFor(std::move(msg)));
  EnsureConnected(to);
  Conn* conn = FindConn(peer.conn_id);
  // Flush via a timer instead of inline so every Send of the current
  // dispatch round lands in one gather write (the coalescing window).
  if (conn != nullptr && conn->established) ScheduleFlush(conn);
}

std::string TcpTransport::FrameFor(MessagePtr msg) {
  if (msg == last_sent_) return last_frame_;
  DPAXOS_CHECK_MSG(encode_ != nullptr, "wire codec not installed");
  // Encode straight into the frame: the wire bytes are written once and
  // checksummed once, however many peers the message goes to.
  last_frame_.clear();
  const size_t start = BeginFrame(&last_frame_);
  last_frame_.push_back(static_cast<char>(FrameType::kNodeMessage));
  encode_(*msg, &last_frame_);
  FinishFrame(start, &last_frame_);
  if (last_frame_.size() > kMaxCachedFrameBytes) {
    // A catch-up page or snapshot chunk goes to one peer: hand its frame
    // over rather than keep it (and the message) alive in the cache.
    last_sent_.reset();
    return std::exchange(last_frame_, std::string());
  }
  last_sent_ = std::move(msg);
  return last_frame_;
}

void TcpTransport::SendClientReply(uint64_t conn_id,
                                   const ClientReply& reply) {
  Conn* conn = FindConn(conn_id);
  if (conn == nullptr || !conn->inbound || conn->kind != PeerKind::kClient) {
    return;  // client went away; nothing to do
  }
  // Every reply of this round goes into the buffer at the back of the
  // queue (even one partly written: outpos indexes its start), so they
  // leave together without a buffer each.
  if (conn->outq.empty() ||
      conn->outq.back().bytes.size() >= kFlushSliceBytes) {
    conn->outq.push_back(OutBuffer{std::exchange(conn->spare, {}), 0});
  }
  OutBuffer& out = conn->outq.back();
  const size_t before = out.bytes.size();
  AppendClientReplyFrame(reply, &out.bytes);
  ++out.frames;
  conn->outq_bytes += out.bytes.size() - before;
  ++stats_.frames_out;
  ++ThreadPerfCounters().tcp_frames_out;
  ScheduleFlush(conn);
}

void TcpTransport::UpdatePeerAddress(NodeId node, HostPort addr) {
  DPAXOS_CHECK(node < cluster_.size());
  cluster_[node] = std::move(addr);
}

void TcpTransport::CloseAllConnections() {
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) OnConnError(id);
}

TcpTransport::Conn* TcpTransport::FindConn(uint64_t conn_id) {
  if (conn_id == 0) return nullptr;
  auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void TcpTransport::AcceptReady() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      DPAXOS_WARN("accept failed: errno=" << errno);
      return;
    }
    SetNoDelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->inbound = true;
    conn->established = true;
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    const uint64_t id = conn->id;
    conns_[id] = std::move(conn);
    ++stats_.accepts;
    ++ThreadPerfCounters().tcp_accepts;
    Status st = loop_->WatchFd(
        fd, EPOLLIN, [this, id](uint32_t events) { ConnEvent(id, events); });
    if (!st.ok()) CloseConn(id);
  }
}

void TcpTransport::EnsureConnected(NodeId to) {
  PeerState& peer = peers_[to];
  if (peer.conn_id != 0 || peer.reconnect_timer != 0) return;
  Result<int> fd = StartConnect(cluster_[to]);
  if (!fd.ok()) {
    ++peer.attempts;
    ScheduleReconnect(to);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_++;
  conn->fd = fd.value();
  conn->inbound = false;
  conn->hello_done = true;  // outbound: the peer never sends us a HELLO
  conn->peer_node = to;
  conn->decoder = FrameDecoder(options_.max_frame_bytes);
  // EPOLLOUT is armed below to learn when the connect completes;
  // want_write mirrors that so the first idle flush disarms it (a
  // level-triggered EPOLLOUT on a writable socket never sleeps).
  conn->want_write = true;
  const uint64_t id = conn->id;
  peer.conn_id = id;
  conns_[id] = std::move(conn);
  Status st = loop_->WatchFd(
      fd.value(), EPOLLIN | EPOLLOUT,
      [this, id](uint32_t events) { ConnEvent(id, events); });
  if (!st.ok()) OnConnError(id);
}

Duration TcpTransport::ReconnectDelay(uint32_t attempt) {
  const uint32_t exponent = attempt > 6 ? 6 : (attempt == 0 ? 0 : attempt - 1);
  Duration delay = options_.reconnect_backoff_base << exponent;
  delay = static_cast<Duration>(
      static_cast<double>(delay) * (1.0 + loop_->rng().NextDouble()));
  if (delay > options_.reconnect_backoff_cap) {
    delay = options_.reconnect_backoff_cap;
  }
  return delay;
}

void TcpTransport::ScheduleReconnect(NodeId to) {
  PeerState& peer = peers_[to];
  if (peer.reconnect_timer != 0) return;
  std::shared_ptr<bool> alive = alive_;
  peer.reconnect_timer =
      loop_->Schedule(ReconnectDelay(peer.attempts), [this, alive, to]() {
        if (!*alive) return;
        peers_[to].reconnect_timer = 0;
        if (peers_[to].conn_id == 0) EnsureConnected(to);
      });
}

void TcpTransport::OnOutboundUp(Conn* conn) {
  conn->established = true;
  PeerState& peer = peers_[conn->peer_node];
  peer.attempts = 0;
  if (peer.ever_connected) {
    ++stats_.reconnects;
    ++ThreadPerfCounters().tcp_reconnects;
  }
  peer.ever_connected = true;
  Hello hello;
  hello.kind = PeerKind::kNode;
  hello.id = self_;
  StageFrame(conn, EncodeHelloFrame(hello));
  // Flush inline: the HELLO (plus everything queued while dialing) should
  // hit the wire the moment the connect completes, not a timer later.
  FlushConn(conn);
}

void TcpTransport::StageFrame(Conn* conn, std::string frame) {
  conn->outq_bytes += frame.size();
  conn->outq.push_back(OutBuffer{std::move(frame), 1});
  ++stats_.frames_out;
  ++ThreadPerfCounters().tcp_frames_out;
}

void TcpTransport::ScheduleFlush(Conn* conn) {
  if (conn->flush_scheduled) return;
  conn->flush_scheduled = true;
  std::shared_ptr<bool> alive = alive_;
  const uint64_t conn_id = conn->id;
  loop_->Schedule(0, [this, alive, conn_id]() {
    if (!*alive) return;
    Conn* c = FindConn(conn_id);
    if (c == nullptr) return;
    c->flush_scheduled = false;
    if (c->established) FlushConn(c);
  });
}

void TcpTransport::ConnEvent(uint64_t conn_id, uint32_t events) {
  Conn* conn = FindConn(conn_id);
  if (conn == nullptr) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    OnConnError(conn_id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!conn->established) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        OnConnError(conn_id);
        return;
      }
      OnOutboundUp(conn);
    } else {
      FlushConn(conn);
    }
    conn = FindConn(conn_id);  // Flush may have closed it
    if (conn == nullptr) return;
  }
  if ((events & EPOLLIN) != 0) ReadReady(conn);
}

void TcpTransport::ReadReady(Conn* conn) {
  const uint64_t conn_id = conn->id;
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.bytes_in += static_cast<uint64_t>(n);
      ThreadPerfCounters().tcp_bytes_in += static_cast<uint64_t>(n);
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string_view body;
      for (;;) {
        const FrameDecoder::Next next = conn->decoder.Pop(&body);
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kError) {
          MarkMalformed(conn, conn->decoder.error().c_str());
          return;
        }
        if (!ConsumeFrame(conn, body)) return;  // conn closed
        if (FindConn(conn_id) == nullptr) return;
      }
      continue;  // keep draining until EAGAIN
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    OnConnError(conn_id);  // EOF or hard error
    return;
  }
}

bool TcpTransport::ConsumeFrame(Conn* conn, std::string_view body) {
  ++stats_.frames_in;
  ++ThreadPerfCounters().tcp_frames_in;
  const FrameType type = static_cast<FrameType>(body[0]);
  if (conn->inbound && !conn->hello_done) {
    Result<Hello> hello = ParseHello(body);
    if (!hello.ok() ||
        (hello->kind == PeerKind::kNode && hello->id >= cluster_.size())) {
      MarkMalformed(conn, "expected valid HELLO first");
      return false;
    }
    conn->hello_done = true;
    conn->kind = hello->kind;
    conn->peer_id = hello->id;
    return true;
  }
  switch (type) {
    case FrameType::kNodeMessage: {
      if (conn->inbound && conn->kind != PeerKind::kNode) {
        MarkMalformed(conn, "node message on client connection");
        return false;
      }
      DPAXOS_CHECK_MSG(decode_ != nullptr, "wire codec not installed");
      MessagePtr msg = decode_(body.substr(1));
      if (msg == nullptr) {
        MarkMalformed(conn, "undecodable node message");
        return false;
      }
      const NodeId sender = conn->inbound
                                ? static_cast<NodeId>(conn->peer_id)
                                : conn->peer_node;
      ++ThreadPerfCounters().messages_delivered;
      if (handler_) handler_(sender, msg);
      return true;
    }
    case FrameType::kClientRequest: {
      if (!conn->inbound || conn->kind != PeerKind::kClient) {
        MarkMalformed(conn, "client request on node connection");
        return false;
      }
      Result<ClientRequestView> req = ParseClientRequestView(body);
      if (!req.ok()) {
        MarkMalformed(conn, "malformed client request");
        return false;
      }
      if (client_handler_) {
        client_handler_(conn->id, conn->peer_id, req.value());
      }
      return true;
    }
    default:
      MarkMalformed(conn, "unexpected frame type");
      return false;
  }
}

void TcpTransport::MarkMalformed(Conn* conn, const char* why) {
  ++stats_.malformed_frames;
  ++ThreadPerfCounters().tcp_malformed_frames;
  DPAXOS_WARN("tcp: closing conn " << conn->id << ": " << why);
  OnConnError(conn->id);
}

void TcpTransport::FlushConn(Conn* conn) {
  if (!conn->established) return;
  PeerState* peer = (!conn->inbound && conn->kind == PeerKind::kNode)
                        ? &peers_[conn->peer_node]
                        : nullptr;
  PerfCounters& pc = ThreadPerfCounters();
  for (;;) {
    if (peer != nullptr) {
      // Refill in bounded slices so one flush cannot buffer an unbounded
      // burst in user space.
      while (!peer->queue.empty() && conn->outq_bytes < kFlushSliceBytes) {
        std::string frame = std::move(peer->queue.front());
        peer->queue.pop_front();
        StageFrame(conn, std::move(frame));
      }
    }
    if (conn->outq.empty()) break;
    // One gather write covers up to kMaxIovPerWrite staged buffers; the
    // front iovec resumes at outpos after a previous partial write.
    // Buffers leave the deque strictly front-to-back, so coalescing can
    // never reorder what Send queued (transport_test asserts this).
    iovec iov[kMaxIovPerWrite];
    size_t niov = 0;
    for (const OutBuffer& buffer : conn->outq) {
      if (niov == kMaxIovPerWrite) break;
      const size_t skip = niov == 0 ? conn->outpos : 0;
      iov[niov].iov_base = const_cast<char*>(buffer.bytes.data()) + skip;
      iov[niov].iov_len = buffer.bytes.size() - skip;
      ++niov;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    // sendmsg, not writev: the flags argument carries MSG_NOSIGNAL.
    const ssize_t n = sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      ++stats_.writev_calls;
      ++pc.tcp_writev_calls;
      stats_.bytes_out += static_cast<uint64_t>(n);
      pc.tcp_bytes_out += static_cast<uint64_t>(n);
      size_t remaining = static_cast<size_t>(n);
      // Frames this syscall touched: a finished buffer counts all of its
      // frames, one left partly written counts one now (and all of them
      // again when it finishes), so a frame split across calls counts
      // in both, as it would staged alone.
      size_t covered = 0;
      while (remaining > 0) {
        OutBuffer& front = conn->outq.front();
        const size_t left = front.bytes.size() - conn->outpos;
        if (remaining >= left) {
          remaining -= left;
          covered += front.frames;
          conn->outq_bytes -= front.bytes.size();
          conn->outpos = 0;
          if (conn->kind == PeerKind::kClient &&
              front.bytes.capacity() > conn->spare.capacity()) {
            front.bytes.clear();
            conn->spare = std::move(front.bytes);
          }
          conn->outq.pop_front();
        } else {
          ++covered;
          conn->outpos += remaining;
          remaining = 0;
        }
      }
      if (covered > 1) {
        stats_.frames_coalesced += covered - 1;
        pc.tcp_frames_coalesced += covered - 1;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateWriteInterest(conn);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    OnConnError(conn->id);
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    UpdateWriteInterest(conn);
  }
}

void TcpTransport::UpdateWriteInterest(Conn* conn) {
  loop_->UpdateFd(conn->fd,
                  EPOLLIN | (conn->want_write ? EPOLLOUT : 0u));
}

void TcpTransport::OnConnError(uint64_t conn_id) {
  Conn* conn = FindConn(conn_id);
  if (conn == nullptr) return;
  const bool outbound_node = !conn->inbound && conn->kind == PeerKind::kNode;
  const NodeId peer_node = conn->peer_node;
  // Anything staged at or below the socket dies with it — within the
  // Send contract (may drop).
  size_t staged = 0;
  for (const OutBuffer& buffer : conn->outq) staged += buffer.frames;
  stats_.frames_dropped += staged;
  ThreadPerfCounters().tcp_frames_dropped += staged;
  CloseConn(conn_id);
  if (outbound_node) {
    PeerState& peer = peers_[peer_node];
    peer.conn_id = 0;
    ++peer.attempts;
    ScheduleReconnect(peer_node);
  }
}

void TcpTransport::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_->UnwatchFd(it->second->fd);
  close(it->second->fd);
  conns_.erase(it);
}

}  // namespace dpaxos
