#include "net/tcp/chaos_proxy.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace dpaxos {

ChaosProxy::ChaosProxy(ChaosProxyOptions options)
    : options_(std::move(options)), loop_(options_.seed) {
  DPAXOS_CHECK(!options_.upstreams.empty());
  DPAXOS_CHECK(options_.zones > 0 &&
               options_.upstreams.size() % options_.zones == 0);
}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  DPAXOS_CHECK(!started_);
  started_ = true;
  for (size_t i = 0; i < options_.upstreams.size(); ++i) {
    Result<int> fd = OpenListener(HostPort{"127.0.0.1", 0},
                                  options_.listen_backlog);
    if (!fd.ok()) return fd.status();
    Result<uint16_t> port = BoundPort(fd.value());
    if (!port.ok()) {
      close(fd.value());
      return port.status();
    }
    listen_fds_.push_back(fd.value());
    endpoints_.push_back(HostPort{"127.0.0.1", port.value()});
    Status st = loop_.WatchFd(fd.value(), EPOLLIN,
                              [this, i](uint32_t) { AcceptReady(i); });
    if (!st.ok()) return st;
  }
  thread_ = std::thread([this] { ThreadMain(); });
  return Status::OK();
}

void ChaosProxy::Stop() {
  if (thread_.joinable()) {
    stop_requested_.store(true, std::memory_order_relaxed);
    loop_.Wakeup();
    thread_.join();
  }
  // The loop thread is gone; tear everything down from here.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
  for (int fd : listen_fds_) {
    loop_.UnwatchFd(fd);
    close(fd);
  }
  listen_fds_.clear();
}

void ChaosProxy::ThreadMain() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    loop_.PollOnce(10 * kMillisecond);
  }
}

uint64_t ChaosProxy::AddFault(const LinkSelector& selector,
                              const LinkFault& fault) {
  const uint64_t id = next_rule_id_.fetch_add(1, std::memory_order_relaxed);
  loop_.PostTask([this, id, selector, fault] {
    rules_.push_back(Rule{id, selector, fault});
  });
  return id;
}

void ChaosProxy::RemoveFault(uint64_t rule_id) {
  loop_.PostTask([this, rule_id] {
    for (size_t i = 0; i < rules_.size(); ++i) {
      if (rules_[i].id == rule_id) {
        rules_.erase(rules_.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
  });
}

void ChaosProxy::ClearFaults() {
  loop_.PostTask([this] { rules_.clear(); });
}

void ChaosProxy::CloseLinks(const LinkSelector& selector) {
  loop_.PostTask([this, selector] {
    std::vector<uint64_t> victims;
    for (const auto& [id, conn] : conns_) {
      const Endpoint node_ep{false, conn->dst_node};
      if (Matches(selector, conn->src, node_ep) ||
          Matches(selector, node_ep, conn->src)) {
        victims.push_back(id);
      }
    }
    for (uint64_t id : victims) {
      ++stats_.links_closed;
      CloseConn(id);
    }
  });
}

ChaosProxyStats ChaosProxy::stats() const {
  ChaosProxyStats s;
  s.conns_accepted = stats_.conns_accepted.load(std::memory_order_relaxed);
  s.conns_closed = stats_.conns_closed.load(std::memory_order_relaxed);
  s.frames_relayed = stats_.frames_relayed.load(std::memory_order_relaxed);
  s.bytes_relayed = stats_.bytes_relayed.load(std::memory_order_relaxed);
  s.frames_dropped = stats_.frames_dropped.load(std::memory_order_relaxed);
  s.frames_blackholed =
      stats_.frames_blackholed.load(std::memory_order_relaxed);
  s.frames_corrupted = stats_.frames_corrupted.load(std::memory_order_relaxed);
  s.frames_delayed = stats_.frames_delayed.load(std::memory_order_relaxed);
  s.links_closed = stats_.links_closed.load(std::memory_order_relaxed);
  return s;
}

ZoneId ChaosProxy::ZoneOf(NodeId node) const {
  const uint32_t nodes_per_zone =
      static_cast<uint32_t>(options_.upstreams.size()) / options_.zones;
  return node / nodes_per_zone;
}

namespace {

bool EndMatches(int32_t want_node, int32_t want_zone, bool is_client,
                NodeId node, ZoneId zone) {
  if (want_node == LinkSelector::kClient || want_zone == LinkSelector::kClient) {
    return is_client;
  }
  if (want_node >= 0 &&
      (is_client || node != static_cast<NodeId>(want_node))) {
    return false;
  }
  if (want_zone >= 0 &&
      (is_client || zone != static_cast<ZoneId>(want_zone))) {
    return false;
  }
  return true;
}

}  // namespace

bool ChaosProxy::Matches(const LinkSelector& selector, const Endpoint& src,
                         const Endpoint& dst) const {
  return EndMatches(selector.src_node, selector.src_zone, src.is_client,
                    src.node, src.is_client ? 0 : ZoneOf(src.node)) &&
         EndMatches(selector.dst_node, selector.dst_zone, dst.is_client,
                    dst.node, dst.is_client ? 0 : ZoneOf(dst.node));
}

LinkFault ChaosProxy::EffectiveFault(const Endpoint& src,
                                     const Endpoint& dst) const {
  LinkFault out;
  for (const Rule& rule : rules_) {
    if (!Matches(rule.selector, src, dst)) continue;
    const LinkFault& f = rule.fault;
    if (f.latency > out.latency) out.latency = f.latency;
    if (f.jitter > out.jitter) out.jitter = f.jitter;
    if (f.drop_rate > out.drop_rate) out.drop_rate = f.drop_rate;
    if (f.corrupt_rate > out.corrupt_rate) out.corrupt_rate = f.corrupt_rate;
    if (f.bytes_per_sec != 0 && (out.bytes_per_sec == 0 ||
                                 f.bytes_per_sec < out.bytes_per_sec)) {
      out.bytes_per_sec = f.bytes_per_sec;
    }
    out.partitioned = out.partitioned || f.partitioned;
    if (f.close_delay > out.close_delay) out.close_delay = f.close_delay;
  }
  return out;
}

void ChaosProxy::Corrupt(std::string* bytes) {
  // Flip 1-3 random bits anywhere in the encoded frame (length prefix
  // included). The receiving FrameDecoder/parsers must reject the
  // damage — that end-to-end property is what chaos_proxy_test pins.
  const uint32_t flips = 1 + static_cast<uint32_t>(loop_.rng().NextBounded(3));
  for (uint32_t i = 0; i < flips; ++i) {
    const size_t pos = loop_.rng().NextBounded(bytes->size());
    (*bytes)[pos] = static_cast<char>(
        (*bytes)[pos] ^ static_cast<char>(1u << loop_.rng().NextBounded(8)));
  }
}

ChaosProxy::ProxyConn* ChaosProxy::FindConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void ChaosProxy::AcceptReady(size_t listener_index) {
  for (;;) {
    const int fd = accept4(listen_fds_[listener_index], nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      DPAXOS_WARN("chaos proxy accept failed: errno=" << errno);
      return;
    }
    SetNoDelay(fd);
    Result<int> upstream = StartConnect(options_.upstreams[listener_index]);
    if (!upstream.ok()) {
      close(fd);
      continue;
    }
    auto conn = std::make_unique<ProxyConn>();
    conn->id = next_conn_id_++;
    conn->dst_node = static_cast<NodeId>(listener_index);
    conn->client_fd = fd;
    conn->upstream_fd = upstream.value();
    conn->forward.decoder = FrameDecoder(options_.max_frame_bytes);
    conn->backward.decoder = FrameDecoder(options_.max_frame_bytes);
    const uint64_t id = conn->id;
    conns_[id] = std::move(conn);
    ++stats_.conns_accepted;
    Status st = loop_.WatchFd(fd, EPOLLIN, [this, id](uint32_t events) {
      ConnEvent(id, /*client_side=*/true, events);
    });
    if (st.ok()) {
      st = loop_.WatchFd(upstream.value(), EPOLLIN | EPOLLOUT,
                         [this, id](uint32_t events) {
                           ConnEvent(id, /*client_side=*/false, events);
                         });
    }
    if (!st.ok()) CloseConn(id);
  }
}

void ChaosProxy::ConnEvent(uint64_t conn_id, bool client_side,
                           uint32_t events) {
  ProxyConn* conn = FindConn(conn_id);
  if (conn == nullptr) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    OnSideDown(conn_id, client_side);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!client_side && !conn->upstream_up) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(conn->upstream_fd, SOL_SOCKET, SO_ERROR, &err, &len) !=
              0 ||
          err != 0) {
        OnSideDown(conn_id, /*client_side=*/false);
        return;
      }
      conn->upstream_up = true;
      SetNoDelay(conn->upstream_fd);
      conn->forward.want_write = false;
      UpdateInterest(conn, /*client_side=*/false);
      FlushFlow(conn, /*forward=*/true);
    } else {
      // EPOLLOUT on a side flushes the flow writing TO that side.
      FlushFlow(conn, /*forward=*/!client_side);
    }
    conn = FindConn(conn_id);  // flush may have torn the conn down
    if (conn == nullptr) return;
  }
  if ((events & EPOLLIN) != 0) ReadSide(conn, client_side);
}

void ChaosProxy::ReadSide(ProxyConn* conn, bool client_side) {
  const uint64_t conn_id = conn->id;
  const int fd = client_side ? conn->client_fd : conn->upstream_fd;
  if (fd < 0) return;
  const bool forward = client_side;  // client bytes flow toward upstream
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      Flow& flow = forward ? conn->forward : conn->backward;
      flow.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string_view body;
      for (;;) {
        const FrameDecoder::Next next = flow.decoder.Pop(&body);
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kError) {
          // The *source* sent an unframeable stream; a proxy cannot relay
          // what it cannot delimit. Tear the connection down.
          OnSideDown(conn_id, client_side);
          return;
        }
        ProcessFrame(conn, forward, body);
        conn = FindConn(conn_id);
        if (conn == nullptr) return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    OnSideDown(conn_id, client_side);  // EOF or hard error
    return;
  }
}

void ChaosProxy::ProcessFrame(ProxyConn* conn, bool forward,
                              std::string_view body) {
  if (forward && !conn->src_known) {
    // First client->upstream frame is the HELLO; decode it passively to
    // learn who dialed us. Unparseable or out-of-range ids stay
    // "client" — the upstream server does its own validation.
    Result<Hello> hello = ParseHello(body);
    conn->src_known = true;
    if (hello.ok() && hello->kind == PeerKind::kNode &&
        hello->id < options_.upstreams.size()) {
      conn->src = Endpoint{false, static_cast<NodeId>(hello->id)};
    } else {
      conn->src = Endpoint{true, 0};
    }
  }
  const Endpoint node_ep{false, conn->dst_node};
  const Endpoint& src = forward ? conn->src : node_ep;
  const Endpoint& dst = forward ? node_ep : conn->src;
  const LinkFault fault = EffectiveFault(src, dst);
  if (fault.partitioned) {
    ++stats_.frames_blackholed;
    return;
  }
  if (fault.drop_rate > 0 && loop_.rng().NextBool(fault.drop_rate)) {
    ++stats_.frames_dropped;
    return;
  }
  std::string bytes;
  AppendFrame(body, &bytes);
  if (fault.corrupt_rate > 0 && loop_.rng().NextBool(fault.corrupt_rate)) {
    Corrupt(&bytes);
    ++stats_.frames_corrupted;
  }
  const Timestamp now = loop_.Now();
  Timestamp deliver_at = now + fault.latency;
  if (fault.jitter > 0) deliver_at += loop_.rng().NextBounded(fault.jitter);
  Flow& flow = forward ? conn->forward : conn->backward;
  if (deliver_at < flow.next_ready) deliver_at = flow.next_ready;
  flow.next_ready = deliver_at;
  if (fault.bytes_per_sec > 0) {
    flow.next_ready +=
        (static_cast<Duration>(bytes.size()) * kSecond) / fault.bytes_per_sec;
  }
  ++stats_.frames_relayed;
  stats_.bytes_relayed += bytes.size();
  EnqueueFrame(conn, forward, std::move(bytes), deliver_at);
}

void ChaosProxy::EnqueueFrame(ProxyConn* conn, bool forward,
                              std::string bytes, Timestamp deliver_at) {
  Flow& flow = forward ? conn->forward : conn->backward;
  if (deliver_at <= loop_.Now() && flow.delayed.empty()) {
    flow.outbuf += bytes;
    FlushFlow(conn, forward);
    return;
  }
  ++stats_.frames_delayed;
  flow.delayed.push_back(DelayedFrame{deliver_at, std::move(bytes)});
  ArmDelayTimer(conn->id, forward);
}

void ChaosProxy::ArmDelayTimer(uint64_t conn_id, bool forward) {
  ProxyConn* conn = FindConn(conn_id);
  if (conn == nullptr) return;
  Flow& flow = forward ? conn->forward : conn->backward;
  if (flow.delay_timer != 0 || flow.delayed.empty()) return;
  flow.delay_timer = loop_.ScheduleAt(
      flow.delayed.front().deliver_at, [this, conn_id, forward] {
        ProxyConn* c = FindConn(conn_id);
        if (c == nullptr) return;
        Flow& f = forward ? c->forward : c->backward;
        f.delay_timer = 0;
        const Timestamp now = loop_.Now();
        while (!f.delayed.empty() && f.delayed.front().deliver_at <= now) {
          f.outbuf += f.delayed.front().bytes;
          f.delayed.pop_front();
        }
        FlushFlow(c, forward);
        ArmDelayTimer(conn_id, forward);
      });
}

void ChaosProxy::FlushFlow(ProxyConn* conn, bool forward) {
  Flow& flow = forward ? conn->forward : conn->backward;
  const int fd = forward ? conn->upstream_fd : conn->client_fd;
  if (fd < 0) {
    // Destination side died; whatever was buffered dies with it.
    flow.outbuf.clear();
    flow.outpos = 0;
    return;
  }
  if (forward && !conn->upstream_up) return;  // connect still in flight
  while (flow.outpos < flow.outbuf.size()) {
    const ssize_t n = send(fd, flow.outbuf.data() + flow.outpos,
                           flow.outbuf.size() - flow.outpos, MSG_NOSIGNAL);
    if (n > 0) {
      flow.outpos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!flow.want_write) {
        flow.want_write = true;
        UpdateInterest(conn, /*client_side=*/!forward);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    OnSideDown(conn->id, /*client_side=*/!forward);
    return;
  }
  flow.outbuf.clear();
  flow.outpos = 0;
  if (flow.want_write) {
    flow.want_write = false;
    UpdateInterest(conn, /*client_side=*/!forward);
  }
}

void ChaosProxy::UpdateInterest(ProxyConn* conn, bool client_side) {
  // Each side is written by exactly one flow: the client fd by the
  // backward flow, the upstream fd by the forward flow.
  const int fd = client_side ? conn->client_fd : conn->upstream_fd;
  if (fd < 0) return;
  const Flow& flow = client_side ? conn->backward : conn->forward;
  loop_.UpdateFd(fd, EPOLLIN | (flow.want_write ? EPOLLOUT : 0u));
}

void ChaosProxy::OnSideDown(uint64_t conn_id, bool client_side) {
  ProxyConn* conn = FindConn(conn_id);
  if (conn == nullptr) return;
  int& fd = client_side ? conn->client_fd : conn->upstream_fd;
  if (fd >= 0) {
    loop_.UnwatchFd(fd);
    close(fd);
    fd = -1;
  }
  if (conn->close_timer != 0) return;  // teardown already scheduled
  // Slow-close: resolve the close_delay from the direction whose source
  // just died, then keep the surviving side dangling for that long.
  const Endpoint node_ep{false, conn->dst_node};
  const Endpoint& src = client_side ? conn->src : node_ep;
  const Endpoint& dst = client_side ? node_ep : conn->src;
  const Duration delay = EffectiveFault(src, dst).close_delay;
  if (delay == 0) {
    CloseConn(conn_id);
    return;
  }
  conn->close_timer =
      loop_.Schedule(delay, [this, conn_id] { CloseConn(conn_id); });
}

void ChaosProxy::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ProxyConn* conn = it->second.get();
  if (conn->close_timer != 0) loop_.Cancel(conn->close_timer);
  if (conn->forward.delay_timer != 0) loop_.Cancel(conn->forward.delay_timer);
  if (conn->backward.delay_timer != 0) {
    loop_.Cancel(conn->backward.delay_timer);
  }
  if (conn->client_fd >= 0) {
    loop_.UnwatchFd(conn->client_fd);
    close(conn->client_fd);
  }
  if (conn->upstream_fd >= 0) {
    loop_.UnwatchFd(conn->upstream_fd);
    close(conn->upstream_fd);
  }
  conns_.erase(it);
  ++stats_.conns_closed;
}

}  // namespace dpaxos
