#include "net/tcp/reactor_pool.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace dpaxos {

namespace {

// Same gather-write batch limits as TcpTransport::FlushConn.
constexpr size_t kMaxIovPerWrite = 64;
constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

ReactorPool::ReactorPool(EventLoop* home, ReactorPoolOptions options)
    : home_(home), options_(options) {
  DPAXOS_CHECK(options_.reactors >= 1);
}

ReactorPool::~ReactorPool() {
  *alive_ = false;
  Stop();
}

void ReactorPool::Start() {
  DPAXOS_CHECK(!started_);
  started_ = true;
  stop_.store(false, kRelaxed);
  pending_replies_.assign(options_.reactors, {});
  shards_.reserve(options_.reactors);
  for (uint32_t i = 0; i < options_.reactors; ++i) {
    auto shard = std::make_unique<Shard>(options_.seed + 0x9e3779b9u * (i + 1));
    shard->index = i;
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([this, raw]() { ReactorMain(raw); });
  }
}

void ReactorPool::Stop() {
  if (!started_) return;
  stop_.store(true, kRelaxed);
  for (auto& shard : shards_) shard->loop.Stop();  // thread-safe wakeup
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Threads are joined: their conns can be torn down from here.
  for (auto& shard : shards_) {
    for (auto& [id, conn] : shard->conns) {
      shard->loop.UnwatchFd(conn->fd);
      close(conn->fd);
    }
    shard->conns.clear();
  }
  shards_.clear();
  pending_replies_.clear();
  started_ = false;
}

void ReactorPool::ReactorMain(Shard* shard) {
  while (!stop_.load(kRelaxed)) {
    if (shard->loop.PollOnce(100 * kMillisecond)) {
      rounds_busy_.fetch_add(1, kRelaxed);
    } else {
      rounds_idle_.fetch_add(1, kRelaxed);
    }
  }
}

ReactorPoolStats ReactorPool::stats() const {
  ReactorPoolStats s;
  s.conns_adopted = conns_adopted_.load(kRelaxed);
  s.bytes_in = bytes_in_.load(kRelaxed);
  s.bytes_out = bytes_out_.load(kRelaxed);
  s.frames_in = frames_in_.load(kRelaxed);
  s.frames_out = frames_out_.load(kRelaxed);
  s.writev_calls = writev_calls_.load(kRelaxed);
  s.frames_coalesced = frames_coalesced_.load(kRelaxed);
  s.malformed_frames = malformed_frames_.load(kRelaxed);
  s.rounds_busy = rounds_busy_.load(kRelaxed);
  s.rounds_idle = rounds_idle_.load(kRelaxed);
  return s;
}

void ReactorPool::Adopt(int fd) {
  if (!started_) {
    close(fd);
    return;
  }
  Shard* shard = shards_[next_shard_ % shards_.size()].get();
  ++next_shard_;
  conns_adopted_.fetch_add(1, kRelaxed);
  shard->loop.PostTask([this, shard, fd]() { AdoptOnReactor(shard, fd); });
}

void ReactorPool::AdoptOnReactor(Shard* shard, int fd) {
  auto conn = std::make_unique<RConn>();
  conn->id = shard->next_conn_id++;
  conn->fd = fd;
  conn->decoder = FrameDecoder(options_.max_frame_bytes);
  const uint64_t id = conn->id;
  shard->conns[id] = std::move(conn);
  Status st = shard->loop.WatchFd(fd, EPOLLIN, [this, shard, id](
                                                   uint32_t events) {
    ConnEvent(shard, id, events);
  });
  if (!st.ok()) CloseConn(shard, id);
}

void ReactorPool::ConnEvent(Shard* shard, uint64_t conn_id, uint32_t events) {
  auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;
  RConn* conn = it->second.get();
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseConn(shard, conn_id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushConn(shard, conn);
    it = shard->conns.find(conn_id);  // flush may have closed it
    if (it == shard->conns.end()) return;
    conn = it->second.get();
  }
  if ((events & EPOLLIN) != 0) ReadReady(shard, conn);
}

void ReactorPool::ReadReady(Shard* shard, RConn* conn) {
  const uint64_t conn_id = conn->id;
  std::vector<InboundItem> batch;
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), kRelaxed);
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string_view body;
      for (;;) {
        const FrameDecoder::Next next = conn->decoder.Pop(&body);
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kError) {
          malformed_frames_.fetch_add(1, kRelaxed);
          CloseConn(shard, conn_id);
          DispatchBatch(std::move(batch));
          return;
        }
        if (!ConsumeFrame(shard, conn, body, &batch)) {
          DispatchBatch(std::move(batch));
          return;  // conn closed
        }
      }
      continue;  // keep draining until EAGAIN
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(shard, conn_id);  // EOF or hard error
    break;
  }
  DispatchBatch(std::move(batch));
}

bool ReactorPool::ConsumeFrame(Shard* shard, RConn* conn,
                               std::string_view body,
                               std::vector<InboundItem>* batch) {
  frames_in_.fetch_add(1, kRelaxed);
  if (!conn->hello_done) {
    Result<Hello> hello = ParseHello(body);
    if (!hello.ok() ||
        (hello->kind == PeerKind::kNode && hello->id >= options_.num_nodes)) {
      malformed_frames_.fetch_add(1, kRelaxed);
      CloseConn(shard, conn->id);
      return false;
    }
    conn->hello_done = true;
    conn->kind = hello->kind;
    conn->peer_id = hello->id;
    return true;
  }
  const FrameType type = static_cast<FrameType>(body[0]);
  switch (type) {
    case FrameType::kNodeMessage: {
      if (conn->kind != PeerKind::kNode) {
        malformed_frames_.fetch_add(1, kRelaxed);
        CloseConn(shard, conn->id);
        return false;
      }
      // Wire decode on the reactor thread (pure function) so the home
      // loop only runs protocol logic on the already-built message.
      MessagePtr msg = decode_(body.substr(1));
      if (msg == nullptr) {
        malformed_frames_.fetch_add(1, kRelaxed);
        CloseConn(shard, conn->id);
        return false;
      }
      InboundItem item;
      item.is_node = true;
      item.from = static_cast<NodeId>(conn->peer_id);
      item.msg = std::move(msg);
      batch->push_back(std::move(item));
      return true;
    }
    case FrameType::kClientRequest: {
      if (conn->kind != PeerKind::kClient) {
        malformed_frames_.fetch_add(1, kRelaxed);
        CloseConn(shard, conn->id);
        return false;
      }
      Result<ClientRequest> req = ParseClientRequest(body);
      if (!req.ok()) {
        malformed_frames_.fetch_add(1, kRelaxed);
        CloseConn(shard, conn->id);
        return false;
      }
      InboundItem item;
      item.conn_token = ReactorConnToken(shard->index, conn->id);
      item.client_id = conn->peer_id;
      item.req = std::move(req.value());
      batch->push_back(std::move(item));
      return true;
    }
    default:
      malformed_frames_.fetch_add(1, kRelaxed);
      CloseConn(shard, conn->id);
      return false;
  }
}

void ReactorPool::DispatchBatch(std::vector<InboundItem> batch) {
  if (batch.empty()) return;
  std::shared_ptr<bool> alive = alive_;
  home_->PostTask([this, alive, batch = std::move(batch)]() mutable {
    if (!*alive) return;
    for (InboundItem& item : batch) {
      if (item.is_node) {
        if (node_handler_) node_handler_(item.from, std::move(item.msg));
      } else {
        if (client_handler_) {
          client_handler_(item.conn_token, item.client_id, item.req);
        }
      }
    }
  });
}

void ReactorPool::SendClientReply(uint64_t conn_token,
                                  const ClientReply& reply) {
  const uint32_t index = ReactorIndexOfToken(conn_token);
  if (!started_ || index >= shards_.size()) return;
  const uint64_t conn_id = conn_token & ((uint64_t{1} << 48) - 1);
  pending_replies_[index].emplace_back(conn_id, EncodeClientReplyFrame(reply));
  ScheduleReplyFlush();
}

void ReactorPool::ScheduleReplyFlush() {
  if (reply_flush_scheduled_) return;
  reply_flush_scheduled_ = true;
  // 0-delay: fires at the end of the current home dispatch round, so all
  // replies produced in the round cross to each reactor as ONE task.
  std::shared_ptr<bool> alive = alive_;
  home_->Schedule(0, [this, alive]() {
    if (!*alive) return;
    reply_flush_scheduled_ = false;
    for (size_t i = 0; i < pending_replies_.size(); ++i) {
      if (pending_replies_[i].empty()) continue;
      auto items = std::move(pending_replies_[i]);
      pending_replies_[i].clear();
      Shard* shard = shards_[i].get();
      shard->loop.PostTask([this, shard, items = std::move(items)]() mutable {
        // Stage everything first, then flush each touched conn once —
        // the batch is the coalescing window.
        for (auto& [conn_id, frame] : items) {
          auto it = shard->conns.find(conn_id);
          if (it == shard->conns.end()) continue;  // client went away
          RConn* conn = it->second.get();
          conn->outq_bytes += frame.size();
          conn->outq.push_back(std::move(frame));
          frames_out_.fetch_add(1, kRelaxed);
        }
        for (auto& [conn_id, frame] : items) {
          (void)frame;
          auto it = shard->conns.find(conn_id);
          if (it == shard->conns.end()) continue;
          if (!it->second->outq.empty()) FlushConn(shard, it->second.get());
        }
      });
    }
  });
}

void ReactorPool::FlushConn(Shard* shard, RConn* conn) {
  for (;;) {
    if (conn->outq.empty()) break;
    iovec iov[kMaxIovPerWrite];
    size_t niov = 0;
    for (const std::string& frame : conn->outq) {
      if (niov == kMaxIovPerWrite) break;
      const size_t skip = niov == 0 ? conn->outpos : 0;
      iov[niov].iov_base = const_cast<char*>(frame.data()) + skip;
      iov[niov].iov_len = frame.size() - skip;
      ++niov;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t n = sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      writev_calls_.fetch_add(1, kRelaxed);
      bytes_out_.fetch_add(static_cast<uint64_t>(n), kRelaxed);
      size_t remaining = static_cast<size_t>(n);
      size_t covered = 0;
      while (remaining > 0) {
        std::string& front = conn->outq.front();
        const size_t left = front.size() - conn->outpos;
        ++covered;
        if (remaining >= left) {
          remaining -= left;
          conn->outq_bytes -= front.size();
          conn->outpos = 0;
          conn->outq.pop_front();
        } else {
          conn->outpos += remaining;
          remaining = 0;
        }
      }
      if (covered > 1) frames_coalesced_.fetch_add(covered - 1, kRelaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        shard->loop.UpdateFd(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(shard, conn->id);
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    shard->loop.UpdateFd(conn->fd, EPOLLIN);
  }
}

void ReactorPool::CloseConn(Shard* shard, uint64_t conn_id) {
  auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;
  shard->loop.UnwatchFd(it->second->fd);
  close(it->second->fd);
  shard->conns.erase(it);
}

}  // namespace dpaxos
