#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "net/tcp/framing.h"

namespace perfbench {

namespace {

/// Open-loop bound on requests in flight per connection: past it an
/// arrival waits (and the wait is charged to its latency).
constexpr size_t kOpenLoopCap = 4096;
/// How long a phase waits for its in-flight requests after issuing ends.
constexpr int64_t kDrainNs = 5'000'000'000;
constexpr uint8_t kStatusNotFound =
    static_cast<uint8_t>(dpaxos::StatusCode::kNotFound);

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

// --- OpStream ------------------------------------------------------------

OpStream::OpStream(uint64_t seed, double get_fraction, uint32_t key_space)
    : seed_(SplitMix(seed)),
      get_permille_(static_cast<uint32_t>(get_fraction * 1000 + 0.5)),
      key_space_(key_space == 0 ? 1 : key_space) {}

OpStream::Op OpStream::At(uint64_t index) const {
  const uint64_t r = SplitMix(seed_ + index);
  Op op;
  op.get = (r % 1000) < get_permille_;
  op.key = static_cast<uint32_t>((r >> 20) % key_space_);
  return op;
}

std::string OpStream::KeyName(uint32_t key) {
  return "k" + std::to_string(key);
}

std::string OpStream::Value(uint64_t index) const {
  static const char kHex[] = "0123456789abcdef";
  std::string v(kValueBytes, 'x');
  v[0] = 'v';
  for (int i = 0; i < 16; ++i) {
    v[static_cast<size_t>(1 + i)] = kHex[(index >> (60 - 4 * i)) & 0xf];
  }
  uint64_t h = SplitMix(seed_ ^ (index * 0x2545F4914F6CDD1Dull));
  for (size_t i = 17; i < kValueBytes; ++i) {
    v[i] = static_cast<char>('a' + (h % 26));
    h = h / 26 == 0 ? SplitMix(h + i) : h / 26;
  }
  return v;
}

bool OpStream::ParseValueIndex(std::string_view value, uint64_t* index) {
  if (value.size() != kValueBytes || value[0] != 'v') return false;
  uint64_t out = 0;
  for (size_t i = 1; i < 17; ++i) {
    const char c = value[i];
    uint64_t d = 0;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    out = (out << 4) | d;
  }
  *index = out;
  return true;
}

uint64_t OpStream::Fingerprint(uint64_t count) const {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
  };
  for (uint64_t i = 0; i < count; ++i) {
    const Op op = At(i);
    mix(op.get ? "G" : "P");
    mix(KeyName(op.key));
    if (!op.get) mix(Value(i));
  }
  return h;
}

void History::Append(const History& other) {
  puts.insert(puts.end(), other.puts.begin(), other.puts.end());
  reads.insert(reads.end(), other.reads.begin(), other.reads.end());
  indeterminate.insert(indeterminate.end(), other.indeterminate.begin(),
                       other.indeterminate.end());
  mismatched += other.mismatched;
}

// --- Client --------------------------------------------------------------

struct Client::Inflight {
  uint64_t index = 0;
  uint32_t key = 0;
  bool get = false;
  int64_t intended_ns = 0;
  int64_t send_ns = 0;
};

struct Client::Conn {
  size_t slot = 0;
  int fd = -1;
  uint64_t client_id = 0;
  uint64_t next_request = 1;
  dpaxos::FrameDecoder decoder;
  std::string out;
  size_t out_pos = 0;
  bool want_out = false;
  std::unordered_map<uint64_t, Inflight> inflight;
};

Client::Client(dpaxos::HostPort endpoint, uint32_t connections,
               uint64_t client_id_base, uint64_t first_index,
               const OpStream* ops, History* history, Tracer* tracer)
    : endpoint_(std::move(endpoint)),
      client_id_base_(client_id_base),
      next_index_(first_index),
      ops_(ops),
      history_(history),
      tracer_(tracer) {
  for (uint32_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->slot = i;
    conn->client_id = client_id_base_ + i;
    conns_.push_back(std::move(conn));
  }
}

Client::~Client() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  if (timer_fd_ >= 0) close(timer_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

dpaxos::Status Client::Connect() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    return dpaxos::Status::Internal(std::string("epoll/timerfd: ") +
                                    strerror(errno));
  }
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.ptr = nullptr;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint_.port);
  const std::string host =
      endpoint_.host == "localhost" ? "127.0.0.1" : endpoint_.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return dpaxos::Status::InvalidArgument("bad host " + endpoint_.host);
  }
  for (auto& conn : conns_) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 ||
        connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string why = strerror(errno);
      if (fd >= 0) close(fd);
      return dpaxos::Status::Unavailable("connect " + endpoint_.ToString() +
                                         ": " + why);
    }
    dpaxos::SetNoDelay(fd);
    dpaxos::Status st = dpaxos::SetNonBlocking(fd);
    if (!st.ok()) {
      close(fd);
      return st;
    }
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    dpaxos::Hello hello;
    hello.kind = dpaxos::PeerKind::kClient;
    hello.id = conn->client_id;
    conn->out += dpaxos::EncodeHelloFrame(hello);
  }
  return dpaxos::Status::OK();
}

size_t Client::InflightTotal() const {
  size_t n = 0;
  for (const auto& conn : conns_) n += conn->inflight.size();
  return n;
}

size_t Client::LiveConns() const {
  size_t n = 0;
  for (const auto& conn : conns_) n += conn->fd >= 0 ? 1 : 0;
  return n;
}

void Client::Issue(Conn* conn, int64_t intended_ns) {
  Inflight op;
  dpaxos::ClientRequest req;
  req.request_id = conn->next_request++;
  op.index = next_index_++;
  const OpStream::Op next = ops_->At(op.index);
  op.get = next.get;
  op.key = next.key;
  req.op = op.get ? dpaxos::ClientOp::kGet : dpaxos::ClientOp::kPut;
  req.key = OpStream::KeyName(op.key);
  if (!op.get) req.value = ops_->Value(op.index);
  op.intended_ns = intended_ns;
  op.send_ns = NowNs();
  conn->out += dpaxos::EncodeClientRequestFrame(req);
  conn->inflight.emplace(req.request_id, op);
  ++result_->attempted;
  if (spec_->rate > 0) result_->late_ns.push_back(op.send_ns - intended_ns);
}

void Client::Flush(Conn* conn) {
  while (conn->fd >= 0 && conn->out_pos < conn->out.size()) {
    const ssize_t n =
        send(conn->fd, conn->out.data() + conn->out_pos,
             conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_out) {
        conn->want_out = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.ptr = conn;
        epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    OnConnError(conn);
    return;
  }
  conn->out.clear();
  conn->out_pos = 0;
  if (conn->want_out && conn->fd >= 0) {
    conn->want_out = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
}

void Client::Complete(Conn* conn, const Inflight& op, bool ok, uint8_t status,
                      const std::string& value, uint64_t slot,
                      uint64_t request) {
  const int64_t now = NowNs();
  PhaseResult& r = *result_;
  int64_t value_index = -1;
  if (ok && op.get && status == 0) {
    uint64_t idx = 0;
    // A value this benchmark never wrote is recorded as such (-3); the
    // gate then reports it.
    value_index = OpStream::ParseValueIndex(value, &idx)
                      ? static_cast<int64_t>(idx)
                      : -3;
    if (value_index >= 0 && ops_->At(idx).key != op.key) {
      ++history_->mismatched;  // a value written to another key
    }
  }
  if (ok && !op.get && value != std::to_string(slot)) {
    ++history_->mismatched;  // a Put answer carries its slot in both fields
  }
  if (ok) {
    ++r.ok;
    if (op.get) {
      ++r.gets_ok;
      r.get_ns.push_back(now - op.intended_ns);
      history_->reads.push_back(
          {op.key, op.send_ns, now, value_index, slot});
    } else {
      ++r.puts_ok;
      r.put_ns.push_back(now - op.intended_ns);
      history_->puts.push_back({op.key, op.index, slot, now});
    }
    if (now - start_ns_ < spec_->duration_ns) ++r.in_window;
  } else {
    ++r.failed;
    if (!op.get) history_->indeterminate.push_back(op.index);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record(op.get ? "get" : "put", r.span, op.intended_ns, now,
                    (static_cast<uint64_t>(conn->slot) << 40) | request);
  }
}

void Client::Read(Conn* conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string_view body;
      for (;;) {
        const dpaxos::FrameDecoder::Next next = conn->decoder.Pop(&body);
        if (next == dpaxos::FrameDecoder::Next::kNeedMore) break;
        if (next == dpaxos::FrameDecoder::Next::kError) {
          OnConnError(conn);
          return;
        }
        dpaxos::Result<dpaxos::ClientReply> reply =
            dpaxos::ParseClientReply(body);
        if (!reply.ok()) {
          OnConnError(conn);
          return;
        }
        auto it = conn->inflight.find(reply->request_id);
        if (it == conn->inflight.end()) continue;  // abandoned earlier
        const Inflight op = it->second;
        conn->inflight.erase(it);
        const uint8_t status = reply->status_code;
        const bool ok = status == 0 || (op.get && status == kStatusNotFound);
        Complete(conn, op, ok, status, reply->value, reply->watermark,
                 reply->request_id);
        // Closed loop: every answer funds the next request.
        if (issuing_ && spec_->rate <= 0) Issue(conn, NowNs());
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    OnConnError(conn);
    return;
  }
}

void Client::OnConnError(Conn* conn) {
  if (conn->fd < 0) return;
  ++result_->conn_errors;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  conn->fd = -1;
  // In-flight requests die with the connection; they are failures, and
  // their writes are indeterminate.
  for (const auto& [request, op] : conn->inflight) {
    Complete(conn, op, false, 0, std::string(), 0, request);
  }
  conn->inflight.clear();
  conn->out.clear();
  conn->out_pos = 0;
}

void Client::ArmTimer(int64_t when_ns) {
  itimerspec its{};
  if (when_ns != INT64_MAX) {
    its.it_value.tv_sec = when_ns / 1'000'000'000;
    its.it_value.tv_nsec = when_ns % 1'000'000'000;
    if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
      its.it_value.tv_nsec = 1;
    }
  }
  timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
}

PhaseResult Client::Run(const PhaseSpec& spec) {
  PhaseResult r;
  spec_ = &spec;
  result_ = &r;
  start_ns_ = NowNs();
  const int64_t start = start_ns_;
  r.span = tracer_ != nullptr ? tracer_->Begin(spec.name, 0, start) : 0;
  const double cpu0 = ThreadCpuSeconds();
  const bool open = spec.rate > 0;
  const int64_t issue_end = start + spec.duration_ns;
  int64_t next_sample =
      spec.sample ? start + spec.sample_interval_ns : INT64_MAX;
  uint64_t arrivals = 0;
  size_t rr = 0;
  int64_t stop_ns = 0;
  issuing_ = true;

  if (!open) {
    for (auto& conn : conns_) {
      for (uint32_t d = 0; d < spec.depth && conn->fd >= 0; ++d) {
        Issue(conn.get(), start);
      }
    }
  }

  epoll_event events[64];
  for (;;) {
    const int64_t now = NowNs();
    if (issuing_) {
      const bool done = now >= issue_end ||
                        (spec.stop != nullptr &&
                         spec.stop->load(std::memory_order_relaxed));
      if (done || LiveConns() == 0) {
        issuing_ = false;
        stop_ns = now;
      }
    }
    bool blocked = false;
    int64_t next_arrival = INT64_MAX;
    if (issuing_ && open) {
      for (;;) {
        const int64_t intended =
            start + static_cast<int64_t>(static_cast<double>(arrivals) *
                                         1e9 / spec.rate);
        if (intended > now) {
          next_arrival = intended;
          break;
        }
        Conn* picked = nullptr;
        for (size_t probe = 0; probe < conns_.size(); ++probe) {
          Conn* cand = conns_[(rr + probe) % conns_.size()].get();
          if (cand->fd >= 0 && cand->inflight.size() < kOpenLoopCap) {
            picked = cand;
            rr = (rr + probe + 1) % conns_.size();
            break;
          }
        }
        if (picked == nullptr) {
          blocked = true;  // arrears carry over until a reply frees room
          break;
        }
        Issue(picked, intended);
        ++arrivals;
      }
    }
    for (auto& conn : conns_) {
      if (conn->fd >= 0 && !conn->want_out &&
          conn->out_pos < conn->out.size()) {
        Flush(conn.get());
      }
    }
    if (!issuing_ &&
        (InflightTotal() == 0 || now - stop_ns > kDrainNs)) {
      break;
    }
    if (spec.sample && now >= next_sample) {
      spec.sample(now);
      next_sample += spec.sample_interval_ns;
      continue;
    }
    int64_t wake = issuing_ ? issue_end : stop_ns + kDrainNs;
    if (!blocked) wake = std::min(wake, next_arrival);
    wake = std::min(wake, next_sample);
    ArmTimer(wake);
    const int n = epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) continue;  // EINTR
    for (int i = 0; i < n; ++i) {
      Conn* conn = static_cast<Conn*>(events[i].data.ptr);
      if (conn == nullptr) {
        uint64_t expirations = 0;
        ssize_t got = read(timer_fd_, &expirations, sizeof(expirations));
        (void)got;
        continue;
      }
      if (conn->fd < 0) continue;
      if ((events[i].events & EPOLLIN) != 0) Read(conn);
      if (conn->fd >= 0 && (events[i].events & EPOLLOUT) != 0) Flush(conn);
      if (conn->fd >= 0 && (events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        OnConnError(conn);
      }
    }
  }
  // Requests still unanswered after the drain are abandoned as failures.
  for (auto& conn : conns_) {
    for (const auto& [request, op] : conn->inflight) {
      Complete(conn.get(), op, false, 0, std::string(), 0, request);
    }
    conn->inflight.clear();
  }
  r.seconds = static_cast<double>(std::min(stop_ns, issue_end) - start) / 1e9;
  r.cpu_s = ThreadCpuSeconds() - cpu0;
  if (tracer_ != nullptr) tracer_->End(r.span, NowNs());
  spec_ = nullptr;
  result_ = nullptr;
  return r;
}

}  // namespace perfbench
