// ChaosProxy tests (realnet tier): point a blocking TcpClient at the
// proxy, back the proxy with an in-process framed echo server, and
// assert each fault class does what its knob says — relay fidelity,
// added latency, drops, partitions, bandwidth throttling, corruption
// caught downstream by the FrameDecoder/parsers, and CloseLinks churn.
//
// Wall-clock timing and real sockets, hence the realnet configuration.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp/chaos_proxy.h"
#include "net/tcp/framing.h"
#include "net/tcp/socket_util.h"
#include "net/tcp/tcp_client.h"

namespace dpaxos {
namespace {

constexpr Duration kCallTimeout = 2 * kSecond;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// AddFault/RemoveFault/ClearFaults apply asynchronously on the proxy's
// loop thread; give the command queue a beat before relying on the rule
// set (the loop wakes immediately, 50ms is generous).
void SettleFaults() { usleep(50 * 1000); }

// Minimal blocking framed server: answers every ClientRequest with
// "<key>=<value>" and counts frames the decoder or parsers reject —
// the downstream detector the corruption fault is specified against.
class FramedEchoServer {
 public:
  FramedEchoServer() {
    Result<int> listener = OpenListener(HostPort{"127.0.0.1", 0}, 16);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listen_fd_ = listener.value();
    // OpenListener hands back a nonblocking fd for event loops; this
    // server blocks in accept/recv, so undo that.
    fcntl(listen_fd_, F_SETFL, fcntl(listen_fd_, F_GETFL) & ~O_NONBLOCK);
    Result<uint16_t> port = BoundPort(listen_fd_);
    EXPECT_TRUE(port.ok());
    port_ = port.value();
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~FramedEchoServer() { Stop(); }

  void Stop() {
    if (accept_thread_.joinable()) {
      // shutdown wakes the blocked accept(); the fd is closed only once
      // the accept thread, which reads it, has exited.
      shutdown(listen_fd_, SHUT_RDWR);
      accept_thread_.join();
      close(listen_fd_);
    }
    std::vector<std::thread> conns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns.swap(conn_threads_);
    }
    for (std::thread& t : conns) {
      if (t.joinable()) t.join();
    }
  }

  HostPort endpoint() const { return HostPort{"127.0.0.1", port_}; }
  uint64_t decode_errors() const { return decode_errors_.load(); }
  uint64_t frames_served() const { return frames_served_.load(); }

 private:
  void AcceptLoop() {
    for (;;) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lock(mu_);
      conn_threads_.emplace_back([this, fd] { ServeConn(fd); });
    }
  }

  void ServeConn(int fd) {
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    FrameDecoder decoder;
    char buf[4096];
    bool dead = false;
    while (!dead) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string_view body;
      for (;;) {
        FrameDecoder::Next next = decoder.Pop(&body);
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kError) {
          decode_errors_.fetch_add(1);
          dead = true;
          break;
        }
        if (!HandleFrame(fd, body)) {
          decode_errors_.fetch_add(1);
          dead = true;
          break;
        }
      }
    }
    close(fd);
  }

  // False on any frame the parsers reject (poisoned stream: drop it,
  // exactly like the real transport does).
  bool HandleFrame(int fd, std::string_view body) {
    if (body.empty()) return false;
    switch (static_cast<FrameType>(body[0])) {
      case FrameType::kHello:
        return ParseHello(body).ok();
      case FrameType::kClientRequest: {
        Result<ClientRequest> req = ParseClientRequest(body);
        if (!req.ok()) return false;
        ClientReply reply;
        reply.request_id = req.value().request_id;
        reply.status_code = 0;
        reply.value = req.value().key + "=" + req.value().value;
        std::string out = EncodeClientReplyFrame(reply);
        size_t sent = 0;
        while (sent < out.size()) {
          ssize_t n = send(fd, out.data() + sent, out.size() - sent,
                           MSG_NOSIGNAL);
          if (n <= 0) return false;
          sent += static_cast<size_t>(n);
        }
        frames_served_.fetch_add(1);
        return true;
      }
      default:
        return false;
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::thread> conn_threads_;
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> frames_served_{0};
};

struct ProxyFixture {
  explicit ProxyFixture(uint64_t seed = 7) {
    ChaosProxyOptions options;
    options.upstreams = {server.endpoint()};
    options.seed = seed;
    proxy = std::make_unique<ChaosProxy>(options);
    EXPECT_TRUE(proxy->Start().ok());
  }
  ~ProxyFixture() { proxy->Stop(); }

  FramedEchoServer server;
  std::unique_ptr<ChaosProxy> proxy;
};

Result<ClientReply> Echo(TcpClient& client, const std::string& key,
                         const std::string& value) {
  return client.Call(ClientOp::kPut, key, value, kCallTimeout);
}

TEST(ChaosProxyTest, CleanRelayIsTransparent) {
  ProxyFixture fx;
  TcpClient client(42);
  ASSERT_TRUE(client.Connect(fx.proxy->endpoint(0), kCallTimeout).ok());
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i);
    Result<ClientReply> reply = Echo(client, key, "v");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().value, key + "=v");
  }
  ChaosProxyStats stats = fx.proxy->stats();
  // hello + 20 requests forward, 20 replies back.
  EXPECT_GE(stats.frames_relayed, 41u);
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.frames_corrupted, 0u);
  EXPECT_EQ(fx.server.decode_errors(), 0u);
}

TEST(ChaosProxyTest, LatencyFaultDelaysRoundTrips) {
  ProxyFixture fx;
  TcpClient client(42);
  ASSERT_TRUE(client.Connect(fx.proxy->endpoint(0), kCallTimeout).ok());
  ASSERT_TRUE(Echo(client, "warm", "up").ok());

  LinkFault fault;
  fault.latency = 80 * kMillisecond;  // both directions -> >=160ms RTT
  fx.proxy->AddFault(LinkSelector{}, fault);
  SettleFaults();

  const int64_t start = NowMs();
  ASSERT_TRUE(Echo(client, "slow", "path").ok());
  const int64_t elapsed = NowMs() - start;
  EXPECT_GE(elapsed, 150) << "latency fault not applied";
  EXPECT_GT(fx.proxy->stats().frames_delayed, 0u);

  fx.proxy->ClearFaults();
  SettleFaults();
  const int64_t start2 = NowMs();
  ASSERT_TRUE(Echo(client, "fast", "again").ok());
  EXPECT_LT(NowMs() - start2, 150);
}

TEST(ChaosProxyTest, FullDropRateStarvesTheLink) {
  ProxyFixture fx;
  TcpClient client(42);
  ASSERT_TRUE(client.Connect(fx.proxy->endpoint(0), kCallTimeout).ok());
  ASSERT_TRUE(Echo(client, "warm", "up").ok());

  LinkFault fault;
  fault.drop_rate = 1.0;
  const uint64_t rule = fx.proxy->AddFault(LinkSelector{}, fault);
  SettleFaults();
  Result<ClientReply> lost =
      client.Call(ClientOp::kPut, "k", "v", 300 * kMillisecond);
  EXPECT_FALSE(lost.ok());
  EXPECT_GT(fx.proxy->stats().frames_dropped, 0u);

  fx.proxy->RemoveFault(rule);
  SettleFaults();
  // Same connection survives: drops are silent, not resets. The timed-out
  // request's late-arriving id was dropped, so the next call just works.
  Result<ClientReply> again = Echo(client, "k2", "v2");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().value, "k2=v2");
}

TEST(ChaosProxyTest, PartitionBlackholesUntilHealed) {
  ProxyFixture fx;
  TcpClient client(42);
  ASSERT_TRUE(client.Connect(fx.proxy->endpoint(0), kCallTimeout).ok());
  ASSERT_TRUE(Echo(client, "warm", "up").ok());

  LinkFault fault;
  fault.partitioned = true;
  LinkSelector to_node;
  to_node.src_node = LinkSelector::kClient;
  to_node.dst_node = 0;
  const uint64_t rule = fx.proxy->AddFault(to_node, fault);
  SettleFaults();

  Result<ClientReply> blocked =
      client.Call(ClientOp::kPut, "k", "v", 300 * kMillisecond);
  EXPECT_FALSE(blocked.ok());
  EXPECT_GT(fx.proxy->stats().frames_blackholed, 0u);

  fx.proxy->RemoveFault(rule);
  SettleFaults();
  Result<ClientReply> healed = Echo(client, "k2", "v2");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
}

TEST(ChaosProxyTest, ThrottlePacesBulkTransfer) {
  ProxyFixture fx;
  TcpClient client(42);
  ASSERT_TRUE(client.Connect(fx.proxy->endpoint(0), kCallTimeout).ok());
  ASSERT_TRUE(Echo(client, "warm", "up").ok());

  LinkFault fault;
  fault.bytes_per_sec = 4000;
  LinkSelector forward;
  forward.src_node = LinkSelector::kClient;
  fx.proxy->AddFault(forward, fault);
  SettleFaults();

  // ~2.4 KB of request frames through a 4 KB/s pipe: >=400ms of pacing
  // even after the first frame rides the initially-empty bucket.
  const std::string payload(760, 'x');
  const int64_t start = NowMs();
  for (int i = 0; i < 3; ++i) {
    Result<ClientReply> reply = Echo(client, "bulk", payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  EXPECT_GE(NowMs() - start, 350);
  EXPECT_GT(fx.proxy->stats().frames_delayed, 0u);
}

TEST(ChaosProxyTest, CorruptionIsCaughtDownstream) {
  ProxyFixture fx(/*seed=*/11);
  LinkFault fault;
  fault.corrupt_rate = 1.0;
  LinkSelector forward;
  forward.src_node = LinkSelector::kClient;
  fx.proxy->AddFault(forward, fault);
  SettleFaults();

  // Every forward frame gets 1-3 bit flips somewhere in [len|body]. The
  // echo server must reject the stream via FrameDecoder or parser —
  // never crash, never echo silently-corrupt frames forever. A flipped
  // length prefix can also just desynchronize the stream (the decoder
  // waits in kNeedMore for a bogus length), so pump a whole burst of
  // frames raw — no reply waiting — until the garbage trips a decoder
  // or parser error (seeded rng, deterministic).
  Result<int> raw = StartConnect(fx.proxy->endpoint(0));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const int fd = raw.value();
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  usleep(20 * 1000);  // let the nonblocking connect finish

  std::string burst = EncodeHelloFrame(Hello{PeerKind::kClient, 999});
  for (int i = 0; i < 200; ++i) {
    ClientRequest req;
    req.request_id = static_cast<uint64_t>(i + 1);
    req.op = ClientOp::kPut;
    req.key = "k" + std::to_string(i);
    req.value = "vvvvvvvvvvvvvvvv";
    burst += EncodeClientRequestFrame(req);
  }
  size_t sent = 0;
  while (sent < burst.size()) {
    ssize_t n = send(fd, burst.data() + sent, burst.size() - sent,
                     MSG_NOSIGNAL);
    if (n <= 0) break;  // server already cut the poisoned stream
    sent += static_cast<size_t>(n);
  }

  bool rejected = false;
  for (int i = 0; i < 100 && !rejected; ++i) {
    rejected = fx.server.decode_errors() > 0;
    usleep(20 * 1000);
  }
  close(fd);
  EXPECT_TRUE(rejected) << "corrupted frames were never rejected";
  EXPECT_GT(fx.proxy->stats().frames_corrupted, 0u);
}

TEST(ChaosProxyTest, RelaysCoalescedMultiFrameReads) {
  // Regression for the sender-side writev coalescing: a single send()
  // carrying HELLO plus a whole batch of request frames must relay
  // through the proxy with every frame boundary intact — one coalesced
  // read is not one frame.
  ProxyFixture fx;
  Result<int> raw = StartConnect(fx.proxy->endpoint(0));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const int fd = raw.value();
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  struct timeval rcv_timeout = {0, 200 * 1000};  // bound recv, not the test
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout, sizeof(rcv_timeout));
  usleep(20 * 1000);  // let the nonblocking connect finish

  constexpr int kRequests = 50;
  std::string burst = EncodeHelloFrame(Hello{PeerKind::kClient, 777});
  for (int i = 0; i < kRequests; ++i) {
    ClientRequest req;
    req.request_id = static_cast<uint64_t>(i + 1);
    req.op = ClientOp::kPut;
    req.key = "batch" + std::to_string(i);
    req.value = "v" + std::to_string(i);
    burst += EncodeClientRequestFrame(req);
  }
  size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t n = send(fd, burst.data() + sent, burst.size() - sent,
                           MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }

  // Every request gets echoed: the server decoded all frames from the
  // coalesced stream and none were rejected.
  FrameDecoder decoder;
  std::set<uint64_t> replied;
  char buf[4096];
  for (int spin = 0;
       static_cast<int>(replied.size()) < kRequests && spin < 150; ++spin) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      usleep(10 * 1000);
      continue;
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    std::string_view body;
    while (decoder.Pop(&body) == FrameDecoder::Next::kFrame) {
      Result<ClientReply> reply = ParseClientReply(body);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      const uint64_t id = reply.value().request_id;
      EXPECT_EQ(reply.value().value,
                "batch" + std::to_string(id - 1) + "=v" +
                    std::to_string(id - 1));
      replied.insert(id);
    }
    ASSERT_FALSE(decoder.failed()) << decoder.error();
  }
  close(fd);
  EXPECT_EQ(replied.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(fx.server.decode_errors(), 0u);
  EXPECT_EQ(fx.server.frames_served(), static_cast<uint64_t>(kRequests));
}

TEST(ChaosProxyTest, CloseLinksCutsLiveConnections) {
  ProxyFixture fx;
  TcpClient client(42);
  ASSERT_TRUE(client.Connect(fx.proxy->endpoint(0), kCallTimeout).ok());
  ASSERT_TRUE(Echo(client, "warm", "up").ok());

  fx.proxy->CloseLinks(LinkSelector{});
  // The cut may land mid-call or before the next one; either way the
  // old connection is dead within a bounded number of attempts.
  bool saw_failure = false;
  for (int i = 0; i < 5 && !saw_failure; ++i) {
    saw_failure = !client.Call(ClientOp::kPut, "k", "v", 500 * kMillisecond)
                       .ok();
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_GT(fx.proxy->stats().links_closed, 0u);

  // Reconnecting through the proxy works immediately.
  TcpClient fresh(43);
  ASSERT_TRUE(fresh.Connect(fx.proxy->endpoint(0), kCallTimeout).ok());
  EXPECT_TRUE(Echo(fresh, "post", "cut").ok());
}

}  // namespace
}  // namespace dpaxos
