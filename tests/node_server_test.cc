// Batched serving in NodeServer, in-process over loopback: pipelined
// requests share consensus slots, yet per-key order and read-your-writes
// hold, Gets keep the dedup window bounded, a submit that fails inline
// answers every request waiting on it, and `stats` counts client bytes.
//
// The test thread drives the servers' loops and a raw pipelining client
// built on the public framing, so each burst of requests lands in one
// write.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "harness/node_server.h"
#include "harness/real_cluster.h"
#include "net/tcp/framing.h"
#include "net/tcp/socket_util.h"

namespace dpaxos {
namespace {

constexpr auto kWait = std::chrono::seconds(10);

/// One connection that queues requests and writes each burst at once.
class PipelinedClient {
 public:
  PipelinedClient(uint16_t port, uint64_t client_id) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    // The listener's backlog completes the handshake before the server
    // loop accepts, so a blocking connect returns at once.
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        SetNonBlocking(fd_).ok();
    SetNoDelay(fd_);
    out_ = EncodeHelloFrame(Hello{PeerKind::kClient, client_id});
  }
  ~PipelinedClient() { close(fd_); }
  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;

  bool connected() const { return connected_; }

  uint64_t Put(const std::string& key, const std::string& value) {
    return Queue(ClientOp::kPut, key, value);
  }
  uint64_t Get(const std::string& key) {
    return Queue(ClientOp::kGet, key, "");
  }
  uint64_t Stats() { return Queue(ClientOp::kStats, "", ""); }

  /// Send what is queued, read what has arrived.
  void Pump() {
    while (!out_.empty()) {
      const ssize_t n = send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n <= 0) break;  // socket buffer full; the next Pump resumes
      out_.erase(0, static_cast<size_t>(n));
      bytes_written_ += static_cast<uint64_t>(n);
    }
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      bytes_read_ += static_cast<uint64_t>(n);
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string_view body;
      while (decoder_.Pop(&body) == FrameDecoder::Next::kFrame) {
        Result<ClientReply> reply = ParseClientReply(body);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        const uint64_t id = reply.value().request_id;
        arrivals_.push_back(id);
        if (!replies_.emplace(id, std::move(reply).value()).second) {
          ++duplicate_replies_;
        }
      }
    }
  }

  bool Answered(uint64_t id) const { return replies_.count(id) > 0; }
  const ClientReply& Reply(uint64_t id) const { return replies_.at(id); }
  /// Request ids in the order their replies arrived.
  const std::vector<uint64_t>& arrivals() const { return arrivals_; }
  size_t replies() const { return replies_.size(); }
  int duplicate_replies() const { return duplicate_replies_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  uint64_t Queue(ClientOp op, const std::string& key,
                 const std::string& value) {
    ClientRequest req;
    req.request_id = next_id_++;
    req.op = op;
    req.key = key;
    req.value = value;
    out_ += EncodeClientRequestFrame(req);
    return req.request_id;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string out_;
  uint64_t next_id_ = 1;
  FrameDecoder decoder_;
  std::map<uint64_t, ClientReply> replies_;
  std::vector<uint64_t> arrivals_;
  int duplicate_replies_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
};

class NodeServerTest : public ::testing::Test {
 protected:
  /// A Multi-Paxos cluster of `size` nodes (two is the smallest that
  /// elects over the network), node 0 the leader hint. `live` picks which
  /// nodes run now (StartNode starts the others later); `tweak` adjusts
  /// each node's options.
  void StartCluster(const std::vector<NodeId>& live,
                    const std::function<void(NodeServerOptions*)>& tweak =
                        [](NodeServerOptions*) {},
                    size_t size = 2) {
    Result<std::vector<uint16_t>> ports = PickFreeLoopbackPorts(size);
    ASSERT_TRUE(ports.ok()) << ports.status().ToString();
    cluster_.clear();
    for (uint16_t port : ports.value()) cluster_.push_back({"127.0.0.1", port});
    tweak_ = tweak;
    servers_.resize(cluster_.size());
    for (NodeId n : live) StartNode(n);
  }

  void StartNode(NodeId n) {
    NodeServerOptions options;
    options.node = n;
    options.cluster = cluster_;
    options.mode = ProtocolMode::kMultiPaxos;
    options.leader_hint = 0;
    options.catchup_on_start = false;
    options.anti_entropy_interval = 0;
    tweak_(&options);
    servers_[n] = std::make_unique<NodeServer>(std::move(options));
    ASSERT_TRUE(servers_[n]->Start().ok());
  }

  NodeServer& server(NodeId n) { return *servers_[n]; }

  /// Drive every live server and the clients until `done` or the wait
  /// runs out. Returns whether `done` held.
  bool Spin(const std::vector<PipelinedClient*>& clients,
            const std::function<bool()>& done,
            std::chrono::steady_clock::duration wait = kWait) {
    const auto deadline = std::chrono::steady_clock::now() + wait;
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      for (auto& s : servers_) {
        if (s != nullptr) s->loop().PollOnce(0);
      }
      for (PipelinedClient* client : clients) client->Pump();
    }
    return true;
  }
  bool Spin(PipelinedClient& client, const std::function<bool()>& done,
            std::chrono::steady_clock::duration wait = kWait) {
    return Spin(std::vector<PipelinedClient*>{&client}, done, wait);
  }

  bool SpinUntilAnswered(PipelinedClient& client,
                         const std::vector<uint64_t>& ids) {
    return Spin(client, [&] {
      for (uint64_t id : ids) {
        if (!client.Answered(id)) return false;
      }
      return true;
    });
  }

  std::vector<HostPort> cluster_;
  std::function<void(NodeServerOptions*)> tweak_;
  std::vector<std::unique_ptr<NodeServer>> servers_;
};

uint8_t Code(StatusCode code) { return static_cast<uint8_t>(code); }

// prefix + n, appended rather than `"k" + std::to_string(n)`, which
// GCC 12 at -O3 misreports as an overlapping memcpy (-Wrestrict).
std::string Name(const char* prefix, int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

TEST_F(NodeServerTest, PipelinedPutsShareSlots) {
  StartCluster({0, 1});
  PipelinedClient client(server(0).listen_port(), 11);
  ASSERT_TRUE(client.connected());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(client.Put(Name("k", i), Name("v", i)));
  }
  ASSERT_TRUE(SpinUntilAnswered(client, ids));
  std::set<uint64_t> slots;
  for (uint64_t id : ids) {
    const ClientReply& reply = client.Reply(id);
    ASSERT_EQ(reply.status_code, Code(StatusCode::kOk)) << reply.value;
    // A Put's answer carries its commit slot in both fields.
    EXPECT_EQ(reply.value, std::to_string(reply.watermark));
    slots.insert(reply.watermark);
  }
  EXPECT_LT(slots.size(), ids.size());
  EXPECT_EQ(client.duplicate_replies(), 0);
}

TEST_F(NodeServerTest, PutsToOneKeyTakeSlotsInSendOrder) {
  StartCluster({0, 1});
  PipelinedClient client(server(0).listen_port(), 12);
  ASSERT_TRUE(client.connected());
  // The first Put goes out alone; the two Puts to "k" arrive while it is
  // in flight, so only the one-Put-per-key rule can part them.
  const uint64_t other = client.Put("other", "x");
  const uint64_t first = client.Put("k", "first");
  const uint64_t second = client.Put("k", "second");
  ASSERT_TRUE(SpinUntilAnswered(client, {other, first, second}));
  for (uint64_t id : {other, first, second}) {
    ASSERT_EQ(client.Reply(id).status_code, Code(StatusCode::kOk));
  }
  EXPECT_LT(client.Reply(first).watermark, client.Reply(second).watermark);

  const uint64_t read = client.Get("k");
  ASSERT_TRUE(SpinUntilAnswered(client, {read}));
  ASSERT_EQ(client.Reply(read).status_code, Code(StatusCode::kOk));
  EXPECT_EQ(client.Reply(read).value, "second");
}

TEST_F(NodeServerTest, PipelinedPutsToOneKeyShareRoundsInSendOrder) {
  StartCluster({0, 1});
  PipelinedClient client(server(0).listen_port(), 21);
  ASSERT_TRUE(client.connected());
  const uint64_t warm = client.Put("warm", "x");
  ASSERT_TRUE(SpinUntilAnswered(client, {warm}));
  const uint64_t writes_before = server(0).transport().stats().writev_calls;

  // Every Put after the first closes the batch before it, so each one
  // takes a slot of its own; the closed batches go out together and
  // their replies share the leader's writes.
  constexpr int kPuts = 500;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kPuts; ++i) ids.push_back(client.Put("k", Name("v", i)));
  ASSERT_TRUE(SpinUntilAnswered(client, ids));
  const uint64_t writes =
      server(0).transport().stats().writev_calls - writes_before;

  const std::vector<uint64_t> arrivals(client.arrivals().begin() + 1,
                                       client.arrivals().end());
  EXPECT_EQ(arrivals, ids);
  SlotId last = client.Reply(warm).watermark;
  for (uint64_t id : ids) {
    ASSERT_EQ(client.Reply(id).status_code, Code(StatusCode::kOk));
    EXPECT_GT(client.Reply(id).watermark, last) << "request " << id;
    last = client.Reply(id).watermark;
  }
  // One batch in flight at a time would flush every reply alone.
  EXPECT_LT(writes, static_cast<uint64_t>(kPuts / 8));
  EXPECT_EQ(client.duplicate_replies(), 0);
}

TEST_F(NodeServerTest, PipelinedGetSeesEarlierPutOnFollower) {
  StartCluster({0, 1});
  // Through the follower: a forwarded batch's reply reaches it before
  // the decide, so a Get sharing a batch with the Put would read the
  // state from before that batch.
  PipelinedClient client(server(1).listen_port(), 13);
  ASSERT_TRUE(client.connected());
  const uint64_t warm = client.Put("warm", "x");
  ASSERT_TRUE(SpinUntilAnswered(client, {warm}));
  ASSERT_EQ(client.Reply(warm).status_code, Code(StatusCode::kOk));

  const uint64_t other = client.Put("other", "y");
  const uint64_t put = client.Put("k", "mine");
  const uint64_t get = client.Get("k");
  ASSERT_TRUE(SpinUntilAnswered(client, {other, put, get}));
  ASSERT_EQ(client.Reply(put).status_code, Code(StatusCode::kOk));
  ASSERT_EQ(client.Reply(get).status_code, Code(StatusCode::kOk))
      << client.Reply(get).value;
  EXPECT_EQ(client.Reply(get).value, "mine");
  EXPECT_GT(client.Reply(get).watermark, client.Reply(put).watermark);
}

TEST_F(NodeServerTest, LocalBatchesDoNotStarveForwardedOnes) {
  StartCluster({0, 1});
  PipelinedClient local(server(0).listen_port(), 18);
  PipelinedClient remote(server(1).listen_port(), 19);
  ASSERT_TRUE(local.connected() && remote.connected());
  const uint64_t warm = remote.Put("warm", "x");
  ASSERT_TRUE(SpinUntilAnswered(remote, {warm}));
  // Puts to one key take a batch each, so the leader has a long queue of
  // local batches when the follower's forwarded batch reaches it.
  constexpr int kLocal = 2000;
  std::vector<uint64_t> local_ids;
  for (int i = 0; i < kLocal; ++i) {
    local_ids.push_back(local.Put("hot", Name("v", i)));
  }
  const uint64_t forwarded = remote.Put("cold", "y");
  ASSERT_TRUE(Spin({&local, &remote}, [&] {
    return remote.Answered(forwarded) && local.Answered(local_ids.back());
  }));
  ASSERT_EQ(remote.Reply(forwarded).status_code, Code(StatusCode::kOk));
  // A decide hands its freed slot to the forwarded batch before the next
  // local batch goes out, so the forwarded Put does not wait for the
  // whole local queue.
  EXPECT_LT(remote.Reply(forwarded).watermark,
            local.Reply(local_ids[kLocal / 2]).watermark);
}

TEST_F(NodeServerTest, GetsKeepTheDedupWindowFlat) {
  StartCluster({0, 1});
  PipelinedClient client(server(0).listen_port(), 14);
  ASSERT_TRUE(client.connected());
  // Alternating Puts and Gets over a fixed key set with fixed-size
  // values: the state's size is constant, so only the client's dedup
  // window could grow.
  constexpr int kOps = 10000;
  constexpr int kBurst = 200;
  size_t early = 0;
  char value[16];
  for (int op = 0; op < kOps; op += kBurst) {
    std::vector<uint64_t> ids;
    for (int i = op; i < op + kBurst; ++i) {
      const std::string key = Name("k", i % 16);
      snprintf(value, sizeof(value), "v%06d", i);
      ids.push_back(i % 2 == 0 ? client.Put(key, value) : client.Get(key));
    }
    ASSERT_TRUE(SpinUntilAnswered(client, ids));
    for (uint64_t id : ids) {
      const uint8_t code = client.Reply(id).status_code;
      ASSERT_TRUE(code == Code(StatusCode::kOk) ||
                  code == Code(StatusCode::kNotFound));
    }
    if (op == 0) early = server(0).kv().SerializeFull().size();
  }
  EXPECT_EQ(server(0).kv().SerializeFull().size(), early);
}

TEST_F(NodeServerTest, DecidedVolumeTriggersCompaction) {
  // No sweep timer: only the payload decided since the last compaction
  // outgrowing the last snapshot can compact the log.
  constexpr uint64_t kRetained = 8;
  StartCluster({0, 1}, [](NodeServerOptions* options) {
    options->replica.enable_compaction = true;
    options->replica.compaction_retained_suffix = kRetained;
  });
  PipelinedClient client(server(0).listen_port(), 16);
  ASSERT_TRUE(client.connected());
  const std::string value(64, 'v');
  for (int burst = 0; burst < 20; ++burst) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(client.Put(Name("k", i % 16), value));
    }
    ASSERT_TRUE(SpinUntilAnswered(client, ids));
  }
  // Let the last posted compaction run.
  Spin(client, [] { return false; }, std::chrono::milliseconds(20));
  const Replica& leader = *server(0).replica();
  EXPECT_GT(leader.counters().log_compactions, 0u);
  // Each batch here carries more payload than the 16-key snapshot, so
  // the log keeps little beyond the retained suffix.
  EXPECT_LE(leader.DecidedWatermark() - leader.log_start(), 2 * kRetained);
}

TEST_F(NodeServerTest, SnapshotBehindTheAppliedStateIsNotInstalled) {
  // Three nodes, so 0 and 1 commit without 2.
  StartCluster({0, 1}, [](NodeServerOptions*) {}, 3);
  PipelinedClient client(server(0).listen_port(), 17);
  ASSERT_TRUE(client.connected());
  const uint64_t put = client.Put("k", "v");
  ASSERT_TRUE(SpinUntilAnswered(client, {put}));
  ASSERT_EQ(client.Reply(put).status_code, Code(StatusCode::kOk));
  ASSERT_TRUE(
      Spin(client, [&] { return server(1).kv().Get("k").has_value(); }));

  // A fresh node 2 serves an empty snapshot; node 1 has applied past it.
  StartNode(2);
  bool done = false;
  server(1).replica()->CatchUpViaSnapshot({2}, [&](const Status&) {
    done = true;
  });
  ASSERT_TRUE(Spin(client, [&] { return done; }));
  EXPECT_EQ(server(1).kv().Get("k"), std::optional<std::string>("v"));
}

TEST_F(NodeServerTest, StatsCountClientTraffic) {
  StartCluster({0, 1});
  PipelinedClient client(server(0).listen_port(), 20);
  ASSERT_TRUE(client.connected());
  // Reads of one large value: the replies dwarf the peer traffic, so
  // tcp_bytes_out covers them only if bytes sent to clients count.
  std::vector<uint64_t> ids = {client.Put("big", std::string(4096, 'x'))};
  for (int i = 0; i < 200; ++i) ids.push_back(client.Get("big"));
  ASSERT_TRUE(SpinUntilAnswered(client, ids));
  for (uint64_t id : ids) {
    ASSERT_EQ(client.Reply(id).status_code, Code(StatusCode::kOk));
  }
  const uint64_t written = client.bytes_written();
  const uint64_t read = client.bytes_read();
  const uint64_t stats = client.Stats();
  ASSERT_TRUE(SpinUntilAnswered(client, {stats}));
  const std::string& line = client.Reply(stats).value;
  EXPECT_GE(strtoull(StatsField(line, "tcp_bytes_in").c_str(), nullptr, 10),
            written)
      << line;
  EXPECT_GE(strtoull(StatsField(line, "tcp_bytes_out").c_str(), nullptr, 10),
            read)
      << line;
}

TEST_F(NodeServerTest, InlineSubmitFailureAnswersEveryWaiter) {
  // Only node 1 runs, and it may not elect itself: its first batch is
  // forwarded to the dead leader hint and waits out the forward timeout
  // while the rest of the burst joins the next batch.
  StartCluster({1}, [](NodeServerOptions* options) {
    options->replica.auto_elect_on_submit = false;
    options->replica.propose_timeout = 500 * kMillisecond;
    options->replica.max_propose_retries = 0;
  });
  PipelinedClient client(server(1).listen_port(), 15);
  ASSERT_TRUE(client.connected());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(client.Put(Name("k", i), "v"));
  ids.push_back(client.Get("k0"));
  Spin(client, [] { return false; }, std::chrono::milliseconds(100));
  // With no leader hint left, the next batch's submit fails inside the
  // submit loop, once the first batch's forward times out.
  server(1).replica()->set_leader_hint(kInvalidNode);
  ASSERT_TRUE(SpinUntilAnswered(client, ids));
  EXPECT_EQ(client.Reply(ids[0]).status_code, Code(StatusCode::kTimedOut))
      << client.Reply(ids[0]).value;
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(client.Reply(ids[i]).status_code,
              Code(StatusCode::kFailedPrecondition))
        << "request " << ids[i] << ": " << client.Reply(ids[i]).value;
  }
  EXPECT_EQ(client.duplicate_replies(), 0);

  // The window is free again: a later request is answered too.
  const uint64_t later = client.Put("k9", "v");
  ASSERT_TRUE(SpinUntilAnswered(client, {later}));
  EXPECT_EQ(client.Reply(later).status_code,
            Code(StatusCode::kFailedPrecondition));
}

}  // namespace
}  // namespace dpaxos
