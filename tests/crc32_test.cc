// Wire and disk compatibility of the checksummed formats.
//
// Crc32 (common/crc32.h) guards every TCP frame, every WAL record and
// the snapshot envelope, so any change to how it is computed must leave
// every checksum bit-identical. Two kinds of cells pin that down:
//
//   * Equivalence: Crc32 equals a bit-at-a-time reference of the IEEE
//     802.3 reflected CRC for every length 0-1100 at every start offset
//     0-15 of a random buffer (every alignment and tail length of both
//     loops), and for a 1 MiB buffer. Each cell checks both paths:
//     Crc32 itself, which folds inputs of 64 bytes and more when the CPU
//     has carry-less multiply, and the slicing-by-16 loop alone.
//   * Frozen bytes: a client request and reply frame, a node-message
//     frame as TcpTransport puts it on the wire, and a WAL segment
//     holding one record, compared byte for byte with what an earlier
//     build wrote. A frame or record this build writes is one an older
//     build reads, and the reverse.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/random.h"
#include "net/tcp/event_loop.h"
#include "net/tcp/framing.h"
#include "net/tcp/socket_util.h"
#include "net/tcp/tcp_transport.h"
#include "paxos/messages.h"
#include "paxos/wire.h"
#include "storage/env.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "txn/transaction.h"

namespace dpaxos {
namespace {

// The textbook definition: one bit at a time through the reflected
// polynomial. Works on the running register (before the final xor) so
// a caller can extend it byte by byte.
uint32_t ReferenceUpdate(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg & 1) != 0 ? (reg >> 1) ^ 0xEDB88320u : reg >> 1;
  }
  return reg;
}

uint32_t ReferenceCrc32(std::string_view bytes) {
  uint32_t reg = 0xFFFFFFFFu;
  for (char c : bytes) reg = ReferenceUpdate(reg, static_cast<uint8_t>(c));
  return reg ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (char c : bytes) {
    const uint8_t b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Value BatchValue() {
  Transaction txn;
  txn.id = 9;
  txn.client_id = 3;
  txn.seq = 17;
  txn.ops = {Operation::Put("user:42", "edge-value-0123456789"),
             Operation::Put("user:7", "v")};
  return Value::Of(77, EncodeBatch({txn}));
}

// The two paths Crc32 can take. On a CPU without carry-less multiply
// the first is the sliced loop too.
struct CrcPath {
  const char* name;
  uint32_t (*crc)(std::string_view);
};
constexpr CrcPath kPaths[] = {{"Crc32", &Crc32},
                              {"Crc32Sliced", &crc32_internal::Crc32Sliced}};

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLength = 1100;
  constexpr size_t kOffsets = 16;
  const std::string buffer = RandomBytes(kMaxLength + kOffsets, 14);
  for (const CrcPath& path : kPaths) {
    for (size_t offset = 0; offset < kOffsets; ++offset) {
      uint32_t reg = 0xFFFFFFFFu;
      for (size_t length = 0; length <= kMaxLength; ++length) {
        if (length > 0) {
          reg = ReferenceUpdate(
              reg, static_cast<uint8_t>(buffer[offset + length - 1]));
        }
        ASSERT_EQ(path.crc(std::string_view(buffer).substr(offset, length)),
                  reg ^ 0xFFFFFFFFu)
            << path.name << ", offset " << offset << ", length " << length;
      }
    }
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceOnOneMebibyte) {
  const std::string buffer = RandomBytes(1 << 20, 15);
  const uint32_t expected = ReferenceCrc32(buffer);
  for (const CrcPath& path : kPaths) {
    EXPECT_EQ(path.crc(buffer), expected) << path.name;
  }
}

TEST(FrozenBytesTest, ClientRequestAndReplyFrames) {
  ClientRequest req;
  req.request_id = 0x0102030405060708ull;
  req.op = ClientOp::kPut;
  req.key = "user:42";
  req.value = "edge-value-0123456789";
  req.zone = 1;
  EXPECT_EQ(Hex(EncodeClientRequestFrame(req)),
            "3200000023b067230308070605040302010107000000757365723a3432150000"
            "00656467652d76616c75652d3031323334353637383901000000");

  ClientReply reply;
  reply.request_id = 0x0102030405060708ull;
  reply.value = "edge-value-0123456789";
  reply.watermark = 123456;
  reply.redirect = 2;
  EXPECT_EQ(Hex(EncodeClientReplyFrame(reply)),
            "2f000000b739543f0408070605040302010015000000656467652d76616c7565"
            "2d3031323334353637383940e201000000000002000000");
}

// A server frames a round's replies into one buffer: each appended frame
// is the frame EncodeClientReplyFrame returns alone, after whatever the
// buffer already held.
TEST(FrozenBytesTest, ClientReplyFramesAppendIntoOneBuffer) {
  ClientReply reply;
  reply.request_id = 0x0102030405060708ull;
  reply.value = "edge-value-0123456789";
  reply.watermark = 123456;
  reply.redirect = 2;
  std::string staged = "staged";
  AppendClientReplyFrame(reply, &staged);
  ClientReply failed;
  failed.request_id = 9;
  failed.status_code = 5;
  AppendClientReplyFrame(failed, &staged);
  ClientReply put;
  put.request_id = 10;
  put.value = "17";
  put.watermark = 17;
  AppendClientReplyFrame(put, &staged);
  EXPECT_EQ(Hex(staged),
            Hex("staged") +
                "2f000000b739543f0408070605040302010015000000656467652d76616c"
                "75652d3031323334353637383940e201000000000002000000"
                "1a0000003ae7ed2604090000000000000005000000000000000000000000"
                "ffffffff"
                "1c000000d3c73c99040a0000000000000000020000003137110000000000"
                "0000ffffffff");
}

// Node 0's transport dials a raw listener standing in for node 1 and
// sends one decide; the bytes on the socket are its HELLO frame and the
// decide's node-message frame.
TEST(FrozenBytesTest, NodeMessageFrameFromTransport) {
  Result<int> listener = OpenListener(HostPort{"127.0.0.1", 0}, 1);
  if (!listener.ok()) {
    GTEST_SKIP() << "loopback unavailable: " << listener.status().ToString();
  }
  Result<uint16_t> port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());

  EventLoop loop(3);
  TcpTransport node(&loop, 0,
                    {HostPort{"127.0.0.1", 0},
                     HostPort{"127.0.0.1", port.value()}});
  node.set_wire_codec(
      [](const Message& m, std::string* out) { SerializeMessageInto(m, out); },
      [](std::string_view bytes) -> MessagePtr {
        Result<MessagePtr> msg = DeserializeMessage(bytes);
        return msg.ok() ? msg.value() : nullptr;
      });
  node.Send(0, 1, std::make_shared<DecideMsg>(3, 41, BatchValue()));

  const std::string expected =
      "0a0000004803480c01000000000000000000770000000622d367020703000000"
      "29000000000000004d0000000000000055000000000000005500000001000000"
      "0900000000000000030000000000000011000000000000000200000001070000"
      "00757365723a343215000000656467652d76616c75652d303132333435363738"
      "390106000000757365723a370100000076";
  int conn = -1;
  ASSERT_TRUE(loop.RunUntil(
      [&] {
        conn = accept4(listener.value(), nullptr, nullptr, SOCK_NONBLOCK);
        return conn >= 0;
      },
      5 * kSecond));
  std::string bytes;
  loop.RunUntil(
      [&] {
        char buf[4096];
        const ssize_t n = recv(conn, buf, sizeof(buf), 0);
        if (n > 0) bytes.append(buf, static_cast<size_t>(n));
        return 2 * bytes.size() >= expected.size();
      },
      5 * kSecond);
  EXPECT_EQ(Hex(bytes), expected);
  close(conn);
  close(listener.value());
}

TEST(FrozenBytesTest, WalRecord) {
  Env* env = PosixEnv();
  const std::string dir = ::testing::TempDir() + "dpaxos_crc32_wal";
  if (env->FileExists(dir)) {
    Result<std::vector<std::string>> children = env->GetChildren(dir);
    ASSERT_TRUE(children.ok());
    for (const std::string& child : children.value()) {
      ASSERT_TRUE(env->DeleteFile(dir + "/" + child).ok());
    }
  }
  ASSERT_TRUE(env->CreateDir(dir).ok());
  {
    Result<std::unique_ptr<Wal>> wal =
        Wal::Open(env, dir, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    AcceptorRecord record;
    AcceptorJournal* journal = wal.value()->Attach(2, &record);
    AcceptedEntry entry;
    entry.slot = 41;
    entry.ballot = Ballot{5, 1};
    entry.value = BatchValue();
    record.accepted.Put(entry.slot, entry);
    journal->Accepted(entry);
    ASSERT_TRUE(wal.value()->SyncNow().ok());
  }
  Result<std::string> segment =
      env->ReadFileToString(dir + "/" + Wal::SegmentName(1));
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(Hex(segment.value()),
            "8300000049775ead020200000029000000000000000500000000000000010000"
            "00004d0000000000000055000000000000005500000001000000090000000000"
            "000003000000000000001100000000000000020000000107000000757365723a"
            "343215000000656467652d76616c75652d303132333435363738390106000000"
            "757365723a370100000076");
}

}  // namespace
}  // namespace dpaxos
