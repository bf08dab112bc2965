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
//     frame as TcpTransport puts it on the wire, one specimen of every
//     wire message type (tests/wire_specimens.h), a WAL record of every
//     tag and a checkpoint, compared byte for byte with what an earlier
//     build wrote. A frame or record this build writes is one an older
//     build reads, and the reverse.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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
#include "wire_specimens.h"

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

// Splits a WAL segment into its [u32 len][u32 crc][body] frames.
std::vector<std::string> Frames(std::string_view segment) {
  std::vector<std::string> frames;
  while (segment.size() >= 8) {
    uint32_t len = 0;
    std::memcpy(&len, segment.data(), 4);
    const size_t size = std::min<size_t>(8 + len, segment.size());
    frames.emplace_back(segment.substr(0, size));
    segment.remove_prefix(size);
  }
  return frames;
}

std::string FreshWalDir(const std::string& name) {
  Env* env = PosixEnv();
  const std::string dir = ::testing::TempDir() + name;
  if (env->FileExists(dir)) {
    Result<std::vector<std::string>> children = env->GetChildren(dir);
    EXPECT_TRUE(children.ok());
    for (const std::string& child : children.value()) {
      EXPECT_TRUE(env->DeleteFile(dir + "/" + child).ok());
    }
  }
  EXPECT_TRUE(env->CreateDir(dir).ok());
  return dir;
}

TEST(FrozenBytesTest, WalRecord) {
  Env* env = PosixEnv();
  const std::string dir = FreshWalDir("dpaxos_crc32_wal");
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

// The bytes of each specimen in tests/wire_specimens.h, in tag order.
constexpr const char* kFrozenWire[][2] = {
    {"prepare",
     "01070000002a00000000000000030000001100000000000000020000002a0000"
     "0000000000030000000300000002000000030000000400000029000000000000"
     "0009000000090000000100000009000000010300000000000000020000000500"
     "0000"},
    {"promise",
     "0201000000090000000000000002000000010200000005000000000000000800"
     "000000000000010000004d000000000000000700000000000000070000007061"
     "796c6f61640106000000000000000800000000000000020000004e0000000000"
     "000008000000000000000800000066617374766f746501020000002a00000000"
     "0000000300000003000000020000000300000004000000290000000000000009"
     "0000000900000001000000090000000300000000000000020000000500000004"
     "00000000000000"},
    {"prepare-nack",
     "0301000000030000000000000001000000090000000000000009000000370000"
     "000000000003000000000000000200000005000000"},
    {"propose",
     "040200000005000000000000000100000009000000000000007b000000000000"
     "00030000000000000003000000636d64013f420f000000000001"},
    {"accept",
     "050200000005000000000000000100000009000000000000000140420f000000"
     "0000"},
    {"accept-nack",
     "0603000000010000000000000001000000040000000000000002000000000000"
     "0002000000"},
    {"decide",
     "07030000000b0000000000000005000000000000000700000000000000070000"
     "0064656369646564"},
    {"handoff-request",
     "0804000000"},
    {"relinquish",
     "09040000000600000000000000060000006400000000000000020000002a0000"
     "0000000000030000000300000002000000030000000400000029000000000000"
     "0009000000090000000100000009000000030000000000000002000000050000"
     "00"},
    {"gc-poll",
     "0a01000000"},
    {"gc-poll-reply",
     "0b010000000c0000000000000003000000"},
    {"gc-threshold",
     "0c010000000d0000000000000004000000"},
    {"lz-prepare",
     "0d060000000200000000000000010000000000000001000000"},
    {"lz-promise",
     "0e06000000020000000000000001000000000000000100000001000000000000"
     "000500000004000000"},
    {"lz-propose",
     "0f06000000020000000000000001000000000000000100000005000000"},
    {"lz-accept",
     "1006000000020000000000000001000000000000000100000005000000"},
    {"lz-nack",
     "1106000000020000000000000001000000000000000100000002000000000000"
     "000200000003000000000000000200000005000000"},
    {"lz-transition",
     "1206000000020000000000000006000000"},
    {"lz-transition-ack",
     "13060000000200000000000000020000002a0000000000000003000000030000"
     "0002000000030000000400000029000000000000000900000009000000010000"
     "0009000000"},
    {"lz-store-intents",
     "1406000000020000000000000006000000020000002a00000000000000030000"
     "0003000000020000000300000004000000290000000000000009000000090000"
     "000100000009000000"},
    {"lz-store-ack",
     "15060000000200000000000000"},
    {"lz-announce",
     "160600000003000000000000000200000005000000"},
    {"forward",
     "1702000000370000000000000009000000000000000300000000000000030000"
     "00667764"},
    {"forward-reply",
     "1802000000370000000000000004030000000000000011000000"},
    {"learn-request",
     "19050000002a0000000000000000010000"},
    {"learn-reply",
     "1a050000002a00000000000000020000002a0000000000000001000000000000"
     "00010000000000000001000000612b0000000000000002000000000000000200"
     "0000000000000200000062632c000000000000002800000000000000"},
    {"snapshot-request",
     "1b050000000010000000000000"},
    {"heartbeat",
     "1d08000000040000000000000004000000"},
    {"snapshot-chunk",
     "1e050000000900000000000000800000000000000000020000000000000e0000"
     "00736e617073686f742d6279746573"},
    {"fast-accept",
     "1f02000000070000000000000001000000370000000000000009000000000000"
     "000500000000000000050000006661737476"},
    {"fast-accepted",
     "2002000000070000000000000001000000290000000000000004000000370000"
     "000000000009000000000000000500000000000000050000006661737476"},
    {"fast-nack",
     "2102000000070000000000000001000000080000000000000002000000370000"
     "000000000003000000"},
    {"fast-grant",
     "2202000000070000000000000001000000280000000000000003000000010000"
     "000400000009000000"},
    {"steal-request",
     "23030000000c00000000000000040000000600000001"},
    {"ownership-grant",
     "240300000001020c000000000000000400000058000000000000005700000000"
     "0000000104000000"},
};

TEST(FrozenBytesTest, EveryWireMessageType) {
  const std::vector<MessagePtr> specimens = WireSpecimens();
  ASSERT_EQ(specimens.size(), std::size(kFrozenWire));
  for (size_t i = 0; i < specimens.size(); ++i) {
    const auto& [name, hex] = kFrozenWire[i];
    EXPECT_STREQ(specimens[i]->TypeName(), name);
    const std::string bytes = SerializeMessage(*specimens[i]);
    EXPECT_EQ(Hex(bytes), hex) << name;
    // Every field is set, so a decoder that drops or misreads one
    // re-encodes different bytes.
    Result<MessagePtr> decoded = DeserializeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    EXPECT_EQ(Hex(SerializeMessage(*decoded.value())), hex) << name;
  }
}

// One record of every tag, journaled in one batch, then the checkpoint
// that folds them into one image.
constexpr const char* kFrozenWalRecords[] = {
    "1100000087ed49fe0102000000090000000000000002000000",
    "2f00000069d09063020200000029000000000000000500000000000000010000"
    "0000290000000000000001000000000000000100000076",
    "2f00000039bd9d3702020000002a000000000000000500000000000000010000"
    "00012a0000000000000001000000000000000100000076",
    "25000000a4ac362d0302000000010000002a0000000000000003000000030000"
    "00020000000300000004000000",
    "19000000246f326c0402000000060000000000000001000000e7030000000000"
    "00",
    "110000007a9485360502000000040000000000000004000000",
    "1d000000fa90d26a060200000007000000000000000200000006000000000000"
    "0002000000",
    "05000000e75d3b610902000000",
    "190000006e6938900702000000280000000000000008000000656e76656c6f70"
    "65",
    "0d00000069287dd008020000001e00000000000000",
};
constexpr const char* kFrozenWalCheckpoint =
    "e500000009d90c4b0a0200000009000000000000000200000007000000000000"
    "0002000000060000000000000002000000040000000000000004000000060000"
    "000000000001000000e70300000000000028000000000000001e000000000000"
    "00010000000000000008000000656e76656c6f7065010000002a000000000000"
    "0003000000030000000200000003000000040000000200000029000000000000"
    "0005000000000000000100000000290000000000000001000000000000000100"
    "0000762a00000000000000050000000000000001000000012a00000000000000"
    "01000000000000000100000076";

TEST(FrozenBytesTest, WalRecordOfEveryTagAndCheckpoint) {
  Env* env = PosixEnv();
  const std::string dir = FreshWalDir("dpaxos_crc32_wal_tags");
  AcceptorRecord record;
  {
    Result<std::unique_ptr<Wal>> wal =
        Wal::Open(env, dir, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    AcceptorJournal* journal = wal.value()->Attach(2, &record);
    record.promised = Ballot{9, 2};
    journal->Promised(record.promised);
    for (SlotId slot : {41, 42}) {
      const AcceptedEntry entry{slot, Ballot{5, 1}, Value::Of(slot, "v"),
                                slot == 42};
      record.accepted.Put(slot, entry);
      journal->Accepted(entry);
    }
    record.intents = {Intent{Ballot{42, 3}, 3, {3, 4}}};
    journal->IntentsChanged(record.intents);
    record.lease_ballot = Ballot{6, 1};
    record.lease_until = 999;
    journal->LeaseGranted(record.lease_ballot, record.lease_until);
    record.relinquish_consumed = Ballot{4, 4};
    journal->RelinquishConsumed(record.relinquish_consumed);
    record.max_propose_ballot = Ballot{7, 2};
    record.max_recovered_ballot = Ballot{6, 2};
    journal->GcBallots(record.max_propose_ballot, record.max_recovered_ballot);
    journal->SnapshotDropped();
    record.snapshot_through = 40;
    record.snapshot_bytes = "envelope";
    journal->SnapshotStored(record.snapshot_through, record.snapshot_bytes);
    record.accepted.ReleaseBelow(30);
    record.compacted_through = 30;
    journal->PrefixReleased(30);
    ASSERT_TRUE(wal.value()->SyncNow().ok());
    Result<std::string> deltas =
        env->ReadFileToString(dir + "/" + Wal::SegmentName(1));
    ASSERT_TRUE(deltas.ok());
    const std::vector<std::string> frames = Frames(deltas.value());
    ASSERT_EQ(frames.size(), std::size(kFrozenWalRecords));
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(Hex(frames[i]), kFrozenWalRecords[i]) << "record " << i;
    }
    // The checkpoint starts segment 2 and deletes segment 1.
    ASSERT_TRUE(wal.value()->Checkpoint().ok());
  }
  Result<std::string> checkpoint =
      env->ReadFileToString(dir + "/" + Wal::SegmentName(2));
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(Hex(checkpoint.value()), kFrozenWalCheckpoint);

  // The checkpoint reads back as the record it folded.
  Result<std::unique_ptr<Wal>> reopened =
      Wal::Open(env, dir, WalOptions{}, nullptr);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto recovered = reopened.value()->TakeRecovered();
  ASSERT_EQ(recovered.count(2), 1u);
  const AcceptorRecord& got = *recovered[2];
  EXPECT_EQ(got.promised, record.promised);
  EXPECT_EQ(got.intents, record.intents);
  EXPECT_EQ(got.lease_ballot, record.lease_ballot);
  EXPECT_EQ(got.lease_until, record.lease_until);
  EXPECT_EQ(got.relinquish_consumed, record.relinquish_consumed);
  EXPECT_EQ(got.max_propose_ballot, record.max_propose_ballot);
  EXPECT_EQ(got.max_recovered_ballot, record.max_recovered_ballot);
  EXPECT_EQ(got.snapshot_through, record.snapshot_through);
  EXPECT_EQ(got.snapshot_bytes, record.snapshot_bytes);
  EXPECT_EQ(got.compacted_through, record.compacted_through);
  ASSERT_EQ(got.accepted.size(), 2u);
  ASSERT_NE(got.accepted.Find(42), nullptr);
  EXPECT_TRUE(got.accepted.Find(42)->fast);
  EXPECT_EQ(got.accepted.Find(42)->value, Value::Of(42, "v"));
}

}  // namespace
}  // namespace dpaxos
