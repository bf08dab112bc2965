// Randomized corruption fuzzing of the protocol wire codec: flip bytes,
// truncate, splice and extend serialized messages and assert the decoder
// never crashes, reads out of bounds, or over-allocates — every outcome
// is either a clean Corruption error or a structurally valid message
// that re-serializes without aborting.
//
// The second half applies the same treatment to the real-network framing
// layer (net/tcp/framing.h): the frame splitter and the Hello/Client
// frame parsers face truncations, hostile length prefixes and arbitrary
// chunked garbage, and must fail terminally instead of crashing or
// reading past their buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/tcp/framing.h"
#include "paxos/messages.h"
#include "paxos/wire.h"
#include "wire_specimens.h"

namespace dpaxos {
namespace {

// Every message type twice: its specimen (tests/wire_specimens.h), with
// every field set and every collection filled, and the message built
// from its partition alone, with every field at its default and every
// collection empty.
std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  for (const MessagePtr& msg : WireSpecimens()) {
    corpus.push_back(SerializeMessage(*msg));
  }
#define DPAXOS_DEFAULT_SPECIMEN(Name) \
  corpus.push_back(SerializeMessage(Name##Msg(7)));
  DPAXOS_WIRE_MESSAGES(DPAXOS_DEFAULT_SPECIMEN)
#undef DPAXOS_DEFAULT_SPECIMEN
  return corpus;
}

// Whatever decodes must also re-serialize (SerializeMessage aborts on
// structurally invalid messages, so this asserts structural soundness).
void DecodeMustNotCrash(const std::string& bytes) {
  Result<MessagePtr> decoded = DeserializeMessage(bytes);
  if (decoded.ok()) {
    const std::string reencoded = SerializeMessage(*decoded.value());
    EXPECT_FALSE(reencoded.empty());
  } else {
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireFuzzTest, EveryTruncationRejectsCleanly) {
  for (const std::string& bytes : Corpus()) {
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      DecodeMustNotCrash(bytes.substr(0, cut));
    }
  }
}

TEST(WireFuzzTest, RandomByteFlips) {
  Rng rng(0xF1E2);
  const std::vector<std::string> corpus = Corpus();
  for (int round = 0; round < 4000; ++round) {
    std::string bytes = corpus[rng.NextBounded(corpus.size())];
    const uint32_t flips = 1 + rng.NextBounded(8);
    for (uint32_t f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] =
          static_cast<char>(rng.Next() & 0xff);
    }
    DecodeMustNotCrash(bytes);
  }
}

TEST(WireFuzzTest, RandomSpliceAndExtend) {
  Rng rng(0xBEEF);
  const std::vector<std::string> corpus = Corpus();
  for (int round = 0; round < 2000; ++round) {
    const std::string& a = corpus[rng.NextBounded(corpus.size())];
    const std::string& b = corpus[rng.NextBounded(corpus.size())];
    // Graft a prefix of one message onto a suffix of another, then
    // maybe append garbage.
    std::string bytes = a.substr(0, rng.NextBounded(a.size() + 1)) +
                        b.substr(rng.NextBounded(b.size() + 1));
    if (rng.NextBool(0.3)) {
      std::string tail(rng.NextBounded(32), '\0');
      for (char& c : tail) c = static_cast<char>(rng.Next() & 0xff);
      bytes += tail;
    }
    DecodeMustNotCrash(bytes);
  }
}

TEST(WireFuzzTest, PureGarbageNeverDecodesDangerously) {
  Rng rng(0xD00D);
  for (int round = 0; round < 4000; ++round) {
    std::string garbage(rng.NextBounded(256), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next() & 0xff);
    DecodeMustNotCrash(garbage);
  }
}

// Hostile length prefixes must not drive allocations: a tiny message
// claiming a 4-billion-element vector has to fail on remaining-bytes
// checks, not by reserving gigabytes.
TEST(WireFuzzTest, HostileLengthPrefixes) {
  for (const std::string& bytes : Corpus()) {
    for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
      std::string hostile = bytes;
      hostile[pos] = '\xff';
      hostile[pos + 1] = '\xff';
      hostile[pos + 2] = '\xff';
      hostile[pos + 3] = '\xff';
      DecodeMustNotCrash(hostile);
    }
  }
}

// A hostile peer can put ANY partition id in a StealRequest — the codec
// is partition-agnostic by design (the header carries a raw u32), so the
// decode must succeed structurally and hand the bogus id up unchanged
// for the replica/server layer to drop. What must never happen is a
// crash, a clamp, or a re-encode mismatch.
TEST(WireFuzzTest, HostileStealRequestPartitionIds) {
  const PartitionId hostile_ids[] = {1, 31, 1u << 20, 0x7FFFFFFFu,
                                     0xFFFFFFFFu};
  for (PartitionId p : hostile_ids) {
    StealRequestMsg m(p, Ballot{0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFu},
                      /*zone=*/0xFFFFFFFFu, /*inv=*/false);
    const std::string bytes = SerializeMessage(m);
    Result<MessagePtr> decoded = DeserializeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    auto typed =
        std::dynamic_pointer_cast<const StealRequestMsg>(decoded.value());
    ASSERT_NE(typed, nullptr);
    EXPECT_EQ(typed->partition, p);  // no clamping — rejection is upstairs
    EXPECT_EQ(SerializeMessage(*typed), bytes);
    // Then every truncation and byte-flip of the hostile specimen stays
    // clean too.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      DecodeMustNotCrash(bytes.substr(0, cut));
    }
    for (size_t i = 0; i < bytes.size(); ++i) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x80);
      DecodeMustNotCrash(flipped);
    }
  }
}

// --- framing layer (net/tcp) -------------------------------------------

// A well-formed multi-frame stream covering every frame type.
std::string FramedStream() {
  std::string stream;
  stream += EncodeHelloFrame(Hello{PeerKind::kClient, 42});
  ClientRequest req;
  req.request_id = 7;
  req.op = ClientOp::kPut;
  req.key = "key";
  req.value = std::string(300, 'v');
  stream += EncodeClientRequestFrame(req);
  ClientReply reply;
  reply.request_id = 7;
  reply.status_code = 0;
  reply.value = "12";
  stream += EncodeClientReplyFrame(reply);
  AppendFrame(std::string(1, static_cast<char>(FrameType::kNodeMessage)) +
                  std::string(64, '\x5A'),
              &stream);
  return stream;
}

// Drain a decoder; every popped body must parse-or-reject cleanly.
void DrainDecoder(FrameDecoder& decoder) {
  std::string_view body;
  for (;;) {
    const FrameDecoder::Next next = decoder.Pop(&body);
    if (next != FrameDecoder::Next::kFrame) return;
    ASSERT_FALSE(body.empty());  // zero-length bodies are decoder errors
    // Feed each body to every parser: at most one may accept (the type
    // byte routes), and rejections must be clean Corruption.
    const Result<Hello> hello = ParseHello(body);
    const Result<ClientRequest> request = ParseClientRequest(body);
    const Result<ClientReply> rep = ParseClientReply(body);
    for (const Status& st :
         {hello.status(), request.status(), rep.status()}) {
      if (!st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(FramingFuzzTest, CleanStreamYieldsAllFrames) {
  FrameDecoder decoder;
  decoder.Feed(FramedStream());
  std::string_view body;
  int frames = 0;
  while (decoder.Pop(&body) == FrameDecoder::Next::kFrame) ++frames;
  EXPECT_EQ(frames, 4);
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FramingFuzzTest, ByteAtATimeFeedingIsLossless) {
  const std::string stream = FramedStream();
  FrameDecoder decoder;
  int frames = 0;
  std::string_view body;
  for (char c : stream) {
    decoder.Feed(std::string_view(&c, 1));
    while (decoder.Pop(&body) == FrameDecoder::Next::kFrame) ++frames;
  }
  EXPECT_EQ(frames, 4);
  EXPECT_FALSE(decoder.failed());
}

TEST(FramingFuzzTest, EveryTruncationNeedsMoreOrFails) {
  const std::string stream = FramedStream();
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(stream.substr(0, cut));
    std::string_view body;
    // Must terminate (no livelock) and never crash; a truncated tail is
    // either "need more" or, if the cut bit a length prefix that now
    // reads hostile, a terminal error.
    while (decoder.Pop(&body) == FrameDecoder::Next::kFrame) {
    }
  }
}

TEST(FramingFuzzTest, ZeroLengthFrameIsTerminal) {
  FrameDecoder decoder;
  decoder.Feed(std::string_view("\x00\x00\x00\x00", 4));
  std::string_view body;
  EXPECT_EQ(decoder.Pop(&body), FrameDecoder::Next::kError);
  EXPECT_TRUE(decoder.failed());
  // Failed decoders stay failed even when fed a valid stream.
  decoder.Feed(FramedStream());
  EXPECT_EQ(decoder.Pop(&body), FrameDecoder::Next::kError);
}

TEST(FramingFuzzTest, OversizedLengthPrefixRejectedBeforeBuffering) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  // Claims 0xFFFFFFFF bytes; the decoder must reject on the prefix
  // alone, without waiting for (or allocating) 4 GiB.
  decoder.Feed(std::string_view("\xff\xff\xff\xff", 4));
  std::string_view body;
  EXPECT_EQ(decoder.Pop(&body), FrameDecoder::Next::kError);
  EXPECT_LT(decoder.buffered_bytes(), 64u);
}

TEST(FramingFuzzTest, GarbageLengthPrefixesNeverOverread) {
  Rng rng(0xFA5C);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage(rng.NextBounded(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next() & 0xff);
    FrameDecoder decoder(/*max_frame_bytes=*/4096);
    decoder.Feed(garbage);
    DrainDecoder(decoder);
  }
}

TEST(FramingFuzzTest, FuzzedChunkedStreamNeverCrashes) {
  Rng rng(0xC0FFEE);
  const std::string clean = FramedStream();
  for (int round = 0; round < 1500; ++round) {
    // Start from a clean stream, corrupt a few bytes, then feed it in
    // random-sized chunks — the decoder must stay bounded and sane.
    std::string bytes = clean + clean;
    const uint32_t flips = rng.NextBounded(6);
    for (uint32_t f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] =
          static_cast<char>(rng.Next() & 0xff);
    }
    FrameDecoder decoder;
    size_t fed = 0;
    while (fed < bytes.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng.NextBounded(64), bytes.size() - fed);
      decoder.Feed(std::string_view(bytes).substr(fed, chunk));
      fed += chunk;
      DrainDecoder(decoder);
      if (decoder.failed()) break;
    }
    EXPECT_LE(decoder.buffered_bytes(), bytes.size());
  }
}

TEST(FramingFuzzTest, ParserTruncationsRejectCleanly) {
  const std::string bodies[] = {
      EncodeHelloFrame(Hello{PeerKind::kNode, 3}).substr(kFrameHeaderBytes),
      EncodeClientRequestFrame(ClientRequest{9, ClientOp::kGet, "k", ""})
          .substr(kFrameHeaderBytes),
      EncodeClientReplyFrame(ClientReply{9, 5, "oops"})
          .substr(kFrameHeaderBytes),
  };
  for (const std::string& body : bodies) {
    for (size_t cut = 0; cut <= body.size(); ++cut) {
      const std::string_view slice = std::string_view(body).substr(0, cut);
      const Result<Hello> hello = ParseHello(slice);
      const Result<ClientRequest> request = ParseClientRequest(slice);
      const Result<ClientReply> reply = ParseClientReply(slice);
      int accepted = 0;
      accepted += hello.ok() ? 1 : 0;
      accepted += request.ok() ? 1 : 0;
      accepted += reply.ok() ? 1 : 0;
      if (cut == body.size()) {
        EXPECT_EQ(accepted, 1);  // exactly the matching parser
      } else {
        EXPECT_EQ(accepted, 0);  // truncations satisfy nobody
      }
    }
  }
}

}  // namespace
}  // namespace dpaxos
