// Length-prefixed, checksummed framing for the real-network runtime.
//
// Stream layout:  repeated [ u32 LE body_length | u32 LE crc32(body) | body ]
// Body layout:    [ u8 FrameType | type-specific fields ]  (LE codec from
// common/codec.h, same primitives as the protocol wire format).
//
// The CRC (common/crc32.h, same IEEE 802.3 checksum as the snapshot
// envelope) exists because a mangled frame that still *decodes* is far
// worse than one that doesn't: a bit-flipped DecideMsg whose fields all
// parse would be learned into one node's decided log and never repaired
// (anti-entropy fills holes, it does not re-audit decided slots). With
// the checksum, any in-flight damage — whether to the header or the
// body — fails the frame and closes the connection, which every caller
// already handles by reconnecting.
//
// Frame types:
//   kHello          — first frame on every connection; declares whether
//                     the peer is a cluster node or an external client
//                     and its id. Node-message frames carry no sender
//                     field: the sender is the connection's HELLO id.
//   kNodeMessage    — one protocol message, encoded by the installed
//                     wire codec (the framing layer never interprets it).
//   kClientRequest  — put/get/stats from an external client.
//   kClientReply    — response matched to the request by request_id.
//
// Defensive decoding: FrameDecoder enforces a max-frame cap and rejects
// zero-length bodies *before* trusting the length prefix — a hostile
// 0xFFFFFFFF prefix can neither drive an allocation nor make the decoder
// read past its buffer — and verifies the body checksum before yielding
// a frame. A decoder error is terminal for the stream (callers close
// the connection); this mirrors the protocol codec's "clean Corruption,
// never crash" contract fuzzed in wire_fuzz_test.
#ifndef DPAXOS_NET_TCP_FRAMING_H_
#define DPAXOS_NET_TCP_FRAMING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dpaxos {

/// Upper bound on a frame body. Generously above the largest legitimate
/// frame (snapshot chunks are ~32 KiB); anything bigger is hostile or
/// corrupt and closes the connection.
inline constexpr uint32_t kDefaultMaxFrameBytes = 8u << 20;

enum class FrameType : uint8_t {
  kHello = 1,
  kNodeMessage = 2,
  kClientRequest = 3,
  kClientReply = 4,
};

enum class PeerKind : uint8_t {
  kNode = 0,
  kClient = 1,
};

/// First frame on every connection.
struct Hello {
  PeerKind kind = PeerKind::kNode;
  uint64_t id = 0;  ///< NodeId for nodes, client id for clients
};

/// Client operation codes (ClientRequest::op).
enum class ClientOp : uint8_t {
  kPut = 1,    ///< replicate key=value through consensus
  kGet = 2,    ///< linearizable read (consensus barrier at the server)
  kStats = 3,  ///< server/runtime introspection (key/value unused)
};

/// On-wire encoding of "no zone declared" / "no redirect" (uint32 max,
/// matching kInvalidZone / kInvalidNode without pulling common/types.h
/// into the wire contract).
inline constexpr uint32_t kInvalidIdWire = 0xffffffffu;

struct ClientRequest {
  uint64_t request_id = 0;  ///< echoed in the reply; unique per connection
  ClientOp op = ClientOp::kPut;
  std::string key;
  std::string value;
  /// Zone the client issues from (feeds the server's per-zone access
  /// statistics in ownership mode; see docs/PROTOCOL.md §ownership).
  /// kInvalidIdWire = unknown, the legacy client default.
  uint32_t zone = kInvalidIdWire;
};

/// A ClientRequest whose key and value view the frame body it was
/// parsed from: valid only as long as that body.
struct ClientRequestView {
  uint64_t request_id = 0;
  ClientOp op = ClientOp::kPut;
  std::string_view key;
  std::string_view value;
  uint32_t zone = kInvalidIdWire;
};

struct ClientReply {
  uint64_t request_id = 0;
  uint8_t status_code = 0;  ///< StatusCode cast to a byte (0 == OK)
  std::string value;
  /// Applied-prefix length the serving node observed when answering.
  /// Reads: the watermark the value was read at (session-guarantee
  /// checking). Writes: the commit slot, 0 on failure.
  uint64_t watermark = 0;
  /// Ownership-directory redirect hint: the node id the client should
  /// talk to for this key's partition (kInvalidIdWire = none). Set on
  /// misdirected requests in ownership mode; the request is still
  /// forwarded and answered, so following the hint is an optimization,
  /// never a correctness requirement.
  uint32_t redirect = kInvalidIdWire;
};

/// Bytes of the frame header: u32 body_length + u32 crc32(body).
inline constexpr size_t kFrameHeaderBytes = 8;

/// Append [length | crc | body] to `out` (body supplied whole).
void AppendFrame(std::string_view body, std::string* out);

/// Framing for a body encoded in place, so its bytes are written once:
/// BeginFrame appends a placeholder header to `out` and returns where
/// the frame starts; append the body after it, then FinishFrame fills in
/// the header's length and checksum.
size_t BeginFrame(std::string* out);
void FinishFrame(size_t frame_start, std::string* out);

std::string EncodeHelloFrame(const Hello& hello);
std::string EncodeClientRequestFrame(const ClientRequest& req);
std::string EncodeClientReplyFrame(const ClientReply& reply);
/// Append the reply's frame to `out` (what EncodeClientReplyFrame
/// returns), so a server frames many replies into one buffer.
void AppendClientReplyFrame(const ClientReply& reply, std::string* out);

/// Parsers take a complete frame BODY (including the leading type byte)
/// and return Corruption on any structural violation, including a
/// mismatched frame type or trailing bytes.
Result<Hello> ParseHello(std::string_view body);
Result<ClientRequest> ParseClientRequest(std::string_view body);
/// ParseClientRequest without the copies: key and value view `body`.
Result<ClientRequestView> ParseClientRequestView(std::string_view body);
Result<ClientReply> ParseClientReply(std::string_view body);

/// \brief Incremental frame splitter over an arbitrary byte stream.
///
/// Pure (no sockets), so the fuzzer drives it directly. Feed() appends
/// received bytes; Pop() yields complete frame bodies in order. Once
/// failed() the decoder stays failed — the caller must drop the
/// connection, since resynchronizing an untrusted stream is hopeless.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(std::string_view bytes);

  enum class Next {
    kFrame,     ///< *body holds the next complete frame body
    kNeedMore,  ///< partial frame buffered; Feed() more bytes
    kError,     ///< stream is poisoned (see error()); close the connection
  };

  /// On kFrame, `*body` views the decoder's internal buffer and stays
  /// valid until the next Feed() or Pop().
  Next Pop(std::string_view* body);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  void Fail(std::string message);

  uint32_t max_frame_bytes_;
  std::string buffer_;
  size_t pos_ = 0;  ///< consumed prefix of buffer_
  bool failed_ = false;
  std::string error_;
};

}  // namespace dpaxos

#endif  // DPAXOS_NET_TCP_FRAMING_H_
