#include "paxos/wire.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "common/codec.h"
#include "common/perf_counters.h"
#include "paxos/messages.h"
#include "paxos/wire_layout.h"

namespace dpaxos {

namespace {

/// tag (u8) + partition (u32).
constexpr size_t kWireHeaderBytes = 5;

// The switches below are generated from DPAXOS_WIRE_MESSAGES and have no
// default: a WireType missing from the list fails the build.
#pragma GCC diagnostic push
#pragma GCC diagnostic error "-Wswitch"

/// Encode the body (everything after the tag+partition header) of `msg`,
/// whose dynamic type is identified by `type` (its wire_tag()). The tag
/// was placed on each message by its own class, so the static_cast per
/// case is exact.
template <typename W>
void EncodeBody(W& w, const Message& msg, WireType type) {
  WireOut<W> out(w);
  switch (type) {
#define DPAXOS_ENCODE_CASE(Name)             \
  case WireType::k##Name:                    \
    out(static_cast<const Name##Msg&>(msg)); \
    return;
    DPAXOS_WIRE_MESSAGES(DPAXOS_ENCODE_CASE)
#undef DPAXOS_ENCODE_CASE
  }
  DPAXOS_CHECK_MSG(false, "unserializable message " << msg.TypeName());
}

template <typename T>
Result<MessagePtr> DecodeBody(ByteReader& r, PartitionId partition) {
  auto msg = std::make_shared<T>(partition);
  if (!WireIn(r)(*msg)) return Status::Corruption("truncated message body");
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after message");
  return MessagePtr(std::move(msg));
}

Result<MessagePtr> Decode(ByteReader& r, uint8_t tag, PartitionId partition) {
  switch (static_cast<WireType>(tag)) {
#define DPAXOS_DECODE_CASE(Name) \
  case WireType::k##Name:        \
    return DecodeBody<Name##Msg>(r, partition);
    DPAXOS_WIRE_MESSAGES(DPAXOS_DECODE_CASE)
#undef DPAXOS_DECODE_CASE
  }
  return Status::Corruption("unknown wire type tag");
}

#pragma GCC diagnostic pop

}  // namespace

void SerializeMessageInto(const Message& msg, std::string* out) {
  const uint8_t tag = msg.wire_tag();
  DPAXOS_CHECK_MSG(tag != 0, "unserializable message " << msg.TypeName());
  const WireType type = static_cast<WireType>(tag);
  // Pass 1: exact body size, so pass 2 appends into reserved capacity.
  CountingWriter counter;
  EncodeBody(counter, msg, type);
  const size_t encoded = kWireHeaderBytes + counter.size();
  out->reserve(out->size() + encoded);
  ByteWriter w(out);
  w.PutU8(tag);
  // Only PaxosMessage subclasses carry non-zero wire tags.
  w.PutU32(static_cast<const PaxosMessage&>(msg).partition);
  EncodeBody(w, msg, type);
  PerfCounters& perf = ThreadPerfCounters();
  ++perf.wire_encodes;
  perf.wire_encode_bytes += encoded;
}

std::string SerializeMessage(const Message& msg) {
  std::string out;
  SerializeMessageInto(msg, &out);
  return out;
}

Result<MessagePtr> DeserializeMessage(std::string_view bytes) {
  ++ThreadPerfCounters().wire_decodes;
  ByteReader r(bytes);
  uint8_t tag = 0;
  PartitionId partition = 0;
  if (!r.ReadU8(&tag) || !r.ReadU32(&partition)) {
    return Status::Corruption("truncated wire header");
  }
  return Decode(r, tag, partition);
}

}  // namespace dpaxos
