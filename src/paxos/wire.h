// Wire format: serialize/deserialize every protocol message.
//
// Every peer frame of the real-network runtime (TcpTransport) goes
// through this codec. The simulator passes message objects by pointer,
// but SimTransport can be configured
// (SimTransportOptions::validate_wire_codec) to round-trip every remote
// message through it, so the entire protocol test suite doubles as a
// codec conformance test.
//
// A message is its tag (u8, WireType in paxos/messages.h, returned by
// Message::wire_tag()), its partition (u32), then the fields of its
// layout (paxos/wire_layout.h). This header owns only the encode/decode
// entry points.
#ifndef DPAXOS_PAXOS_WIRE_H_
#define DPAXOS_PAXOS_WIRE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "paxos/messages.h"

namespace dpaxos {

/// Serialize any protocol message, appending to `*out`. The encoded size
/// is computed up front (a counting pass over the message) and reserved
/// in one shot, so a cleared, reused buffer never reallocates in steady
/// state. Aborts (DPAXOS_CHECK) on a message type outside the protocol
/// set — a programming error.
void SerializeMessageInto(const Message& msg, std::string* out);

/// Convenience wrapper returning a fresh string.
std::string SerializeMessage(const Message& msg);

/// Parse bytes produced by SerializeMessage. Returns Corruption on any
/// malformed input (unknown tag, truncation, trailing bytes). The bytes
/// are only read during the call; the returned message owns its data.
Result<MessagePtr> DeserializeMessage(std::string_view bytes);

}  // namespace dpaxos

#endif  // DPAXOS_PAXOS_WIRE_H_
