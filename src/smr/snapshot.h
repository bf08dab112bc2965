// Versioned, CRC-checksummed snapshot envelope for state transfer.
//
// A snapshot carries an opaque state-machine payload (KvStateMachine::
// SerializeFull today) together with the slot it covers: every decided
// slot < through_slot is reflected in the payload, so an installer can
// truncate its log below that point and replay only the residual tail.
// The envelope exists because snapshots travel further than ordinary
// wire messages — across lossy restarts via NodeStorage and across the
// network in chunks — so corruption (bit flips, torn writes, truncated
// reassembly) must be detected at install time, never applied silently.
//
// Layout (little-endian, matching common/codec.h):
//   magic    u32   'DPSS'
//   version  u32   kSnapshotVersion
//   through  u64   slots [0, through) are covered by the payload
//   payload  u32 length + bytes
//   crc32    u32   CRC-32 (IEEE 802.3) over everything above
//
// DecodeSnapshot returns Status::Corruption for any bad magic, unknown
// version, truncation, trailing garbage, or checksum mismatch.
#ifndef DPAXOS_SMR_SNAPSHOT_H_
#define DPAXOS_SMR_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "common/status.h"
#include "common/types.h"

namespace dpaxos {

inline constexpr uint32_t kSnapshotMagic = 0x53535044;  // "DPSS"
inline constexpr uint32_t kSnapshotVersion = 1;

/// \brief A decoded (verified) snapshot.
struct Snapshot {
  /// Every slot < through_slot is reflected in `payload`.
  SlotId through_slot = 0;
  /// Opaque state-machine bytes (KvStateMachine::SerializeFull).
  std::string payload;
};

// The envelope's checksum is Crc32 from common/crc32.h (included above
// so existing callers keep finding it through this header).

/// Bytes the envelope adds around its payload: the header (magic,
/// version, through, payload length) and the trailing checksum.
inline constexpr size_t kSnapshotEnvelopeBytes = 4 + 4 + 8 + 4 + 4;

/// Wrap `payload` (covering slots [0, through_slot)) in the envelope.
std::string EncodeSnapshot(SlotId through_slot, std::string_view payload);

/// The envelope around a payload serialized in place, so its bytes are
/// written once: BeginSnapshot appends the header (with a placeholder
/// payload length) to `out` and returns where the envelope starts;
/// append the payload after it, then FinishSnapshot fills in the length
/// and appends the checksum. The bytes are EncodeSnapshot's. Reserve
/// kSnapshotEnvelopeBytes plus the payload's size up front, or the
/// checksum's append may copy the whole envelope.
size_t BeginSnapshot(SlotId through_slot, std::string* out);
void FinishSnapshot(size_t start, std::string* out);

/// Verify and unwrap an envelope. Status::Corruption on any bit flip,
/// truncation, bad magic, or unknown version — the payload is only
/// returned when the checksum proves it intact.
Result<Snapshot> DecodeSnapshot(std::string_view bytes);

}  // namespace dpaxos

#endif  // DPAXOS_SMR_SNAPSHOT_H_
