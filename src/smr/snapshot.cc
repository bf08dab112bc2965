#include "smr/snapshot.h"

#include <cstring>

#include "common/codec.h"

namespace dpaxos {

namespace {

// The envelope up to its payload: magic, version, through and the
// payload's length prefix (all of it but the trailing checksum).
constexpr size_t kHeaderBytes = kSnapshotEnvelopeBytes - 4;

}  // namespace

std::string EncodeSnapshot(SlotId through_slot, std::string_view payload) {
  std::string out;
  out.reserve(kSnapshotEnvelopeBytes + payload.size());
  const size_t start = BeginSnapshot(through_slot, &out);
  out.append(payload);
  FinishSnapshot(start, &out);
  return out;
}

size_t BeginSnapshot(SlotId through_slot, std::string* out) {
  const size_t start = out->size();
  ByteWriter w(out);
  w.PutU32(kSnapshotMagic);
  w.PutU32(kSnapshotVersion);
  w.PutU64(through_slot);
  w.PutU32(0);  // payload length, filled in by FinishSnapshot
  return start;
}

void FinishSnapshot(size_t start, std::string* out) {
  const uint32_t length =
      static_cast<uint32_t>(out->size() - start - kHeaderBytes);
  std::memcpy(out->data() + start + kHeaderBytes - 4, &length, 4);
  ByteWriter(out).PutU32(Crc32(std::string_view(*out).substr(start)));
}

Result<Snapshot> DecodeSnapshot(std::string_view bytes) {
  // The CRC trails the envelope: everything before it is covered.
  if (bytes.size() < kSnapshotEnvelopeBytes) {
    return Status::Corruption("snapshot envelope truncated");
  }
  ByteReader r(bytes);
  uint32_t magic = 0, version = 0;
  Snapshot snap;
  if (!r.ReadU32(&magic) || magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic");
  }
  if (!r.ReadU32(&version) || version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version");
  }
  uint64_t through = 0;
  std::string_view payload;
  if (!r.ReadU64(&through) || !r.ReadStringView(&payload)) {
    return Status::Corruption("snapshot envelope truncated");
  }
  uint32_t stored_crc = 0;
  if (!r.ReadU32(&stored_crc) || !r.AtEnd()) {
    return Status::Corruption("snapshot envelope truncated");
  }
  const uint32_t actual = Crc32(bytes.substr(0, bytes.size() - 4));
  if (actual != stored_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  snap.through_slot = through;
  snap.payload.assign(payload);
  return snap;
}

}  // namespace dpaxos
