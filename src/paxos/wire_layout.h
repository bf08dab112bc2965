// Wire layouts: every wire-encoded type is written once, as its fields
// in wire order, and one pair of visitors runs that list both ways.
//
//   DPAXOS_LAYOUT(DecideMsg, m.slot, m.value);
//
// says that a DecideMsg `m` goes on the wire as its slot, then its
// value. WireOut<W> encodes fields with any writer of common/codec.h
// (the codec runs it twice per message: CountingWriter sizes the
// buffer, ByteWriter fills it); WireIn decodes them from a ByteReader.
// A field is encoded by its type:
//
//   uint8_t, uint32_t, uint64_t  fixed-width little-endian
//   bool                         one byte; a byte other than 0 or 1 is
//                                refused
//   std::string, string_view     u32 length, then the bytes
//   enum                         one byte; a byte above WireEnumMax(E{})
//                                is refused
//   std::vector<T>               u32 count, then each element; a count
//                                the remaining bytes cannot hold is
//                                refused before anything is allocated
//   a type with a layout         its fields, in order
//
// Header-only: the WAL (storage/wal.cc) writes its records through the
// same visitors, and dpaxos_storage does not link dpaxos_paxos.
#ifndef DPAXOS_PAXOS_WIRE_LAYOUT_H_
#define DPAXOS_PAXOS_WIRE_LAYOUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "paxos/messages.h"

namespace dpaxos {

/// Specialized by DPAXOS_LAYOUT for each type with a layout.
template <typename T>
struct WireLayout;

/// `Type`'s fields, in wire order, each named through `m`.
#define DPAXOS_LAYOUT(Type, ...)                     \
  template <>                                        \
  struct WireLayout<Type> {                          \
    template <typename V, typename M>                \
    static bool Visit(V& v, [[maybe_unused]] M& m) { \
      return v(__VA_ARGS__);                         \
    }                                                \
  }

/// The largest value of each enum on the wire.
constexpr StatusCode WireEnumMax(StatusCode) { return StatusCode::kInternal; }
constexpr StealRefusal WireEnumMax(StealRefusal) {
  return StealRefusal::kFastGrant;
}

template <typename T>
inline constexpr bool kIsWireVector = false;
template <typename T>
inline constexpr bool kIsWireVector<std::vector<T>> = true;

/// \brief Encodes fields into a writer of common/codec.h.
template <typename W>
class WireOut {
 public:
  explicit WireOut(W& w) : w_(w) {}

  // Flattened so that every field's append is inlined into the type's
  // encoder, as in a hand-written one. Left to its heuristics, GCC calls
  // out to std::string::append for some fields, which made a 256-entry
  // learn reply encode 1.7x slower than the hand-written encoders.
  template <typename... F>
  [[gnu::flatten]] bool operator()(const F&... fields) {
    (Put(fields), ...);
    return true;
  }

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.PutBool(v);
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      w_.PutU8(v);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      w_.PutU32(v);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      w_.PutU64(v);
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "enums go on the wire as one byte");
      w_.PutU8(static_cast<uint8_t>(v));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      w_.PutString(v);
    } else if constexpr (kIsWireVector<T>) {
      w_.PutU32(static_cast<uint32_t>(v.size()));
      for (const auto& item : v) Put(item);
    } else {
      WireLayout<T>::Visit(*this, v);
    }
  }

  W& w_;
};

/// Bytes the smallest `T` takes on the wire: every string and vector
/// empty. A vector of n elements needs at least n times this.
template <typename T>
size_t WireMinBytes() {
  static const size_t bytes = [] {
    CountingWriter counter;
    WireOut<CountingWriter> out(counter);
    out(T{});
    return counter.size();
  }();
  return bytes;
}

/// \brief Decodes fields from a ByteReader. A call returns false on the
/// first field it cannot read; the fields before it are filled in.
class WireIn {
 public:
  explicit WireIn(ByteReader& r) : r_(r) {}

  template <typename... F>
  bool operator()(F&&... fields) {
    return (Get(fields) && ...);
  }

 private:
  template <typename T>
  bool Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return r_.ReadBool(&v);
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      return r_.ReadU8(&v);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      return r_.ReadU32(&v);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      return r_.ReadU64(&v);
    } else if constexpr (std::is_enum_v<T>) {
      uint8_t byte = 0;
      if (!r_.ReadU8(&byte) || byte > static_cast<uint8_t>(WireEnumMax(T{}))) {
        return false;
      }
      v = static_cast<T>(byte);
      return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      return r_.ReadString(&v);
    } else if constexpr (kIsWireVector<T>) {
      uint32_t count = 0;
      if (!r_.ReadU32(&count) ||
          count > r_.remaining() / WireMinBytes<typename T::value_type>()) {
        return false;
      }
      v.resize(count);
      for (auto& item : v) {
        if (!Get(item)) return false;
      }
      return true;
    } else {
      return WireLayout<T>::Visit(*this, v);
    }
  }

  ByteReader& r_;
};

// --- field groups ----------------------------------------------------------

DPAXOS_LAYOUT(Ballot, m.round, m.node);
DPAXOS_LAYOUT(Value, m.id, m.size_bytes, m.payload);
DPAXOS_LAYOUT(LeaderZoneView, m.epoch, m.current, m.next);
DPAXOS_LAYOUT(Intent, m.ballot, m.leader, m.quorum);
DPAXOS_LAYOUT(AcceptedEntry, m.slot, m.ballot, m.value, m.fast);
DPAXOS_LAYOUT(DecidedEntryWire, m.slot, m.value);

// --- messages: the body after the tag (u8) and partition (u32) -------------

DPAXOS_LAYOUT(PrepareMsg, m.ballot, m.first_slot, m.intents, m.expansion,
              m.lz_view);
DPAXOS_LAYOUT(PromiseMsg, m.ballot, m.expansion, m.accepted, m.intents,
              m.lz_view, m.compacted_through);
DPAXOS_LAYOUT(PrepareNackMsg, m.ballot, m.promised, m.lease_until,
              m.lz_view);
DPAXOS_LAYOUT(ProposeMsg, m.ballot, m.slot, m.value, m.lease_request,
              m.lease_until, m.recovery_complete);
DPAXOS_LAYOUT(AcceptMsg, m.ballot, m.slot, m.lease_vote, m.lease_until);
DPAXOS_LAYOUT(AcceptNackMsg, m.ballot, m.slot, m.promised);
DPAXOS_LAYOUT(DecideMsg, m.slot, m.value);
DPAXOS_LAYOUT(HandoffRequestMsg);
DPAXOS_LAYOUT(RelinquishMsg, m.ballot, m.next_slot, m.intents, m.lz_view);
DPAXOS_LAYOUT(GcPollMsg);
DPAXOS_LAYOUT(GcPollReplyMsg, m.max_propose_ballot);
DPAXOS_LAYOUT(GcThresholdMsg, m.threshold);
DPAXOS_LAYOUT(LzPrepareMsg, m.epoch, m.ballot);
DPAXOS_LAYOUT(LzPromiseMsg, m.epoch, m.ballot, m.accepted_ballot,
              m.accepted_zone);
DPAXOS_LAYOUT(LzProposeMsg, m.epoch, m.ballot, m.next_zone);
DPAXOS_LAYOUT(LzAcceptMsg, m.epoch, m.ballot, m.next_zone);
DPAXOS_LAYOUT(LzNackMsg, m.epoch, m.ballot, m.promised, m.lz_view);
DPAXOS_LAYOUT(LzTransitionMsg, m.epoch, m.next_zone);
DPAXOS_LAYOUT(LzTransitionAckMsg, m.epoch, m.intents);
DPAXOS_LAYOUT(LzStoreIntentsMsg, m.epoch, m.next_zone, m.intents);
DPAXOS_LAYOUT(LzStoreAckMsg, m.epoch);
DPAXOS_LAYOUT(LzAnnounceMsg, m.view);
DPAXOS_LAYOUT(ForwardMsg, m.request_id, m.value);
DPAXOS_LAYOUT(ForwardReplyMsg, m.request_id, m.code, m.slot, m.leader_hint);
DPAXOS_LAYOUT(LearnRequestMsg, m.from_slot, m.max_entries);
DPAXOS_LAYOUT(LearnReplyMsg, m.from_slot, m.entries, m.peer_watermark,
              m.first_available);
DPAXOS_LAYOUT(SnapshotRequestMsg, m.offset);
DPAXOS_LAYOUT(HeartbeatMsg, m.ballot);
DPAXOS_LAYOUT(SnapshotChunkMsg, m.through_slot, m.offset, m.total_bytes,
              m.data);
DPAXOS_LAYOUT(FastAcceptMsg, m.ballot, m.request_id, m.value);
DPAXOS_LAYOUT(FastAcceptedMsg, m.ballot, m.slot, m.proposer, m.request_id,
              m.value);
DPAXOS_LAYOUT(FastNackMsg, m.ballot, m.promised, m.request_id,
              m.leader_hint);
DPAXOS_LAYOUT(FastGrantMsg, m.ballot, m.first_slot, m.quorum);
DPAXOS_LAYOUT(StealRequestMsg, m.ballot, m.thief_zone, m.invite);
DPAXOS_LAYOUT(OwnershipGrantMsg, m.granted, m.reason, m.ballot, m.next_slot,
              m.decided_size, m.snapshot_ready, m.leader_hint);

}  // namespace dpaxos

#endif  // DPAXOS_PAXOS_WIRE_LAYOUT_H_
