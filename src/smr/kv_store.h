// Replicated key-value store: the partition state machine used by the
// examples and integration tests. Commands are batches of transactions
// encoded by src/txn.
#ifndef DPAXOS_SMR_KV_STORE_H_
#define DPAXOS_SMR_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "smr/state_machine.h"

namespace dpaxos {

/// \brief In-memory key-value state machine.
///
/// Applies transaction batches (see txn::EncodeBatch): every write op in
/// every transaction of the batch is installed; reads are no-ops at apply
/// time (they were answered at the leader). A batch that does not parse
/// whole applies nothing. A content checksum supports cross-replica
/// convergence checks in tests.
class KvStateMachine final : public StateMachine {
 public:
  KvStateMachine() = default;
  // The key index points into the object's own map, and a LogApplier
  // holds the machine's address: neither copies nor moves.
  KvStateMachine(const KvStateMachine&) = delete;
  KvStateMachine& operator=(const KvStateMachine&) = delete;

  void Apply(SlotId slot, const std::string& payload) override;

  /// Point lookup against the applied state.
  std::optional<std::string> Get(const std::string& key) const;
  /// The applied value of `key`, without a copy; null if absent. Valid
  /// until the next Apply or RestoreFull.
  const std::string* Find(std::string_view key) const;

  size_t size() const { return data_.size(); }
  uint64_t applied_commands() const { return applied_commands_; }
  uint64_t applied_writes() const { return applied_writes_; }
  uint64_t duplicates_skipped() const { return duplicates_skipped_; }

  /// True iff a transaction tagged (client_id, seq) has already been
  /// applied. client_id 0 marks untagged transactions and always
  /// returns false.
  bool WasApplied(uint64_t client_id, uint64_t seq) const;

  /// Order-independent checksum of the full key-value content; equal
  /// checksums on two replicas mean convergent state.
  uint64_t Checksum() const;

  /// Serialize the full state for snapshot transfer: the pairs in key
  /// order (so equal states serialize identically), the per-client
  /// dedup windows and the apply counters. Snapshot-installing a
  /// replica needs the windows: without them a client retry straddling
  /// the snapshot point would be applied twice during residual log
  /// replay.
  std::string SerializeFull() const;
  /// Append SerializeFull()'s bytes to `out`, e.g. straight into a
  /// snapshot envelope (EncodeKvSnapshot below).
  void SerializeFull(std::string* out) const;
  /// The size of SerializeFull()'s bytes, computed without walking the
  /// pairs, so a caller can reserve the buffer around them.
  size_t SerializedSize() const;

  /// Counterpart of SerializeFull(). Returns Corruption on malformed
  /// input, leaving the state unchanged.
  Status RestoreFull(const std::string& snapshot);

 private:
  // Compact per-client dedup window: every seq <= prefix has been
  // applied, plus a sparse set of out-of-order seqs above it. The set
  // drains back into the prefix as gaps fill, so a well-behaved client
  // costs O(1) amortized space, and its in-order seqs never touch the set.
  struct ClientWindow {
    uint64_t prefix = 0;
    std::set<uint64_t> sparse;

    // Records seq as applied; returns false if it was already present.
    bool Insert(uint64_t seq);
    bool Contains(uint64_t seq) const;
  };

  // std::hash<std::string>'s hash, taken over views too, so Apply looks
  // keys up straight from the payload while the table keeps the buckets
  // and iteration order std::hash<std::string> gives.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  using KeyValueMap =
      std::unordered_map<std::string, std::string, KeyHash, std::equal_to<>>;
  using Entry = KeyValueMap::value_type;

  struct EntryKeyLess {
    bool operator()(const Entry* a, const Entry* b) const {
      return a->first < b->first;
    }
  };
  // The map's entries in key order, so SerializeFull walks the state in
  // order instead of sorting it. A map node never moves (rehashing
  // relinks it), so its address stays valid until its key is erased;
  // only creating a key touches the index, at O(log n).
  using KeyIndex = std::set<const Entry*, EntryKeyLess>;

  KeyValueMap data_;
  KeyIndex index_;
  // SerializeFull's bytes for the pairs: a length prefix and the bytes
  // of every key and value, kept as keys are created and values
  // overwritten.
  size_t pair_bytes_ = 0;
  std::unordered_map<uint64_t, ClientWindow> applied_seqs_;
  uint64_t applied_commands_ = 0;
  uint64_t applied_writes_ = 0;
  uint64_t duplicates_skipped_ = 0;
};

/// The snapshot envelope (smr/snapshot.h) of `kv`'s state, covering the
/// slots below `through_slot`: EncodeSnapshot(through_slot,
/// kv.SerializeFull())'s bytes, with the image serialized straight into
/// the envelope's one buffer.
std::string EncodeKvSnapshot(SlotId through_slot, const KvStateMachine& kv);

class LogApplier;

/// Installs a snapshot envelope covering the slots below `through` into
/// `kv` and moves `applier` past them. Serves both a replica's snapshot
/// installer hook and a node's restore of its durable image. Corruption
/// if the envelope fails its checksum or covers other slots than
/// `through` (the chunk messages carry `through` unauthenticated; the
/// copy in the envelope is CRC-protected). An image `applier` has
/// already passed holds nothing new and is skipped (OK): restoring it
/// would roll the state back under a watermark that stays put.
Status InstallKvSnapshot(SlotId through, std::string_view envelope,
                         KvStateMachine* kv, LogApplier* applier);

}  // namespace dpaxos

#endif  // DPAXOS_SMR_KV_STORE_H_
