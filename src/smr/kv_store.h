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
  void Apply(SlotId slot, const std::string& payload) override;

  /// Point lookup against the applied state.
  std::optional<std::string> Get(const std::string& key) const;
  /// The applied value of `key`, without a copy; null if absent. Valid
  /// until the next Apply or Restore.
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

  /// Serialize the full state for snapshot transfer (sorted, so equal
  /// states serialize identically).
  std::string Serialize() const;

  /// Replace the state with a previously serialized snapshot. Returns
  /// Corruption on malformed input, leaving the state unchanged.
  Status Restore(const std::string& snapshot);

  /// Like Serialize(), but also captures the per-client dedup windows
  /// and apply counters. Snapshot-installing a replica needs these:
  /// without the windows a client retry straddling the snapshot point
  /// would be applied twice during residual log replay.
  std::string SerializeFull() const;

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

  KeyValueMap data_;
  std::unordered_map<uint64_t, ClientWindow> applied_seqs_;
  uint64_t applied_commands_ = 0;
  uint64_t applied_writes_ = 0;
  uint64_t duplicates_skipped_ = 0;
};

}  // namespace dpaxos

#endif  // DPAXOS_SMR_KV_STORE_H_
