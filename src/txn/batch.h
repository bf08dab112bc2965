// Batch assembly: accumulate transactions until a byte budget is reached,
// then emit one consensus value (paper Section A.1 studies the batch-size
// throughput/latency trade-off).
#ifndef DPAXOS_TXN_BATCH_H_
#define DPAXOS_TXN_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/codec.h"
#include "paxos/value.h"
#include "txn/transaction.h"

namespace dpaxos {

/// \brief Accumulates transactions into fixed-size-target batches.
///
/// Transactions are encoded as they arrive instead of being stored and
/// re-encoded at emit time: the builder appends each one to a growing
/// payload whose leading count word is patched in Take(), and the payload
/// is then moved — not copied — into the emitted value. The output is
/// byte-identical to EncodeBatch() over the same transactions.
class BatchBuilder {
 public:
  /// `target_bytes`: emit a batch once its encoded size reaches this.
  explicit BatchBuilder(uint64_t target_bytes)
      : target_bytes_(target_bytes) {
    ResetBuffer();
  }

  /// Add a transaction; returns true once the batch is full.
  bool Add(const Transaction& txn) {
    return AddFields(txn.id, txn.client_id, txn.seq, txn.ops);
  }

  /// Add(Transaction) given the transaction's fields, with operations
  /// that view their bytes: the same encoding, and the only copy of the
  /// keys and values is the one into the batch.
  bool Add(uint64_t id, uint64_t client_id, uint64_t seq,
           std::span<const OperationView> ops) {
    return AddFields(id, client_id, seq, ops);
  }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  /// Encoded bytes of the pending transactions (excluding the count
  /// header), i.e. the sum of their EncodedSize() — what the byte target
  /// is compared against.
  uint64_t pending_bytes() const { return pending_bytes_; }

  /// Encode and clear the pending batch into a consensus value.
  Value Take(uint64_t value_id) {
    // Patch the count header in place (little-endian, matching ByteWriter).
    const uint32_t n = static_cast<uint32_t>(count_);
    for (int i = 0; i < 4; ++i) {
      encoded_[static_cast<size_t>(i)] =
          static_cast<char>((n >> (8 * i)) & 0xff);
    }
    Value v = Value::Of(value_id, std::move(encoded_));
    ResetBuffer();
    pending_bytes_ = 0;
    count_ = 0;
    return v;
  }

 private:
  template <typename Ops>
  bool AddFields(uint64_t id, uint64_t client_id, uint64_t seq,
                 const Ops& ops) {
    uint64_t sz = kTxnHeaderBytes;
    for (const auto& op : ops) sz += EncodedOpSize(op);
    ByteWriter w(&encoded_);
    w.Reserve(static_cast<size_t>(sz));
    w.PutU64(id);
    w.PutU64(client_id);
    w.PutU64(seq);
    w.PutU32(static_cast<uint32_t>(ops.size()));
    for (const auto& op : ops) {
      w.PutU8(static_cast<uint8_t>(op.kind));
      w.PutString(op.key);
      w.PutString(op.value);
    }
    pending_bytes_ += sz;
    ++count_;
    return pending_bytes_ >= target_bytes_;
  }

  void ResetBuffer() {
    encoded_.clear();
    encoded_.append(4, '\0');  // count placeholder, patched by Take()
  }

  uint64_t target_bytes_;
  uint64_t pending_bytes_ = 0;
  size_t count_ = 0;
  std::string encoded_;
};

}  // namespace dpaxos

#endif  // DPAXOS_TXN_BATCH_H_
