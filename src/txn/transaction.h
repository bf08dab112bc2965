// OLTP transactions and their wire encoding.
//
// The paper's evaluation workload (Section 5): each transaction has five
// operations over one million keys, 50-byte values, half reads and half
// writes. Transactions are batched into a single consensus value.
#ifndef DPAXOS_TXN_TRANSACTION_H_
#define DPAXOS_TXN_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/status.h"

namespace dpaxos {

/// \brief One read or write of a transaction.
struct Operation {
  enum class Kind : uint8_t { kGet = 0, kPut = 1 };

  Kind kind = Kind::kGet;
  std::string key;
  std::string value;  // kPut only

  static Operation Get(std::string key) {
    return Operation{Kind::kGet, std::move(key), {}};
  }
  static Operation Put(std::string key, std::string value) {
    return Operation{Kind::kPut, std::move(key), std::move(value)};
  }

  bool operator==(const Operation& o) const {
    return kind == o.kind && key == o.key && value == o.value;
  }
};

/// \brief A transaction: a client-assigned id plus its operations.
///
/// `client_id`/`seq` form an optional end-to-end request id: a client
/// that retries a timed-out submission re-sends the same (client_id,
/// seq) pair so the state machine can drop duplicate applies. A zero
/// client_id marks an untagged (legacy) transaction that is never
/// deduplicated.
struct Transaction {
  uint64_t id = 0;
  uint64_t client_id = 0;  // 0 = untagged, exempt from dedup
  uint64_t seq = 0;        // per-client monotonically increasing
  std::vector<Operation> ops;

  bool read_only() const {
    for (const Operation& op : ops) {
      if (op.kind == Operation::Kind::kPut) return false;
    }
    return true;
  }

  bool operator==(const Transaction& o) const {
    return id == o.id && client_id == o.client_id && seq == o.seq &&
           ops == o.ops;
  }
};

/// An Operation whose key and value view bytes owned elsewhere (a
/// batch payload, a request frame).
struct OperationView {
  Operation::Kind kind = Operation::Kind::kGet;
  std::string_view key;
  std::string_view value;
};

/// A transaction's fields ahead of its operations in a batch payload.
struct TxnHeader {
  uint64_t id = 0;
  uint64_t client_id = 0;
  uint64_t seq = 0;
  uint32_t ops = 0;  ///< operations that follow
};

/// Serialize a batch of transactions into a consensus value payload.
/// Format (little-endian): u32 txn count, then per transaction u64 id,
/// u64 client id, u64 seq, u32 op count, then per op u8 kind,
/// u32 key len, key bytes, u32 value len, value bytes.
std::string EncodeBatch(const std::vector<Transaction>& batch);

/// The batch payload parser: walks `payload` in place, calling
/// on_txn(const TxnHeader&) for each transaction and then
/// on_op(const OperationView&) for each of its operations, whose views
/// alias `payload`. Nothing is copied. Returns Corruption on any
/// malformed input (truncation, overflow, trailing bytes) once the
/// callbacks for everything before the fault have run, so a caller that
/// must not act on part of a bad batch parses it once with no-op
/// callbacks first.
template <typename OnTxn, typename OnOp>
Status ParseBatch(std::string_view payload, OnTxn&& on_txn, OnOp&& on_op) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.ReadU32(&count)) return Status::Corruption("truncated batch header");
  for (uint32_t i = 0; i < count; ++i) {
    TxnHeader txn;
    if (!r.ReadU64(&txn.id) || !r.ReadU64(&txn.client_id) ||
        !r.ReadU64(&txn.seq) || !r.ReadU32(&txn.ops)) {
      return Status::Corruption("truncated transaction header");
    }
    on_txn(txn);
    for (uint32_t j = 0; j < txn.ops; ++j) {
      OperationView op;
      uint8_t kind = 0;
      if (!r.ReadU8(&kind) || kind > 1 || !r.ReadStringView(&op.key) ||
          !r.ReadStringView(&op.value)) {
        return Status::Corruption("truncated operation");
      }
      op.kind = static_cast<Operation::Kind>(kind);
      on_op(op);
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after batch");
  return Status::OK();
}

/// Parse a payload produced by EncodeBatch into owned transactions
/// (ParseBatch, copying). Returns Corruption on any malformed input.
Result<std::vector<Transaction>> DecodeBatch(const std::string& payload);

/// Serialized size of a transaction's header (id, client id, seq, op
/// count) and of one operation: what batch budgeting adds up.
inline constexpr uint64_t kTxnHeaderBytes = 8 + 8 + 8 + 4;
template <typename Op>
uint64_t EncodedOpSize(const Op& op) {
  return 1 + 4 + op.key.size() + 4 + op.value.size();
}

/// Serialized size of one transaction (for batch budgeting).
uint64_t EncodedSize(const Transaction& txn);

}  // namespace dpaxos

#endif  // DPAXOS_TXN_TRANSACTION_H_
