#include "txn/transaction.h"

#include <algorithm>

#include "common/codec.h"

namespace dpaxos {

std::string EncodeBatch(const std::vector<Transaction>& batch) {
  std::string out;
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(batch.size()));
  for (const Transaction& txn : batch) {
    w.PutU64(txn.id);
    w.PutU64(txn.client_id);
    w.PutU64(txn.seq);
    w.PutU32(static_cast<uint32_t>(txn.ops.size()));
    for (const Operation& op : txn.ops) {
      w.PutU8(static_cast<uint8_t>(op.kind));
      w.PutString(op.key);
      w.PutString(op.value);
    }
  }
  return out;
}

Result<std::vector<Transaction>> DecodeBatch(const std::string& payload) {
  std::vector<Transaction> batch;
  Status st = ParseBatch(
      payload,
      [&](const TxnHeader& header) {
        Transaction& txn = batch.emplace_back();
        txn.id = header.id;
        txn.client_id = header.client_id;
        txn.seq = header.seq;
        // Never trust an unvalidated count for allocation: an op
        // occupies at least 9 encoded bytes, so cap the reservation (a
        // hostile count still fails cleanly during parsing).
        txn.ops.reserve(std::min<size_t>(header.ops, payload.size() / 9 + 1));
      },
      [&](const OperationView& op) {
        batch.back().ops.push_back(
            Operation{op.kind, std::string(op.key), std::string(op.value)});
      });
  if (!st.ok()) return st;
  return batch;
}

uint64_t EncodedSize(const Transaction& txn) {
  uint64_t size = kTxnHeaderBytes;
  for (const Operation& op : txn.ops) size += EncodedOpSize(op);
  return size;
}

}  // namespace dpaxos
