// Unit and fuzz tests for the transaction model and batch wire codec.
#include <gtest/gtest.h>

#include "common/random.h"
#include "txn/batch.h"
#include "txn/transaction.h"

namespace dpaxos {
namespace {

Transaction SampleTxn(uint64_t id) {
  Transaction txn;
  txn.id = id;
  txn.client_id = 1000 + id;
  txn.seq = id * 3 + 1;
  txn.ops = {Operation::Get("key0000000001"),
             Operation::Put("key0000000002", "forty-two"),
             Operation::Get("key0000000003")};
  return txn;
}

TEST(TransactionTest, ReadOnlyDetection) {
  Transaction ro;
  ro.ops = {Operation::Get("a"), Operation::Get("b")};
  EXPECT_TRUE(ro.read_only());
  Transaction rw = ro;
  rw.ops.push_back(Operation::Put("c", "v"));
  EXPECT_FALSE(rw.read_only());
  EXPECT_TRUE(Transaction{}.read_only());
}

TEST(TransactionTest, RoundTripSingle) {
  const std::vector<Transaction> batch{SampleTxn(7)};
  auto decoded = DecodeBatch(EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), batch);
}

TEST(TransactionTest, RoundTripManyAndEmpty) {
  std::vector<Transaction> batch;
  for (uint64_t i = 0; i < 100; ++i) batch.push_back(SampleTxn(i));
  auto decoded = DecodeBatch(EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), batch);

  auto empty = DecodeBatch(EncodeBatch({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(TransactionTest, RoundTripBinaryKeysAndValues) {
  Transaction txn;
  txn.id = ~0ull;
  std::string binary("\x00\x01\xff\x7f", 4);
  txn.ops = {Operation::Put(binary, binary), Operation::Get(std::string())};
  auto decoded = DecodeBatch(EncodeBatch({txn}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->at(0), txn);
}

TEST(TransactionTest, EncodedSizeMatchesWireBytes) {
  const Transaction txn = SampleTxn(1);
  EXPECT_EQ(EncodeBatch({txn}).size(), 4 + EncodedSize(txn));
}

TEST(TransactionTest, DecodeRejectsTruncation) {
  const std::string full = EncodeBatch({SampleTxn(1)});
  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto r = DecodeBatch(full.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "accepted truncation at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(TransactionTest, DecodeRejectsTrailingBytes) {
  std::string padded = EncodeBatch({SampleTxn(1)}) + "x";
  EXPECT_FALSE(DecodeBatch(padded).ok());
}

TEST(TransactionTest, DecodeRejectsBadOpKind) {
  std::string payload = EncodeBatch({SampleTxn(1)});
  // The op kind byte of the first op sits right after the batch header
  // (count) and the txn header (id, client_id, seq, opcount).
  payload[4 + 8 + 8 + 8 + 4] = 7;
  EXPECT_FALSE(DecodeBatch(payload).ok());
}

TEST(TransactionTest, DecodeFuzzNeverCrashes) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage(rng.NextBounded(200), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next());
    auto r = DecodeBatch(garbage);  // must not crash or overflow
    if (r.ok()) {
      // Rare but legal: whatever decodes must re-encode identically.
      EXPECT_EQ(EncodeBatch(r.value()), garbage);
    }
  }
}

TEST(TransactionTest, MutationFuzzRoundTripOrReject) {
  Rng rng(7);
  const std::string base = EncodeBatch({SampleTxn(1), SampleTxn(2)});
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    mutated[rng.NextBounded(mutated.size())] ^=
        static_cast<char>(1 + rng.NextBounded(255));
    auto r = DecodeBatch(mutated);
    if (r.ok()) {
      EXPECT_EQ(EncodeBatch(r.value()), mutated);
    }
  }
}

TEST(BatchBuilderTest, EmitsAtByteTarget) {
  BatchBuilder builder(200);
  EXPECT_TRUE(builder.empty());
  int added = 0;
  while (!builder.Add(SampleTxn(static_cast<uint64_t>(added)))) ++added;
  EXPECT_GE(builder.pending_bytes(), 200u);
  const Value v = builder.Take(42);
  EXPECT_EQ(v.id, 42u);
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.pending_bytes(), 0u);

  auto decoded = DecodeBatch(v.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), static_cast<size_t>(added) + 1);
}

TEST(BatchBuilderTest, ValueSizeMatchesPayload) {
  BatchBuilder builder(1);
  builder.Add(SampleTxn(1));
  const Value v = builder.Take(1);
  EXPECT_EQ(v.size_bytes, v.payload.size());
}

// The incremental encoder must be byte-identical to EncodeBatch over the
// same transactions, and its running byte count must match the sum of
// the per-transaction EncodedSize the budget check uses.
TEST(BatchBuilderTest, IncrementalEncodeMatchesEncodeBatch) {
  BatchBuilder builder(1 << 20);  // large target: nothing auto-emits
  std::vector<Transaction> reference;
  uint64_t expected_bytes = 0;
  for (uint64_t i = 0; i < 17; ++i) {
    Transaction txn = SampleTxn(i);
    if (i % 3 == 0) txn.ops.clear();  // empty-op transactions encode too
    expected_bytes += EncodedSize(txn);
    reference.push_back(txn);
    builder.Add(txn);
    EXPECT_EQ(builder.pending_bytes(), expected_bytes);
    EXPECT_EQ(builder.size(), reference.size());
  }
  const Value v = builder.Take(9);
  EXPECT_EQ(v.payload, EncodeBatch(reference));

  // The builder is reusable after Take and stays byte-compatible.
  EXPECT_TRUE(builder.empty());
  builder.Add(SampleTxn(99));
  EXPECT_EQ(builder.Take(10).payload,
            EncodeBatch({SampleTxn(99)}));
}

// The field-level Add a server uses (views of the request frame) writes
// the bytes Add(Transaction) writes, for a Put and for a Get's zero-op
// transaction, alone and side by side.
TEST(BatchBuilderTest, FieldAddMatchesTransactionAdd) {
  Transaction put;
  put.id = 5;
  put.client_id = 9;
  put.seq = 12;
  put.ops = {Operation::Put("user:42", "edge-value-0123456789")};
  Transaction get;
  get.id = 6;
  get.client_id = 9;
  get.seq = 13;
  const std::string key = "user:42";
  const std::string value = "edge-value-0123456789";
  const OperationView op{Operation::Kind::kPut, key, value};

  BatchBuilder by_txn(1 << 20);
  BatchBuilder by_fields(1 << 20);
  by_txn.Add(put);
  by_fields.Add(5, 9, 12, {&op, 1});
  EXPECT_EQ(by_fields.pending_bytes(), by_txn.pending_bytes());
  EXPECT_EQ(by_fields.Take(1).payload, by_txn.Take(1).payload);

  by_txn.Add(get);
  by_fields.Add(6, 9, 13, {});
  EXPECT_EQ(by_fields.pending_bytes(), by_txn.pending_bytes());
  EXPECT_EQ(by_fields.Take(2).payload, by_txn.Take(2).payload);

  by_txn.Add(put);
  by_txn.Add(get);
  by_fields.Add(5, 9, 12, {&op, 1});
  by_fields.Add(6, 9, 13, {});
  const std::string both = by_fields.Take(3).payload;
  EXPECT_EQ(both, by_txn.Take(3).payload);
  EXPECT_EQ(both, EncodeBatch({put, get}));
}

TEST(BatchBuilderTest, EmptyBatchMatchesEncodeBatch) {
  BatchBuilder builder(64);
  EXPECT_EQ(builder.Take(1).payload, EncodeBatch({}));
}

}  // namespace
}  // namespace dpaxos
