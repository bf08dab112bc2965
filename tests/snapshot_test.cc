// Unit coverage of the snapshot envelope (src/smr/snapshot.h) and the
// full-state serialization it carries: round-trips, exhaustive
// corruption detection (every single-bit flip, every truncation), and
// install-then-lossy-restart consistency of the KvStateMachine payload
// including the per-client dedup windows, and the one installer every
// server's snapshot hook calls (InstallKvSnapshot).
#include "smr/snapshot.h"

#include <gtest/gtest.h>

#include <string>

#include "common/status.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "txn/transaction.h"

namespace dpaxos {
namespace {

std::string PutValue(uint64_t id, const std::string& key,
                     const std::string& val, uint64_t client_id = 0,
                     uint64_t seq = 0) {
  Transaction txn;
  txn.id = id;
  txn.client_id = client_id;
  txn.seq = seq;
  txn.ops = {Operation::Put(key, val)};
  return EncodeBatch({txn});
}

TEST(SnapshotEnvelopeTest, RoundTrip) {
  const std::string payload = "opaque state machine bytes \x00\x01\xff";
  const std::string bytes = EncodeSnapshot(1234, payload);
  Result<Snapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().through_slot, 1234u);
  EXPECT_EQ(decoded.value().payload, payload);
}

TEST(SnapshotEnvelopeTest, EmptyPayloadRoundTrip) {
  const std::string bytes = EncodeSnapshot(0, "");
  Result<Snapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().through_slot, 0u);
  EXPECT_TRUE(decoded.value().payload.empty());
}

// Every single-bit flip anywhere in the envelope — header, payload, or
// the checksum itself — must surface as Corruption, never as a decoded
// snapshot with wrong contents.
TEST(SnapshotEnvelopeTest, CrcDetectsEverySingleBitFlip) {
  const std::string bytes = EncodeSnapshot(42, "some payload worth guarding");
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      Result<Snapshot> decoded = DecodeSnapshot(flipped);
      ASSERT_FALSE(decoded.ok())
          << "bit flip at byte " << byte << " bit " << bit
          << " decoded successfully";
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

// Every proper prefix must be rejected — a torn write or truncated
// chunk reassembly can cut the envelope at any byte.
TEST(SnapshotEnvelopeTest, EveryTruncationRejected) {
  const std::string bytes = EncodeSnapshot(7, std::string(100, 'p'));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<Snapshot> decoded = DecodeSnapshot(bytes.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << cut << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(SnapshotEnvelopeTest, TrailingGarbageRejected) {
  std::string bytes = EncodeSnapshot(7, "payload");
  bytes += '\0';
  EXPECT_FALSE(DecodeSnapshot(bytes).ok());
  bytes += "more garbage";
  EXPECT_FALSE(DecodeSnapshot(bytes).ok());
}

TEST(SnapshotEnvelopeTest, BadMagicAndVersionRejected) {
  std::string bad_magic = EncodeSnapshot(1, "x");
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeSnapshot(bad_magic).status().code(),
            StatusCode::kCorruption);

  // Byte 4 is the low byte of the version field; bumping it simulates a
  // snapshot written by a future incompatible format.
  std::string bad_version = EncodeSnapshot(1, "x");
  bad_version[4] = static_cast<char>(kSnapshotVersion + 1);
  EXPECT_EQ(DecodeSnapshot(bad_version).status().code(),
            StatusCode::kCorruption);
}

TEST(SnapshotEnvelopeTest, Crc32KnownVector) {
  // The IEEE 802.3 check value: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(KvSnapshotTest, SerializeFullRoundTripPreservesStateAndCounters) {
  KvStateMachine kv;
  kv.Apply(0, PutValue(1, "alpha", "1", /*client_id=*/7, /*seq=*/1));
  kv.Apply(1, PutValue(2, "beta", "2", /*client_id=*/7, /*seq=*/2));
  // Out-of-order seq leaves a sparse entry in client 9's dedup window.
  kv.Apply(2, PutValue(3, "gamma", "3", /*client_id=*/9, /*seq=*/5));
  // Duplicate: must bump duplicates_skipped and not re-apply.
  kv.Apply(3, PutValue(4, "alpha", "dup", /*client_id=*/7, /*seq=*/1));

  KvStateMachine restored;
  ASSERT_TRUE(restored.RestoreFull(kv.SerializeFull()).ok());

  EXPECT_EQ(restored.Checksum(), kv.Checksum());
  EXPECT_EQ(restored.Get("alpha"), "1");
  EXPECT_EQ(restored.applied_commands(), kv.applied_commands());
  EXPECT_EQ(restored.applied_writes(), kv.applied_writes());
  EXPECT_EQ(restored.duplicates_skipped(), kv.duplicates_skipped());
  EXPECT_TRUE(restored.WasApplied(7, 1));
  EXPECT_TRUE(restored.WasApplied(7, 2));
  EXPECT_TRUE(restored.WasApplied(9, 5));
  EXPECT_FALSE(restored.WasApplied(9, 4));
}

// SerializeFull's bytes are a format: a node installs snapshots another
// build serialized. A fixed state (1024 keys, five in-order clients, one
// client with a sparse window, one skipped duplicate) must serialize to
// the bytes an earlier build wrote, pinned by their size and FNV-1a hash.
TEST(KvSnapshotTest, SerializeFullMatchesFrozenBytes) {
  KvStateMachine kv;
  for (uint64_t i = 0; i < 1024; ++i) {
    const uint64_t key = (i * 389) % 1024;  // scrambled insertion order
    const std::string value(key % 61, static_cast<char>('a' + key % 26));
    kv.Apply(i, PutValue(i + 1, "key" + std::to_string(key), value,
                         /*client_id=*/1 + i % 5, /*seq=*/1 + i / 5));
  }
  kv.Apply(1024, PutValue(2000, "key7", "sparse-5", /*client_id=*/9, 5));
  kv.Apply(1025, PutValue(2001, "key8", "sparse-7", /*client_id=*/9, 7));
  kv.Apply(1026, PutValue(2002, "key8", "dup", /*client_id=*/9, 7));

  const std::string bytes = kv.SerializeFull();
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 44859u);
  EXPECT_EQ(hash, 18111893082151564683ull);
}

// The reason SerializeFull exists: a client retry that straddles the
// snapshot point must still dedup after install + residual replay.
TEST(KvSnapshotTest, DedupWindowSurvivesInstall) {
  KvStateMachine kv;
  kv.Apply(0, PutValue(1, "k", "committed", /*client_id=*/3, /*seq=*/1));

  KvStateMachine restored;
  ASSERT_TRUE(restored.RestoreFull(kv.SerializeFull()).ok());

  // Residual replay re-delivers the same tagged transaction.
  restored.Apply(1, PutValue(9, "k", "retry", /*client_id=*/3, /*seq=*/1));
  EXPECT_EQ(restored.Get("k"), "committed");
  EXPECT_EQ(restored.duplicates_skipped(), 1u);
}

TEST(KvSnapshotTest, RestoreFullRejectsEveryTruncation) {
  KvStateMachine kv;
  kv.Apply(0, PutValue(1, "key", "value", 5, 1));
  const std::string full = kv.SerializeFull();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    KvStateMachine victim;
    victim.Apply(0, PutValue(2, "pre", "existing"));
    const uint64_t before = victim.Checksum();
    const std::string before_bytes = victim.SerializeFull();
    Status st = victim.RestoreFull(full.substr(0, cut));
    ASSERT_FALSE(st.ok()) << "prefix of length " << cut << " restored";
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    // Failed restore must leave the state untouched: the pairs, their
    // key index, the windows and the counters.
    EXPECT_EQ(victim.Checksum(), before);
    EXPECT_EQ(victim.SerializeFull(), before_bytes);
  }
}

// The providers serialize the image straight into its envelope
// (EncodeKvSnapshot); the bytes must be EncodeSnapshot's, wherever the
// envelope starts.
TEST(KvSnapshotTest, EnvelopeBuiltInPlaceMatchesEncodeSnapshot) {
  KvStateMachine kv;
  for (uint64_t i = 0; i < 200; ++i) {
    kv.Apply(i, PutValue(i + 1, "key" + std::to_string(i % 70),
                         std::string(i % 13, 'v'), /*client_id=*/1 + i % 3,
                         /*seq=*/1 + i / 3));
  }
  kv.Apply(200, PutValue(201, "sparse", "x", /*client_id=*/9, /*seq=*/4));
  for (const std::string& prefix : {std::string(), std::string("earlier")}) {
    std::string buffer = prefix;
    buffer.reserve(prefix.size() + kSnapshotEnvelopeBytes +
                   kv.SerializedSize());
    const size_t start = BeginSnapshot(/*through_slot=*/201, &buffer);
    kv.SerializeFull(&buffer);
    FinishSnapshot(start, &buffer);
    EXPECT_EQ(start, prefix.size());
    EXPECT_EQ(buffer.substr(0, start), prefix);
    EXPECT_EQ(buffer.substr(start), EncodeSnapshot(201, kv.SerializeFull()));
    EXPECT_EQ(buffer.size() - start,
              kSnapshotEnvelopeBytes + kv.SerializedSize());
  }
  EXPECT_EQ(EncodeKvSnapshot(201, kv),
            EncodeSnapshot(201, kv.SerializeFull()));
  // An empty state too.
  KvStateMachine empty;
  EXPECT_EQ(EncodeKvSnapshot(0, empty),
            EncodeSnapshot(0, empty.SerializeFull()));
}

// Full pipeline a lossy restart exercises: state -> SerializeFull ->
// envelope -> (storage) -> decode -> RestoreFull, then residual replay
// converging with a replica that never restarted.
TEST(KvSnapshotTest, InstallThenResidualReplayConverges) {
  KvStateMachine primary;
  for (uint64_t i = 0; i < 20; ++i) {
    primary.Apply(i, PutValue(i + 1, "key" + std::to_string(i % 5),
                              "v" + std::to_string(i), /*client_id=*/1,
                              /*seq=*/i + 1));
  }
  const std::string envelope =
      EncodeSnapshot(/*through_slot=*/20, primary.SerializeFull());

  // Keep applying on the primary after the snapshot point.
  for (uint64_t i = 20; i < 30; ++i) {
    primary.Apply(i, PutValue(i + 1, "key" + std::to_string(i % 5),
                              "v" + std::to_string(i), 1, i + 1));
  }

  // Restarted replica: install the snapshot, then replay the residual
  // tail [20, 30).
  Result<Snapshot> snap = DecodeSnapshot(envelope);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().through_slot, 20u);
  KvStateMachine restarted;
  ASSERT_TRUE(restarted.RestoreFull(snap.value().payload).ok());
  for (uint64_t i = 20; i < 30; ++i) {
    restarted.Apply(i, PutValue(i + 1, "key" + std::to_string(i % 5),
                                "v" + std::to_string(i), 1, i + 1));
  }

  EXPECT_EQ(restarted.Checksum(), primary.Checksum());
  EXPECT_EQ(restarted.applied_commands(), primary.applied_commands());
}

// The installer both servers' snapshot hooks call: only an intact
// envelope that covers the announced slots and reaches past the applier
// installs. Anything else leaves the state and the applier where they
// were.
TEST(KvSnapshotTest, InstallerTakesOnlyAFreshMatchingIntactImage) {
  KvStateMachine source;
  source.Apply(0, PutValue(1, "k", "image"));
  const std::string image = EncodeKvSnapshot(/*through_slot=*/10, source);

  KvStateMachine kv;
  LogApplier applier(&kv);
  for (SlotId slot = 0; slot < 4; ++slot) {
    applier.OnDecided(slot, Value::Of(slot + 1, PutValue(slot + 1, "k",
                                                         "live")));
  }
  ASSERT_EQ(applier.applied_watermark(), 4u);
  const auto unchanged = [&] {
    EXPECT_EQ(kv.Get("k"), "live");
    EXPECT_EQ(applier.applied_watermark(), 4u);
  };

  // Stale: the applier has already passed every slot the image covers.
  EXPECT_TRUE(
      InstallKvSnapshot(3, EncodeKvSnapshot(3, source), &kv, &applier).ok());
  unchanged();

  // Mismatched: the transfer announced other slots than the envelope's.
  EXPECT_EQ(InstallKvSnapshot(12, image, &kv, &applier).code(),
            StatusCode::kCorruption);
  unchanged();

  // Corrupt: one flipped bit fails the checksum.
  std::string corrupt = image;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_EQ(InstallKvSnapshot(10, corrupt, &kv, &applier).code(),
            StatusCode::kCorruption);
  unchanged();

  // Good.
  ASSERT_TRUE(InstallKvSnapshot(10, image, &kv, &applier).ok());
  EXPECT_EQ(kv.Get("k"), "image");
  EXPECT_EQ(applier.applied_watermark(), 10u);
}

}  // namespace
}  // namespace dpaxos
