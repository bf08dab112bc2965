// Durability coverage for the acceptor WAL (src/storage/wal.h) and the
// fault-injecting filesystem beneath it (src/storage/env.h):
//
//   * Env unit cells: short writes, EIO, lying fsync, power loss keeping
//     exactly the durable prefix (plus an armed torn fragment).
//   * Round-trip of every journal record type across close/reopen.
//   * Exhaustive torn-tail sweep: truncating the active segment at EVERY
//     byte recovers exactly the longest whole-frame prefix.
//   * Exhaustive bit-flip sweeps: in the active segment recovery yields
//     a committed prefix or fails with Corruption (never a diverged
//     state); in a sealed segment every flip is Corruption.
//   * WAL-vs-model property test: after any injected power-loss point,
//     the recovered record equals the in-memory model at some mutation
//     prefix no older than the last acknowledged sync.
//   * fsyncgate: a failed fdatasync is sticky, withholds the queued
//     replies forever, and is never retried; the production configuration
//     aborts the process instead.
#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "paxos/acceptor.h"
#include "sim/simulator.h"
#include "storage/env.h"
#include "storage/storage.h"

namespace dpaxos {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dpaxos_wal_" + name;
  Env* env = PosixEnv();
  if (env->FileExists(dir)) {
    auto children = env->GetChildren(dir);
    if (children.ok()) {
      for (const std::string& child : children.value()) {
        env->DeleteFile(dir + "/" + child).ok();
      }
    }
  }
  EXPECT_TRUE(env->CreateDir(dir).ok());
  return dir;
}

void CopyDir(const std::string& src, const std::string& dst) {
  Env* env = PosixEnv();
  ASSERT_TRUE(env->CreateDir(dst).ok());
  auto children = env->GetChildren(src);
  ASSERT_TRUE(children.ok());
  for (const std::string& child : children.value()) {
    auto bytes = env->ReadFileToString(src + "/" + child);
    ASSERT_TRUE(bytes.ok());
    auto file = env->NewWritableFile(dst + "/" + child, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(bytes.value()).ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
}

std::vector<AcceptedEntry> Entries(const AcceptorRecord& rec) {
  std::vector<AcceptedEntry> out;
  rec.accepted.ForEachFrom(0, [&](const AcceptedEntry& e) { out.push_back(e); });
  return out;
}

// Equality over everything durability must preserve. sync_writes is a
// metric with different semantics per mode (see AcceptorRecord) and the
// journal pointer is process state; both are excluded.
bool RecordsEqual(const AcceptorRecord& a, const AcceptorRecord& b) {
  if (a.promised != b.promised || a.max_propose_ballot != b.max_propose_ballot ||
      a.max_recovered_ballot != b.max_recovered_ballot ||
      a.relinquish_consumed != b.relinquish_consumed ||
      a.lease_ballot != b.lease_ballot || a.lease_until != b.lease_until ||
      a.snapshot_through != b.snapshot_through ||
      a.compacted_through != b.compacted_through ||
      a.snapshot_bytes != b.snapshot_bytes || a.intents != b.intents) {
    return false;
  }
  const std::vector<AcceptedEntry> ea = Entries(a), eb = Entries(b);
  if (ea.size() != eb.size()) return false;
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].slot != eb[i].slot || ea[i].ballot != eb[i].ballot ||
        ea[i].fast != eb[i].fast || !(ea[i].value == eb[i].value)) {
      return false;
    }
  }
  return true;
}

// Copy of a record with the process-local fields cleared, so snapshots
// in the sweep tests can be compared with RecordsEqual directly.
AcceptorRecord Clone(const AcceptorRecord& rec) {
  AcceptorRecord copy = rec;
  copy.journal = nullptr;
  copy.sync_writes = 0;
  return copy;
}

// One scripted mutation applied BOTH to the in-memory record and to the
// journal — exactly the discipline the acceptor follows (mutate, then
// journal the new state). Cycles through every record type.
void ApplyMutation(uint32_t i, AcceptorRecord* rec, AcceptorJournal* j) {
  switch (i % 9) {
    case 0:
      rec->promised = Ballot{i + 1, i % 4};
      j->Promised(rec->promised);
      break;
    case 1: {
      AcceptedEntry e;
      e.slot = i;
      e.ballot = Ballot{i + 1, 1};
      e.fast = (i % 2) == 0;
      e.value = Value::Of(1000 + i, "payload-" + std::to_string(i));
      rec->accepted.Put(e.slot, e);
      j->Accepted(e);
      break;
    }
    case 2: {
      Intent in;
      in.ballot = Ballot{i + 1, 2};
      in.leader = i % 4;
      in.quorum = {0, 1, i % 3};
      rec->intents.push_back(in);
      j->IntentsChanged(rec->intents);
      break;
    }
    case 3:
      rec->lease_ballot = Ballot{i + 1, 3};
      rec->lease_until = 1000 * (i + 1);
      j->LeaseGranted(rec->lease_ballot, rec->lease_until);
      break;
    case 4:
      rec->relinquish_consumed = Ballot{i + 1, 0};
      j->RelinquishConsumed(rec->relinquish_consumed);
      break;
    case 5:
      rec->max_propose_ballot = Ballot{i + 2, 1};
      rec->max_recovered_ballot = Ballot{i + 1, 1};
      j->GcBallots(rec->max_propose_ballot, rec->max_recovered_ballot);
      break;
    case 6:
      rec->snapshot_bytes = "snapshot-image-" + std::to_string(i);
      rec->snapshot_through = i;
      j->SnapshotStored(i, rec->snapshot_bytes);
      break;
    case 7: {
      const SlotId through = i / 2;
      rec->accepted.ReleaseBelow(through);
      if (through > rec->compacted_through) rec->compacted_through = through;
      j->PrefixReleased(through);
      break;
    }
    case 8:
      rec->snapshot_bytes.clear();
      rec->snapshot_through = 0;
      j->SnapshotDropped();
      break;
  }
}

std::unique_ptr<Wal> OpenOrDie(Env* env, const std::string& dir,
                               const WalOptions& options,
                               EventScheduler* scheduler = nullptr) {
  auto wal = Wal::Open(env, dir, options, scheduler);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return std::move(wal.value());
}

// Recovered record for partition 0 (a default record when the log held
// no frames at all — an empty log IS the empty record).
AcceptorRecord RecoveredRecord(Wal* wal) {
  auto records = wal->TakeRecovered();
  auto it = records.find(0);
  if (it == records.end()) return AcceptorRecord{};
  return Clone(*it->second);
}

// Frame boundaries of a segment: offsets[k] = byte offset after k whole
// frames. Parses the same [u32 len][u32 crc][body] framing the WAL uses.
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> bounds{0};
  size_t off = 0;
  while (off + 8 <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off, 4);
    if (off + 8 + len > bytes.size()) break;
    off += 8 + len;
    bounds.push_back(off);
  }
  return bounds;
}

// ---------------------------------------------------------------------
// Env

TEST(EnvTest, PosixRoundTrip) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("posix");
  const std::string path = dir + "/file";
  auto file = env->NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("hello ").ok());
  ASSERT_TRUE(file.value()->Append("world").ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Close().ok());
  EXPECT_EQ(env->FileSize(path), 11u);
  auto bytes = env->ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), "hello world");
  ASSERT_TRUE(env->Truncate(path, 5).ok());
  EXPECT_EQ(env->ReadFileToString(path).value(), "hello");
  ASSERT_TRUE(env->RenameFile(path, dir + "/renamed").ok());
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_TRUE(env->FileExists(dir + "/renamed"));
  auto children = env->GetChildren(dir);
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(children.value(), std::vector<std::string>{"renamed"});
  ASSERT_TRUE(env->DeleteFile(dir + "/renamed").ok());
  ASSERT_TRUE(env->SyncDir(dir).ok());
}

TEST(EnvTest, InjectedEioAndShortWrite) {
  FaultInjectingEnv env(PosixEnv());
  const std::string dir = FreshDir("faults");
  const std::string path = dir + "/file";
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());

  env.faults().eio_appends = 1;
  EXPECT_FALSE(file.value()->Append("lost entirely").ok());
  EXPECT_EQ(env.FileSize(path), 0u);
  ASSERT_TRUE(file.value()->Append("whole").ok());

  env.faults().short_write_bytes = 3;
  EXPECT_FALSE(file.value()->Append("truncated").ok());
  EXPECT_EQ(env.FileSize(path), 8u);  // "whole" + "tru"

  env.faults().eio_syncs = 1;
  EXPECT_FALSE(file.value()->Sync().ok());
  EXPECT_EQ(env.sync_calls(), 0u);
  EXPECT_TRUE(file.value()->Sync().ok());
  EXPECT_EQ(env.sync_calls(), 1u);

  env.faults().eio_reads = 1;
  EXPECT_FALSE(env.ReadFileToString(path).ok());
  EXPECT_TRUE(env.ReadFileToString(path).ok());
}

TEST(EnvTest, CrashKeepsDurablePrefixPlusTornFragment) {
  FaultInjectingEnv env(PosixEnv());
  const std::string dir = FreshDir("crash");
  const std::string path = dir + "/file";
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("durable!").ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Append("in flight").ok());
  env.faults().torn_tail_bytes = 4;
  ASSERT_TRUE(env.CrashAndLose().ok());
  EXPECT_EQ(PosixEnv()->ReadFileToString(path).value(), "durable!in f");
}

TEST(EnvTest, LyingFsyncBetraysAtPowerLoss) {
  FaultInjectingEnv env(PosixEnv());
  const std::string dir = FreshDir("liar");
  const std::string path = dir + "/file";
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("vanishes").ok());
  env.faults().lying_syncs = 1;
  EXPECT_TRUE(file.value()->Sync().ok());  // reported durable — a lie
  EXPECT_EQ(env.sync_calls(), 0u);
  ASSERT_TRUE(env.CrashAndLose().ok());
  EXPECT_EQ(PosixEnv()->ReadFileToString(path).value(), "");
}

// ---------------------------------------------------------------------
// Wal basics

TEST(WalTest, FreshOpenCreatesManifestAndFirstSegment) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("fresh");
  auto wal = OpenOrDie(env, dir, WalOptions{});
  EXPECT_EQ(wal->active_seq(), 1u);
  EXPECT_TRUE(env->FileExists(dir + "/MANIFEST"));
  EXPECT_TRUE(env->FileExists(dir + "/" + Wal::SegmentName(1)));
  auto manifest = env->ReadFileToString(dir + "/MANIFEST");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value(), "dpaxos-wal v1 start=1\n");
}

TEST(WalTest, EveryRecordTypeSurvivesReopen) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("roundtrip");
  AcceptorRecord model;
  {
    auto wal = OpenOrDie(env, dir, WalOptions{});
    AcceptorJournal* j = wal->Attach(0, &model);
    for (uint32_t i = 0; i < 18; ++i) ApplyMutation(i, &model, j);
    ASSERT_TRUE(wal->SyncNow().ok());
    EXPECT_EQ(wal->stats().appends, 18u);
  }
  auto wal = OpenOrDie(env, dir, WalOptions{});
  EXPECT_TRUE(RecordsEqual(RecoveredRecord(wal.get()), model));
}

TEST(WalTest, AcceptorMutationsAreJournaledAndRecovered) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("acceptor");
  AcceptorRecord final_state;
  {
    NodeStorage storage;
    storage.AdoptWal(OpenOrDie(env, dir, WalOptions{}));
    Acceptor acc(/*leaderless=*/false, storage.RecordFor(0));
    EXPECT_TRUE(acc
                    .OnPrepare(PrepareMsg(0, Ballot{3, 1}, 0, {},
                                          /*exp=*/false, LeaderZoneView{}),
                               0)
                    .promised);
    EXPECT_TRUE(
        acc.OnPropose(ProposeMsg(0, Ballot{3, 1}, 7, Value::Of(11, "cmd")), 0)
            .accepted);
    EXPECT_TRUE(
        acc.OnPropose(ProposeMsg(0, Ballot{4, 2}, 8, Value::Of(12, "cmd2")), 0)
            .accepted);
    ASSERT_TRUE(storage.wal()->SyncNow().ok());
    // One real fdatasync covered all three mutations: group-commit
    // credit, not per-mutation counting.
    EXPECT_EQ(storage.RecordFor(0)->sync_writes, 1u);
    final_state = Clone(*storage.RecordFor(0));
  }
  NodeStorage reopened;
  reopened.AdoptWal(OpenOrDie(env, dir, WalOptions{}));
  EXPECT_TRUE(RecordsEqual(*reopened.RecordFor(0), final_state));
  EXPECT_EQ(reopened.RecordFor(0)->promised, (Ballot{4, 2}));
}

TEST(WalTest, GroupCommitReleasesBatchWithOneFsync) {
  Simulator sim(7);
  FaultInjectingEnv env(PosixEnv());
  const std::string dir = FreshDir("groupcommit");
  WalOptions options;
  options.group_commit_delay = 1000;  // 1ms virtual
  auto wal = OpenOrDie(&env, dir, options, &sim);
  AcceptorRecord rec;
  AcceptorJournal* j = wal->Attach(0, &rec);
  const uint64_t syncs_before = env.sync_calls();
  int released = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    ApplyMutation(i, &rec, j);
    wal->SyncThen([&released] { ++released; });
  }
  EXPECT_EQ(released, 0);  // nothing durable yet, nothing acknowledged
  sim.RunUntilIdle();
  EXPECT_EQ(released, 3);
  EXPECT_EQ(env.sync_calls() - syncs_before, 1u);
  EXPECT_EQ(wal->stats().fsyncs, 1u);
}

TEST(WalTest, RotationSealsSegmentsAndRecoveryReplaysAll) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("rotate");
  WalOptions options;
  options.segment_bytes = 96;  // a frame or two per segment
  AcceptorRecord model;
  {
    auto wal = OpenOrDie(env, dir, options);
    AcceptorJournal* j = wal->Attach(0, &model);
    for (uint32_t i = 0; i < 18; ++i) {
      ApplyMutation(i, &model, j);
      ASSERT_TRUE(wal->SyncNow().ok());
    }
    EXPECT_GT(wal->active_seq(), 2u);
  }
  auto wal = OpenOrDie(env, dir, options);
  EXPECT_TRUE(RecordsEqual(RecoveredRecord(wal.get()), model));
}

TEST(WalTest, CheckpointFoldsLogAndDeletesOldSegments) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("checkpoint");
  WalOptions options;
  options.segment_bytes = 128;
  AcceptorRecord model;
  uint64_t checkpoint_seq = 0;
  {
    auto wal = OpenOrDie(env, dir, options);
    AcceptorJournal* j = wal->Attach(0, &model);
    for (uint32_t i = 0; i < 12; ++i) {
      ApplyMutation(i, &model, j);
      ASSERT_TRUE(wal->SyncNow().ok());
    }
    ASSERT_TRUE(wal->Checkpoint().ok());
    EXPECT_EQ(wal->stats().checkpoints, 1u);
    checkpoint_seq = wal->active_seq();
    // Everything before the checkpoint segment is gone.
    auto children = env->GetChildren(dir);
    ASSERT_TRUE(children.ok());
    for (const std::string& name : children.value()) {
      if (name == "MANIFEST") continue;
      EXPECT_EQ(name, Wal::SegmentName(checkpoint_seq));
    }
  }
  auto wal = OpenOrDie(env, dir, options);
  EXPECT_EQ(wal->active_seq(), checkpoint_seq);
  EXPECT_TRUE(RecordsEqual(RecoveredRecord(wal.get()), model));
}

TEST(WalTest, RecoveryAfterCheckpointCrashWindows) {
  // Crash window 1: checkpoint segment written but the manifest still
  // names the old start. Replaying old deltas THEN the checkpoint images
  // must land on the same state (images overwrite).
  Env* env = PosixEnv();
  const std::string dir = FreshDir("ckpt_crash");
  AcceptorRecord model;
  {
    auto wal = OpenOrDie(env, dir, WalOptions{});
    AcceptorJournal* j = wal->Attach(0, &model);
    for (uint32_t i = 0; i < 9; ++i) ApplyMutation(i, &model, j);
    ASSERT_TRUE(wal->SyncNow().ok());
    ASSERT_TRUE(wal->Checkpoint().ok());
  }
  // Reconstruct window 1 by pointing the manifest back at segment 1;
  // segment 1 was deleted, so resurrect an empty one (a no-frame prefix
  // replays as nothing — the checkpoint images carry the state).
  {
    auto file = env->NewWritableFile(dir + "/" + Wal::SegmentName(1), true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Close().ok());
    auto manifest = env->NewWritableFile(dir + "/MANIFEST", true);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest.value()->Append("dpaxos-wal v1 start=1\n").ok());
    ASSERT_TRUE(manifest.value()->Close().ok());
  }
  {
    auto wal = OpenOrDie(env, dir, WalOptions{});
    EXPECT_TRUE(RecordsEqual(RecoveredRecord(wal.get()), model));
  }
  // Crash window 2: manifest swapped but old segments not yet deleted.
  // The stale pre-checkpoint segment must be swept at open.
  {
    auto manifest = env->NewWritableFile(dir + "/MANIFEST", true);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest.value()->Append("dpaxos-wal v1 start=2\n").ok());
    ASSERT_TRUE(manifest.value()->Close().ok());
    auto file = env->NewWritableFile(dir + "/" + Wal::SegmentName(1), true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("stale garbage, never read").ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  auto wal = OpenOrDie(env, dir, WalOptions{});
  EXPECT_TRUE(RecordsEqual(RecoveredRecord(wal.get()), model));
  EXPECT_FALSE(env->FileExists(dir + "/" + Wal::SegmentName(1)));
}

// ---------------------------------------------------------------------
// Exhaustive damage sweeps

TEST(WalTest, TruncationSweepRecoversExactWholeFramePrefix) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("trunc_build");
  std::vector<AcceptorRecord> snaps;
  {
    auto wal = OpenOrDie(env, dir, WalOptions{});
    AcceptorRecord rec;
    AcceptorJournal* j = wal->Attach(0, &rec);
    snaps.push_back(Clone(rec));
    for (uint32_t i = 0; i < 18; ++i) {
      ApplyMutation(i, &rec, j);
      ASSERT_TRUE(wal->SyncNow().ok());
      snaps.push_back(Clone(rec));
    }
  }
  const std::string seg_name = Wal::SegmentName(1);
  auto bytes = env->ReadFileToString(dir + "/" + seg_name);
  ASSERT_TRUE(bytes.ok());
  const std::vector<size_t> bounds = FrameBoundaries(bytes.value());
  ASSERT_EQ(bounds.size(), snaps.size());  // one frame per mutation

  const std::string sweep_dir = FreshDir("trunc_sweep");
  for (size_t cut = 0; cut <= bytes.value().size(); ++cut) {
    CopyDir(dir, sweep_dir);
    ASSERT_TRUE(env->Truncate(sweep_dir + "/" + seg_name, cut).ok());
    auto wal = Wal::Open(env, sweep_dir, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok()) << "cut at " << cut << ": "
                          << wal.status().ToString();
    size_t k = 0;
    while (k + 1 < bounds.size() && bounds[k + 1] <= cut) ++k;
    EXPECT_TRUE(RecordsEqual(RecoveredRecord(wal.value().get()), snaps[k]))
        << "cut at " << cut << " diverged from mutation prefix " << k;
    const bool torn = cut != bounds[k];
    EXPECT_EQ(wal.value()->stats().torn_tail_truncations, torn ? 1u : 0u)
        << "cut at " << cut;
    // The repair is physical: the file now ends at the frame boundary.
    EXPECT_EQ(env->FileSize(sweep_dir + "/" + seg_name), bounds[k]);
  }
}

TEST(WalTest, BitFlipSweepActiveSegmentPrefixOrCorruption) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("flip_build");
  std::vector<AcceptorRecord> snaps;
  {
    auto wal = OpenOrDie(env, dir, WalOptions{});
    AcceptorRecord rec;
    AcceptorJournal* j = wal->Attach(0, &rec);
    snaps.push_back(Clone(rec));
    for (uint32_t i = 0; i < 12; ++i) {
      ApplyMutation(i, &rec, j);
      ASSERT_TRUE(wal->SyncNow().ok());
      snaps.push_back(Clone(rec));
    }
  }
  const std::string seg_name = Wal::SegmentName(1);
  const uint64_t seg_size = env->FileSize(dir + "/" + seg_name);
  ASSERT_GT(seg_size, 0u);

  const std::string sweep_dir = FreshDir("flip_sweep");
  for (uint64_t offset = 0; offset < seg_size; ++offset) {
    CopyDir(dir, sweep_dir);
    ASSERT_TRUE(
        FlipByteAt(env, sweep_dir + "/" + seg_name, offset, 0x10).ok());
    auto wal = Wal::Open(env, sweep_dir, WalOptions{}, nullptr);
    if (!wal.ok()) {
      EXPECT_TRUE(wal.status().code() == StatusCode::kCorruption)
          << "flip at " << offset << ": " << wal.status().ToString();
      continue;
    }
    // Survivable damage (e.g. a flipped length field mimicking a torn
    // tail) must still land on SOME mutation prefix — never a state no
    // sequence of acknowledged mutations ever produced.
    const AcceptorRecord recovered = RecoveredRecord(wal.value().get());
    bool matches_prefix = false;
    for (const AcceptorRecord& snap : snaps) {
      if (RecordsEqual(recovered, snap)) {
        matches_prefix = true;
        break;
      }
    }
    EXPECT_TRUE(matches_prefix) << "flip at " << offset << " diverged";
  }
}

TEST(WalTest, BitFlipInSealedSegmentAlwaysCorruption) {
  Env* env = PosixEnv();
  const std::string dir = FreshDir("sealed_build");
  WalOptions options;
  options.segment_bytes = 64;  // force rotation quickly
  uint64_t sealed_seq = 0;
  {
    auto wal = OpenOrDie(env, dir, options);
    AcceptorRecord rec;
    AcceptorJournal* j = wal->Attach(0, &rec);
    for (uint32_t i = 0; i < 10; ++i) {
      ApplyMutation(i, &rec, j);
      ASSERT_TRUE(wal->SyncNow().ok());
    }
    ASSERT_GT(wal->active_seq(), 1u);
    sealed_seq = 1;  // the first segment is sealed by now
  }
  const std::string seg_name = Wal::SegmentName(sealed_seq);
  const uint64_t seg_size = env->FileSize(dir + "/" + seg_name);
  ASSERT_GT(seg_size, 0u);

  const std::string sweep_dir = FreshDir("sealed_sweep");
  for (uint64_t offset = 0; offset < seg_size; ++offset) {
    CopyDir(dir, sweep_dir);
    ASSERT_TRUE(
        FlipByteAt(env, sweep_dir + "/" + seg_name, offset, 0x10).ok());
    auto wal = Wal::Open(env, sweep_dir, options, nullptr);
    ASSERT_FALSE(wal.ok())
        << "flip at " << offset << " in a SEALED segment was accepted";
    EXPECT_TRUE(wal.status().code() == StatusCode::kCorruption)
        << "flip at " << offset << ": " << wal.status().ToString();
  }
}

// A checksummed record whose intent count no remaining bytes can hold:
// replay refuses it as Corruption before it sizes a vector from the
// count, in an intents record and in a checkpoint alike.
TEST(WalTest, HostileIntentCountIsCorruption) {
  Env* env = PosixEnv();
  constexpr uint8_t kTagIntents = 3;
  constexpr uint8_t kTagCheckpoint = 10;
  for (const uint8_t tag : {kTagIntents, kTagCheckpoint}) {
    const std::string dir = FreshDir("hostile_" + std::to_string(tag));
    OpenOrDie(env, dir, WalOptions{});  // MANIFEST and an empty segment 1
    std::string body;
    ByteWriter w(&body);
    w.PutU8(tag);
    w.PutU32(0);  // partition
    if (tag == kTagCheckpoint) {
      for (int ballot = 0; ballot < 5; ++ballot) {  // promised..lease_ballot
        w.PutU64(1);
        w.PutU32(1);
      }
      // lease_until, snapshot_through, compacted_through, sync_writes
      for (int field = 0; field < 4; ++field) w.PutU64(1);
      w.PutString("");  // snapshot_bytes
    }
    w.PutU32(0xFFFFFFFFu);  // intent count
    std::string frame;
    ByteWriter f(&frame);
    f.PutU32(static_cast<uint32_t>(body.size()));
    f.PutU32(Crc32(body));
    frame += body;
    auto segment =
        env->NewWritableFile(dir + "/" + Wal::SegmentName(1), false);
    ASSERT_TRUE(segment.ok());
    ASSERT_TRUE(segment.value()->Append(frame).ok());
    ASSERT_TRUE(segment.value()->Close().ok());

    auto wal = Wal::Open(env, dir, WalOptions{}, nullptr);
    ASSERT_FALSE(wal.ok()) << "tag " << int{tag};
    EXPECT_EQ(wal.status().code(), StatusCode::kCorruption)
        << "tag " << int{tag} << ": " << wal.status().ToString();
  }
}

// ---------------------------------------------------------------------
// WAL vs in-memory crash-fault model

TEST(WalTest, PowerLossRecoversToAcknowledgedPrefix) {
  // Property: for ANY power-loss point (with or without a torn tail),
  // recovery lands on snaps[k] for some k between the last acknowledged
  // sync and the total mutation count. k < last_synced would lose an
  // acknowledged write; a state matching no prefix would be divergence.
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Simulator sim(seed);  // used only as a deterministic random source
    FaultInjectingEnv env(PosixEnv());
    const std::string dir = FreshDir("power_" + std::to_string(seed));
    std::vector<AcceptorRecord> snaps;
    size_t last_synced = 0, total = 0;
    {
      auto wal = OpenOrDie(&env, dir, WalOptions{});
      AcceptorRecord rec;
      AcceptorJournal* j = wal->Attach(0, &rec);
      snaps.push_back(Clone(rec));
      const uint32_t steps = 8 + static_cast<uint32_t>(sim.rng().NextBounded(24));
      for (uint32_t i = 0; i < steps; ++i) {
        ApplyMutation(static_cast<uint32_t>(sim.rng().NextBounded(64)), &rec, j);
        snaps.push_back(Clone(rec));
        ++total;
        if (sim.rng().NextBounded(3) == 0) {
          ASSERT_TRUE(wal->SyncNow().ok());
          last_synced = total;
        }
      }
      if (sim.rng().NextBounded(2) == 0) {
        env.faults().torn_tail_bytes =
            static_cast<int64_t>(sim.rng().NextBounded(64));
      }
    }  // the Wal object dies with the "process"
    ASSERT_TRUE(env.CrashAndLose().ok());

    auto wal = Wal::Open(&env, dir, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok()) << "seed " << seed << ": "
                          << wal.status().ToString();
    const AcceptorRecord recovered = RecoveredRecord(wal.value().get());
    // Scan from the NEWEST prefix down: adjacent mutations can produce
    // identical states, and matching the oldest duplicate would falsely
    // report an acknowledged write as lost.
    size_t matched = snaps.size();
    for (size_t k = snaps.size(); k-- > 0;) {
      if (RecordsEqual(recovered, snaps[k])) {
        matched = k;
        break;
      }
    }
    ASSERT_LT(matched, snaps.size()) << "seed " << seed << " diverged";
    EXPECT_GE(matched, last_synced)
        << "seed " << seed << " lost an acknowledged write";
  }
}

// ---------------------------------------------------------------------
// fsyncgate

TEST(WalTest, FailedFsyncIsStickyWithholdsRepliesAndNeverRetries) {
  FaultInjectingEnv env(PosixEnv());
  const std::string dir = FreshDir("fsyncgate");
  WalOptions options;
  options.panic_on_sync_failure = false;  // observe instead of aborting
  auto wal = OpenOrDie(&env, dir, options);
  AcceptorRecord rec;
  AcceptorJournal* j = wal->Attach(0, &rec);

  ApplyMutation(0, &rec, j);
  env.faults().eio_syncs = 1;
  bool released = false;
  wal->SyncThen([&released] { released = true; });  // flushes inline
  EXPECT_FALSE(released);  // the reply this gated must NEVER be sent
  EXPECT_FALSE(wal->health().ok());
  EXPECT_EQ(wal->stats().sync_failures, 1u);
  const uint64_t syncs_after_failure = env.sync_calls();

  // Sticky: later appends are ignored, later syncs return the original
  // failure, and — fsyncgate — the WAL never issues another fdatasync
  // that could falsely report the lost pages as durable.
  const uint64_t appends_before = wal->stats().appends;
  ApplyMutation(1, &rec, j);
  wal->SyncThen([&released] { released = true; });
  Status again = wal->SyncNow();
  EXPECT_FALSE(again.ok());
  EXPECT_FALSE(released);
  EXPECT_EQ(wal->stats().appends, appends_before);
  EXPECT_EQ(env.sync_calls(), syncs_after_failure);
  EXPECT_EQ(wal->stats().sync_failures, 1u);  // one failure, counted once
}

TEST(WalPanicDeathTest, ProductionConfigAbortsOnFsyncFailure) {
  ASSERT_DEATH(
      {
        FaultInjectingEnv env(PosixEnv());
        const std::string dir = FreshDir("panic");
        WalOptions options;  // panic_on_sync_failure = true (default)
        auto wal = OpenOrDie(&env, dir, options);
        AcceptorRecord rec;
        AcceptorJournal* j = wal->Attach(0, &rec);
        ApplyMutation(0, &rec, j);
        env.faults().eio_syncs = 1;
        wal->SyncNow().ok();
      },
      "unrecoverable storage failure");
}

}  // namespace
}  // namespace dpaxos
