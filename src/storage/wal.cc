#include "storage/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/codec.h"
#include "common/crc32.h"
#include "common/perf_counters.h"
#include "paxos/wire_layout.h"

namespace dpaxos {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";
constexpr char kManifestHeader[] = "dpaxos-wal v1 start=";
// A frame's body can carry a full checkpoint image including a snapshot
// envelope; anything past this is a corrupt length field, not data.
constexpr uint64_t kMaxRecordBytes = 1ull << 30;

enum RecordTag : uint8_t {
  kTagPromise = 1,
  kTagAccept = 2,
  kTagIntents = 3,
  kTagLease = 4,
  kTagRelinquish = 5,
  kTagGcBallots = 6,
  kTagSnapshot = 7,
  kTagRelease = 8,
  kTagSnapshotDrop = 9,
  kTagCheckpoint = 10,
};

/// An accepted entry in a WAL record: the fast flag precedes the value
/// (the wire's AcceptedEntry layout puts it last).
template <typename E>
struct WalEntry {
  E& entry;
};

Status CorruptionAt(const char* what, uint64_t seq, size_t offset) {
  return Status::Corruption(std::string("wal: ") + what + " in segment " +
                            std::to_string(seq) + " at offset " +
                            std::to_string(offset));
}

}  // namespace

template <typename E>
struct WireLayout<WalEntry<E>> {
  template <typename V, typename M>
  static bool Visit(V& v, M& m) {
    return v(m.entry.slot, m.entry.ballot, m.entry.fast, m.entry.value);
  }
};

// ---------------------------------------------------------------------
// WalJournal: per-partition journal bound to an AcceptorRecord.

class WalJournal : public AcceptorJournal {
 public:
  WalJournal(Wal* wal, PartitionId partition)
      : wal_(wal), partition_(partition) {}

  void Promised(const Ballot& b) override { Append(kTagPromise, b); }

  void Accepted(const AcceptedEntry& entry) override {
    Append(kTagAccept, WalEntry{entry});
  }

  void IntentsChanged(const std::vector<Intent>& intents) override {
    Append(kTagIntents, intents);
  }

  void LeaseGranted(const Ballot& b, Timestamp until) override {
    Append(kTagLease, b, until);
  }

  void RelinquishConsumed(const Ballot& b) override {
    Append(kTagRelinquish, b);
  }

  void GcBallots(const Ballot& max_propose,
                 const Ballot& max_recovered) override {
    Append(kTagGcBallots, max_propose, max_recovered);
  }

  void SnapshotStored(SlotId through, std::string_view envelope) override {
    Append(kTagSnapshot, through, envelope);
  }

  void PrefixReleased(SlotId through) override {
    Append(kTagRelease, through);
  }

  void SnapshotDropped() override { Append(kTagSnapshotDrop); }

 private:
  /// One record: the tag and partition, then `fields` in order.
  template <typename... F>
  void Append(RecordTag tag, const F&... fields) {
    std::string body;
    ByteWriter w(&body);
    WireOut<ByteWriter> out(w);
    out(static_cast<uint8_t>(tag), partition_, fields...);
    wal_->AppendRecord(partition_, std::move(body));
  }

  Wal* wal_;
  PartitionId partition_;
};

namespace {

/// A checkpoint's fields after its header, up to the count of the
/// accepted entries that follow them. sync_writes rides along so the
/// metric survives restarts.
template <typename V, typename R>
bool CheckpointFields(V& v, R& rec, uint32_t& accepted) {
  return v(rec.promised, rec.max_propose_ballot, rec.max_recovered_ballot,
           rec.relinquish_consumed, rec.lease_ballot, rec.lease_until,
           rec.snapshot_through, rec.compacted_through, rec.sync_writes,
           rec.snapshot_bytes, rec.intents, accepted);
}

/// Full-image checkpoint body for one record.
std::string EncodeCheckpoint(PartitionId partition, const AcceptorRecord& rec) {
  std::string body;
  ByteWriter w(&body);
  WireOut<ByteWriter> out(w);
  uint32_t accepted = static_cast<uint32_t>(rec.accepted.size());
  out(static_cast<uint8_t>(kTagCheckpoint), partition);
  CheckpointFields(out, rec, accepted);
  rec.accepted.ForEachFrom(0, [&](const AcceptedEntry& e) {
    out(WalEntry{e});
  });
  return body;
}

bool DecodeCheckpoint(WireIn& in, AcceptorRecord* rec) {
  *rec = AcceptorRecord{};
  uint32_t accepted = 0;
  if (!CheckpointFields(in, *rec, accepted)) return false;
  for (uint32_t k = 0; k < accepted; ++k) {
    AcceptedEntry e;
    if (!in(WalEntry{e})) return false;
    rec->accepted.Put(e.slot, std::move(e));
  }
  // Entries below the compaction watermark never appear in a checkpoint
  // (released before it was written), but replay re-normalizes anyway.
  if (rec->compacted_through > 0) {
    rec->accepted.ReleaseBelow(rec->compacted_through);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------
// Wal

std::string Wal::SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

Wal::Wal(Env* env, std::string dir, const WalOptions& options,
         EventScheduler* scheduler)
    : env_(env), dir_(std::move(dir)), options_(options),
      scheduler_(scheduler) {}

Wal::~Wal() {
  if (flush_event_ != 0 && scheduler_ != nullptr) {
    scheduler_->Cancel(flush_event_);
  }
  if (active_ != nullptr) active_->Close().ok();
}

Result<std::unique_ptr<Wal>> Wal::Open(Env* env, const std::string& dir,
                                       const WalOptions& options,
                                       EventScheduler* scheduler) {
  DPAXOS_CHECK(env != nullptr);
  Status st = env->CreateDir(dir);
  if (!st.ok()) return st;

  std::unique_ptr<Wal> wal(new Wal(env, dir, options, scheduler));
  const std::string manifest_path = dir + "/" + kManifestName;

  // Enumerate existing segments.
  auto children = env->GetChildren(dir);
  if (!children.ok()) return children.status();
  std::vector<uint64_t> seqs;
  for (const std::string& name : children.value()) {
    unsigned long long seq = 0;
    if (std::sscanf(name.c_str(), "wal-%06llu.log", &seq) == 1) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());

  if (!env->FileExists(manifest_path)) {
    if (!seqs.empty()) {
      return Status::Corruption("wal: segments exist but MANIFEST missing in " +
                                dir);
    }
    // Fresh log: segment 1, then the manifest naming it, then make both
    // directory entries durable before the first record is ever acked.
    auto file = env->NewWritableFile(dir + "/" + SegmentName(1), true);
    if (!file.ok()) return file.status();
    wal->active_ = std::move(file.value());
    wal->active_seq_ = 1;
    wal->start_seq_ = 1;
    ++wal->stats_.segments_created;
    st = wal->WriteManifest(1);
    if (!st.ok()) return st;
    return wal;
  }

  auto manifest = env->ReadFileToString(manifest_path);
  if (!manifest.ok()) return manifest.status();
  unsigned long long start = 0;
  if (std::sscanf(manifest.value().c_str(),
                  "dpaxos-wal v1 start=%llu", &start) != 1 ||
      start == 0) {
    return Status::Corruption("wal: malformed MANIFEST in " + dir);
  }

  // Sweep segments below the manifest start: leftovers of a checkpoint
  // that crashed after the manifest swap but before the deletes.
  uint64_t max_seq = 0;
  for (uint64_t seq : seqs) {
    if (seq < start) {
      st = env->DeleteFile(dir + "/" + SegmentName(seq));
      if (!st.ok()) return st;
    } else {
      max_seq = std::max(max_seq, seq);
    }
  }
  if (max_seq == 0) {
    return Status::Corruption("wal: MANIFEST names segment " +
                              std::to_string(start) + " but none exist in " +
                              dir);
  }
  for (uint64_t seq = start; seq <= max_seq; ++seq) {
    if (!env->FileExists(dir + "/" + SegmentName(seq))) {
      return Status::Corruption("wal: missing segment " + std::to_string(seq) +
                                " in " + dir);
    }
  }

  // Replay in order; only the highest-numbered segment may have a torn
  // tail (it was the one being appended when the power died).
  for (uint64_t seq = start; seq <= max_seq; ++seq) {
    const std::string path = dir + "/" + SegmentName(seq);
    auto bytes = env->ReadFileToString(path);
    if (!bytes.ok()) return bytes.status();
    const bool sealed = seq != max_seq;
    uint64_t repaired = bytes.value().size();
    st = wal->ReplaySegment(bytes.value(), seq, sealed, &repaired);
    if (!st.ok()) return st;
    if (repaired != bytes.value().size()) {
      st = env->Truncate(path, repaired);
      if (!st.ok()) return st;
      ++wal->stats_.torn_tail_truncations;
      ++ThreadPerfCounters().wal_torn_tail_truncations;
    }
    wal->live_bytes_ += repaired;
    if (seq == max_seq) wal->active_size_ = repaired;
  }

  auto file = env->NewWritableFile(dir + "/" + SegmentName(max_seq), false);
  if (!file.ok()) return file.status();
  wal->active_ = std::move(file.value());
  wal->active_seq_ = max_seq;
  wal->start_seq_ = start;
  return wal;
}

Status Wal::ReplaySegment(const std::string& bytes, uint64_t seq, bool sealed,
                          uint64_t* repaired_size) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t remaining = bytes.size() - offset;
    uint32_t len = 0, crc = 0;
    bool torn = false;
    const char* what = nullptr;
    if (remaining < 8) {
      torn = true;
      what = "truncated frame header";
    } else {
      std::memcpy(&len, bytes.data() + offset, 4);
      std::memcpy(&crc, bytes.data() + offset + 4, 4);
      if (len > kMaxRecordBytes || len > remaining - 8) {
        // Either a torn length field or a record cut off by power loss;
        // both end the file, so both are torn-tail candidates.
        torn = true;
        what = "frame length past end of segment";
      }
    }
    if (!torn) {
      const std::string_view body(bytes.data() + offset + 8, len);
      if (Crc32(body) != crc) {
        // A checksum mismatch on the very last record of the active
        // segment is a torn sector; anywhere else it is bit rot.
        if (offset + 8 + len == bytes.size()) {
          torn = true;
          what = "checksum mismatch on final record";
        } else {
          return CorruptionAt("checksum mismatch", seq, offset);
        }
      } else {
        Status st = ApplyBody(body);
        if (!st.ok()) {
          return CorruptionAt(st.message().c_str(), seq, offset);
        }
        offset += 8 + len;
        continue;
      }
    }
    // Torn candidate: legal only at the tail of the active segment.
    if (sealed) return CorruptionAt(what, seq, offset);
    *repaired_size = offset;
    return Status::OK();
  }
  *repaired_size = bytes.size();
  return Status::OK();
}

Status Wal::ApplyBody(std::string_view body) {
  ByteReader r(body);
  WireIn in(r);
  uint8_t tag = 0;
  PartitionId partition = 0;
  if (!in(tag, partition)) return Status::Corruption("record header");
  AcceptorRecord* rec = RecoveredFor(partition);
  bool ok = true;
  switch (tag) {
    case kTagPromise:
      ok = in(rec->promised);
      break;
    case kTagAccept: {
      AcceptedEntry e;
      ok = in(WalEntry{e});
      if (ok) rec->accepted.Put(e.slot, std::move(e));
      break;
    }
    case kTagIntents: {
      std::vector<Intent> intents;
      ok = in(intents);
      if (ok) rec->intents = std::move(intents);
      break;
    }
    case kTagLease:
      ok = in(rec->lease_ballot, rec->lease_until);
      break;
    case kTagRelinquish:
      ok = in(rec->relinquish_consumed);
      break;
    case kTagGcBallots:
      ok = in(rec->max_propose_ballot, rec->max_recovered_ballot);
      break;
    case kTagSnapshot:
      ok = in(rec->snapshot_through, rec->snapshot_bytes);
      break;
    case kTagRelease: {
      SlotId through = 0;
      ok = in(through);
      if (ok) {
        rec->accepted.ReleaseBelow(through);
        rec->compacted_through = std::max(rec->compacted_through, through);
      }
      break;
    }
    case kTagSnapshotDrop:
      rec->snapshot_through = 0;
      rec->snapshot_bytes.clear();
      break;
    case kTagCheckpoint:
      ok = DecodeCheckpoint(in, rec);
      break;
    default:
      return Status::Corruption("unknown record tag");
  }
  return ok ? Status::OK() : Status::Corruption("truncated record body");
}

AcceptorRecord* Wal::RecoveredFor(PartitionId partition) {
  auto& rec = recovered_[partition];
  if (rec == nullptr) rec = std::make_unique<AcceptorRecord>();
  return rec.get();
}

std::map<PartitionId, std::unique_ptr<AcceptorRecord>> Wal::TakeRecovered() {
  return std::move(recovered_);
}

AcceptorJournal* Wal::Attach(PartitionId partition, AcceptorRecord* rec) {
  attached_[partition] = rec;
  auto& journal = journals_[partition];
  if (journal == nullptr) {
    journal = std::make_unique<WalJournal>(this, partition);
  }
  return journal.get();
}

Status Wal::WriteManifest(uint64_t start_seq) {
  const std::string tmp = dir_ + "/" + kManifestTmpName;
  auto file = env_->NewWritableFile(tmp, true);
  if (!file.ok()) return file.status();
  Status st = file.value()->Append(kManifestHeader +
                                   std::to_string(start_seq) + "\n");
  if (st.ok()) st = file.value()->Sync();
  if (st.ok()) st = file.value()->Close();
  if (!st.ok()) return st;
  st = env_->RenameFile(tmp, dir_ + "/" + kManifestName);
  if (!st.ok()) return st;
  st = env_->SyncDir(dir_);
  if (!st.ok()) return st;
  start_seq_ = start_seq;
  return Status::OK();
}

void Wal::AppendRecord(PartitionId partition, std::string body) {
  if (!health_.ok()) return;  // sticky: nothing is appended after a failure
  ByteWriter w(&pending_);
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutU32(Crc32(body));
  pending_.append(body);
  dirty_.push_back(partition);
  ++stats_.appends;
  stats_.bytes += 8 + body.size();
  ++ThreadPerfCounters().wal_appends;
  ThreadPerfCounters().wal_bytes += 8 + body.size();
}

void Wal::Fail(const Status& st) {
  health_ = st;
  ++stats_.sync_failures;
  ++ThreadPerfCounters().wal_sync_failures;
  // fsyncgate: the dirty pages a failed fsync covered may already be
  // dropped; retrying would report success for data that is gone. The
  // queued replies are never released.
  waiters_.clear();
  if (options_.panic_on_sync_failure) {
    DPAXOS_CHECK_MSG(false, "wal: unrecoverable storage failure in " << dir_
                                << ": " << st.ToString());
  }
}

void Wal::SyncThen(std::function<void()> done) {
  if (!health_.ok()) return;  // reply withheld forever (see Fail)
  waiters_.push_back(std::move(done));
  if (scheduler_ == nullptr) {
    FlushBatch();
    return;
  }
  if (flush_event_ == 0) {
    flush_event_ = scheduler_->Schedule(options_.group_commit_delay, [this] {
      flush_event_ = 0;
      FlushBatch();
    });
  }
}

Status Wal::SyncNow() {
  if (!health_.ok()) return health_;
  if (flush_event_ != 0 && scheduler_ != nullptr) {
    scheduler_->Cancel(flush_event_);
    flush_event_ = 0;
  }
  FlushBatch();
  return health_;
}

void Wal::FlushBatch() {
  if (!health_.ok()) return;
  if (!pending_.empty()) {
    Status st = active_->Append(pending_);
    if (!st.ok()) {
      Fail(st);
      return;
    }
    active_size_ += pending_.size();
    live_bytes_ += pending_.size();
    pending_.clear();
    unsynced_ = true;
  }
  if (unsynced_) {
    Status st = active_->Sync();
    if (!st.ok()) {
      Fail(st);
      return;
    }
    unsynced_ = false;
    ++stats_.fsyncs;
    ++ThreadPerfCounters().wal_fsyncs;
    // sync_writes in WAL mode counts real fdatasyncs per record: every
    // record with a mutation in this batch is credited once.
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    for (PartitionId partition : dirty_) {
      auto it = attached_.find(partition);
      if (it != attached_.end()) ++it->second->sync_writes;
    }
  }
  dirty_.clear();
  std::vector<std::function<void()>> done;
  done.swap(waiters_);
  for (auto& fn : done) fn();

  if (live_bytes_ > options_.checkpoint_bytes) {
    Checkpoint().ok();  // failure already routed through Fail()
  } else if (active_size_ > options_.segment_bytes) {
    Status st = RotateSegment();
    if (!st.ok() && health_.ok()) Fail(st);
  }
}

Status Wal::RotateSegment() {
  // The outgoing segment is sealed: everything in it is already synced
  // (rotation only runs right after a successful fdatasync).
  Status st = active_->Close();
  if (!st.ok()) return st;
  const uint64_t next = active_seq_ + 1;
  auto file = env_->NewWritableFile(dir_ + "/" + SegmentName(next), true);
  if (!file.ok()) return file.status();
  // The new directory entry must be durable before any acked record
  // lands in the file, or a power loss could lose a synced segment.
  st = env_->SyncDir(dir_);
  if (!st.ok()) return st;
  active_ = std::move(file.value());
  active_seq_ = next;
  active_size_ = 0;
  ++stats_.segments_created;
  return Status::OK();
}

Status Wal::Checkpoint() {
  if (!health_.ok()) return health_;
  // Land any buffered deltas in the old segment first so its tail is
  // whole, then start the new segment from full images.
  if (!pending_.empty() || unsynced_ || !waiters_.empty()) {
    Status st = SyncNow();
    if (!st.ok()) return st;
  }
  Status st = active_->Close();
  if (!st.ok()) {
    Fail(st);
    return health_;
  }
  const uint64_t next = active_seq_ + 1;
  auto file = env_->NewWritableFile(dir_ + "/" + SegmentName(next), true);
  if (!file.ok()) {
    Fail(file.status());
    return health_;
  }
  std::string batch;
  for (const auto& [partition, rec] : attached_) {
    std::string body = EncodeCheckpoint(partition, *rec);
    ByteWriter w(&batch);
    w.PutU32(static_cast<uint32_t>(body.size()));
    w.PutU32(Crc32(body));
    batch.append(body);
  }
  st = file.value()->Append(batch);
  if (st.ok()) st = file.value()->Sync();
  if (!st.ok()) {
    Fail(st);
    return health_;
  }
  ++stats_.fsyncs;
  ++ThreadPerfCounters().wal_fsyncs;
  st = env_->SyncDir(dir_);
  if (!st.ok()) {
    Fail(st);
    return health_;
  }
  // Point the manifest at the checkpoint segment (rename-atomic), then
  // reclaim everything older. A crash between the two just leaves dead
  // segments for the next open to sweep.
  const uint64_t old_start = start_seq_;
  st = WriteManifest(next);
  if (!st.ok()) {
    Fail(st);
    return health_;
  }
  for (uint64_t seq = old_start; seq < next; ++seq) {
    env_->DeleteFile(dir_ + "/" + SegmentName(seq)).ok();  // best-effort
  }
  active_ = std::move(file.value());
  active_seq_ = next;
  active_size_ = batch.size();
  live_bytes_ = batch.size();
  ++stats_.segments_created;
  ++stats_.checkpoints;
  return Status::OK();
}

}  // namespace dpaxos
