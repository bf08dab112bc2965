#include "micro.h"

#include <filesystem>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "client.h"
#include "net/tcp/framing.h"
#include "paxos/messages.h"
#include "paxos/wire.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "storage/env.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "txn/transaction.h"

namespace perfbench {

namespace {

constexpr int kCodecIterations = 20000;
constexpr int kApplySlots = 20000;
constexpr int kApplyChunk = 100;
constexpr int kWalSyncs = 300;

// Keeps timed results observable so the calls are not optimized away.
volatile uint64_t g_sink = 0;

/// Mean microseconds per call of `body` over `iterations` calls.
double MeanUs(int iterations, const std::function<void()>& body) {
  const int64_t start = NowNs();
  for (int i = 0; i < iterations; ++i) body();
  return static_cast<double>(NowNs() - start) / 1e3 / iterations;
}

// --- timing Env decorator ------------------------------------------------

class TimingFile : public dpaxos::WritableFile {
 public:
  TimingFile(std::unique_ptr<dpaxos::WritableFile> base,
             std::vector<double>* append_us, std::vector<double>* sync_us)
      : base_(std::move(base)), append_us_(append_us), sync_us_(sync_us) {}

  dpaxos::Status Append(std::string_view data) override {
    const int64_t start = NowNs();
    dpaxos::Status st = base_->Append(data);
    append_us_->push_back(static_cast<double>(NowNs() - start) / 1e3);
    return st;
  }
  dpaxos::Status Sync() override {
    const int64_t start = NowNs();
    dpaxos::Status st = base_->Sync();
    sync_us_->push_back(static_cast<double>(NowNs() - start) / 1e3);
    return st;
  }
  dpaxos::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<dpaxos::WritableFile> base_;
  std::vector<double>* append_us_;
  std::vector<double>* sync_us_;
};

/// Forwards to a base Env, timing every Append and Sync of the files it
/// opens.
class TimingEnv : public dpaxos::Env {
 public:
  explicit TimingEnv(dpaxos::Env* base) : base_(base) {}

  std::vector<double> append_us;
  std::vector<double> sync_us;

  dpaxos::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  dpaxos::Result<std::unique_ptr<dpaxos::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    auto file = base_->NewWritableFile(path, truncate);
    if (!file.ok()) return file.status();
    return std::unique_ptr<dpaxos::WritableFile>(std::make_unique<TimingFile>(
        std::move(file.value()), &append_us, &sync_us));
  }
  dpaxos::Result<std::string> ReadFileToString(
      const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  dpaxos::Result<std::vector<std::string>> GetChildren(
      const std::string& dir) override {
    return base_->GetChildren(dir);
  }
  dpaxos::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  dpaxos::Status RenameFile(const std::string& from,
                            const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  dpaxos::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  dpaxos::Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  uint64_t FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }

 private:
  dpaxos::Env* base_;
};

dpaxos::Transaction PutTxn(const OpStream& ops, uint64_t index) {
  dpaxos::Transaction txn;
  txn.id = index + 1;
  txn.client_id = 7100;
  txn.seq = index + 1;
  txn.ops.push_back(dpaxos::Operation::Put(
      OpStream::KeyName(ops.At(index).key), ops.Value(index)));
  return txn;
}

// Wal::Open, then one accepted-entry record per SyncThen: the volatile
// per-op pattern the durable serving path shows (about one fsync per
// op). Without a scheduler SyncThen flushes synchronously.
void TimeWal(const MicroInputs& in, const OpStream& ops, Tracer* tracer,
             Metrics* out) {
  std::error_code ec;
  std::filesystem::remove_all(in.wal_dir, ec);
  TimingEnv env(dpaxos::PosixEnv());
  const int64_t open_start = NowNs();
  auto wal = dpaxos::Wal::Open(&env, in.wal_dir, dpaxos::WalOptions{}, nullptr);
  const int64_t open_end = NowNs();
  tracer->Record("micro.wal_open", 0, open_start, open_end);
  if (!wal.ok()) {
    out->Set("storage.wal.open_us", 0, "us");
    return;
  }
  env.append_us.clear();
  env.sync_us.clear();
  dpaxos::AcceptorRecord record;
  record.journal = wal.value()->Attach(0, &record);
  const int64_t sync_start = NowNs();
  for (int i = 0; i < kWalSyncs; ++i) {
    dpaxos::AcceptedEntry entry;
    entry.slot = static_cast<dpaxos::SlotId>(i);
    entry.ballot = dpaxos::Ballot{1, 0};
    entry.value = dpaxos::Value::Of(static_cast<uint64_t>(i) + 1,
                                    dpaxos::EncodeBatch({PutTxn(ops, i)}));
    record.journal->Accepted(entry);
    wal.value()->SyncThen([] {});
  }
  tracer->Record("micro.wal_sync", 0, sync_start, NowNs());
  out->Set("storage.wal.open_us",
           static_cast<double>(open_end - open_start) / 1e3, "us");
  out->Set("storage.wal.append_us_p50", Quantile(env.append_us, 0.5), "us");
  out->Set("storage.wal.sync_us_p50", Quantile(env.sync_us, 0.5), "us");
  out->Set("storage.wal.sync_us_p99", Quantile(env.sync_us, 0.99), "us");
  wal.value().reset();
  std::filesystem::remove_all(in.wal_dir, ec);
}

}  // namespace

void RunMicro(const MicroInputs& in, Tracer* tracer, Metrics* out) {
  const OpStream ops(in.seed, 0, in.key_space);

  if (!in.wal_dir.empty()) {
    TimeWal(in, ops, tracer, out);
  } else {
    for (const char* name :
         {"storage.wal.open_us", "storage.wal.append_us_p50",
          "storage.wal.sync_us_p50", "storage.wal.sync_us_p99"}) {
      out->NotApplicable(name);
    }
  }

  // Wire codec: the replication round of one Put, the propose (accept
  // request) carrying the value and the accept vote answering it.
  const dpaxos::Transaction txn = PutTxn(ops, 0);
  const std::vector<dpaxos::Transaction> batch{txn};
  const dpaxos::Value value = dpaxos::Value::Of(1, dpaxos::EncodeBatch(batch));
  const dpaxos::ProposeMsg propose(0, dpaxos::Ballot{1, 0}, 12345, value);
  const dpaxos::AcceptMsg accept(0, dpaxos::Ballot{1, 0}, 12345);
  std::string buf;
  int64_t t = NowNs();
  out->Set("paxos.wire.serialize_us", MeanUs(kCodecIterations, [&] {
             buf.clear();
             dpaxos::SerializeMessageInto(propose, &buf);
             dpaxos::SerializeMessageInto(accept, &buf);
             g_sink = g_sink + buf.size();
           }),
           "us");
  tracer->Record("micro.serialize", 0, t, NowNs());
  const std::string propose_bytes = dpaxos::SerializeMessage(propose);
  const std::string accept_bytes = dpaxos::SerializeMessage(accept);
  t = NowNs();
  out->Set("paxos.wire.deserialize_us", MeanUs(kCodecIterations, [&] {
             auto p = dpaxos::DeserializeMessage(propose_bytes);
             auto a = dpaxos::DeserializeMessage(accept_bytes);
             g_sink = g_sink + (p.ok() ? 1 : 0) + (a.ok() ? 1 : 0);
           }),
           "us");
  tracer->Record("micro.deserialize", 0, t, NowNs());

  t = NowNs();
  out->Set("txn.encode_batch_us", MeanUs(kCodecIterations, [&] {
             g_sink = g_sink + dpaxos::EncodeBatch(batch).size();
           }),
           "us");
  tracer->Record("micro.encode_batch", 0, t, NowNs());

  // Client framing: parse one Put request body, encode one reply frame.
  dpaxos::ClientRequest req;
  req.request_id = 77;
  req.op = dpaxos::ClientOp::kPut;
  req.key = OpStream::KeyName(ops.At(0).key);
  req.value = ops.Value(0);
  const std::string frame = dpaxos::EncodeClientRequestFrame(req);
  const std::string_view body =
      std::string_view(frame).substr(dpaxos::kFrameHeaderBytes);
  t = NowNs();
  out->Set("net.tcp.frame_parse_us", MeanUs(kCodecIterations, [&] {
             auto parsed = dpaxos::ParseClientRequest(body);
             g_sink = g_sink + (parsed.ok() ? parsed->value.size() : 0);
           }),
           "us");
  tracer->Record("micro.frame_parse", 0, t, NowNs());
  dpaxos::ClientReply reply;
  reply.request_id = 77;
  reply.value = "123456";
  reply.watermark = 123456;
  t = NowNs();
  out->Set("net.tcp.reply_encode_us", MeanUs(kCodecIterations, [&] {
             g_sink = g_sink + dpaxos::EncodeClientReplyFrame(reply).size();
           }),
           "us");
  tracer->Record("micro.reply_encode", 0, t, NowNs());

  // Apply: one single-Put batch per slot through LogApplier into the KV
  // state machine, timed in chunks.
  std::vector<dpaxos::Value> values;
  values.reserve(kApplySlots);
  for (int i = 0; i < kApplySlots; ++i) {
    values.push_back(dpaxos::Value::Of(static_cast<uint64_t>(i) + 1,
                                       dpaxos::EncodeBatch({PutTxn(ops, i)})));
  }
  dpaxos::KvStateMachine kv;
  dpaxos::LogApplier applier(&kv);
  std::vector<double> chunk_us;
  t = NowNs();
  for (int c = 0; c < kApplySlots; c += kApplyChunk) {
    const int64_t start = NowNs();
    for (int i = c; i < c + kApplyChunk; ++i) {
      applier.OnDecided(static_cast<dpaxos::SlotId>(i),
                        values[static_cast<size_t>(i)]);
    }
    chunk_us.push_back(static_cast<double>(NowNs() - start) / 1e3 /
                       kApplyChunk);
  }
  tracer->Record("micro.apply", 0, t, NowNs());
  out->Set("smr.apply_us_p50", Median(chunk_us), "us");
}

}  // namespace perfbench
