#include "smr/kv_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/logging.h"
#include "smr/log_applier.h"
#include "smr/snapshot.h"
#include "txn/transaction.h"

namespace dpaxos {

namespace {

// FNV-1a over a string, used for the order-independent state checksum.
uint64_t HashString(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void KvStateMachine::Apply(SlotId slot, const std::string& payload) {
  if (payload.empty()) return;  // no-op filler
  // Validate the whole batch first, so a bad one applies nothing.
  Status valid = ParseBatch(
      payload, [](const TxnHeader&) {}, [](const OperationView&) {});
  if (!valid.ok()) {
    // A corrupt decided payload indicates a bug upstream; surface loudly
    // but keep the replica running.
    DPAXOS_ERROR("undecodable command in slot " << slot << ": "
                                                << valid.ToString());
    return;
  }
  bool apply = false;
  ParseBatch(
      payload,
      [&](const TxnHeader& txn) {
        // A client retry that raced an earlier successful submission is
        // already in the log: applying it again would violate
        // exactly-once semantics.
        apply = txn.client_id == 0 ||
                applied_seqs_[txn.client_id].Insert(txn.seq);
        if (apply) {
          ++applied_commands_;
        } else {
          ++duplicates_skipped_;
        }
      },
      [&](const OperationView& op) {
        if (!apply || op.kind != Operation::Kind::kPut) return;
        // Values are views into the payload: an existing key's value is
        // overwritten in place, keeping its capacity.
        auto it = data_.find(op.key);
        if (it != data_.end()) {
          pair_bytes_ = pair_bytes_ - it->second.size() + op.value.size();
          it->second.assign(op.value);
        } else {
          pair_bytes_ += 8 + op.key.size() + op.value.size();
          index_.insert(&*data_.emplace(op.key, op.value).first);
        }
        ++applied_writes_;
      });
}

bool KvStateMachine::ClientWindow::Insert(uint64_t seq) {
  // The next in-order seq, when the set holds nothing at or below it,
  // extends the prefix without a set node; the answer and the window are
  // those the general path below gives.
  if (seq == prefix + 1 && (sparse.empty() || *sparse.begin() > seq)) {
    ++prefix;
    while (!sparse.empty() && *sparse.begin() == prefix + 1) {
      ++prefix;
      sparse.erase(sparse.begin());
    }
    return true;
  }
  if (Contains(seq)) return false;
  sparse.insert(seq);
  auto it = sparse.begin();
  while (it != sparse.end() && *it == prefix + 1) {
    ++prefix;
    it = sparse.erase(it);
  }
  return true;
}

bool KvStateMachine::ClientWindow::Contains(uint64_t seq) const {
  return (seq != 0 && seq <= prefix) || sparse.count(seq) > 0;
}

bool KvStateMachine::WasApplied(uint64_t client_id, uint64_t seq) const {
  if (client_id == 0) return false;
  auto it = applied_seqs_.find(client_id);
  return it != applied_seqs_.end() && it->second.Contains(seq);
}

std::optional<std::string> KvStateMachine::Get(const std::string& key) const {
  const std::string* value = Find(key);
  if (value == nullptr) return std::nullopt;
  return *value;
}

const std::string* KvStateMachine::Find(std::string_view key) const {
  auto it = data_.find(key);
  return it == data_.end() ? nullptr : &it->second;
}

std::string KvStateMachine::SerializeFull() const {
  std::string out;
  SerializeFull(&out);
  return out;
}

size_t KvStateMachine::SerializedSize() const {
  // u64 counts for the pairs, the clients and the three counters.
  size_t bytes = 5 * 8 + pair_bytes_;
  for (const auto& [id, window] : applied_seqs_) {
    bytes += 3 * 8 + 8 * window.sparse.size();
  }
  return bytes;
}

void KvStateMachine::SerializeFull(std::string* out) const {
  std::vector<uint64_t> clients;
  clients.reserve(applied_seqs_.size());
  for (const auto& [id, window] : applied_seqs_) clients.push_back(id);
  std::sort(clients.begin(), clients.end());

  ByteWriter w(out);
  w.Reserve(SerializedSize());
  w.PutU64(index_.size());
  for (const Entry* entry : index_) {
    w.PutString(entry->first);
    w.PutString(entry->second);
  }
  w.PutU64(clients.size());
  for (uint64_t id : clients) {
    const ClientWindow& window = applied_seqs_.at(id);
    w.PutU64(id);
    w.PutU64(window.prefix);
    w.PutU64(window.sparse.size());
    for (uint64_t seq : window.sparse) w.PutU64(seq);
  }
  w.PutU64(applied_commands_);
  w.PutU64(applied_writes_);
  w.PutU64(duplicates_skipped_);
}

Status KvStateMachine::RestoreFull(const std::string& snapshot) {
  ByteReader r(snapshot);
  KeyValueMap data;
  KeyIndex index;
  std::unordered_map<uint64_t, ClientWindow> seqs;
  uint64_t pairs = 0;
  if (!r.ReadU64(&pairs)) return Status::Corruption("kv snapshot truncated");
  for (uint64_t i = 0; i < pairs; ++i) {
    std::string k, v;
    if (!r.ReadString(&k) || !r.ReadString(&v)) {
      return Status::Corruption("kv snapshot truncated");
    }
    auto [it, created] = data.insert_or_assign(std::move(k), std::move(v));
    // SerializeFull writes the keys in order, so each lands at the end.
    if (created) index.emplace_hint(index.end(), &*it);
  }
  size_t pair_bytes = 0;
  for (const Entry& entry : data) {
    pair_bytes += 8 + entry.first.size() + entry.second.size();
  }
  uint64_t clients = 0;
  if (!r.ReadU64(&clients)) return Status::Corruption("kv snapshot truncated");
  for (uint64_t i = 0; i < clients; ++i) {
    uint64_t id = 0, sparse = 0;
    ClientWindow window;
    if (!r.ReadU64(&id) || !r.ReadU64(&window.prefix) || !r.ReadU64(&sparse)) {
      return Status::Corruption("kv snapshot truncated");
    }
    for (uint64_t j = 0; j < sparse; ++j) {
      uint64_t seq = 0;
      if (!r.ReadU64(&seq)) return Status::Corruption("kv snapshot truncated");
      window.sparse.insert(seq);
    }
    seqs[id] = std::move(window);
  }
  uint64_t commands = 0, writes = 0, dups = 0;
  if (!r.ReadU64(&commands) || !r.ReadU64(&writes) || !r.ReadU64(&dups) ||
      !r.AtEnd()) {
    return Status::Corruption("kv snapshot malformed");
  }
  // Swapping keeps every node where it is, so the new index points into
  // data_ from here on.
  data_.swap(data);
  index_.swap(index);
  pair_bytes_ = pair_bytes;
  applied_seqs_ = std::move(seqs);
  applied_commands_ = commands;
  applied_writes_ = writes;
  duplicates_skipped_ = dups;
  return Status::OK();
}

std::string EncodeKvSnapshot(SlotId through_slot, const KvStateMachine& kv) {
  std::string envelope;
  envelope.reserve(kSnapshotEnvelopeBytes + kv.SerializedSize());
  const size_t start = BeginSnapshot(through_slot, &envelope);
  kv.SerializeFull(&envelope);
  FinishSnapshot(start, &envelope);
  return envelope;
}

Status InstallKvSnapshot(SlotId through, std::string_view envelope,
                         KvStateMachine* kv, LogApplier* applier) {
  Result<Snapshot> snap = DecodeSnapshot(envelope);
  if (!snap.ok()) return snap.status();
  if (snap->through_slot != through) {
    return Status::Corruption("snapshot coverage mismatch");
  }
  if (through <= applier->applied_watermark()) return Status::OK();
  Status restored = kv->RestoreFull(snap->payload);
  if (!restored.ok()) return restored;
  applier->FastForwardTo(through);
  return Status::OK();
}

uint64_t KvStateMachine::Checksum() const {
  // XOR of per-pair hashes: independent of iteration order.
  uint64_t sum = 0;
  for (const auto& [k, v] : data_) {
    sum ^= HashString(v, HashString(k));
  }
  return sum;
}

}  // namespace dpaxos
