#include "smr/log_applier.h"

namespace dpaxos {

void LogApplier::OnDecided(SlotId slot, const Value& value) {
  if (slot < next_to_apply_) return;  // duplicate learn
  if (slot > next_to_apply_) {
    // Out of order: keep a copy until the gap below it fills.
    buffer_.emplace(slot, value);
    return;
  }
  // Next in line: apply straight from the caller's value.
  sm_->Apply(slot, value.payload);
  ++next_to_apply_;
  DrainBuffered();
}

void LogApplier::DrainBuffered() {
  while (true) {
    auto it = buffer_.find(next_to_apply_);
    if (it == buffer_.end()) break;
    sm_->Apply(it->first, it->second.payload);
    buffer_.erase(it);
    ++next_to_apply_;
  }
}

}  // namespace dpaxos
