#include "paxos/node_host.h"

#include "common/check.h"
#include "common/logging.h"
#include "paxos/garbage_collector.h"

namespace dpaxos {

NodeHost::NodeHost(EventScheduler* sim, Transport* transport,
                   const Topology* topology, NodeId id)
    : sim_(sim), transport_(transport), topology_(topology), id_(id) {
  DPAXOS_CHECK(sim && transport && topology);
  DPAXOS_CHECK_LT(id, topology->num_nodes());
  transport_->RegisterHandler(
      id_, [this](NodeId from, const MessagePtr& msg) { OnMessage(from, msg); });
}

Replica* NodeHost::AddReplica(const QuorumSystem* quorums,
                              const ReplicaConfig& config) {
  DPAXOS_CHECK_MSG(replicas_.count(config.partition) == 0,
                   "partition " << config.partition << " already hosted");
  auto replica =
      std::make_unique<Replica>(sim_, transport_, topology_, quorums, id_,
                                config, storage_.RecordFor(config.partition));
  Replica* ptr = replica.get();
  const PartitionId partition = config.partition;
  ptr->set_sync_hook([this, partition] { storage_.MarkSynced(partition); });
  replicas_[partition] = std::move(replica);
  blueprints_[partition] = {quorums, config};
  return ptr;
}

void NodeHost::Restart(bool lose_unsynced) {
  replicas_.clear();  // volatile state dies with the process
  if (lose_unsynced) storage_.DropUnsynced();
  for (const auto& [partition, blueprint] : blueprints_) {
    const auto& [quorums, config] = blueprint;
    auto replica = std::make_unique<Replica>(sim_, transport_, topology_,
                                             quorums, id_, config,
                                             storage_.RecordFor(partition));
    replica->set_sync_hook(
        [this, partition] { storage_.MarkSynced(partition); });
    replicas_[partition] = std::move(replica);
  }
}

Replica* NodeHost::replica(PartitionId partition) const {
  auto it = replicas_.find(partition);
  return it == replicas_.end() ? nullptr : it->second.get();
}

void NodeHost::AttachGarbageCollector(GarbageCollector* gc) {
  DPAXOS_CHECK(gc != nullptr);
  DPAXOS_CHECK_EQ(gc->host(), id_);
  collectors_[gc->partition()] = gc;
}

void NodeHost::OnMessage(NodeId from, const MessagePtr& msg) {
  const uint8_t tag = msg->wire_tag();
  if (tag == 0) {
    DPAXOS_WARN("node " << id_ << " received non-paxos message "
                        << msg->TypeName());
    return;
  }
  // Only PaxosMessage subclasses carry non-zero wire tags.
  const auto& pm = static_cast<const PaxosMessage&>(*msg);
  // GC poll replies go to the co-located collector, not the replica.
  if (static_cast<WireType>(tag) == WireType::kGcPollReply) {
    auto it = collectors_.find(pm.partition);
    if (it != collectors_.end()) {
      it->second->OnPollReply(from, static_cast<const GcPollReplyMsg&>(pm));
    }
    return;
  }
  auto it = replicas_.find(pm.partition);
  if (it == replicas_.end()) {
    DPAXOS_DEBUG("node " << id_ << " hosts no replica for partition "
                         << pm.partition);
    return;
  }
  it->second->HandleMessage(from, msg);
}

}  // namespace dpaxos
