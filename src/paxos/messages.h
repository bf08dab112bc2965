// Wire messages of the DPaxos protocol family.
//
// One partition = one Paxos instance; every message carries the partition
// id so a NodeHost can demultiplex. SizeBytes() models serialized size
// for the bandwidth model: a fixed header plus per-field payloads. Every
// message can be built from its partition alone, each field at its
// default; the codec decodes into such a message (paxos/wire_layout.h).
#ifndef DPAXOS_PAXOS_MESSAGES_H_
#define DPAXOS_PAXOS_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "paxos/ballot.h"
#include "paxos/intent.h"
#include "paxos/value.h"
#include "quorum/quorum_system.h"

namespace dpaxos {

/// Fixed per-message framing overhead (headers, type tag, partition id).
inline constexpr uint64_t kMessageHeaderBytes = 64;

/// Stable one-byte tags identifying each message type on the wire.
/// Each message's wire_tag() override returns its entry; the codec
/// (paxos/wire.h) dispatches encode and decode on it.
enum class WireType : uint8_t {
  kPrepare = 1,
  kPromise = 2,
  kPrepareNack = 3,
  kPropose = 4,
  kAccept = 5,
  kAcceptNack = 6,
  kDecide = 7,
  kHandoffRequest = 8,
  kRelinquish = 9,
  kGcPoll = 10,
  kGcPollReply = 11,
  kGcThreshold = 12,
  kLzPrepare = 13,
  kLzPromise = 14,
  kLzPropose = 15,
  kLzAccept = 16,
  kLzNack = 17,
  kLzTransition = 18,
  kLzTransitionAck = 19,
  kLzStoreIntents = 20,
  kLzStoreAck = 21,
  kLzAnnounce = 22,
  kForward = 23,
  kForwardReply = 24,
  kLearnRequest = 25,
  kLearnReply = 26,
  kSnapshotRequest = 27,
  // 28 was the single-message kSnapshotReply, superseded by chunked
  // transfer; the tag is retired (decodes as unknown), never reused.
  kHeartbeat = 29,
  kSnapshotChunk = 30,
  kFastAccept = 31,
  kFastAccepted = 32,
  kFastNack = 33,
  kFastGrant = 34,
  kStealRequest = 35,
  kOwnershipGrant = 36,
};

/// Every wire message once: X(Prepare) stands for WireType::kPrepare and
/// PrepareMsg. The list generates the codec's encode and decode switches
/// (paxos/wire.cc) and Replica::HandleMessage, which hands X(Name) to
/// Replica::OnName. Adding a message takes four edits: its WireType,
/// its struct, its DPAXOS_LAYOUT line (paxos/wire_layout.h) and its
/// entry here; a WireType with no entry fails the build.
#define DPAXOS_WIRE_MESSAGES(X) \
  X(Prepare)                    \
  X(Promise)                    \
  X(PrepareNack)                \
  X(Propose)                    \
  X(Accept)                     \
  X(AcceptNack)                 \
  X(Decide)                     \
  X(HandoffRequest)             \
  X(Relinquish)                 \
  X(GcPoll)                     \
  X(GcPollReply)                \
  X(GcThreshold)                \
  X(LzPrepare)                  \
  X(LzPromise)                  \
  X(LzPropose)                  \
  X(LzAccept)                   \
  X(LzNack)                     \
  X(LzTransition)               \
  X(LzTransitionAck)            \
  X(LzStoreIntents)             \
  X(LzStoreAck)                 \
  X(LzAnnounce)                 \
  X(Forward)                    \
  X(ForwardReply)               \
  X(LearnRequest)               \
  X(LearnReply)                 \
  X(SnapshotRequest)            \
  X(Heartbeat)                  \
  X(SnapshotChunk)              \
  X(FastAccept)                 \
  X(FastAccepted)               \
  X(FastNack)                   \
  X(FastGrant)                  \
  X(StealRequest)               \
  X(OwnershipGrant)

/// \brief Common base: every protocol message belongs to a partition.
struct PaxosMessage : Message {
  explicit PaxosMessage(PartitionId p) : partition(p) {}
  PartitionId partition;
};

inline uint64_t IntentsWireSize(const std::vector<Intent>& intents) {
  uint64_t total = 0;
  for (const Intent& i : intents) total += i.WireSize();
  return total;
}

// ---------------------------------------------------------------------
// Leader Election phase

/// prepare(p, intents): Leader Election round (paper Algorithm 1 line 6).
/// `expansion` marks the second round sent to detected intents' quorums;
/// it carries the same ballot and intents as the first round.
struct PrepareMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  PrepareMsg(PartitionId p, Ballot b, SlotId first, std::vector<Intent> in,
             bool exp, LeaderZoneView view)
      : PaxosMessage(p),
        ballot(b),
        first_slot(first),
        intents(std::move(in)),
        expansion(exp),
        lz_view(view) {}

  Ballot ballot;
  SlotId first_slot = 0;
  std::vector<Intent> intents;
  bool expansion = false;
  LeaderZoneView lz_view;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 24 + IntentsWireSize(intents);
  }
  const char* TypeName() const override { return "prepare"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kPrepare);
  }
};

/// An accepted (slot, ballot, value) triple reported in a promise.
/// `fast` marks fast-round votes (acceptor-assigned slot, no leader
/// relay): during recovery a classic entry beats a fast entry at the
/// same ballot, because the leader only classic-proposes over fast votes
/// once no fast value can reach unanimity (docs/PROTOCOL.md).
struct AcceptedEntry {
  SlotId slot = 0;
  Ballot ballot;
  Value value;
  bool fast = false;
};

/// promise(q, v_q, p, intents): positive Leader Election vote.
struct PromiseMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  PromiseMsg(PartitionId p, Ballot b, bool exp)
      : PaxosMessage(p), ballot(b), expansion(exp) {}

  /// The prepare ballot being answered.
  Ballot ballot;
  /// Echo of PrepareMsg::expansion, so the candidate can tell which round
  /// this vote belongs to (intents from expansion-round promises may be
  /// discarded, paper Section 4.3.1).
  bool expansion = false;
  /// Previously accepted entries for slots >= the prepare's first_slot.
  std::vector<AcceptedEntry> accepted;
  /// Previously stored intents (paper: "list of previously received
  /// intents"), excluding the one just declared by this prepare.
  std::vector<Intent> intents;
  /// Piggybacked Leader Zone information (paper Algorithm 2 lines 5-10).
  LeaderZoneView lz_view;
  /// The acceptor's durable compaction watermark: it has released every
  /// accepted entry below this slot (all covered by its snapshot). A
  /// candidate must not treat those slots as undecided holes — see the
  /// compaction rule in docs/PROTOCOL.md.
  SlotId compacted_through = 0;

  uint64_t SizeBytes() const override {
    uint64_t sz = kMessageHeaderBytes + 16 + IntentsWireSize(intents);
    // The fast flag is modeled only on fast entries, so fast-path-off
    // runs keep their historical bandwidth schedule bit-for-bit.
    for (const AcceptedEntry& e : accepted) {
      sz += 32 + e.value.size_bytes + (e.fast ? 1 : 0);
    }
    // Modeled only when compaction is active, so compaction-off runs keep
    // their historical bandwidth schedule bit-for-bit.
    if (compacted_through != 0) sz += 8;
    return sz;
  }
  const char* TypeName() const override { return "promise"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kPromise);
  }
};

/// Negative Leader Election vote: a higher ballot was already promised,
/// a read lease blocks elections, or the aspirant's Leader Zone view is
/// stale (redirect).
struct PrepareNackMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  PrepareNackMsg(PartitionId p, Ballot b) : PaxosMessage(p), ballot(b) {}

  /// The prepare ballot being rejected.
  Ballot ballot;
  /// The conflicting promised ballot (null if rejected for another reason).
  Ballot promised;
  /// If a read lease blocks this election, when it expires (else 0).
  Timestamp lease_until = 0;
  /// The responder's Leader Zone view (redirection, paper Step 3).
  LeaderZoneView lz_view;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 40; }
  const char* TypeName() const override { return "prepare-nack"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kPrepareNack);
  }
};

// ---------------------------------------------------------------------
// Replication phase

/// propose(p, v) for one slot (the paper's accept-request).
struct ProposeMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  ProposeMsg(PartitionId p, Ballot b, SlotId s, Value v)
      : PaxosMessage(p), ballot(b), slot(s), value(std::move(v)) {}

  Ballot ballot;
  SlotId slot = 0;
  Value value;
  /// Piggybacked read-lease request (paper Section 4.5): an accept doubles
  /// as a lease vote valid until `lease_until`.
  bool lease_request = false;
  Timestamp lease_until = 0;
  /// True once this leader finished re-committing every value it adopted
  /// during its Leader Election. The garbage-collection threshold only
  /// advances on flagged proposes: collecting an intent before its
  /// decided values were re-secured at the new leader's quorum could
  /// lose them (a strengthening of the paper's Algorithm 3 — see
  /// docs/PROTOCOL.md).
  bool recovery_complete = false;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 32 + value.size_bytes;
  }
  const char* TypeName() const override { return "propose"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kPropose);
  }
};

/// accept(p): positive Replication vote for one slot.
struct AcceptMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  AcceptMsg(PartitionId p, Ballot b, SlotId s)
      : PaxosMessage(p), ballot(b), slot(s) {}

  Ballot ballot;
  SlotId slot = 0;
  /// Piggybacked lease vote (paper Section 4.5).
  bool lease_vote = false;
  Timestamp lease_until = 0;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 32; }
  const char* TypeName() const override { return "accept"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kAccept);
  }
};

/// Negative Replication vote: the acceptor promised a higher ballot.
struct AcceptNackMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  AcceptNackMsg(PartitionId p, Ballot b, SlotId s, Ballot prom)
      : PaxosMessage(p), ballot(b), slot(s), promised(prom) {}

  Ballot ballot;
  SlotId slot = 0;
  Ballot promised;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 40; }
  const char* TypeName() const override { return "accept-nack"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kAcceptNack);
  }
};

/// Commit notification from the leader to learners.
struct DecideMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  DecideMsg(PartitionId p, SlotId s, Value v)
      : PaxosMessage(p), slot(s), value(std::move(v)) {}

  SlotId slot = 0;
  Value value;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 16 + value.size_bytes;
  }
  const char* TypeName() const override { return "decide"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kDecide);
  }
};

/// Leader liveness beacon to its replication quorum (failure detector).
struct HeartbeatMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  HeartbeatMsg(PartitionId p, Ballot b) : PaxosMessage(p), ballot(b) {}

  Ballot ballot;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 16; }
  const char* TypeName() const override { return "heartbeat"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kHeartbeat);
  }
};

// ---------------------------------------------------------------------
// Fast path (relaxed quorum intersection; docs/PROTOCOL.md §fast-path)
//
// After winning an election with enable_fast_path on, the leader grants
// a pinned fast quorum to every node. An edge proposer then sends
// FastAccept straight to the fast quorum's acceptors; each acceptor
// assigns the next free slot, votes durably, and answers the proposer
// (and the leader, which tracks unanimity / conflicts). A value is
// fast-committed when ALL fast-quorum members voted it into one slot —
// one proposer->acceptors->proposer round trip, no leader relay.

/// Leader -> everyone: arms fast-path proposing under `ballot`. Doubles
/// as a prepare-lite (receivers promise the ballot); `first_slot` fences
/// fast votes above every slot committed at earlier ballots.
struct FastGrantMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  FastGrantMsg(PartitionId p, Ballot b, SlotId first, std::vector<NodeId> q)
      : PaxosMessage(p), ballot(b), first_slot(first), quorum(std::move(q)) {}

  Ballot ballot;
  SlotId first_slot = 0;
  /// The pinned fast quorum of this ballot (sorted, includes the leader).
  std::vector<NodeId> quorum;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 24 + 4 * quorum.size();
  }
  const char* TypeName() const override { return "fast-grant"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kFastGrant);
  }
};

/// Proposer -> fast-quorum acceptor: vote `value` into your next free
/// slot at `ballot`. `request_id` identifies the proposer's attempt so
/// the leader can answer its fallback resolution like a forward.
struct FastAcceptMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  FastAcceptMsg(PartitionId p, Ballot b, uint64_t id, Value v)
      : PaxosMessage(p), ballot(b), request_id(id), value(std::move(v)) {}

  Ballot ballot;
  uint64_t request_id = 0;
  Value value;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 24 + value.size_bytes;
  }
  const char* TypeName() const override { return "fast-accept"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kFastAccept);
  }
};

/// Acceptor -> proposer AND leader: durably voted (ballot, slot, value).
/// Carries the value so the leader can classic-repropose it on conflict
/// or timeout without another fetch.
struct FastAcceptedMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  FastAcceptedMsg(PartitionId p, Ballot b, SlotId s, NodeId prop,
                  uint64_t id, Value v)
      : PaxosMessage(p),
        ballot(b),
        slot(s),
        proposer(prop),
        request_id(id),
        value(std::move(v)) {}

  Ballot ballot;
  SlotId slot = 0;
  NodeId proposer = kInvalidNode;
  uint64_t request_id = 0;
  Value value;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 36 + value.size_bytes;
  }
  const char* TypeName() const override { return "fast-accepted"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kFastAccepted);
  }
};

/// Acceptor -> proposer: fast vote refused (stale grant ballot, no grant
/// armed, or a higher promise). The proposer falls back to the classic
/// forward path, toward `leader_hint` when known.
struct FastNackMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  FastNackMsg(PartitionId p, Ballot b, Ballot prom, uint64_t id)
      : PaxosMessage(p), ballot(b), promised(prom), request_id(id) {}

  Ballot ballot;
  Ballot promised;
  uint64_t request_id = 0;
  NodeId leader_hint = kInvalidNode;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 44; }
  const char* TypeName() const override { return "fast-nack"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kFastNack);
  }
};

// ---------------------------------------------------------------------
// Request forwarding (remote clients, paper Section 5.3 / Figure 10b)

/// A non-leader replica forwards a client value to the partition leader.
struct ForwardMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  ForwardMsg(PartitionId p, uint64_t id, Value v)
      : PaxosMessage(p), request_id(id), value(std::move(v)) {}

  uint64_t request_id = 0;
  Value value;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 8 + value.size_bytes;
  }
  const char* TypeName() const override { return "forward"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kForward);
  }
};

/// Answer to a forwarded request: committed, failed, or a redirect to the
/// node the responder believes is the leader.
struct ForwardReplyMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  ForwardReplyMsg(PartitionId p, uint64_t id)
      : PaxosMessage(p), request_id(id) {}

  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  SlotId slot = kInvalidSlot;
  /// On kFailedPrecondition: where to retry (kInvalidNode if unknown).
  NodeId leader_hint = kInvalidNode;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 24; }
  const char* TypeName() const override { return "forward-reply"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kForwardReply);
  }
};

// ---------------------------------------------------------------------
// Learner catch-up and snapshot transfer
//
// A lagging or recovered replica pulls decided entries from a peer; if
// the peer already truncated its log below the requested slot, the
// requester falls back to an application snapshot.

/// One decided (slot, value) pair shipped during catch-up.
struct DecidedEntryWire {
  SlotId slot = 0;
  Value value;
};

/// Ask a peer for its decided entries starting at `from_slot`.
struct LearnRequestMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LearnRequestMsg(PartitionId p, SlotId from, uint32_t max)
      : PaxosMessage(p), from_slot(from), max_entries(max) {}

  SlotId from_slot = 0;
  uint32_t max_entries = 0;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 12; }
  const char* TypeName() const override { return "learn-request"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLearnRequest);
  }
};

/// Catch-up answer: a page of decided entries, or a snapshot referral
/// when the requested prefix was already truncated away.
struct LearnReplyMsg final : PaxosMessage {
  explicit LearnReplyMsg(PartitionId p) : PaxosMessage(p) {}

  SlotId from_slot = 0;
  std::vector<DecidedEntryWire> entries;
  /// The responder's contiguous decided watermark.
  SlotId peer_watermark = 0;
  /// Lowest slot the responder can still serve; if it exceeds the request
  /// slot, the requester needs a snapshot instead.
  SlotId first_available = 0;

  uint64_t SizeBytes() const override {
    uint64_t sz = kMessageHeaderBytes + 24;
    for (const DecidedEntryWire& e : entries) sz += 36 + e.value.size_bytes;
    return sz;
  }
  const char* TypeName() const override { return "learn-reply"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLearnReply);
  }
};

/// Ask a peer for an application snapshot (log prefix truncated),
/// starting at byte `offset` of the peer's current snapshot image.
/// offset 0 starts a fresh transfer; the peer regenerates its image.
struct SnapshotRequestMsg final : PaxosMessage {
  explicit SnapshotRequestMsg(PartitionId p, uint64_t off = 0)
      : PaxosMessage(p), offset(off) {}

  uint64_t offset = 0;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 8; }
  const char* TypeName() const override { return "snapshot-request"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kSnapshotRequest);
  }
};

/// One chunk of a checksummed snapshot envelope (smr/snapshot.h)
/// covering all slots below `through_slot`. The requester reassembles
/// chunks by offset until `total_bytes` arrive, then verifies the CRC of
/// the whole envelope before installing anything.
struct SnapshotChunkMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  SnapshotChunkMsg(PartitionId p, SlotId through, uint64_t off,
                   uint64_t total, std::string bytes)
      : PaxosMessage(p),
        through_slot(through),
        offset(off),
        total_bytes(total),
        data(std::move(bytes)) {}

  SlotId through_slot = 0;
  /// Byte position of `data` within the envelope.
  uint64_t offset = 0;
  /// Size of the full envelope; the last chunk satisfies
  /// offset + data.size() == total_bytes.
  uint64_t total_bytes = 0;
  std::string data;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 24 + data.size();
  }
  const char* TypeName() const override { return "snapshot-chunk"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kSnapshotChunk);
  }
};

// ---------------------------------------------------------------------
// Leader Handoff (paper Section 4.4)

/// Ask the current leader to relinquish leadership to the sender.
struct HandoffRequestMsg final : PaxosMessage {
  explicit HandoffRequestMsg(PartitionId p) : PaxosMessage(p) {}

  uint64_t SizeBytes() const override { return kMessageHeaderBytes; }
  const char* TypeName() const override { return "handoff-request"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kHandoffRequest);
  }
};

/// relinquish(): transfers the logical leader role. Sent at most once per
/// slot range; after sending, the old leader stops acting as a leader.
struct RelinquishMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  RelinquishMsg(PartitionId p, Ballot b, SlotId next,
                std::vector<Intent> in, LeaderZoneView view)
      : PaxosMessage(p),
        ballot(b),
        next_slot(next),
        intents(std::move(in)),
        lz_view(view) {}

  /// The leadership ballot being transferred.
  Ballot ballot;
  /// First slot the new leader may propose to.
  SlotId next_slot = 0;
  /// The declared intents; the new leader may only replicate on these
  /// quorums (restriction when combined with Expanding Quorums).
  std::vector<Intent> intents;
  LeaderZoneView lz_view;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 24 + IntentsWireSize(intents);
  }
  const char* TypeName() const override { return "relinquish"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kRelinquish);
  }
};

// ---------------------------------------------------------------------
// Partition ownership steals (docs/PROTOCOL.md §ownership)

/// Why an ownership steal was refused (OwnershipGrantMsg::reason).
enum class StealRefusal : uint8_t {
  kNone = 0,       ///< granted
  kNotLeader = 1,  ///< recipient does not lead; see leader_hint
  kBusy = 2,       ///< in-flight/pending proposals; retry later
  kFastGrant = 3,  ///< fast-path grant outstanding; elect instead
};

/// Ask the incumbent leader to cede partition ownership to the sender
/// (thief side of a steal), or — with `invite` set — the incumbent's
/// placement sweep asking the recipient to initiate a steal back at it.
struct StealRequestMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  StealRequestMsg(PartitionId p, Ballot b, ZoneId zone, bool inv)
      : PaxosMessage(p), ballot(b), thief_zone(zone), invite(inv) {}

  /// The thief's current ballot, for the incumbent's ObserveBallot;
  /// concurrent steals are ultimately ordered by their election ballots.
  Ballot ballot;
  ZoneId thief_zone = kInvalidZone;
  bool invite = false;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 17; }
  const char* TypeName() const override { return "steal-request"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kStealRequest);
  }
};

/// The incumbent's answer. A grant fences the incumbent's log — it has
/// already stopped proposing when this message is sent — and carries
/// what the thief needs to catch up before its takeover election.
struct OwnershipGrantMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  OwnershipGrantMsg(PartitionId p, bool g, StealRefusal r, Ballot b,
                    SlotId next, uint64_t decided, bool snap, NodeId hint)
      : PaxosMessage(p),
        granted(g),
        reason(r),
        ballot(b),
        next_slot(next),
        decided_size(decided),
        snapshot_ready(snap),
        leader_hint(hint) {}

  bool granted = false;
  StealRefusal reason = StealRefusal::kNone;
  /// The incumbent's leadership ballot (grant) or its highest observed
  /// ballot (refusal); the thief elects above it either way.
  Ballot ballot;
  /// Fence: the incumbent proposed nothing at or above this slot.
  SlotId next_slot = 0;
  /// Incumbent's decided-log size, for the thief's catch-up gap.
  uint64_t decided_size = 0;
  /// Incumbent can serve a snapshot transfer for the catch-up.
  bool snapshot_ready = false;
  /// On kNotLeader refusals: who the refuser believes leads.
  NodeId leader_hint = kInvalidNode;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 40; }
  const char* TypeName() const override { return "ownership-grant"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kOwnershipGrant);
  }
};

// ---------------------------------------------------------------------
// Intents garbage collection (paper Section 4.3.4, Algorithm 3)

/// GC poll: "largest proposal id received in a propose message?"
struct GcPollMsg final : PaxosMessage {
  explicit GcPollMsg(PartitionId p) : PaxosMessage(p) {}

  uint64_t SizeBytes() const override { return kMessageHeaderBytes; }
  const char* TypeName() const override { return "gc-poll"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kGcPoll);
  }
};

/// GC poll answer.
struct GcPollReplyMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  GcPollReplyMsg(PartitionId p, Ballot b)
      : PaxosMessage(p), max_propose_ballot(b) {}

  /// P_i: largest ballot this acceptor has seen in a *recovery-complete*
  /// propose message (NOT prepare messages — the distinction matters for
  /// Theorem 3; the recovery gate is our strengthening of Algorithm 3).
  Ballot max_propose_ballot;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 16; }
  const char* TypeName() const override { return "gc-poll-reply"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kGcPollReply);
  }
};

/// Asynchronous broadcast of the new GC threshold P; receivers drop all
/// intents with ballot < P.
struct GcThresholdMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  GcThresholdMsg(PartitionId p, Ballot b) : PaxosMessage(p), threshold(b) {}

  Ballot threshold;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 16; }
  const char* TypeName() const override { return "gc-threshold"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kGcThreshold);
  }
};

// ---------------------------------------------------------------------
// Leader Zone migration (paper Section 4.3.2)
//
// Step 1 runs a dedicated synod (single-decree Paxos) among the current
// Leader Zone's nodes — the "Leader Zone Instance" — deciding the next
// Leader Zone for migration epoch `epoch`.

/// Phase 1 of the Leader Zone Instance synod.
struct LzPrepareMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzPrepareMsg(PartitionId p, uint64_t e, Ballot b)
      : PaxosMessage(p), epoch(e), ballot(b) {}

  uint64_t epoch = 0;
  Ballot ballot;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 24; }
  const char* TypeName() const override { return "lz-prepare"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzPrepare);
  }
};

struct LzPromiseMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzPromiseMsg(PartitionId p, uint64_t e, Ballot b)
      : PaxosMessage(p), epoch(e), ballot(b) {}

  uint64_t epoch = 0;
  Ballot ballot;
  /// Previously accepted (ballot, zone), if any.
  Ballot accepted_ballot;
  ZoneId accepted_zone = kInvalidZone;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 44; }
  const char* TypeName() const override { return "lz-promise"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzPromise);
  }
};

/// Phase 2 of the Leader Zone Instance synod: propose `next_zone`.
struct LzProposeMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzProposeMsg(PartitionId p, uint64_t e, Ballot b, ZoneId z)
      : PaxosMessage(p), epoch(e), ballot(b), next_zone(z) {}

  uint64_t epoch = 0;
  Ballot ballot;
  ZoneId next_zone = kInvalidZone;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 28; }
  const char* TypeName() const override { return "lz-propose"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzPropose);
  }
};

struct LzAcceptMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzAcceptMsg(PartitionId p, uint64_t e, Ballot b, ZoneId z)
      : PaxosMessage(p), epoch(e), ballot(b), next_zone(z) {}

  uint64_t epoch = 0;
  Ballot ballot;
  ZoneId next_zone = kInvalidZone;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 28; }
  const char* TypeName() const override { return "lz-accept"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzAccept);
  }
};

struct LzNackMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzNackMsg(PartitionId p, uint64_t e, Ballot b, Ballot prom,
            LeaderZoneView view)
      : PaxosMessage(p), epoch(e), ballot(b), promised(prom), lz_view(view) {}

  uint64_t epoch = 0;
  Ballot ballot;
  Ballot promised;
  /// The responder's view — redirects a driver whose view is stale.
  LeaderZoneView lz_view;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 56; }
  const char* TypeName() const override { return "lz-nack"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzNack);
  }
};

/// Step 2: ask a node of the old Leader Zone to enter the transition
/// phase — return its stored intents, stop storing new ones, and piggyback
/// the transition in future promises.
struct LzTransitionMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzTransitionMsg(PartitionId p, uint64_t e, ZoneId z)
      : PaxosMessage(p), epoch(e), next_zone(z) {}

  uint64_t epoch = 0;
  ZoneId next_zone = kInvalidZone;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 12; }
  const char* TypeName() const override { return "lz-transition"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzTransition);
  }
};

struct LzTransitionAckMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzTransitionAckMsg(PartitionId p, uint64_t e, std::vector<Intent> in)
      : PaxosMessage(p), epoch(e), intents(std::move(in)) {}

  uint64_t epoch = 0;
  /// The old zone node's stored intents, to be re-homed in the next zone.
  std::vector<Intent> intents;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 8 + IntentsWireSize(intents);
  }
  const char* TypeName() const override { return "lz-transition-ack"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzTransitionAck);
  }
};

/// Step 2 (continued): store the old zone's intents at the next zone.
struct LzStoreIntentsMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzStoreIntentsMsg(PartitionId p, uint64_t e, ZoneId z,
                    std::vector<Intent> in)
      : PaxosMessage(p), epoch(e), next_zone(z), intents(std::move(in)) {}

  uint64_t epoch = 0;
  ZoneId next_zone = kInvalidZone;
  std::vector<Intent> intents;

  uint64_t SizeBytes() const override {
    return kMessageHeaderBytes + 12 + IntentsWireSize(intents);
  }
  const char* TypeName() const override { return "lz-store-intents"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzStoreIntents);
  }
};

struct LzStoreAckMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzStoreAckMsg(PartitionId p, uint64_t e) : PaxosMessage(p), epoch(e) {}

  uint64_t epoch = 0;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 8; }
  const char* TypeName() const override { return "lz-store-ack"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzStoreAck);
  }
};

/// Step 3: lazily broadcast announcement that the transition completed.
struct LzAnnounceMsg final : PaxosMessage {
  using PaxosMessage::PaxosMessage;
  LzAnnounceMsg(PartitionId p, LeaderZoneView v)
      : PaxosMessage(p), view(v) {}

  /// The completed view: epoch bumped, current = new zone, no transition.
  LeaderZoneView view;

  uint64_t SizeBytes() const override { return kMessageHeaderBytes + 16; }
  const char* TypeName() const override { return "lz-announce"; }
  uint8_t wire_tag() const override {
    return static_cast<uint8_t>(WireType::kLzAnnounce);
  }
};

}  // namespace dpaxos

#endif  // DPAXOS_PAXOS_MESSAGES_H_
