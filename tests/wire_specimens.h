// One specimen of every wire message type, with every field set to a
// value other than its default, so that a layout that drops, reorders
// or resizes any field changes the specimen's bytes. The frozen-bytes
// cells (crc32_test), the fuzz corpus (wire_fuzz_test) and the
// list-coverage check (wire_test) all start from these.
#ifndef DPAXOS_TESTS_WIRE_SPECIMENS_H_
#define DPAXOS_TESTS_WIRE_SPECIMENS_H_

#include <memory>
#include <vector>

#include "paxos/messages.h"

namespace dpaxos {

/// Every wire message type once, in tag order.
inline std::vector<MessagePtr> WireSpecimens() {
  LeaderZoneView view;
  view.epoch = 3;
  view.current = 2;
  view.next = 5;
  const std::vector<Intent> intents = {Intent{Ballot{42, 3}, 3, {3, 4}},
                                       Intent{Ballot{41, 9}, 9, {9}}};

  auto promise = std::make_shared<PromiseMsg>(1, Ballot{9, 2}, true);
  promise->accepted = {
      AcceptedEntry{5, Ballot{8, 1}, Value::Of(77, "payload"), true},
      AcceptedEntry{6, Ballot{8, 2}, Value::Of(78, "fastvote"), true}};
  promise->intents = intents;
  promise->lz_view = view;
  promise->compacted_through = 4;

  auto prepare_nack = std::make_shared<PrepareNackMsg>(1, Ballot{3, 1});
  prepare_nack->promised = Ballot{9, 9};
  prepare_nack->lease_until = 55;
  prepare_nack->lz_view = view;

  auto propose = std::make_shared<ProposeMsg>(2, Ballot{5, 1}, 9,
                                              Value::Of(123, "cmd"));
  propose->lease_request = true;
  propose->lease_until = 999'999;
  propose->recovery_complete = true;

  auto accept = std::make_shared<AcceptMsg>(2, Ballot{5, 1}, 9);
  accept->lease_vote = true;
  accept->lease_until = 1'000'000;

  auto lz_promise = std::make_shared<LzPromiseMsg>(6, 2, Ballot{1, 1});
  lz_promise->accepted_ballot = Ballot{1, 5};
  lz_promise->accepted_zone = 4;

  auto forward_reply = std::make_shared<ForwardReplyMsg>(2, 55);
  forward_reply->code = StatusCode::kFailedPrecondition;
  forward_reply->slot = 3;
  forward_reply->leader_hint = 17;

  auto learn_reply = std::make_shared<LearnReplyMsg>(5);
  learn_reply->from_slot = 42;
  learn_reply->entries = {DecidedEntryWire{42, Value::Of(1, "a")},
                          DecidedEntryWire{43, Value::Of(2, "bc")}};
  learn_reply->peer_watermark = 44;
  learn_reply->first_available = 40;

  auto fast_nack =
      std::make_shared<FastNackMsg>(2, Ballot{7, 1}, Ballot{8, 2}, 55);
  fast_nack->leader_hint = 3;

  return {
      std::make_shared<PrepareMsg>(7, Ballot{42, 3}, 17, intents, true, view),
      promise,
      prepare_nack,
      propose,
      accept,
      std::make_shared<AcceptNackMsg>(3, Ballot{1, 1}, 4, Ballot{2, 2}),
      std::make_shared<DecideMsg>(3, 11, Value::Of(5, "decided")),
      std::make_shared<HandoffRequestMsg>(4),
      std::make_shared<RelinquishMsg>(4, Ballot{6, 6}, 100, intents, view),
      std::make_shared<GcPollMsg>(1),
      std::make_shared<GcPollReplyMsg>(1, Ballot{12, 3}),
      std::make_shared<GcThresholdMsg>(1, Ballot{13, 4}),
      std::make_shared<LzPrepareMsg>(6, 2, Ballot{1, 1}),
      lz_promise,
      std::make_shared<LzProposeMsg>(6, 2, Ballot{1, 1}, 5),
      std::make_shared<LzAcceptMsg>(6, 2, Ballot{1, 1}, 5),
      std::make_shared<LzNackMsg>(6, 2, Ballot{1, 1}, Ballot{2, 2}, view),
      std::make_shared<LzTransitionMsg>(6, 2, 6),
      std::make_shared<LzTransitionAckMsg>(6, 2, intents),
      std::make_shared<LzStoreIntentsMsg>(6, 2, 6, intents),
      std::make_shared<LzStoreAckMsg>(6, 2),
      std::make_shared<LzAnnounceMsg>(6, view),
      std::make_shared<ForwardMsg>(2, 55, Value::Of(9, "fwd")),
      forward_reply,
      std::make_shared<LearnRequestMsg>(5, 42, 256),
      learn_reply,
      std::make_shared<SnapshotRequestMsg>(5, 4096),
      std::make_shared<HeartbeatMsg>(8, Ballot{4, 4}),
      std::make_shared<SnapshotChunkMsg>(5, 9, 128, 512, "snapshot-bytes"),
      std::make_shared<FastAcceptMsg>(2, Ballot{7, 1}, 55,
                                      Value::Of(9, "fastv")),
      std::make_shared<FastAcceptedMsg>(2, Ballot{7, 1}, 41, 4, 55,
                                        Value::Of(9, "fastv")),
      fast_nack,
      std::make_shared<FastGrantMsg>(2, Ballot{7, 1}, 40,
                                     std::vector<NodeId>{1, 4, 9}),
      std::make_shared<StealRequestMsg>(3, Ballot{12, 4}, 6, true),
      std::make_shared<OwnershipGrantMsg>(3, true, StealRefusal::kBusy,
                                          Ballot{12, 4}, 88, 87, true, 4),
  };
}

}  // namespace dpaxos

#endif  // DPAXOS_TESTS_WIRE_SPECIMENS_H_
