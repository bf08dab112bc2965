// Lock-free unbounded multi-producer / single-consumer queue (Vyukov's
// intrusive MPSC algorithm, node-per-item variant).
//
// This is the queue behind EventLoop::PostTask, drained by the loop
// thread (the single consumer) between poll rounds. Its producers: a
// test or nemesis thread driving a ChaosProxy (fault rules and link cuts
// posted onto the proxy's relay loop), and a NodeServer's loop thread
// posting its volume-triggered compaction to itself. Push is wait-free
// apart from the node allocation: one exchange on the head pointer plus
// one release store to link the predecessor. TryPop is
// consumer-thread-only and never blocks.
//
// Consistency window: a producer that has exchanged the head but not
// yet linked its node leaves the chain momentarily broken — TryPop
// then reports empty even though later pushes exist behind the gap.
// That is safe here because every EventLoop::PostTask pairs its Push
// with a Wakeup() *after* the link completes, so the consumer is
// always re-woken once the chain heals. (tests/mpsc_queue_test.cc
// hammers this with concurrent producers.)
#ifndef DPAXOS_NET_TCP_MPSC_QUEUE_H_
#define DPAXOS_NET_TCP_MPSC_QUEUE_H_

#include <atomic>
#include <utility>

namespace dpaxos {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  ~MpscQueue() {
    // Consumer-side teardown: drain remaining items, then free the stub.
    T ignored;
    while (TryPop(&ignored)) {
    }
    delete tail_;
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Any thread. The item is visible to TryPop once the release store
  /// below completes.
  void Push(T value) {
    Node* node = new Node(std::move(value));
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// Consumer thread only. False when empty (or momentarily broken by
  /// an in-flight Push — see the header comment).
  bool TryPop(T* out) {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    *out = std::move(next->value);
    tail_ = next;
    delete tail;
    return true;
  }

  /// Consumer-side emptiness hint (same caveat as TryPop).
  bool Empty() const {
    return tail_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  std::atomic<Node*> head_;  ///< producers append here
  Node* tail_;               ///< consumer pops here (owns the stub)
};

}  // namespace dpaxos

#endif  // DPAXOS_NET_TCP_MPSC_QUEUE_H_
