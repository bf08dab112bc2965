// Single-threaded epoll event loop implementing EventScheduler on the
// monotonic wall clock — the real-network twin of the Simulator.
//
// Timers live in a hashed timer wheel: 256 slots of 1 ms, each slot a
// small vector of slab indices. The slab mirrors the simulator's design
// (generation-tagged slots recycled through a free list), so EventIds
// have identical semantics on both schedulers: (generation << 32 | slot),
// never 0, stale Cancel() refused in O(1). Due timers fire in
// (deadline, scheduling-ticket) order — the same total order the
// simulator guarantees — so protocol code observes consistent tie
// handling on both clocks.
//
// File descriptors are watched with level-triggered epoll; handlers may
// unwatch/close any fd (including their own) mid-dispatch. Wakeup() is
// async-signal-safe (one eventfd write), which is how SIGTERM reaches a
// blocked loop.
#ifndef DPAXOS_NET_TCP_EVENT_LOOP_H_
#define DPAXOS_NET_TCP_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "net/tcp/mpsc_queue.h"
#include "sim/scheduler.h"

namespace dpaxos {

/// \brief Real-clock EventScheduler + fd readiness dispatcher.
class EventLoop final : public EventScheduler {
 public:
  explicit EventLoop(uint64_t seed = 1);
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- EventScheduler -------------------------------------------------

  /// Microseconds of monotonic time since the loop was constructed.
  /// Reads CLOCK_MONOTONIC (vDSO) — always fresh, never cached.
  Timestamp Now() const override;

  EventId ScheduleAt(Timestamp when, EventFn fn) override;
  bool Cancel(EventId id) override;
  Rng& rng() override { return rng_; }

  // --- fd watching ----------------------------------------------------

  /// Readiness callback; `events` is the epoll event mask (EPOLLIN etc.).
  using FdHandler = std::function<void(uint32_t events)>;

  /// Watch `fd` (level-triggered) for `events`. One handler per fd.
  Status WatchFd(int fd, uint32_t events, FdHandler handler);
  /// Change the interest mask of a watched fd.
  Status UpdateFd(int fd, uint32_t events);
  /// Stop watching `fd`. Must be called BEFORE close(fd). Safe from
  /// inside any fd handler, including the fd's own.
  void UnwatchFd(int fd);

  // --- cross-thread work ----------------------------------------------

  /// Enqueue `task` to run on the loop thread and wake the loop. The
  /// ONLY EventLoop entry point (besides Stop/Wakeup) that is safe from
  /// other threads; tasks run between dispatch phases of PollOnce, in
  /// push order per producer (lock-free MPSC underneath, see
  /// net/tcp/mpsc_queue.h).
  void PostTask(std::function<void()> task);

  // --- driving --------------------------------------------------------

  /// Dispatch events until Stop(). Re-entrant calls are a bug.
  void Run();
  /// Run until `pred()` is true or `timeout` elapses. Returns pred().
  bool RunUntil(const std::function<bool()>& pred, Duration timeout);
  /// One poll + dispatch round, blocking at most `max_wait` (never when
  /// timers or posted tasks already ran this round).
  void PollOnce(Duration max_wait);

  /// Make Run() return after the current dispatch round. Thread-safe.
  void Stop();
  /// Wake a blocked PollOnce. Async-signal-safe (single write()).
  void Wakeup();
  /// The eventfd written by Wakeup() — for signal handlers that need
  /// the raw fd.
  int wakeup_fd() const { return wakeup_fd_; }

  bool stopped() const { return stop_; }
  size_t pending_timers() const { return pending_timers_; }

 private:
  static constexpr uint64_t kTickMicros = 1000;  // 1 ms wheel resolution
  static constexpr uint32_t kWheelSlots = 256;

  struct TimerSlot {
    EventFn fn;
    Timestamp when = 0;
    uint64_t seq = 0;
    uint32_t generation = 1;  ///< bumped on release; 0 is never issued
    bool pending = false;
  };

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  /// Returns the number of timers fired.
  size_t FireDueTimers();
  /// Drain cross-thread tasks; returns the number executed.
  size_t DrainPostedTasks();
  /// Recompute next_deadline_ by scanning pending slab entries (timer
  /// populations here are tens, not thousands — a replica keeps a
  /// handful of timers alive).
  void RecomputeNextDeadline();
  int EpollTimeoutMs() const;

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  uint64_t clock_origin_ns_ = 0;
  /// Stop() is callable from any thread (and from signal handlers via
  /// the flag-only path), so the flag must be an atomic, not volatile —
  /// volatile orders nothing and is a formal data race under TSan.
  std::atomic<bool> stop_{false};

  uint64_t next_seq_ = 1;
  size_t pending_timers_ = 0;
  Timestamp next_deadline_ = kNoDeadline;
  uint64_t wheel_cursor_ = 0;  ///< last tick swept by FireDueTimers
  /// Each cell holds full EventIds (generation + slot), so cancelled
  /// entries are recognized and discarded lazily at sweep time.
  std::vector<std::vector<EventId>> wheel_{kWheelSlots};
  std::vector<TimerSlot> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<int, FdHandler> fd_handlers_;
  MpscQueue<std::function<void()>> posted_tasks_;
  Rng rng_;

  static constexpr Timestamp kNoDeadline = ~Timestamp{0};
};

}  // namespace dpaxos

#endif  // DPAXOS_NET_TCP_EVENT_LOOP_H_
