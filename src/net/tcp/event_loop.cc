#include "net/tcp/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/perf_counters.h"

namespace dpaxos {

namespace {

uint64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

EventLoop::EventLoop(uint64_t seed) : rng_(seed) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  DPAXOS_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  wakeup_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  DPAXOS_CHECK_MSG(wakeup_fd_ >= 0, "eventfd failed");
  clock_origin_ns_ = MonotonicNanos();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  DPAXOS_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) == 0);
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) close(wakeup_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Timestamp EventLoop::Now() const {
  return (MonotonicNanos() - clock_origin_ns_) / 1000;
}

uint32_t EventLoop::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::ReleaseSlot(uint32_t slot) {
  TimerSlot& s = slots_[slot];
  s.fn = EventFn();
  s.pending = false;
  ++s.generation;
  if (s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

EventId EventLoop::ScheduleAt(Timestamp when, EventFn fn) {
  const uint32_t slot = AcquireSlot();
  TimerSlot& s = slots_[slot];
  s.fn = std::move(fn);
  s.when = when;
  s.seq = next_seq_++;
  s.pending = true;
  // Past-due deadlines land in the cursor's slot, which every sweep
  // revisits — they fire on the next poll round, never get stranded a
  // full wheel revolution away.
  uint64_t tick = when / kTickMicros;
  if (tick < wheel_cursor_) tick = wheel_cursor_;
  const EventId id =
      (static_cast<EventId>(s.generation) << 32) | static_cast<EventId>(slot);
  wheel_[tick % kWheelSlots].push_back(id);
  ++pending_timers_;
  next_deadline_ = std::min(next_deadline_, when);
  ++ThreadPerfCounters().events_scheduled;
  return id;
}

bool EventLoop::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size() || !slots_[slot].pending ||
      slots_[slot].generation != generation) {
    ++ThreadPerfCounters().stale_cancels;
    return false;
  }
  // The wheel entry is removed lazily: the sweep discards ids whose
  // generation no longer matches.
  ReleaseSlot(slot);
  --pending_timers_;
  ++ThreadPerfCounters().events_cancelled;
  return true;
}

void EventLoop::RecomputeNextDeadline() {
  next_deadline_ = kNoDeadline;
  if (pending_timers_ == 0) return;
  for (const TimerSlot& s : slots_) {
    if (s.pending) next_deadline_ = std::min(next_deadline_, s.when);
  }
}

size_t EventLoop::FireDueTimers() {
  const Timestamp now = Now();
  if (pending_timers_ == 0) {
    wheel_cursor_ = now / kTickMicros;
    return 0;
  }
  const uint64_t target = now / kTickMicros;
  const uint64_t first =
      target - wheel_cursor_ + 1 >= kWheelSlots ? target - (kWheelSlots - 1)
                                                : wheel_cursor_;
  struct Due {
    Timestamp when;
    uint64_t seq;
    EventId id;
  };
  std::vector<Due> due;
  for (uint64_t tick = first; tick <= target; ++tick) {
    std::vector<EventId>& cell = wheel_[tick % kWheelSlots];
    size_t kept = 0;
    for (EventId id : cell) {
      const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
      const uint32_t generation = static_cast<uint32_t>(id >> 32);
      const TimerSlot& s = slots_[slot];
      if (!s.pending || s.generation != generation) continue;  // cancelled
      if (s.when > now) {
        cell[kept++] = id;  // later revolution (or later in this tick)
        continue;
      }
      due.push_back(Due{s.when, s.seq, id});
    }
    cell.resize(kept);
  }
  wheel_cursor_ = target;
  if (due.empty()) return 0;
  // Fire in (deadline, scheduling ticket) order — the simulator's total
  // order, so tie handling matches the deterministic tier.
  std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  });
  size_t fired = 0;
  for (const Due& d : due) {
    const uint32_t slot = static_cast<uint32_t>(d.id & 0xffffffffu);
    const uint32_t generation = static_cast<uint32_t>(d.id >> 32);
    TimerSlot& s = slots_[slot];
    // A handler fired earlier in this batch may have cancelled this one.
    if (!s.pending || s.generation != generation) continue;
    EventFn fn = std::move(s.fn);
    ReleaseSlot(slot);
    --pending_timers_;
    ++ThreadPerfCounters().events_executed;
    ++fired;
    fn();
  }
  RecomputeNextDeadline();
  return fired;
}

void EventLoop::PostTask(std::function<void()> task) {
  posted_tasks_.Push(std::move(task));
  // The Wakeup follows the queue link (release store inside Push), so a
  // consumer woken by this write always observes the healed chain.
  Wakeup();
}

size_t EventLoop::DrainPostedTasks() {
  size_t ran = 0;
  std::function<void()> task;
  while (posted_tasks_.TryPop(&task)) {
    task();
    ++ran;
  }
  return ran;
}

int EventLoop::EpollTimeoutMs() const {
  if (stop_) return 0;
  if (next_deadline_ == kNoDeadline) return -1;
  const Timestamp now = Now();
  if (next_deadline_ <= now) return 0;
  const uint64_t delta_ms = (next_deadline_ - now + 999) / 1000;
  return static_cast<int>(std::min<uint64_t>(delta_ms, 60'000));
}

void EventLoop::PollOnce(Duration max_wait) {
  const size_t did_work = FireDueTimers() + DrainPostedTasks();
  int timeout_ms = EpollTimeoutMs();
  const int cap_ms = static_cast<int>(
      std::min<Duration>(max_wait / kMillisecond, 60'000));
  if (timeout_ms < 0 || timeout_ms > cap_ms) timeout_ms = cap_ms;
  if (did_work > 0) timeout_ms = 0;  // don't sleep with work already done
  epoll_event events[128];
  const int n = epoll_wait(epoll_fd_, events, 128, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wakeup_fd_) {
      uint64_t drained = 0;
      ssize_t ignored = read(wakeup_fd_, &drained, sizeof(drained));
      (void)ignored;
      continue;
    }
    // Look up at dispatch time (an earlier handler in this batch may
    // have unwatched this fd) and invoke a copy, so a handler that
    // unwatches ITSELF does not destroy the callable mid-call.
    auto it = fd_handlers_.find(fd);
    if (it == fd_handlers_.end()) continue;
    FdHandler handler = it->second;
    handler(events[i].events);
  }
  // Tasks posted while we slept in epoll_wait (the Wakeup path), then
  // timers the dispatched handlers armed at 0 delay — this is what makes
  // the 0-delay flush timer coalesce a whole dispatch round into one
  // gather write before the loop sleeps again.
  DrainPostedTasks();
  FireDueTimers();
}

Status EventLoop::WatchFd(int fd, uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::Unavailable("epoll_ctl ADD failed");
  }
  fd_handlers_[fd] = std::move(handler);
  return Status::OK();
}

Status EventLoop::UpdateFd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::Unavailable("epoll_ctl MOD failed");
  }
  return Status::OK();
}

void EventLoop::UnwatchFd(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_handlers_.erase(fd);
}

void EventLoop::Run() {
  stop_ = false;
  while (!stop_) PollOnce(1 * kSecond);
}

bool EventLoop::RunUntil(const std::function<bool()>& pred, Duration timeout) {
  const Timestamp deadline = Now() + timeout;
  stop_ = false;
  while (!pred()) {
    const Timestamp now = Now();
    if (now >= deadline || stop_) return pred();
    PollOnce(std::min<Duration>(deadline - now, 50 * kMillisecond));
  }
  return true;
}

void EventLoop::Stop() {
  stop_ = true;
  Wakeup();
}

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  ssize_t ignored = write(wakeup_fd_, &one, sizeof(one));
  (void)ignored;
}

}  // namespace dpaxos
