// forklift/common: Reactor — the event loop child-lifecycle plumbing runs on.
//
// Every layer that used to discover child exits by nanosleep-backoff polling
// (Child::WaitDeadline, Supervisor, the fork server, the worker pool) now
// blocks in one epoll_wait(2) instead: descriptors (sockets, pipes, pidfds)
// and timerfd-backed timers share a single wait, so an exit or a byte of
// output wakes the caller within a scheduler quantum rather than on the next
// poll tick. The reactor is deliberately single-threaded — forklift's
// supervision layers are single-threaded by design — so callbacks run inline
// inside PollOnce and no locking is needed.
//
// ChildWatch is the lifecycle primitive built on top: it arms a one-shot
// "this pid became waitable" callback through pidfd_open(2) (Linux ≥ 5.3).
// Where there is no pidfd to watch (old kernel, seccomp filter, or epoll
// refusing to register it), it degrades to reactor-timer polling with the
// same 50µs→5ms escalation the old code used — but driven by timerfd through
// the same epoll set, so callers are written once against one API and never
// sleep-poll themselves.
#ifndef SRC_COMMON_REACTOR_H_
#define SRC_COMMON_REACTOR_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "src/common/result.h"
#include "src/common/unique_fd.h"

namespace forklift {

class Reactor {
 public:
  using TimerId = uint64_t;
  // Receives the ready epoll event mask (EPOLLIN | EPOLLHUP | ...).
  using FdCallback = std::function<void(uint32_t)>;
  using TimerCallback = std::function<void()>;

  static Result<Reactor> Create();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;
  Reactor(Reactor&&) noexcept = default;
  Reactor& operator=(Reactor&&) noexcept = default;
  ~Reactor() = default;

  // Registers `fd` (borrowed, not owned) for `events` (EPOLLIN etc.). The
  // callback may add or remove watches — including removing its own — from
  // inside its invocation.
  Status AddFd(int fd, uint32_t events, FdCallback callback);
  Status ModifyFd(int fd, uint32_t events);
  // Removing an fd that is not registered is an error; removing one whose
  // events are already harvested into the current dispatch batch suppresses
  // the pending callback.
  Status RemoveFd(int fd);
  bool HasFd(int fd) const;

  // One-shot timers against MonotonicNanos(). Callbacks may re-arm.
  TimerId AddTimerAt(uint64_t deadline_ns, TimerCallback callback);
  TimerId AddTimerAfter(double delay_seconds, TimerCallback callback);
  // Cancels a pending timer; a timer already due inside the current dispatch
  // batch still fires.
  void CancelTimer(TimerId id);

  // Waits for readiness and dispatches callbacks. `timeout_ms` < 0 blocks
  // until at least one fd or timer fires; 0 is a non-blocking poll. Returns
  // the number of callbacks dispatched (0 on timeout). Also surfaces any
  // timer-rearm failure deferred from AddTimerAt/CancelTimer (which cannot
  // return a Status themselves): a lost rearm means a timer that will never
  // fire, and reporting it here turns a silent hang into a clean error.
  Result<int> PollOnce(int timeout_ms);

  size_t fd_watch_count() const { return fd_watches_.size(); }
  size_t timer_count() const { return timers_by_deadline_.size(); }

 private:
  struct TimerEntry {
    TimerId id;
    std::shared_ptr<TimerCallback> callback;
  };

  Reactor() = default;

  Status RearmTimerFd();

  UniqueFd epoll_fd_;
  UniqueFd timer_fd_;
  std::map<int, std::shared_ptr<FdCallback>> fd_watches_;
  std::multimap<uint64_t, TimerEntry> timers_by_deadline_;
  std::map<TimerId, uint64_t> timer_deadlines_;  // id -> deadline, for cancel
  TimerId next_timer_id_ = 1;
  // First RearmTimerFd failure from a void API (AddTimerAt/CancelTimer),
  // delivered by the next PollOnce.
  Status pending_error_;
};

// Arms a one-shot notification for "pid is waitable" through a Reactor. Fires
// `on_exit` exactly once, then disarms itself; it never reaps — the owner of
// the pid calls waitpid/TryWait afterwards, preserving whatever wait
// discipline the caller already has.
//
// The watch must not outlive the reactor it is armed on.
class ChildWatch {
 public:
  ChildWatch() = default;
  // Fails only for pid <= 0: a watch that cannot ride a pidfd polls instead.
  static Result<ChildWatch> Arm(Reactor& reactor, pid_t pid, std::function<void()> on_exit);

  ChildWatch(const ChildWatch&) = delete;
  ChildWatch& operator=(const ChildWatch&) = delete;
  ChildWatch(ChildWatch&& other) noexcept;
  ChildWatch& operator=(ChildWatch&& other) noexcept;
  ~ChildWatch();

  // Idempotent; called by the destructor and automatically after `on_exit`
  // fires.
  void Disarm();

  bool armed() const;
  // True when this watch rides a pidfd; false on the timer-poll fallback.
  bool using_pidfd() const { return pidfd_.valid(); }

 private:
  struct State;

  Reactor* reactor_ = nullptr;
  UniqueFd pidfd_;
  std::shared_ptr<State> state_;
};

// pidfd_open(2) if the kernel provides it (Linux ≥ 5.3); -1/errno otherwise.
// Exposed so callers can probe capability once instead of per-spawn.
int PidfdOpen(pid_t pid);

// Forces every subsequent ChildWatch::Arm onto the timer-poll fallback, as if
// pidfd_open returned ENOSYS. Test-only; not thread-safe against concurrent
// Arm calls.
void TestOnlyForcePidfdFallback(bool force);

}  // namespace forklift

#endif  // SRC_COMMON_REACTOR_H_
