#include "src/common/reactor.h"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/faultinject/faultinject.h"

namespace forklift {

namespace {

std::atomic<bool> g_force_pidfd_fallback{false};

}  // namespace

int PidfdOpen(pid_t pid) {
  if (g_force_pidfd_fallback.load(std::memory_order_relaxed)) {
    errno = ENOSYS;
    return -1;
  }
  auto inj = fault::Check("reactor.pidfd_open", fault::Op::kPidfdOpen);
  if (inj.is_errno()) {
    errno = inj.err;
    return -1;
  }
#if defined(__linux__) && defined(SYS_pidfd_open)
  // Close-on-exec by construction (pidfd_open(2)): safe to hold across spawns.
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  errno = ENOSYS;
  return -1;
#endif
}

void TestOnlyForcePidfdFallback(bool force) {
  g_force_pidfd_fallback.store(force, std::memory_order_relaxed);
}

Result<Reactor> Reactor::Create() {
  Reactor reactor;
  auto ep_inj = fault::Check("reactor.epoll_create", fault::Op::kCreateFd);
  if (ep_inj.is_errno()) {
    errno = ep_inj.err;
    return ErrnoError("epoll_create1");
  }
  int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    return ErrnoError("epoll_create1");
  }
  reactor.epoll_fd_.Reset(ep);
  auto tfd_inj = fault::Check("reactor.timerfd_create", fault::Op::kCreateFd);
  if (tfd_inj.is_errno()) {
    errno = tfd_inj.err;
    return ErrnoError("timerfd_create");
  }
  int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (tfd < 0) {
    return ErrnoError("timerfd_create");
  }
  reactor.timer_fd_.Reset(tfd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = tfd;
  auto add_inj = fault::Check("reactor.epoll_ctl_add", fault::Op::kEpollCtl);
  if (add_inj.is_errno()) {
    errno = add_inj.err;
    return ErrnoError("epoll_ctl(ADD timerfd)");
  }
  if (::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev) < 0) {
    return ErrnoError("epoll_ctl(ADD timerfd)");
  }
  return reactor;
}

Status Reactor::AddFd(int fd, uint32_t events, FdCallback callback) {
  if (fd < 0) {
    return LogicalError("Reactor::AddFd: invalid fd");
  }
  if (fd_watches_.count(fd) != 0 || fd == timer_fd_.get()) {
    return LogicalError("Reactor::AddFd: fd already registered");
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  auto inj = fault::Check("reactor.epoll_ctl_add", fault::Op::kEpollCtl);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("epoll_ctl(ADD)");
  }
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    return ErrnoError("epoll_ctl(ADD)");
  }
  fd_watches_.emplace(fd, std::make_shared<FdCallback>(std::move(callback)));
  return Status::Ok();
}

Status Reactor::ModifyFd(int fd, uint32_t events) {
  if (fd_watches_.count(fd) == 0) {
    return LogicalError("Reactor::ModifyFd: fd not registered");
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  auto inj = fault::Check("reactor.epoll_ctl_mod", fault::Op::kEpollCtl);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("epoll_ctl(MOD)");
  }
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return ErrnoError("epoll_ctl(MOD)");
  }
  return Status::Ok();
}

Status Reactor::RemoveFd(int fd) {
  auto it = fd_watches_.find(fd);
  if (it == fd_watches_.end()) {
    return LogicalError("Reactor::RemoveFd: fd not registered");
  }
  fd_watches_.erase(it);
  auto inj = fault::Check("reactor.epoll_ctl_del", fault::Op::kEpollCtl);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("epoll_ctl(DEL)");
  }
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return ErrnoError("epoll_ctl(DEL)");
  }
  return Status::Ok();
}

bool Reactor::HasFd(int fd) const { return fd_watches_.count(fd) != 0; }

Status Reactor::RearmTimerFd() {
  itimerspec spec{};
  if (!timers_by_deadline_.empty()) {
    // TFD_TIMER_ABSTIME against CLOCK_MONOTONIC; an all-zero it_value would
    // disarm, so a deadline already in the past is clamped to 1ns (fires
    // immediately).
    uint64_t deadline = std::max<uint64_t>(timers_by_deadline_.begin()->first, 1);
    spec.it_value.tv_sec = static_cast<time_t>(deadline / 1000000000ull);
    spec.it_value.tv_nsec = static_cast<long>(deadline % 1000000000ull);
  }
  auto inj = fault::Check("reactor.timerfd_settime", fault::Op::kFcntl);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("timerfd_settime");
  }
  if (::timerfd_settime(timer_fd_.get(), TFD_TIMER_ABSTIME, &spec, nullptr) < 0) {
    return ErrnoError("timerfd_settime");
  }
  return Status::Ok();
}

Reactor::TimerId Reactor::AddTimerAt(uint64_t deadline_ns, TimerCallback callback) {
  TimerId id = next_timer_id_++;
  timers_by_deadline_.emplace(
      deadline_ns, TimerEntry{id, std::make_shared<TimerCallback>(std::move(callback))});
  timer_deadlines_.emplace(id, deadline_ns);
  // AddTimerAt has no error channel; a failed rearm would leave this timer
  // armed in the maps but never delivered by the kernel — an unbounded hang
  // for whoever waits on it. Park the error for the next PollOnce instead.
  Status rearmed = RearmTimerFd();
  if (!rearmed.ok() && pending_error_.ok()) {
    pending_error_ = std::move(rearmed);
  }
  return id;
}

Reactor::TimerId Reactor::AddTimerAfter(double delay_seconds, TimerCallback callback) {
  uint64_t delay_ns =
      delay_seconds <= 0 ? 0 : static_cast<uint64_t>(delay_seconds * 1e9);
  return AddTimerAt(MonotonicNanos() + delay_ns, std::move(callback));
}

void Reactor::CancelTimer(TimerId id) {
  auto it = timer_deadlines_.find(id);
  if (it == timer_deadlines_.end()) {
    return;
  }
  auto [begin, end] = timers_by_deadline_.equal_range(it->second);
  for (auto entry = begin; entry != end; ++entry) {
    if (entry->second.id == id) {
      timers_by_deadline_.erase(entry);
      break;
    }
  }
  timer_deadlines_.erase(it);
  Status rearmed = RearmTimerFd();
  if (!rearmed.ok() && pending_error_.ok()) {
    pending_error_ = std::move(rearmed);
  }
}

Result<int> Reactor::PollOnce(int timeout_ms) {
  if (!pending_error_.ok()) {
    Status deferred = std::move(pending_error_);
    pending_error_ = Status::Ok();
    return Err(deferred.error());
  }
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int ready;
  for (;;) {
    auto inj = fault::Check("reactor.epoll_wait", fault::Op::kEpollWait);
    if (inj.is_errno()) {
      ready = -1;
      errno = inj.err;
    } else {
      ready = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, timeout_ms);
    }
    if (ready >= 0) {
      break;
    }
    if (errno != EINTR) {
      return ErrnoError("epoll_wait");
    }
  }

  int dispatched = 0;
  for (int i = 0; i < ready; ++i) {
    if (events[i].data.fd == timer_fd_.get()) {
      uint64_t expirations = 0;
      (void)::read(timer_fd_.get(), &expirations, sizeof(expirations));
      // Harvest everything due before invoking anything: callbacks may add or
      // cancel timers, and a cancel only reaches timers still in the maps.
      uint64_t now = MonotonicNanos();
      std::vector<TimerEntry> due;
      while (!timers_by_deadline_.empty() && timers_by_deadline_.begin()->first <= now) {
        due.push_back(std::move(timers_by_deadline_.begin()->second));
        timer_deadlines_.erase(due.back().id);
        timers_by_deadline_.erase(timers_by_deadline_.begin());
      }
      FORKLIFT_RETURN_IF_ERROR(RearmTimerFd());
      for (auto& entry : due) {
        (*entry.callback)();
        ++dispatched;
      }
      continue;
    }
    // A callback earlier in this batch may have removed this fd (or replaced
    // it — in which case the new watch harmlessly sees a possibly-stale event
    // mask). Holding the shared_ptr keeps the closure alive even if the
    // callback unregisters itself mid-invocation.
    auto it = fd_watches_.find(events[i].data.fd);
    if (it == fd_watches_.end()) {
      continue;
    }
    std::shared_ptr<FdCallback> callback = it->second;
    (*callback)(events[i].events);
    ++dispatched;
  }
  return dispatched;
}

// ---------------------------------------------------------------------------
// ChildWatch

struct ChildWatch::State {
  Reactor* reactor = nullptr;
  pid_t pid = -1;
  int pidfd = -1;  // borrowed from the owning ChildWatch, for self-removal
  std::function<void()> on_exit;
  bool fired = false;
  uint64_t poll_interval_ns = 50'000;  // fallback: 50us, doubling to 5ms
  Reactor::TimerId timer_id = 0;

  static void Fire(const std::shared_ptr<State>& state);
  static void ArmFallbackTimer(const std::shared_ptr<State>& state);
};

// Consumes the watch: fires on_exit exactly once and drops the closure so a
// later Disarm is a no-op.
void ChildWatch::State::Fire(const std::shared_ptr<State>& state) {
  if (state->fired) {
    return;
  }
  state->fired = true;
  std::function<void()> on_exit = std::move(state->on_exit);
  state->on_exit = nullptr;
  if (on_exit) {
    on_exit();
  }
}

namespace {

// Non-reaping liveness probe. True when the child is waitable (or already
// gone — ECHILD means someone else reaped it, which for a watch is "exited").
bool ChildIsWaitable(pid_t pid) {
  siginfo_t si;
  si.si_pid = 0;
  int rc = ::waitid(P_PID, static_cast<id_t>(pid), &si, WEXITED | WNOHANG | WNOWAIT);
  if (rc < 0) {
    return errno == ECHILD;
  }
  return si.si_pid == pid;
}

}  // namespace

void ChildWatch::State::ArmFallbackTimer(const std::shared_ptr<State>& state) {
  Reactor* reactor = state->reactor;
  state->timer_id =
      reactor->AddTimerAt(MonotonicNanos() + state->poll_interval_ns, [state] {
        state->timer_id = 0;
        if (state->fired || !state->on_exit) {
          return;
        }
        if (ChildIsWaitable(state->pid)) {
          Fire(state);
          return;
        }
        state->poll_interval_ns = std::min<uint64_t>(state->poll_interval_ns * 2, 5'000'000);
        ArmFallbackTimer(state);
      });
}

Result<ChildWatch> ChildWatch::Arm(Reactor& reactor, pid_t pid,
                                   std::function<void()> on_exit) {
  if (pid <= 0) {
    return LogicalError("ChildWatch::Arm: invalid pid");
  }
  ChildWatch watch;
  watch.reactor_ = &reactor;
  watch.state_ = std::make_shared<State>();
  watch.state_->reactor = &reactor;
  watch.state_->pid = pid;
  watch.state_->on_exit = std::move(on_exit);

  int pidfd = PidfdOpen(pid);
  if (pidfd >= 0) {
    watch.pidfd_.Reset(pidfd);
    watch.state_->pidfd = pidfd;
    std::shared_ptr<State> state = watch.state_;
    Status added = reactor.AddFd(pidfd, EPOLLIN, [state](uint32_t) {
      if (state->fired) {
        return;
      }
      // Re-validate before firing: an event harvested in this epoll batch can
      // be stale if another callback closed an fd whose number was reused for
      // this pidfd. A real pidfd EPOLLIN implies the child is waitable.
      if (!ChildIsWaitable(state->pid)) {
        return;
      }
      (void)state->reactor->RemoveFd(state->pidfd);
      State::Fire(state);
    });
    if (added.ok()) {
      return watch;
    }
    watch.pidfd_.Reset();
  }
  // No pidfd to watch (pre-5.3 kernel, seccomp, ESRCH race, or epoll refused
  // it): poll the pid through reactor timers instead, same escalation as the
  // legacy loop.
  State::ArmFallbackTimer(watch.state_);
  return watch;
}

ChildWatch::ChildWatch(ChildWatch&& other) noexcept
    : reactor_(std::exchange(other.reactor_, nullptr)),
      pidfd_(std::move(other.pidfd_)),
      state_(std::move(other.state_)) {}

ChildWatch& ChildWatch::operator=(ChildWatch&& other) noexcept {
  if (this != &other) {
    Disarm();
    reactor_ = std::exchange(other.reactor_, nullptr);
    pidfd_ = std::move(other.pidfd_);
    state_ = std::move(other.state_);
  }
  return *this;
}

ChildWatch::~ChildWatch() { Disarm(); }

void ChildWatch::Disarm() {
  if (!state_) {
    return;
  }
  if (!state_->fired) {
    state_->fired = true;
    state_->on_exit = nullptr;
    if (pidfd_.valid() && reactor_ != nullptr && reactor_->HasFd(pidfd_.get())) {
      (void)reactor_->RemoveFd(pidfd_.get());
    }
    if (state_->timer_id != 0 && reactor_ != nullptr) {
      reactor_->CancelTimer(state_->timer_id);
    }
  }
  pidfd_.Reset();
  state_.reset();
  reactor_ = nullptr;
}

bool ChildWatch::armed() const { return state_ != nullptr && !state_->fired; }

}  // namespace forklift
