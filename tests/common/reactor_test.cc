// Reactor + ChildWatch: the epoll/timerfd event loop under the event-driven
// child lifecycle. Covers fd dispatch, timer ordering/cancellation, and exit
// watches over both notification paths (pidfd and the forced timer-poll
// fallback a pre-5.3 kernel would take), and the fallback taken when epoll
// refuses the pidfd.
#include "src/common/reactor.h"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <vector>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/faultinject/faultinject.h"

namespace forklift {
namespace {

bool PidfdAvailable() {
  int fd = PidfdOpen(::getpid());
  if (fd < 0) {
    return false;
  }
  ::close(fd);
  return true;
}

// Forks a child that parks on a pipe read and exits when the write end
// closes — a process whose exact exit moment the test controls.
struct ParkedChild {
  pid_t pid = -1;
  UniqueFd release;  // closing this makes the child exit

  static ParkedChild Start() {
    Pipe pipe = *MakePipe();
    pid_t pid = ::fork();
    if (pid == 0) {
      pipe.write_end.Reset();  // or our own copy would hold EOF off forever
      char b;
      (void)!::read(pipe.read_end.get(), &b, 1);
      ::_exit(0);
    }
    ParkedChild child;
    child.pid = pid;
    child.release = std::move(pipe.write_end);
    return child;
  }

  void Reap() const { ::waitpid(pid, nullptr, 0); }
};

TEST(ReactorTest, PollOnceNonBlockingWithNothingPending) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  auto n = reactor->PollOnce(0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
}

TEST(ReactorTest, DispatchesFdReadable) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  Pipe pipe = *MakePipe();
  uint32_t seen_events = 0;
  ASSERT_TRUE(reactor
                  ->AddFd(pipe.read_end.get(), EPOLLIN,
                          [&seen_events](uint32_t events) { seen_events = events; })
                  .ok());
  ASSERT_EQ(::write(pipe.write_end.get(), "x", 1), 1);
  auto n = reactor->PollOnce(-1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_NE(seen_events & EPOLLIN, 0u);
  EXPECT_EQ(reactor->fd_watch_count(), 1u);
  ASSERT_TRUE(reactor->RemoveFd(pipe.read_end.get()).ok());
  EXPECT_EQ(reactor->fd_watch_count(), 0u);
}

TEST(ReactorTest, CallbackMayRemoveItself) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  Pipe pipe = *MakePipe();
  int fires = 0;
  int fd = pipe.read_end.get();
  ASSERT_TRUE(reactor
                  ->AddFd(fd, EPOLLIN,
                          [&, fd](uint32_t) {
                            ++fires;
                            ASSERT_TRUE(reactor->RemoveFd(fd).ok());
                          })
                  .ok());
  ASSERT_EQ(::write(pipe.write_end.get(), "x", 1), 1);
  ASSERT_TRUE(reactor->PollOnce(-1).ok());
  // Still readable, but the watch is gone: nothing more dispatches.
  auto n = reactor->PollOnce(0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
  EXPECT_EQ(fires, 1);
}

TEST(ReactorTest, DuplicateAddFdRejected) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  Pipe pipe = *MakePipe();
  ASSERT_TRUE(reactor->AddFd(pipe.read_end.get(), EPOLLIN, [](uint32_t) {}).ok());
  EXPECT_FALSE(reactor->AddFd(pipe.read_end.get(), EPOLLIN, [](uint32_t) {}).ok());
}

TEST(ReactorTest, TimerFiresAfterDelay) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  bool fired = false;
  reactor->AddTimerAfter(0.02, [&fired] { fired = true; });
  Stopwatch sw;
  while (!fired) {
    ASSERT_TRUE(reactor->PollOnce(-1).ok());
  }
  EXPECT_GE(sw.ElapsedSeconds(), 0.015);
  EXPECT_EQ(reactor->timer_count(), 0u);
}

TEST(ReactorTest, TimersFireInDeadlineOrder) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  std::vector<int> order;
  reactor->AddTimerAfter(0.03, [&order] { order.push_back(2); });
  reactor->AddTimerAfter(0.01, [&order] { order.push_back(1); });
  while (order.size() < 2) {
    ASSERT_TRUE(reactor->PollOnce(-1).ok());
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ReactorTest, CancelledTimerNeverFires) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  bool cancelled_fired = false;
  bool other_fired = false;
  Reactor::TimerId id =
      reactor->AddTimerAfter(0.01, [&cancelled_fired] { cancelled_fired = true; });
  reactor->AddTimerAfter(0.03, [&other_fired] { other_fired = true; });
  reactor->CancelTimer(id);
  while (!other_fired) {
    ASSERT_TRUE(reactor->PollOnce(-1).ok());
  }
  EXPECT_FALSE(cancelled_fired);
}

TEST(ReactorTest, PastDeadlineFiresImmediately) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  bool fired = false;
  reactor->AddTimerAt(MonotonicNanos() - 1'000'000, [&fired] { fired = true; });
  Stopwatch sw;
  while (!fired) {
    ASSERT_TRUE(reactor->PollOnce(-1).ok());
  }
  EXPECT_LT(sw.ElapsedSeconds(), 0.5);
}

class ChildWatchBothPaths : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    force_fallback_ = GetParam();
    if (!force_fallback_ && !PidfdAvailable()) {
      GTEST_SKIP() << "pidfd_open unavailable on this kernel";
    }
    TestOnlyForcePidfdFallback(force_fallback_);
  }
  void TearDown() override { TestOnlyForcePidfdFallback(false); }

  bool force_fallback_ = false;
};

TEST_P(ChildWatchBothPaths, FiresOnExit) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  ParkedChild child = ParkedChild::Start();
  ASSERT_GT(child.pid, 0);
  bool exited = false;
  auto watch = ChildWatch::Arm(*reactor, child.pid, [&exited] { exited = true; });
  ASSERT_TRUE(watch.ok());
  EXPECT_EQ(watch->using_pidfd(), !force_fallback_);
  EXPECT_TRUE(watch->armed());

  // Not exited yet: a non-blocking pass must not fire the watch.
  ASSERT_TRUE(reactor->PollOnce(0).ok());
  EXPECT_FALSE(exited);

  child.release.Reset();  // child exits now
  Stopwatch sw;
  while (!exited) {
    ASSERT_TRUE(reactor->PollOnce(100).ok());
    ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "watch never fired";
  }
  EXPECT_FALSE(watch->armed());
  child.Reap();
}

TEST_P(ChildWatchBothPaths, DisarmSuppressesCallback) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  ParkedChild child = ParkedChild::Start();
  ASSERT_GT(child.pid, 0);
  bool exited = false;
  auto watch = ChildWatch::Arm(*reactor, child.pid, [&exited] { exited = true; });
  ASSERT_TRUE(watch.ok());
  watch->Disarm();
  EXPECT_FALSE(watch->armed());
  child.release.Reset();
  child.Reap();
  // Drain any straggling events; the disarmed callback must stay silent.
  ASSERT_TRUE(reactor->PollOnce(50).ok());
  EXPECT_FALSE(exited);
}

TEST_P(ChildWatchBothPaths, AlreadyExitedChildStillNotifies) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  ParkedChild child = ParkedChild::Start();
  ASSERT_GT(child.pid, 0);
  child.release.Reset();
  // Let the child become a zombie before the watch is armed.
  Stopwatch sw;
  for (;;) {
    siginfo_t si;
    si.si_pid = 0;
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(child.pid), &si,
                       WEXITED | WNOHANG | WNOWAIT),
              0);
    if (si.si_pid == child.pid) {
      break;
    }
    ASSERT_LT(sw.ElapsedSeconds(), 5.0);
  }
  bool exited = false;
  auto watch = ChildWatch::Arm(*reactor, child.pid, [&exited] { exited = true; });
  ASSERT_TRUE(watch.ok());
  while (!exited) {
    ASSERT_TRUE(reactor->PollOnce(100).ok());
    ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "watch never fired for zombie";
  }
  child.Reap();
}

INSTANTIATE_TEST_SUITE_P(PidfdAndFallback, ChildWatchBothPaths, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "TimerPollFallback" : "Pidfd";
                         });

// A pidfd that epoll refuses to register is not a failed watch: Arm falls
// back to timer polling, and the watch still fires exactly once.
TEST(ChildWatchTest, RefusedPidfdFallsBackToPolling) {
  if (!PidfdAvailable()) {
    GTEST_SKIP() << "pidfd_open unavailable on this kernel";
  }
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok());
  ParkedChild child = ParkedChild::Start();
  ASSERT_GT(child.pid, 0);

  fault::PlanSpec spec;
  spec.site = "reactor.epoll_ctl_add";
  spec.mode = fault::Mode::kEnomem;
  spec.nth = 1;
  fault::InstallPlan(spec);
  int fires = 0;
  auto watch = ChildWatch::Arm(*reactor, child.pid, [&fires] { ++fires; });
  const uint64_t injected = fault::InjectionsFired();
  fault::ClearPlan();
  ASSERT_EQ(injected, 1u);
  ASSERT_TRUE(watch.ok()) << watch.error().ToString();
  EXPECT_FALSE(watch->using_pidfd());
  EXPECT_EQ(reactor->fd_watch_count(), 0u);

  child.release.Reset();
  Stopwatch sw;
  while (fires == 0) {
    ASSERT_TRUE(reactor->PollOnce(100).ok());
    ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "watch never fired";
  }
  ASSERT_TRUE(reactor->PollOnce(50).ok());
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(watch->armed());
  child.Reap();
}

}  // namespace
}  // namespace forklift
