// The clone(CLONE_VM|CLONE_VFORK) and vfork engines run the child on this
// process's memory until exec. A caught signal landing in the child before
// ChildExec resets the handlers would run the handler on that shared memory,
// so each engine blocks every signal across the launch, restores the caller's
// mask in the parent, and hands it to the child to exec with.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "src/spawn/spawner.h"

namespace forklift {
namespace {

pid_t g_test_pid = 0;
// Written by a handler that runs in a shared-memory child, i.e. on our memory.
volatile sig_atomic_t g_foreign_pid = 0;

void RecordForeignPid(int) {
  pid_t self = ::getpid();
  if (self != g_test_pid) {
    g_foreign_pid = self;
  }
}

bool SameMask(const sigset_t& a, const sigset_t& b) {
  for (int sig = 1; sig < NSIG; ++sig) {
    if (sigismember(&a, sig) != sigismember(&b, sig)) {
      return false;
    }
  }
  return true;
}

// Runs in a forked copy of the test process (see the test below) and
// returns its exit code: 0 clean, else the first invariant broken.
int SignalStormDuringSpawns(SpawnBackendKind engine) {
  g_test_pid = ::getpid();
  // Lead a fresh process group: a group-directed signal then reaches every
  // child from clone() on, since children inherit the group.
  if (::setpgid(0, 0) != 0) {
    std::perror("setpgid");
    return 2;
  }
  struct sigaction sa = {};
  sa.sa_handler = RecordForeignPid;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGUSR1, &sa, nullptr) != 0) {
    std::perror("sigaction");
    return 2;
  }
  // A non-trivial caller mask, which must come back unchanged.
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGUSR2);
  sigset_t before;
  ::pthread_sigmask(SIG_BLOCK, &block, nullptr);
  ::pthread_sigmask(SIG_BLOCK, nullptr, &before);

  std::atomic<bool> stop{false};
  std::thread storm([&stop] {
    const pid_t group = ::getpgrp();
    while (!stop.load(std::memory_order_relaxed)) {
      (void)::kill(-group, SIGUSR1);
      std::this_thread::yield();
    }
  });
  int failures = 0;
  for (int i = 0; i < 300; ++i) {
    // Every other spawn keeps its handlers and mask: the child unblocks
    // SIGUSR1 again before exec, so its caught handler must be gone anyway.
    auto child = Spawner("/bin/true")
                     .SetBackend(engine)
                     .ResetSignals(i % 2 == 0)
                     .Spawn();
    // The storm may kill a child before or after exec; only the launch
    // itself and the reap must work.
    if (!child.ok() || !child->Wait().ok()) {
      ++failures;
    }
  }
  stop.store(true);
  storm.join();

  sigset_t after;
  ::pthread_sigmask(SIG_BLOCK, nullptr, &after);
  if (failures != 0) {
    std::fprintf(stderr, "%d spawns or reaps failed\n", failures);
    return 3;
  }
  if (g_foreign_pid != 0) {
    std::fprintf(stderr, "SIGUSR1 handler ran in child pid %d\n",
                 static_cast<int>(g_foreign_pid));
    return 4;
  }
  if (!SameMask(before, after)) {
    std::fprintf(stderr, "caller's signal mask changed\n");
    return 5;
  }
  return 0;
}

class CloneVmSignalTest : public ::testing::TestWithParam<SpawnBackendKind> {};

// The storm runs in a fork of the test process (a death-test child), so the
// fresh process group holds only it and its children — never a pipeline
// sharing the test runner's group.
TEST_P(CloneVmSignalTest, NoHandlerRunsInTheChildAndTheMaskIsRestored) {
  EXPECT_EXIT(std::_Exit(SignalStormDuringSpawns(GetParam())), ::testing::ExitedWithCode(0), "");
}

// SigBlk of the exec'd program, from its /proc/self/status.
uint64_t ChildBlockedMask(SpawnBackendKind engine, bool reset_signals) {
  auto out = Spawner("/bin/cat")
                 .Arg("/proc/self/status")
                 .SetBackend(engine)
                 .ResetSignals(reset_signals)
                 .SetStdout(Stdio::Pipe())
                 .Spawn();
  EXPECT_TRUE(out.ok()) << out.error().ToString();
  if (!out.ok()) {
    return ~uint64_t{0};
  }
  auto outcome = out->Communicate();
  EXPECT_TRUE(outcome.ok()) << outcome.error().ToString();
  if (!outcome.ok()) {
    return ~uint64_t{0};
  }
  std::istringstream lines(outcome->stdout_data);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("SigBlk:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 16);
    }
  }
  ADD_FAILURE() << "no SigBlk line in:\n" << outcome->stdout_data;
  return ~uint64_t{0};
}

// Without the mask reset the child execs with the caller's mask — not the
// all-blocked mask the engine holds across the launch. With it, nothing.
TEST_P(CloneVmSignalTest, ChildExecsWithTheCallersMask) {
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGUSR2);
  sigaddset(&block, SIGWINCH);
  sigset_t saved;
  ASSERT_EQ(::pthread_sigmask(SIG_BLOCK, &block, &saved), 0);

  sigset_t current;
  ASSERT_EQ(::pthread_sigmask(SIG_BLOCK, nullptr, &current), 0);
  uint64_t expected = 0;
  for (int sig = 1; sig <= 64 && sig < NSIG; ++sig) {
    if (sigismember(&current, sig) == 1) {
      expected |= uint64_t{1} << (sig - 1);
    }
  }
  EXPECT_EQ(ChildBlockedMask(GetParam(), /*reset_signals=*/false), expected);
  EXPECT_EQ(ChildBlockedMask(GetParam(), /*reset_signals=*/true), 0u);

  ASSERT_EQ(::pthread_sigmask(SIG_SETMASK, &saved, nullptr), 0);
}

INSTANTIATE_TEST_SUITE_P(SharedMemoryEngines, CloneVmSignalTest,
                         ::testing::Values(SpawnBackendKind::kCloneVm, SpawnBackendKind::kVfork),
                         [](const ::testing::TestParamInfo<SpawnBackendKind>& info) {
                           return info.param == SpawnBackendKind::kCloneVm ? "CloneVm" : "Vfork";
                         });

}  // namespace
}  // namespace forklift
