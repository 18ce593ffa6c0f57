// End-to-end zygote tests: in-process server on a thread, plus the real
// separate-process server. These are the §6 "fork servers are how the
// ecosystem copes" experiments in executable form.
#include "src/forkserver/server.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/forkserver/client.h"
#include "src/forkserver/pool.h"
#include "src/spawn/spawner.h"
#include "tests/forkserver/launch_on.h"

namespace forklift {
namespace {

// Runs a ForkServer on a background thread over a socketpair; returns the
// client. The thread joins at destruction (after Shutdown/EOF).
class InProcessServer {
 public:
  InProcessServer() {
    auto sp = MakeSocketPair();
    EXPECT_TRUE(sp.ok());
    client_ = std::make_shared<ForkServerClient>(std::move(sp->first));
    server_thread_ = std::thread([sock = std::move(sp->second)]() mutable {
      ForkServer server(std::move(sock));
      auto served = server.Serve();
      EXPECT_TRUE(served.ok()) << served.error().ToString();
    });
  }

  ~InProcessServer() {
    (void)client_->Shutdown();
    if (server_thread_.joinable()) {
      server_thread_.join();
    }
  }

  ForkServerClient& client() { return *client_; }
  const std::shared_ptr<ForkServerClient>& channel() { return client_; }

 private:
  std::shared_ptr<ForkServerClient> client_;
  std::thread server_thread_;
};

TEST(ForkServerTest, PingPong) {
  InProcessServer srv;
  EXPECT_TRUE(srv.client().Ping().ok());
}

TEST(ForkServerTest, SpawnTrueAndWait) {
  InProcessServer srv;
  Spawner s("/bin/true");
  auto child = LaunchOn(srv.channel(), s);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_GT(child->pid(), 0);
  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
}

TEST(ForkServerTest, ExitCodePropagates) {
  InProcessServer srv;
  Spawner s("/bin/sh");
  s.Args({"-c", "exit 5"});
  auto child = LaunchOn(srv.channel(), s);
  ASSERT_TRUE(child.ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->exit_code, 5);
}

TEST(ForkServerTest, MissingProgramReportedAsError) {
  InProcessServer srv;
  Spawner s("/no/such/program");
  auto child = LaunchOn(srv.channel(), s);
  ASSERT_FALSE(child.ok());
  EXPECT_EQ(child.error().code(), ENOENT) << child.error().ToString();
}

TEST(ForkServerTest, OutputThroughTransferredPipe) {
  InProcessServer srv;
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());

  Spawner s("/bin/echo");
  s.Arg("zygote-output").SetStdout(Stdio::Fd(pipe->write_end.get()));
  auto child = LaunchOn(srv.channel(), s);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  pipe->write_end.Reset();
  auto data = ReadAll(pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "zygote-output\n");
  ASSERT_TRUE(child->Wait().ok());
}

TEST(ForkServerTest, StdinThroughTransferredPipe) {
  InProcessServer srv;
  auto in_pipe = MakePipe();
  auto out_pipe = MakePipe();
  ASSERT_TRUE(in_pipe.ok());
  ASSERT_TRUE(out_pipe.ok());

  Spawner s("cat");
  s.SetStdin(Stdio::Fd(in_pipe->read_end.get()))
      .SetStdout(Stdio::Fd(out_pipe->write_end.get()));
  auto child = LaunchOn(srv.channel(), s);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  in_pipe->read_end.Reset();
  out_pipe->write_end.Reset();
  ASSERT_TRUE(WriteFull(in_pipe->write_end.get(), "through-zygote", 14).ok());
  in_pipe->write_end.Reset();
  auto data = ReadAll(out_pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "through-zygote");
  ASSERT_TRUE(child->Wait().ok());
}

TEST(ForkServerTest, EnvironmentCrossesTheWire) {
  InProcessServer srv;
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  Spawner s("/bin/sh");
  s.Args({"-c", "printf '%s' \"$FORKLIFT_WIRE\""})
      .SetEnv("FORKLIFT_WIRE", "crossed")
      .SetStdout(Stdio::Fd(pipe->write_end.get()));
  auto child = LaunchOn(srv.channel(), s);
  ASSERT_TRUE(child.ok());
  pipe->write_end.Reset();
  auto data = ReadAll(pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "crossed");
  ASSERT_TRUE(child->Wait().ok());
}

TEST(ForkServerTest, WaitForUnknownPidFails) {
  InProcessServer srv;
  auto wait = srv.client().WaitAsync(999999);
  ASSERT_TRUE(wait.ok()) << wait.error().ToString();
  auto st = wait->AwaitExit();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), ECHILD);
}

// A handle dropped without a wait leaves one abandoned kWait on its channel.
// The server answers it when the child exits and forgets the child, so no
// exit stays cached for a wait that will never come.
TEST(ForkServerTest, DroppedHandleCollectsItsExit) {
  InProcessServer srv;
  pid_t pid = -1;
  {
    Spawner s("/bin/sleep");
    s.Arg("0.2");
    auto child = LaunchOn(srv.channel(), s);
    ASSERT_TRUE(child.ok()) << child.error().ToString();
    pid = child->pid();
  }
  EXPECT_EQ(srv.client().outstanding(), 1u);
  Stopwatch sw;
  while (srv.client().outstanding() != 0) {
    ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "abandoned wait never answered";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto wait = srv.client().WaitAsync(pid);
  ASSERT_TRUE(wait.ok()) << wait.error().ToString();
  auto st = wait->AwaitExit();
  ASSERT_FALSE(st.ok()) << "the exit was still cached";
  EXPECT_EQ(st.error().code(), ECHILD);
}

size_t OpenFdCount() {
  auto fds = std::filesystem::directory_iterator("/proc/self/fd");
  return static_cast<size_t>(std::distance(begin(fds), end(fds)));
}

// An exit nobody has collected yet is kept as a status alone: the server
// closes the child's pidfd as soon as it reaps it.
TEST(ForkServerTest, UncollectedExitHoldsNoDescriptor) {
  InProcessServer srv;
  ASSERT_TRUE(srv.client().Ping().ok());
  const size_t baseline = OpenFdCount();
  auto req = Spawner("/bin/true").BuildRequest();
  ASSERT_TRUE(req.ok());
  std::vector<pid_t> pids;
  for (int i = 0; i < 8; ++i) {
    auto launch = srv.client().LaunchAsync(*req);
    ASSERT_TRUE(launch.ok());
    auto pid = launch->AwaitPid();
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    pids.push_back(*pid);
  }
  Stopwatch sw;
  for (pid_t pid : pids) {
    while (::kill(pid, 0) == 0) {
      ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "child " << pid << " never reaped";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // The server answers this only after the exit callbacks that reaped.
  ASSERT_TRUE(srv.client().Ping().ok());
  EXPECT_EQ(OpenFdCount(), baseline);
  for (pid_t pid : pids) {
    auto wait = srv.client().WaitAsync(pid);
    ASSERT_TRUE(wait.ok());
    auto st = wait->AwaitExit();
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());
  }
}

// Makes the next pid this namespace hands out `last` + 1. False when
// ns_last_pid is not writable (it needs CAP_SYS_ADMIN).
bool SetLastPid(pid_t last) {
  int fd = ::open("/proc/sys/kernel/ns_last_pid", O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  std::string text = std::to_string(last);
  bool written = ::write(fd, text.data(), text.size()) == static_cast<ssize_t>(text.size());
  ::close(fd);
  return written;
}

constexpr int kSkipped = 77;

// Runs `scenario` as pid 1 of a fresh pid namespace, so the ns_last_pid
// writes it makes steer only its own forks, never another test's. Returns
// its exit code: 0 when its assertions held, kSkipped when it set `skipped`
// or no pid namespace could be made.
int RunInOwnPidNamespace(void (*scenario)(bool* skipped)) {
  std::fflush(nullptr);
  pid_t child = ::fork();
  if (child == 0) {
    if (::unshare(CLONE_NEWPID) != 0) {
      ::_exit(kSkipped);
    }
    pid_t init = ::fork();
    if (init == 0) {
      bool skipped = false;
      scenario(&skipped);
      std::fflush(nullptr);
      ::_exit(::testing::Test::HasFailure() ? 1 : skipped ? kSkipped : 0);
    }
    int status = 0;
    if (init < 0 || ::waitpid(init, &status, 0) != init || !WIFEXITED(status)) {
      ::_exit(2);
    }
    ::_exit(WEXITSTATUS(status));
  }
  int status = 0;
  if (child < 0 || ::waitpid(child, &status, 0) != child || !WIFEXITED(status)) {
    return 2;
  }
  return WEXITSTATUS(status);
}

// The kernel hands a pid out again once the server has reaped its last
// holder. An exit that nobody collected must not answer a wait on the next
// child to get that pid.
void StaleExitOnReusedPid(bool* skipped) {
  InProcessServer srv;
  ForkServerClient& client = srv.client();
  auto stale_req = Spawner("/bin/false").BuildRequest();
  ASSERT_TRUE(stale_req.ok());
  auto stale_launch = client.LaunchAsync(*stale_req);
  ASSERT_TRUE(stale_launch.ok());
  auto stale = stale_launch->AwaitPid();
  ASSERT_TRUE(stale.ok()) << stale.error().ToString();
  // Never waited on: the server reaps it on exit, which frees the pid.
  Stopwatch reaped;
  while (::kill(*stale, 0) == 0) {
    ASSERT_LT(reaped.ElapsedSeconds(), 5.0) << "stale child never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Spawner sleeper("/bin/sleep");
  sleeper.Arg("0.3");
  auto req = sleeper.BuildRequest();
  ASSERT_TRUE(req.ok());
  for (int attempt = 0; attempt < 20; ++attempt) {
    if (!SetLastPid(*stale - 1)) {
      std::printf("/proc/sys/kernel/ns_last_pid is not writable\n");
      *skipped = true;
      return;
    }
    Stopwatch since_launch;
    auto launch = client.LaunchAsync(*req);
    ASSERT_TRUE(launch.ok());
    auto pid = launch->AwaitPid();
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    if (*pid != *stale) {
      // Something else took the pid first: collect this child and retry.
      (void)::kill(*pid, SIGKILL);
      auto wait = client.WaitAsync(*pid);
      ASSERT_TRUE(wait.ok());
      ASSERT_TRUE(wait->AwaitExit().ok());
      continue;
    }
    auto wait = client.WaitAsync(*pid);
    ASSERT_TRUE(wait.ok());
    auto st = wait->AwaitExit();
    const double elapsed = since_launch.ElapsedSeconds();
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success()) << "the stale exit answered the new child's wait";
    EXPECT_GE(elapsed, 0.3);
    return;
  }
  std::printf("pid %d was not reused within 20 launches\n", static_cast<int>(*stale));
  *skipped = true;
}

TEST(ForkServerTest, WaitOnReusedPidWaitsForTheNewChild) {
  const int code = RunInOwnPidNamespace(StaleExitOnReusedPid);
  if (code == kSkipped) {
    GTEST_SKIP() << "needs a pid namespace with a writable ns_last_pid";
  }
  EXPECT_EQ(code, 0) << "the scenario's failures are printed above";
}

TEST(ForkServerTest, ManySequentialSpawns) {
  InProcessServer srv;
  for (int i = 0; i < 20; ++i) {
    Spawner s("/bin/true");
    auto child = LaunchOn(srv.channel(), s);
    ASSERT_TRUE(child.ok()) << "iteration " << i;
    auto st = child->Wait();
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->Success());
  }
}

TEST(ForkServerTest, NewChannelServesIndependently) {
  InProcessServer srv;
  auto channel = srv.client().NewChannel();
  ASSERT_TRUE(channel.ok()) << channel.error().ToString();

  // Both channels work, interleaved.
  ASSERT_TRUE((*channel)->Ping().ok());
  ASSERT_TRUE(srv.client().Ping().ok());

  Spawner s("/bin/true");
  auto via_new = LaunchOn(std::shared_ptr<ForkServerClient>(std::move(*channel)), s);
  ASSERT_TRUE(via_new.ok());
  auto via_old = LaunchOn(srv.channel(), s);
  ASSERT_TRUE(via_old.ok());
  EXPECT_TRUE(via_new->Wait().value().Success());
  EXPECT_TRUE(via_old->Wait().value().Success());
}

TEST(ForkServerTest, ClosingSecondaryChannelKeepsServerAlive) {
  InProcessServer srv;
  {
    auto channel = srv.client().NewChannel();
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE((*channel)->Ping().ok());
    // channel drops here: EOF on that socket only.
  }
  // Primary still serves.
  ASSERT_TRUE(srv.client().Ping().ok());
  Spawner s("/bin/true");
  auto child = LaunchOn(srv.channel(), s);
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(child->Wait().value().Success());
}

TEST(ForkServerTest, ConcurrentClientsOnPrivateChannels) {
  InProcessServer srv;
  constexpr int kThreads = 3;
  constexpr int kPerThread = 5;

  // Channels must be created serially (they ride the primary channel).
  std::vector<std::shared_ptr<ForkServerClient>> channels;
  for (int t = 0; t < kThreads; ++t) {
    auto channel = srv.client().NewChannel();
    ASSERT_TRUE(channel.ok());
    channels.push_back(std::move(channel).value());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Spawner s("/bin/true");
        auto child = LaunchOn(channels[static_cast<size_t>(t)], s);
        if (!child.ok()) {
          ++failures;
          continue;
        }
        auto st = child->Wait();
        if (!st.ok() || !st->Success()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ForkServerProcessTest, SeparateProcessServes) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  auto client = std::make_shared<ForkServerClient>(std::move(handle->client_sock));

  ASSERT_TRUE(client->Ping().ok());
  Spawner s("/bin/true");
  auto child = LaunchOn(client, s);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->Success());

  ASSERT_TRUE(client->Shutdown().ok());
  auto server_exit = WaitForExit(handle->server_pid);
  ASSERT_TRUE(server_exit.ok());
  EXPECT_TRUE(server_exit->Success());
}

TEST(ForkServerProcessTest, EofShutsServerDown) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  handle->client_sock.Reset();  // EOF
  auto server_exit = WaitForExit(handle->server_pid);
  ASSERT_TRUE(server_exit.ok());
  EXPECT_TRUE(server_exit->Success());
}

TEST(WorkerPoolTest, StartExecuteStop) {
  ShellWorkerPool pool;
  ShellWorkerPool::Options opts;
  opts.workers = 2;
  ASSERT_TRUE(pool.Start(opts).ok());
  EXPECT_EQ(pool.worker_count(), 2u);

  auto r = pool.Execute("echo warm");
  ASSERT_TRUE(r.ok()) << r.error().ToString();
  EXPECT_EQ(r->output, "warm\n");
  EXPECT_EQ(r->exit_code, 0);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(WorkerPoolTest, ExitCodeCaptured) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 1}).ok());
  auto r = pool.Execute("exit 7");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exit_code, 7);
  // The worker survives a failing command and accepts more work.
  auto r2 = pool.Execute("echo alive");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->output, "alive\n");
}

TEST(WorkerPoolTest, RoundRobinDistributes) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 3}).ok());
  // Each worker is a distinct shell: $$ differs across consecutive calls.
  std::set<std::string> pids;
  for (int i = 0; i < 3; ++i) {
    auto r = pool.Execute("echo $$");
    ASSERT_TRUE(r.ok());
    pids.insert(r->output);
  }
  EXPECT_EQ(pids.size(), 3u);
}

TEST(WorkerPoolTest, ManyTasksOneWorker) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 1}).ok());
  for (int i = 0; i < 50; ++i) {
    auto r = pool.Execute("echo task" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "task " << i;
    EXPECT_EQ(r->output, "task" + std::to_string(i) + "\n");
  }
  EXPECT_EQ(pool.tasks_executed(), 50u);
}

TEST(WorkerPoolTest, UnstartedPoolRejectsWork) {
  ShellWorkerPool pool;
  EXPECT_FALSE(pool.Execute("echo x").ok());
}

TEST(WorkerPoolTest, ZeroWorkersRejected) {
  ShellWorkerPool pool;
  EXPECT_FALSE(pool.Start({.workers = 0}).ok());
}

}  // namespace
}  // namespace forklift
