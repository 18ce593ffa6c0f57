// End-to-end zygote tests: in-process server on a thread, plus the real
// separate-process server. These are the §6 "fork servers are how the
// ecosystem copes" experiments in executable form.
#include "src/forkserver/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

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
