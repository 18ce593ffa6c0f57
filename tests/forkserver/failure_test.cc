// Failure injection for the fork-server stack: dead servers, killed workers,
// and garbage on the wire must produce errors, not hangs or crashes.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <memory>

#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/forkserver/client.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/pool.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/server.h"
#include "src/spawn/spawner.h"
#include "tests/forkserver/launch_on.h"

namespace forklift {
namespace {

// Pipe-heavy code: a worker can die between our liveness check and the
// write. Ignore SIGPIPE (the library contract) so that window surfaces as
// EPIPE instead of death.
class IgnoreSigpipe : public ::testing::Environment {
 public:
  void SetUp() override { ::signal(SIGPIPE, SIG_IGN); }
};
const auto* const kIgnoreSigpipe =
    ::testing::AddGlobalTestEnvironment(new IgnoreSigpipe());

TEST(ForkServerFailureTest, SpawnAgainstDeadServerFailsCleanly) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  // Kill the server outright (no shutdown handshake).
  ASSERT_EQ(::kill(handle->server_pid, SIGKILL), 0);
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());

  auto client = std::make_shared<ForkServerClient>(std::move(handle->client_sock));
  Spawner s("/bin/true");
  auto child = LaunchOn(client, s);
  EXPECT_FALSE(child.ok());  // EOF or EPIPE — never a hang
}

TEST(ForkServerFailureTest, PingAfterServerCrashFails) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(::kill(handle->server_pid, SIGKILL), 0);
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());
  ForkServerClient client(std::move(handle->client_sock));
  EXPECT_FALSE(client.Ping().ok());
}

TEST(ForkServerFailureTest, GarbageFrameGetsErrorReply) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  // Send a syntactically valid frame with garbage payload.
  ASSERT_TRUE(SendFrame(handle->client_sock.get(), "not-a-protocol-message").ok());
  auto rr = RecvFrame(handle->client_sock.get());
  ASSERT_TRUE(rr.ok());
  ASSERT_FALSE(rr->eof);
  auto reply = DecodeSpawnReply(rr->frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);

  // The server survives and still works.
  ForkServerClient client(std::move(handle->client_sock));
  EXPECT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Shutdown().ok());
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());
}

TEST(ForkServerFailureTest, ServerSurvivesSpawnOfMissingBinary) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  auto client = std::make_shared<ForkServerClient>(std::move(handle->client_sock));
  for (int i = 0; i < 3; ++i) {
    Spawner bad("/no/such/thing");
    auto child = LaunchOn(client, bad);
    EXPECT_FALSE(child.ok());
  }
  Spawner good("/bin/true");
  auto child = LaunchOn(client, good);
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(child->Wait().value().Success());
  ASSERT_TRUE(client->Shutdown().ok());
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());
}

TEST(WorkerPoolFailureTest, KilledWorkerIsDetectedAndRoutedAround) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 2}).ok());

  // Find a worker's pid, kill it behind the pool's back.
  auto r = pool.Execute("echo $$");
  ASSERT_TRUE(r.ok());
  pid_t victim = static_cast<pid_t>(std::stol(r->output));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The pool's reactor usually observes the death (pidfd event) before the
  // next dispatch and routes around the corpse with no failed task; if a task
  // races ahead of the notification, at most one errors. Either way the
  // survivor keeps serving.
  int successes = 0;
  for (int i = 0; i < 6; ++i) {
    auto task = pool.Execute("echo alive");
    if (task.ok()) {
      EXPECT_EQ(task->output, "alive\n");
      ++successes;
    }
  }
  EXPECT_GE(successes, 5);
}

TEST(WorkerPoolFailureTest, AllWorkersDeadIsTerminalError) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 1}).ok());
  auto r = pool.Execute("echo $$");
  ASSERT_TRUE(r.ok());
  pid_t victim = static_cast<pid_t>(std::stol(r->output));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // First attempt detects the death, second finds no healthy workers.
  (void)pool.Execute("echo x");
  auto after = pool.Execute("echo x");
  EXPECT_FALSE(after.ok());
}

}  // namespace
}  // namespace forklift
