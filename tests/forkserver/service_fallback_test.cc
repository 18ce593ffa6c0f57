// The routing acceptance tests for the location-transparent spawn layer:
// a SpawnService chained sharded pool -> single pipelined channel -> local
// posix_spawn must complete a spawn when the pool is dead and the channel's
// connect is fault-injected — exactly once, no lost request, no double
// launch — and a mid-flight server death must surface a clean error on the
// parked wait while the NEXT request degrades to local.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/server.h"
#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/spawn/service.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

class ServiceFallbackTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::ClearPlan(); }

  // Routing decisions must be per-request here: quarantine off so every
  // Spawn walks the full chain, single attempt so the metrics are exact.
  static SpawnService::Options DeterministicOptions() {
    SpawnService::Options opts;
    opts.attempts_per_route = 1;
    opts.retry_backoff_base_seconds = 0;
    opts.quarantine_seconds = 0;
    return opts;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream data;
    data << in.rdbuf();
    return data.str();
  }
};

// The ISSUE's acceptance scenario: the sharded pool has no live shard, the
// fallback channel's connect syscall is forced to fail with EMFILE, and the
// request must still complete — through local posix_spawn, launching the
// child exactly once.
TEST_F(ServiceFallbackTest, ShardedToPipelinedToLocalUnderInjectedConnectFailure) {
  ShardedForkServer::Options pool_opts;
  pool_opts.shards = 1;
  pool_opts.restart_crashed_shards = false;  // a dead shard stays dead
  auto pool_res = ShardedForkServer::Start(pool_opts);
  ASSERT_TRUE(pool_res.ok()) << pool_res.error().ToString();
  std::shared_ptr<ShardedForkServer> pool = std::move(*pool_res);

  // Kill the only shard and give the channel's receiver thread a moment to
  // observe the EOF, so the route fails fast instead of racing the death.
  pid_t shard_pid = pool->shard_pids()[0];
  ASSERT_GT(shard_pid, 0);
  ASSERT_EQ(::kill(shard_pid, SIGKILL), 0);
  ::usleep(150 * 1000);

  SpawnService service(DeterministicOptions());
  service.AddRoute(ShardedTransport::Adopt(pool));
  service.AddRoute(ForkServerTransport::ConnectLazy("/tmp/forklift-no-such-daemon.sock"));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  // Every connect attempt on the pipelined route fails with injected EMFILE.
  fault::PlanSpec spec;
  spec.site = "client.connect_socket";
  spec.mode = fault::Mode::kEmfile;
  spec.every = 1;
  spec.limit = 0;
  fault::InstallPlan(spec);

  // The child appends a marker to a file: one line proves the request was
  // neither lost nor double-launched across the fallback chain.
  std::string marker = ::testing::TempDir() + "forklift_fallback_marker";
  ::unlink(marker.c_str());
  Spawner echo("/bin/echo");
  echo.Arg("fell-through").SetStdout(Stdio::Path(marker));

  auto child = service.Spawn(echo);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "local:posix_spawn");
  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
  EXPECT_EQ(ReadFile(marker), "fell-through\n");
  ::unlink(marker.c_str());

  // The connect fault really fired (the pipelined route was attempted, not
  // skipped), and both upstream routes recorded exactly one fall-through.
  EXPECT_GE(fault::InjectionsFired(), 1u);
  auto sharded = service.RouteStats("sharded");
  EXPECT_EQ(sharded.attempts, 1u);
  EXPECT_EQ(sharded.transport_failures, 1u);
  EXPECT_EQ(sharded.fallthroughs, 1u);
  auto pipelined = service.RouteStats("forkserver");
  EXPECT_EQ(pipelined.attempts, 1u);
  EXPECT_EQ(pipelined.transport_failures, 1u);
  EXPECT_EQ(pipelined.fallthroughs, 1u);
  auto local = service.RouteStats("local:posix_spawn");
  EXPECT_EQ(local.attempts, 1u);
  EXPECT_EQ(local.successes, 1u);

  fault::ClearPlan();
  (void)pool->Shutdown();  // reaps the killed shard process
}

// Connect failure on the only remote route: the request itself must land on
// local unscathed — same exactly-once marker discipline, no pool involved.
TEST_F(ServiceFallbackTest, InjectedConnectFailureFallsBackWithoutLosingTheRequest) {
  SpawnService service(DeterministicOptions());
  service.AddRoute(ForkServerTransport::ConnectLazy("/tmp/forklift-no-such-daemon.sock"));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  fault::PlanSpec spec;
  spec.site = "client.connect_socket";
  spec.mode = fault::Mode::kEmfile;
  spec.every = 1;
  spec.limit = 0;
  fault::InstallPlan(spec);

  std::string marker = ::testing::TempDir() + "forklift_connect_fault_marker";
  ::unlink(marker.c_str());
  Spawner echo("/bin/echo");
  echo.Arg("ok").SetStdout(Stdio::Path(marker));
  auto child = service.Spawn(echo);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "local:posix_spawn");
  EXPECT_TRUE(child->Wait().value().Success());
  EXPECT_EQ(ReadFile(marker), "ok\n");
  ::unlink(marker.c_str());
  EXPECT_GE(fault::InjectionsFired(), 1u);
}

// A server killed with a wait parked mid-flight: the wait completes exactly
// once, as a clean error — never a hang, never an invented status — and the
// next spawn through the same service degrades to the local route.
TEST_F(ServiceFallbackTest, MidFlightServerDeathErrorsTheWaitAndNextSpawnFallsBack) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  pid_t server_pid = handle->server_pid;
  auto channel = std::make_shared<ForkServerClient>(std::move(handle->client_sock));

  SpawnService service(DeterministicOptions());
  service.AddRoute(ForkServerTransport::Adopt(channel));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  // A child that lives until we release its stdin, spawned remotely.
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());
  Spawner cat("/bin/cat");
  cat.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto remote = service.Spawn(cat, "forkserver");
  ASSERT_TRUE(remote.ok()) << remote.error().ToString();
  EXPECT_EQ(remote->route(), "forkserver");
  hold->read_end.Reset();

  std::thread waiter([&remote] {
    auto st = remote->Wait();
    EXPECT_FALSE(st.ok()) << "wait on a dead channel must error, not invent a status";
  });
  ::usleep(50 * 1000);  // let the wait park on the channel first
  ASSERT_EQ(::kill(server_pid, SIGKILL), 0);
  waiter.join();
  (void)WaitForExit(server_pid);  // reap the server zombie
  hold->write_end.Reset();        // release the orphaned cat

  // The route is dead (adopted channels are not re-established); the next
  // request must complete on local.
  auto next = service.Spawn(Spawner("/bin/true"));
  ASSERT_TRUE(next.ok()) << next.error().ToString();
  EXPECT_EQ(next->route(), "local:posix_spawn");
  EXPECT_TRUE(next->Wait().value().Success());
  EXPECT_GE(service.RouteStats("forkserver").transport_failures, 1u);
}

// Satellite 2 on the remote path: the first reap caches the status on the
// handle, and every later wait — blocking, non-blocking, deadline — returns
// the cache instead of a protocol error for a pid the server already forgot.
TEST_F(ServiceFallbackTest, RemoteHandleWaitIsIdempotent) {
  SpawnService service;
  service.AddRoute(ForkServerTransport::StartInProcess());
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  Spawner s("/bin/sh");
  s.Args({"-c", "exit 5"});
  auto child = service.Spawn(s, "forkserver");
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "forkserver");

  auto first = child->Wait();
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  EXPECT_EQ(first->exit_code, 5);
  auto second = child->Wait();
  ASSERT_TRUE(second.ok()) << second.error().ToString();
  EXPECT_EQ(second->exit_code, 5);
  auto tried = child->TryWait();
  ASSERT_TRUE(tried.ok());
  ASSERT_TRUE(tried->has_value());
  EXPECT_EQ((*tried)->exit_code, 5);
}

// The deadline wait on a remote handle times out without consuming the
// parked server-side wait: a later blocking Wait still collects the status.
TEST_F(ServiceFallbackTest, RemoteWaitDeadlineKeepsTheWaitCollectable) {
  SpawnService service;
  service.AddRoute(ForkServerTransport::StartInProcess());
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  Spawner s("/bin/sh");
  s.Args({"-c", "sleep 0.3; exit 9"});
  auto child = service.Spawn(s, "forkserver");
  ASSERT_TRUE(child.ok()) << child.error().ToString();

  auto running = child->TryWait();
  ASSERT_TRUE(running.ok()) << running.error().ToString();
  EXPECT_FALSE(running->has_value());
  auto timed_out = child->WaitDeadline(0.02);
  ASSERT_TRUE(timed_out.ok()) << timed_out.error().ToString();
  EXPECT_FALSE(timed_out->has_value());

  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_EQ(st->exit_code, 9);
}

// Kill on a remote handle goes straight to the pid (same namespace, foreign
// parentage) and the protocol wait reports the signal.
TEST_F(ServiceFallbackTest, RemoteKillAndWait) {
  SpawnService service;
  service.AddRoute(ForkServerTransport::StartInProcess());
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  Spawner s("/bin/sleep");
  s.Arg("30");
  auto child = service.Spawn(s, "forkserver");
  ASSERT_TRUE(child.ok()) << child.error().ToString();

  EXPECT_TRUE(child->Kill(SIGTERM).ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->signaled);
  EXPECT_EQ(st->term_signal, SIGTERM);
  EXPECT_TRUE(child->KillAndWait().ok());  // idempotent after the reap
}

// A handle from the sharded route holds the pool that parents its child.
// The pool here is started lazily by the transport, so once the service and
// its transport are destroyed the handle is the pool's only owner: its wait
// must still reach a live shard and report the child's real exit status.
TEST_F(ServiceFallbackTest, ShardedHandleOutlivesItsServiceAndTransport) {
  ProcessHandle child;
  {
    SpawnService service;
    service.AddRoute(ShardedTransport::StartLazy(ShardedForkServer::Options{1, true}));
    Spawner s("/bin/sh");
    s.Args({"-c", "sleep 0.2; exit 7"});
    auto spawned = service.Spawn(s, "sharded");
    ASSERT_TRUE(spawned.ok()) << spawned.error().ToString();
    EXPECT_EQ(spawned->route(), "sharded");
    child = std::move(*spawned);
  }
  auto st = child.Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->exit_code, 7);
}

}  // namespace
}  // namespace forklift
