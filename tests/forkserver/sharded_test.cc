// ShardedForkServer: routed spawns across several zygotes, waits on the
// shard channel that launched each child, and transparent restart after a
// shard is killed — with in-flight requests on the dead shard completing
// exactly once, as errors.
#include "src/forkserver/sharded.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <memory>
#include <vector>

#include "src/common/pipe.h"
#include "src/spawn/spawner.h"
#include "tests/forkserver/launch_on.h"

namespace forklift {
namespace {

TEST(ShardedForkServerTest, SpawnWaitAcrossTwoShards) {
  ShardedForkServer::Options opts;
  opts.shards = 2;
  auto pool = ShardedForkServer::Start(opts);
  ASSERT_TRUE(pool.ok()) << pool.error().ToString();
  EXPECT_EQ((*pool)->shard_count(), 2u);
  EXPECT_TRUE((*pool)->Ping().ok());

  // Enough spawns that both shards see traffic under least-outstanding
  // routing; every one must succeed and wait through the shard that
  // launched it.
  Spawner s("/bin/true");
  for (int i = 0; i < 8; ++i) {
    auto child = LaunchOn(**pool, s);
    ASSERT_TRUE(child.ok()) << child.error().ToString();
    auto st = child->Wait();
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());
  }
  EXPECT_TRUE((*pool)->Shutdown().ok());
}

TEST(ShardedForkServerTest, DefaultShardCountIsAtLeastOne) {
  auto pool = ShardedForkServer::Start();
  ASSERT_TRUE(pool.ok()) << pool.error().ToString();
  EXPECT_GE((*pool)->shard_count(), 1u);
  EXPECT_TRUE((*pool)->Shutdown().ok());
}

TEST(ShardedForkServerTest, PipelinedSpawnsAcrossShards) {
  ShardedForkServer::Options opts;
  opts.shards = 2;
  auto pool = ShardedForkServer::Start(opts);
  ASSERT_TRUE(pool.ok()) << pool.error().ToString();

  auto req = Spawner("/bin/true").BuildRequest();
  ASSERT_TRUE(req.ok());
  std::vector<ShardedForkServer::PendingSpawn> window;
  for (int i = 0; i < 8; ++i) {
    auto p = (*pool)->LaunchAsync(*req);
    ASSERT_TRUE(p.ok()) << p.error().ToString();
    window.push_back(std::move(*p));
  }
  for (auto& p : window) {
    std::shared_ptr<ForkServerClient> channel = p.channel();
    auto pid = p.AwaitPid();
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    auto wait = channel->WaitAsync(*pid);
    ASSERT_TRUE(wait.ok()) << wait.error().ToString();
    auto st = wait->AwaitExit();
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());
  }
  EXPECT_TRUE((*pool)->Shutdown().ok());
}

TEST(ShardedForkServerTest, CrashedShardsRestartTransparently) {
  ShardedForkServer::Options opts;
  opts.shards = 2;
  auto pool = ShardedForkServer::Start(opts);
  ASSERT_TRUE(pool.ok()) << pool.error().ToString();

  // Kill every zygote; the next spawn has no live shard and must restart one
  // rather than fail or hang.
  for (pid_t pid : (*pool)->shard_pids()) {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  }
  // A spawn submitted before the channel observes the kill completes with a
  // clean error and is never retried by the pool (the dying shard may already
  // have forked — a retry could double-spawn). Within a couple of attempts
  // the router must see the dead channels, restart a shard, and succeed.
  Spawner s("/bin/true");
  bool spawned = false;
  for (int attempt = 0; attempt < 10 && !spawned; ++attempt) {
    auto child = LaunchOn(**pool, s);
    if (!child.ok()) {
      continue;  // the in-flight race above: completed exactly once, as error
    }
    auto st = child->Wait();
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());
    spawned = true;
  }
  EXPECT_TRUE(spawned) << "pool never recovered after shard kill";
  EXPECT_GE((*pool)->restarts(), 1u);
  EXPECT_TRUE((*pool)->Shutdown().ok());
}

TEST(ShardedForkServerTest, InFlightWaitOnKilledShardErrorsDoesNotHang) {
  ShardedForkServer::Options opts;
  opts.shards = 1;  // force the held child and the crash onto one shard
  auto pool = ShardedForkServer::Start(opts);
  ASSERT_TRUE(pool.ok()) << pool.error().ToString();

  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());
  Spawner s("/bin/cat");  // runs until stdin EOF
  s.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  auto pending = (*pool)->LaunchAsync(*req);
  ASSERT_TRUE(pending.ok()) << pending.error().ToString();
  std::shared_ptr<ForkServerClient> channel = pending->channel();
  auto pid = pending->AwaitPid();
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();

  // Park a wait on the live child, then kill its zygote out from under it.
  // The ping behind the wait on the same channel proves the shard has taken
  // the wait before the kill.
  auto wait = channel->WaitAsync(*pid);
  ASSERT_TRUE(wait.ok()) << wait.error().ToString();
  ASSERT_TRUE(channel->Ping().ok());
  pid_t shard_pid = (*pool)->shard_pids()[0];
  ASSERT_GT(shard_pid, 0);
  ASSERT_EQ(::kill(shard_pid, SIGKILL), 0);
  // The launching shard died with the wait in flight: the wait must complete
  // exactly once, with an error — never a success it cannot prove, never a
  // hang.
  EXPECT_FALSE(wait->AwaitExit().ok());
  EXPECT_TRUE(channel->dead());
  hold->write_end.Reset();  // release the now-orphaned child

  // The pool recovered: a fresh spawn works on the restarted shard.
  auto again = LaunchOn(**pool, Spawner("/bin/true"));
  ASSERT_TRUE(again.ok()) << again.error().ToString();
  EXPECT_TRUE(again->Wait().value().Success());
  EXPECT_GE((*pool)->restarts(), 1u);
  EXPECT_TRUE((*pool)->Shutdown().ok());
}

TEST(ShardedForkServerTest, LaunchAfterShutdownFails) {
  ShardedForkServer::Options opts;
  opts.shards = 1;
  auto pool = ShardedForkServer::Start(opts);
  ASSERT_TRUE(pool.ok()) << pool.error().ToString();
  ASSERT_TRUE((*pool)->Shutdown().ok());
  auto req = Spawner("/bin/true").BuildRequest();
  ASSERT_TRUE(req.ok());
  EXPECT_FALSE((*pool)->LaunchAsync(*req).ok());
}

}  // namespace
}  // namespace forklift
