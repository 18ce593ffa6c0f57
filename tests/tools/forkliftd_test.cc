// End-to-end tests of the forkliftd daemon binary: real process, real AF_UNIX
// socket, multiple concurrent clients.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "src/common/clock.h"
#include "src/forkserver/client.h"
#include "src/obs/export.h"
#include "src/spawn/spawner.h"
#include "tests/forkserver/launch_on.h"

namespace forklift {
namespace {

#ifndef FORKLIFTD_BIN
#error "FORKLIFTD_BIN must be defined by the build"
#endif

// A daemon channel as a shared_ptr: the handles LaunchOn returns hold the
// channel their waits ride on. Null (with a test failure) if the connect fails.
std::shared_ptr<ForkServerClient> Connect(const std::string& path) {
  auto client = ForkServerClient::ConnectPath(path);
  EXPECT_TRUE(client.ok()) << client.error().ToString();
  if (!client.ok()) {
    return nullptr;
  }
  return std::move(*client);
}

class ForkliftdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = ::testing::TempDir() + "forkliftd_test_" + std::to_string(::getpid()) +
                   "_" + std::to_string(counter_++) + ".sock";
    auto daemon = Spawner(FORKLIFTD_BIN)
                      .Args({"--socket", socket_path_})
                      .SetStderr(Stdio::Null())
                      .Spawn();
    ASSERT_TRUE(daemon.ok()) << daemon.error().ToString();
    daemon_ = std::move(daemon).value();
    // Wait until the daemon actually accepts connections. The socket file
    // appears at bind(2), before listen(2) — on a loaded machine (sanitizer
    // CI) a stat-based wait can race ahead and see ECONNREFUSED, so probe
    // with a real connect. Dropping the probe connection is harmless (see
    // DisconnectDoesNotKillDaemon).
    Stopwatch sw;
    for (;;) {
      auto probe = ForkServerClient::ConnectPath(socket_path_);
      if (probe.ok()) {
        break;
      }
      ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "daemon never started listening";
      ::usleep(2000);
    }
  }

  void TearDown() override {
    if (daemon_.valid()) {
      auto client = ForkServerClient::ConnectPath(socket_path_);
      if (client.ok()) {
        (void)(*client)->Shutdown();
      }
      auto st = daemon_.WaitDeadline(5.0);
      if (!st.ok() || !st->has_value()) {
        (void)daemon_.KillAndWait();
      }
    }
  }

  static int counter_;
  std::string socket_path_;
  Child daemon_;
};

int ForkliftdTest::counter_ = 0;

TEST_F(ForkliftdTest, ConnectAndPing) {
  auto client = ForkServerClient::ConnectPath(socket_path_);
  ASSERT_TRUE(client.ok()) << client.error().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(ForkliftdTest, SpawnThroughDaemon) {
  auto client = Connect(socket_path_);
  ASSERT_NE(client, nullptr);
  Spawner s("/bin/sh");
  s.Args({"-c", "exit 11"});
  auto child = LaunchOn(client, s);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->exit_code, 11);
}

TEST_F(ForkliftdTest, MultipleIndependentConnections) {
  auto a = Connect(socket_path_);
  auto b = Connect(socket_path_);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(a->Ping().ok());
  EXPECT_TRUE(b->Ping().ok());

  Spawner s("/bin/true");
  auto ca = LaunchOn(a, s);
  auto cb = LaunchOn(b, s);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_TRUE(ca->Wait().value().Success());
  EXPECT_TRUE(cb->Wait().value().Success());
}

TEST_F(ForkliftdTest, DisconnectDoesNotKillDaemon) {
  {
    auto transient = ForkServerClient::ConnectPath(socket_path_);
    ASSERT_TRUE(transient.ok());
    ASSERT_TRUE((*transient)->Ping().ok());
    // Connection drops at scope exit.
  }
  auto again = ForkServerClient::ConnectPath(socket_path_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->Ping().ok());
}

TEST_F(ForkliftdTest, ShutdownRemovesSocketAndExits) {
  auto client = ForkServerClient::ConnectPath(socket_path_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Shutdown().ok());
  auto st = daemon_.WaitDeadline(5.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value());
  EXPECT_TRUE((*st)->Success());
  // The socket file is gone: reconnecting fails.
  EXPECT_FALSE(ForkServerClient::ConnectPath(socket_path_).ok());
}

// Bad --shards values exit 2 at argument parsing. The socket path is
// unbindable on purpose: a parser that let a value through fails later with
// exit 1 instead of starting any shard (`-1` used to wrap to ULONG_MAX
// shards, and an empty value to "one per CPU").
TEST(ForkliftdShardsTest, BadShardCountsExitTwo) {
  for (const char* bad : {"-1", "", "abc", "2x", "18446744073709551616"}) {
    auto daemon = Spawner(FORKLIFTD_BIN)
                      .Args({"--socket", "/nonexistent-dir/forkliftd.sock", "--shards", bad})
                      .SetStderr(Stdio::Null())
                      .Spawn();
    ASSERT_TRUE(daemon.ok()) << daemon.error().ToString();
    auto st = daemon->WaitDeadline(10.0);
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    if (!st->has_value()) {
      (void)daemon->KillAndWait();
      FAIL() << "forkliftd --shards '" << bad << "' did not exit";
    }
    EXPECT_EQ((*st)->exit_code, 2) << "--shards '" << bad << "'";
  }
}

TEST(ForkliftdShardsTest, ShardedDaemonServesAndShutsDown) {
  std::string socket_path =
      ::testing::TempDir() + "forkliftd_shards_" + std::to_string(::getpid()) + ".sock";
  auto daemon = Spawner(FORKLIFTD_BIN)
                    .Args({"--socket", socket_path, "--shards", "2"})
                    .SetStderr(Stdio::Null())
                    .Spawn();
  ASSERT_TRUE(daemon.ok()) << daemon.error().ToString();
  Stopwatch sw;
  for (;;) {
    auto probe = ForkServerClient::ConnectPath(socket_path);
    if (probe.ok()) {
      break;
    }
    ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "sharded daemon never started listening";
    ::usleep(2000);
  }

  // Concurrent clients land on (potentially) different shard zygotes; each
  // connection must spawn and wait normally.
  auto a = Connect(socket_path);
  auto b = Connect(socket_path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Spawner s("/bin/sh");
  s.Args({"-c", "exit 7"});
  auto child_a = LaunchOn(a, s);
  auto child_b = LaunchOn(b, s);
  ASSERT_TRUE(child_a.ok()) << child_a.error().ToString();
  ASSERT_TRUE(child_b.ok()) << child_b.error().ToString();
  EXPECT_EQ(child_a->Wait().value().exit_code, 7);
  EXPECT_EQ(child_b->Wait().value().exit_code, 7);

  // Shutting down one shard winds down the whole supervisor, which removes
  // the socket file on its way out.
  ASSERT_TRUE(a->Shutdown().ok());
  auto st = daemon->WaitDeadline(10.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value()) << "supervisor did not exit after shutdown";
  EXPECT_TRUE((*st)->Success());
  EXPECT_FALSE(ForkServerClient::ConnectPath(socket_path).ok());
}

TEST(ForkliftdShardsTest, SigtermWindsDownSupervisorAndShards) {
  std::string socket_path =
      ::testing::TempDir() + "forkliftd_sigterm_" + std::to_string(::getpid()) + ".sock";
  auto daemon = Spawner(FORKLIFTD_BIN)
                    .Args({"--socket", socket_path, "--shards", "2"})
                    .SetStderr(Stdio::Null())
                    .Spawn();
  ASSERT_TRUE(daemon.ok()) << daemon.error().ToString();
  Stopwatch sw;
  for (;;) {
    auto probe = ForkServerClient::ConnectPath(socket_path);
    if (probe.ok()) {
      break;
    }
    ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "sharded daemon never started listening";
    ::usleep(2000);
  }

  // A plain kill of the supervisor — not a client Shutdown — must forward to
  // the shards (which must NOT have inherited the supervisor's flag-setting
  // handler), reap them, and still remove the socket file on the way out.
  ASSERT_TRUE(daemon->Kill(SIGTERM).ok());
  auto st = daemon->WaitDeadline(10.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value()) << "supervisor did not exit after SIGTERM";
  EXPECT_FALSE(ForkServerClient::ConnectPath(socket_path).ok());
  struct stat sb;
  EXPECT_EQ(::stat(socket_path.c_str(), &sb), -1) << "socket file left behind";
}

TEST(ForkliftdMetricsTest, MetricsSocketServesBothFormatsAndCountsSpawns) {
  std::string socket_path =
      ::testing::TempDir() + "forkliftd_metrics_" + std::to_string(::getpid()) + ".sock";
  std::string metrics_path =
      ::testing::TempDir() + "forkliftd_metrics_" + std::to_string(::getpid()) + ".stats.sock";
  auto daemon = Spawner(FORKLIFTD_BIN)
                    .Args({"--socket", socket_path, "--metrics-socket=" + metrics_path,
                           "--shards", "2"})
                    .SetStderr(Stdio::Null())
                    .Spawn();
  ASSERT_TRUE(daemon.ok()) << daemon.error().ToString();
  Stopwatch sw;
  for (;;) {
    auto probe = ForkServerClient::ConnectPath(socket_path);
    if (probe.ok()) {
      break;
    }
    ASSERT_LT(sw.ElapsedSeconds(), 5.0) << "daemon never started listening";
    ::usleep(2000);
  }

  // A burst of spawns over two connections, so both shards can see traffic —
  // the shared metrics arena must still produce one coherent total.
  constexpr int kSpawns = 6;
  auto a = Connect(socket_path);
  auto b = Connect(socket_path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Spawner s("/bin/true");
  for (int i = 0; i < kSpawns; ++i) {
    auto child = LaunchOn(i % 2 == 0 ? a : b, s);
    ASSERT_TRUE(child.ok()) << child.error().ToString();
    EXPECT_TRUE(child->Wait().value().Success());
  }

  // Scrape over the dedicated metrics socket, both formats.
  auto scraper = ForkServerClient::ConnectPath(metrics_path);
  ASSERT_TRUE(scraper.ok()) << scraper.error().ToString();
  auto prom = (*scraper)->Stats(obs::StatsFormat::kPrometheus);
  ASSERT_TRUE(prom.ok()) << prom.error().ToString();
  auto json = (*scraper)->Stats(obs::StatsFormat::kJson);
  ASSERT_TRUE(json.ok()) << json.error().ToString();

  // Prometheus: "forklift_forkserver_spawns_total <N>" with N == the burst.
  // Anchor to the start of a line — the bare needle also matches the metric's
  // "# TYPE" comment.
  const std::string prom_needle = "\nforklift_forkserver_spawns_total ";
  size_t pos = prom->find(prom_needle);
  ASSERT_NE(pos, std::string::npos) << *prom;
  long prom_total = std::strtol(prom->c_str() + pos + prom_needle.size(), nullptr, 10);
  EXPECT_EQ(prom_total, kSpawns);

  // JSON agrees with the text exposition about the same counter.
  const std::string json_needle =
      "{\"name\":\"forklift_forkserver_spawns_total\",\"type\":\"counter\",\"value\":";
  pos = json->find(json_needle);
  ASSERT_NE(pos, std::string::npos) << *json;
  long json_total = std::strtol(json->c_str() + pos + json_needle.size(), nullptr, 10);
  EXPECT_EQ(json_total, prom_total);

  // An out-of-range format byte comes back as a clean error, not a hang.
  auto bogus = (*scraper)->Stats(static_cast<obs::StatsFormat>(7));
  EXPECT_FALSE(bogus.ok());

  ASSERT_TRUE(a->Shutdown().ok());
  auto st = daemon->WaitDeadline(10.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value()) << "supervisor did not exit after shutdown";
  struct stat sb;
  EXPECT_EQ(::stat(metrics_path.c_str(), &sb), -1) << "metrics socket file left behind";
}

TEST(ForkliftdDaemonTest, DaemonModeDetachesAndServes) {
  std::string socket_path =
      ::testing::TempDir() + "forkliftd_daemon_" + std::to_string(::getpid()) + ".sock";
  // The launcher must exit 0 only once the socket is live — no polling needed.
  auto launcher = Spawner(FORKLIFTD_BIN)
                      .Args({"--socket", socket_path, "--daemon"})
                      .Spawn();
  ASSERT_TRUE(launcher.ok());
  auto st = launcher->WaitDeadline(10.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value()) << "launcher did not return";
  ASSERT_TRUE((*st)->Success());

  // The daemon (NOT our child) is serving immediately.
  auto client = Connect(socket_path);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());
  Spawner s("/bin/true");
  auto child = LaunchOn(client, s);
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(child->Wait().value().Success());
  ASSERT_TRUE(client->Shutdown().ok());
}

}  // namespace
}  // namespace forklift
