// E5 — fork servers and worker pools (§6): what the ecosystem's workaround
// actually buys.
//
// Four ways to get 'a process ran a task' semantics, measured as sustained
// requests/second over a fixed batch:
//
//   direct fork+exec      : pay full creation per task, from THIS (large) process
//   direct posix_spawn    : pay cheap creation per task
//   fork server (zygote)  : creation happens in a small helper process
//   warm worker pool      : no creation at all after startup
//
// To make the zygote's advantage visible the client process carries dirty
// ballast (the Android/AFL scenario: the app is big, the zygote is small).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/benchlib/memtouch.h"
#include "src/benchlib/table.h"
#include "src/common/clock.h"
#include "src/common/string_util.h"
#include "src/forkserver/client.h"
#include "src/forkserver/pool.h"
#include "src/forkserver/server.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

constexpr int kTasks = 60;

double DirectRate(SpawnBackendKind kind) {
  Stopwatch sw;
  for (int i = 0; i < kTasks; ++i) {
    auto child = Spawner("/bin/true").SetBackend(kind).Spawn();
    if (!child.ok() || !child->Wait().ok()) {
      return -1;
    }
  }
  return kTasks / sw.ElapsedSeconds();
}

// One zygote task: /bin/true launched on `channel`, then waited on that
// same channel (the server, not us, is the child's parent).
bool ZygoteTask(ForkServerClient& channel) {
  auto req = Spawner("/bin/true").BuildRequest();
  if (!req.ok()) {
    return false;
  }
  auto launched = channel.LaunchAsync(*req);
  if (!launched.ok()) {
    return false;
  }
  auto pid = launched->AwaitPid();
  if (!pid.ok()) {
    return false;
  }
  auto wait = channel.WaitAsync(*pid);
  return wait.ok() && wait->AwaitExit().ok();
}

double ForkServerRate(ForkServerClient& client) {
  Stopwatch sw;
  for (int i = 0; i < kTasks; ++i) {
    if (!ZygoteTask(client)) {
      return -1;
    }
  }
  return kTasks / sw.ElapsedSeconds();
}

double PoolRate(ShellWorkerPool& pool) {
  Stopwatch sw;
  for (int i = 0; i < kTasks; ++i) {
    auto r = pool.Execute("true");
    if (!r.ok() || r->exit_code != 0) {
      return -1;
    }
  }
  return kTasks / sw.ElapsedSeconds();
}

// N threads issuing spawn+wait, either all multiplexed over one shared
// channel (its internal mutex serializes them) or each on a private channel.
double ThreadedRate(std::vector<ForkServerClient*>& clients, int threads) {
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> workers;
  Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    ForkServerClient* client = clients[static_cast<size_t>(t) % clients.size()];
    workers.emplace_back([client, &completed] {
      for (int i = 0; i < kTasks / 3; ++i) {
        if (ZygoteTask(*client)) {
          ++completed;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  return static_cast<double>(completed.load()) / sw.ElapsedSeconds();
}

void ChannelContentionSection(ForkServerClient& primary) {
  PrintBanner("E5b: shared channel vs private channels (3 client threads)");
  auto c1 = primary.NewChannel();
  auto c2 = primary.NewChannel();
  auto c3 = primary.NewChannel();
  if (!c1.ok() || !c2.ok() || !c3.ok()) {
    std::fprintf(stderr, "channel setup failed\n");
    return;
  }
  std::vector<ForkServerClient*> shared = {c1->get()};
  std::vector<ForkServerClient*> priv = {c1->get(), c2->get(), c3->get()};
  TablePrinter table({"layout", "spawns/s"});
  table.AddRow({"1 shared channel", TablePrinter::Cell(ThreadedRate(shared, 3), 0)});
  table.AddRow({"3 private channels", TablePrinter::Cell(ThreadedRate(priv, 3), 0)});
  table.Print();
  std::printf("(the zygote itself is single-threaded; private channels remove only the\n"
              " client-side lock — the residual gap is the server's serialization)\n");
}

}  // namespace
}  // namespace forklift

int main() {
  using namespace forklift;

  PrintBanner("E5: zygote & pool amortization — /bin/true tasks per second");
  std::printf("client ballast varies; the fork server was started while small\n\n");

  // Start the zygote FIRST, before the ballast exists — that is the entire
  // trick: its forks stay cheap no matter how big we get.
  auto handle = StartForkServerProcess();
  if (!handle.ok()) {
    std::fprintf(stderr, "fork server start failed\n");
    return 1;
  }
  ForkServerClient client(std::move(handle->client_sock));

  ShellWorkerPool pool;
  if (!pool.Start({.workers = 2}).ok()) {
    std::fprintf(stderr, "pool start failed\n");
    return 1;
  }

  TablePrinter table({"client_ballast", "fork+exec/s", "posix_spawn/s", "forkserver/s",
                      "warm_pool/s", "zygote_vs_fork"});

  HeapBallast ballast;
  for (size_t mib : {0, 128, 512}) {
    if (!ballast.Resize(mib << 20).ok()) {
      std::fprintf(stderr, "ballast failed\n");
      return 1;
    }
    double fork_rate = DirectRate(SpawnBackendKind::kForkExec);
    ballast.TouchAll();
    double spawn_rate = DirectRate(SpawnBackendKind::kPosixSpawn);
    ballast.TouchAll();
    double server_rate = ForkServerRate(client);
    double pool_rate = PoolRate(pool);
    table.AddRow({HumanBytes(mib << 20), TablePrinter::Cell(fork_rate, 0),
                  TablePrinter::Cell(spawn_rate, 0), TablePrinter::Cell(server_rate, 0),
                  TablePrinter::Cell(pool_rate, 0),
                  TablePrinter::Cell(server_rate / fork_rate, 1)});
    std::fprintf(stderr, "  [%s done]\n", HumanBytes(mib << 20).c_str());
  }

  (void)pool.Stop();
  table.Print();
  ChannelContentionSection(client);
  (void)client.Shutdown();
  (void)WaitForExit(handle->server_pid);
  std::printf("\nShape check: fork+exec/s degrades as the client grows; forkserver/s and\n"
              "warm_pool/s hold steady (zygote_vs_fork ratio grows with ballast).\n"
              "CSV follows.\n\n%s",
              table.ToCsv().c_str());
  return 0;
}
