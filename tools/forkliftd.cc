// forkliftd — a standalone zygote daemon.
//
// Start it early (while small), point clients at its socket, and every
// process they ask for is forked from THIS tiny process instead of from the
// (potentially huge) clients — §6 of the paper as a service:
//
//   forkliftd --socket /run/forklift.sock [--daemon] [--shards N]
//
// Clients connect with ForkServerClient::ConnectPath(path). The process exits
// when a client sends Shutdown. With --daemon it detaches (double-fork,
// setsid, stdio to /dev/null) and the launching command returns 0 only once
// the socket is actually accepting — ready-means-ready semantics.
//
// With --shards N (N > 1, or 0 for one per online CPU) the daemon becomes a
// prefork supervisor: N shard processes accept(2) on the one listening
// socket, so concurrent clients land on different zygotes and fork in
// parallel. The supervisor owns the socket file and restarts a shard that
// crashes; a client-initiated Shutdown of any shard winds down the rest.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/common/string_util.h"
#include "src/forkserver/server.h"
#include "src/obs/export.h"
#include "src/obs/registry.h"
#include "src/spawn/daemonize.h"

using namespace forklift;

namespace {

// Runs the prefork supervisor: forks `shards` servers over the shared
// listener, restarts crashed ones, and winds the rest down when any shard
// exits cleanly (a client sent Shutdown) or the supervisor itself is told to
// terminate. Returns the process exit code.
//
// Termination and child-exit signals are BLOCKED and collected synchronously
// with sigwait. The older flag-setting handler + blocking waitpid had a lost
// wake-up: a SIGTERM landing between the flag check and the waitpid call only
// set the flag, waitpid then blocked with the signal never forwarded to any
// shard — nothing would ever exit, and the supervisor wedged until killed.
int SuperviseShards(ForkServer& server, const std::string& socket_path,
                    const std::string& metrics_path, size_t shards) {
  sigset_t waitset;
  ::sigemptyset(&waitset);
  ::sigaddset(&waitset, SIGTERM);
  ::sigaddset(&waitset, SIGINT);
  ::sigaddset(&waitset, SIGCHLD);
  ::sigaddset(&waitset, SIGUSR1);
  ::sigprocmask(SIG_BLOCK, &waitset, nullptr);
  std::set<pid_t> shard_pids;
  auto fork_shard = [&]() -> bool {
    auto pid = SpawnShardProcess(server);
    if (!pid.ok()) {
      std::fprintf(stderr, "forkliftd: %s\n", pid.error().ToString().c_str());
      return false;
    }
    shard_pids.insert(*pid);
    return true;
  };

  int exit_code = 0;
  bool shutting_down = false;
  for (size_t i = 0; i < shards; ++i) {
    if (!fork_shard()) {
      exit_code = 1;
      shutting_down = true;
      break;
    }
  }
  if (!shutting_down) {
    FORKLIFT_LOG("forkliftd supervising %zu shards on %s (pid %d)", shards, socket_path.c_str(),
                 static_cast<int>(::getpid()));
  } else {
    for (pid_t p : shard_pids) {
      ::kill(p, SIGTERM);
    }
  }

  while (!shard_pids.empty()) {
    int sig = 0;
    if (::sigwait(&waitset, &sig) != 0) {
      continue;
    }
    if (sig == SIGUSR1) {
      // The shards share the supervisor's metrics arena (mapped before the
      // forks), so the supervisor's own export covers the whole pool.
      (void)obs::WriteExportToFd(STDERR_FILENO, obs::RenderPrometheus());
      continue;
    }
    if (sig == SIGTERM || sig == SIGINT) {
      if (!shutting_down) {
        shutting_down = true;
        for (pid_t p : shard_pids) {
          ::kill(p, SIGTERM);
        }
      }
      continue;
    }
    // SIGCHLD coalesces — one delivery may cover several exits — so drain
    // every reapable child before going back to sleep.
    for (;;) {
      int wstatus = 0;
      pid_t pid = ::waitpid(-1, &wstatus, WNOHANG);
      if (pid <= 0) {
        break;
      }
      if (shard_pids.erase(pid) == 0) {
        continue;  // not a shard of ours
      }
      if (shutting_down) {
        continue;
      }
      if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
        // A client asked that shard to shut down; wind down the siblings too.
        shutting_down = true;
        for (pid_t p : shard_pids) {
          ::kill(p, SIGTERM);
        }
      } else {
        FORKLIFT_LOG("forkliftd: shard %d died (status 0x%x), restarting", static_cast<int>(pid),
                     wstatus);
        if (!fork_shard()) {
          exit_code = 1;
          shutting_down = true;
          for (pid_t p : shard_pids) {
            ::kill(p, SIGTERM);
          }
        }
      }
    }
  }
  // The supervisor — not the shards — owns the socket files.
  ::unlink(socket_path.c_str());
  if (!metrics_path.empty()) {
    ::unlink(metrics_path.c_str());
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/forkliftd.sock";
  std::string metrics_path;
  bool daemonize = false;
  size_t shards = 1;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--socket" && i + 1 < args.size()) {
      socket_path = args[++i];
    } else if (args[i] == "--metrics-socket" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (args[i].rfind("--metrics-socket=", 0) == 0) {
      metrics_path = args[i].substr(std::string("--metrics-socket=").size());
    } else if (args[i] == "--daemon") {
      daemonize = true;
    } else if (args[i] == "--shards" && i + 1 < args.size()) {
      auto n = ParseUnsigned(args[++i]);
      if (!n.has_value()) {
        std::fprintf(stderr, "forkliftd: --shards expects a non-negative integer, got '%s'\n",
                     args[i].c_str());
        return 2;
      }
      shards = *n > 0 ? static_cast<size_t>(*n)
                     : (::sysconf(_SC_NPROCESSORS_ONLN) > 0
                            ? static_cast<size_t>(::sysconf(_SC_NPROCESSORS_ONLN))
                            : 1);
    } else if (args[i] == "--help") {
      std::printf("usage: %s [--socket PATH] [--metrics-socket PATH] [--daemon] [--shards N]\n",
                  argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "forkliftd: unknown option '%s'\n", args[i].c_str());
      return 2;
    }
  }

  // Children that die before being waited on must not accumulate as zombies
  // if a client never asks; but we DO need their statuses for kWait, so no
  // SIG_IGN on SIGCHLD — the server waits explicitly. Ignore SIGPIPE so a
  // vanished client surfaces as EPIPE, not death.
  ::signal(SIGPIPE, SIG_IGN);

  ReadyNotifier ready;
  if (daemonize) {
    auto notifier = Daemonize(DaemonizeOptions{});
    if (!notifier.ok()) {
      std::fprintf(stderr, "forkliftd: %s\n", notifier.error().ToString().c_str());
      return 1;
    }
    ready = std::move(notifier).value();
  }

  // Map the metrics arena before any shard forks so every shard (and its
  // zygote children's counters) lands in the one shared page the supervisor
  // and scrapers read.
  obs::MetricsRegistry::Global();

  auto server = ForkServer::Listen(socket_path);
  if (!server.ok()) {
    std::fprintf(stderr, "forkliftd: %s\n", server.error().ToString().c_str());
    return 1;
  }
  if (!metrics_path.empty()) {
    Status st = server->ListenMetrics(metrics_path);
    if (!st.ok()) {
      std::fprintf(stderr, "forkliftd: %s\n", st.error().ToString().c_str());
      return 1;
    }
  }
  server->EnableSigusr1StatsDump();
  if (ready.armed()) {
    if (!ready.NotifyReady().ok()) {
      return 1;
    }
  }
  if (shards > 1) {
    return SuperviseShards(*server, socket_path, metrics_path, shards);
  }
  FORKLIFT_LOG("forkliftd listening on %s (pid %d)", socket_path.c_str(),
               static_cast<int>(::getpid()));

  auto served = server->Serve();
  if (!served.ok()) {
    std::fprintf(stderr, "forkliftd: %s\n", served.error().ToString().c_str());
    return 1;
  }
  FORKLIFT_LOG("forkliftd exiting after %llu spawns",
               static_cast<unsigned long long>(*served));
  return 0;
}
