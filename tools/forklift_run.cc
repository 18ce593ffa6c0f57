// forklift-run — a command-line launcher exposing the Spawner API.
//
// What `env`, `nice`, `nohup`, and shell redirection do with fork+exec
// inheritance tricks, done with explicit spawn attributes instead:
//
//   forklift-run [options] -- program [args...]
//
// Options:
//   --backend NAME               route: auto|forkexec|vfork|posix_spawn|
//                                clone3|forkserver|sharded (default auto;
//                                fork/spawn accepted as aliases for
//                                forkexec/posix_spawn). forkserver and
//                                sharded route through a zygote and fall
//                                back to a local posix_spawn when the
//                                server is unreachable.
//   --socket PATH                fork-server socket for --backend forkserver
//                                (default: fork a private server process)
//   --shards N                   shard count for --backend sharded (0 = one
//                                per online CPU)
//   --env KEY=VALUE              set a variable (repeatable)
//   --unset KEY                  remove a variable (repeatable)
//   --clear-env                  start from an empty environment
//   --strip-secrets              drop credential-shaped variables (audit)
//   --cwd DIR                    child working directory
//   --stdin PATH                 redirect stdin from a file
//   --stdout PATH / --append PATH  redirect stdout (truncate / append)
//   --stderr PATH                redirect stderr to a file
//   --merge-stderr               send stderr wherever stdout goes
//   --null                       stdout and stderr to /dev/null
//   --umask OCTAL                child umask (fork/vfork backends)
//   --rlimit-nofile N            cap open files (fork/vfork backends)
//   --close-other-fds            close every undeclared descriptor
//   --new-session                setsid()
//   --timeout SECONDS            kill the child after a deadline
//   --audit                      print a fork-hazard report before launching
//   --trace-out FILE             write the spawn's span trace (JSON) to FILE
//
// Exit status: the child's (128+signal if signaled), or 125 for launcher
// errors, 127/126 for exec errors — the conventions xargs/timeout use.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/string_util.h"
#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/hazards/env_audit.h"
#include "src/hazards/fork_guard.h"
#include "src/obs/trace.h"
#include "src/spawn/process_handle.h"
#include "src/spawn/service.h"
#include "src/spawn/spawner.h"

using namespace forklift;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] -- program [args...]\n"
               "see the header of tools/forklift_run.cc for the option list\n",
               argv0);
  return 125;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  std::string backend = "auto";
  std::string socket_path;
  size_t shards = 0;
  std::vector<std::pair<std::string, std::string>> env_sets;
  std::vector<std::string> env_unsets;
  bool clear_env = false;
  bool strip_secrets = false;
  bool audit = false;
  bool merge_stderr = false;
  bool to_null = false;
  bool close_other_fds = false;
  bool new_session = false;
  std::string cwd, stdin_path, stdout_path, stderr_path, trace_out;
  bool stdout_append = false;
  std::optional<mode_t> umask_value;
  std::optional<rlim_t> nofile;
  double timeout_seconds = 0;

  size_t i = 0;
  auto need_value = [&](const char* flag) -> Result<std::string> {
    if (i + 1 >= args.size()) {
      return LogicalError(std::string(flag) + " requires a value");
    }
    return args[++i];
  };

  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--") {
      ++i;
      break;
    }
    Result<std::string> v = std::string();
    if (a == "--backend") {
      v = need_value("--backend");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      // Canonical names, plus the historical fork/spawn aliases.
      if (*v == "fork") {
        backend = "forkexec";
      } else if (*v == "spawn") {
        backend = "posix_spawn";
      } else if (*v == "auto" || *v == "forkexec" || *v == "vfork" || *v == "posix_spawn" ||
                 *v == "clone3" || *v == "forkserver" || *v == "sharded") {
        backend = *v;
      } else {
        std::fprintf(stderr, "forklift-run: unknown backend '%s'\n", v->c_str());
        return 125;
      }
    } else if (a == "--socket") {
      v = need_value("--socket");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      socket_path = *v;
    } else if (a == "--shards") {
      v = need_value("--shards");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      auto n = ParseUnsigned(*v);
      if (!n.has_value()) {
        std::fprintf(stderr, "forklift-run: --shards wants a non-negative integer, got '%s'\n",
                     v->c_str());
        return 125;
      }
      shards = static_cast<size_t>(*n);
    } else if (a == "--env") {
      v = need_value("--env");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      size_t eq = v->find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "forklift-run: --env wants KEY=VALUE\n");
        return 125;
      }
      env_sets.emplace_back(v->substr(0, eq), v->substr(eq + 1));
    } else if (a == "--unset") {
      v = need_value("--unset");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      env_unsets.push_back(*v);
    } else if (a == "--clear-env") {
      clear_env = true;
    } else if (a == "--strip-secrets") {
      strip_secrets = true;
    } else if (a == "--audit") {
      audit = true;
    } else if (a == "--cwd") {
      v = need_value("--cwd");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      cwd = *v;
    } else if (a == "--stdin") {
      v = need_value("--stdin");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      stdin_path = *v;
    } else if (a == "--stdout") {
      v = need_value("--stdout");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      stdout_path = *v;
      stdout_append = false;
    } else if (a == "--append") {
      v = need_value("--append");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      stdout_path = *v;
      stdout_append = true;
    } else if (a == "--stderr") {
      v = need_value("--stderr");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      stderr_path = *v;
    } else if (a == "--merge-stderr") {
      merge_stderr = true;
    } else if (a == "--null") {
      to_null = true;
    } else if (a == "--umask") {
      v = need_value("--umask");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      auto mask = ParseUnsigned(*v, 8, 0777);
      if (!mask.has_value()) {
        std::fprintf(stderr, "forklift-run: --umask wants an octal value up to 0777, got '%s'\n",
                     v->c_str());
        return 125;
      }
      umask_value = static_cast<mode_t>(*mask);
    } else if (a == "--rlimit-nofile") {
      v = need_value("--rlimit-nofile");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      auto n = ParseUnsigned(*v);
      if (!n.has_value()) {
        std::fprintf(stderr,
                     "forklift-run: --rlimit-nofile wants a non-negative integer, got '%s'\n",
                     v->c_str());
        return 125;
      }
      nofile = static_cast<rlim_t>(*n);
    } else if (a == "--close-other-fds") {
      close_other_fds = true;
    } else if (a == "--new-session") {
      new_session = true;
    } else if (a == "--trace-out") {
      v = need_value("--trace-out");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      trace_out = *v;
    } else if (a == "--timeout") {
      v = need_value("--timeout");
      if (!v.ok()) {
        std::fprintf(stderr, "forklift-run: %s\n", v.error().ToString().c_str());
        return 125;
      }
      auto seconds = ParseSeconds(*v);
      if (!seconds.has_value()) {
        std::fprintf(stderr, "forklift-run: --timeout wants a non-negative number, got '%s'\n",
                     v->c_str());
        return 125;
      }
      timeout_seconds = *seconds;
    } else {
      std::fprintf(stderr, "forklift-run: unknown option '%s'\n", a.c_str());
      return Usage(argv[0]);
    }
  }
  if (i >= args.size()) {
    return Usage(argv[0]);
  }

  if (audit) {
    auto report = ForkGuard::CheckNow();
    if (report.ok()) {
      std::fprintf(stderr, "--- fork-hazard audit ---\n%s\n", report->ToString().c_str());
    }
    for (const auto& finding : AuditCurrentEnv()) {
      std::fprintf(stderr, "  [env] %s\n", finding.ToString().c_str());
    }
    std::fprintf(stderr, "-------------------------\n");
  }

  Spawner spawner(args[i]);
  for (size_t a = i + 1; a < args.size(); ++a) {
    spawner.Arg(args[a]);
  }

  if (clear_env) {
    spawner.ClearEnv();
  }
  if (strip_secrets) {
    EnvMap env = EnvMap::FromCurrent();
    for (const auto& key : StripFlagged(&env)) {
      spawner.UnsetEnv(key);
    }
  }
  for (const auto& [k, value] : env_sets) {
    spawner.SetEnv(k, value);
  }
  for (const auto& k : env_unsets) {
    spawner.UnsetEnv(k);
  }
  if (!cwd.empty()) {
    spawner.SetCwd(cwd);
  }
  if (!stdin_path.empty()) {
    spawner.SetStdin(Stdio::Path(stdin_path));
  }
  if (to_null) {
    spawner.SetStdout(Stdio::Null()).SetStderr(Stdio::Null());
  }
  if (!stdout_path.empty()) {
    spawner.SetStdout(stdout_append ? Stdio::AppendPath(stdout_path)
                                    : Stdio::Path(stdout_path));
  }
  if (!stderr_path.empty()) {
    spawner.SetStderr(Stdio::Path(stderr_path));
  }
  if (merge_stderr) {
    spawner.SetStderr(Stdio::MergeStdout());
  }
  if (umask_value.has_value()) {
    spawner.SetUmask(*umask_value);
  }
  if (nofile.has_value()) {
    spawner.AddRlimit(RLIMIT_NOFILE, *nofile, *nofile);
  }
  if (close_other_fds) {
    spawner.CloseOtherFds();
  }
  if (new_session) {
    spawner.NewSession();
  }

  // One spawn entry point: every backend name is a route chain on a
  // SpawnService. The zygote-backed chains end in a local posix_spawn route,
  // so an unreachable server degrades to a slower local spawn instead of an
  // error.
  SpawnService service;
  if (backend == "forkexec") {
    service.AddLocalRoute(SpawnBackendKind::kForkExec);
  } else if (backend == "vfork") {
    service.AddLocalRoute(SpawnBackendKind::kVfork);
  } else if (backend == "posix_spawn") {
    service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);
  } else if (backend == "clone3") {
    service.AddLocalRoute(SpawnBackendKind::kCloneVm);
  } else if (backend == "forkserver") {
    service.AddRoute(socket_path.empty() ? ForkServerTransport::StartInProcess()
                                         : ForkServerTransport::ConnectLazy(socket_path));
    service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);
  } else if (backend == "sharded") {
    service.AddRoute(ShardedTransport::StartLazy(ShardedForkServer::Options{shards, true}));
    service.AddRoute(ForkServerTransport::StartInProcess());
    service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);
  } else {  // auto: a given --socket is the preferred route, local otherwise
    if (!socket_path.empty()) {
      service.AddRoute(ForkServerTransport::ConnectLazy(socket_path));
    }
    service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);
  }

  // Dumped on every exit path past the spawn — a failed or timed-out launch
  // leaves a partial trace that is exactly what you want to look at.
  auto dump_trace = [&] {
    if (trace_out.empty()) {
      return;
    }
    Status st = obs::Tracer::Global().WriteJsonFile(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "forklift-run: --trace-out: %s\n", st.error().ToString().c_str());
    }
  };

  auto child = service.Spawn(spawner);
  if (!child.ok()) {
    std::fprintf(stderr, "forklift-run: %s\n", child.error().ToString().c_str());
    dump_trace();
    return child.error().IsErrno(ENOENT) ? 127 : 126;
  }

  Result<ExitStatus> status = LogicalError("unset");
  if (timeout_seconds > 0) {
    auto maybe = child->WaitDeadline(timeout_seconds);
    if (!maybe.ok()) {
      std::fprintf(stderr, "forklift-run: %s\n", maybe.error().ToString().c_str());
      dump_trace();
      return 125;
    }
    if (!maybe->has_value()) {
      std::fprintf(stderr, "forklift-run: timeout, killing pid %d\n",
                   static_cast<int>(child->pid()));
      (void)child->KillAndWait();
      dump_trace();
      return 124;  // timeout(1)'s convention
    }
    status = **maybe;
  } else {
    status = child->Wait();
  }
  dump_trace();
  if (!status.ok()) {
    std::fprintf(stderr, "forklift-run: %s\n", status.error().ToString().c_str());
    return 125;
  }
  if (status->signaled) {
    return 128 + status->term_signal;
  }
  return status->exit_code;
}
