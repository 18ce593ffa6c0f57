#include "src/spawn/backend_common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/common/string_util.h"
#include "src/common/syscall.h"

#ifdef __linux__
#include <linux/close_range.h>
#include <sys/syscall.h>
#endif

namespace forklift {
namespace internal {

Result<std::vector<std::string>> ResolveExecTargets(const SpawnRequest& req) {
  std::vector<std::string> out;
  if (!req.use_path_search || req.program.find('/') != std::string::npos) {
    out.push_back(req.program);
    return out;
  }
  const char* path = std::getenv("PATH");
  std::string search = path != nullptr ? path : "/bin:/usr/bin";
  for (const auto& dir : Split(search, ':')) {
    std::string full = dir.empty() ? "./" + req.program : dir + "/" + req.program;
    out.push_back(std::move(full));
  }
  if (out.empty()) {
    return LogicalError("ResolveExecTargets: empty PATH");
  }
  return out;
}

namespace {

// Relocation target for the exec pipe: above the scratch range so fd-plan ops
// can never collide with it.
constexpr int kErrFdFloor = 1000;

// Writes the failure record and dies. Async-signal-safe.
[[noreturn]] void Fail(int err_fd, int err, const char* stage) {
  ExecFailure f;
  f.err = err;
  size_t i = 0;
  for (; stage[i] != '\0' && i < sizeof(f.stage) - 1; ++i) {
    f.stage[i] = stage[i];
  }
  for (; i < sizeof(f.stage); ++i) {
    f.stage[i] = '\0';
  }
  const char* p = reinterpret_cast<const char*>(&f);
  size_t left = sizeof(f);
  while (left > 0) {
    ssize_t n = ::write(err_fd, p, left);
    if (n <= 0) {
      break;  // nothing more we can do
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  _exit(127);
}

}  // namespace

void ChildExec(const SpawnRequest& req, const char* const* exec_paths, int err_fd,
               const sigset_t* caller_mask) {
  // Move the error pipe out of the way of the fd plan and make sure it
  // disappears on exec.
  int high = ::fcntl(err_fd, F_DUPFD_CLOEXEC, kErrFdFloor);
  if (high >= 0) {
    ::close(err_fd);
    err_fd = high;
  }

  if (req.reset_signal_handlers || caller_mask != nullptr) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_DFL;
    for (int sig = 1; sig < NSIG; ++sig) {
      if (!req.reset_signal_handlers) {
        // Shared memory: only caught signals must go (SIG_IGN survives exec).
        struct sigaction old;
        if (::sigaction(sig, nullptr, &old) < 0 || old.sa_handler == SIG_IGN ||
            old.sa_handler == SIG_DFL) {
          continue;
        }
      }
      // SIGKILL/SIGSTOP fail with EINVAL; that is fine.
      ::sigaction(sig, &sa, nullptr);
    }
  }
  if (req.reset_signal_mask || caller_mask != nullptr) {
    sigset_t empty;
    sigemptyset(&empty);
    if (::sigprocmask(SIG_SETMASK, req.reset_signal_mask ? &empty : caller_mask, nullptr) < 0) {
      Fail(err_fd, errno, "sigprocmask");
    }
  }

  if (req.new_session) {
    if (::setsid() < 0) {
      Fail(err_fd, errno, "setsid");
    }
  }
  if (req.process_group.has_value()) {
    if (::setpgid(0, *req.process_group) < 0) {
      Fail(err_fd, errno, "setpgid");
    }
  }
  if (req.umask_value.has_value()) {
    ::umask(*req.umask_value);
  }
  if (req.nice_value.has_value()) {
    if (::setpriority(PRIO_PROCESS, 0, *req.nice_value) < 0) {
      Fail(err_fd, errno, "setpriority");
    }
  }
  for (const auto& rl : req.rlimits) {
    if (::setrlimit(rl.resource, &rl.limit) < 0) {
      Fail(err_fd, errno, "setrlimit");
    }
  }
  if (req.cwd.has_value()) {
    if (::chdir(req.cwd->c_str()) < 0) {
      Fail(err_fd, errno, "chdir");
    }
  }

  int max_target = 2;
  for (const auto& op : req.fd_plan.ops) {
    switch (op.kind) {
      case CompiledFdOp::Kind::kDupToScratch: {
        if (::dup2(op.src_fd, op.scratch_fd) < 0) {
          Fail(err_fd, errno, "dup2(scratch)");
        }
        break;
      }
      case CompiledFdOp::Kind::kDup2: {
        if (op.src_fd == op.dst_fd) {
          int flags = ::fcntl(op.dst_fd, F_GETFD);
          if (flags < 0 || ::fcntl(op.dst_fd, F_SETFD, flags & ~FD_CLOEXEC) < 0) {
            Fail(err_fd, errno, "fcntl(inherit)");
          }
        } else if (::dup2(op.src_fd, op.dst_fd) < 0) {
          Fail(err_fd, errno, "dup2");
        }
        if (op.dst_fd > max_target) {
          max_target = op.dst_fd;
        }
        break;
      }
      case CompiledFdOp::Kind::kOpen: {
        int fd = ::open(op.path.c_str(), op.flags, op.mode);
        if (fd < 0) {
          Fail(err_fd, errno, "open");
        }
        if (fd != op.dst_fd) {
          if (::dup2(fd, op.dst_fd) < 0) {
            Fail(err_fd, errno, "dup2(open)");
          }
          ::close(fd);
        }
        if (op.dst_fd > max_target) {
          max_target = op.dst_fd;
        }
        break;
      }
      case CompiledFdOp::Kind::kClose: {
        if (::close(op.dst_fd) < 0 && errno != EBADF) {
          Fail(err_fd, errno, "close");
        }
        break;
      }
      case CompiledFdOp::Kind::kCloseScratch: {
        ::close(op.scratch_fd);
        break;
      }
    }
  }

#ifdef __linux__
  if (req.close_other_fds) {
    // Everything above the plan's highest target is forfeit, except the error
    // pipe (which is CLOEXEC and must survive until exec).
    unsigned int from = static_cast<unsigned int>(max_target) + 1;
    if (static_cast<int>(from) < err_fd) {
      ::syscall(SYS_close_range, from, static_cast<unsigned int>(err_fd - 1), 0u);
    }
    ::syscall(SYS_close_range, static_cast<unsigned int>(err_fd + 1), ~0u, 0u);
  }
#endif

  int last_err = ENOENT;
  for (const char* const* p = exec_paths; *p != nullptr; ++p) {
    ::execve(*p, req.argv.data(), req.envp.data());
    // Keep searching on "not here" errors; report anything else immediately.
    if (errno != ENOENT && errno != ENOTDIR && errno != EACCES) {
      Fail(err_fd, errno, "execve");
    }
    last_err = errno;
  }
  Fail(err_fd, last_err, "execve");
}

Status AwaitExec(int read_fd, pid_t pid) {
  ExecFailure f;
  auto n = ReadFull(read_fd, &f, sizeof(f));
  if (!n.ok()) {
    // The read failed but the child may be alive (possibly already exec'd).
    // Returning without reclaiming it would leak a running process AND a
    // zombie entry — the caller has no pid to clean up with. Kill and reap
    // before surfacing the error.
    (void)::kill(pid, SIGKILL);
    (void)WaitPid(pid);
    return Err(n.error());
  }
  if (*n == 0) {
    return Status::Ok();  // pipe closed by exec: success
  }
  // The child failed before exec; reap it so no zombie leaks, then report.
  (void)WaitPid(pid);
  if (*n != sizeof(f)) {
    return LogicalError("exec pipe: short failure record");
  }
  f.stage[sizeof(f.stage) - 1] = '\0';
  errno = f.err;
  return ErrnoError(std::string("child ") + f.stage);
}

}  // namespace internal
}  // namespace forklift
