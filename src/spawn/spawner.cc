#include "src/spawn/spawner.h"

#include <fcntl.h>
#include <unistd.h>

#include <utility>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/spawn/metrics.h"

namespace forklift {

Spawner::Spawner(std::string program) : program_(std::move(program)) {}

Spawner& Spawner::Arg(std::string arg) {
  args_.push_back(std::move(arg));
  return *this;
}

Spawner& Spawner::Args(const std::vector<std::string>& args) {
  for (const auto& a : args) {
    args_.push_back(a);
  }
  return *this;
}

Spawner& Spawner::Argv0(std::string argv0) {
  argv0_ = std::move(argv0);
  return *this;
}

Spawner& Spawner::ClearEnv() {
  inherit_env_ = false;
  explicit_env_.reset();
  return *this;
}

Spawner& Spawner::SetEnv(std::string_view key, std::string_view value) {
  env_overrides_.Set(key, value);
  return *this;
}

Spawner& Spawner::UnsetEnv(std::string_view key) {
  env_unsets_.emplace_back(key);
  return *this;
}

Spawner& Spawner::SetEnvMap(EnvMap env) {
  explicit_env_ = std::move(env);
  inherit_env_ = false;
  return *this;
}

Spawner& Spawner::SetStdin(Stdio spec) {
  stdin_spec_ = spec;
  return *this;
}

Spawner& Spawner::SetStdout(Stdio spec) {
  stdout_spec_ = spec;
  return *this;
}

Spawner& Spawner::SetStderr(Stdio spec) {
  stderr_spec_ = spec;
  return *this;
}

Spawner& Spawner::PassFd(int parent_fd, int child_fd) {
  extra_fds_.Dup2(parent_fd, child_fd);
  return *this;
}

Result<UniqueFd> Spawner::PassPipeToChild(int child_fd) {
  FORKLIFT_ASSIGN_OR_RETURN(Pipe p, MakePipe());
  extra_fds_.Dup2(p.read_end.get(), child_fd);
  owned_child_fds_.push_back(std::make_shared<UniqueFd>(std::move(p.read_end)));
  return std::move(p.write_end);
}

Result<UniqueFd> Spawner::PassPipeFromChild(int child_fd) {
  FORKLIFT_ASSIGN_OR_RETURN(Pipe p, MakePipe());
  extra_fds_.Dup2(p.write_end.get(), child_fd);
  owned_child_fds_.push_back(std::make_shared<UniqueFd>(std::move(p.write_end)));
  return std::move(p.read_end);
}

Spawner& Spawner::CloseOtherFds() {
  close_other_fds_ = true;
  return *this;
}

Spawner& Spawner::SetCwd(std::string cwd) {
  cwd_ = std::move(cwd);
  return *this;
}

Spawner& Spawner::SetUmask(mode_t mask) {
  umask_ = mask;
  return *this;
}

Spawner& Spawner::ResetSignals(bool reset) {
  reset_signals_ = reset;
  return *this;
}

Spawner& Spawner::NewSession() {
  new_session_ = true;
  return *this;
}

Spawner& Spawner::SetProcessGroup(pid_t pgid) {
  process_group_ = pgid;
  return *this;
}

Spawner& Spawner::SetNice(int nice_value) {
  nice_value_ = nice_value;
  return *this;
}

Spawner& Spawner::AddRlimit(int resource, rlim_t soft, rlim_t hard) {
  RlimitSpec spec;
  spec.resource = resource;
  spec.limit.rlim_cur = soft;
  spec.limit.rlim_max = hard;
  rlimits_.push_back(spec);
  return *this;
}

Spawner& Spawner::SetBackend(SpawnBackendKind kind) {
  backend_kind_ = kind;
  return *this;
}

namespace {

// Assembles the request fields that do not depend on stdio plumbing.
struct BaseRequest {
  SpawnRequest req;
};

EnvMap ResolveEnv(bool inherit, const std::optional<EnvMap>& explicit_env,
                  const EnvMap& overrides, const std::vector<std::string>& unsets) {
  EnvMap env;
  if (explicit_env.has_value()) {
    env = *explicit_env;
  } else if (inherit) {
    env = EnvMap::FromCurrent();
  }
  for (const auto& [k, v] : overrides.vars()) {
    env.Set(k, v);
  }
  for (const auto& k : unsets) {
    env.Unset(k);
  }
  return env;
}

}  // namespace

Result<SpawnRequest> Spawner::BuildRequest() const {
  auto is_pipe = [](const Stdio& s) { return s.kind() == Stdio::Kind::kPipe; };
  if (is_pipe(stdin_spec_) || is_pipe(stdout_spec_) || is_pipe(stderr_spec_)) {
    return LogicalError("BuildRequest: pipe stdio requires Spawn(), not BuildRequest()");
  }

  SpawnRequest req;
  req.program = program_;
  req.use_path_search = program_.find('/') == std::string::npos;

  std::vector<std::string> argv;
  argv.push_back(argv0_.value_or(program_));
  for (const auto& a : args_) {
    argv.push_back(a);
  }
  req.argv = ArgvBlock(argv);
  req.envp = ResolveEnv(inherit_env_, explicit_env_, env_overrides_, env_unsets_).ToBlock();

  // Non-pipe stdio lowers to plain fd actions (kFd/kPath handled by Spawn();
  // here only Inherit/Null/Fd/MergeStdout are representable without parent
  // state, so Path specs are lowered to child-side opens).
  FdPlan plan;
  auto lower = [&plan](const Stdio& spec, int target, int stdout_src) -> Status {
    switch (spec.kind()) {
      case Stdio::Kind::kInherit:
        return Status::Ok();
      case Stdio::Kind::kNull: {
        int flags = target == 0 ? O_RDONLY : O_WRONLY;
        plan.Open("/dev/null", flags, 0, target);
        return Status::Ok();
      }
      case Stdio::Kind::kFd:
        plan.Dup2(spec.fd(), target);
        return Status::Ok();
      case Stdio::Kind::kPath: {
        int flags = target == 0 ? O_RDONLY : (O_WRONLY | O_CREAT | O_TRUNC);
        plan.Open(spec.path(), flags, 0644, target);
        return Status::Ok();
      }
      case Stdio::Kind::kAppendPath:
        plan.Open(spec.path(), O_WRONLY | O_CREAT | O_APPEND, 0644, target);
        return Status::Ok();
      case Stdio::Kind::kMergeStdout:
        if (target != 2) {
          return LogicalError("MergeStdout is only valid for stderr");
        }
        plan.Dup2(stdout_src, 2);
        return Status::Ok();
      case Stdio::Kind::kPipe:
        return LogicalError("unreachable: pipe checked above");
    }
    return LogicalError("unknown stdio kind");
  };

  int stdout_src = stdout_spec_.kind() == Stdio::Kind::kFd ? stdout_spec_.fd() : 1;
  FORKLIFT_RETURN_IF_ERROR(lower(stdin_spec_, 0, stdout_src));
  FORKLIFT_RETURN_IF_ERROR(lower(stdout_spec_, 1, stdout_src));
  if (stderr_spec_.kind() == Stdio::Kind::kMergeStdout &&
      (stdout_spec_.kind() == Stdio::Kind::kPath ||
       stdout_spec_.kind() == Stdio::Kind::kAppendPath)) {
    // stdout is opened child-side at fd 1; stderr must clone that binding.
    // Parent semantics cannot express "fd 1 after the open", so lower stderr
    // as a second open of the same path in append-compatible mode sharing the
    // offset is NOT possible; reject rather than silently mis-share.
    return LogicalError("BuildRequest: MergeStdout with Path stdout requires Spawn()");
  }
  FORKLIFT_RETURN_IF_ERROR(lower(stderr_spec_, 2, stdout_src));
  for (const auto& a : extra_fds_.actions()) {
    switch (a.kind) {
      case FdAction::Kind::kDup2:
        plan.Dup2(a.src_fd, a.child_fd);
        break;
      case FdAction::Kind::kOpen:
        plan.Open(a.path, a.flags, a.mode, a.child_fd);
        break;
      case FdAction::Kind::kClose:
        plan.Close(a.child_fd);
        break;
      case FdAction::Kind::kInherit:
        plan.Inherit(a.child_fd);
        break;
    }
  }
  FORKLIFT_ASSIGN_OR_RETURN(req.fd_plan, plan.Compile());

  req.cwd = cwd_;
  req.umask_value = umask_;
  req.reset_signal_mask = reset_signals_;
  req.reset_signal_handlers = reset_signals_;
  req.new_session = new_session_;
  req.process_group = process_group_;
  req.nice_value = nice_value_;
  req.rlimits = rlimits_;
  req.close_other_fds = close_other_fds_;
  return req;
}

Result<Child> Spawner::Spawn() {
  SpawnTimeline timeline;
  timeline.submit_ns = MonotonicNanos();

  SpawnRequest req;
  req.program = program_;
  req.use_path_search = program_.find('/') == std::string::npos;

  std::vector<std::string> argv;
  argv.push_back(argv0_.value_or(program_));
  for (const auto& a : args_) {
    argv.push_back(a);
  }
  req.argv = ArgvBlock(argv);
  req.envp = ResolveEnv(inherit_env_, explicit_env_, env_overrides_, env_unsets_).ToBlock();

  // Stdio plumbing. Files are opened in the parent so open failures surface as
  // clean errors before any process exists; pipes keep their parent ends in
  // `child_pipes` until launch succeeds.
  FdPlan plan;
  std::vector<UniqueFd> temps;     // parent-held fds that die after launch
  UniqueFd pipe_in_parent;         // write end of the stdin pipe
  UniqueFd pipe_out_parent;        // read end of the stdout pipe
  UniqueFd pipe_err_parent;        // read end of the stderr pipe

  // Resolved parent-side source fd for each stream (for MergeStdout).
  int stdout_src = -1;

  auto lower = [&](const Stdio& spec, int target) -> Status {
    switch (spec.kind()) {
      case Stdio::Kind::kInherit:
        if (target == 1) {
          stdout_src = 1;
        }
        return Status::Ok();
      case Stdio::Kind::kNull: {
        int flags = (target == 0 ? O_RDONLY : O_WRONLY) | O_CLOEXEC;
        auto fd = OpenFd("/dev/null", flags);
        if (!fd.ok()) {
          return Err(fd.error());
        }
        if (target == 1) {
          stdout_src = fd->get();
        }
        plan.Dup2(fd->get(), target);
        temps.push_back(std::move(fd).value());
        return Status::Ok();
      }
      case Stdio::Kind::kPipe: {
        auto p = MakePipe();
        if (!p.ok()) {
          return Err(p.error());
        }
        if (target == 0) {
          plan.Dup2(p->read_end.get(), 0);
          pipe_in_parent = std::move(p->write_end);
          temps.push_back(std::move(p->read_end));
        } else {
          plan.Dup2(p->write_end.get(), target);
          if (target == 1) {
            stdout_src = p->write_end.get();
            pipe_out_parent = std::move(p->read_end);
          } else {
            pipe_err_parent = std::move(p->read_end);
          }
          temps.push_back(std::move(p->write_end));
        }
        return Status::Ok();
      }
      case Stdio::Kind::kFd:
        if (target == 1) {
          stdout_src = spec.fd();
        }
        plan.Dup2(spec.fd(), target);
        return Status::Ok();
      case Stdio::Kind::kPath:
      case Stdio::Kind::kAppendPath: {
        int flags;
        if (target == 0) {
          flags = O_RDONLY | O_CLOEXEC;
        } else if (spec.kind() == Stdio::Kind::kAppendPath) {
          flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
        } else {
          flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
        }
        auto fd = OpenFd(spec.path(), flags, 0644);
        if (!fd.ok()) {
          return Err(fd.error());
        }
        if (target == 1) {
          stdout_src = fd->get();
        }
        plan.Dup2(fd->get(), target);
        temps.push_back(std::move(fd).value());
        return Status::Ok();
      }
      case Stdio::Kind::kMergeStdout:
        if (target != 2) {
          return LogicalError("MergeStdout is only valid for stderr");
        }
        if (stdout_src < 0) {
          return LogicalError("MergeStdout: stdout has no resolvable source");
        }
        plan.Dup2(stdout_src, 2);
        return Status::Ok();
    }
    return LogicalError("unknown stdio kind");
  };

  FORKLIFT_RETURN_IF_ERROR(lower(stdin_spec_, 0));
  FORKLIFT_RETURN_IF_ERROR(lower(stdout_spec_, 1));
  FORKLIFT_RETURN_IF_ERROR(lower(stderr_spec_, 2));

  for (const auto& a : extra_fds_.actions()) {
    switch (a.kind) {
      case FdAction::Kind::kDup2:
        plan.Dup2(a.src_fd, a.child_fd);
        break;
      case FdAction::Kind::kOpen:
        plan.Open(a.path, a.flags, a.mode, a.child_fd);
        break;
      case FdAction::Kind::kClose:
        plan.Close(a.child_fd);
        break;
      case FdAction::Kind::kInherit:
        plan.Inherit(a.child_fd);
        break;
    }
  }
  FORKLIFT_ASSIGN_OR_RETURN(req.fd_plan, plan.Compile());

  req.cwd = cwd_;
  req.umask_value = umask_;
  req.reset_signal_mask = reset_signals_;
  req.reset_signal_handlers = reset_signals_;
  req.new_session = new_session_;
  req.process_group = process_group_;
  req.nice_value = nice_value_;
  req.rlimits = rlimits_;
  req.close_other_fds = close_other_fds_;

  SpawnBackend* backend = nullptr;
  switch (backend_kind_) {
    case SpawnBackendKind::kForkExec:
      backend = &ForkExecBackend();
      break;
    case SpawnBackendKind::kVfork:
      backend = &VforkBackend();
      break;
    case SpawnBackendKind::kPosixSpawn:
      backend = &PosixSpawnBackend();
      break;
    case SpawnBackendKind::kCloneVm:
      backend = &Clone3Backend();
      break;
  }
  if (backend == nullptr) {
    return LogicalError("Spawn: no backend configured");
  }

  FORKLIFT_ASSIGN_OR_RETURN(pid_t pid, backend->Launch(req));
  timeline.exec_confirmed_ns = MonotonicNanos();
  SpawnMetrics::Global().RecordSpawn(timeline);

  Child child(pid);
  child.timeline_ = timeline;
  child.stdin_fd() = std::move(pipe_in_parent);
  child.stdout_fd() = std::move(pipe_out_parent);
  child.stderr_fd() = std::move(pipe_err_parent);
  return child;
}

}  // namespace forklift
