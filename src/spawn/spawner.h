// forklift/spawn: Spawner — the public process-creation API.
//
// This is the library's answer to the HotOS'19 paper's challenge (§6): a
// spawn-style API can be as convenient as fork+exec without inheriting fork's
// hazards. A Spawner is a declarative description of the child — program,
// arguments, environment, stdio, extra descriptors, credentials-adjacent
// attributes — that is launched atomically by a pluggable backend. Properties
// fork cannot give you, guaranteed by construction:
//
//   * thread-safe: no point where a half-copied address space runs user code;
//   * secure by default: the child sees stdin/stdout/stderr plus exactly the
//     descriptors the plan grants (CloseOtherFds() makes even legacy
//     non-CLOEXEC descriptors unreachable);
//   * composable: no ambient snapshot of locks, buffers, or library state.
//
// Usage:
//   auto child = Spawner("sort")
//                    .Args({"-r"})
//                    .SetStdin(Stdio::Pipe())
//                    .SetStdout(Stdio::Pipe())
//                    .Spawn();
//   auto outcome = child->Communicate("b\na\nc\n");
#ifndef SRC_SPAWN_SPAWNER_H_
#define SRC_SPAWN_SPAWNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/result.h"
#include "src/spawn/backend.h"
#include "src/spawn/child.h"
#include "src/spawn/fd_actions.h"

namespace forklift {

// Where a child standard stream comes from / goes to.
class Stdio {
 public:
  enum class Kind {
    kInherit,      // share the parent's descriptor (the default)
    kNull,         // /dev/null
    kPipe,         // a pipe whose parent end lands on the Child handle
    kFd,           // a caller-supplied parent descriptor
    kPath,         // a file opened by the parent (write: create/truncate)
    kAppendPath,   // as kPath but O_APPEND
    kMergeStdout,  // stderr only: same destination as stdout
  };

  static Stdio Inherit() { return Stdio(Kind::kInherit); }
  static Stdio Null() { return Stdio(Kind::kNull); }
  static Stdio Pipe() { return Stdio(Kind::kPipe); }
  static Stdio Fd(int fd) {
    Stdio s(Kind::kFd);
    s.fd_ = fd;
    return s;
  }
  static Stdio Path(std::string path) {
    Stdio s(Kind::kPath);
    s.path_ = std::move(path);
    return s;
  }
  static Stdio AppendPath(std::string path) {
    Stdio s(Kind::kAppendPath);
    s.path_ = std::move(path);
    return s;
  }
  static Stdio MergeStdout() { return Stdio(Kind::kMergeStdout); }

  Kind kind() const { return kind_; }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

 private:
  explicit Stdio(Kind kind) : kind_(kind) {}

  Kind kind_;
  int fd_ = -1;
  std::string path_;
};

class Spawner {
 public:
  // `program`: a path (contains '/') or a bare name resolved against $PATH.
  explicit Spawner(std::string program);

  // --- argv ---
  Spawner& Arg(std::string arg);
  Spawner& Args(const std::vector<std::string>& args);
  // Overrides argv[0] (defaults to `program`).
  Spawner& Argv0(std::string argv0);

  // --- environment (defaults to inheriting the parent's) ---
  Spawner& ClearEnv();
  Spawner& SetEnv(std::string_view key, std::string_view value);
  Spawner& UnsetEnv(std::string_view key);
  Spawner& SetEnvMap(EnvMap env);

  // --- stdio ---
  Spawner& SetStdin(Stdio spec);
  Spawner& SetStdout(Stdio spec);
  Spawner& SetStderr(Stdio spec);

  // --- extra descriptors ---
  // Grants the parent's `parent_fd` to the child as `child_fd`.
  Spawner& PassFd(int parent_fd, int child_fd);
  // Creates a pipe whose read end appears in the child at `child_fd`;
  // returns the parent-held write end. (A control channel INTO the child.)
  Result<UniqueFd> PassPipeToChild(int child_fd);
  // Creates a pipe whose write end appears in the child at `child_fd`;
  // returns the parent-held read end. (A report channel OUT of the child.)
  Result<UniqueFd> PassPipeFromChild(int child_fd);
  // Direct access for advanced plans (applied after stdio actions).
  FdPlan& fd_plan() { return extra_fds_; }
  // Close every descriptor the plan does not explicitly grant (close_range(2)
  // in the child). Defense against legacy non-CLOEXEC fds.
  Spawner& CloseOtherFds();

  // --- attributes ---
  Spawner& SetCwd(std::string cwd);
  Spawner& SetUmask(mode_t mask);
  // Default true: child starts with an empty signal mask and SIG_DFL handlers.
  Spawner& ResetSignals(bool reset);
  Spawner& NewSession();                 // setsid()
  Spawner& SetProcessGroup(pid_t pgid);  // setpgid(0, pgid); 0 = new group
  // setpriority(2) niceness for the child (raising niceness never needs
  // privilege). Fork-family backends only; posix_spawn cannot express it.
  Spawner& SetNice(int nice_value);
  Spawner& AddRlimit(int resource, rlim_t soft, rlim_t hard);

  // --- engine selection ---
  Spawner& SetBackend(SpawnBackendKind kind);

  // Resolves the builder into a SpawnRequest without launching (used by the
  // fork server's client to ship the request over the wire). Pipe stdio specs
  // are not resolvable here and produce an error.
  Result<SpawnRequest> BuildRequest() const;

  // Whether any stream is configured as Stdio::Pipe or any PassPipe* channel
  // exists (such spawners cannot be restarted by a Supervisor — a respawn
  // would have nowhere to deliver the new pipe ends).
  bool UsesPipeStdio() const {
    auto is_pipe = [](const Stdio& s) { return s.kind() == Stdio::Kind::kPipe; };
    return is_pipe(stdin_spec_) || is_pipe(stdout_spec_) || is_pipe(stderr_spec_) ||
           !owned_child_fds_.empty();
  }

  // Launches the child.
  Result<Child> Spawn();

 private:
  std::string program_;
  std::optional<std::string> argv0_;
  std::vector<std::string> args_;

  bool inherit_env_ = true;
  EnvMap env_overrides_;           // applied on top of inherited env
  std::vector<std::string> env_unsets_;
  std::optional<EnvMap> explicit_env_;

  Stdio stdin_spec_ = Stdio::Inherit();
  Stdio stdout_spec_ = Stdio::Inherit();
  Stdio stderr_spec_ = Stdio::Inherit();
  FdPlan extra_fds_;
  // Child-side ends of PassPipe* channels, kept alive until Spawn (shared so
  // the Spawner stays copyable; copies reference the same pipe).
  std::vector<std::shared_ptr<UniqueFd>> owned_child_fds_;
  bool close_other_fds_ = false;

  std::optional<std::string> cwd_;
  std::optional<mode_t> umask_;
  bool reset_signals_ = true;
  bool new_session_ = false;
  std::optional<pid_t> process_group_;
  std::optional<int> nice_value_;
  std::vector<RlimitSpec> rlimits_;

  SpawnBackendKind backend_kind_ = SpawnBackendKind::kForkExec;
};

}  // namespace forklift

#endif  // SRC_SPAWN_SPAWNER_H_
