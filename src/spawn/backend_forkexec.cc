// The fork(2)+execve(2) backend — the primitive the paper indicts. Kept
// faithful (a full COW address-space clone per spawn) so experiments measure
// the real thing; the only deviation from naive fork+exec is the exec pipe for
// error reporting, which adds two descriptors and no memory work.
#include <unistd.h>

#include <vector>

#include "src/common/pipe.h"
#include "src/spawn/backend.h"
#include "src/spawn/backend_common.h"

namespace forklift {

namespace {

class ForkExecEngine : public SpawnBackend {
 public:
  Result<pid_t> Launch(const SpawnRequest& req) override {
    FORKLIFT_ASSIGN_OR_RETURN(std::vector<std::string> targets,
                              internal::ResolveExecTargets(req));
    std::vector<const char*> target_ptrs;
    target_ptrs.reserve(targets.size() + 1);
    for (const auto& t : targets) {
      target_ptrs.push_back(t.c_str());
    }
    target_ptrs.push_back(nullptr);

    FORKLIFT_ASSIGN_OR_RETURN(Pipe exec_pipe, MakePipe());

    pid_t pid = ::fork();
    if (pid < 0) {
      return ErrnoError("fork");
    }
    if (pid == 0) {
      // Child. Only async-signal-safe work from here to exec.
      internal::ChildExec(req, target_ptrs.data(), exec_pipe.write_end.get());
    }
    exec_pipe.write_end.Reset();
    FORKLIFT_RETURN_IF_ERROR(internal::AwaitExec(exec_pipe.read_end.get(), pid));
    return pid;
  }

  const char* Name() const override { return "fork+exec"; }
};

}  // namespace

SpawnBackend& ForkExecBackend() {
  static ForkExecEngine engine;
  return engine;
}

const char* SpawnBackendKindName(SpawnBackendKind kind) {
  switch (kind) {
    case SpawnBackendKind::kForkExec:
      return "fork+exec";
    case SpawnBackendKind::kVfork:
      return "vfork+exec";
    case SpawnBackendKind::kPosixSpawn:
      return "posix_spawn";
    case SpawnBackendKind::kCloneVm:
      return "clone_vm";
  }
  return "?";
}

}  // namespace forklift
