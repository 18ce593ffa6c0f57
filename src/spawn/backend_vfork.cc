// The vfork(2)+execve(2) backend. vfork shares the parent's address space and
// suspends the parent until the child execs or exits, so process creation cost
// is independent of parent memory size (the paper's Figure 1 shows it flat
// where fork grows linearly). The price is the API's notorious fragility: the
// child runs on the parent's stack, so everything it touches must be dead by
// the time the parent resumes. We confine the child to a noinline helper whose
// frames sit below the vfork frame and which terminates only via exec or
// _exit — the same discipline glibc's posix_spawn uses internally. Like the
// clone-vm engine, it blocks every signal across vfork(): a caught signal
// landing in the child before ChildExec resets the handlers would run the
// handler on our memory.
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

#include "src/common/pipe.h"
#include "src/spawn/backend.h"
#include "src/spawn/backend_common.h"

namespace forklift {

namespace {

// Must not be inlined into the vfork frame: its locals live strictly below the
// suspended parent's stack pointer and are dead when the parent resumes.
[[gnu::noinline]] void VforkChild(const SpawnRequest& req, const char* const* targets,
                                  int err_fd, const sigset_t* caller_mask) {
  internal::ChildExec(req, targets, err_fd, caller_mask);
}

class VforkEngine : public SpawnBackend {
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

    // Everything the child needs is resolved before the vfork so the child
    // performs no allocation and writes no parent-visible state.
    const char* const* targets_ptr = target_ptrs.data();
    int err_fd = exec_pipe.write_end.get();
    const SpawnRequest* req_ptr = &req;

    // The child starts with every signal blocked and takes the caller's mask
    // with it, to exec with unless the request clears the mask.
    sigset_t all;
    sigset_t caller_mask;
    sigfillset(&all);
    ::pthread_sigmask(SIG_BLOCK, &all, &caller_mask);

    pid_t pid = ::vfork();
    if (pid == 0) {
      VforkChild(*req_ptr, targets_ptr, err_fd, &caller_mask);
      _exit(127);  // unreachable; ChildExec never returns
    }
    int vfork_errno = errno;
    ::pthread_sigmask(SIG_SETMASK, &caller_mask, nullptr);
    if (pid < 0) {
      errno = vfork_errno;
      return ErrnoError("vfork");
    }
    exec_pipe.write_end.Reset();
    FORKLIFT_RETURN_IF_ERROR(internal::AwaitExec(exec_pipe.read_end.get(), pid));
    return pid;
  }

  const char* Name() const override { return "vfork+exec"; }
};

}  // namespace

SpawnBackend& VforkBackend() {
  static VforkEngine engine;
  return engine;
}

}  // namespace forklift
