// The clone(2) CLONE_VM|CLONE_VFORK backend — fork's flag-proliferation
// endpoint (§5 of the paper: "fork now takes a growing matrix of flags"),
// and also the engine glibc's own posix_spawn uses internally: CLONE_VM
// shares the address space (vfork-speed creation, nothing copied), a
// caller-provided stack removes vfork's stack-aliasing fragility, and
// CLONE_VFORK suspends the parent until exec so the shared memory is
// race-free. Signal-handler reset is done by ChildExec as with the other
// fork-family engines (CLONE_CLEAR_SIGHAND needs clone3, whose raw syscall
// cannot be used safely through libc's syscall() wrapper — the child would
// resume on an empty stack inside a C frame; the clone() wrapper does the
// necessary assembly for us). Until that reset, a caught signal would run
// its handler in the child on our memory, so — as glibc's posix_spawn
// does — every signal is blocked across clone() and the child unblocks only
// after its handlers are reset.
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "src/common/pipe.h"
#include "src/spawn/backend.h"
#include "src/spawn/backend_common.h"

namespace forklift {

namespace {

#ifdef __linux__

struct CloneChildArgs {
  const SpawnRequest* req;
  const char* const* targets;
  int err_fd;
  const sigset_t* caller_mask;
};

// Entry point on the dedicated child stack. Shares the parent's address
// space (CLONE_VM) but not its stack; the parent is suspended (CLONE_VFORK)
// until exec or _exit, so reads of the request are race-free.
int CloneChildMain(void* raw) {
  auto* args = static_cast<CloneChildArgs*>(raw);
  internal::ChildExec(*args->req, args->targets, args->err_fd, args->caller_mask);
  // ChildExec never returns.
}

class Clone3Engine : public SpawnBackend {
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

    // A modest dedicated stack: ChildExec's frames are shallow and the exec
    // replaces everything. 128 KiB leaves slack for libc path buffers.
    constexpr size_t kStackBytes = 128 * 1024;
    std::vector<uint64_t> stack(kStackBytes / sizeof(uint64_t));

    // The child starts with every signal blocked and takes the caller's mask
    // with it, to exec with unless the request clears the mask.
    sigset_t all;
    sigset_t caller_mask;
    sigfillset(&all);
    ::pthread_sigmask(SIG_BLOCK, &all, &caller_mask);

    CloneChildArgs args;
    args.req = &req;
    args.targets = target_ptrs.data();
    args.err_fd = exec_pipe.write_end.get();
    args.caller_mask = &caller_mask;

    // Stacks grow down on every architecture we target: pass the top.
    void* stack_top = stack.data() + stack.size();
    int pid = ::clone(CloneChildMain, stack_top, CLONE_VM | CLONE_VFORK | SIGCHLD, &args);
    int clone_errno = errno;
    ::pthread_sigmask(SIG_SETMASK, &caller_mask, nullptr);
    if (pid < 0) {
      errno = clone_errno;
      return ErrnoError("clone(CLONE_VM|CLONE_VFORK)");
    }
    exec_pipe.write_end.Reset();
    FORKLIFT_RETURN_IF_ERROR(internal::AwaitExec(exec_pipe.read_end.get(), pid));
    return pid;
  }

  const char* Name() const override { return "clone(CLONE_VM|CLONE_VFORK)"; }
};

#endif  // __linux__

}  // namespace

SpawnBackend& Clone3Backend() {
#ifdef __linux__
  static Clone3Engine engine;
  return engine;
#else
  return VforkBackend();  // portable fallback: closest semantics
#endif
}

}  // namespace forklift
