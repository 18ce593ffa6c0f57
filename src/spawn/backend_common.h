// forklift/spawn: shared machinery for the fork- and vfork-based backends.
//
// The child side between fork()/vfork() and execve() may only use
// async-signal-safe primitives (the paper's thread-safety complaint §4: any
// other library code may observe a snapshot of locks held by threads that do
// not exist in the child). ChildExec therefore performs raw syscalls on
// pre-resolved, stable-storage inputs and reports failure through the classic
// CLOEXEC "exec pipe": if exec succeeds the pipe closes silently; if any stage
// fails the child writes {errno, stage-tag} and _exit(127)s, and the parent
// converts that to a clean Result error with the failing stage named.
#ifndef SRC_SPAWN_BACKEND_COMMON_H_
#define SRC_SPAWN_BACKEND_COMMON_H_

#include <signal.h>
#include <sys/types.h>

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/spawn/backend.h"

namespace forklift {
namespace internal {

// Candidate executable paths, in try-order. Resolved in the parent, where
// allocation is legal; the child only walks the array.
Result<std::vector<std::string>> ResolveExecTargets(const SpawnRequest& req);

// Fixed-size record the child writes on failure. `stage` is a short tag like
// "execve" or "chdir".
struct ExecFailure {
  int32_t err;
  char stage[24];
};

// Child-side: applies `req`, then execve()s each of `exec_paths` (a
// NULL-terminated array of candidate c-strings) until one sticks. On any
// failure, reports through `err_fd` and _exit(127)s. Never returns.
// Async-signal-safe. `err_fd` may be any descriptor; it is relocated above the
// plan's fd range internally.
//
// `caller_mask` is for engines that share the caller's memory and block
// every signal across the launch (clone-vm, vfork): it is the caller's own
// mask, which the child execs with when `req.reset_signal_mask` is off. With
// it set, the child also drops every caught signal to SIG_DFL before
// unblocking anything, even when `req.reset_signal_handlers` is off: a
// handler run in the child would run on the caller's memory, and execve
// resets caught signals anyway.
[[noreturn]] void ChildExec(const SpawnRequest& req, const char* const* exec_paths, int err_fd,
                            const sigset_t* caller_mask = nullptr);

// Parent-side: waits for the exec pipe to close (success) or deliver an
// ExecFailure (failure; the dead child is reaped before returning the error).
Status AwaitExec(int read_fd, pid_t pid);

}  // namespace internal
}  // namespace forklift

#endif  // SRC_SPAWN_BACKEND_COMMON_H_
