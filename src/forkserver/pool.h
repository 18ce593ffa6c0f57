// forklift/forkserver: a prefork worker pool.
//
// The second half of the zygote story (§6): not just "fork from a small
// process" but "don't create a process at all" — reuse a warm worker. Workers
// are persistent `/bin/sh -s` interpreters fed commands over stdin; each
// Execute() is one request/response on a warm worker, so the process-creation
// cost is paid once per worker instead of once per task. The amortization is
// measured against cold spawns in bench/forkserver_amortization.
#ifndef SRC_FORKSERVER_POOL_H_
#define SRC_FORKSERVER_POOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/reactor.h"
#include "src/common/result.h"
#include "src/spawn/backend.h"
#include "src/spawn/process_handle.h"

namespace forklift {

class ShellWorkerPool {
 public:
  struct Options {
    size_t workers = 4;
    SpawnBackendKind backend = SpawnBackendKind::kForkExec;
  };

  ShellWorkerPool() = default;
  ~ShellWorkerPool();

  ShellWorkerPool(const ShellWorkerPool&) = delete;
  ShellWorkerPool& operator=(const ShellWorkerPool&) = delete;

  // Spawns the workers. Must be called once before Execute.
  Status Start(const Options& opts);

  // Runs one shell command on a warm worker (round-robin) and returns its
  // stdout. The command must be a single line; its exit status is returned
  // alongside the output.
  struct TaskResult {
    int exit_code = 0;
    std::string output;
  };
  Result<TaskResult> Execute(const std::string& command);

  // Graceful teardown: EOF to each worker, reap all. Called by the destructor
  // if not called explicitly.
  Status Stop();

  size_t worker_count() const { return workers_.size(); }
  uint64_t tasks_executed() const { return tasks_executed_; }

 private:
  struct Worker {
    ProcessHandle child;
    bool healthy = true;
    ChildWatch watch;  // marks the worker unhealthy the moment it dies
  };

  Result<TaskResult> ExecuteOn(Worker& w, const std::string& command);

  // Declared before workers_ so each worker's watch (which deregisters
  // against the reactor) is destroyed first. Execute pumps this reactor
  // non-blockingly, so a worker killed behind the pool's back is usually
  // marked unhealthy before the round-robin can route a task to the corpse.
  std::optional<Reactor> reactor_;
  std::vector<Worker> workers_;
  size_t next_ = 0;
  uint64_t tasks_executed_ = 0;
  uint64_t task_seq_ = 0;
  bool started_ = false;
};

}  // namespace forklift

#endif  // SRC_FORKSERVER_POOL_H_
