// forklift/forkserver: the sharded zygote pool.
//
// One fork server serializes all fork work in a single process; under many
// spawner threads the zygote itself becomes the bottleneck the paper's §6
// pattern was meant to remove. ShardedForkServer is the front-end that fixes
// the fan-in: it launches N fork-server processes (default one per online
// CPU), routes each spawn to the shard with the fewest requests in flight
// (every shard channel is a pipelined ForkServerClient) and transparently
// restarts a shard that crashes. The pool keeps no per-child state: a caller
// waits on the channel that launched the child (PendingSpawn::channel()),
// which is the only shard that is its parent. In-flight requests on a
// crashed shard complete exactly once, with a clean error — never silently
// lost, never retried after the frame reached the wire (a retry could fork
// the child twice).
#ifndef SRC_FORKSERVER_SHARDED_H_
#define SRC_FORKSERVER_SHARDED_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/result.h"
#include "src/forkserver/client.h"

namespace forklift {

class ShardedForkServer final {
 public:
  struct Options {
    size_t shards = 0;  // 0 → one shard per online CPU
    // Restart a crashed shard on the next request that needs it. When false a
    // dead shard just drops out of the routing set.
    bool restart_crashed_shards = true;
  };

  // Forks the shard processes. Like StartForkServerProcess, call it early,
  // while this process is small — every shard clones the caller's address
  // space.
  static Result<std::unique_ptr<ShardedForkServer>> Start(const Options& options);
  static Result<std::unique_ptr<ShardedForkServer>> Start() { return Start(Options{}); }

  // Shuts every shard down (if not already done via Shutdown()).
  ~ShardedForkServer();
  ShardedForkServer(const ShardedForkServer&) = delete;
  ShardedForkServer& operator=(const ShardedForkServer&) = delete;

  // A routed in-flight spawn. AwaitPid() blocks for the reply; a channel
  // that died under it retires (and, if enabled, restarts) its shard.
  class PendingSpawn {
   public:
    PendingSpawn() = default;
    PendingSpawn(PendingSpawn&&) noexcept = default;
    PendingSpawn& operator=(PendingSpawn&&) noexcept = default;

    bool valid() const { return pool_ != nullptr; }
    Result<pid_t> AwaitPid();

    // The shard channel this spawn was routed to: the one to WaitAsync the
    // child on. Grab it BEFORE AwaitPid, which releases the reference. Held,
    // it outlives a restart of its shard; a wait on it then fails cleanly.
    std::shared_ptr<ForkServerClient> channel() const { return channel_; }

   private:
    friend class ShardedForkServer;

    ShardedForkServer* pool_ = nullptr;
    // Keeps the channel alive across a concurrent shard restart.
    std::shared_ptr<ForkServerClient> channel_;
    ForkServerClient::PendingReply reply_;
    size_t shard_ = 0;
    uint64_t generation_ = 0;
  };

  // Routes to the least-loaded live shard and submits without waiting.
  // `trace_id` 0 allocates a fresh request id; a routed caller passes its
  // trace id so the wire frame and the shard.dispatch span carry it.
  Result<PendingSpawn> LaunchAsync(const SpawnRequest& req, uint64_t trace_id = 0);

  // Probes every shard.
  Status Ping();

  // Asks every shard to exit and reaps the shard processes.
  Status Shutdown();

  size_t shard_count() const;
  // Server-process pids, one per shard (tests and the fault sweep kill
  // these to exercise crash recovery).
  std::vector<pid_t> shard_pids() const;
  // Number of shard restarts performed so far.
  uint64_t restarts() const;

 private:
  struct Shard {
    std::shared_ptr<ForkServerClient> client;  // null when dead and not restarted
    pid_t server_pid = -1;
    uint64_t generation = 0;
  };

  explicit ShardedForkServer(const Options& options) : options_(options) {}

  // Forks a fresh server process into shards_[idx] (mu_ held).
  Status StartShardLocked(size_t idx);
  // Reaps shards_[idx]'s dead server (mu_ held).
  void ReapShardLocked(size_t idx);
  // Drops the channel and reaps the server (mu_ held).
  void CleanupShardLocked(size_t idx);
  // Called when a request observed shards_[idx] (at `generation`) dead:
  // restarts or retires the shard, exactly once per generation.
  void NoteShardFailure(size_t idx, uint64_t generation);
  // Picks the live shard with the fewest requests in flight, restarting one
  // if every shard is dead and restarts are enabled (mu_ held).
  Result<size_t> RouteLocked();

  Options options_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  uint64_t restarts_ = 0;
  bool shut_down_ = false;
};

}  // namespace forklift

#endif  // SRC_FORKSERVER_SHARDED_H_
