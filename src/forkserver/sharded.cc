#include "src/forkserver/sharded.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "src/common/syscall.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/server.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace forklift {

namespace {

size_t OnlineCpuCount() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

obs::Counter RestartCounter() {
  return obs::MetricsRegistry::Global().GetCounter("forklift_shard_restarts_total");
}

obs::Gauge LiveShardsGauge() {
  return obs::MetricsRegistry::Global().GetGauge("forklift_shards_live");
}

}  // namespace

Result<std::unique_ptr<ShardedForkServer>> ShardedForkServer::Start(const Options& options) {
  Options opts = options;
  if (opts.shards == 0) {
    opts.shards = OnlineCpuCount();
  }
  std::unique_ptr<ShardedForkServer> pool(new ShardedForkServer(opts));
  std::lock_guard<std::mutex> lock(pool->mu_);
  pool->shards_.resize(opts.shards);
  for (size_t i = 0; i < opts.shards; ++i) {
    // Forking under mu_ is safe by construction: the server child never
    // touches pool state (it close-ranges inherited fds and serves its own
    // socket), so the inherited locked mutex is dead weight, not a deadlock.
    Status started = pool->StartShardLocked(i);  // forklint:ignore(R9)
    if (!started.ok()) {
      // Roll back the shards already running so a failed Start leaks neither
      // processes nor sockets.
      for (size_t j = 0; j < i; ++j) {
        Shard& shard = pool->shards_[j];
        if (shard.client != nullptr) {
          (void)shard.client->Shutdown();
          shard.client.reset();
          LiveShardsGauge().Add(-1);
        }
        pool->ReapShardLocked(j);
      }
      pool->shut_down_ = true;
      return Err(started.error());
    }
  }
  return pool;
}

ShardedForkServer::~ShardedForkServer() { (void)Shutdown(); }

Status ShardedForkServer::StartShardLocked(size_t idx) {
  // Models the socketpair/fork resources the shard start is about to claim;
  // the sweep drives this site to prove a failed shard start (initial or
  // restart) degrades cleanly instead of wedging the pool.
  auto inj = fault::Check("sharded.start_shard", fault::Op::kCreateFd);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("sharded forkserver: starting shard");
  }
  FORKLIFT_ASSIGN_OR_RETURN(ForkServerHandle handle, StartForkServerProcess());
  Shard& shard = shards_[idx];
  shard.client = std::make_shared<ForkServerClient>(std::move(handle.client_sock));
  shard.server_pid = handle.server_pid;
  ++shard.generation;
  LiveShardsGauge().Add(1);
  return Status::Ok();
}

void ShardedForkServer::ReapShardLocked(size_t idx) {
  Shard& shard = shards_[idx];
  if (shard.server_pid > 0) {
    // A shard is retired on the first transport error its channel reports —
    // which a send-side failure can raise while the server process is still
    // alive and parked in its Serve loop (and in-flight PendingSpawn holders
    // may keep the socket open past this point). Kill before reaping so the
    // blocking wait below can never wedge the pool on a live process.
    (void)::kill(shard.server_pid, SIGKILL);
    auto reaped = WaitForExit(shard.server_pid);
    (void)reaped;  // a reap error leaves nothing further to clean up
    shard.server_pid = -1;
  }
}

void ShardedForkServer::CleanupShardLocked(size_t idx) {
  Shard& shard = shards_[idx];
  if (shard.client != nullptr) {
    LiveShardsGauge().Add(-1);
  }
  shard.client.reset();
  ReapShardLocked(idx);
}

void ShardedForkServer::NoteShardFailure(size_t idx, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_) {
    return;
  }
  Shard& shard = shards_[idx];
  if (shard.generation != generation) {
    return;  // another caller already handled this crash
  }
  CleanupShardLocked(idx);
  if (options_.restart_crashed_shards) {  // forklint:ignore-next(R9) — child never takes mu_
    Status restarted = StartShardLocked(idx);
    if (restarted.ok()) {
      ++restarts_;
      RestartCounter().Increment();
    }
    // On failure the shard stays dead; RouteLocked retries on demand.
  }
}

Result<size_t> ShardedForkServer::RouteLocked() {
  size_t best = shards_.size();
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    if (shard.client == nullptr || shard.client->dead()) {
      continue;
    }
    size_t load = shard.client->outstanding();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  if (best < shards_.size()) {
    return best;
  }
  if (options_.restart_crashed_shards) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      CleanupShardLocked(i);
      FORKLIFT_RETURN_IF_ERROR(StartShardLocked(i));
      ++restarts_;
      RestartCounter().Increment();
      return i;
    }
  }
  return LogicalError("sharded forkserver: no live shard");
}

Result<ShardedForkServer::PendingSpawn> ShardedForkServer::LaunchAsync(const SpawnRequest& req,
                                                                       uint64_t trace_id) {
  // Allocate once, up front: the retry below re-routes the SAME request, so
  // both attempts (and the trace spans) share one id.
  if (trace_id == 0) {
    trace_id = obs::NextRequestId();
  }
  Status last_error = Status::Ok();
  // One retry: a submit failure means the frame never fully reached a healthy
  // channel, so re-routing cannot double-spawn. Failures after the frame is
  // on the wire surface through AwaitPid and are never retried here.
  for (int attempt = 0; attempt < 2; ++attempt) {
    size_t idx;
    uint64_t generation;
    std::shared_ptr<ForkServerClient> client;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shut_down_) {
        return LogicalError("sharded forkserver: already shut down");
      }
      FORKLIFT_ASSIGN_OR_RETURN(size_t routed, RouteLocked());  // forklint:ignore(R9) — see StartShardLocked
      idx = routed;
      generation = shards_[idx].generation;
      client = shards_[idx].client;
    }
    auto pending = client->LaunchAsync(req, trace_id);
    if (pending.ok()) {
      obs::Tracer::Global().Event(trace_id, "shard.dispatch",
                                  "shard=" + std::to_string(idx));
      PendingSpawn spawn;
      spawn.pool_ = this;
      spawn.channel_ = std::move(client);
      spawn.reply_ = std::move(*pending);
      spawn.shard_ = idx;
      spawn.generation_ = generation;
      return spawn;
    }
    last_error = Err(pending.error());
    NoteShardFailure(idx, generation);
  }
  return Err(last_error.error());
}

Result<pid_t> ShardedForkServer::PendingSpawn::AwaitPid() {
  if (!valid()) {
    return LogicalError("PendingSpawn::AwaitPid on empty handle");
  }
  ShardedForkServer* pool = pool_;
  pool_ = nullptr;
  auto pid = reply_.AwaitPid();
  bool channel_died = channel_->dead();
  channel_.reset();
  if (!pid.ok() && channel_died) {
    pool->NoteShardFailure(shard_, generation_);
  }
  return pid;
}

Status ShardedForkServer::Ping() {
  std::vector<std::shared_ptr<ForkServerClient>> clients;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      return LogicalError("sharded forkserver: already shut down");
    }
    for (const Shard& shard : shards_) {
      if (shard.client != nullptr) {
        clients.push_back(shard.client);
      }
    }
  }
  if (clients.empty()) {
    return LogicalError("sharded forkserver: no live shard");
  }
  for (auto& client : clients) {
    FORKLIFT_RETURN_IF_ERROR(client->Ping());
  }
  return Status::Ok();
}

Status ShardedForkServer::Shutdown() {
  std::vector<std::pair<std::shared_ptr<ForkServerClient>, pid_t>> to_stop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      return Status::Ok();
    }
    shut_down_ = true;
    for (Shard& shard : shards_) {
      if (shard.client != nullptr) {
        LiveShardsGauge().Add(-1);
      }
      to_stop.emplace_back(std::move(shard.client), shard.server_pid);
      shard.client.reset();
      shard.server_pid = -1;
    }
  }
  Status first_error = Status::Ok();
  for (auto& [client, pid] : to_stop) {
    if (client != nullptr) {
      Status st = client->Shutdown();
      if (!st.ok() && first_error.ok()) {
        first_error = st;
      }
      client.reset();
    }
    if (pid > 0) {
      auto reaped = WaitForExit(pid);
      if (!reaped.ok() && first_error.ok()) {
        first_error = Err(reaped.error());
      }
    }
  }
  return first_error;
}

size_t ShardedForkServer::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

std::vector<pid_t> ShardedForkServer::shard_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<pid_t> pids;
  pids.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    pids.push_back(shard.server_pid);
  }
  return pids;
}

uint64_t ShardedForkServer::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_;
}

}  // namespace forklift
