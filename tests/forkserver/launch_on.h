// Test helper: launch a zygote child the way the SpawnService transports do
// — LaunchAsync on a channel (or through the sharded pool), then a
// ProcessHandle whose waits are kWaits on the channel that launched it.
#ifndef TESTS_FORKSERVER_LAUNCH_ON_H_
#define TESTS_FORKSERVER_LAUNCH_ON_H_

#include <sys/types.h>

#include <memory>
#include <utility>

#include "src/common/result.h"
#include "src/forkserver/client.h"
#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/spawn/process_handle.h"
#include "src/spawn/spawner.h"

namespace forklift {

inline Result<ProcessHandle> LaunchOn(const std::shared_ptr<ForkServerClient>& channel,
                                      const Spawner& spawner) {
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, spawner.BuildRequest());
  FORKLIFT_ASSIGN_OR_RETURN(ForkServerClient::PendingReply pending, channel->LaunchAsync(req));
  FORKLIFT_ASSIGN_OR_RETURN(pid_t pid, pending.AwaitPid());
  return MakeRemoteProcessHandle(channel, pid, "forkserver");
}

inline Result<ProcessHandle> LaunchOn(ShardedForkServer& pool, const Spawner& spawner) {
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, spawner.BuildRequest());
  FORKLIFT_ASSIGN_OR_RETURN(ShardedForkServer::PendingSpawn pending, pool.LaunchAsync(req));
  std::shared_ptr<ForkServerClient> channel = pending.channel();
  FORKLIFT_ASSIGN_OR_RETURN(pid_t pid, pending.AwaitPid());
  return MakeRemoteProcessHandle(std::move(channel), pid, "sharded");
}

}  // namespace forklift

#endif  // TESTS_FORKSERVER_LAUNCH_ON_H_
