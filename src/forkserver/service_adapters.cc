#include "src/forkserver/service_adapters.h"

#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <utility>

#include "src/forkserver/server.h"

namespace forklift {

namespace {

// ProcessHandle::Impl over one shard channel: the wait is a kWait parked on
// the server, submitted lazily on the first wait call and kept in flight
// across deadline timeouts (the server answers each request_id exactly once,
// so abandoning it would lose the exit status).
class RemoteProcessImpl final : public ProcessHandle::Impl {
 public:
  RemoteProcessImpl(std::shared_ptr<ForkServerClient> channel, pid_t pid,
                    std::shared_ptr<ShardedForkServer> pool)
      : channel_(std::move(channel)), pid_(pid), pool_(std::move(pool)) {}

  ~RemoteProcessImpl() override {
    // Dropped without a wait: submit one anyway and abandon it, so the server
    // forgets the child when it exits instead of caching an exit nobody will
    // collect. The abandoned slot is freed when the reply arrives.
    if (!wait_submitted_ && !channel_->dead()) {
      (void)channel_->WaitAsync(pid_);
    }
  }

  pid_t pid() const override { return pid_; }

  Result<ExitStatus> Wait() override {
    FORKLIFT_RETURN_IF_ERROR(EnsureWaitSubmitted());
    return wait_.AwaitExit();
  }

  Result<std::optional<ExitStatus>> TryWait() override { return WaitDeadline(0); }

  Result<std::optional<ExitStatus>> WaitDeadline(double timeout_seconds) override {
    FORKLIFT_RETURN_IF_ERROR(EnsureWaitSubmitted());
    return wait_.AwaitExitFor(timeout_seconds);
  }

  Status Kill(int sig) override {
    // Plain kill(2): the server is the parent, but the pid is in our
    // namespace.
    if (::kill(pid_, sig) != 0) {
      return ErrnoError("kill remote child");
    }
    return Status::Ok();
  }

 private:
  Status EnsureWaitSubmitted() {
    if (wait_.valid()) {
      return Status::Ok();
    }
    FORKLIFT_ASSIGN_OR_RETURN(wait_, channel_->WaitAsync(pid_));
    wait_submitted_ = true;
    return Status::Ok();
  }

  std::shared_ptr<ForkServerClient> channel_;
  pid_t pid_;
  // Keeps a routing pool (and so the child's parent shard) up; see
  // MakeRemoteProcessHandle.
  std::shared_ptr<ShardedForkServer> pool_;
  ForkServerClient::PendingReply wait_;
  bool wait_submitted_ = false;
};

}  // namespace

ProcessHandle MakeRemoteProcessHandle(std::shared_ptr<ForkServerClient> channel, pid_t pid,
                                      std::string route,
                                      std::shared_ptr<ShardedForkServer> pool) {
  return ProcessHandle::FromImpl(
      std::make_unique<RemoteProcessImpl>(std::move(channel), pid, std::move(pool)),
      std::move(route));
}

// ---------------------------------------------------------------------------
// ForkServerTransport

std::unique_ptr<ForkServerTransport> ForkServerTransport::ConnectLazy(std::string socket_path) {
  auto t = std::unique_ptr<ForkServerTransport>(new ForkServerTransport(Mode::kConnectPath));
  t->socket_path_ = std::move(socket_path);
  return t;
}

std::unique_ptr<ForkServerTransport> ForkServerTransport::StartInProcess() {
  return std::unique_ptr<ForkServerTransport>(new ForkServerTransport(Mode::kStartProcess));
}

std::unique_ptr<ForkServerTransport> ForkServerTransport::Adopt(
    std::shared_ptr<ForkServerClient> channel) {
  auto t = std::unique_ptr<ForkServerTransport>(new ForkServerTransport(Mode::kAdopted));
  t->channel_ = std::move(channel);
  return t;
}

ForkServerTransport::~ForkServerTransport() {
  std::lock_guard<std::mutex> lock(mu_);
  if (channel_ != nullptr && !channel_->dead() && mode_ == Mode::kStartProcess) {
    (void)channel_->Shutdown();
  }
  channel_.reset();  // EOF makes a still-alive server exit even if Shutdown failed
  ReapServerLocked();
}

void ForkServerTransport::ReapServerLocked() {
  if (server_pid_ <= 0) {
    return;
  }
  int wstatus = 0;
  while (waitpid(server_pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  server_pid_ = -1;
}

Result<std::shared_ptr<ForkServerClient>> ForkServerTransport::EnsureChannel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (channel_ != nullptr && !channel_->dead()) {
    return channel_;
  }
  switch (mode_) {
    case Mode::kAdopted:
      if (channel_ == nullptr) {
        return LogicalError("ForkServerTransport: adopted channel gone");
      }
      return LogicalError("ForkServerTransport: adopted channel is dead");
    case Mode::kConnectPath: {
      channel_.reset();
      FORKLIFT_ASSIGN_OR_RETURN(std::unique_ptr<ForkServerClient> fresh,
                                ForkServerClient::ConnectPath(socket_path_));
      channel_ = std::move(fresh);
      return channel_;
    }
    case Mode::kStartProcess: {
      channel_.reset();  // drop our end first so a half-dead server sees EOF
      ReapServerLocked();
      // Forking under mu_ is safe by construction: the server child never
      // touches transport state — it close-ranges every inherited fd and
      // serves its own socketpair end.
      FORKLIFT_ASSIGN_OR_RETURN(ForkServerHandle handle, StartForkServerProcess());  // forklint:ignore(R9)
      channel_ = std::make_shared<ForkServerClient>(std::move(handle.client_sock));
      server_pid_ = handle.server_pid;
      return channel_;
    }
  }
  return LogicalError("ForkServerTransport: unknown mode");
}

void ForkServerTransport::DropChannelIfDead() {
  std::lock_guard<std::mutex> lock(mu_);
  if (channel_ != nullptr && channel_->dead() && mode_ != Mode::kAdopted) {
    channel_.reset();  // next EnsureChannel reconnects/restarts
  }
}

Status ForkServerTransport::Probe() {
  FORKLIFT_ASSIGN_OR_RETURN(std::shared_ptr<ForkServerClient> channel, EnsureChannel());
  Status st = channel->Ping();
  if (!st.ok()) {
    DropChannelIfDead();
  }
  return st;
}

Result<ProcessHandle> ForkServerTransport::Launch(const Spawner& spawner, uint64_t trace_id,
                                                  SpawnFailureKind* failure) {
  // Connect/start failure: nothing was ever sent.
  *failure = SpawnFailureKind::kTransportRetryable;
  FORKLIFT_ASSIGN_OR_RETURN(std::shared_ptr<ForkServerClient> channel, EnsureChannel());

  *failure = SpawnFailureKind::kRequest;
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, spawner.BuildRequest());

  auto pending = channel->LaunchAsync(req, trace_id);
  if (!pending.ok()) {
    // Submit failed: the frame never fully hit the wire (a partial frame is
    // unparseable to the length-prefixed reader), so no child was created.
    DropChannelIfDead();
    *failure = SpawnFailureKind::kTransportRetryable;
    return Err(pending.error());
  }
  auto pid = pending.value().AwaitPid();
  if (!pid.ok()) {
    if (channel->dead()) {
      // The request was on the wire when the channel died: the server may
      // have forked before going down, so this request must not be retried.
      DropChannelIfDead();
      *failure = SpawnFailureKind::kTransportIndeterminate;
    } else {
      // The server answered with an error: the request itself is bad.
      *failure = SpawnFailureKind::kRequest;
    }
    return Err(pid.error());
  }
  return MakeRemoteProcessHandle(std::move(channel), pid.value(), Name());
}

// ---------------------------------------------------------------------------
// ShardedTransport

std::unique_ptr<ShardedTransport> ShardedTransport::StartLazy(
    ShardedForkServer::Options options) {
  auto t = std::unique_ptr<ShardedTransport>(new ShardedTransport(nullptr, true));
  t->start_options_ = options;
  return t;
}

std::unique_ptr<ShardedTransport> ShardedTransport::Adopt(
    std::shared_ptr<ShardedForkServer> pool) {
  return std::unique_ptr<ShardedTransport>(new ShardedTransport(std::move(pool), false));
}

Result<std::shared_ptr<ShardedForkServer>> ShardedTransport::EnsurePool() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_ != nullptr) {
    return pool_;
  }
  if (!lazy_start_) {
    return LogicalError("ShardedTransport: adopted pool gone");
  }
  FORKLIFT_ASSIGN_OR_RETURN(std::unique_ptr<ShardedForkServer> fresh,
                            ShardedForkServer::Start(start_options_));
  pool_ = std::move(fresh);
  return pool_;
}

Status ShardedTransport::Probe() {
  FORKLIFT_ASSIGN_OR_RETURN(std::shared_ptr<ShardedForkServer> pool, EnsurePool());
  return pool->Ping();
}

Result<ProcessHandle> ShardedTransport::Launch(const Spawner& spawner, uint64_t trace_id,
                                               SpawnFailureKind* failure) {
  *failure = SpawnFailureKind::kTransportRetryable;
  FORKLIFT_ASSIGN_OR_RETURN(std::shared_ptr<ShardedForkServer> pool, EnsurePool());

  *failure = SpawnFailureKind::kRequest;
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, spawner.BuildRequest());

  auto pending = pool->LaunchAsync(req, trace_id);
  if (!pending.ok()) {
    // The pool already applied its own exactly-once resubmit policy; what
    // escapes is "no shard could take the frame" — nothing launched.
    *failure = SpawnFailureKind::kTransportRetryable;
    return Err(pending.error());
  }
  // Grab the routed channel before AwaitPid releases the reference: the
  // handle's waits ride this exact shard.
  std::shared_ptr<ForkServerClient> channel = pending.value().channel();
  auto pid = pending.value().AwaitPid();
  if (!pid.ok()) {
    *failure = (channel != nullptr && channel->dead())
                   ? SpawnFailureKind::kTransportIndeterminate
                   : SpawnFailureKind::kRequest;
    return Err(pid.error());
  }
  // The handle waits on the shard channel and holds the pool, so the
  // child's parent shard stays up as long as the handle is out.
  return MakeRemoteProcessHandle(std::move(channel), pid.value(), Name(), std::move(pool));
}

}  // namespace forklift
