#include "src/forkserver/server.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/pipe.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/wire.h"
#include "src/obs/export.h"
#include "src/obs/registry.h"
#include "src/spawn/backend.h"

namespace forklift {

namespace {

// Received descriptors are renumbered here so they can never collide with the
// request's plan targets (< CompiledFdPlan::kScratchBase) or its scratch range.
constexpr int kTransferFdFloor = 600;

// Bind + listen a non-blocking AF_UNIX stream socket at `path`, unlinking any
// stale file first. Shared by the spawn and metrics listeners.
Result<UniqueFd> BindUnixListener(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return LogicalError("ForkServer: socket path too long");
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return ErrnoError("socket (forkserver listener)");
  }
  UniqueFd listener(fd);
  // Non-blocking: in shard mode several processes accept(2) on one listener,
  // and a connection raced away by a sibling must not park a shard inside a
  // blocking accept. OnListenerReadable already treats EAGAIN as "someone
  // else got it".
  int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoError("fcntl O_NONBLOCK (forkserver listener)");
  }
  ::unlink(path.c_str());  // clear a stale socket from a previous run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoError("bind " + path);
  }
  if (::listen(fd, 64) < 0) {
    return ErrnoError("listen " + path);
  }
  return listener;
}

obs::Histogram& FramesPerFlush() {
  static obs::Histogram h =
      obs::MetricsRegistry::Global().GetHistogram("forklift_wire_frames_per_flush");
  return h;
}

}  // namespace

ForkServer::ForkServer(UniqueFd sock) { socks_.push_back(std::move(sock)); }

Result<ForkServer> ForkServer::Listen(const std::string& path) {
  FORKLIFT_ASSIGN_OR_RETURN(UniqueFd listener, BindUnixListener(path));
  ForkServer server;
  server.listener_ = std::move(listener);
  server.listen_path_ = path;
  return server;
}

Status ForkServer::ListenMetrics(const std::string& path) {
  FORKLIFT_ASSIGN_OR_RETURN(metrics_listener_, BindUnixListener(path));
  metrics_listen_path_ = path;
  return Status::Ok();
}

Status ForkServer::RegisterChannel(int fd) {
  // Non-blocking so the drain loop can empty the socket and stop on EAGAIN
  // instead of guessing how much one event is worth. (AF_UNIX fd passing
  // means each end is its own file description; this never flips the peer.)
  FORKLIFT_RETURN_IF_ERROR(SetNonBlocking(fd, true));
  channels_.emplace(fd, Channel{});
  return reactor_->AddFd(fd, EPOLLIN, [this, fd](uint32_t) { OnChannelReadable(fd); });
}

void ForkServer::CloseChannel(int fd) {
  (void)reactor_->RemoveFd(fd);
  channels_.erase(fd);
  // Waits parked by this channel die with it — their fd number may be reused
  // by the next accept, and a reply there would correlate to a stranger.
  for (auto& entry : children_) {
    std::erase_if(entry.second.waiters, [fd](const ParkedWait& w) { return w.sock == fd; });
  }
  for (auto it = socks_.begin(); it != socks_.end(); ++it) {
    if (it->get() == fd) {
      socks_.erase(it);
      return;
    }
  }
}

void ForkServer::OnListenerReadable(int listener_fd) {
  int client = ::accept4(listener_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (client < 0) {
    if (errno != EINTR && errno != EAGAIN && errno != ECONNABORTED) {
      serve_error_ = ErrnoError("accept (forkserver)");
    }
    return;
  }
  socks_.emplace_back(client);
  Status registered = RegisterChannel(client);
  if (!registered.ok()) {
    serve_error_ = registered;
  }
}

void ForkServer::QueueReply(int sock, std::string_view payload) {
  auto it = channels_.find(sock);
  if (it == channels_.end()) {
    return;  // closed while this reply's wait was parked: its client is gone
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[sizeof(len)];
  std::memcpy(prefix, &len, sizeof(len));
  it->second.out.append(prefix, sizeof(len));
  it->second.out.append(payload);
  ++it->second.out_frames;
}

Status ForkServer::FlushReplies(int sock) {
  auto it = channels_.find(sock);
  if (it == channels_.end() || it->second.out.empty()) {
    return Status::Ok();
  }
  // Move the burst out before writing: the write can yield (EAGAIN park) and
  // by the time it finishes a parked-wait completion may queue more.
  std::string out = std::move(it->second.out);
  const size_t frames = it->second.out_frames;
  it->second.out.clear();
  it->second.out_frames = 0;
  struct iovec iov;
  iov.iov_base = out.data();
  iov.iov_len = out.size();
  auto sent = SendGathered(sock, &iov, 1, {});
  FramesPerFlush().Observe(frames);
  if (!sent.ok()) {
    return Err(sent.error());
  }
  // Hand the (now empty) buffer's capacity back to the channel if nothing
  // else was queued meanwhile.
  it = channels_.find(sock);
  if (it != channels_.end() && it->second.out.empty()) {
    out.clear();
    it->second.out = std::move(out);
  }
  return Status::Ok();
}

void ForkServer::OnChannelReadable(int fd) {
  // Stale-event guard: a callback earlier in this epoll batch may have closed
  // a channel whose fd number was immediately reused by something that is not
  // a channel (a spawned child's pipe). Only registered channels are read.
  if (channels_.find(fd) == channels_.end()) {
    return;
  }
  // Drain everything the socket holds and handle every complete frame per
  // wakeup — replies accumulate in the channel's out-buffer and leave in one
  // writev below. The channel iterator is re-found per frame: a handler can
  // close channels (parked-wait completion to a broken peer) or adopt new
  // ones mid-burst.
  bool at_eof = false;
  for (;;) {
    auto it = channels_.find(fd);
    if (it == channels_.end()) {
      return;  // closed by a handler mid-burst
    }
    auto drained = DrainSocketInto(fd, &it->second.in);
    if (!drained.ok()) {
      serve_error_ = Err(drained.error());
      return;
    }
    at_eof = drained->eof;
    for (;;) {
      it = channels_.find(fd);
      if (it == channels_.end()) {
        return;
      }
      Frame frame;
      auto has = it->second.in.Next(&frame);
      if (!has.ok()) {
        serve_error_ = Err(has.error());
        return;
      }
      if (!*has) {
        break;
      }
      auto keep_running = HandleFrame(fd, std::move(frame));
      if (!keep_running.ok()) {
        serve_error_ = Err(keep_running.error());
        return;
      }
      if (!*keep_running) {
        stop_serving_ = true;
        Status flushed = FlushReplies(fd);
        if (!flushed.ok()) {
          serve_error_ = flushed;
        }
        return;
      }
    }
    if (at_eof || drained->would_block) {
      break;
    }
    // Full gulp with neither EAGAIN nor EOF: the socket may hold more.
  }
  Status flushed = FlushReplies(fd);
  if (!flushed.ok()) {
    serve_error_ = flushed;
    return;
  }
  if (at_eof) {
    auto it = channels_.find(fd);
    if (it != channels_.end()) {
      if (it->second.in.buffered() != 0) {
        serve_error_ = LogicalError("forkserver: peer closed mid-frame");
        return;
      }
      CloseChannel(fd);
    }
  }
}

void ForkServer::OnChildExit(pid_t pid) {
  auto it = children_.find(pid);
  if (it == children_.end()) {
    return;
  }
  // Reap the instant the watch fires so the zombie is short-lived. A reap
  // that finds nothing still answers: a parked wait must not outlive its
  // child.
  WaitReply reply;
  int raw = 0;
  if (::waitpid(pid, &raw, WNOHANG) == pid) {
    reply.ok = true;
    reply.status = DecodeWaitStatus(raw);
  } else {
    reply.err = ECHILD;
    reply.context = "forkserver: pid " + std::to_string(pid) + " exited but was not reaped";
  }
  if (reply.ok && it->second.waiters.empty()) {
    it->second.exit = reply.status;  // collected by the next kWait
    it->second.watch = ChildWatch();  // closes the pidfd: only the status is kept
    return;
  }
  std::vector<ParkedWait> waiters = std::move(it->second.waiters);
  children_.erase(it);
  for (const auto& w : waiters) {
    QueueReply(w.sock, EncodeWaitReply(reply, w.request_id));
    Status sent = FlushReplies(w.sock);
    if (!sent.ok()) {
      // The waiter's channel broke while its wait was parked: that client is
      // gone, not the server — drop the channel and keep serving.
      CloseChannel(w.sock);
    }
  }
}

Result<uint64_t> ForkServer::Serve() {
  FORKLIFT_ASSIGN_OR_RETURN(Reactor reactor, Reactor::Create());
  reactor_.emplace(std::move(reactor));
  stop_serving_ = false;
  serve_error_ = Status::Ok();

  Status error;
  if (listener_.valid()) {
    int fd = listener_.get();
    error = reactor_->AddFd(fd, EPOLLIN, [this, fd](uint32_t) { OnListenerReadable(fd); });
  }
  if (error.ok() && metrics_listener_.valid()) {
    // Metrics scrapers are ordinary channels on a dedicated socket: they can
    // only usefully send kStats, but the framing and dispatch are identical.
    int fd = metrics_listener_.get();
    error = reactor_->AddFd(fd, EPOLLIN, [this, fd](uint32_t) { OnListenerReadable(fd); });
  }
  if (error.ok() && sigusr1_dump_) {
    // Dump-on-signal: block SIGUSR1 and route it through the reactor so the
    // dump happens on the serve thread, not in async-signal context.
    sigset_t mask;
    ::sigemptyset(&mask);
    ::sigaddset(&mask, SIGUSR1);
    ::sigprocmask(SIG_BLOCK, &mask, nullptr);
    int sfd = ::signalfd(-1, &mask, SFD_CLOEXEC | SFD_NONBLOCK);
    if (sfd < 0) {
      error = ErrnoError("signalfd (forkserver stats dump)");
    } else {
      sigusr1_fd_ = UniqueFd(sfd);
      error = reactor_->AddFd(sfd, EPOLLIN, [this, sfd](uint32_t) {
        signalfd_siginfo info;
        while (::read(sfd, &info, sizeof(info)) == static_cast<ssize_t>(sizeof(info))) {
        }
        (void)obs::WriteExportToFd(STDERR_FILENO, obs::RenderPrometheus());
      });
    }
  }
  for (const auto& sock : socks_) {
    if (!error.ok()) {
      break;
    }
    error = RegisterChannel(sock.get());
  }

  // One epoll set multiplexes channels, the listener, and child pidfds; the
  // loop parks here until any of them has work.
  while (error.ok() && !stop_serving_ &&
         (listener_.valid() || metrics_listener_.valid() || !socks_.empty())) {
    auto dispatched = reactor_->PollOnce(-1);
    if (!dispatched.ok()) {
      error = Err(dispatched.error());
      break;
    }
    if (!serve_error_.ok()) {
      error = serve_error_;
      break;
    }
  }

  // Drop every registration (exit watches first — they deregister against
  // the reactor) so no callback capturing `this` outlives Serve. Waits still
  // parked die with their channels; their clients see EOF.
  children_.clear();
  channels_.clear();
  reactor_.reset();
  if (sigusr1_fd_.valid()) {
    sigusr1_fd_.Reset();
    sigset_t mask;
    ::sigemptyset(&mask);
    ::sigaddset(&mask, SIGUSR1);
    ::sigprocmask(SIG_UNBLOCK, &mask, nullptr);
  }
  if (!listen_path_.empty()) {
    ::unlink(listen_path_.c_str());
  }
  if (!metrics_listen_path_.empty()) {
    ::unlink(metrics_listen_path_.c_str());
  }
  if (!error.ok()) {
    return Err(error.error());
  }
  return spawns_handled_;
}

Result<bool> ForkServer::HandleFrame(int sock, Frame frame) {
  WireReader reader(frame.payload);
  auto hdr = DecodeHeader(reader);
  if (!hdr.ok()) {
    // Unparseable header: there is no request_id to echo, so the error reply
    // goes out under the reserved id 0 and the client fails the channel.
    SpawnReply reply;
    reply.ok = false;
    reply.context = hdr.error().ToString();
    QueueReply(sock, EncodeSpawnReply(reply));
    return true;
  }

  // Every reply echoes its request's id.
  const uint64_t id = hdr->request_id;
  switch (hdr->type) {
    case MsgType::kSpawn: {
      HandleSpawn(sock, frame.payload, std::move(frame.fds), id);
      return true;
    }
    case MsgType::kWait: {
      HandleWait(sock, frame.payload, id);
      return true;
    }
    case MsgType::kStats: {
      HandleStats(sock, frame.payload, id);
      return true;
    }
    case MsgType::kPing: {
      QueueReply(sock, EncodeControl(MsgType::kPong, id));
      return true;
    }
    case MsgType::kNewChannel: {
      if (frame.fds.size() != 1) {
        SpawnReply reply;
        reply.ok = false;
        reply.context = "forkserver: kNewChannel must carry exactly one socket";
        QueueReply(sock, EncodeSpawnReply(reply, id));
        return true;
      }
      int adopted = frame.fds[0].get();
      socks_.push_back(std::move(frame.fds[0]));
      FORKLIFT_RETURN_IF_ERROR(RegisterChannel(adopted));
      QueueReply(sock, EncodeControl(MsgType::kNewChannelAck, id));
      return true;
    }
    case MsgType::kShutdown: {
      QueueReply(sock, EncodeControl(MsgType::kShutdownAck, id));
      return false;
    }
    default: {
      SpawnReply reply;
      reply.ok = false;
      reply.context = "forkserver: unexpected message type";
      QueueReply(sock, EncodeSpawnReply(reply, id));
      return true;
    }
  }
}

Result<std::vector<UniqueFd>> ForkServer::RelocateFds(std::vector<UniqueFd> fds) {
  // Renumber every received descriptor above the plan's reachable range.
  std::vector<UniqueFd> high_fds;
  high_fds.reserve(fds.size());
  for (auto& fd : fds) {
    int high;
    auto inj = fault::Check("forkserver.relocate_fd", fault::Op::kDupFd);
    if (inj.is_errno()) {
      high = -1;
      errno = inj.err;
    } else {
      high = ::fcntl(fd.get(), F_DUPFD_CLOEXEC, kTransferFdFloor);
    }
    if (high < 0) {
      return ErrnoError("forkserver: relocating transferred fd");
    }
    high_fds.emplace_back(high);
    fd.Reset();
  }
  return high_fds;
}

void ForkServer::HandleSpawn(int sock, const std::string& payload, std::vector<UniqueFd> fds,
                             uint64_t request_id) {
  SpawnReply reply;
  auto high_fds = RelocateFds(std::move(fds));
  if (!high_fds.ok()) {
    reply.err = high_fds.error().code();
    reply.context = high_fds.error().ToString();
    QueueReply(sock, EncodeSpawnReply(reply, request_id));
    return;
  }
  auto req = DecodeSpawnRequest(payload, *high_fds);
  if (!req.ok()) {
    reply.err = req.error().code();
    reply.context = req.error().ToString();
    QueueReply(sock, EncodeSpawnReply(reply, request_id));
    return;
  }
  auto pid = ForkExecBackend().Launch(*req);
  if (!pid.ok()) {
    reply.err = pid.error().code();
    reply.context = pid.error().ToString();
  } else {
    reply.ok = true;
    reply.pid = static_cast<int32_t>(*pid);
    // The kernel hands out a pid again only after we reaped its last holder,
    // so an entry already on it is an exit nobody collected: replace it.
    // Arm fails only for a pid <= 0, which no launch returns.
    children_.insert_or_assign(*pid, ChildEntry{}).first->second.watch =
        ChildWatch::Arm(*reactor_, *pid, [this, p = *pid] { OnChildExit(p); }).value();
    ++spawns_handled_;
    // Server-side view in the shared arena: with shards forked after the
    // registry arena exists, every shard's spawns land in one counter.
    obs::MetricsRegistry::Global().GetCounter("forklift_forkserver_spawns_total").Increment();
  }
  QueueReply(sock, EncodeSpawnReply(reply, request_id));
}

void ForkServer::HandleStats(int sock, const std::string& payload, uint64_t request_id) {
  obs::MetricsRegistry::Global().GetCounter("forklift_forkserver_stats_requests_total")
      .Increment();
  StatsReply reply;
  auto format = DecodeStatsRequest(payload);
  if (!format.ok()) {
    reply.ok = false;
    reply.context = format.error().ToString();
  } else if (*format > static_cast<uint8_t>(obs::StatsFormat::kJson)) {
    reply.ok = false;
    reply.context = "forkserver: unknown stats format " + std::to_string(*format);
  } else {
    // The export gate sits in front of the render so an injected export
    // fault degrades to a clean error reply instead of a torn body.
    Status gate = obs::ExportGate();
    if (!gate.ok()) {
      reply.ok = false;
      reply.err = gate.error().code();
      reply.context = gate.error().ToString();
    } else {
      reply.ok = true;
      reply.body = obs::Render(static_cast<obs::StatsFormat>(*format));
    }
  }
  QueueReply(sock, EncodeStatsReply(reply, request_id));
}

void ForkServer::HandleWait(int sock, const std::string& payload, uint64_t request_id) {
  auto pid = DecodeWait(payload);
  WaitReply reply;
  auto it = pid.ok() ? children_.find(static_cast<pid_t>(*pid)) : children_.end();
  if (!pid.ok()) {
    reply.context = pid.error().ToString();
  } else if (it == children_.end()) {
    reply.err = ECHILD;
    reply.context = "forkserver: pid " + std::to_string(*pid) + " is not a live child";
  } else if (it->second.exit.has_value()) {
    // The exit watch already reaped: answer immediately and forget the child.
    reply.ok = true;
    reply.status = *it->second.exit;
    children_.erase(it);
  } else {
    // Not yet exited: park the wait on the child's exit watch and keep the
    // channel moving. OnChildExit answers it.
    it->second.waiters.push_back(ParkedWait{sock, request_id});
    return;
  }
  QueueReply(sock, EncodeWaitReply(reply, request_id));
}

Result<ForkServerHandle> StartForkServerProcess() {
  FORKLIFT_ASSIGN_OR_RETURN(SocketPair sp, MakeSocketPair());
  // The one sanctioned raw fork outside src/spawn/: the zygote *is* the
  // fork-server substrate, and must clone itself before any threads exist —
  // which also answers R12: thread creations elsewhere in the program happen
  // after (and in processes other than) this early clone.
  pid_t pid = ::fork();  // forklint:ignore(R7,R12)
  if (pid < 0) {
    return ErrnoError("fork (starting fork server)");
  }
  if (pid == 0) {
    // Server process. Drop the client end; serve; die quietly. The zygote
    // inherits the parent's current (ideally small) address space — starting
    // it early is the documented contract.
    sp.first.Reset();
    // fork also copied every descriptor the caller had open (the §5.1 leak):
    // a pipe end created before a lazily-started server would hold a
    // sibling's stdin open forever, so close everything beyond stdio and the
    // channel. Descriptors a client wants the server to hold are passed
    // explicitly via SCM_RIGHTS, never inherited.
    int sock = sp.second.Release();
    if (sock != 3) {
      ::dup2(sock, 3);
      ::close(sock);
      sock = 3;
    }
    // dup2 strips FD_CLOEXEC: restore it, or every child this server execs
    // would inherit the channel socket and keep it open past our death —
    // clients would never see EOF on a dead server. Raw fcntl, like the rest
    // of this child bootstrap: fault plans inherited from the parent must not
    // fire here (a silently-skipped restore IS the hang it prevents).
    int fdflags = ::fcntl(sock, F_GETFD);
    if (fdflags >= 0) {
      ::fcntl(sock, F_SETFD, fdflags | FD_CLOEXEC);
    }
    ::syscall(SYS_close_range, 4u, ~0u, 0u);
    ForkServer server{UniqueFd(sock)};
    // Serve() allocates freely — legal here because the zygote contract
    // guarantees the parent was single-threaded at fork time, so the child's
    // heap locks cannot be held by a vanished thread.
    auto served = server.Serve();  // forklint:ignore(R10)
    if (!served.ok()) {
      FORKLIFT_ERROR("fork server terminating on transport error: %s",
                     served.error().ToString().c_str());
      _exit(1);
    }
    _exit(0);
  }
  ForkServerHandle handle;
  handle.client_sock = std::move(sp.first);
  handle.server_pid = pid;
  return handle;
}

Result<pid_t> SpawnShardProcess(ForkServer& server) {
  // The shard is the same zygote clone as StartForkServerProcess — forked
  // small, before the supervisor grows (or threads: R12) — it just inherits
  // a shared listener instead of a private socketpair.
  pid_t pid = ::fork();  // forklint:ignore(R7,R12)
  if (pid < 0) {
    return ErrnoError("fork (forkserver shard)");
  }
  if (pid == 0) {
    // The supervisor collects SIGTERM/SIGINT/SIGCHLD with a blocked mask and
    // sigwait; both the mask and any handlers are inherited across fork and
    // would make the forwarded SIGTERM a no-op here, wedging supervised
    // shutdown. The shard never execs, so R8's reset-on-exec concern does
    // not apply.
    sigset_t none;
    ::sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    ::signal(SIGTERM, SIG_DFL);  // forklint:ignore(R8)
    ::signal(SIGINT, SIG_DFL);   // forklint:ignore(R8)
    server.DisownListenPath();
    // Allocation in Serve() is safe for the same reason as the zygote child:
    // the supervisor is single-threaded when shards are cloned.
    auto served = server.Serve();  // forklint:ignore(R10)
    if (!served.ok()) {
      FORKLIFT_ERROR("fork-server shard terminating on transport error: %s",
                     served.error().ToString().c_str());
      _exit(1);
    }
    _exit(0);
  }
  return pid;
}

}  // namespace forklift
