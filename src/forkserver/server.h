// forklift/forkserver: the zygote process.
//
// A ForkServer serves one or more AF_UNIX stream channels: it decodes spawn
// requests, launches them with the fork+exec engine (forking the *small*
// server rather than the large client — the entire point of the zygote
// pattern, §6 of the paper), supervises the children, and answers wait
// requests. Additional channels are adopted at runtime via kNewChannel frames
// carrying a socket (SCM_RIGHTS), so each client thread can own a private
// channel. One Reactor multiplexes everything Serve watches: client channels,
// the daemon listener, and an exit watch per live child — so a child's exit
// is observed (and its status cached for the eventual kWait) without any
// polling tick. Single-threaded by design: a zygote must stay small and must
// not hold locks across its forks. Replies are answered out of order: a kWait
// for a child that has not yet exited parks on that child's exit watch and
// is answered when the exit is observed, so it never blocks the channel.
#ifndef SRC_FORKSERVER_SERVER_H_
#define SRC_FORKSERVER_SERVER_H_

#include <sys/types.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/reactor.h"
#include "src/common/result.h"
#include "src/common/syscall.h"
#include "src/common/unique_fd.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/protocol.h"

namespace forklift {

class ForkServer {
 public:
  // Takes ownership of the server end of a connected socket pair.
  explicit ForkServer(UniqueFd sock);

  // Daemon mode: bind + listen on an AF_UNIX socket at `path` (unlinking any
  // stale socket first). Accepted connections become channels; the server
  // runs until a client sends kShutdown (EOF of all clients does NOT stop a
  // listening server). The socket file is unlinked when Serve returns.
  static Result<ForkServer> Listen(const std::string& path);

  // Binds a second listener dedicated to metrics scrapes. Accepted
  // connections are ordinary protocol channels (scrapers send kStats frames);
  // the separate path just keeps observability traffic off the spawn socket.
  // Call before Serve. The file is unlinked when Serve returns unless the
  // path was disowned.
  Status ListenMetrics(const std::string& path);

  // Makes Serve watch SIGUSR1 (via signalfd) and dump the Prometheus export
  // to stderr when it arrives. Call before Serve.
  void EnableSigusr1StatsDump() { sigusr1_dump_ = true; }

  // Serves until a client sends kShutdown or the last channel closes.
  // Returns the number of spawn requests handled, or the transport error that
  // ended the loop. Protocol errors on a single request are reported to that
  // client and do not end the loop.
  Result<uint64_t> Serve();

  // Shard mode (SpawnShardProcess): the forked shard serves the inherited
  // listeners but must not unlink the socket files — the supervising parent
  // owns them.
  void DisownListenPath() {
    listen_path_.clear();
    metrics_listen_path_.clear();
  }

 private:
  // A kWait for a live child, parked until its exit watch fires.
  struct ParkedWait {
    int sock = -1;
    uint64_t request_id = 0;
  };

  // One child, from the spawn that launched it until its exit is collected:
  // by the exit that answers its parked waits, or by the first kWait after
  // the exit was cached.
  struct ChildEntry {
    ChildWatch watch;
    std::optional<ExitStatus> exit;   // reaped, not yet collected
    std::vector<ParkedWait> waiters;  // kWaits parked until the exit
  };

  // Per-channel wire state: the receive-side reassembly buffer and the
  // send-side reply coalescing buffer (complete framed replies accumulated
  // during one wakeup's burst, flushed in one writev).
  struct Channel {
    FrameBuffer in;
    std::string out;
    size_t out_frames = 0;
  };

  // Returns true when the server should keep running.
  Result<bool> HandleFrame(int sock, struct Frame frame);
  void HandleSpawn(int sock, const std::string& payload, std::vector<UniqueFd> fds,
                   uint64_t request_id);
  void HandleWait(int sock, const std::string& payload, uint64_t request_id);
  void HandleStats(int sock, const std::string& payload, uint64_t request_id);
  // Dups every received descriptor above the plan-reachable range
  // (faultinject site `forkserver.relocate_fd`); errno error on failure.
  Result<std::vector<UniqueFd>> RelocateFds(std::vector<UniqueFd> fds);
  // Appends one framed reply to `sock`'s coalescing buffer (dropped if the
  // channel is gone).
  void QueueReply(int sock, std::string_view payload);
  // Writes the channel's queued replies in one gathered write.
  Status FlushReplies(int sock);
  // Exit-watch callback: reaps `pid`, then answers its parked waits and
  // forgets it, or caches the status for the next kWait.
  void OnChildExit(pid_t pid);

  // Reactor plumbing for Serve: channel/listener registration and the
  // callbacks they dispatch to. Callbacks record failures in serve_error_
  // (and request shutdown via stop_serving_) for the Serve loop to act on.
  Status RegisterChannel(int fd);
  void OnChannelReadable(int fd);
  void OnListenerReadable(int listener_fd);
  void CloseChannel(int fd);

  ForkServer() = default;

  std::vector<UniqueFd> socks_;
  // Keyed by channel fd; entries live from RegisterChannel to CloseChannel.
  // std::map: handlers adopt channels (insert) mid-drain, and node-based
  // iterators stay valid across that.
  std::map<int, Channel> channels_;
  UniqueFd listener_;
  std::string listen_path_;
  UniqueFd metrics_listener_;
  std::string metrics_listen_path_;
  bool sigusr1_dump_ = false;
  uint64_t spawns_handled_ = 0;

  // Serve-scoped state. The reactor is declared before the children so their
  // watches (which deregister against it) are destroyed first.
  std::optional<Reactor> reactor_;
  UniqueFd sigusr1_fd_;  // signalfd for the stats dump, when enabled
  std::map<pid_t, ChildEntry> children_;
  bool stop_serving_ = false;
  Status serve_error_;
};

// Launches a dedicated fork-server *process* (forked before the caller grows —
// call it early) and returns the client end of its socket. The server process
// serves until shutdown/EOF, then _exits. The returned pid is the server's.
struct ForkServerHandle {
  UniqueFd client_sock;
  pid_t server_pid = -1;
};
Result<ForkServerHandle> StartForkServerProcess();

// Forks a shard process that serves `server`'s (already-listening, shared)
// socket and _exits when Serve returns: 0 on a clean client-initiated
// shutdown, 1 on a transport error. The caller keeps its own copy of the
// listener and supervises the returned pid (forkliftd --shards). The shard
// never unlinks the socket path; the supervisor owns the file.
Result<pid_t> SpawnShardProcess(ForkServer& server);

}  // namespace forklift

#endif  // SRC_FORKSERVER_SERVER_H_
