// forklift/forkserver: the client side — talk to a zygote.
//
// ForkServerClient is the one client of the wire protocol. Every request is
// tagged with a request_id and many may be in flight on one channel at once;
// a dedicated receiver thread matches out-of-order replies back to their
// issuers, so a slow kWait never head-of-line-blocks the other callers
// sharing the socket. A zygote child is NOT our child (its parent is the
// server), so waiting on it is a kWait on the channel that launched it:
// LaunchAsync then WaitAsync on the same client. SpawnService callers reach
// the zygote through the transports in service_adapters.h, whose
// ProcessHandles do exactly that.
#ifndef SRC_FORKSERVER_CLIENT_H_
#define SRC_FORKSERVER_CLIENT_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/syscall.h"
#include "src/common/unique_fd.h"
#include "src/forkserver/protocol.h"
#include "src/obs/export.h"
#include "src/spawn/backend.h"

namespace forklift {

// The pipelined client. Thread-safe: any number of threads may issue
// requests concurrently; each request gets a fresh request_id and a
// completion slot, and the receiver thread completes slots as replies
// arrive — in whatever order the server answers. Completed slots are
// recycled, so the steady-state hot path allocates nothing.
//
// The send path is a flat-combining submission queue: each submitter encodes
// its frame (length prefix inline) into a recycled buffer and enqueues it.
// The first submitter to find no active flusher becomes the flusher and
// drains the queue — everything queued by then, including frames other
// threads appended while it was encoding — in one writev per run. A lone
// request is never delayed: with an empty queue the submitter flushes its own
// frame immediately. Frames carrying fds are sent synchronously (the fds are
// borrowed): the pending run is flushed first for ordering, then the frame
// goes out as a single sendmsg with the fds attached to its own first bytes.
class ForkServerClient final {
  struct Slot;

 public:
  // Takes ownership of the client end of the server's socket and starts the
  // receiver thread.
  explicit ForkServerClient(UniqueFd sock);
  ~ForkServerClient();
  ForkServerClient(const ForkServerClient&) = delete;
  ForkServerClient& operator=(const ForkServerClient&) = delete;

  // Connects to a daemon listening on an AF_UNIX path (ForkServer::Listen /
  // the forkliftd tool).
  static Result<std::unique_ptr<ForkServerClient>> ConnectPath(const std::string& path);

  // A single in-flight request. Await* blocks until the reply (or channel
  // death) and consumes the handle; destroying an un-awaited handle is safe —
  // the reply is discarded when it arrives.
  class PendingReply {
   public:
    PendingReply() = default;
    PendingReply(PendingReply&& other) noexcept;
    PendingReply& operator=(PendingReply&& other) noexcept;
    PendingReply(const PendingReply&) = delete;
    PendingReply& operator=(const PendingReply&) = delete;
    ~PendingReply();

    bool valid() const { return client_ != nullptr; }
    Result<pid_t> AwaitPid();                // expects kSpawnReply
    Result<ExitStatus> AwaitExit();          // expects kWaitReply
    Result<std::string> AwaitStats();        // expects kStatsReply; returns the body
    Status AwaitControl(MsgType expected);   // kPong / kShutdownAck / kNewChannelAck

    // Timed variant of AwaitExit. Timeout returns nullopt and KEEPS the
    // handle valid: the server answers each parked kWait exactly once, so
    // abandoning the request on timeout would lose the exit status — the
    // same in-flight wait stays collectable by a later Await*. Completion
    // (value or transport death) consumes the handle as usual.
    Result<std::optional<ExitStatus>> AwaitExitFor(double timeout_seconds);

   private:
    friend class ForkServerClient;
    PendingReply(ForkServerClient* client, Slot* slot) : client_(client), slot_(slot) {}

    ForkServerClient* client_ = nullptr;
    Slot* slot_ = nullptr;
  };

  // --- pipelined API: submit without waiting, await later ---
  // `request_id` 0 allocates a fresh process-wide id (obs::NextRequestId);
  // a routed caller passes its trace id so the frame on the wire carries it.
  // Pipe stdio is not supported over the wire (create pipes locally and use
  // Stdio::Fd / PassFd — the descriptors travel via SCM_RIGHTS). WaitAsync
  // must go to the channel that launched `pid`: only that server is its
  // parent. It parks server-side on the child's pidfd watch, so it blocks
  // only the awaiting thread, not the channel; AwaitExitFor gives a timed
  // wait that stays collectable.
  Result<PendingReply> LaunchAsync(const SpawnRequest& req, uint64_t request_id = 0);
  Result<PendingReply> WaitAsync(pid_t pid);
  Result<PendingReply> PingAsync();
  Result<PendingReply> StatsAsync(obs::StatsFormat format);

  // --- synchronous API (submit + await) ---

  // Round-trip liveness probe.
  Status Ping();

  // Fetches the server's rendered metrics export (kStats round trip).
  Result<std::string> Stats(obs::StatsFormat format);

  // Asks the server to exit after acknowledging.
  Status Shutdown();

  // Opens an additional private channel to the same server (the new socket
  // travels over this one via SCM_RIGHTS). With pipelining one channel rarely
  // needs company, but private channels still isolate fd-carrying spawns.
  Result<std::unique_ptr<ForkServerClient>> NewChannel();

  // Requests in flight (the sharded router's load metric). Lock-free: a
  // relaxed atomic mirror of pending_.size(), so routers polling every shard
  // per spawn never contend with completion traffic.
  size_t outstanding() const { return outstanding_.load(std::memory_order_relaxed); }

  // True once the transport failed or the server closed the channel; every
  // subsequent submit fails fast with the recorded cause.
  bool dead() const;

 private:
  // The one submit path: registers a completion slot for `request_id` (0
  // allocates one), has `encode(w, id, &fds)` append the complete frame for
  // request `id` and name any descriptors it carries, then queues it.
  template <typename Encode>
  Result<PendingReply> Submit(uint64_t request_id, Encode&& encode);
  // A header-only frame, with `fds` attached (kNewChannel ships a socket).
  Result<PendingReply> SubmitControl(MsgType type, const std::vector<int>& fds);

  // --- submission queue ---
  // Takes a recycled encode buffer (or a fresh one) for a framed encode.
  std::string TakeBuf();
  void RecycleBuf(std::string buf);
  // Enqueues a complete frame (length prefix included); becomes the flusher
  // if none is active. Transport failures are not reported here — they kill
  // the channel (Die) and surface through every pending slot's Await.
  void SubmitFramed(std::string frame);
  // Synchronous fd-carrying submit: waits out any active flusher, drains the
  // queue for ordering, then sends `frame` (prefix included, `fds` attached
  // to its first bytes) as one sendmsg. Like SubmitFramed, a transport
  // failure kills the channel rather than being returned.
  void SubmitFdFrame(std::string_view frame, const std::vector<int>& fds);
  // Drains q_ in gathered runs; called with q_mu_ held and flushing_ set,
  // releases the lock around each writev. On transport failure kills the
  // channel and discards the queue.
  void DrainQueue(std::unique_lock<std::mutex>& lock);

  // Registers a slot for the given id — 0 allocates a fresh one (mu_).
  Slot* AcquireSlotLocked(uint64_t* id_out, uint64_t explicit_id);
  void FreeSlotLocked(Slot* slot);
  // Unregisters + frees a slot whose frame never hit the wire.
  void AbortSubmit(uint64_t id, Slot* slot);

  Result<pid_t> AwaitSpawn(Slot* slot);
  Result<ExitStatus> AwaitWait(Slot* slot);
  Result<std::string> AwaitStatsSlot(Slot* slot);
  Result<std::optional<ExitStatus>> AwaitWaitFor(Slot* slot, double timeout_seconds);
  Status AwaitControlSlot(Slot* slot, MsgType expected);
  void DiscardSlot(Slot* slot);  // un-awaited handle destroyed

  void ReceiverLoop();
  void DispatchFrame(const struct Frame& frame);
  // Fails every pending request and marks the channel dead.
  void Die(const Status& cause);

  UniqueFd sock_;

  // Send side: the flat-combining submission queue. q_mu_ protects the queue
  // and flusher election only — it is never held across a syscall (DrainQueue
  // releases it around each writev) and never taken together with mu_.
  std::mutex q_mu_;
  std::condition_variable q_cv_;  // signaled when flushing_ clears
  std::vector<std::string> q_;    // complete frames awaiting the wire
  std::vector<std::string> spare_bufs_;  // recycled encode buffers
  bool flushing_ = false;

  // Completion state shared with the receiver thread. Request ids come from
  // the process-wide obs::NextRequestId counter (they double as trace ids),
  // so there is no per-channel id state.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Slot*> pending_;
  std::vector<std::unique_ptr<Slot>> slots_;  // owns every slot ever created
  std::vector<Slot*> free_;                   // completed slots ready for reuse
  std::atomic<size_t> outstanding_{0};        // mirrors pending_.size()
  bool dead_ = false;
  Status death_ = Status::Ok();

  std::thread receiver_;  // started last, joined first
};

}  // namespace forklift

#endif  // SRC_FORKSERVER_CLIENT_H_
