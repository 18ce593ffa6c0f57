#include "src/forkserver/client.h"

#include <sys/socket.h>
#include <sys/un.h>

#include <chrono>
#include <utility>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/wire.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace forklift {

namespace {

// Maps a server-side {ok, err, context} reply triple onto the local error
// channel.
Status ReplyToStatus(bool ok, int32_t err, const std::string& context, const char* what) {
  if (ok) {
    return Status::Ok();
  }
  if (err != 0) {
    return Err(Error(err, std::string(what) + ": " + context));
  }
  return LogicalError(std::string(what) + ": " + context);
}

// Submission-queue flush caps: one run never exceeds this many frames or
// bytes, so a burst can't grow a single writev without bound while
// submitters keep appending (fairness: later frames ride the next run).
constexpr size_t kMaxFlushFrames = 64;
constexpr size_t kMaxFlushBytes = 256u << 10;
constexpr size_t kMaxSpareBufs = 64;

obs::Histogram& FramesPerFlush() {
  static obs::Histogram h =
      obs::MetricsRegistry::Global().GetHistogram("forklift_wire_frames_per_flush");
  return h;
}

// The client's socket-connect path (and the fault site the sweep drives to
// prove a refused/failed connect degrades cleanly).
Result<UniqueFd> ConnectUnixSocket(const std::string& path, const char* who) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return LogicalError(std::string(who) + ": socket path too long");
  }
  int fd;
  auto inj = fault::Check("client.connect_socket", fault::Op::kCreateFd);
  if (inj.is_errno()) {
    fd = -1;
    errno = inj.err;
  } else {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  }
  if (fd < 0) {
    return ErrnoError("socket (forkserver client)");
  }
  UniqueFd sock(fd);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoError("connect " + path);
  }
  return sock;
}

}  // namespace

// ---------------------------------------------------------------------------
// ForkServerClient

// A completion slot. Lifetime: acquired (registered in pending_) at submit,
// filled by the receiver, released back to free_ by the awaiting caller — or
// by the receiver itself if the caller dropped the handle first. All fields
// are guarded by mu_.
struct ForkServerClient::Slot {
  uint64_t id = 0;
  bool done = false;
  bool abandoned = false;      // handle destroyed before the reply arrived
  Status transport = Status::Ok();
  MsgType type = MsgType::kSpawn;
  SpawnReply spawn;
  WaitReply wait;
  StatsReply stats;
};

ForkServerClient::ForkServerClient(UniqueFd sock) : sock_(std::move(sock)) {
  receiver_ = std::thread([this] { ReceiverLoop(); });
}

ForkServerClient::~ForkServerClient() {
  // Wake the receiver out of recvmsg; it marks the channel dead (failing any
  // still-pending requests) and exits.
  if (receiver_.joinable()) {
    ::shutdown(sock_.get(), SHUT_RDWR);
    receiver_.join();
  }
}

Result<std::unique_ptr<ForkServerClient>> ForkServerClient::ConnectPath(
    const std::string& path) {
  FORKLIFT_ASSIGN_OR_RETURN(UniqueFd sock,
                            ConnectUnixSocket(path, "ForkServerClient::ConnectPath"));
  return std::make_unique<ForkServerClient>(std::move(sock));
}

ForkServerClient::Slot* ForkServerClient::AcquireSlotLocked(uint64_t* id_out,
                                                            uint64_t explicit_id) {
  Slot* slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slots_.push_back(std::make_unique<Slot>());
    slot = slots_.back().get();
  }
  *id_out = explicit_id != 0 ? explicit_id : obs::NextRequestId();
  slot->id = *id_out;
  slot->done = false;
  slot->abandoned = false;
  slot->transport = Status::Ok();
  pending_.emplace(*id_out, slot);
  outstanding_.store(pending_.size(), std::memory_order_relaxed);
  return slot;
}

void ForkServerClient::FreeSlotLocked(Slot* slot) {
  slot->spawn.context.clear();
  slot->wait.context.clear();
  slot->stats.context.clear();
  slot->stats.body.clear();
  free_.push_back(slot);
}

void ForkServerClient::AbortSubmit(uint64_t id, Slot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  // Abort happens only on encode failures now — nothing hit the wire, no
  // reply can exist — but a concurrent Die may have completed the slot;
  // either way nobody holds a handle, so recycle it.
  pending_.erase(id);
  outstanding_.store(pending_.size(), std::memory_order_relaxed);
  FreeSlotLocked(slot);
}

// --- submission queue ---

std::string ForkServerClient::TakeBuf() {
  std::lock_guard<std::mutex> lock(q_mu_);
  if (spare_bufs_.empty()) {
    return std::string();
  }
  std::string buf = std::move(spare_bufs_.back());
  spare_bufs_.pop_back();
  return buf;
}

void ForkServerClient::RecycleBuf(std::string buf) {
  buf.clear();
  std::lock_guard<std::mutex> lock(q_mu_);
  if (spare_bufs_.size() < kMaxSpareBufs) {
    spare_bufs_.push_back(std::move(buf));
  }
}

void ForkServerClient::SubmitFramed(std::string frame) {
  std::unique_lock<std::mutex> lock(q_mu_);
  q_.push_back(std::move(frame));
  if (flushing_) {
    // An active flusher picks this frame up in its next run — that is the
    // coalescing: our frame rides someone else's writev and we return now.
    return;
  }
  // No flusher and we just made the queue non-empty: flush it ourselves. A
  // lone request is therefore never delayed waiting for company.
  flushing_ = true;
  DrainQueue(lock);
  flushing_ = false;
  lock.unlock();
  q_cv_.notify_all();
}

void ForkServerClient::DrainQueue(std::unique_lock<std::mutex>& lock) {
  std::vector<std::string> run;
  std::vector<struct iovec> iov;
  while (!q_.empty()) {
    size_t take = 0;
    size_t bytes = 0;
    while (take < q_.size() && take < kMaxFlushFrames && bytes < kMaxFlushBytes) {
      bytes += q_[take].size();
      ++take;
    }
    run.assign(std::make_move_iterator(q_.begin()),
               std::make_move_iterator(q_.begin() + take));
    q_.erase(q_.begin(), q_.begin() + take);
    // Release the lock around the write: submitters appending during the
    // syscall form the next run.
    lock.unlock();
    iov.resize(run.size());
    for (size_t i = 0; i < run.size(); ++i) {
      iov[i].iov_base = run[i].data();
      iov[i].iov_len = run[i].size();
    }
    auto sent = SendGathered(sock_.get(), iov.data(), iov.size(), {});
    FramesPerFlush().Observe(run.size());
    if (!sent.ok()) {
      Die(Err(sent.error()));
      lock.lock();
      // Die already failed every queued frame's slot; the bytes are dead.
      q_.clear();
      return;
    }
    lock.lock();
    for (auto& buf : run) {
      buf.clear();
      if (spare_bufs_.size() < kMaxSpareBufs) {
        spare_bufs_.push_back(std::move(buf));
      }
    }
    run.clear();
  }
}

void ForkServerClient::SubmitFdFrame(std::string_view frame, const std::vector<int>& fds) {
  std::unique_lock<std::mutex> lock(q_mu_);
  q_cv_.wait(lock, [this] { return !flushing_; });
  flushing_ = true;
  // Ordering: everything queued before us must hit the wire first.
  DrainQueue(lock);
  lock.unlock();
  // `frame` carries its length prefix, which SendFrame re-derives — strip it
  // and let SendFrame's combined sendmsg (and its zero-progress fallback)
  // attach the fds to the prefix bytes.
  Status st = SendFrame(sock_.get(), frame.substr(4), fds);
  if (!st.ok()) {
    Die(st);
  }
  lock.lock();
  if (st.ok()) {
    // Frames enqueued while we were inside SendFrame saw flushing_ == true
    // and returned, counting on the active flusher to ship them. We are that
    // flusher: drain again before stepping down, or those frames sit queued
    // with nobody responsible and their submitters hang in Await*.
    DrainQueue(lock);
  } else {
    // Die already failed every pending slot; the queued bytes are dead.
    q_.clear();
  }
  flushing_ = false;
  lock.unlock();
  q_cv_.notify_all();
}

// Submit contract: a returned error means the frame never hit the wire (the
// slot was recycled, the request is safely retryable elsewhere — the sharded
// router relies on this). Once the frame is queued, transport failures are
// not reported here: they kill the channel and surface through Await*.
template <typename Encode>
Result<ForkServerClient::PendingReply> ForkServerClient::Submit(uint64_t request_id,
                                                                Encode&& encode) {
  uint64_t id;
  Slot* slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) {
      return Err(death_.error());
    }
    slot = AcquireSlotLocked(&id, request_id);
  }
  WireWriter w;
  w.AdoptBuffer(TakeBuf());
  w.PutU32(0);  // length prefix, backfilled once the size is known
  std::vector<int> fds;
  Status st = encode(w, id, &fds);
  if (st.ok()) {
    w.PokeU32(0, static_cast<uint32_t>(w.size() - 4));
    st = w.status();
  }
  if (!st.ok()) {
    AbortSubmit(id, slot);
    return Err(st.error());
  }
  if (fds.empty()) {
    SubmitFramed(w.Take());
  } else {
    // The fds are borrowed from the caller, so the frame cannot sit in the
    // queue past this call's return: send synchronously.
    SubmitFdFrame(w.data(), fds);
    RecycleBuf(w.Take());
  }
  return PendingReply(this, slot);
}

Result<ForkServerClient::PendingReply> ForkServerClient::SubmitControl(
    MsgType type, const std::vector<int>& fds) {
  return Submit(0, [type, &fds](WireWriter& w, uint64_t id, std::vector<int>* fds_out) {
    EncodeHeaderInto(w, type, id);
    *fds_out = fds;
    return Status::Ok();
  });
}

Result<ForkServerClient::PendingReply> ForkServerClient::LaunchAsync(const SpawnRequest& req,
                                                                     uint64_t request_id) {
  // The id on the wire IS the trace id, so the encode+send span correlates
  // with the service's submit/route spans without any plumbing.
  if (request_id == 0) {
    request_id = obs::NextRequestId();
  }
  const uint64_t send_start = MonotonicNanos();
  auto pending = Submit(request_id, [&req](WireWriter& w, uint64_t id, std::vector<int>* fds) {
    return EncodeSpawnRequestInto(w, req, fds, id);
  });
  if (pending.ok()) {
    obs::Tracer::Global().Record(request_id, "wire.send", send_start, MonotonicNanos());
  }
  return pending;
}

Result<ForkServerClient::PendingReply> ForkServerClient::WaitAsync(pid_t pid) {
  return Submit(0, [pid](WireWriter& w, uint64_t id, std::vector<int>*) {
    EncodeHeaderInto(w, MsgType::kWait, id);
    w.PutI32(static_cast<int32_t>(pid));
    return Status::Ok();
  });
}

Result<ForkServerClient::PendingReply> ForkServerClient::PingAsync() {
  return SubmitControl(MsgType::kPing, {});
}

Result<ForkServerClient::PendingReply> ForkServerClient::StatsAsync(obs::StatsFormat format) {
  return Submit(0, [format](WireWriter& w, uint64_t id, std::vector<int>*) {
    EncodeHeaderInto(w, MsgType::kStats, id);
    w.PutU8(static_cast<uint8_t>(format));
    return Status::Ok();
  });
}

Result<pid_t> ForkServerClient::AwaitSpawn(Slot* slot) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [slot] { return slot->done; });
  Status transport = slot->transport;
  MsgType type = slot->type;
  SpawnReply reply = std::move(slot->spawn);
  FreeSlotLocked(slot);
  lock.unlock();
  FORKLIFT_RETURN_IF_ERROR(transport);
  if (type != MsgType::kSpawnReply) {
    return LogicalError("forkserver client: expected spawn reply");
  }
  FORKLIFT_RETURN_IF_ERROR(ReplyToStatus(reply.ok, reply.err, reply.context, "forkserver spawn"));
  return static_cast<pid_t>(reply.pid);
}

Result<ExitStatus> ForkServerClient::AwaitWait(Slot* slot) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [slot] { return slot->done; });
  Status transport = slot->transport;
  MsgType type = slot->type;
  WaitReply reply = std::move(slot->wait);
  FreeSlotLocked(slot);
  lock.unlock();
  FORKLIFT_RETURN_IF_ERROR(transport);
  if (type != MsgType::kWaitReply) {
    return LogicalError("forkserver client: expected wait reply");
  }
  FORKLIFT_RETURN_IF_ERROR(ReplyToStatus(reply.ok, reply.err, reply.context, "forkserver wait"));
  return reply.status;
}

Result<std::optional<ExitStatus>> ForkServerClient::AwaitWaitFor(Slot* slot,
                                                                 double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_seconds < 0) {
    timeout_seconds = 0;
  }
  bool done = cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                           [slot] { return slot->done; });
  if (!done) {
    // Leave the slot registered: the server still owes exactly one reply for
    // this request_id, and a later Await* collects it.
    return std::optional<ExitStatus>();
  }
  Status transport = slot->transport;
  MsgType type = slot->type;
  WaitReply reply = std::move(slot->wait);
  FreeSlotLocked(slot);
  lock.unlock();
  FORKLIFT_RETURN_IF_ERROR(transport);
  if (type != MsgType::kWaitReply) {
    return LogicalError("forkserver client: expected wait reply");
  }
  FORKLIFT_RETURN_IF_ERROR(ReplyToStatus(reply.ok, reply.err, reply.context, "forkserver wait"));
  return std::optional<ExitStatus>(reply.status);
}

Result<std::string> ForkServerClient::AwaitStatsSlot(Slot* slot) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [slot] { return slot->done; });
  Status transport = slot->transport;
  MsgType type = slot->type;
  StatsReply reply = std::move(slot->stats);
  FreeSlotLocked(slot);
  lock.unlock();
  FORKLIFT_RETURN_IF_ERROR(transport);
  if (type != MsgType::kStatsReply) {
    return LogicalError("forkserver client: expected stats reply");
  }
  FORKLIFT_RETURN_IF_ERROR(ReplyToStatus(reply.ok, reply.err, reply.context, "forkserver stats"));
  return std::move(reply.body);
}

Status ForkServerClient::AwaitControlSlot(Slot* slot, MsgType expected) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [slot] { return slot->done; });
  Status transport = slot->transport;
  MsgType type = slot->type;
  SpawnReply reply = std::move(slot->spawn);  // server-side errors ride a SpawnReply
  FreeSlotLocked(slot);
  lock.unlock();
  FORKLIFT_RETURN_IF_ERROR(transport);
  if (type == MsgType::kSpawnReply) {
    FORKLIFT_RETURN_IF_ERROR(ReplyToStatus(reply.ok, reply.err, reply.context, "forkserver"));
  }
  if (type != expected) {
    return LogicalError("forkserver client: unexpected reply type");
  }
  return Status::Ok();
}

void ForkServerClient::DiscardSlot(Slot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot->done) {
    FreeSlotLocked(slot);
  } else {
    // Still in flight: the receiver recycles it when the reply arrives.
    slot->abandoned = true;
  }
}

void ForkServerClient::Die(const Status& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
  death_ = cause;
  for (auto& [id, slot] : pending_) {
    slot->done = true;
    slot->transport = cause;
    if (slot->abandoned) {
      FreeSlotLocked(slot);
    }
  }
  pending_.clear();
  outstanding_.store(0, std::memory_order_relaxed);
  cv_.notify_all();
}

void ForkServerClient::DispatchFrame(const Frame& frame) {
  WireReader reader(frame.payload);
  auto hdr = DecodeHeader(reader);
  if (!hdr.ok()) {
    Die(Err(hdr.error()));
    return;
  }
  if (hdr->request_id == 0) {
    // The server's uncorrelated error reply to a frame whose header it could
    // not parse: the reply names no request, so the channel's framing can no
    // longer be trusted. Fail pending requests rather than hang them.
    Die(LogicalError("forkserver client: uncorrelated error reply (server could not parse "
                     "a frame header)"));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(hdr->request_id);
  if (it == pending_.end()) {
    return;  // reply to an aborted submit; drop it
  }
  Slot* slot = it->second;
  pending_.erase(it);
  outstanding_.store(pending_.size(), std::memory_order_relaxed);
  slot->type = hdr->type;
  switch (hdr->type) {
    case MsgType::kSpawnReply: {
      auto reply = DecodeSpawnReply(frame.payload);
      if (reply.ok()) {
        slot->spawn = std::move(*reply);
      } else {
        slot->transport = Err(reply.error());
      }
      break;
    }
    case MsgType::kWaitReply: {
      auto reply = DecodeWaitReply(frame.payload);
      if (reply.ok()) {
        slot->wait = std::move(*reply);
      } else {
        slot->transport = Err(reply.error());
      }
      break;
    }
    case MsgType::kStatsReply: {
      auto reply = DecodeStatsReply(frame.payload);
      if (reply.ok()) {
        slot->stats = std::move(*reply);
      } else {
        slot->transport = Err(reply.error());
      }
      break;
    }
    default:
      break;  // control acks carry no body
  }
  slot->done = true;
  if (slot->abandoned) {
    FreeSlotLocked(slot);
  }
  cv_.notify_all();
}

void ForkServerClient::ReceiverLoop() {
  // Drain-everything receive: one recvmsg gulp pulls in however many replies
  // the server coalesced into its writev, and every complete frame is
  // dispatched before the next syscall. The Frame lives for the life of the
  // channel so its payload capacity is reused.
  FrameBuffer fb;
  Frame frame;
  for (;;) {
    auto has = fb.Next(&frame);
    if (!has.ok()) {
      Die(Err(has.error()));
      return;
    }
    if (*has) {
      DispatchFrame(frame);
      continue;
    }
    auto drained = DrainSocketInto(sock_.get(), &fb);
    if (!drained.ok()) {
      Die(Err(drained.error()));
      return;
    }
    if (drained->eof) {
      Die(LogicalError(fb.buffered() != 0
                           ? "forkserver client: server closed mid-frame"
                           : "forkserver client: server closed the channel"));
      return;
    }
    if (drained->would_block) {
      // Only possible if the socket is O_NONBLOCK (it is not today); park
      // until readable rather than spinning.
      Status st = WaitFdReadable(sock_.get());
      if (!st.ok()) {
        Die(st);
        return;
      }
    }
  }
}

bool ForkServerClient::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

Status ForkServerClient::Ping() {
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending, PingAsync());
  return pending.AwaitControl(MsgType::kPong);
}

Result<std::string> ForkServerClient::Stats(obs::StatsFormat format) {
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending, StatsAsync(format));
  return pending.AwaitStats();
}

Status ForkServerClient::Shutdown() {
  auto pending = SubmitControl(MsgType::kShutdown, {});
  if (!pending.ok()) {
    if (dead()) {
      return Status::Ok();  // server already gone: shutdown achieved regardless
    }
    return Err(pending.error());
  }
  Status st = pending->AwaitControl(MsgType::kShutdownAck);
  if (!st.ok() && dead()) {
    return Status::Ok();  // server died at EOF instead of acking: same outcome
  }
  return st;
}

Result<std::unique_ptr<ForkServerClient>> ForkServerClient::NewChannel() {
  FORKLIFT_ASSIGN_OR_RETURN(SocketPair sp, MakeSocketPair());
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending,
                            SubmitControl(MsgType::kNewChannel, {sp.second.get()}));
  FORKLIFT_RETURN_IF_ERROR(pending.AwaitControl(MsgType::kNewChannelAck));
  return std::make_unique<ForkServerClient>(std::move(sp.first));
}

// --- PendingReply ---

ForkServerClient::PendingReply::PendingReply(PendingReply&& other) noexcept
    : client_(other.client_), slot_(other.slot_) {
  other.client_ = nullptr;
  other.slot_ = nullptr;
}

ForkServerClient::PendingReply& ForkServerClient::PendingReply::operator=(
    PendingReply&& other) noexcept {
  if (this != &other) {
    if (client_ != nullptr) {
      client_->DiscardSlot(slot_);
    }
    client_ = other.client_;
    slot_ = other.slot_;
    other.client_ = nullptr;
    other.slot_ = nullptr;
  }
  return *this;
}

ForkServerClient::PendingReply::~PendingReply() {
  if (client_ != nullptr) {
    client_->DiscardSlot(slot_);
  }
}

Result<pid_t> ForkServerClient::PendingReply::AwaitPid() {
  if (!valid()) {
    return LogicalError("PendingReply::AwaitPid on empty handle");
  }
  ForkServerClient* client = client_;
  Slot* slot = slot_;
  client_ = nullptr;
  slot_ = nullptr;
  return client->AwaitSpawn(slot);
}

Result<ExitStatus> ForkServerClient::PendingReply::AwaitExit() {
  if (!valid()) {
    return LogicalError("PendingReply::AwaitExit on empty handle");
  }
  ForkServerClient* client = client_;
  Slot* slot = slot_;
  client_ = nullptr;
  slot_ = nullptr;
  return client->AwaitWait(slot);
}

Result<std::optional<ExitStatus>> ForkServerClient::PendingReply::AwaitExitFor(
    double timeout_seconds) {
  if (!valid()) {
    return LogicalError("PendingReply::AwaitExitFor on empty handle");
  }
  auto st = client_->AwaitWaitFor(slot_, timeout_seconds);
  if (st.ok() && !st.value().has_value()) {
    return st;  // timed out: handle stays valid, the wait stays parked
  }
  // Completed (value or transport/protocol error): AwaitWaitFor freed the
  // slot either way, so the handle must be consumed on both paths.
  client_ = nullptr;
  slot_ = nullptr;
  return st;
}

Result<std::string> ForkServerClient::PendingReply::AwaitStats() {
  if (!valid()) {
    return LogicalError("PendingReply::AwaitStats on empty handle");
  }
  ForkServerClient* client = client_;
  Slot* slot = slot_;
  client_ = nullptr;
  slot_ = nullptr;
  return client->AwaitStatsSlot(slot);
}

Status ForkServerClient::PendingReply::AwaitControl(MsgType expected) {
  if (!valid()) {
    return LogicalError("PendingReply::AwaitControl on empty handle");
  }
  ForkServerClient* client = client_;
  Slot* slot = slot_;
  client_ = nullptr;
  slot_ = nullptr;
  return client->AwaitControlSlot(slot, expected);
}

}  // namespace forklift
