#include "src/forkserver/protocol.h"

#include <map>

#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/wire.h"

namespace forklift {

namespace {

constexpr uint32_t kMagic = 0x464b4c54;  // "FKLT"

// Plan-op wire tags (decoupled from the enum's in-memory values).
constexpr uint8_t kOpDupToScratch = 1;
constexpr uint8_t kOpDup2 = 2;
constexpr uint8_t kOpOpen = 3;
constexpr uint8_t kOpClose = 4;
constexpr uint8_t kOpCloseScratch = 5;

// Sentinel in the src slot meaning "src is fds[transfer_index]".
constexpr int32_t kSrcIsTransfer = -2;

// Upper bound on the encoded size of a spawn request, so the writer is sized
// once and the encode loop below never reallocates. Fixed-width fields are
// over-counted slightly (optional fields counted as present) — the bound is
// for reservation, not framing.
size_t EstimateSpawnRequestSize(const SpawnRequest& request) {
  size_t n = kFrameHeaderSize;
  n += 4 + request.program.size() + 1;         // program + use_path_search
  n += 4;                                      // argc
  for (size_t i = 0; i < request.argv.size(); ++i) {
    n += 4 + request.argv[i].size();
  }
  n += 4;  // envc
  for (size_t i = 0; i < request.envp.size(); ++i) {
    n += 4 + request.envp[i].size();
  }
  n += 1 + 4 + (request.cwd.has_value() ? request.cwd->size() : 0);  // cwd
  n += 1 + 4;                                  // umask
  n += 4;                                      // the four reset/session bools
  n += (1 + 4) * 2;                            // process_group, nice_value
  n += 4 + request.rlimits.size() * (4 + 8 + 8);
  n += 4;  // nops
  for (const auto& op : request.fd_plan.ops) {
    n += 1 + 4 + 4 + 4 + 4 + 4 + op.path.size();  // worst case: kOpOpen
  }
  n += 4;  // transferred-fd count
  return n;
}

}  // namespace

void EncodeHeaderInto(WireWriter& w, MsgType type, uint64_t request_id) {
  w.PutU32(kMagic);
  w.PutU32(kForkServerProtocolVersion);
  w.PutU32(static_cast<uint32_t>(type));
  w.PutU64(request_id);
}

std::string EncodeHeader(MsgType type, uint64_t request_id) {
  WireWriter w;
  w.Reserve(kFrameHeaderSize);
  EncodeHeaderInto(w, type, request_id);
  return w.Take();
}

Result<FrameHeader> DecodeHeader(WireReader& reader) {
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kMagic) {
    return LogicalError("protocol: bad magic");
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kForkServerProtocolVersion) {
    return LogicalError("protocol: unsupported version " + std::to_string(version));
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t type, reader.GetU32());
  if (type < static_cast<uint32_t>(MsgType::kSpawn) ||
      type > static_cast<uint32_t>(MsgType::kStatsReply)) {
    return LogicalError("protocol: unknown message type " + std::to_string(type));
  }
  FrameHeader hdr;
  hdr.type = static_cast<MsgType>(type);
  FORKLIFT_ASSIGN_OR_RETURN(hdr.request_id, reader.GetU64());
  return hdr;
}

Status EncodeSpawnRequestInto(WireWriter& w, const SpawnRequest& request,
                              std::vector<int>* fds_out, uint64_t request_id) {
  w.Reserve(w.data().size() + EstimateSpawnRequestSize(request));
  EncodeHeaderInto(w, MsgType::kSpawn, request_id);
  fds_out->clear();

  w.PutString(request.program);
  w.PutBool(request.use_path_search);

  w.PutU32(static_cast<uint32_t>(request.argv.size()));
  for (size_t i = 0; i < request.argv.size(); ++i) {
    w.PutString(request.argv[i]);
  }
  w.PutU32(static_cast<uint32_t>(request.envp.size()));
  for (size_t i = 0; i < request.envp.size(); ++i) {
    w.PutString(request.envp[i]);
  }

  w.PutBool(request.cwd.has_value());
  if (request.cwd.has_value()) {
    w.PutString(*request.cwd);
  }
  w.PutBool(request.umask_value.has_value());
  if (request.umask_value.has_value()) {
    w.PutU32(static_cast<uint32_t>(*request.umask_value));
  }
  w.PutBool(request.reset_signal_mask);
  w.PutBool(request.reset_signal_handlers);
  w.PutBool(request.new_session);
  w.PutBool(request.close_other_fds);
  w.PutBool(request.process_group.has_value());
  if (request.process_group.has_value()) {
    w.PutI32(static_cast<int32_t>(*request.process_group));
  }
  w.PutBool(request.nice_value.has_value());
  if (request.nice_value.has_value()) {
    w.PutI32(*request.nice_value);
  }
  w.PutU32(static_cast<uint32_t>(request.rlimits.size()));
  for (const auto& rl : request.rlimits) {
    w.PutI32(rl.resource);
    w.PutU64(rl.limit.rlim_cur);
    w.PutU64(rl.limit.rlim_max);
  }

  // Fd plan: dup2-family sources become transfer indices; each distinct local
  // fd is transferred once.
  std::map<int, uint32_t> transfer_index;
  auto index_of = [&](int fd) -> uint32_t {
    auto it = transfer_index.find(fd);
    if (it != transfer_index.end()) {
      return it->second;
    }
    uint32_t idx = static_cast<uint32_t>(fds_out->size());
    transfer_index[fd] = idx;
    fds_out->push_back(fd);
    return idx;
  };

  w.PutU32(static_cast<uint32_t>(request.fd_plan.ops.size()));
  for (const auto& op : request.fd_plan.ops) {
    switch (op.kind) {
      case CompiledFdOp::Kind::kDupToScratch:
        w.PutU8(kOpDupToScratch);
        w.PutI32(kSrcIsTransfer);
        w.PutU32(index_of(op.src_fd));
        w.PutI32(op.scratch_fd);
        break;
      case CompiledFdOp::Kind::kDup2:
        w.PutU8(kOpDup2);
        // Scratch-sourced dup2s reference the server-side scratch number, not
        // a client fd; everything else is a client fd to transfer.
        if (op.src_fd >= CompiledFdPlan::kScratchBase) {
          w.PutI32(op.src_fd);
          w.PutU32(0);
        } else {
          w.PutI32(kSrcIsTransfer);
          w.PutU32(index_of(op.src_fd));
        }
        w.PutI32(op.dst_fd);
        break;
      case CompiledFdOp::Kind::kOpen:
        w.PutU8(kOpOpen);
        w.PutI32(op.dst_fd);
        w.PutString(op.path);
        w.PutI32(op.flags);
        w.PutU32(static_cast<uint32_t>(op.mode));
        break;
      case CompiledFdOp::Kind::kClose:
        w.PutU8(kOpClose);
        w.PutI32(op.dst_fd);
        break;
      case CompiledFdOp::Kind::kCloseScratch:
        w.PutU8(kOpCloseScratch);
        w.PutI32(op.scratch_fd);
        break;
    }
  }
  // Validate BEFORE the count goes into the frame: emitting first would ship
  // a frame whose declared fd count the transport then refuses, and leaving
  // fds_out populated on failure would let a caller SCM_RIGHTS a half-built
  // descriptor list for a request that was never encoded.
  if (fds_out->size() > kMaxFdsPerFrame) {
    fds_out->clear();
    return LogicalError("EncodeSpawnRequest: plan references too many descriptors");
  }
  w.PutU32(static_cast<uint32_t>(fds_out->size()));
  return w.status();
}

Result<std::string> EncodeSpawnRequest(const SpawnRequest& request, std::vector<int>* fds_out,
                                       uint64_t request_id) {
  WireWriter w;
  FORKLIFT_RETURN_IF_ERROR(EncodeSpawnRequestInto(w, request, fds_out, request_id));
  return w.Take();
}

Result<SpawnRequest> DecodeSpawnRequest(std::string_view payload,
                                        const std::vector<UniqueFd>& received_fds,
                                        uint64_t* request_id) {
  WireReader r(payload);
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (request_id != nullptr) {
    *request_id = hdr.request_id;
  }
  if (hdr.type != MsgType::kSpawn) {
    return LogicalError("DecodeSpawnRequest: wrong message type");
  }
  SpawnRequest req;
  FORKLIFT_ASSIGN_OR_RETURN(req.program, r.GetString());
  FORKLIFT_ASSIGN_OR_RETURN(req.use_path_search, r.GetBool());

  FORKLIFT_ASSIGN_OR_RETURN(uint32_t argc, r.GetU32());
  if (argc > 4096) {
    return LogicalError("DecodeSpawnRequest: argv too large");
  }
  std::vector<std::string> argv;
  for (uint32_t i = 0; i < argc; ++i) {
    FORKLIFT_ASSIGN_OR_RETURN(std::string s, r.GetString());
    argv.push_back(std::move(s));
  }
  req.argv = ArgvBlock(argv);

  FORKLIFT_ASSIGN_OR_RETURN(uint32_t envc, r.GetU32());
  if (envc > 16384) {
    return LogicalError("DecodeSpawnRequest: env too large");
  }
  std::vector<std::string> envp;
  for (uint32_t i = 0; i < envc; ++i) {
    FORKLIFT_ASSIGN_OR_RETURN(std::string s, r.GetString());
    envp.push_back(std::move(s));
  }
  req.envp = ArgvBlock(envp);

  FORKLIFT_ASSIGN_OR_RETURN(bool has_cwd, r.GetBool());
  if (has_cwd) {
    FORKLIFT_ASSIGN_OR_RETURN(std::string cwd, r.GetString());
    req.cwd = std::move(cwd);
  }
  FORKLIFT_ASSIGN_OR_RETURN(bool has_umask, r.GetBool());
  if (has_umask) {
    FORKLIFT_ASSIGN_OR_RETURN(uint32_t m, r.GetU32());
    req.umask_value = static_cast<mode_t>(m);
  }
  FORKLIFT_ASSIGN_OR_RETURN(req.reset_signal_mask, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(req.reset_signal_handlers, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(req.new_session, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(req.close_other_fds, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(bool has_pgid, r.GetBool());
  if (has_pgid) {
    FORKLIFT_ASSIGN_OR_RETURN(int32_t pgid, r.GetI32());
    req.process_group = static_cast<pid_t>(pgid);
  }
  FORKLIFT_ASSIGN_OR_RETURN(bool has_nice, r.GetBool());
  if (has_nice) {
    FORKLIFT_ASSIGN_OR_RETURN(int32_t nice_value, r.GetI32());
    req.nice_value = nice_value;
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t nrlim, r.GetU32());
  if (nrlim > 64) {
    return LogicalError("DecodeSpawnRequest: too many rlimits");
  }
  for (uint32_t i = 0; i < nrlim; ++i) {
    RlimitSpec spec;
    FORKLIFT_ASSIGN_OR_RETURN(spec.resource, r.GetI32());
    FORKLIFT_ASSIGN_OR_RETURN(uint64_t cur, r.GetU64());
    FORKLIFT_ASSIGN_OR_RETURN(uint64_t max, r.GetU64());
    spec.limit.rlim_cur = cur;
    spec.limit.rlim_max = max;
    req.rlimits.push_back(spec);
  }

  FORKLIFT_ASSIGN_OR_RETURN(uint32_t nops, r.GetU32());
  if (nops > 4096) {
    return LogicalError("DecodeSpawnRequest: too many fd ops");
  }
  auto resolve_src = [&received_fds](int32_t src, uint32_t idx) -> Result<int> {
    if (src == kSrcIsTransfer) {
      if (idx >= received_fds.size()) {
        return LogicalError("DecodeSpawnRequest: transfer index out of range");
      }
      return received_fds[idx].get();
    }
    if (src < CompiledFdPlan::kScratchBase) {
      return LogicalError("DecodeSpawnRequest: literal source below scratch base");
    }
    return static_cast<int>(src);
  };
  for (uint32_t i = 0; i < nops; ++i) {
    FORKLIFT_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
    CompiledFdOp op;
    switch (tag) {
      case kOpDupToScratch: {
        op.kind = CompiledFdOp::Kind::kDupToScratch;
        FORKLIFT_ASSIGN_OR_RETURN(int32_t src, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(uint32_t idx, r.GetU32());
        FORKLIFT_ASSIGN_OR_RETURN(op.src_fd, resolve_src(src, idx));
        FORKLIFT_ASSIGN_OR_RETURN(op.scratch_fd, r.GetI32());
        break;
      }
      case kOpDup2: {
        op.kind = CompiledFdOp::Kind::kDup2;
        FORKLIFT_ASSIGN_OR_RETURN(int32_t src, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(uint32_t idx, r.GetU32());
        FORKLIFT_ASSIGN_OR_RETURN(op.src_fd, resolve_src(src, idx));
        FORKLIFT_ASSIGN_OR_RETURN(op.dst_fd, r.GetI32());
        if (op.dst_fd < 0 || op.dst_fd >= CompiledFdPlan::kScratchBase) {
          return LogicalError("DecodeSpawnRequest: dup2 target out of range");
        }
        break;
      }
      case kOpOpen: {
        op.kind = CompiledFdOp::Kind::kOpen;
        FORKLIFT_ASSIGN_OR_RETURN(op.dst_fd, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(op.path, r.GetString());
        FORKLIFT_ASSIGN_OR_RETURN(op.flags, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(uint32_t mode, r.GetU32());
        op.mode = static_cast<mode_t>(mode);
        if (op.dst_fd < 0 || op.dst_fd >= CompiledFdPlan::kScratchBase) {
          return LogicalError("DecodeSpawnRequest: open target out of range");
        }
        break;
      }
      case kOpClose: {
        op.kind = CompiledFdOp::Kind::kClose;
        FORKLIFT_ASSIGN_OR_RETURN(op.dst_fd, r.GetI32());
        if (op.dst_fd < 0) {
          return LogicalError("DecodeSpawnRequest: close target negative");
        }
        break;
      }
      case kOpCloseScratch: {
        op.kind = CompiledFdOp::Kind::kCloseScratch;
        FORKLIFT_ASSIGN_OR_RETURN(op.scratch_fd, r.GetI32());
        break;
      }
      default:
        return LogicalError("DecodeSpawnRequest: unknown fd op tag");
    }
    req.fd_plan.ops.push_back(std::move(op));
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t nfds, r.GetU32());
  if (nfds != received_fds.size()) {
    return LogicalError("DecodeSpawnRequest: fd count mismatch (frame says " +
                        std::to_string(nfds) + ", received " +
                        std::to_string(received_fds.size()) + ")");
  }
  if (!r.AtEnd()) {
    return LogicalError("DecodeSpawnRequest: trailing bytes");
  }
  return req;
}

std::string EncodeSpawnReply(const SpawnReply& reply, uint64_t request_id) {
  WireWriter w;
  w.Reserve(kFrameHeaderSize + 1 + 4 + 4 + 4 + reply.context.size());
  EncodeHeaderInto(w, MsgType::kSpawnReply, request_id);
  w.PutBool(reply.ok);
  w.PutI32(reply.pid);
  w.PutI32(reply.err);
  w.PutString(reply.context);
  return w.Take();
}

Result<SpawnReply> DecodeSpawnReply(std::string_view payload, uint64_t* request_id) {
  WireReader r(payload);
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (request_id != nullptr) {
    *request_id = hdr.request_id;
  }
  if (hdr.type != MsgType::kSpawnReply) {
    return LogicalError("DecodeSpawnReply: wrong message type");
  }
  SpawnReply reply;
  FORKLIFT_ASSIGN_OR_RETURN(reply.ok, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(reply.pid, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(reply.err, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(reply.context, r.GetString());
  if (!r.AtEnd()) {
    return LogicalError("DecodeSpawnReply: trailing bytes");
  }
  return reply;
}

std::string EncodeWait(int32_t pid, uint64_t request_id) {
  WireWriter w;
  w.Reserve(kFrameHeaderSize + 4);
  EncodeHeaderInto(w, MsgType::kWait, request_id);
  w.PutI32(pid);
  return w.Take();
}

Result<int32_t> DecodeWait(std::string_view payload, uint64_t* request_id) {
  WireReader r(payload);
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (request_id != nullptr) {
    *request_id = hdr.request_id;
  }
  if (hdr.type != MsgType::kWait) {
    return LogicalError("DecodeWait: wrong message type");
  }
  FORKLIFT_ASSIGN_OR_RETURN(int32_t pid, r.GetI32());
  if (!r.AtEnd()) {
    return LogicalError("DecodeWait: trailing bytes");
  }
  return pid;
}

std::string EncodeWaitReply(const WaitReply& reply, uint64_t request_id) {
  WireWriter w;
  w.Reserve(kFrameHeaderSize + 3 + 4 * 3 + 4 + reply.context.size());
  EncodeHeaderInto(w, MsgType::kWaitReply, request_id);
  w.PutBool(reply.ok);
  w.PutBool(reply.status.exited);
  w.PutI32(reply.status.exit_code);
  w.PutBool(reply.status.signaled);
  w.PutI32(reply.status.term_signal);
  w.PutI32(reply.err);
  w.PutString(reply.context);
  return w.Take();
}

Result<WaitReply> DecodeWaitReply(std::string_view payload, uint64_t* request_id) {
  WireReader r(payload);
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (request_id != nullptr) {
    *request_id = hdr.request_id;
  }
  if (hdr.type != MsgType::kWaitReply) {
    return LogicalError("DecodeWaitReply: wrong message type");
  }
  WaitReply reply;
  FORKLIFT_ASSIGN_OR_RETURN(reply.ok, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(reply.status.exited, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(reply.status.exit_code, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(reply.status.signaled, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(reply.status.term_signal, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(reply.err, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(reply.context, r.GetString());
  if (!r.AtEnd()) {
    return LogicalError("DecodeWaitReply: trailing bytes");
  }
  return reply;
}

std::string EncodeStatsRequest(uint8_t format, uint64_t request_id) {
  WireWriter w;
  w.Reserve(kFrameHeaderSize + 1);
  EncodeHeaderInto(w, MsgType::kStats, request_id);
  w.PutU8(format);
  return w.Take();
}

Result<uint8_t> DecodeStatsRequest(std::string_view payload, uint64_t* request_id) {
  WireReader r(payload);
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (request_id != nullptr) {
    *request_id = hdr.request_id;
  }
  if (hdr.type != MsgType::kStats) {
    return LogicalError("DecodeStatsRequest: wrong message type");
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint8_t format, r.GetU8());
  if (!r.AtEnd()) {
    return LogicalError("DecodeStatsRequest: trailing bytes");
  }
  return format;
}

std::string EncodeStatsReply(const StatsReply& reply, uint64_t request_id) {
  WireWriter w;
  w.Reserve(kFrameHeaderSize + 1 + 4 + 4 + reply.context.size() + 4 + reply.body.size());
  EncodeHeaderInto(w, MsgType::kStatsReply, request_id);
  w.PutBool(reply.ok);
  w.PutI32(reply.err);
  w.PutString(reply.context);
  w.PutString(reply.body);
  return w.Take();
}

Result<StatsReply> DecodeStatsReply(std::string_view payload, uint64_t* request_id) {
  WireReader r(payload);
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (request_id != nullptr) {
    *request_id = hdr.request_id;
  }
  if (hdr.type != MsgType::kStatsReply) {
    return LogicalError("DecodeStatsReply: wrong message type");
  }
  StatsReply reply;
  FORKLIFT_ASSIGN_OR_RETURN(reply.ok, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(reply.err, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(reply.context, r.GetString());
  FORKLIFT_ASSIGN_OR_RETURN(reply.body, r.GetString());
  if (!r.AtEnd()) {
    return LogicalError("DecodeStatsReply: trailing bytes");
  }
  return reply;
}

std::string EncodeControl(MsgType type, uint64_t request_id) {
  return EncodeHeader(type, request_id);
}

}  // namespace forklift
