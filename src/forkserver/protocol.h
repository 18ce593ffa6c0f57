// forklift/forkserver: the request/reply protocol.
//
// The fork server is the paper's §6 observation made concrete: the ecosystem's
// surviving legitimate use of fork is a small, early-forked "zygote" that
// creates processes on behalf of large clients, because forking a small
// process is cheap while forking the client is not. The protocol ships a
// resolved SpawnRequest (argv/env/attrs/fd-plan) to the zygote; descriptors
// referenced by the plan travel as SCM_RIGHTS and are renumbered on arrival,
// so the plan encodes them as transfer *indices*, not raw fd numbers.
#ifndef SRC_FORKSERVER_PROTOCOL_H_
#define SRC_FORKSERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/syscall.h"
#include "src/common/unique_fd.h"
#include "src/spawn/backend.h"

namespace forklift {

// Every frame starts with the same 20-byte header: {magic, version, type}
// u32 words plus a u64 `request_id`. Replies echo the request_id, which is
// what lets a client keep many requests in flight on one channel and match
// out-of-order completions. There is one protocol version; a frame claiming
// any other is rejected.
inline constexpr uint32_t kForkServerProtocolVersion = 2;
inline constexpr size_t kFrameHeaderSize = 20;

enum class MsgType : uint32_t {
  kSpawn = 1,       // client → server: launch this request
  kSpawnReply = 2,  // server → client: pid or error
  kWait = 3,        // client → server: block until pid exits
  kWaitReply = 4,   // server → client: decoded exit status
  kPing = 5,        // client → server: liveness probe
  kPong = 6,        // server → client
  kShutdown = 7,    // client → server: drain and exit
  kShutdownAck = 8, // server → client
  kNewChannel = 9,      // client → server: adopt the attached socket as a new client
  kNewChannelAck = 10,  // server → client
  kStats = 11,          // client → server: render the metrics registry
  kStatsReply = 12,     // server → client: rendered export (or error)
};

// A SpawnRequest plus the descriptor list its plan references. Local fd
// numbers in dup2 sources are replaced by indices into `fds` during encoding.
struct WireSpawnRequest {
  SpawnRequest request;
  std::vector<int> fds;  // borrowed fds to transfer (encode side)
};

// A decoded frame header: the message type plus the request_id the reply
// must echo.
struct FrameHeader {
  MsgType type = MsgType::kSpawn;
  uint64_t request_id = 0;
};

// Every encoder writes the header {magic, version, type, request_id} and then
// the typed payload. request_id 0 is reserved for the server's uncorrelated
// error reply to a frame whose header it could not parse. Every decoder
// validates the header and, when `request_id` is non-null, stores the frame's
// id there.
void EncodeHeaderInto(class WireWriter& w, MsgType type, uint64_t request_id);
std::string EncodeHeader(MsgType type, uint64_t request_id = 0);
// Decodes and validates the header, leaving the reader at the payload.
Result<FrameHeader> DecodeHeader(class WireReader& reader);

// kSpawn. Returns the payload and fills `fds_out` with the descriptors (in
// transfer order) the frame must carry. The Into variant appends to a
// caller-owned (reusable) writer so a hot-path client can encode every spawn
// into the same scratch buffer; both size the frame up front.
Status EncodeSpawnRequestInto(WireWriter& w, const SpawnRequest& request,
                              std::vector<int>* fds_out, uint64_t request_id = 0);
Result<std::string> EncodeSpawnRequest(const SpawnRequest& request, std::vector<int>* fds_out,
                                       uint64_t request_id = 0);

// Decodes a kSpawn payload. `received_fds` are the SCM_RIGHTS descriptors in
// arrival order; the decoded plan's sources point at their (renumbered) fd
// values. Ownership of the fds stays with the caller; the returned request
// borrows them and must be launched before they are released.
Result<SpawnRequest> DecodeSpawnRequest(std::string_view payload,
                                        const std::vector<UniqueFd>& received_fds,
                                        uint64_t* request_id = nullptr);

// kSpawnReply.
struct SpawnReply {
  bool ok = false;
  int32_t pid = -1;
  int32_t err = 0;
  std::string context;
};
std::string EncodeSpawnReply(const SpawnReply& reply, uint64_t request_id = 0);
Result<SpawnReply> DecodeSpawnReply(std::string_view payload, uint64_t* request_id = nullptr);

// kWait / kWaitReply.
std::string EncodeWait(int32_t pid, uint64_t request_id = 0);
Result<int32_t> DecodeWait(std::string_view payload, uint64_t* request_id = nullptr);

struct WaitReply {
  bool ok = false;
  ExitStatus status;
  int32_t err = 0;
  std::string context;
};
std::string EncodeWaitReply(const WaitReply& reply, uint64_t request_id = 0);
Result<WaitReply> DecodeWaitReply(std::string_view payload, uint64_t* request_id = nullptr);

// kStats / kStatsReply. The request carries one format byte (the
// obs::StatsFormat wire value: 0 = Prometheus text, 1 = JSON); the reply
// carries the rendered export body, or an {err, context} pair when rendering
// failed server-side.
std::string EncodeStatsRequest(uint8_t format, uint64_t request_id = 0);
Result<uint8_t> DecodeStatsRequest(std::string_view payload, uint64_t* request_id = nullptr);

struct StatsReply {
  bool ok = false;
  int32_t err = 0;
  std::string context;
  std::string body;  // the rendered export when ok
};
std::string EncodeStatsReply(const StatsReply& reply, uint64_t request_id = 0);
Result<StatsReply> DecodeStatsReply(std::string_view payload, uint64_t* request_id = nullptr);

// Bare control messages (kPing/kPong/kShutdown/kShutdownAck) are header-only.
std::string EncodeControl(MsgType type, uint64_t request_id = 0);

}  // namespace forklift

#endif  // SRC_FORKSERVER_PROTOCOL_H_
