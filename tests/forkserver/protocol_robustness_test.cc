// Wire-protocol robustness: every message type round-trips; every decoder
// rejects trailing garbage, rejects truncation at every byte offset, and
// survives single-bit header corruption with a clean error — never a crash,
// hang, or sanitizer report.
//
// Regressions pinned here (fail on pre-fix code):
//   * DecodeSpawnReply / DecodeWait / DecodeWaitReply accepted frames with
//     trailing bytes, silently ignoring whatever a confused (or hostile) peer
//     appended.
//   * EncodeSpawnRequest emitted the fd-count field before validating it
//     against kMaxFdsPerFrame, and left a partially-populated fds_out on
//     failure for the caller to mistakenly ship.
#include "src/forkserver/protocol.h"

#include <errno.h>
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <string>
#include <vector>

#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/wire.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

SpawnRequest MakeSampleRequest() {
  Spawner s("/bin/echo");
  s.Arg("hello").SetEnv("K", "V").SetCwd("/tmp").SetUmask(022);
  s.AddRlimit(RLIMIT_NOFILE, 128, 256);
  s.fd_plan().Dup2(2, 1).Dup2(1, 2);  // forces two fd transfers on the wire
  auto req = s.BuildRequest();
  EXPECT_TRUE(req.ok());
  return std::move(req).value();
}

std::string SampleSpawnPayload() {
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(MakeSampleRequest(), &fds);
  EXPECT_TRUE(payload.ok());
  return *payload;
}

std::string SampleSpawnReply() {
  SpawnReply reply;
  reply.ok = false;
  reply.err = ENOENT;
  reply.context = "child execve";
  return EncodeSpawnReply(reply);
}

std::string SampleWaitReply() {
  WaitReply reply;
  reply.ok = true;
  reply.status.exited = true;
  reply.status.exit_code = 3;
  return EncodeWaitReply(reply);
}

// --- trailing-garbage rejection (regression: decoders stopped at the last
// field and never checked AtEnd) ---

TEST(ProtocolRobustnessTest, SpawnReplyRejectsTrailingBytes) {
  std::string payload = SampleSpawnReply();
  ASSERT_TRUE(DecodeSpawnReply(payload).ok());
  payload.push_back('\x00');
  auto decoded = DecodeSpawnReply(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), 0) << "must be a LogicalError, not errno";
  EXPECT_NE(decoded.error().ToString().find("trailing"), std::string::npos);
}

TEST(ProtocolRobustnessTest, WaitRejectsTrailingBytes) {
  std::string payload = EncodeWait(777);
  ASSERT_TRUE(DecodeWait(payload).ok());
  payload.append("junk");
  auto decoded = DecodeWait(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().ToString().find("trailing"), std::string::npos);
}

TEST(ProtocolRobustnessTest, WaitReplyRejectsTrailingBytes) {
  std::string payload = SampleWaitReply();
  ASSERT_TRUE(DecodeWaitReply(payload).ok());
  payload.push_back('\x7f');
  auto decoded = DecodeWaitReply(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().ToString().find("trailing"), std::string::npos);
}

TEST(ProtocolRobustnessTest, SpawnRequestRejectsTrailingBytes) {
  std::string payload = SampleSpawnPayload();
  std::vector<UniqueFd> received;
  received.emplace_back(::dup(0));
  received.emplace_back(::dup(0));
  ASSERT_TRUE(DecodeSpawnRequest(payload, received).ok());
  payload.push_back('\x01');
  EXPECT_FALSE(DecodeSpawnRequest(payload, received).ok());
}

// --- encoder validate-before-emit (regression: too many fds errored only
// after writing the count and populating fds_out) ---

TEST(ProtocolRobustnessTest, EncodeRejectsTooManyFdsAndClearsOutput) {
  Spawner s("/bin/true");
  for (int i = 0; i <= static_cast<int>(kMaxFdsPerFrame); ++i) {
    // 65 distinct sources → 65 transfer slots, one over the frame limit. The
    // fds are never dup'd or sent, so fictitious (in-range) numbers are fine.
    s.fd_plan().Dup2(200 + i, 10 + i);
  }
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());

  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(*req, &fds);
  ASSERT_FALSE(payload.ok());
  EXPECT_NE(payload.error().ToString().find("too many descriptors"), std::string::npos);
  EXPECT_TRUE(fds.empty()) << "failed encode must not leave fds for the caller to ship";
}

TEST(ProtocolRobustnessTest, EncodeAcceptsExactlyMaxFds) {
  Spawner s("/bin/true");
  for (int i = 0; i < static_cast<int>(kMaxFdsPerFrame); ++i) {
    s.fd_plan().Dup2(200 + i, 10 + i);
  }
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(*req, &fds);
  ASSERT_TRUE(payload.ok()) << payload.error().ToString();
  EXPECT_EQ(fds.size(), kMaxFdsPerFrame);
}

// --- round trips for every message type ---

TEST(ProtocolRobustnessTest, EveryMessageTypeRoundTrips) {
  {
    std::vector<int> fds;
    auto payload = EncodeSpawnRequest(MakeSampleRequest(), &fds);
    ASSERT_TRUE(payload.ok());
    std::vector<UniqueFd> received;
    for (int fd : fds) {
      received.emplace_back(::dup(fd));
    }
    EXPECT_TRUE(DecodeSpawnRequest(*payload, received).ok());
  }
  {
    auto out = DecodeSpawnReply(SampleSpawnReply());
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->ok);
    EXPECT_EQ(out->err, ENOENT);
    EXPECT_EQ(out->context, "child execve");
  }
  {
    auto pid = DecodeWait(EncodeWait(31337));
    ASSERT_TRUE(pid.ok());
    EXPECT_EQ(*pid, 31337);
  }
  {
    auto out = DecodeWaitReply(SampleWaitReply());
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->ok);
    EXPECT_TRUE(out->status.exited);
    EXPECT_EQ(out->status.exit_code, 3);
  }
  for (MsgType t : {MsgType::kPing, MsgType::kPong, MsgType::kShutdown,
                    MsgType::kShutdownAck, MsgType::kNewChannel, MsgType::kNewChannelAck}) {
    std::string payload = EncodeControl(t);
    WireReader reader(payload);
    auto hdr = DecodeHeader(reader);
    ASSERT_TRUE(hdr.ok());
    EXPECT_EQ(hdr->type, t);
    EXPECT_EQ(hdr->request_id, 0u);
    EXPECT_TRUE(reader.AtEnd());
  }
}

// --- truncation at every byte offset, for every message type ---

void ExpectAllTruncationsRejected(const std::string& payload, const char* what) {
  std::vector<UniqueFd> no_fds;
  for (size_t len = 0; len < payload.size(); ++len) {
    std::string cut = payload.substr(0, len);
    EXPECT_FALSE(DecodeSpawnRequest(cut, no_fds).ok()) << what << " cut at " << len;
    EXPECT_FALSE(DecodeSpawnReply(cut).ok()) << what << " cut at " << len;
    EXPECT_FALSE(DecodeWait(cut).ok()) << what << " cut at " << len;
    EXPECT_FALSE(DecodeWaitReply(cut).ok()) << what << " cut at " << len;
    WireReader reader(cut);
    auto hdr = DecodeHeader(reader);
    if (len >= kFrameHeaderSize) {
      // Full header survives a payload truncation; the typed decode above
      // already proved the body is rejected.
      continue;
    }
    EXPECT_FALSE(hdr.ok()) << what << " header cut at " << len;
  }
}

TEST(ProtocolRobustnessTest, TruncationAtEveryOffsetRejected) {
  ExpectAllTruncationsRejected(SampleSpawnPayload(), "spawn request");
  ExpectAllTruncationsRejected(SampleSpawnReply(), "spawn reply");
  ExpectAllTruncationsRejected(EncodeWait(777), "wait");
  ExpectAllTruncationsRejected(SampleWaitReply(), "wait reply");
  ExpectAllTruncationsRejected(EncodeControl(MsgType::kPing), "ping");
}

TEST(ProtocolRobustnessTest, TruncationAtEveryOffsetRejectedWithRequestId) {
  // The header ends in a u64 request_id; any cut inside it must reject the
  // header, not read past the end.
  const uint64_t id = 0x0123456789abcdefull;
  ExpectAllTruncationsRejected(EncodeWait(777, id), "wait with id");
  ExpectAllTruncationsRejected(EncodeControl(MsgType::kPing, id), "ping with id");
  SpawnReply reply;
  reply.ok = false;
  reply.err = ENOENT;
  reply.context = "child execve";
  ExpectAllTruncationsRejected(EncodeSpawnReply(reply, id), "spawn reply with id");
}

// --- single-bit corruption of the header's magic, version and type words ---

TEST(ProtocolRobustnessTest, HeaderBitFlipsNeverCrashTypedDecoders) {
  const std::string payloads[] = {SampleSpawnPayload(), SampleSpawnReply(),
                                  EncodeWait(777), SampleWaitReply()};
  std::vector<UniqueFd> no_fds;
  for (const std::string& base : payloads) {
    ASSERT_GE(base.size(), kFrameHeaderSize);
    for (size_t bit = 0; bit < 12 * 8; ++bit) {
      std::string mutated = base;
      mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      // A flipped header can never satisfy a typed decoder: magic, version, or
      // expected type no longer matches. The decode must fail cleanly.
      EXPECT_FALSE(DecodeSpawnRequest(mutated, no_fds).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeSpawnReply(mutated).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeWait(mutated).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeWaitReply(mutated).ok()) << "bit " << bit;
    }
  }
}

TEST(ProtocolRobustnessTest, HeaderBitFlipsOnControlFramesAreSafe) {
  for (MsgType t : {MsgType::kPing, MsgType::kShutdown}) {
    const std::string base = EncodeControl(t);
    // Magic, version and type; request_id flips have their own test below.
    for (size_t bit = 0; bit < 12 * 8; ++bit) {
      std::string mutated = base;
      mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      WireReader reader(mutated);
      auto hdr = DecodeHeader(reader);
      if (hdr.ok()) {
        // A type-field flip can legally produce a *different* valid type; the
        // property is that it never yields the original unchanged.
        EXPECT_NE(hdr->type, t) << "bit " << bit << " flipped to the same type";
      } else {
        EXPECT_EQ(hdr.error().code(), 0) << "must be LogicalError, bit " << bit;
      }
    }
  }
}

// --- request-id correlation and the single protocol version ---

TEST(ProtocolRobustnessTest, FramesRoundTripRequestId) {
  const uint64_t id = 0xdeadbeef12345678ull;
  {
    uint64_t got = 0;
    auto pid = DecodeWait(EncodeWait(777, id), &got);
    ASSERT_TRUE(pid.ok());
    EXPECT_EQ(*pid, 777);
    EXPECT_EQ(got, id);
  }
  {
    SpawnReply in;
    in.ok = true;
    in.pid = 4242;
    uint64_t got = 0;
    auto out = DecodeSpawnReply(EncodeSpawnReply(in, id), &got);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->pid, 4242);
    EXPECT_EQ(got, id);
  }
  {
    WaitReply in;
    in.ok = true;
    in.status.exited = true;
    in.status.exit_code = 9;
    uint64_t got = 0;
    auto out = DecodeWaitReply(EncodeWaitReply(in, id), &got);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->status.exit_code, 9);
    EXPECT_EQ(got, id);
  }
  {
    std::vector<int> fds;
    auto payload = EncodeSpawnRequest(MakeSampleRequest(), &fds, id);
    ASSERT_TRUE(payload.ok());
    std::vector<UniqueFd> received;
    for (int fd : fds) {
      received.emplace_back(::dup(fd));
    }
    uint64_t got = 0;
    auto decoded = DecodeSpawnRequest(*payload, received, &got);
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    EXPECT_EQ(got, id);
  }
  {
    std::string payload = EncodeControl(MsgType::kPing, id);
    WireReader reader(payload);
    auto hdr = DecodeHeader(reader);
    ASSERT_TRUE(hdr.ok());
    EXPECT_EQ(hdr->type, MsgType::kPing);
    EXPECT_EQ(hdr->request_id, id);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(ProtocolRobustnessTest, Version1HeaderRejected) {
  // The retired v1 header: {magic, version 1, type} with no request_id. A
  // peer still speaking it must get a clean error, never a decode that
  // reads its payload as a request_id.
  std::string v1 = EncodeWait(777);
  v1.erase(12, 8);  // drop the request_id
  v1[4] = 1;        // version word (bytes 4..7, little-endian)
  WireReader reader(v1);
  auto hdr = DecodeHeader(reader);
  ASSERT_FALSE(hdr.ok());
  EXPECT_EQ(hdr.error().code(), 0) << "must be a LogicalError, not errno";
  EXPECT_NE(hdr.error().ToString().find("unsupported version 1"), std::string::npos)
      << hdr.error().ToString();
  EXPECT_FALSE(DecodeWait(v1).ok());
  // Version 1 with a full-size header is rejected just the same.
  std::string padded = EncodeWait(777, 5);
  padded[4] = 1;
  EXPECT_FALSE(DecodeWait(padded).ok());
}

TEST(ProtocolRobustnessTest, UnknownVersionRejected) {
  // Claim version 3 (bytes 4..7, little-endian) on an otherwise valid frame.
  std::string payload = EncodeWait(777);
  payload[4] = 3;
  EXPECT_FALSE(DecodeWait(payload).ok());
  WireReader reader(payload);
  EXPECT_FALSE(DecodeHeader(reader).ok());
}

TEST(ProtocolRobustnessTest, RequestIdBitFlipsDecodeWithDifferentId) {
  // Flips inside the request_id (bytes 12..19) leave a well-formed frame; the
  // body must still decode and the corrupted id must differ from the original
  // (so the client drops, not mis-correlates, the reply).
  const uint64_t id = 0x0123456789abcdefull;
  const std::string base = EncodeWait(777, id);
  ASSERT_GE(base.size(), kFrameHeaderSize);
  for (size_t bit = 12 * 8; bit < kFrameHeaderSize * 8; ++bit) {
    std::string mutated = base;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    uint64_t got = 0;
    auto pid = DecodeWait(mutated, &got);
    ASSERT_TRUE(pid.ok()) << "bit " << bit;
    EXPECT_EQ(*pid, 777);
    EXPECT_NE(got, id) << "bit " << bit;
  }
}

// --- kStats / kStatsReply: same corpus treatment as the spawn frames ---

TEST(ProtocolRobustnessTest, StatsMessagesRoundTrip) {
  const uint64_t id = 0xfeedface12345678ull;
  {
    uint64_t got = 0;
    auto format = DecodeStatsRequest(EncodeStatsRequest(1, id), &got);
    ASSERT_TRUE(format.ok()) << format.error().ToString();
    EXPECT_EQ(*format, 1u);
    EXPECT_EQ(got, id);
  }
  {
    StatsReply in;
    in.ok = true;
    in.body = "# TYPE forklift_spawns_total counter\nforklift_spawns_total 3\n";
    uint64_t got = 0;
    auto out = DecodeStatsReply(EncodeStatsReply(in, id), &got);
    ASSERT_TRUE(out.ok()) << out.error().ToString();
    EXPECT_TRUE(out->ok);
    EXPECT_EQ(out->body, in.body);
    EXPECT_EQ(got, id);
  }
  {
    StatsReply in;
    in.ok = false;
    in.err = EIO;
    in.context = "obs.export_write";
    auto out = DecodeStatsReply(EncodeStatsReply(in, id));
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->ok);
    EXPECT_EQ(out->err, EIO);
    EXPECT_EQ(out->context, "obs.export_write");
  }
}

TEST(ProtocolRobustnessTest, StatsRejectsTrailingBytes) {
  std::string req = EncodeStatsRequest(0);
  ASSERT_TRUE(DecodeStatsRequest(req).ok());
  req.push_back('\x00');
  auto decoded = DecodeStatsRequest(req);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), 0) << "must be a LogicalError, not errno";

  StatsReply sample;
  sample.ok = true;
  sample.body = "x 1\n";
  std::string reply = EncodeStatsReply(sample);
  ASSERT_TRUE(DecodeStatsReply(reply).ok());
  reply.push_back('\x7f');
  EXPECT_FALSE(DecodeStatsReply(reply).ok());
}

TEST(ProtocolRobustnessTest, StatsTruncationAtEveryOffsetRejected) {
  const uint64_t id = 42;
  ExpectAllTruncationsRejected(EncodeStatsRequest(1), "stats request");
  ExpectAllTruncationsRejected(EncodeStatsRequest(1, id), "stats request with id");
  StatsReply sample;
  sample.ok = true;
  sample.body = "forklift_spawns_total 3\n";
  ExpectAllTruncationsRejected(EncodeStatsReply(sample), "stats reply");
  ExpectAllTruncationsRejected(EncodeStatsReply(sample, id), "stats reply with id");
  // The typed stats decoders must also reject every cut of their own frames.
  for (const std::string& base : {EncodeStatsRequest(1, id), EncodeStatsReply(sample, id)}) {
    for (size_t len = 0; len < base.size(); ++len) {
      std::string cut = base.substr(0, len);
      EXPECT_FALSE(DecodeStatsRequest(cut).ok()) << "stats cut at " << len;
      EXPECT_FALSE(DecodeStatsReply(cut).ok()) << "stats cut at " << len;
    }
  }
}

TEST(ProtocolRobustnessTest, StatsHeaderBitFlipsNeverCrashTypedDecoders) {
  const uint64_t id = 7;
  StatsReply sample;
  sample.ok = true;
  sample.body = "x 1\n";
  for (const std::string& base : {EncodeStatsRequest(0, id), EncodeStatsReply(sample, id)}) {
    ASSERT_GE(base.size(), kFrameHeaderSize);
    for (size_t bit = 0; bit < 12 * 8; ++bit) {
      std::string mutated = base;
      mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      EXPECT_FALSE(DecodeStatsRequest(mutated).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeStatsReply(mutated).ok()) << "bit " << bit;
    }
  }
}

}  // namespace
}  // namespace forklift
