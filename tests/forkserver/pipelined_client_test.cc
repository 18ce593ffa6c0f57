// Pipelining, end to end: many requests in flight on one channel, replies
// arriving out of order, a parked kWait that never blocks the channel, a
// retired-v1 frame failing the channel cleanly, and a multi-threaded stress
// mix (the TSan target for the pipelined send/receive paths).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/forkserver/client.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/server.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

// Runs a ForkServer on a background thread over a socketpair; returns the
// client. The thread joins at destruction (after Shutdown/EOF).
class InProcessServer {
 public:
  InProcessServer() {
    auto sp = MakeSocketPair();
    EXPECT_TRUE(sp.ok());
    client_ = std::make_unique<ForkServerClient>(std::move(sp->first));
    server_thread_ = std::thread([sock = std::move(sp->second)]() mutable {
      ForkServer server(std::move(sock));
      auto served = server.Serve();
      EXPECT_TRUE(served.ok()) << served.error().ToString();
    });
  }

  ~InProcessServer() {
    (void)client_->Shutdown();
    if (server_thread_.joinable()) {
      server_thread_.join();
    }
  }

  ForkServerClient& client() { return *client_; }

 private:
  std::unique_ptr<ForkServerClient> client_;
  std::thread server_thread_;
};

SpawnRequest TrueRequest() {
  auto req = Spawner("/bin/true").BuildRequest();
  EXPECT_TRUE(req.ok());
  return std::move(req).value();
}

// Submit-then-await shorthands over the pipelined API.
Result<pid_t> Launch(ForkServerClient& client, const SpawnRequest& req) {
  FORKLIFT_ASSIGN_OR_RETURN(ForkServerClient::PendingReply pending, client.LaunchAsync(req));
  return pending.AwaitPid();
}

// `client` must be the channel that launched `pid`.
Result<ExitStatus> Reap(ForkServerClient& client, pid_t pid) {
  FORKLIFT_ASSIGN_OR_RETURN(ForkServerClient::PendingReply wait, client.WaitAsync(pid));
  return wait.AwaitExit();
}

TEST(PipelinedClientTest, BurstOfAsyncSpawnsAllComplete) {
  InProcessServer srv;
  SpawnRequest req = TrueRequest();

  constexpr int kDepth = 16;
  std::vector<ForkServerClient::PendingReply> pending;
  for (int i = 0; i < kDepth; ++i) {
    auto p = srv.client().LaunchAsync(req);
    ASSERT_TRUE(p.ok()) << p.error().ToString();
    pending.push_back(std::move(*p));
  }
  EXPECT_EQ(srv.client().outstanding(), static_cast<size_t>(kDepth));

  std::vector<pid_t> pids;
  for (auto& p : pending) {
    auto pid = p.AwaitPid();
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    pids.push_back(*pid);
  }
  EXPECT_EQ(srv.client().outstanding(), 0u);
  for (pid_t pid : pids) {
    auto st = Reap(srv.client(), pid);
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());
  }
}

// The head-of-line property the v2 protocol exists for: a kWait on a child
// that has not exited parks server-side and other traffic keeps flowing.
TEST(PipelinedClientTest, ParkedWaitDoesNotBlockTheChannel) {
  InProcessServer srv;
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());

  Spawner s("/bin/cat");  // runs until its stdin reaches EOF
  s.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  auto pending = srv.client().LaunchAsync(*req);
  ASSERT_TRUE(pending.ok());
  auto pid = pending->AwaitPid();
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();

  auto wait = srv.client().WaitAsync(*pid);
  ASSERT_TRUE(wait.ok());
  // While that wait is parked, the channel still answers pings and spawns.
  EXPECT_TRUE(srv.client().Ping().ok());
  auto quick = Launch(srv.client(), TrueRequest());
  ASSERT_TRUE(quick.ok());
  auto quick_st = Reap(srv.client(), *quick);
  ASSERT_TRUE(quick_st.ok());
  EXPECT_TRUE(quick_st->Success());
  EXPECT_EQ(srv.client().outstanding(), 1u) << "only the parked wait remains";

  // Release the held child; the parked wait completes with its real status.
  hold->write_end.Reset();
  auto st = wait->AwaitExit();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
}

TEST(PipelinedClientTest, RepliesCompleteOutOfSubmissionOrder) {
  InProcessServer srv;
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());

  Spawner slow("/bin/cat");
  slow.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto slow_req = slow.BuildRequest();
  ASSERT_TRUE(slow_req.ok());
  auto slow_pid = Launch(srv.client(), *slow_req);
  ASSERT_TRUE(slow_pid.ok());
  hold->read_end.Reset();

  // Submitted first, completes last.
  auto slow_wait = srv.client().WaitAsync(*slow_pid);
  ASSERT_TRUE(slow_wait.ok());

  auto fast_pid = Launch(srv.client(), TrueRequest());
  ASSERT_TRUE(fast_pid.ok());
  auto fast_st = Reap(srv.client(), *fast_pid);
  ASSERT_TRUE(fast_st.ok());
  EXPECT_TRUE(fast_st->Success());

  hold->write_end.Reset();
  auto slow_st = slow_wait->AwaitExit();
  ASSERT_TRUE(slow_st.ok());
  EXPECT_TRUE(slow_st->Success());
}

// The retired v1 header ({magic, 1, type}, no request_id) for a kWait.
std::string V1WaitFrame() {
  std::string frame = EncodeWait(777);
  frame.erase(12, 8);  // drop the request_id
  frame[4] = 1;        // version word (bytes 4..7, little-endian)
  return frame;
}

// A peer still speaking v1 gets the server's uncorrelated error reply
// (request_id 0, the only shape it can be sent without a parseable header),
// and a pipelined client that receives such a reply fails its pending
// requests instead of leaving them to hang.
TEST(PipelinedClientTest, V1FrameGetsUncorrelatedErrorAndFailsPendingRequests) {
  {
    auto sp = MakeSocketPair();
    ASSERT_TRUE(sp.ok());
    std::thread server_thread([sock = std::move(sp->second)]() mutable {
      ForkServer server(std::move(sock));
      auto served = server.Serve();
      EXPECT_TRUE(served.ok()) << served.error().ToString();
    });
    const int raw = sp->first.get();
    ASSERT_TRUE(SendFrame(raw, V1WaitFrame()).ok());
    auto rr = RecvFrame(raw);
    ASSERT_TRUE(rr.ok()) << rr.error().ToString();
    ASSERT_FALSE(rr->eof);
    uint64_t id = 99;
    auto reply = DecodeSpawnReply(rr->frame.payload, &id);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    EXPECT_EQ(id, 0u);
    EXPECT_FALSE(reply->ok);
    EXPECT_NE(reply->context.find("unsupported version 1"), std::string::npos)
        << reply->context;
    // The channel keeps serving well-formed frames.
    ASSERT_TRUE(SendFrame(raw, EncodeControl(MsgType::kShutdown, 1)).ok());
    auto ack = RecvFrame(raw);
    ASSERT_TRUE(ack.ok());
    ASSERT_FALSE(ack->eof);
    server_thread.join();
  }

  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  UniqueFd raw(::dup(sp->first.get()));  // a second writer on the client's channel
  ASSERT_TRUE(raw.valid());
  std::thread server_thread([sock = std::move(sp->second)]() mutable {
    ForkServer server(std::move(sock));
    auto served = server.Serve();
    EXPECT_TRUE(served.ok()) << served.error().ToString();
  });
  ForkServerClient client(std::move(sp->first));
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());
  Spawner s("/bin/cat");  // runs until its stdin reaches EOF
  s.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  auto pid = Launch(client, *req);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();
  auto wait = client.WaitAsync(*pid);  // parks server-side: the child is alive
  ASSERT_TRUE(wait.ok());

  ASSERT_TRUE(SendFrame(raw.get(), V1WaitFrame()).ok());
  auto st = wait->AwaitExit();
  EXPECT_FALSE(st.ok()) << "the parked wait must fail, not hang";
  EXPECT_TRUE(client.dead());
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_FALSE(client.Ping().ok());

  hold->write_end.Reset();
  ASSERT_TRUE(SendFrame(raw.get(), EncodeControl(MsgType::kShutdown, 1)).ok());
  server_thread.join();
  // The in-process server's children are this process's; reap the cat if
  // the server's exit watch did not get to it first.
  (void)::waitpid(*pid, nullptr, 0);
}

// The TSan target: several threads pipeline spawns, waits, and pings through
// one shared client at depth > 1, exercising the send-lock/slot-map/receiver
// interleavings.
TEST(PipelinedClientTest, MultiThreadedPipelinedStress) {
  InProcessServer srv;
  SpawnRequest req = TrueRequest();

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  constexpr int kDepth = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&srv, &req, &failures] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<ForkServerClient::PendingReply> window;
        for (int d = 0; d < kDepth; ++d) {
          auto p = srv.client().LaunchAsync(req);
          if (!p.ok()) {
            ++failures;
            return;
          }
          window.push_back(std::move(*p));
        }
        if (!srv.client().Ping().ok()) {
          ++failures;
          return;
        }
        for (auto& p : window) {
          auto pid = p.AwaitPid();
          if (!pid.ok()) {
            ++failures;
            return;
          }
          auto st = Reap(srv.client(), *pid);
          if (!st.ok() || !st->Success()) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(srv.client().outstanding(), 0u);
}

// Regression: frames enqueued while an fd-carrying frame was inside its
// synchronous sendmsg used to be stranded — the enqueuers saw an active
// flusher and returned, counting on it, but the fd sender never re-drained
// the queue before stepping down, so nobody shipped them and their Await*
// hung forever. The fd thread keeps the flusher slot busy inside SendFrame
// while the spawn threads pile frames up behind it.
TEST(PipelinedClientTest, FdFramesInterleavedWithAsyncSpawnsDoNotStrand) {
  InProcessServer srv;
  SpawnRequest req = TrueRequest();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread fd_thread([&srv, &stop, &failures] {
    // NewChannel ships a socket via SCM_RIGHTS — the synchronous fd path.
    while (!stop.load(std::memory_order_relaxed)) {
      auto ch = srv.client().NewChannel();
      if (!ch.ok()) {
        ADD_FAILURE() << "NewChannel: " << ch.error().ToString();
        ++failures;
        return;
      }
    }
  });

  constexpr int kThreads = 3;
  constexpr int kPerThread = 24;
  std::vector<std::thread> spawners;
  spawners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    spawners.emplace_back([&srv, &req, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        auto pid = Launch(srv.client(), req);
        if (!pid.ok()) {
          ADD_FAILURE() << "Launch: " << pid.error().ToString();
          ++failures;
          return;
        }
        auto st = Reap(srv.client(), *pid);
        if (!st.ok() || !st->Success()) {
          ADD_FAILURE() << "Reap: " << (st.ok() ? "bad status" : st.error().ToString());
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& th : spawners) {
    th.join();
  }
  stop.store(true, std::memory_order_relaxed);
  fd_thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(srv.client().outstanding(), 0u);
}

// Dropping a PendingReply without awaiting it must not leak its slot or
// confuse the receiver when the reply later arrives.
TEST(PipelinedClientTest, AbandonedPendingReplyIsHarmless) {
  InProcessServer srv;
  {
    auto p = srv.client().PingAsync();
    ASSERT_TRUE(p.ok());
    // Dropped here, possibly before the pong arrives.
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(srv.client().Ping().ok());
  }
  EXPECT_EQ(srv.client().outstanding(), 0u);
}

}  // namespace
}  // namespace forklift
