// spawnbench: the SpawnService end-to-end benchmark.
//
// Measures what a SpawnService caller sees. Every request calls
// SpawnService::Spawn and then ProcessHandle::Wait. The load is a closed loop
// from this one process: kCallers caller threads, each sending its next
// request only after its previous one (or, for sleep-fanout, its previous
// window of requests) has completed. The shard count is capped at kMaxShards
// zygote connections, the shipped default on a host with that many CPUs.
//
// Each invocation runs one workload in a fresh process, because every zygote
// clones the caller's address space when the pool starts:
//
//   zygote-trivial  sharded -> forkserver -> local posix_spawn chain (the
//                   `forklift-run --backend sharded` chain), a small zygote,
//                   a seeded /bin/true + /bin/false mix. Per-spawn fixed
//                   costs of service, wire and zygote dominate.
//   zygote-ballast  the same, but 256 MiB of dirty heap exists before the pool
//                   forks, so every shard carries it (an Android-style
//                   preloaded zygote). The zygote's launch engine dominates.
//   sleep-fanout    the sharded chain; each caller spawns a window of 16
//                   requests (seeded /bin/sleep 0.01 + /bin/false), then waits
//                   on all of them, like `make -j`. Up to 64 live children
//                   exercise parked waits, exit watches, the exit cache and
//                   reply coalescing.
//   local-spawn     the `auto` chain (local posix_spawn only) with 256 MiB of
//                   ballast in the caller and the true/false mix. Bypasses the
//                   fork server: forkserver changes should not move it. Not
//                   gated in BENCHMARK.json: its exec p90 follows host steal
//                   (see README.md).
//
// A verified but unmeasured warm-up of kWarmupSeconds precedes every run.
// --trace 0 measures the end-to-end metrics with tracing off; each is the
// median over kSlices equal time slices of the run. --trace 1 runs the load
// twice, untraced and then traced, with callers meeting at a barrier every
// kEpochRequests requests, and reports per-layer numbers from the traced
// half: the benchmark records its own spans around Spawn and Wait under each
// handle's trace_id, joins them with the spans the program records, and
// drains the tracer's bounded ring at each barrier so no span is lost.
//
// Every run verifies its outputs (exit statuses, sleep end times, one
// completion per request, one zygote launch per remote spawn, no shard
// restarts, fds and children back to baseline after teardown). Any violation
// counts as a failed request and makes the run fail.
//
// Usage:
//   spawnbench --workload NAME --seed N --seconds S --trace 0|1
//              [--expect-wrong-exit]
// --expect-wrong-exit deliberately expects the wrong exit status of
// /bin/false, so that verification must trip (the benchmark's self-check).
// The last stdout line is the JSON result; the lines before it are a
// human-readable table with sample counts and the run's context.
#include <dirent.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/benchlib/memtouch.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/spawn/service.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

constexpr int kCallers = 4;
constexpr size_t kMaxShards = 4;
constexpr size_t kBallastBytes = 256u << 20;
constexpr size_t kFanoutWindow = 16;
// sleep-fanout's one sleep duration. Long enough that the children of a
// window outlive part of its spawning (parked kWaits) and short enough that
// the CPUs do not idle between windows, where latencies would follow how fast
// the host wakes idle vCPUs rather than the program.
constexpr uint64_t kSleepNs = 10'000'000;
constexpr const char* kSleepArg = "0.01";
// Set-up samples per run; setup_s is their median.
constexpr int kSetupReps = 11;
constexpr uint64_t kSetupSampleNs = 20'000'000;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kSlices = 10;
// Completions one caller can record per second of a run. Far above any
// workload's rate today; a run that exceeds it fails and says so.
constexpr double kMaxCallerRate = 6000;
// Traced epochs: requests per caller between ring drains. At about 8 spans
// per request, 4 callers stay at half of the tracer's 4096-span ring.
constexpr size_t kEpochRequests = 64;
constexpr size_t kTraceRingSpans = 4096;

enum class Chain { kSharded, kLocal };
enum class Program { kTrue, kFalse, kSleep };

struct Workload {
  const char* name;
  Chain chain;
  size_t ballast_bytes;
  size_t window;   // requests spawned before the caller waits on them
  bool sleep_mix;  // sleep/false mix instead of true/false
};

constexpr Workload kWorkloads[] = {
    {"zygote-trivial", Chain::kSharded, 0, 1, false},
    {"zygote-ballast", Chain::kSharded, kBallastBytes, 1, false},
    {"sleep-fanout", Chain::kSharded, 0, kFanoutWindow, true},
    {"local-spawn", Chain::kLocal, kBallastBytes, 1, false},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool expect_wrong_exit = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "spawnbench: %s\nusage: spawnbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expect-wrong-exit]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--expect-wrong-exit") {
      args.expect_wrong_exit = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    std::string_view v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Usage("unknown workload");
    } else if (a == "--seed") {
      args.seed = std::strtoull(argv[i], &end, 10);
      if (v.empty() || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::strtod(argv[i], &end);
      if (v.empty() || *end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload == nullptr || !have_seed || args.seconds <= 0 || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

// ---------------------------------------------------------------- requests

// One request in four runs /bin/false. With an even split the median exit lag
// of sleep-fanout sat on the boundary between the sleep children and the
// already-dead false children, and jumped between the two from run to run.
Program NextProgram(Rng& rng, const Workload& w) {
  if (rng.Below(4) == 0) return Program::kFalse;
  return w.sleep_mix ? Program::kSleep : Program::kTrue;
}

Spawner MakeSpawner(Program p) {
  switch (p) {
    case Program::kTrue: return Spawner("/bin/true");
    case Program::kFalse: return Spawner("/bin/false");
    case Program::kSleep: break;
  }
  Spawner s("/bin/sleep");
  s.Arg(kSleepArg);
  return s;
}

uint64_t RequestedRunNs(Program p) { return p == Program::kSleep ? kSleepNs : 0; }

struct Sample {
  Program program = Program::kTrue;
  uint64_t submit_ns = 0;      // before Spawn
  uint64_t exec_ns = 0;        // Spawn returned an exec-confirmed handle
  uint64_t wait_start_ns = 0;  // before Wait
  uint64_t wait_end_ns = 0;    // Wait returned
  uint64_t trace_id = 0;

  // Time until Wait returned, from the later of the Wait call and the child's
  // requested end: neither the child's own lifetime nor the caller's ordering
  // delay counts.
  uint64_t ExitLagNs() const {
    return wait_end_ns - std::max(wait_start_ns, submit_ns + RequestedRunNs(program));
  }
};

// What a verified completion keeps for the statistics.
struct Record {
  uint64_t trace_id = 0;
  uint64_t done_ns = 0;  // Wait returned
  uint32_t exec_latency_ns = 0;  // both saturate at ~4.3 s
  uint32_t exit_lag_ns = 0;

  double ExecMs() const { return exec_latency_ns / 1e6; }
  double LagMs() const { return exit_lag_ns / 1e6; }
};

uint32_t Saturate(uint64_t ns) { return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)); }

// ---------------------------------------------------------------- service

// Builds the workload's route chain and probes every route, which starts the
// zygote pool and the fallback fork server.
Result<std::unique_ptr<SpawnService>> StartService(const Workload& w, size_t shards) {
  auto service = std::make_unique<SpawnService>();
  std::vector<SpawnTransport*> routes;  // owned by `service`
  auto add = [&](std::unique_ptr<SpawnTransport> t) {
    routes.push_back(t.get());
    service->AddRoute(std::move(t));
  };
  if (w.chain == Chain::kSharded) {
    add(ShardedTransport::StartLazy(ShardedForkServer::Options{shards, true}));
    add(ForkServerTransport::StartInProcess());
  }
  add(MakeLocalTransport(SpawnBackendKind::kPosixSpawn));
  for (SpawnTransport* route : routes) {
    Status st = route->Probe();
    if (!st.ok()) {
      return LogicalError(std::string("probe ") + route->Name() + ": " + st.error().ToString());
    }
  }
  return service;
}

bool IsRemoteRoute(std::string_view name) { return name == "sharded" || name == "forkserver"; }

struct RouteTotals {
  uint64_t attempts = 0;
  uint64_t fallthroughs = 0;
  uint64_t remote_successes = 0;
};

RouteTotals SumRoutes(const SpawnService& service) {
  RouteTotals t;
  for (const std::string& name : service.route_names()) {
    RouteMetrics::Snapshot s = service.RouteStats(name);
    t.attempts += s.attempts;
    t.fallthroughs += s.fallthroughs;
    if (IsRemoteRoute(name)) t.remote_successes += s.successes;
  }
  return t;
}

// ---------------------------------------------------------------- outside view

struct Registry {
  uint64_t zygote_spawns = 0;
  uint64_t restarts = 0;
  uint64_t write_syscalls = 0;
  uint64_t recvmsg = 0;
  uint64_t flushes = 0;
  uint64_t flushed_frames = 0;
};

// Also creates the slots, so call it once before any zygote forks: the
// shards then increment this process's arena.
Registry ReadRegistry() {
  auto& reg = obs::MetricsRegistry::Global();
  Registry r;
  r.zygote_spawns = reg.GetCounter("forklift_forkserver_spawns_total").Value();
  r.restarts = reg.GetCounter("forklift_shard_restarts_total").Value();
  r.write_syscalls = reg.GetCounter("forklift_wire_syscalls_total{op=\"writev\"}").Value() +
                     reg.GetCounter("forklift_wire_syscalls_total{op=\"sendmsg\"}").Value();
  r.recvmsg = reg.GetCounter("forklift_wire_syscalls_total{op=\"recvmsg\"}").Value();
  obs::HistogramSnapshot h = reg.GetHistogram("forklift_wire_frames_per_flush").snapshot();
  r.flushes = h.count;
  r.flushed_frames = h.sum;
  return r;
}

struct CpuUsage {
  double cpu_ms = 0;
  uint64_t ctx_switches = 0;
};

CpuUsage ReadUsage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  auto ms = [](const timeval& tv) { return tv.tv_sec * 1e3 + tv.tv_usec / 1e3; };
  return CpuUsage{ms(ru.ru_utime) + ms(ru.ru_stime),
               static_cast<uint64_t>(ru.ru_nvcsw) + static_cast<uint64_t>(ru.ru_nivcsw)};
}

double PeakRssMib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;  // includes the directory's own fd, on both sides of a comparison
}

// Processes (zombies included) whose parent is this process.
int CountChildren() {
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return -1;
  const pid_t self = ::getpid();
  int n = 0;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    char path[300];
    std::snprintf(path, sizeof(path), "/proc/%s/stat", e->d_name);
    FILE* f = std::fopen(path, "re");
    if (f == nullptr) continue;
    char buf[512];
    size_t len = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[len] = '\0';
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after the
    // last ')'.
    const char* close = std::strrchr(buf, ')');
    char state = 0;
    int ppid = 0;
    if (close != nullptr && std::sscanf(close + 1, " %c %d", &state, &ppid) == 2 &&
        ppid == self) {
      ++n;
    }
  }
  ::closedir(dir);
  return n;
}

// ---------------------------------------------------------------- load

struct CallerLog {
  size_t stored = 0;  // records filled in the caller's store
  uint64_t attempted = 0;
  uint64_t verified = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the report

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(why));
  }
};

// The record store is sized and touched before any phase runs, so the
// client's peak RSS does not grow with the number of completions.
struct Caller {
  Rng rng;
  std::vector<Record> store;
  CallerLog log;
};

struct Phase {
  uint64_t start_ns = 0;
  std::vector<Record> samples;  // verified completions, when kept
  uint64_t attempted = 0;
  uint64_t verified = 0;
  uint64_t failed = 0;
  double seconds = 0;
  std::vector<std::string> errors;
  std::vector<obs::TraceSpan> spans;  // traced phases only
  size_t ring_peak = 0;               // largest drain, in spans
  double peak_rss_mib = 0;            // at the end of the phase
};

class Load {
 public:
  Load(const Args& args, SpawnService& service)
      : w_(*args.workload), service_(service), expect_wrong_exit_(args.expect_wrong_exit) {
    const size_t capacity = static_cast<size_t>(args.seconds * kMaxCallerRate) + w_.window;
    for (int i = 0; i < kCallers; ++i) {
      callers_.push_back(Caller{Rng(args.seed * kCallers + static_cast<uint64_t>(i)),
                                std::vector<Record>(capacity), {}});
    }
  }

  // Runs the closed loop for `seconds`. With `epochs`, callers meet at a
  // barrier every kEpochRequests requests; with `traced` the barrier also
  // drains the tracer's ring while every caller is parked, so no span is
  // recorded while it is read and cleared. Without `keep`, completions are
  // verified but not recorded (the warm-up).
  Phase Run(double seconds, bool epochs, bool traced, bool keep = true) {
    auto& tracer = obs::Tracer::Global();
    tracer.ResetForTest();
    tracer.set_enabled(traced);
    for (Caller& c : callers_) c.log = CallerLog{};
    Phase phase;
    std::atomic<bool> stop{false};
    const uint64_t start = MonotonicNanos();
    phase.start_ns = start;
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    auto drain = [&phase, &tracer] {
      std::vector<obs::TraceSpan> spans = tracer.AllSpans();
      tracer.ResetForTest();
      phase.ring_peak = std::max(phase.ring_peak, spans.size());
      std::move(spans.begin(), spans.end(), std::back_inserter(phase.spans));
    };
    auto on_epoch = [&]() noexcept {
      if (traced) drain();
      if (MonotonicNanos() >= deadline) stop.store(true);
    };
    std::barrier sync(kCallers, on_epoch);
    std::vector<std::thread> threads;
    for (Caller& c : callers_) {
      threads.emplace_back([&, traced, epochs] {
        for (;;) {
          if (epochs) {
            for (size_t n = 0; n < kEpochRequests; n += w_.window) RunWindow(c, traced, keep);
            sync.arrive_and_wait();
            if (stop.load()) break;
          } else {
            if (MonotonicNanos() >= deadline) break;
            RunWindow(c, traced, keep);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    phase.seconds = static_cast<double>(MonotonicNanos() - start) / 1e9;
    phase.peak_rss_mib = PeakRssMib();  // before the merge below allocates
    if (traced) drain();
    tracer.set_enabled(false);
    for (Caller& c : callers_) {
      phase.attempted += c.log.attempted;
      phase.verified += c.log.verified;
      phase.failed += c.log.failed;
      phase.samples.insert(phase.samples.end(), c.store.begin(),
                           c.store.begin() + static_cast<ptrdiff_t>(c.log.stored));
      phase.errors.insert(phase.errors.end(), c.log.errors.begin(), c.log.errors.end());
    }
    return phase;
  }

 private:
  struct InFlight {
    ProcessHandle handle;
    Sample sample;
  };

  int ExpectedExit(Program p) const {
    if (p != Program::kFalse) return 0;
    return expect_wrong_exit_ ? 0 : 1;
  }

  // Spawns one window of requests, then waits on each and verifies it.
  void RunWindow(Caller& c, bool traced, bool keep) {
    auto& tracer = obs::Tracer::Global();
    std::vector<InFlight> window;
    window.reserve(w_.window);
    for (size_t i = 0; i < w_.window; ++i) {
      Sample s;
      s.program = NextProgram(c.rng, w_);
      const Spawner spawner = MakeSpawner(s.program);
      ++c.log.attempted;
      s.submit_ns = MonotonicNanos();
      auto handle = service_.Spawn(spawner);
      s.exec_ns = MonotonicNanos();
      if (!handle.ok()) {
        c.log.Fail("spawn: " + handle.error().ToString());
        continue;
      }
      s.trace_id = handle->trace_id();
      if (traced) tracer.Record(s.trace_id, "bench.spawn", s.submit_ns, s.exec_ns);
      window.push_back(InFlight{std::move(*handle), s});
    }
    for (size_t i = 0; i < window.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (window[j].handle.pid() == window[i].handle.pid()) {
          c.log.Fail("two live handles share pid " + std::to_string(window[i].handle.pid()));
        }
      }
    }
    for (InFlight& f : window) {
      Sample& s = f.sample;
      s.wait_start_ns = MonotonicNanos();
      auto status = f.handle.Wait();
      s.wait_end_ns = MonotonicNanos();
      if (traced) tracer.Record(s.trace_id, "bench.wait", s.wait_start_ns, s.wait_end_ns);
      if (!status.ok()) {
        c.log.Fail("wait: " + status.error().ToString());
        continue;
      }
      const int expected = ExpectedExit(s.program);
      if (!status->exited || status->exit_code != expected) {
        c.log.Fail("pid " + std::to_string(f.handle.pid()) + " ended " + status->ToString() +
                   ", expected exit " + std::to_string(expected));
        continue;
      }
      if (s.wait_end_ns < s.submit_ns + RequestedRunNs(s.program)) {
        c.log.Fail("sleep child reported done before its requested end");
        continue;
      }
      ++c.log.verified;
      if (!keep) continue;
      if (c.log.stored == c.store.size()) {
        c.log.Fail("record store full: raise kMaxCallerRate");
        continue;
      }
      c.store[c.log.stored++] = Record{s.trace_id, s.wait_end_ns, Saturate(s.exec_ns - s.submit_ns),
                                       Saturate(s.ExitLagNs())};
    }
  }

  const Workload& w_;
  SpawnService& service_;
  const bool expect_wrong_exit_;
  std::vector<Caller> callers_;
};

// ---------------------------------------------------------------- statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (v[lo + 1] - v[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The measured phase cut into kSlices equal spans of time, by completion
// time. Each end-to-end figure is the median of its per-slice values, so a
// stall of the shared host moves one slice rather than the result.
struct SliceStats {
  std::vector<double> rate, exec_p50, exec_p90, exec_p99, lag_p50, lag_p90, lag_p99;
};

SliceStats Slice(const Phase& p) {
  const double slice_ns = p.seconds * 1e9 / kSlices;
  std::vector<std::vector<double>> exec(kSlices);
  std::vector<std::vector<double>> lag(kSlices);
  for (const Record& r : p.samples) {
    const double at = static_cast<double>(r.done_ns - p.start_ns) / slice_ns;
    const size_t i = std::min(kSlices - 1, static_cast<size_t>(at));
    exec[i].push_back(r.ExecMs());
    lag[i].push_back(r.LagMs());
  }
  SliceStats st;
  for (size_t i = 0; i < kSlices; ++i) {
    st.rate.push_back(static_cast<double>(exec[i].size()) / (slice_ns / 1e9));
    st.exec_p50.push_back(Percentile(exec[i], 0.50));
    st.exec_p90.push_back(Percentile(exec[i], 0.90));
    st.exec_p99.push_back(Percentile(exec[i], 0.99));
    st.lag_p50.push_back(Percentile(lag[i], 0.50));
    st.lag_p90.push_back(Percentile(lag[i], 0.90));
    st.lag_p99.push_back(Percentile(lag[i], 0.99));
  }
  return st;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.50); }

// ---------------------------------------------------------------- traces

// Per-layer values for the requests of a traced phase, from the joined spans.
struct LayerBreakdown {
  std::vector<double> route_self_us;  // submit minus its route:* children
  std::vector<double> launch_us;      // the route:<name> span that launched
  std::vector<double> wire_send_us;   // wire.send
  std::vector<double> reply_wait_us;  // end of wire.send -> end of the route span
  std::vector<double> wait_us;        // bench.wait
  std::map<std::string, uint64_t> dispatch;  // shard.dispatch detail -> requests
  uint64_t incomplete = 0;            // requests missing part of their chain
};

double SpanUs(const obs::TraceSpan& s) { return static_cast<double>(s.end_ns - s.start_ns) / 1e3; }

LayerBreakdown BreakDown(const Phase& phase) {
  std::map<uint64_t, std::vector<const obs::TraceSpan*>> by_trace;
  for (const obs::TraceSpan& s : phase.spans) by_trace[s.trace_id].push_back(&s);
  LayerBreakdown b;
  for (const Record& sample : phase.samples) {
    const obs::TraceSpan* spawn = nullptr;
    const obs::TraceSpan* submit = nullptr;
    const obs::TraceSpan* launched = nullptr;
    const obs::TraceSpan* wire = nullptr;
    const obs::TraceSpan* dispatch = nullptr;
    const obs::TraceSpan* wait = nullptr;
    bool exec_confirmed = false;
    bool exit_observed = false;
    double routes_us = 0;
    for (const obs::TraceSpan* s : by_trace[sample.trace_id]) {
      const std::string& n = s->name;
      if (n == "bench.spawn") spawn = s;
      else if (n == "submit") submit = s;
      else if (n == "wire.send") wire = s;
      else if (n == "shard.dispatch") dispatch = s;
      else if (n == "bench.wait") wait = s;
      else if (n == "exec_confirmed") exec_confirmed = true;
      else if (n == "exit_observed") exit_observed = true;
      else if (n.rfind("route:", 0) == 0) {
        routes_us += SpanUs(*s);
        if (s->detail == "ok") launched = s;
      }
    }
    bool complete = spawn != nullptr && submit != nullptr && launched != nullptr &&
                    wait != nullptr && exec_confirmed && exit_observed;
    const bool via_wire = launched != nullptr && IsRemoteRoute(launched->name.substr(6));
    if (via_wire && wire == nullptr) complete = false;
    if (launched != nullptr && launched->name == "route:sharded" && dispatch == nullptr) {
      complete = false;
    }
    if (!complete) {
      ++b.incomplete;
      continue;
    }
    b.route_self_us.push_back(SpanUs(*submit) - routes_us);
    b.launch_us.push_back(SpanUs(*launched));
    b.wait_us.push_back(SpanUs(*wait));
    if (via_wire) {
      b.wire_send_us.push_back(SpanUs(*wire));
      b.reply_wait_us.push_back(static_cast<double>(launched->end_ns - wire->end_ns) / 1e3);
    }
    if (dispatch != nullptr) ++b.dispatch[dispatch->detail];
  }
  return b;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  const char* unit;
  size_t samples;
};

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + '"';
}

void Report(const std::vector<Metric>& metrics, const std::vector<Metric>& info,
            const std::vector<std::string>& context, bool correct, uint64_t attempted,
            uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-45s %14.6f %-9s n=%zu\n", m.name.c_str(), m.value, m.unit, m.samples);
  }
  for (const Metric& m : info) {
    std::printf("%-45s %14.6f %-9s n=%zu (info)\n", m.name.c_str(), m.value, m.unit, m.samples);
  }
  std::printf("{\"context\": {");
  for (size_t i = 0; i < context.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", context[i].c_str());
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) std::printf(", ");
    std::printf("%s: {\"value\": %.17g, \"unit\": %s}", JsonString(metrics[i].name).c_str(),
                metrics[i].value, JsonString(metrics[i].unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string Field(const char* key, const std::string& json_value) {
  return std::string("\"") + key + "\": " + json_value;
}

// Set-up: time from service construction until every route passes Probe(),
// pool fork included. Each sample repeats set-up (and teardown, untimed)
// until it has lasted kSetupSampleNs, so a route chain that sets up in
// microseconds is still timed above the clock's noise.
Result<std::vector<double>> SampleSetup(const Workload& w, size_t shards) {
  std::vector<double> samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    uint64_t timed_ns = 0;
    int count = 0;
    while (timed_ns < kSetupSampleNs) {
      const uint64_t t0 = MonotonicNanos();
      auto started = StartService(w, shards);
      timed_ns += MonotonicNanos() - t0;
      ++count;
      if (!started.ok()) return Err(started.error());
    }
    samples.push_back(static_cast<double>(timed_ns) / count / 1e9);
  }
  return samples;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  const size_t nproc = online > 0 ? static_cast<size_t>(online) : 1;
  const size_t shards = w.chain == Chain::kSharded ? std::min(nproc, kMaxShards) : 0;
  utsname uts{};
  ::uname(&uts);

  obs::Tracer::Global().set_enabled(false);
  HeapBallast ballast;
  if (w.ballast_bytes != 0) {
    Status st = ballast.Resize(w.ballast_bytes);
    if (!st.ok()) {
      std::fprintf(stderr, "spawnbench: ballast: %s\n", st.error().ToString().c_str());
      return 1;
    }
  }
  (void)ReadRegistry();
  const int base_fds = CountOpenFds();
  const int base_children = CountChildren();

  auto setup = SampleSetup(w, shards);
  if (!setup.ok()) {
    std::fprintf(stderr, "spawnbench: set-up: %s\n", setup.error().ToString().c_str());
    return 1;
  }
  const std::vector<double> setup_s = std::move(*setup);

  // The measured service.
  const CpuUsage children_before = ReadUsage(RUSAGE_CHILDREN);
  const Registry reg_before = ReadRegistry();
  auto started = StartService(w, shards);
  if (!started.ok()) {
    std::fprintf(stderr, "spawnbench: set-up: %s\n", started.error().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SpawnService> service = std::move(*started);

  Load load(args, *service);
  std::vector<Phase> phases;
  CpuUsage self_before;
  CpuUsage self_after;
  Registry traced_before;
  Registry traced_after;
  RouteTotals routes_before;
  RouteTotals routes_after;
  // Warm-up, verified but not measured: the zygotes and this process fault
  // in their working sets, and the allocators reach a steady state.
  phases.push_back(load.Run(kWarmupSeconds, /*epochs=*/args.trace, /*traced=*/false,
                            /*keep=*/false));
  if (!args.trace) {
    phases.push_back(load.Run(args.seconds, /*epochs=*/false, /*traced=*/false));
  } else {
    // The untraced half runs the same epoch barriers as the traced half, so
    // their ratio isolates what tracing costs.
    phases.push_back(load.Run(args.seconds / 2, /*epochs=*/true, /*traced=*/false));
    self_before = ReadUsage(RUSAGE_SELF);
    traced_before = ReadRegistry();
    routes_before = SumRoutes(*service);
    phases.push_back(load.Run(args.seconds / 2, /*epochs=*/true, /*traced=*/true));
    self_after = ReadUsage(RUSAGE_SELF);
    traced_after = ReadRegistry();
    routes_after = SumRoutes(*service);
  }
  const RouteTotals routes_total = SumRoutes(*service);
  service.reset();  // teardown: the pool and the fork server exit and are reaped
  const CpuUsage children_after = ReadUsage(RUSAGE_CHILDREN);
  const Registry reg_after = ReadRegistry();

  // Verification over the whole run.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  std::vector<std::string> errors;
  std::vector<uint64_t> trace_ids;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    completed += p.verified;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    for (const Record& r : p.samples) trace_ids.push_back(r.trace_id);
  }
  auto violation = [&](std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  };
  std::sort(trace_ids.begin(), trace_ids.end());
  if (!trace_ids.empty() && trace_ids.front() == 0) violation("a completion carries no request id");
  if (std::adjacent_find(trace_ids.begin(), trace_ids.end()) != trace_ids.end()) {
    violation("a request id completed more than once");
  }
  const uint64_t zygote_spawns = reg_after.zygote_spawns - reg_before.zygote_spawns;
  if (zygote_spawns != routes_total.remote_successes) {
    violation("zygotes launched " + std::to_string(zygote_spawns) + " children for " +
              std::to_string(routes_total.remote_successes) + " remote spawns");
  }
  const uint64_t restarts = reg_after.restarts - reg_before.restarts;
  if (restarts != 0) violation(std::to_string(restarts) + " shard restarts");
  const int end_fds = CountOpenFds();
  const int end_children = CountChildren();
  if (end_fds != base_fds) {
    violation("open fds " + std::to_string(base_fds) + " -> " + std::to_string(end_fds));
  }
  if (end_children != base_children) {
    violation("children " + std::to_string(base_children) + " -> " +
              std::to_string(end_children));
  }

  std::vector<Metric> metrics;
  std::vector<Metric> info;
  if (!args.trace) {
    const Phase& p = phases[1];
    const SliceStats sl = Slice(p);
    const size_t n = p.samples.size();
    metrics = {
        {"spawns_per_s", Median(sl.rate), "1/s", n},
        {"exec_p50_ms", Median(sl.exec_p50), "ms", n},
        {"exec_p90_ms", Median(sl.exec_p90), "ms", n},
        {"exit_lag_p50_ms", Median(sl.lag_p50), "ms", n},
        {"exit_lag_p90_ms", Median(sl.lag_p90), "ms", n},
        {"verified_ratio", Ratio(static_cast<double>(attempted - std::min(failed, attempted)),
                                 static_cast<double>(attempted)),
         "ratio", static_cast<size_t>(attempted)},
        {"setup_s", Percentile(setup_s, 0.50), "s", setup_s.size()},
        {"client_peak_rss_mib", p.peak_rss_mib, "MiB", 1},
    };
    // Printed for reading, not bounded: see README.md on why the tails are p90.
    info = {
        {"exec_p99_ms", Median(sl.exec_p99), "ms", n},
        {"exit_lag_p99_ms", Median(sl.lag_p99), "ms", n},
    };
  } else {
    const Phase& plain = phases[1];
    const Phase& traced = phases[2];
    const LayerBreakdown b = BreakDown(traced);
    const double spawns = static_cast<double>(traced.samples.size());
    const double all_spawns = static_cast<double>(completed);
    std::vector<double> exec_us;
    for (const Record& r : traced.samples) exec_us.push_back(r.ExecMs() * 1e3);
    const double exec_p50_us = Percentile(exec_us, 0.50);
    const double route_self = Percentile(b.route_self_us, 0.50);
    const double launch = Percentile(b.launch_us, 0.50);
    // The submit span is partitioned into route self time and the route span
    // that launched; whatever the two medians do not cover (the benchmark's call
    // into Spawn, non-additive medians) is the gap.
    const double gap = exec_p50_us - (route_self + launch);
    double dispatch_max = 0;
    double dispatch_sum = 0;
    for (const auto& [shard, count] : b.dispatch) {
      dispatch_max = std::max(dispatch_max, static_cast<double>(count));
      dispatch_sum += static_cast<double>(count);
    }
    const double dispatch_mean = shards == 0 ? 0 : dispatch_sum / static_cast<double>(shards);
    const size_t layered = b.launch_us.size();
    const double flushes = static_cast<double>(traced_after.flushes - traced_before.flushes);
    metrics = {
        {"spawn.service.route_self_us_p50", route_self, "us", layered},
        {"spawn.route.launch_us_p50", launch, "us", layered},
        {"spawn.service.attempts_per_spawn",
         Ratio(static_cast<double>(routes_after.attempts - routes_before.attempts), spawns),
         "1/spawn", traced.samples.size()},
        {"spawn.service.fallthrough_ratio",
         Ratio(static_cast<double>(routes_after.fallthroughs - routes_before.fallthroughs),
               static_cast<double>(traced.attempted)),
         "ratio", static_cast<size_t>(traced.attempted)},
        {"spawn.handle.wait_us_p50", Percentile(b.wait_us, 0.50), "us", b.wait_us.size()},
        {"forkserver.client.wire_send_us_p50", Percentile(b.wire_send_us, 0.50), "us",
         b.wire_send_us.size()},
        {"forkserver.wire.write_syscalls_per_spawn",
         Ratio(static_cast<double>(traced_after.write_syscalls - traced_before.write_syscalls),
               spawns),
         "1/spawn", traced.samples.size()},
        {"forkserver.wire.recvmsg_per_spawn",
         Ratio(static_cast<double>(traced_after.recvmsg - traced_before.recvmsg), spawns),
         "1/spawn", traced.samples.size()},
        {"forkserver.wire.frames_per_flush_mean",
         Ratio(static_cast<double>(traced_after.flushed_frames - traced_before.flushed_frames),
               flushes),
         "frames", static_cast<size_t>(flushes)},
        {"forkserver.server.reply_wait_us_p50", Percentile(b.reply_wait_us, 0.50), "us",
         b.reply_wait_us.size()},
        {"forkserver.server.cpu_ms_per_spawn",
         Ratio(children_after.cpu_ms - children_before.cpu_ms, all_spawns), "ms/spawn",
         static_cast<size_t>(completed)},
        {"forkserver.sharded.dispatch_max_over_mean", Ratio(dispatch_max, dispatch_mean),
         "ratio", static_cast<size_t>(dispatch_sum)},
        {"forkserver.sharded.restarts", static_cast<double>(restarts), "count", 1},
        {"client.cpu_ms_per_spawn", Ratio(self_after.cpu_ms - self_before.cpu_ms, spawns),
         "ms/spawn", traced.samples.size()},
        {"client.ctx_switches_per_spawn",
         Ratio(static_cast<double>(self_after.ctx_switches - self_before.ctx_switches), spawns),
         "1/spawn", traced.samples.size()},
        {"obs.trace_overhead_ratio",
         Ratio(Ratio(static_cast<double>(plain.samples.size()), plain.seconds),
               Ratio(spawns, traced.seconds)),
         "ratio", plain.samples.size() + traced.samples.size()},
        {"obs.trace_incomplete_chains", static_cast<double>(b.incomplete), "count",
         traced.samples.size()},
        {"obs.trace_ring_peak_spans", static_cast<double>(traced.ring_peak), "spans", 1},
        {"reconcile.exec_p50_us", exec_p50_us, "us", exec_us.size()},
        {"reconcile.gap_us_p50", gap, "us", layered},
    };
    if (traced.ring_peak >= kTraceRingSpans) violation("the trace ring filled between drains");
    if (std::fabs(route_self + launch + gap - exec_p50_us) > 1e-6) {
      violation("layer medians plus gap do not reconstruct exec p50");
    }
  }

  const bool correct = failed == 0;
  std::vector<std::string> context = {
      Field("workload", JsonString(w.name)),
      Field("seed", std::to_string(args.seed)),
      Field("seconds", std::to_string(args.seconds)),
      Field("tracing", args.trace ? "true" : "false"),
      Field("nproc", std::to_string(nproc)),
      Field("kernel_release", JsonString(uts.release)),
      Field("callers", std::to_string(kCallers)),
      Field("shards", std::to_string(shards)),
      Field("ballast_bytes", std::to_string(w.ballast_bytes)),
      Field("fanout_window", std::to_string(w.window)),
  };
  for (const std::string& e : errors) std::fprintf(stderr, "spawnbench: FAILED: %s\n", e.c_str());
  Report(metrics, info, context, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace forklift

int main(int argc, char** argv) { return forklift::Main(argc, argv); }
