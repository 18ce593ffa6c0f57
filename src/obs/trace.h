// forklift/obs: span-based tracing keyed by wire request ids.
//
// Every spawn routed through SpawnService allocates one NextRequestId() and
// threads it down the stack: the service records the submit and per-route
// spans, the pipelined client stamps the wire send under the same id (the
// id IS the frame's request_id), the sharded pool stamps which shard the
// request was dispatched to, and the ProcessHandle stamps the observed exit.
// One trace dump therefore reconstructs a spawn's whole lifecycle —
// submit → route attempts/fallthroughs → wire encode → shard dispatch →
// exec-confirmed → exit-observed — from a single id.
//
// The tracer is client-side state: server/zygote processes never record
// spans (their side of the story is the metrics arena). Storage is a bounded
// in-memory ring; recording is mutex-guarded but allocation-light, and the
// enabled flag is one relaxed atomic so disabled tracing costs a load.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace forklift {
namespace obs {

struct TraceSpan {
  uint64_t trace_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // == start_ns for point events
  std::string name;
  std::string detail;
};

class Tracer {
 public:
  static Tracer& Global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Records a completed span [start_ns, end_ns]. Spans with trace_id == 0
  // are dropped — an unrouted spawn has nothing to correlate.
  void Record(uint64_t trace_id, std::string_view name, uint64_t start_ns, uint64_t end_ns,
              std::string_view detail = {});

  // Records a point event stamped now.
  void Event(uint64_t trace_id, std::string_view name, std::string_view detail = {});

  // Spans recorded for one trace id, in recording order.
  std::vector<TraceSpan> SpansForTrace(uint64_t trace_id) const;

  // Every retained span, oldest first.
  std::vector<TraceSpan> AllSpans() const;

  // {"spans":[...]} — every retained span as JSON.
  std::string RenderJson() const;

  // Renders and writes the JSON dump to `path` (truncating), through the
  // fault-gated export write path.
  Status WriteJsonFile(const std::string& path) const;

  void set_enabled(bool enabled);
  bool enabled() const;

  // Drops every retained span (the enabled flag is untouched).
  void ResetForTest();

 private:
  Tracer() = default;
};

}  // namespace obs
}  // namespace forklift

#endif  // SRC_OBS_TRACE_H_
