// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer's public functions.  A span's name is the per-layer metric it feeds,
// and its `ops` count says how many operations the interval covers, so a
// metric is derived straight from its spans (for example the median of
// duration / ops).  Measurements that are not durations (work counts,
// ratios, server-side figures read from the Stats RPC) are recorded as
// value events: a span over the interval that produced the figure, carrying
// the figure in its args.  Nothing is written while the run measures; the
// whole trace goes out as Chrome trace_event JSON when the run ends.

#ifndef LAYERBENCH_TRACER_H_
#define LAYERBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace layerbench {

class Tracer {
 public:
  struct Event {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = top level
    uint64_t request = 0;  ///< shared by the spans of one request; 0 = none
    int64_t start_ns = 0;  ///< relative to the tracer's epoch
    int64_t dur_ns = 0;
    uint64_t ops = 1;
    bool has_value = false;
    double value = 0.0;
  };

  /// RAII span; a null tracer makes it a no-op.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t ops = 1,
         uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    uint64_t ops_;
    uint64_t request_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    int64_t start_ns_ = 0;
  };

  Tracer();

  int64_t NowNs() const;

  /// Records a span that started at start_ns and ends now (for intervals
  /// whose name is only known once they are over).
  void Complete(const char* name, int64_t start_ns, uint64_t ops,
                uint64_t request);

  /// Records a value event covering [start_ns, now).
  void Value(const std::string& name, double value, int64_t start_ns);

  /// Opens a workload section: every later event is tagged with it in the
  /// trace file (the pid lane), so one file can hold several workloads.
  void BeginSection(const std::string& workload);

  /// Median of dur/ops over the spans named `name` in the current section,
  /// times `scale` (1e-9 for seconds per op, 1e-3 for µs, 1 for ns).
  double MedianPerOp(const std::string& name, double scale) const;

  /// Writes every event as a Chrome trace_event JSON file.
  simjoin::Status WriteChromeTrace(const std::string& path) const;

  size_t size() const { return events_.size(); }

 private:
  void Push(Event event);

  Clock::time_point epoch_;
  std::vector<Event> events_;
  std::vector<uint64_t> open_;  ///< ids of open spans (innermost last)
  std::vector<std::pair<size_t, std::string>> sections_;  ///< first event
  uint64_t next_id_ = 1;
};

/// Tracer clock for a possibly null tracer (0 when untraced).
inline int64_t TraceNow(Tracer* tracer) {
  return tracer != nullptr ? tracer->NowNs() : 0;
}

}  // namespace layerbench

#endif  // LAYERBENCH_TRACER_H_
