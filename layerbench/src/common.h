// Shared plumbing of the layered benchmark: options, metric maps, failure
// accounting, percentiles and the run fingerprint.

#ifndef LAYERBENCH_COMMON_H_
#define LAYERBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"

namespace layerbench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test scale: tiny datasets and rates, same code paths.
  bool tiny = false;
  /// Offered open-loop rates (requests/s) of the query and churn workloads;
  /// both are required.
  double query_rate = 0.0;
  double churn_rate = 0.0;
  /// Where the traced run writes its Chrome trace_event JSON (required
  /// with --trace 1).
  std::string trace_out;
  /// Recorded in the fingerprint; the checkout may not be a git repository.
  std::string commit = "unknown";
  /// Smoke-test hook: corrupt one expected answer so the run must fail.
  bool inject_mismatch = false;
  /// Smoke-test hook: the server's admission bound (ServerConfig::
  /// max_inflight); 0 keeps the default ServerConfig.
  size_t max_inflight = 0;
  /// Child mode: only repeat the workload's set-up and print its median
  /// time (see SetupSecondsInChild).
  bool setup_only = false;
  /// Worker / connection count: the host's hardware concurrency.
  size_t nproc = 1;
};

/// One named measurement.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Failed operations, by cause.  Every one also counts as attempted.
struct Failures {
  uint64_t retry_after = 0;  ///< refused by admission (kRetryAfter)
  uint64_t deadline = 0;     ///< DEADLINE_EXCEEDED from the server
  uint64_t decode = 0;       ///< unparseable or unexpected response frame
  uint64_t disconnect = 0;   ///< connection lost or request never answered
  uint64_t mismatch = 0;     ///< answer differs from the oracle
  uint64_t error = 0;        ///< any other error status

  uint64_t total() const {
    return retry_after + deadline + decode + disconnect + mismatch + error;
  }
  void Merge(const Failures& o) {
    retry_after += o.retry_after;
    deadline += o.deadline;
    decode += o.decode;
    disconnect += o.disconnect;
    mismatch += o.mismatch;
    error += o.error;
  }
};

/// Everything one workload pass produces.
struct Outcome {
  MetricMap e2e;
  /// p99 latency of the reported segments.  A per-layer metric, not an
  /// end-to-end one: on a host whose CPUs are shared it follows the host's
  /// CPU steal more than the program (see README.md).
  double p99_us = 0.0;
  MetricMap layers;  ///< filled by traced passes only
  uint64_t attempted = 0;
  Failures failures;
  /// Extra fingerprint fields: offered rates, sample counts, sizes.
  std::map<std::string, std::string> notes;
};

/// Fills the end-to-end metrics every workload reports (set-up time,
/// completed requests per second, median latency and peak RSS) and the
/// p99 latency.  latency_us holds one sample per attempt of the reported
/// segments; a failed attempt counts as kMissedUs.
void SetEndToEnd(Outcome* out, double setup_s, double qps,
                 const std::vector<double>& latency_us);

/// Latency sample value for an operation that failed: it misses every
/// latency limit, so it sorts above any real latency (60 s).
inline constexpr double kMissedUs = 60e6;

/// Host CPU counters from the first line of /proc/stat, in clock ticks
/// summed over every CPU.  Both are 0 when the file cannot be read.
struct CpuTicks {
  uint64_t busy = 0;   ///< user, nice, system, irq and softirq time
  uint64_t steal = 0;  ///< time the hypervisor ran something else instead
};
CpuTicks ReadCpuTicks();

/// Share of the CPU time this machine wanted between two readings that the
/// hypervisor gave to someone else: steal / (busy + steal).  0 when unknown.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// The measured part of a run is cut into segments, each with its length
/// and the host's steal share while it ran.  A run measures this many times
/// its seconds and reports the least-stolen segments that add up to its
/// seconds, and every other segment no more stolen than those, so a spell
/// in which the host took CPU away from this machine falls among the
/// segments left out, while a calm run reports every segment.
inline constexpr size_t kSegmentsMeasured = 3;

struct SegmentLog {
  std::vector<double> seconds;
  std::vector<double> steal;
};

/// Calls measure_one() once per segment; it measures one segment and
/// returns the segment's length in seconds.  Stops once the segments add
/// up to kSegmentsMeasured times `seconds` and number at least
/// kSegmentsMeasured times `min_segments`.
SegmentLog MeasureSegments(double seconds, size_t min_segments,
                           const std::function<double()>& measure_one);

/// Indices, ascending, of the segments a run reports: the least-stolen
/// ones, until they add up to `seconds` and number at least
/// `min_segments`, then every other one whose steal share is no higher than
/// the last of those.  Records the steal figures in the fingerprint notes
/// of *out.
std::vector<size_t> PickSegments(const SegmentLog& log, double seconds,
                                 size_t min_segments, Outcome* out);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

double SecondsSince(Clock::time_point start);

/// The --setup-only pass of a workload: repeats set_up (which returns how
/// long it took), untimed for kSetupWarmupSeconds, then timed in blocks of
/// kSetupBlockSeconds that MeasureSegments treats as segments, and sets
/// out->e2e["setup_s"] to the median over the blocks PickSegments reports
/// (at least kSetupSeconds of them) and the setup_samples note to their
/// count.  Set-up is a short burst of parallel work, slowed as much as the
/// open loops by a spell of host CPU steal, so it is picked the same way.
/// The warm-up is there because every run starts set-up on an idle machine;
/// on the host used to set this up the same set-up ran up to twice as
/// slowly in the first second after an idle spell as right after other
/// work.
void MeasureSetup(const std::function<double()>& set_up, Outcome* out);
inline constexpr double kSetupWarmupSeconds = 1.0;
inline constexpr double kSetupSeconds = 1.0;
inline constexpr double kSetupBlockSeconds = 0.25;

/// Runs this binary again with --setup-only for the same workload and seed,
/// copies the setup_samples note the child prints to *out and returns its
/// median set-up time.  Repeating set-up in a child process keeps the heap
/// those repetitions leave behind out of the measuring process, whose
/// rss_mb then holds one set-up, as a real server would.
double SetupSecondsInChild(const Options& opts, Outcome* out);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Clustered point set of the selfjoin and query workloads: 100k points
/// (4000 when tiny), d=16, 20 equally likely Gaussian clusters of sigma
/// 0.05 around R11's cluster centres, clamped to the unit cube.
simjoin::Dataset ClusteredSet(const Options& opts);

/// Name of the kernel tier BatchDistanceKernel dispatches to on this host.
std::string KernelTierName();

/// Prints the run fingerprint as one JSON line.
void PrintFingerprint(const Options& opts, const Outcome& outcome);

/// Prints every metric as "name value unit" on its own line.
void PrintMetricLines(const MetricMap& metrics);

/// Prints the final result line.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricMap& metrics);

/// Fails with a clear message when the status is not OK.
void CheckOk(const simjoin::Status& status, const char* what);

/// JSON string literal of s (quotes and escapes included).
std::string JsonString(const std::string& s);

/// Number formatted with all of its significant digits.
std::string JsonNumber(double v);

}  // namespace layerbench

#endif  // LAYERBENCH_COMMON_H_
