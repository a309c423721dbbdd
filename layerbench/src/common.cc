#include "common.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/simd_kernel.h"
#include "common/rng.h"

namespace layerbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void SetEndToEnd(Outcome* out, double setup_s, double qps,
                 const std::vector<double>& latency_us) {
  out->e2e["setup_s"] = {setup_s, "s"};
  out->e2e["qps"] = {qps, "1/s"};
  out->e2e["p50_us"] = {Quantile(latency_us, 0.50), "us"};
  out->e2e["rss_mb"] = {PeakRssMb(), "MiB"};
  out->p99_us = Quantile(latency_us, 0.99);
  out->notes["latency_samples"] = std::to_string(latency_us.size());
}

CpuTicks ReadCpuTicks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already part of user and nice.
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  uint64_t v[8] = {};
  for (uint64_t& field : v) {
    if (!(stat >> field)) return ticks;
  }
  ticks.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  ticks.steal = v[7];
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.steal < from.steal || to.busy < from.busy) return 0.0;
  const uint64_t steal = to.steal - from.steal;
  const uint64_t wanted = to.busy - from.busy + steal;
  return wanted == 0 ? 0.0
                     : static_cast<double>(steal) /
                           static_cast<double>(wanted);
}

SegmentLog MeasureSegments(double seconds, size_t min_segments,
                           const std::function<double()>& measure_one) {
  SegmentLog log;
  double measured_s = 0.0;
  while (log.seconds.size() < kSegmentsMeasured * min_segments ||
         measured_s < kSegmentsMeasured * seconds) {
    const CpuTicks before = ReadCpuTicks();
    log.seconds.push_back(measure_one());
    log.steal.push_back(StealShare(before, ReadCpuTicks()));
    measured_s += log.seconds.back();
  }
  return log;
}

std::vector<size_t> PickSegments(const SegmentLog& log, double seconds,
                                 size_t min_segments, Outcome* out) {
  std::vector<size_t> order(log.steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return log.steal[a] < log.steal[b];
  });
  std::vector<size_t> picked;
  double picked_s = 0.0;
  for (size_t i : order) {
    const bool enough = picked_s >= seconds && picked.size() >= min_segments;
    // Once there is enough, only segments as calm as the last one picked.
    if (enough && log.steal[i] > log.steal[picked.back()]) break;
    picked.push_back(i);
    picked_s += log.seconds[i];
  }
  std::sort(picked.begin(), picked.end());
  double stolen_all = 0.0;
  double stolen_picked = 0.0;
  double all_s = 0.0;
  std::string steal_list;
  for (size_t i = 0; i < log.steal.size(); ++i) {
    stolen_all += log.steal[i] * log.seconds[i];
    all_s += log.seconds[i];
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s%.3f", i == 0 ? "" : " ",
                  log.steal[i]);
    steal_list += buf;
  }
  for (size_t i : picked) stolen_picked += log.steal[i] * log.seconds[i];
  out->notes["segments"] = std::to_string(log.steal.size());
  out->notes["segments_reported"] = std::to_string(picked.size());
  out->notes["segment_steal"] = steal_list;
  out->notes["steal_share"] = JsonNumber(all_s > 0 ? stolen_all / all_s : 0);
  out->notes["steal_share_reported"] =
      JsonNumber(picked_s > 0 ? stolen_picked / picked_s : 0);
  return picked;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void MeasureSetup(const std::function<double()>& set_up, Outcome* out) {
  constexpr size_t kMinBlocks = 4;
  const Clock::time_point warm_start = Clock::now();
  while (SecondsSince(warm_start) < kSetupWarmupSeconds) set_up();
  std::vector<std::vector<double>> blocks;
  const SegmentLog log = MeasureSegments(kSetupSeconds, kMinBlocks, [&]() {
    const Clock::time_point start = Clock::now();
    blocks.emplace_back();
    while (SecondsSince(start) < kSetupBlockSeconds) {
      blocks.back().push_back(set_up());
    }
    return SecondsSince(start);
  });
  std::vector<double> seconds;
  for (size_t i : PickSegments(log, kSetupSeconds, kMinBlocks, out)) {
    seconds.insert(seconds.end(), blocks[i].begin(), blocks[i].end());
  }
  out->e2e["setup_s"] = {Median(seconds), "s"};
  out->notes["setup_samples"] = std::to_string(seconds.size());
}

double SetupSecondsInChild(const Options& opts, Outcome* out) {
  std::vector<std::string> args = {"/proc/self/exe", "--workload",
                                   opts.workload, "--seed",
                                   std::to_string(opts.seed), "--seconds",
                                   "1", "--trace", "0", "--query-rate",
                                   JsonNumber(opts.query_rate),
                                   "--churn-rate", JsonNumber(opts.churn_rate),
                                   "--setup-only"};
  if (opts.tiny) args.push_back("--tiny");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) CheckOk(simjoin::Status::IoError("pipe"), "set-up");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string text;
  char buf[256];
  ssize_t n = 0;
  while (spawned == 0 && (n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    CheckOk(simjoin::Status::Internal("set-up child failed"), "set-up");
  }
  // The child prints "<median seconds> <samples>".
  char* samples = nullptr;
  const double seconds = std::strtod(text.c_str(), &samples);
  out->notes["setup_samples"] =
      std::to_string(std::strtoull(samples, nullptr, 10));
  return seconds;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

simjoin::Dataset ClusteredSet(const Options& opts) {
  constexpr size_t kDims = 16;
  constexpr size_t kClusters = 20;
  constexpr double kSigma = 0.05;
  // Cluster centres exactly as GenerateClustered draws them for R11's set
  // (seed 1101): uniform in [0.1, 0.9]^d.  Fixing them keeps the join and
  // query cost of every seed alike; the run's seed draws the points.
  simjoin::Rng structure(1101);
  std::vector<float> centres(kClusters * kDims);
  for (float& c : centres) c = static_cast<float>(structure.Uniform(0.1, 0.9));
  const size_t n = opts.tiny ? 4000 : 100000;
  simjoin::Rng rng(opts.seed);
  simjoin::Dataset data(n, kDims);
  for (size_t i = 0; i < n; ++i) {
    float* row = data.MutableRow(static_cast<simjoin::PointId>(i));
    const float* centre = centres.data() + rng.UniformInt(kClusters) * kDims;
    for (size_t d = 0; d < kDims; ++d) {
      const double v = centre[d] + rng.Gaussian(0.0, kSigma);
      row[d] = static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
  }
  return data;
}

std::string KernelTierName() {
  simjoin::BatchDistanceKernel kernel(simjoin::Metric::kL2, 16, 0.1);
  switch (kernel.path()) {
    case simjoin::KernelPath::kScalar: return "scalar";
    case simjoin::KernelPath::kPortable: return "portable";
    case simjoin::KernelPath::kAvx2: return "avx2";
    case simjoin::KernelPath::kAvx512: return "avx512";
    case simjoin::KernelPath::kAuto: break;
  }
  return "auto";
}

void PrintFingerprint(const Options& opts, const Outcome& outcome) {
  std::ostringstream os;
  os << "{\"fingerprint\": {"
     << "\"workload\": " << JsonString(opts.workload)
     << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
     << ", \"trace\": " << (opts.trace ? "true" : "false")
     << ", \"nproc\": " << opts.nproc
     << ", \"kernel_tier\": " << JsonString(KernelTierName())
     << ", \"build_type\": " << JsonString(LAYERBENCH_BUILD_TYPE)
     << ", \"compiler\": " << JsonString(LAYERBENCH_COMPILER)
     << ", \"commit\": " << JsonString(opts.commit);
  for (const auto& [key, value] : outcome.notes) {
    os << ", " << JsonString(key) << ": " << JsonString(value);
  }
  const Failures& f = outcome.failures;
  os << ", \"failures\": {\"retry_after\": " << f.retry_after
     << ", \"deadline\": " << f.deadline << ", \"decode\": " << f.decode
     << ", \"disconnect\": " << f.disconnect
     << ", \"mismatch\": " << f.mismatch << ", \"error\": " << f.error
     << "}, \"attempted\": " << outcome.attempted << "}}";
  std::cout << os.str() << "\n";
}

void PrintMetricLines(const MetricMap& metrics) {
  for (const auto& [name, m] : metrics) {
    std::cout << name << " " << JsonNumber(m.value) << " " << m.unit << "\n";
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricMap& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << JsonString(name) << ": {\"value\": " << JsonNumber(m.value)
       << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void CheckOk(const simjoin::Status& status, const char* what) {
  if (status.ok()) return;
  std::cerr << "layerbench: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace layerbench
