// layerbench: one layered benchmark of the similarity-join system.
//
//   layerbench --workload selfjoin|query|churn --seed N --seconds S
//              --trace 0|1 --query-rate R --churn-rate R
//              [--trace-out FILE] [--commit SHA] [--tiny] [--inject-mismatch]
//              [--max-inflight N] [--setup-only]
//
// Both offered rates are required, because a traced run of any workload
// also runs the other two; --trace-out is required with --trace 1.
//
// --trace 0 runs the workload once and reports its end-to-end metrics.
// --trace 1 runs it twice, untraced and traced, and reports the per-layer
// metrics of the traced pass, the p99 latency of the untraced pass and the
// tracing overhead (traced minus untraced figures); short traced passes of
// the other two workloads fill in the layers this workload does not reach,
// and the spans of every pass go to one Chrome trace_event JSON file.
//
// Output: a fingerprint line, one "name value unit" line per metric, and
// last a JSON result line.  Any wrong answer makes the exit code nonzero.
// Use layerbench/run.py, which builds the binary first (see README.md).

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "tracer.h"
#include "workloads.h"

namespace layerbench {
namespace {

const char* const kWorkloads[] = {"selfjoin", "query", "churn"};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "layerbench: " << error << "\n"
            << "usage: layerbench --workload selfjoin|query|churn --seed N "
               "--seconds S --trace 0|1 --query-rate R --churn-rate R "
               "[--trace-out FILE] [--commit SHA] [--tiny] "
               "[--inject-mismatch] [--max-inflight N] [--setup-only]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opts;
  opts.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (flag == "--inject-mismatch") {
      opts.inject_mismatch = true;
      continue;
    }
    if (flag == "--setup-only") {
      opts.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--query-rate") {
      opts.query_rate = std::strtod(value.c_str(), &end);
    } else if (flag == "--churn-rate") {
      opts.churn_rate = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--max-inflight") {
      opts.max_inflight = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--commit") {
      opts.commit = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for " + flag);
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opts.workload == w;
  if (!known) Usage("unknown workload '" + opts.workload + "'");
  if (opts.seconds <= 0 || opts.query_rate <= 0 || opts.churn_rate <= 0) {
    Usage("--seconds, --query-rate and --churn-rate must be given and "
          "positive");
  }
  if (opts.trace && opts.trace_out.empty()) {
    Usage("--trace 1 needs --trace-out");
  }
  return opts;
}

Outcome RunWorkload(const std::string& workload, const Options& opts,
                    Tracer* tracer) {
  if (workload == "selfjoin") return RunSelfJoin(opts, tracer);
  if (workload == "query") return RunQuery(opts, tracer);
  return RunChurn(opts, tracer);
}

int Main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
#ifndef NDEBUG
  constexpr bool kAssertionsOn = true;
#else
  constexpr bool kAssertionsOn = false;
#endif
  if (std::strcmp(LAYERBENCH_BUILD_TYPE, "Release") != 0 || kAssertionsOn) {
    std::cerr << "layerbench: refusing to measure a non-Release build ("
              << LAYERBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  if (opts.setup_only) {
    const Outcome setup = RunWorkload(opts.workload, opts, nullptr);
    std::cout << JsonNumber(setup.e2e.at("setup_s").value) << " "
              << setup.notes.at("setup_samples") << "\n";
    return 0;
  }

  Outcome main_pass;
  MetricMap reported;
  uint64_t attempted = 0;
  Failures failures;
  auto account = [&](const Outcome& o) {
    attempted += o.attempted;
    failures.Merge(o.failures);
  };

  if (!opts.trace) {
    main_pass = RunWorkload(opts.workload, opts, nullptr);
    account(main_pass);
    reported = main_pass.e2e;
  } else {
    const Outcome plain = RunWorkload(opts.workload, opts, nullptr);
    account(plain);
    Tracer tracer;
    tracer.BeginSection(opts.workload);
    main_pass = RunWorkload(opts.workload, opts, &tracer);
    account(main_pass);
    reported = main_pass.layers;
    // The p99, overhead and error figures are value events too, so every
    // per-layer metric has a span of its name in the trace.
    const int64_t now = tracer.NowNs();
    reported["p99_us"] = {plain.p99_us, "us"};
    tracer.Value("p99_us", plain.p99_us, now);
    for (const char* m : {"setup_s", "qps", "p50_us"}) {
      const Metric& traced = main_pass.e2e.at(m);
      const std::string name = std::string("trace.overhead.") + m;
      reported[name] = {traced.value - plain.e2e.at(m).value, traced.unit};
      tracer.Value(name, reported[name].value, now);
    }
    reported["trace.overhead.p99_us"] = {main_pass.p99_us - plain.p99_us,
                                         "us"};
    tracer.Value("trace.overhead.p99_us", main_pass.p99_us - plain.p99_us,
                 now);
    reported["error_rate"] = {
        main_pass.attempted == 0
            ? 1.0
            : static_cast<double>(main_pass.failures.total()) /
                  static_cast<double>(main_pass.attempted),
        "ratio"};
    tracer.Value("error_rate", reported["error_rate"].value, now);
    Options brief = opts;
    brief.seconds = std::max(1.0, opts.seconds / 5.0);
    for (const char* other : kWorkloads) {
      if (opts.workload == other) continue;
      brief.workload = other;
      tracer.BeginSection(other);
      const Outcome o = RunWorkload(other, brief, &tracer);
      account(o);
      for (const auto& [name, metric] : o.layers) reported.emplace(name, metric);
    }
    CheckOk(tracer.WriteChromeTrace(opts.trace_out), "write trace");
    main_pass.notes["trace_file"] = opts.trace_out;
    main_pass.notes["trace_events"] = std::to_string(tracer.size());
  }

  main_pass.attempted = attempted;
  main_pass.failures = failures;
  PrintFingerprint(opts, main_pass);
  PrintMetricLines(reported);
  const bool correct = failures.mismatch == 0 && attempted > 0;
  PrintResult(correct, attempted, failures.total(), reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) { return layerbench::Main(argc, argv); }
