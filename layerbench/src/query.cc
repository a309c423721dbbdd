// query: an open loop of batch=1 RangeQuery frames at a fixed offered rate,
// pipelined over nproc connections against an in-process Server with the
// default ServerConfig (fusion and the planner on).  The index is the
// clustered set, built over the wire.  Queries are data points perturbed by
// Gaussian noise, at ε=0.1; every answer must be identical to the in-process
// IndexSnapshot::RangeQuery of an independently built snapshot.

#include <algorithm>
#include <cmath>
#include <random>

#include "loadgen.h"
#include "service/registry.h"
#include "service_util.h"
#include "workloads.h"

namespace layerbench {
namespace {

using simjoin::PointId;

constexpr double kEpsilon = 0.1;
constexpr size_t kPoolSize = 4096;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSegmentSeconds = 0.5;
constexpr size_t kMinSegments = 3;

/// The query pool: kPoolSize perturbed data points and their oracle answers.
struct QueryPool {
  size_t dims = 0;
  std::vector<float> points;
  std::vector<std::vector<PointId>> expected;

  const float* point(size_t i) const { return points.data() + i * dims; }
};

QueryPool MakePool(const simjoin::Dataset& data,
                   const simjoin::IndexSnapshot& oracle, uint64_t seed,
                   size_t size) {
  QueryPool pool;
  pool.dims = data.dims();
  std::mt19937_64 rng(seed ^ 0x71756572795f706full);
  std::uniform_int_distribution<size_t> row(0, data.size() - 1);
  std::normal_distribution<float> noise(0.0f, 0.01f);
  for (size_t i = 0; i < size; ++i) {
    const float* p = data.Row(static_cast<PointId>(row(rng)));
    for (size_t d = 0; d < pool.dims; ++d) {
      pool.points.push_back(std::clamp(p[d] + noise(rng), 0.0f, 1.0f));
    }
  }
  pool.expected.resize(size);
  for (size_t i = 0; i < size; ++i) {
    CheckOk(oracle.RangeQuery(pool.point(i), kEpsilon, &pool.expected[i]),
            "in-process RangeQuery");
    // Planner-extension answers come back in ascending id order.
    std::sort(pool.expected[i].begin(), pool.expected[i].end());
  }
  return pool;
}

class QuerySource : public OpSource {
 public:
  explicit QuerySource(const QueryPool& pool) : pool_(pool) {}

  OpKind kind(size_t) const override { return OpKind::kQuery; }

  void Encode(size_t op, uint64_t request_id,
              std::vector<uint8_t>* out) override {
    const std::vector<uint8_t> frame = EncodeQueryFrame(
        pool_.point(op % pool_.expected.size()), pool_.dims, kEpsilon,
        request_id);
    out->insert(out->end(), frame.begin(), frame.end());
  }

  Verdict Parse(size_t, const simjoin::Frame& frame) override {
    return ParseQueryFrame(frame, &ids_);
  }

  Verdict Verify(size_t op) override {
    return ids_ == pool_.expected[op % pool_.expected.size()]
               ? Verdict::kOk
               : Verdict::kMismatch;
  }

 private:
  const QueryPool& pool_;
  std::vector<PointId> ids_;
};

/// In-process layer probes on the oracle snapshot, with the server's
/// observed mean fused batch for the batched query path.
void Probe(const simjoin::IndexSnapshot& snapshot, const QueryPool& pool,
           size_t batch, Tracer* tracer) {
  for (int rep = 0; rep < 20; ++rep) {
    constexpr uint64_t kCalls = 256;
    Tracer::Span span(tracer, "index_snapshot.plan_range_us", kCalls);
    for (uint64_t c = 0; c < kCalls; ++c) {
      CheckOk(snapshot
                  .PlanRange(kEpsilon, 1.0, simjoin::kWireBackendAuto,
                             simjoin::RangePlannerOptions{})
                  .status(),
              "PlanRange");
    }
  }
  std::vector<PointId> ids;
  constexpr size_t kChunk = 64;
  for (size_t start = 0; start + kChunk <= pool.expected.size();
       start += kChunk) {
    Tracer::Span span(tracer, "index_snapshot.range_query_us", kChunk);
    for (size_t i = start; i < start + kChunk; ++i) {
      ids.clear();
      CheckOk(snapshot.RangeQuery(pool.point(i), kEpsilon, &ids),
              "RangeQuery");
    }
  }
  std::vector<simjoin::RangeQuerySpec> specs(batch);
  std::vector<std::vector<PointId>> results;
  const size_t batches = std::max<size_t>(20, pool.expected.size() / batch);
  for (size_t b = 0; b < batches; ++b) {
    for (size_t i = 0; i < batch; ++i) {
      specs[i] = {pool.point((b * batch + i) % pool.expected.size()),
                  kEpsilon};
    }
    Tracer::Span span(tracer, "index_snapshot.range_query_batch_us", batch);
    CheckOk(snapshot.RangeQueryBatch(specs.data(), batch, &results),
            "RangeQueryBatch");
  }
}

}  // namespace

Outcome RunQuery(const Options& opts, Tracer* tracer) {
  Outcome out;
  simjoin::Dataset data = ClusteredSet(opts);
  simjoin::EkdbConfig config;
  config.epsilon = kEpsilon;

  simjoin::BuildIndexRequest build;
  build.name = kIndexName;
  build.config = config;
  build.num_threads = 0;  // server default: hardware concurrency
  build.dims = static_cast<uint32_t>(data.dims());
  build.points = data.flat();
  std::unique_ptr<simjoin::Server> server;
  if (opts.setup_only) {
    MeasureSetup([&]() { return StartAndBuild(build, opts, &server); }, &out);
    return out;
  }
  const double setup_s = SetupSecondsInChild(opts, &out);
  StartAndBuild(build, opts, &server);
  build.points.clear();
  build.points.shrink_to_fit();

  auto oracle = simjoin::IndexSnapshot::Build("oracle", data, config,
                                              opts.nproc);
  CheckOk(oracle.status(), "in-process IndexSnapshot::Build");
  QueryPool pool = MakePool(data, **oracle, opts.seed,
                            opts.tiny ? 256 : kPoolSize);
  if (opts.inject_mismatch) pool.expected[1].push_back(PointId{0});

  auto gen = LoadGen::Connect(server->port(), opts.nproc);
  CheckOk(gen.status(), "connect load generator");
  QuerySource source(pool);
  const double rate = opts.query_rate;
  const size_t warmup = static_cast<size_t>(std::lround(rate * kWarmupSeconds));
  const size_t segment_ops =
      static_cast<size_t>(std::lround(rate * kSegmentSeconds));

  // Warm-up: connections, plan cache and fusion collector settle; its
  // answers are checked but its latencies are not reported.
  LoadResult warm;
  CheckOk((*gen)->Run(&source, 0, warmup, rate, nullptr, &warm), "warm-up");
  const simjoin::obs::MetricsSnapshot before = FetchMetrics(gen->get());
  // Half-second segments; the generator drains between them.
  std::vector<LoadResult> segments;
  const SegmentLog log =
      MeasureSegments(opts.seconds, kMinSegments, [&]() {
        const size_t begin = warmup + segments.size() * segment_ops;
        segments.emplace_back();
        CheckOk((*gen)->Run(&source, begin, begin + segment_ops, rate, tracer,
                            &segments.back()),
                "measured run");
        return static_cast<double>(segment_ops) / rate;
      });
  const int64_t stats_start = TraceNow(tracer);
  const simjoin::obs::MetricsSnapshot delta =
      FetchMetrics(gen->get()).DeltaSince(before);

  LoadResult all = warm;
  for (const LoadResult& segment : segments) all.Merge(segment);
  LoadResult res;
  for (size_t i : PickSegments(log, opts.seconds, kMinSegments, &out)) {
    res.Merge(segments[i]);
  }
  out.attempted = all.attempted;
  out.failures = all.failures;
  SetEndToEnd(&out, setup_s,
              static_cast<double>(res.completed) / res.elapsed_s,
              res.latency_us);
  out.notes["offered_rate"] = JsonNumber(rate);
  out.notes["connections"] = std::to_string(opts.nproc);
  out.notes["requests"] = std::to_string(all.attempted - warm.attempted);
  if (tracer == nullptr) return out;

  const double batches = CounterOf(delta, "service.fusion.batches");
  const double fused = CounterOf(delta, "service.fusion.fused_queries");
  const double mean_batch = batches > 0 ? fused / batches : 1.0;
  const double planned = CounterOf(delta, "service.planner.requests");
  auto value = [&](const std::string& name, double v, const char* unit) {
    tracer->Value(name, v, stats_start);
    out.layers[name] = {v, unit};
  };
  value("service.latency_us.range_query.p50",
        HistogramQuantile(delta, "service.latency_us.range_query", 0.50),
        "us");
  value("service.latency_us.range_query.p99",
        HistogramQuantile(delta, "service.latency_us.range_query", 0.99),
        "us");
  value("service.fusion.batches", batches, "count");
  value("service.fusion.mean_batch", mean_batch, "ratio");
  value("service.fusion.wait_us.p50",
        HistogramQuantile(delta, "service.fusion.wait_us", 0.50), "us");
  value("service.planner.cache_hit_ratio",
        planned > 0 ? CounterOf(delta, "service.planner.cache_hits") / planned
                    : 0.0,
        "ratio");
  value("service.admission.rejected", CounterOf(delta, "service.retry_after"),
        "count");
  value("loadgen.late_p99_us", Quantile(res.late_us, 0.99), "us");

  Probe(**oracle, pool,
        std::max<size_t>(1, static_cast<size_t>(std::lround(mean_batch))),
        tracer);
  out.layers["protocol.encode_ns"] = {
      tracer->MedianPerOp("protocol.encode_ns", 1.0), "ns"};
  out.layers["protocol.parse_ns"] = {
      tracer->MedianPerOp("protocol.parse_ns", 1.0), "ns"};
  out.layers["index_snapshot.plan_range_us"] = {
      tracer->MedianPerOp("index_snapshot.plan_range_us", 1e-3), "us"};
  out.layers["index_snapshot.range_query_us"] = {
      tracer->MedianPerOp("index_snapshot.range_query_us", 1e-3), "us"};
  out.layers["index_snapshot.range_query_batch_us"] = {
      tracer->MedianPerOp("index_snapshot.range_query_batch_us", 1e-3),
      "us"};
  return out;
}

}  // namespace layerbench
