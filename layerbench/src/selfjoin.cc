// selfjoin: the paper's headline operation.  Set-up builds the ε-k-d-B tree
// in parallel and flattens it; the measured loop runs the parallel flat
// self-join at nproc threads back to back.  Every join's pair count and
// order-independent pair hash must equal the sequential FlatEkdbSelfJoin's.

#include <algorithm>
#include <optional>
#include <span>

#include "common/pair_sink.h"
#include "common/simd_kernel.h"
#include "core/ekdb_flat.h"
#include "core/ekdb_flat_join.h"
#include "core/ekdb_tree.h"
#include "core/parallel_join.h"
#include "workloads.h"

namespace layerbench {
namespace {

using simjoin::IdPair;

constexpr int kProbeReps = 3;
constexpr int kProbeSetups = 5;
constexpr size_t kMinJoins = 5;

/// Order-independent digest of a pair set: count plus a wrapping sum of a
/// mixed 64-bit key per pair, so any pair sequence of the same set agrees.
class HashSink : public simjoin::PairSink {
 public:
  void Emit(simjoin::PointId a, simjoin::PointId b) override {
    ++count_;
    sum_ += Mix((static_cast<uint64_t>(a) << 32) | b);
  }
  void EmitBatch(std::span<const IdPair> pairs) override {
    for (const IdPair& p : pairs) Emit(p.first, p.second);
  }
  bool operator==(const HashSink& o) const {
    return count_ == o.count_ && sum_ == o.sum_;
  }
  uint64_t count() const { return count_; }
  void Corrupt() { sum_ ^= 1; }

 private:
  static uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Rows per second of the dispatched batch kernel sweeping the flat arena
/// tile by tile, as the leaf joins do.  One span per sweep.
void KernelProbe(const simjoin::FlatEkdbTree& flat, Tracer* tracer) {
  const size_t dims = flat.dims();
  const size_t rows = flat.arena_size();
  constexpr size_t kTile = simjoin::BatchDistanceKernel::kTileCapacity;
  simjoin::BatchDistanceKernel kernel(flat.config().metric, dims,
                                      flat.config().epsilon);
  uint8_t mask[kTile];
  size_t kept = 0;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr size_t kQueries = 16;
    Tracer::Span span(tracer, "simd_kernel.rows_per_s", kQueries * rows);
    for (size_t q = 0; q < kQueries; ++q) {
      const float* query = flat.arena_row(
          static_cast<uint32_t>((q * 7919 + static_cast<size_t>(rep)) % rows));
      for (size_t pos = 0; pos < rows; pos += kTile) {
        const size_t count = std::min(kTile, rows - pos);
        const float* base = flat.arena_row(static_cast<uint32_t>(pos));
        const float* next = pos + kTile < rows ? base + kTile * dims : nullptr;
        kept += kernel.FilterWithinEpsilonStrided(query, base, dims, count,
                                                  mask, next);
      }
    }
  }
  // Keep the sweep observable so it cannot be optimised away.
  volatile size_t observed = kept;
  (void)observed;
}

}  // namespace

Outcome RunSelfJoin(const Options& opts, Tracer* tracer) {
  Outcome out;
  const simjoin::Dataset data = ClusteredSet(opts);
  simjoin::EkdbConfig config;  // ε=0.1, L2, leaf threshold 64
  const size_t threads = opts.nproc;

  // Set-up: parallel tree build + parallel flatten.
  std::optional<simjoin::EkdbTree> tree;
  std::optional<simjoin::FlatEkdbTree> flat;
  auto set_up = [&]() {
    flat.reset();
    tree.reset();
    const Clock::time_point start = Clock::now();
    {
      Tracer::Span span(tracer, "ekdb_tree.build_s");
      auto built = simjoin::EkdbTree::BuildParallel(data, config, threads);
      CheckOk(built.status(), "EkdbTree::BuildParallel");
      tree.emplace(std::move(*built));
    }
    {
      Tracer::Span span(tracer, "ekdb_flat.flatten_s");
      auto flattened = simjoin::FlatEkdbTree::FromTree(*tree, threads);
      CheckOk(flattened.status(), "FlatEkdbTree::FromTree");
      flat.emplace(std::move(*flattened));
    }
    return SecondsSince(start);
  };
  if (opts.setup_only) {
    MeasureSetup(set_up, &out);
    return out;
  }
  const double setup_s = SetupSecondsInChild(opts, &out);
  set_up();

  // Oracle: the sequential flat self-join.
  HashSink oracle;
  simjoin::JoinStats seq_stats;
  const int64_t seq_start = TraceNow(tracer);
  {
    Tracer::Span span(tracer, "ekdb_flat_join.seq_s");
    CheckOk(simjoin::FlatEkdbSelfJoin(*flat, &oracle, &seq_stats),
            "FlatEkdbSelfJoin");
  }
  if (opts.inject_mismatch) oracle.Corrupt();

  // Measured loop: back-to-back parallel self-joins at nproc threads,
  // after one unmeasured join that warms the pool and the sink buffers.
  simjoin::ParallelJoinConfig parallel;
  parallel.num_threads = threads;
  {
    HashSink sink;
    CheckOk(simjoin::ParallelFlatEkdbSelfJoin(*flat, parallel, &sink),
            "ParallelFlatEkdbSelfJoin");
    ++out.attempted;
    if (!(sink == oracle)) ++out.failures.mismatch;
  }
  // Each join is one segment; the run reports the least-stolen of them
  // (see PickSegments).
  std::vector<double> join_us;
  const SegmentLog log = MeasureSegments(opts.seconds, kMinJoins, [&]() {
    HashSink sink;
    const Clock::time_point start = Clock::now();
    simjoin::Status status;
    {
      Tracer::Span span(tracer, "parallel_join.tN_s");
      status = simjoin::ParallelFlatEkdbSelfJoin(*flat, parallel, &sink);
    }
    const double s = SecondsSince(start);
    ++out.attempted;
    if (!status.ok()) {
      ++out.failures.error;
      join_us.push_back(kMissedUs);
    } else if (!(sink == oracle)) {
      ++out.failures.mismatch;
      join_us.push_back(kMissedUs);
    } else {
      join_us.push_back(s * 1e6);
    }
    return s;
  });
  std::vector<double> latency_us;
  double joined_s = 0.0;
  for (size_t i : PickSegments(log, opts.seconds, kMinJoins, &out)) {
    latency_us.push_back(join_us[i]);
    joined_s += log.seconds[i];
  }
  SetEndToEnd(&out, setup_s,
              static_cast<double>(latency_us.size()) / joined_s, latency_us);
  out.notes["n"] = std::to_string(data.size());
  out.notes["pairs"] = std::to_string(oracle.count());
  out.notes["joins"] = std::to_string(join_us.size());
  out.notes["join_threads"] = std::to_string(threads);
  if (tracer == nullptr) return out;

  // Traced-only probes: more set-ups and sequential joins, the 1-thread
  // parallel join and the kernel sweep, so each layer has a median over
  // several spans.
  for (int rep = 1; rep < kProbeSetups; ++rep) set_up();
  for (int rep = 1; rep < kProbeReps; ++rep) {
    HashSink sink;
    Tracer::Span span(tracer, "ekdb_flat_join.seq_s");
    CheckOk(simjoin::FlatEkdbSelfJoin(*flat, &sink), "FlatEkdbSelfJoin");
  }
  simjoin::ParallelJoinConfig one_thread;
  one_thread.num_threads = 1;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    HashSink sink;
    simjoin::Status status;
    {
      Tracer::Span span(tracer, "parallel_join.t1_s");
      status = simjoin::ParallelFlatEkdbSelfJoin(*flat, one_thread, &sink);
    }
    ++out.attempted;
    if (!status.ok()) ++out.failures.error;
    else if (!(sink == oracle)) ++out.failures.mismatch;
  }
  KernelProbe(*flat, tracer);

  const double seq_s = tracer->MedianPerOp("ekdb_flat_join.seq_s", 1e-9);
  const double tN_s = tracer->MedianPerOp("parallel_join.tN_s", 1e-9);
  const double rows_per_s =
      1.0 / tracer->MedianPerOp("simd_kernel.rows_per_s", 1e-9);
  const double candidates = static_cast<double>(seq_stats.candidate_pairs);
  const double emitted = static_cast<double>(seq_stats.pairs_emitted);
  auto value = [&](const std::string& name, double v, const char* unit) {
    tracer->Value(name, v, seq_start);
    out.layers[name] = {v, unit};
  };
  out.layers["ekdb_tree.build_s"] = {
      tracer->MedianPerOp("ekdb_tree.build_s", 1e-9), "s"};
  out.layers["ekdb_flat.flatten_s"] = {
      tracer->MedianPerOp("ekdb_flat.flatten_s", 1e-9), "s"};
  out.layers["ekdb_flat_join.seq_s"] = {seq_s, "s"};
  out.layers["parallel_join.t1_s"] = {
      tracer->MedianPerOp("parallel_join.t1_s", 1e-9), "s"};
  out.layers["parallel_join.tN_s"] = {tN_s, "s"};
  out.layers["simd_kernel.rows_per_s"] = {rows_per_s, "1/s"};
  value("join_s", tN_s, "s");
  value("ekdb_flat.bytes", static_cast<double>(flat->total_bytes()), "B");
  value("parallel_join.efficiency",
        seq_s / (static_cast<double>(threads) * tN_s), "ratio");
  value("ekdb_flat_join.candidate_pairs", candidates, "count");
  value("ekdb_flat_join.node_pairs_visited",
        static_cast<double>(seq_stats.node_pairs_visited), "count");
  value("ekdb_flat_join.node_pairs_pruned",
        static_cast<double>(seq_stats.node_pairs_pruned), "count");
  value("ekdb_flat_join.pairs_emitted", emitted, "count");
  value("ekdb_flat_join.candidates_per_pair",
        emitted > 0 ? candidates / emitted : 0.0, "ratio");
  value("simd_kernel.scalar_fallbacks",
        static_cast<double>(seq_stats.scalar_fallbacks), "count");
  value("simd_kernel.join_share", candidates / rows_per_s / seq_s, "ratio");
  return out;
}

}  // namespace layerbench
