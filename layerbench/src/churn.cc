// churn: writes beside reads.  An updatable index is built over the wire
// from the initial set of a drifting-cluster timeline (workload/drift.h,
// d=16) and the timeline is replayed open loop: each step's removals and
// insertions go out as Remove / Insert batches of 64 rows, spread among
// that step's cluster-chasing RangeQuery frames, so about one request in
// ten is an update.  Updates go one at a time, in timeline order, so the
// server assigns insert ids exactly as the timeline numbers them.  The
// replay runs in half-second segments; after each the generator drains
// and every checkpoint query must equal a brute-force scan over the
// timeline's live rows.

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/metric.h"
#include "core/delta_index.h"
#include "loadgen.h"
#include "service/registry.h"
#include "service_util.h"
#include "workload/drift.h"
#include "workloads.h"

namespace layerbench {
namespace {

using simjoin::Frame;
using simjoin::FrameType;
using simjoin::PointId;

constexpr double kEpsilon = 0.1;
constexpr size_t kBatchRows = 64;
constexpr size_t kQueriesPerStep = 180;
constexpr double kSegmentSeconds = 0.5;
constexpr size_t kMinSegments = 3;
constexpr size_t kCheckpointQueries = 16;

/// The timeline's live rows by logical id.  Only live rows are kept, so
/// the mirror's size follows the live set, not how long the replay ran.
class Mirror {
 public:
  explicit Mirror(const simjoin::Dataset& initial) : dims_(initial.dims()) {
    rows_ = initial.flat();
    for (size_t i = 0; i < initial.size(); ++i) {
      ids_.push_back(static_cast<PointId>(i));
      slot_[static_cast<PointId>(i)] = i;
    }
    next_id_ = static_cast<PointId>(initial.size());
  }

  PointId next_id() const { return next_id_; }

  void Insert(const float* rows, size_t count) {
    rows_.insert(rows_.end(), rows, rows + count * dims_);
    for (size_t i = 0; i < count; ++i) {
      slot_[next_id_] = ids_.size();
      ids_.push_back(next_id_++);
    }
  }

  /// Tombstones ids; returns how many were live.
  size_t Remove(const PointId* ids, size_t count) {
    size_t removed = 0;
    for (size_t i = 0; i < count; ++i) {
      const auto it = slot_.find(ids[i]);
      if (it == slot_.end()) continue;
      // Move the last live row into the freed slot.
      const size_t slot = it->second;
      const size_t last = ids_.size() - 1;
      slot_.erase(it);
      if (slot != last) {
        std::copy_n(rows_.begin() + last * dims_, dims_,
                    rows_.begin() + slot * dims_);
        ids_[slot] = ids_[last];
        slot_[ids_[slot]] = slot;
      }
      ids_.pop_back();
      rows_.resize(ids_.size() * dims_);
      ++removed;
    }
    return removed;
  }

  /// Brute-force answer: live ids within eps of the query, ascending.
  std::vector<PointId> Scan(const float* query, double eps) const {
    const simjoin::DistanceKernel kernel(simjoin::Metric::kL2);
    std::vector<PointId> ids;
    for (size_t slot = 0; slot < ids_.size(); ++slot) {
      if (kernel.WithinEpsilon(query, rows_.data() + slot * dims_, dims_,
                               eps)) {
        ids.push_back(ids_[slot]);
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// The live rows as a dataset, in logical id order.
  simjoin::Dataset LiveSet() const {
    std::vector<size_t> order(ids_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return ids_[a] < ids_[b]; });
    std::vector<float> flat;
    flat.reserve(rows_.size());
    for (size_t slot : order) {
      flat.insert(flat.end(), rows_.begin() + slot * dims_,
                  rows_.begin() + (slot + 1) * dims_);
    }
    auto data = simjoin::Dataset::FromFlat(std::move(flat), dims_);
    CheckOk(data.status(), "live set");
    return std::move(*data);
  }

 private:
  size_t dims_;
  std::vector<float> rows_;  ///< live rows, slot by slot
  std::vector<PointId> ids_;  ///< logical id of each slot
  std::unordered_map<PointId, size_t> slot_;
  PointId next_id_ = 0;
};

/// One scheduled request of the replay.
struct ChurnOp {
  enum Type : uint8_t { kQuery, kInsert, kRemove };
  Type type = kQuery;
  uint32_t step = 0;
  uint32_t index = 0;  ///< query row, or first row / id of the batch
  uint32_t count = 0;  ///< rows or ids in the batch
};

/// Lays out a step's requests: its update batches spread evenly among its
/// queries, removals and insertions alternating.
std::vector<ChurnOp> Schedule(const simjoin::DriftTimeline& timeline) {
  const size_t dims = timeline.dims;
  std::vector<ChurnOp> ops;
  for (size_t s = 0; s < timeline.steps.size(); ++s) {
    const simjoin::DriftStep& step = timeline.steps[s];
    const auto st = static_cast<uint32_t>(s);
    std::vector<ChurnOp> updates;
    const size_t removes = step.remove_ids.size();
    const size_t inserts = step.inserts(dims);
    for (size_t k = 0; k * kBatchRows < std::max(removes, inserts); ++k) {
      const size_t lo = k * kBatchRows;
      if (lo < removes) {
        updates.push_back({ChurnOp::kRemove, st, static_cast<uint32_t>(lo),
                           static_cast<uint32_t>(
                               std::min(kBatchRows, removes - lo))});
      }
      if (lo < inserts) {
        updates.push_back({ChurnOp::kInsert, st, static_cast<uint32_t>(lo),
                           static_cast<uint32_t>(
                               std::min(kBatchRows, inserts - lo))});
      }
    }
    const size_t queries = step.queries(dims);
    const size_t total = updates.size() + queries;
    size_t u = 0;
    size_t q = 0;
    for (size_t p = 0; p < total; ++p) {
      // Update slot whenever the even spread of updates crosses p.
      if (u < updates.size() &&
          (p + 1) * updates.size() / total > p * updates.size() / total) {
        ops.push_back(updates[u++]);
      } else {
        ops.push_back({ChurnOp::kQuery, st, static_cast<uint32_t>(q++), 1});
      }
    }
  }
  return ops;
}

class ChurnSource : public OpSource {
 public:
  ChurnSource(const simjoin::DriftTimeline& timeline,
              const std::vector<ChurnOp>& ops, Mirror* mirror)
      : timeline_(timeline), ops_(ops), mirror_(mirror) {}

  OpKind kind(size_t op) const override {
    return ops_[op].type == ChurnOp::kQuery ? OpKind::kQuery
                                            : OpKind::kUpdate;
  }

  void Encode(size_t op, uint64_t request_id,
              std::vector<uint8_t>* out) override {
    const ChurnOp& o = ops_[op];
    const simjoin::DriftStep& step = timeline_.steps[o.step];
    const size_t dims = timeline_.dims;
    std::vector<uint8_t> frame;
    if (o.type == ChurnOp::kQuery) {
      frame = EncodeQueryFrame(step.query_rows.data() + o.index * dims, dims,
                               kEpsilon, request_id);
    } else if (o.type == ChurnOp::kInsert) {
      simjoin::InsertRequest req;
      req.name = kIndexName;
      req.dims = static_cast<uint32_t>(dims);
      const float* rows = step.insert_rows.data() + o.index * dims;
      req.rows.assign(rows, rows + o.count * dims);
      frame = simjoin::EncodeFrame(FrameType::kInsert, request_id,
                                   kRequestDeadlineMs,
                                   simjoin::EncodeInsertRequest(req));
    } else {
      simjoin::RemoveRequest req;
      req.name = kIndexName;
      const PointId* ids = step.remove_ids.data() + o.index;
      req.ids.assign(ids, ids + o.count);
      frame = simjoin::EncodeFrame(FrameType::kRemove, request_id,
                                   kRequestDeadlineMs,
                                   simjoin::EncodeRemoveRequest(req));
    }
    out->insert(out->end(), frame.begin(), frame.end());
  }

  Verdict Parse(size_t op, const Frame& frame) override {
    const ChurnOp& o = ops_[op];
    if (o.type == ChurnOp::kQuery) return ParseQueryFrame(frame, &ids_);
    if (o.type == ChurnOp::kInsert) {
      if (frame.header.type != FrameType::kInsertOk ||
          !simjoin::ParseInsertResponse(frame.payload, &insert_).ok()) {
        return Verdict::kDecode;
      }
      return Verdict::kOk;
    }
    if (frame.header.type != FrameType::kRemoveOk ||
        !simjoin::ParseRemoveResponse(frame.payload, &remove_).ok()) {
      return Verdict::kDecode;
    }
    return Verdict::kOk;
  }

  /// Queries answered mid-churn have no fixed oracle (the live set moves
  /// under them); updates must land exactly where the timeline says, and
  /// are applied to the mirror in the order the server applied them.  Once
  /// an update is lost the mirror may differ from the server for a reason
  /// that failure already counts, so later updates go unchecked.
  Verdict Verify(size_t op) override {
    const ChurnOp& o = ops_[op];
    const simjoin::DriftStep& step = timeline_.steps[o.step];
    if (o.type == ChurnOp::kQuery || lost_) return Verdict::kOk;
    if (o.type == ChurnOp::kInsert) {
      const bool ok = insert_.first_id == mirror_->next_id() &&
                      insert_.count == o.count;
      mirror_->Insert(step.insert_rows.data() + o.index * timeline_.dims,
                      o.count);
      return ok ? Verdict::kOk : Verdict::kMismatch;
    }
    const size_t removed =
        mirror_->Remove(step.remove_ids.data() + o.index, o.count);
    return remove_.removed == removed && removed == o.count
               ? Verdict::kOk
               : Verdict::kMismatch;
  }

  void Lost(size_t) override { lost_ = true; }

  /// True once an update failed for good: the mirror no longer tracks the
  /// server's live rows.
  bool lost() const { return lost_; }

 private:
  const simjoin::DriftTimeline& timeline_;
  const std::vector<ChurnOp>& ops_;
  Mirror* mirror_;
  std::vector<PointId> ids_;
  simjoin::InsertResponse insert_;
  simjoin::RemoveResponse remove_;
  bool lost_ = false;
};

/// Drained checkpoint: the latest step's first queries through the server,
/// against brute force over the mirror.
void Checkpoint(LoadGen* gen, const simjoin::DriftStep& step, size_t dims,
                const Mirror& mirror, bool corrupt, Outcome* out) {
  const size_t queries = std::min(kCheckpointQueries, step.queries(dims));
  for (size_t q = 0; q < queries; ++q) {
    const float* point = step.query_rows.data() + q * dims;
    std::vector<PointId> want = mirror.Scan(point, kEpsilon);
    if (corrupt && q == 0) want.push_back(mirror.next_id());
    const uint64_t id = gen->NextCallId();
    auto frame = gen->Call(EncodeQueryFrame(point, dims, kEpsilon, id), id);
    ++out->attempted;
    std::vector<PointId> got;
    if (!frame.ok()) {
      ++out->failures.disconnect;
    } else if (ParseQueryFrame(*frame, &got) != Verdict::kOk) {
      ++out->failures.decode;
    } else if (got != want) {
      ++out->failures.mismatch;
    }
  }
}

simjoin::DriftTimeline MakeTimeline(const Options& opts, size_t requests) {
  simjoin::DriftConfig drift;
  drift.dims = 16;
  drift.clusters = 20;
  drift.points_per_cluster = opts.tiny ? 128 : 640;
  drift.queries_per_step = kQueriesPerStep;
  drift.sigma = 0.02;
  drift.seed = opts.seed;
  // One step is 2 * points_per_cluster / 64 update batches plus its
  // queries; generate enough steps for every scheduled request.
  const size_t per_step =
      kQueriesPerStep + 2 * drift.points_per_cluster / kBatchRows;
  drift.steps = requests / per_step + 2;
  auto timeline = simjoin::GenerateDrift(drift);
  CheckOk(timeline.status(), "GenerateDrift");
  return std::move(*timeline);
}

/// In-process probes of the delta tier (auto-compaction off, so the delta
/// stays populated until the explicit Flush): 64-row insert and remove
/// batches, queries against base + delta beside the same queries on an
/// immutable snapshot of the same live rows, and synchronous compaction.
/// Every probe query is checked against brute force.
void Probe(const simjoin::DriftTimeline& timeline, const Options& opts,
           Tracer* tracer, Outcome* out) {
  const size_t dims = timeline.dims;
  simjoin::EkdbConfig config;
  config.epsilon = kEpsilon;
  simjoin::UpdatableConfig update;
  update.auto_compact = false;
  auto index = simjoin::UpdatableIndex::Build(
      std::make_shared<const simjoin::Dataset>(timeline.initial), config,
      opts.nproc, update);
  CheckOk(index.status(), "UpdatableIndex::Build");
  Mirror mirror(timeline.initial);
  constexpr size_t kStepsPerFlush = 5;
  size_t step_index = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t s = 0; s < kStepsPerFlush; ++s, ++step_index) {
      const simjoin::DriftStep& step =
          timeline.steps[step_index % timeline.steps.size()];
      for (size_t lo = 0; lo < step.remove_ids.size(); lo += kBatchRows) {
        const size_t n = std::min(kBatchRows, step.remove_ids.size() - lo);
        uint32_t removed = 0;
        uint32_t missing = 0;
        {
          Tracer::Span span(tracer, "delta_index.remove_us");
          (*index)->RemoveBatch(step.remove_ids.data() + lo, n, &removed,
                                &missing);
        }
        mirror.Remove(step.remove_ids.data() + lo, n);
      }
      for (size_t lo = 0; lo < step.inserts(dims); lo += kBatchRows) {
        const size_t n = std::min(kBatchRows, step.inserts(dims) - lo);
        const float* rows = step.insert_rows.data() + lo * dims;
        simjoin::Result<PointId> first = PointId{0};
        {
          Tracer::Span span(tracer, "delta_index.insert_us");
          first = (*index)->InsertBatch(rows, n);
        }
        CheckOk(first.status(), "InsertBatch");
        mirror.Insert(rows, n);
      }
    }
    const simjoin::DriftStep& step =
        timeline.steps[(step_index - 1) % timeline.steps.size()];
    auto immutable = simjoin::IndexSnapshot::Build(
        "immutable", mirror.LiveSet(), config, opts.nproc);
    CheckOk(immutable.status(), "IndexSnapshot::Build");
    std::vector<PointId> ids;
    for (size_t q = 0; q < step.queries(dims); ++q) {
      const float* point = step.query_rows.data() + q * dims;
      ids.clear();
      {
        Tracer::Span span(tracer, "delta_index.range_query_us");
        CheckOk((*index)->RangeQuery(point, kEpsilon, &ids, nullptr, nullptr),
                "UpdatableIndex::RangeQuery");
      }
      ++out->attempted;
      if (ids != mirror.Scan(point, kEpsilon)) ++out->failures.mismatch;
      ids.clear();
      Tracer::Span span(tracer, "index_snapshot.range_query_us");
      CheckOk((*immutable)->RangeQuery(point, kEpsilon, &ids),
              "IndexSnapshot::RangeQuery");
    }
    Tracer::Span span(tracer, "delta_index.flush_s");
    CheckOk((*index)->Flush().status(), "UpdatableIndex::Flush");
  }
  out->layers["delta_index.insert_us"] = {
      tracer->MedianPerOp("delta_index.insert_us", 1e-3), "us"};
  out->layers["delta_index.remove_us"] = {
      tracer->MedianPerOp("delta_index.remove_us", 1e-3), "us"};
  out->layers["delta_index.range_query_us"] = {
      tracer->MedianPerOp("delta_index.range_query_us", 1e-3), "us"};
  out->layers["index_snapshot.range_query_us"] = {
      tracer->MedianPerOp("index_snapshot.range_query_us", 1e-3), "us"};
  out->layers["delta_index.flush_s"] = {
      tracer->MedianPerOp("delta_index.flush_s", 1e-9), "s"};
}

}  // namespace

Outcome RunChurn(const Options& opts, Tracer* tracer) {
  Outcome out;
  const double rate = opts.churn_rate;
  const size_t segment_ops =
      static_cast<size_t>(std::lround(rate * kSegmentSeconds));
  // Enough timeline for every segment MeasureSegments runs, and one more
  // for a segment length that rounding put just under kSegmentSeconds.
  const size_t max_segments =
      static_cast<size_t>(std::ceil(
          kSegmentsMeasured *
          std::max(opts.seconds / kSegmentSeconds, double{kMinSegments}))) +
      1;
  const simjoin::DriftTimeline timeline =
      MakeTimeline(opts, max_segments * segment_ops);
  const std::vector<ChurnOp> ops = Schedule(timeline);
  const size_t dims = timeline.dims;

  simjoin::BuildIndexRequest build;
  build.name = kIndexName;
  build.config.epsilon = kEpsilon;
  build.num_threads = 0;
  build.dims = static_cast<uint32_t>(dims);
  build.points = timeline.initial.flat();
  build.backend = simjoin::BackendKind::kUpdatable;
  std::unique_ptr<simjoin::Server> server;
  if (opts.setup_only) {
    MeasureSetup([&]() { return StartAndBuild(build, opts, &server); }, &out);
    return out;
  }
  const double setup_s = SetupSecondsInChild(opts, &out);
  StartAndBuild(build, opts, &server);

  auto gen = LoadGen::Connect(server->port(), opts.nproc);
  CheckOk(gen.status(), "connect load generator");
  Mirror mirror(timeline.initial);
  ChurnSource source(timeline, ops, &mirror);
  const simjoin::obs::MetricsSnapshot before = FetchMetrics(gen->get());

  // The replay runs segment by segment through the timeline; after each
  // the generator drains and the checkpoint queries are checked.  The
  // schedule restarts after a checkpoint, so the pause charges no latency.
  std::vector<LoadResult> segments;
  const SegmentLog log =
      MeasureSegments(opts.seconds, kMinSegments, [&]() {
        const size_t begin = segments.size() * segment_ops;
        const size_t end = begin + segment_ops;
        if (end > ops.size()) {
          CheckOk(simjoin::Status::Internal("drift timeline too short"),
                  "churn");
        }
        segments.emplace_back();
        CheckOk((*gen)->Run(&source, begin, end, rate, tracer,
                            &segments.back()),
                "replay");
        if (!source.lost()) {
          Checkpoint(gen->get(), timeline.steps[ops[end - 1].step], dims,
                     mirror, opts.inject_mismatch && begin == 0, &out);
        }
        return static_cast<double>(segment_ops) / rate;
      });
  LoadResult all;
  for (const LoadResult& segment : segments) all.Merge(segment);
  LoadResult res;
  for (size_t i : PickSegments(log, opts.seconds, kMinSegments, &out)) {
    res.Merge(segments[i]);
  }
  const int64_t stats_start = TraceNow(tracer);
  const simjoin::obs::MetricsSnapshot delta =
      FetchMetrics(gen->get()).DeltaSince(before);

  out.attempted += all.attempted;
  out.failures.Merge(all.failures);
  SetEndToEnd(&out, setup_s,
              static_cast<double>(res.completed) / res.elapsed_s,
              res.latency_us);
  const double compactions = CounterOf(delta, "compaction.count");
  out.notes["offered_rate"] = JsonNumber(rate);
  out.notes["connections"] = std::to_string(opts.nproc);
  out.notes["requests"] = std::to_string(all.attempted);
  out.notes["updates"] = std::to_string(all.update_latency_us.size());
  out.notes["update_resends"] = std::to_string(all.resent);
  if (source.lost()) out.notes["unchecked_after_lost_update"] = "true";
  out.notes["compactions"] = JsonNumber(compactions);
  if (tracer == nullptr) return out;

  auto value = [&](const std::string& name, double v, const char* unit) {
    tracer->Value(name, v, stats_start);
    out.layers[name] = {v, unit};
  };
  value("update_p50_us", Quantile(res.update_latency_us, 0.50), "us");
  value("update_p99_us", Quantile(res.update_latency_us, 0.99), "us");
  value("compaction.count", compactions, "count");
  value("compaction.duration_us.p50",
        HistogramQuantile(delta, "compaction.duration_us", 0.50), "us");
  value("loadgen.late_p99_us", Quantile(res.late_us, 0.99), "us");
  Probe(timeline, opts, tracer, &out);
  return out;
}

}  // namespace layerbench
