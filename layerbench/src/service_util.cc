#include "service_util.h"

#include "service/client.h"

namespace layerbench {

using simjoin::Frame;
using simjoin::FrameType;

double StartAndBuild(const simjoin::BuildIndexRequest& build,
                     const Options& opts,
                     std::unique_ptr<simjoin::Server>* server) {
  simjoin::ServerConfig config;
  if (opts.max_inflight > 0) config.max_inflight = opts.max_inflight;
  if (*server != nullptr) {
    (*server)->Shutdown();
    (*server)->Wait();
    server->reset();
  }
  const Clock::time_point start = Clock::now();
  auto started = simjoin::Server::Start(config);
  CheckOk(started.status(), "Server::Start");
  *server = std::move(*started);
  simjoin::ClientConfig cc;
  cc.port = (*server)->port();
  auto client = simjoin::Client::Connect(cc);
  CheckOk(client.status(), "connect");
  CheckOk(client->BuildIndex(build).status(), "BuildIndex RPC");
  return SecondsSince(start);
}

simjoin::obs::MetricsSnapshot FetchMetrics(LoadGen* gen) {
  const uint64_t id = gen->NextCallId();
  auto frame = gen->Call(
      simjoin::EncodeFrame(FrameType::kStats, id, 0,
                           simjoin::EncodeStatsRequest({})),
      id);
  CheckOk(frame.status(), "Stats RPC");
  simjoin::StatsResponse stats;
  CheckOk(simjoin::ParseStatsResponse(frame->payload, &stats),
          "parse Stats response");
  return std::move(stats.metrics);
}

double CounterOf(const simjoin::obs::MetricsSnapshot& snap,
                 const std::string& name) {
  const auto* c = snap.FindCounter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value);
}

double HistogramQuantile(const simjoin::obs::MetricsSnapshot& snap,
                         const std::string& name, double q) {
  const auto* h = snap.FindHistogram(name);
  return h == nullptr ? 0.0 : h->Quantile(q);
}

std::vector<uint8_t> EncodeQueryFrame(const float* point, size_t dims,
                                      double epsilon, uint64_t request_id) {
  simjoin::RangeQueryRequest req;
  req.name = kIndexName;
  req.epsilon = epsilon;
  req.dims = static_cast<uint32_t>(dims);
  req.queries.assign(point, point + dims);
  req.has_planner = true;
  return simjoin::EncodeFrame(FrameType::kRangeQuery, request_id,
                              kRequestDeadlineMs,
                              simjoin::EncodeRangeQueryRequest(req));
}

Verdict ParseQueryFrame(const Frame& frame,
                        std::vector<simjoin::PointId>* ids) {
  if (frame.header.type != FrameType::kRangeQueryResult) {
    return Verdict::kDecode;
  }
  simjoin::RangeQueryResponse resp;
  if (!simjoin::ParseRangeQueryResponse(frame.payload, &resp).ok() ||
      resp.results.size() != 1) {
    return Verdict::kDecode;
  }
  *ids = std::move(resp.results[0]);
  return Verdict::kOk;
}

}  // namespace layerbench
