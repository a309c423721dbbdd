// Service plumbing shared by the query and churn workloads: timed server
// set-up, the Stats RPC over the load generator's connection, and reading
// deltas out of metric snapshots.

#ifndef LAYERBENCH_SERVICE_UTIL_H_
#define LAYERBENCH_SERVICE_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/server.h"

namespace layerbench {

/// Index name every workload builds.
inline constexpr const char* kIndexName = "bench";

/// Set-up: shuts down *server if there is one, then Server::Start with the
/// default ServerConfig (with opts.max_inflight when set) and the
/// BuildIndex RPC over a fresh connection.  *server keeps the new server.
/// Returns the set-up time in seconds.
double StartAndBuild(const simjoin::BuildIndexRequest& build,
                     const Options& opts,
                     std::unique_ptr<simjoin::Server>* server);

/// The server's metric registry, read through the Stats RPC.
simjoin::obs::MetricsSnapshot FetchMetrics(LoadGen* gen);

/// Readers over a DeltaSince snapshot (0 when the metric is absent).
double CounterOf(const simjoin::obs::MetricsSnapshot& snap,
                 const std::string& name);
double HistogramQuantile(const simjoin::obs::MetricsSnapshot& snap,
                         const std::string& name, double q);

/// A RangeQuery frame for one point, with the planner extension (recall 1,
/// automatic backend) so the cost-based planner routes it.
std::vector<uint8_t> EncodeQueryFrame(const float* point, size_t dims,
                                      double epsilon, uint64_t request_id);

/// Decodes a RangeQuery answer for one point into *ids.
Verdict ParseQueryFrame(const simjoin::Frame& frame,
                        std::vector<simjoin::PointId>* ids);

}  // namespace layerbench

#endif  // LAYERBENCH_SERVICE_UTIL_H_
