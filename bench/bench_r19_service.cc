// R19: query-service throughput and latency over loopback TCP.
//
// Starts the similarity-join server in-process on an ephemeral loopback
// port, builds a uniform d=16 index through the wire, then runs a
// closed-loop load generator: each client thread owns one connection and
// keeps one batched range-query request in flight at all times.  Reports
// sustained queries/sec (batch size x requests/sec), request latency
// percentiles, and the server's admission-control counters.  The admission
// gate is sized to the offered load (max-inflight = clients), so the run
// exercises the gate without spending the benchmark window in retry sleeps.
//
//   ./bench/bench_r19_service
//   ./bench/bench_r19_service --clients 4 --seconds 5 --batch 128
//
// Emits a `# SERVICE_JSON {...}` line for scripts/check_bench_regression.sh.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/timer.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/generators.h"

namespace simjoin {
namespace {

struct ClientResult {
  std::vector<double> latencies_us;
  uint64_t requests = 0;
  uint64_t retries = 0;
  uint64_t errors = 0;
  bool connected = false;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  const size_t idx = std::min(
      sorted->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted->size() - 1)));
  return (*sorted)[idx];
}

int Run(const ArgParser& args) {
  const size_t n = static_cast<size_t>(args.GetInt("n"));
  const size_t dims = static_cast<size_t>(args.GetInt("dims"));
  const size_t batch = static_cast<size_t>(args.GetInt("batch"));
  const size_t clients = static_cast<size_t>(args.GetInt("clients"));
  const double seconds = args.GetDouble("seconds");
  const double epsilon = args.GetDouble("epsilon");

  ServerConfig server_config;
  server_config.max_inflight =
      static_cast<size_t>(args.GetInt("max-inflight")) != 0
          ? static_cast<size_t>(args.GetInt("max-inflight"))
          : clients;
  auto server = Server::Start(server_config);
  if (!server.ok()) {
    std::cerr << "server start failed: " << server.status().ToString() << "\n";
    return 1;
  }
  const uint16_t port = (*server)->port();

  auto data = GenerateUniform({.n = n, .dims = dims, .seed = 7});
  if (!data.ok()) {
    std::cerr << data.status().ToString() << "\n";
    return 1;
  }

  std::cout << "R19: service loopback load (n=" << n << ", d=" << dims
            << ", L2, eps=" << epsilon << ", batch=" << batch
            << ", clients=" << clients << ", max-inflight="
            << server_config.max_inflight << ")\n"
            << "  cores detected: " << std::thread::hardware_concurrency()
            << " (client threads and server share them; single-core hosts "
               "serialise everything)\n";

  // Build the index through the wire, like a real deployment would.
  {
    ClientConfig cc;
    cc.port = port;
    auto admin = Client::Connect(cc);
    if (!admin.ok()) {
      std::cerr << "connect failed: " << admin.status().ToString() << "\n";
      return 1;
    }
    BuildIndexRequest req;
    req.name = "bench";
    req.config.epsilon = epsilon;
    req.dims = static_cast<uint32_t>(dims);
    req.points = data->flat();
    Timer timer;
    auto built = admin->BuildIndex(req);
    if (!built.ok()) {
      std::cerr << "build failed: " << built.status().ToString() << "\n";
      return 1;
    }
    std::cout << "  index built in " << built->build_seconds << " s ("
              << built->index_bytes << " bytes, upload+build "
              << timer.Seconds() << " s)\n";
  }

  // Closed loop: every client thread keeps exactly one request in flight.
  std::atomic<bool> stop{false};
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t]() {
      ClientResult& r = results[t];
      ClientConfig cc;
      cc.port = port;
      cc.max_retries = 1000;  // absorb backpressure inside the loop
      auto client = Client::Connect(cc);
      if (!client.ok()) return;
      r.connected = true;
      r.latencies_us.reserve(1 << 16);

      RangeQueryRequest req;
      req.name = "bench";
      req.epsilon = epsilon;
      req.dims = static_cast<uint32_t>(dims);
      req.queries.resize(batch * dims);
      size_t cursor = (t * 7919) % data->size();
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t q = 0; q < batch; ++q) {
          std::copy_n(data->Row(static_cast<PointId>(cursor)), dims,
                      req.queries.begin() + static_cast<ptrdiff_t>(q * dims));
          cursor = (cursor + 1) % data->size();
        }
        Timer timer;
        auto resp = client->RangeQuery(req);
        if (!resp.ok()) {
          ++r.errors;
          continue;
        }
        r.latencies_us.push_back(timer.Seconds() * 1e6);
        ++r.requests;
      }
      r.retries = client->retry_count();
    });
  }

  Timer wall;
  while (wall.Seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.Seconds();

  std::vector<double> latencies;
  uint64_t requests = 0, retries = 0, errors = 0, connected = 0;
  for (ClientResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    requests += r.requests;
    retries += r.retries;
    errors += r.errors;
    connected += r.connected ? 1 : 0;
  }
  std::sort(latencies.begin(), latencies.end());
  const double qps = static_cast<double>(requests * batch) / elapsed;
  const double p50 = Percentile(&latencies, 0.50);
  const double p95 = Percentile(&latencies, 0.95);
  const double p99 = Percentile(&latencies, 0.99);

  const ServerCounters counters = (*server)->counters();
  const uint64_t dropped = clients - connected;

  std::cout << "  " << requests << " requests (" << requests * batch
            << " queries) in " << elapsed << " s\n"
            << "  throughput: " << static_cast<uint64_t>(qps)
            << " queries/s, " << static_cast<uint64_t>(qps / batch)
            << " requests/s\n"
            << "  latency us: p50=" << p50 << " p95=" << p95 << " p99=" << p99
            << "\n"
            << "  backpressure: " << counters.requests_rejected
            << " rejected, " << retries << " client retries\n"
            << "  errors: " << errors << " request, "
            << counters.decode_errors << " decode, " << dropped
            << " dropped connections\n";

  std::ostringstream json;
  json << "{\"bench\":\"r19_service\",\"n\":" << n << ",\"dims\":" << dims
       << ",\"batch\":" << batch << ",\"clients\":" << clients
       << ",\"max_inflight\":" << server_config.max_inflight
       << ",\"seconds\":" << elapsed << ",\"requests\":" << requests
       << ",\"queries\":" << requests * batch << ",\"qps\":" << qps
       << ",\"p50_us\":" << p50 << ",\"p95_us\":" << p95
       << ",\"p99_us\":" << p99 << ",\"client_retries\":" << retries
       << ",\"rejected\":" << counters.requests_rejected
       << ",\"request_errors\":" << errors
       << ",\"decode_errors\":" << counters.decode_errors
       << ",\"dropped_connections\":" << dropped
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << "}";
  std::cout << "# SERVICE_JSON " << json.str() << "\n";

  (*server)->Shutdown();
  (*server)->Wait();
  return errors == 0 && dropped == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simjoin

int main(int argc, char** argv) {
  simjoin::ArgParser args("R19: similarity-join service loopback benchmark");
  args.AddFlag("n", "100000", "indexed points");
  args.AddFlag("dims", "16", "dimensionality");
  args.AddFlag("epsilon", "0.1", "build + query epsilon (L2)");
  args.AddFlag("batch", "128", "queries per request frame");
  args.AddFlag("clients", "2", "closed-loop client threads");
  args.AddFlag("max-inflight", "0", "admission gate; 0 = clients");
  args.AddFlag("seconds", "3", "measurement window");
  const simjoin::Status st = args.Parse(argc, argv);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n" << args.Help();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.Help();
    return 0;
  }
  return simjoin::Run(args);
}
