// Differential loopback tests: every result that crosses the wire must be
// bit-identical to the in-process FlatEkdbTree APIs on the same data —
// same neighbour id order, same join pair sequence, same JoinStats — at
// every thread count.  The service adds transport, not semantics.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/ekdb_flat.h"
#include "core/ekdb_flat_join.h"
#include "core/ekdb_tree.h"
#include "core/epsilon_grid.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/generators.h"
#include "gtest/gtest.h"

namespace simjoin {
namespace {

EkdbConfig Config(double epsilon = 0.1) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = 16;
  return config;
}

Dataset MakeData(size_t n, size_t dims, uint64_t seed) {
  auto data = GenerateUniform({.n = n, .dims = dims, .seed = seed});
  EXPECT_TRUE(data.ok());
  return std::move(*data);
}

BuildIndexRequest BuildRequestFor(const std::string& name,
                                  const Dataset& data,
                                  const EkdbConfig& config) {
  BuildIndexRequest req;
  req.name = name;
  req.config = config;
  req.dims = static_cast<uint32_t>(data.dims());
  req.points = data.flat();
  return req;
}

struct LiveServer {
  std::unique_ptr<Server> server;
  Client client;
};

LiveServer StartWithClient(ServerConfig config = {}) {
  auto server = Server::Start(config);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  ClientConfig client_config;
  client_config.port = (*server)->port();
  auto client = Client::Connect(client_config);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return LiveServer{std::move(*server), std::move(*client)};
}

void ExpectStatsEqual(const JoinStats& a, const JoinStats& b) {
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  EXPECT_EQ(a.distance_calls, b.distance_calls);
  EXPECT_EQ(a.node_pairs_visited, b.node_pairs_visited);
  EXPECT_EQ(a.node_pairs_pruned, b.node_pairs_pruned);
  EXPECT_EQ(a.pairs_emitted, b.pairs_emitted);
  EXPECT_EQ(a.simd_batches, b.simd_batches);
  EXPECT_EQ(a.scalar_fallbacks, b.scalar_fallbacks);
}

/// Reads one whole frame from a raw connection.
Frame ReadRawFrame(TcpSocket* sock) {
  Frame frame;
  uint8_t header[kFrameHeaderSize];
  EXPECT_TRUE(sock->RecvAll(header, sizeof(header)).ok());
  EXPECT_TRUE(
      DecodeFrameHeader(header, kDefaultMaxFramePayload, &frame.header).ok());
  frame.payload.resize(frame.header.payload_size);
  EXPECT_TRUE(sock->RecvAll(frame.payload.data(), frame.payload.size()).ok());
  return frame;
}

/// Encodes a legacy (plannerless) RangeQuery frame for one query point.
std::vector<uint8_t> RangeQueryFrame(const std::string& name,
                                     std::span<const float> point,
                                     double epsilon, uint64_t request_id) {
  RangeQueryRequest req;
  req.name = name;
  req.epsilon = epsilon;
  req.dims = static_cast<uint32_t>(point.size());
  req.queries.assign(point.begin(), point.end());
  return EncodeFrame(FrameType::kRangeQuery, request_id, 0,
                     EncodeRangeQueryRequest(req));
}

TEST(ServerLoopbackTest, PingAndStats) {
  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client.Ping().ok());
  auto stats = live.client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->accepted_connections, 1u);
  EXPECT_EQ(stats->indexes.size(), 0u);
}

TEST(ServerLoopbackTest, StatsRpcRoundTripsEveryRegisteredMetric) {
  const Dataset data = MakeData(300, 6, 17);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("m", data, Config(0.15))).ok());
  SimilarityJoinRequest req;
  req.name_a = "m";
  VectorSink sink;
  ASSERT_TRUE(live.client.SimilarityJoin(req, &sink).ok());

  // The server runs in-process, so the RPC must export (a superset of) the
  // same registry this test can snapshot locally: every metric registered
  // before the call comes back by name, counters no smaller than the local
  // reading (they are monotonic and traffic only moves them forward).
  const obs::MetricsSnapshot before = obs::GlobalMetrics().Snapshot();
  auto stats = live.client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->has_metrics);
  const obs::MetricsSnapshot& wire = stats->metrics;
  for (const obs::CounterSample& c : before.counters) {
    const obs::CounterSample* got = wire.FindCounter(c.name);
    ASSERT_NE(got, nullptr) << "counter " << c.name << " missing from RPC";
    EXPECT_GE(got->value, c.value) << c.name;
  }
  for (const obs::GaugeSample& g : before.gauges) {
    EXPECT_NE(wire.FindGauge(g.name), nullptr)
        << "gauge " << g.name << " missing from RPC";
  }
  for (const obs::HistogramSample& h : before.histograms) {
    const obs::HistogramSample* got = wire.FindHistogram(h.name);
    ASSERT_NE(got, nullptr) << "histogram " << h.name << " missing from RPC";
    EXPECT_EQ(got->boundaries, h.boundaries) << h.name;
    EXPECT_GE(got->count, h.count) << h.name;
  }

  // Spot-check the service instrumentation itself made the trip.
  const obs::CounterSample* admitted =
      wire.FindCounter("service.requests_admitted");
  ASSERT_NE(admitted, nullptr);
  EXPECT_GE(admitted->value, 3u);  // build + join + this stats request
  const obs::CounterSample* streamed =
      wire.FindCounter("service.pairs_streamed");
  ASSERT_NE(streamed, nullptr);
  EXPECT_EQ(streamed->value, sink.pairs().size());
  const obs::HistogramSample* join_lat =
      wire.FindHistogram("service.latency_us.similarity_join");
  ASSERT_NE(join_lat, nullptr);
  EXPECT_GE(join_lat->count, 1u);
  const obs::CounterSample* bytes_in = wire.FindCounter("service.bytes_in");
  const obs::CounterSample* bytes_out = wire.FindCounter("service.bytes_out");
  ASSERT_NE(bytes_in, nullptr);
  ASSERT_NE(bytes_out, nullptr);
  EXPECT_GT(bytes_in->value, 0u);
  EXPECT_GT(bytes_out->value, 0u);
}

TEST(ServerLoopbackTest, RangeQueryMatchesInProcessBitForBit) {
  const Dataset data = MakeData(500, 8, 11);
  const EkdbConfig config = Config(0.2);

  // In-process reference.
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  LiveServer live = StartWithClient();
  auto built = live.client.BuildIndex(BuildRequestFor("d", data, config));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->num_points, 500u);

  RangeQueryRequest req;
  req.name = "d";
  req.epsilon = 0.15;
  req.dims = static_cast<uint32_t>(data.dims());
  const size_t batch = 40;
  req.queries.assign(data.flat().begin(),
                     data.flat().begin() + batch * data.dims());
  auto resp = live.client.RangeQuery(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->results.size(), batch);

  JoinStats ref_stats;
  for (size_t i = 0; i < batch; ++i) {
    std::vector<PointId> expected;
    ASSERT_TRUE(
        ref_flat->RangeQuery(data.Row(i), 0.15, &expected, &ref_stats).ok());
    EXPECT_EQ(resp->results[i], expected) << "query " << i;
  }
  ExpectStatsEqual(resp->stats, ref_stats);
}

TEST(ServerLoopbackTest, SelfJoinMatchesInProcessAtEveryThreadCount) {
  const Dataset data = MakeData(600, 6, 23);
  const EkdbConfig config = Config(0.15);

  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  VectorSink expected;
  JoinStats ref_stats;
  ASSERT_TRUE(FlatEkdbSelfJoin(*ref_flat, &expected, &ref_stats).ok());

  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  for (const uint32_t threads : {1u, 2u, 4u}) {
    SimilarityJoinRequest req;
    req.name_a = "d";
    req.num_threads = threads;
    req.chunk_pairs = 97;  // force many chunks so reassembly is exercised
    VectorSink got;
    auto done = live.client.SimilarityJoin(req, &got);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    // Exact sequence, not just the same set: the wire preserves the
    // deterministic emission order of the join engine.
    EXPECT_EQ(got.pairs(), expected.pairs()) << "threads=" << threads;
    EXPECT_EQ(done->total_pairs, expected.pairs().size());
    ExpectStatsEqual(done->stats, ref_stats);
  }
}

TEST(ServerLoopbackTest, CrossJoinAndNarrowedEpsilonMatch) {
  const Dataset a = MakeData(300, 5, 31);
  const Dataset b = MakeData(250, 5, 37);
  const EkdbConfig config = Config(0.2);

  auto ta = EkdbTree::Build(a, config);
  auto tb = EkdbTree::Build(b, config);
  ASSERT_TRUE(ta.ok() && tb.ok());
  auto fa = FlatEkdbTree::FromTree(*ta);
  auto fb = FlatEkdbTree::FromTree(*tb);
  ASSERT_TRUE(fa.ok() && fb.ok());
  VectorSink expected;
  JoinStats ref_stats;
  ASSERT_TRUE(
      FlatEkdbJoinWithEpsilon(*fa, *fb, 0.12, &expected, &ref_stats).ok());

  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("a", a, config)).ok());
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("b", b, config)).ok());

  SimilarityJoinRequest req;
  req.name_a = "a";
  req.name_b = "b";
  req.epsilon = 0.12;  // narrower than the build epsilon
  VectorSink got;
  auto done = live.client.SimilarityJoin(req, &got);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(got.pairs(), expected.pairs());
  ExpectStatsEqual(done->stats, ref_stats);
}

TEST(ServerLoopbackTest, ParallelClientsGetConsistentAnswers) {
  const Dataset data = MakeData(400, 4, 43);
  const EkdbConfig config = Config(0.1);
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  ServerConfig server_config;
  server_config.io_threads = 2;
  LiveServer live = StartWithClient(server_config);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  const uint16_t port = live.server->port();
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t]() {
      ClientConfig cc;
      cc.port = port;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < 20; ++i) {
        const size_t qi = static_cast<size_t>(t * 20 + i) % data.size();
        auto ids = client->RangeQueryOne("d", data.RowSpan(qi), 0.08);
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        std::vector<PointId> expected;
        ASSERT_TRUE(
            ref_flat->RangeQuery(data.Row(qi), 0.08, &expected).ok());
        EXPECT_EQ(*ids, expected);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(live.server->counters().decode_errors, 0u);
}

// Many connections issuing overlapping multi-query requests get answers
// identical to the in-process FlatEkdbTree, per query and per JoinStats,
// at 1/2/4 worker threads.
TEST(ServerLoopbackTest, MultiQueryRequestsMatchReferenceAtEveryWorkerCount) {
  const Dataset data = MakeData(500, 8, 11);
  const EkdbConfig config = Config(0.2);
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  constexpr size_t kThreads = 8;
  constexpr size_t kRequestsPerThread = 4;
  constexpr size_t kQueriesPerRequest = 16;

  for (const uint32_t workers : {1u, 2u, 4u}) {
    ServerConfig server_config;
    server_config.worker_threads = workers;
    LiveServer live = StartWithClient(server_config);
    ASSERT_TRUE(
        live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

    const uint16_t port = live.server->port();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        auto client = Client::Connect({.port = port});
        ASSERT_TRUE(client.ok());
        for (size_t r = 0; r < kRequestsPerThread; ++r) {
          RangeQueryRequest req;
          req.name = "d";
          req.epsilon = 0.15;
          req.dims = static_cast<uint32_t>(data.dims());
          std::vector<size_t> rows(kQueriesPerRequest);
          for (size_t q = 0; q < kQueriesPerRequest; ++q) {
            rows[q] = (t * 131 + r * 17 + q) % data.size();
            const float* row = data.Row(static_cast<PointId>(rows[q]));
            req.queries.insert(req.queries.end(), row, row + data.dims());
          }
          auto resp = client->RangeQuery(req);
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          ASSERT_EQ(resp->results.size(), kQueriesPerRequest);
          JoinStats ref_stats;
          for (size_t q = 0; q < kQueriesPerRequest; ++q) {
            std::vector<PointId> expected;
            ASSERT_TRUE(ref_flat
                            ->RangeQuery(data.Row(static_cast<PointId>(
                                             rows[q])),
                                         0.15, &expected, &ref_stats)
                            .ok());
            EXPECT_EQ(resp->results[q], expected)
                << "workers=" << workers << " thread=" << t << " query=" << q;
          }
          ExpectStatsEqual(resp->stats, ref_stats);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
}

// The default server config answers 256 pipelined batch=1 RangeQuery frames
// spread over 4 connections: none is refused, and every answer (ids in
// order, JoinStats) is bit-identical to the in-process IndexSnapshot.
TEST(ServerLoopbackTest, PipelinedSingleQueryFramesMatchInProcessSnapshot) {
  auto generated = GenerateClustered(
      {.n = 2000, .dims = 8, .clusters = 8, .sigma = 0.04, .seed = 71});
  ASSERT_TRUE(generated.ok());
  const Dataset& data = *generated;
  const EkdbConfig config = Config(0.1);
  auto oracle = IndexSnapshot::Build("oracle", data, config);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());
  const ServerCounters before = live.server->counters();

  constexpr size_t kConns = 4;
  constexpr size_t kFramesPerConn = 64;
  std::vector<TcpSocket> conns;
  for (size_t c = 0; c < kConns; ++c) {
    auto sock = TcpSocket::Connect("127.0.0.1", live.server->port());
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    conns.push_back(std::move(*sock));
  }
  // Frame f carries query row (f * 7) % n under request id f + 1; every
  // connection writes all of its frames before any response is read.
  const auto row_of = [&](uint64_t request_id) {
    return static_cast<PointId>(((request_id - 1) * 7) % data.size());
  };
  for (size_t c = 0; c < kConns; ++c) {
    std::vector<uint8_t> stream;
    for (size_t i = 0; i < kFramesPerConn; ++i) {
      const uint64_t id = c * kFramesPerConn + i + 1;
      const std::vector<uint8_t> frame =
          RangeQueryFrame("d", data.RowSpan(row_of(id)), 0.08, id);
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(conns[c].SendAll(stream.data(), stream.size()).ok());
  }

  size_t answered = 0;
  size_t total_ids = 0;
  for (size_t c = 0; c < kConns; ++c) {
    for (size_t i = 0; i < kFramesPerConn; ++i) {
      const Frame frame = ReadRawFrame(&conns[c]);
      const uint64_t id = frame.header.request_id;
      ASSERT_GE(id, c * kFramesPerConn + 1);
      ASSERT_LE(id, (c + 1) * kFramesPerConn);
      ASSERT_EQ(frame.header.type, FrameType::kRangeQueryResult)
          << "request " << id << " answered with type "
          << static_cast<int>(frame.header.type);
      RangeQueryResponse resp;
      ASSERT_TRUE(ParseRangeQueryResponse(frame.payload, &resp).ok());
      ASSERT_EQ(resp.results.size(), 1u);
      std::vector<PointId> expected;
      JoinStats expected_stats;
      ASSERT_TRUE((*oracle)
                      ->RangeQuery(data.Row(row_of(id)), 0.08, &expected,
                                   &expected_stats)
                      .ok());
      EXPECT_EQ(resp.results[0], expected) << "request " << id;
      ExpectStatsEqual(resp.stats, expected_stats);
      total_ids += expected.size();
      ++answered;
    }
  }
  EXPECT_EQ(answered, kConns * kFramesPerConn);
  EXPECT_GT(total_ids, answered);  // answers are not trivially empty
  const ServerCounters after = live.server->counters();
  EXPECT_EQ(after.requests_rejected, before.requests_rejected);
  EXPECT_EQ(after.deadline_expired, before.deadline_expired);
  EXPECT_EQ(after.requests_admitted - before.requests_admitted,
            kConns * kFramesPerConn);
}

// The SIMD dispatch tiers (portable / AVX2 / AVX-512) are selected at
// kernel construction via SIMJOIN_KERNEL_PATH; all of them must produce
// the same responses down to the JoinStats.  On hosts without the wider
// ISA the pin degrades one tier at a time, so the test still compares
// three (possibly coinciding) executions.
TEST(ServerLoopbackTest, DispatchTiersAgreeBitForBit) {
  const Dataset data = MakeData(400, 16, 29);
  const EkdbConfig config = Config(0.3);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  RangeQueryRequest req;
  req.name = "d";
  req.epsilon = 0.25;
  req.dims = static_cast<uint32_t>(data.dims());
  const size_t batch = 64;
  req.queries.assign(data.flat().begin(),
                     data.flat().begin() + batch * data.dims());

  std::vector<std::vector<std::vector<PointId>>> per_tier_results;
  std::vector<JoinStats> per_tier_stats;
  for (const char* tier : {"portable", "avx2", "avx512"}) {
    ASSERT_EQ(setenv("SIMJOIN_KERNEL_PATH", tier, /*overwrite=*/1), 0);
    auto resp = live.client.RangeQuery(req);
    ASSERT_TRUE(resp.ok()) << tier << ": " << resp.status().ToString();
    per_tier_results.push_back(resp->results);
    per_tier_stats.push_back(resp->stats);
  }
  ASSERT_EQ(unsetenv("SIMJOIN_KERNEL_PATH"), 0);

  for (size_t i = 1; i < per_tier_results.size(); ++i) {
    EXPECT_EQ(per_tier_results[i], per_tier_results[0]) << "tier " << i;
    ExpectStatsEqual(per_tier_stats[i], per_tier_stats[0]);
  }

  // And the tiers agree with the scalar reference on the ids themselves.
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  ASSERT_EQ(setenv("SIMJOIN_KERNEL_PATH", "scalar", 1), 0);
  for (size_t q = 0; q < batch; ++q) {
    std::vector<PointId> expected;
    ASSERT_TRUE(ref_flat
                    ->RangeQuery(data.Row(static_cast<PointId>(q)), 0.25,
                                 &expected)
                    .ok());
    EXPECT_EQ(per_tier_results[0][q], expected) << "query " << q;
  }
  ASSERT_EQ(unsetenv("SIMJOIN_KERNEL_PATH"), 0);
}

// Bad requests pipelined on one connection between good ones fail
// individually, with the error each would get alone, without poisoning the
// good requests around them or the connection itself.
TEST(ServerLoopbackTest, PipelinedRequestErrorsAreIsolated) {
  LiveServer live = StartWithClient();
  const Dataset data = MakeData(80, 3, 7);
  const EkdbConfig config = Config(0.2);
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  // Request id i + 1 is shape i % 4: good, unknown index, dimension
  // mismatch, radius beyond the build epsilon.
  constexpr size_t kRequests = 32;
  const std::vector<float> two_dims = {0.5f, 0.5f};
  std::vector<uint8_t> stream;
  for (size_t i = 0; i < kRequests; ++i) {
    const uint64_t id = i + 1;
    const std::span<const float> row =
        data.RowSpan(static_cast<PointId>(i % data.size()));
    std::vector<uint8_t> frame;
    switch (i % 4) {
      case 0: frame = RangeQueryFrame("d", row, 0.1, id); break;
      case 1: frame = RangeQueryFrame("ghost", row, 0.1, id); break;
      case 2: frame = RangeQueryFrame("d", two_dims, 0.1, id); break;
      default: frame = RangeQueryFrame("d", row, 0.9, id); break;
    }
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SendAll(stream.data(), stream.size()).ok());

  // Workers may finish out of order; match responses by request id.
  std::map<uint64_t, Frame> responses;
  for (size_t i = 0; i < kRequests; ++i) {
    Frame frame = ReadRawFrame(&*raw);
    responses[frame.header.request_id] = std::move(frame);
  }
  ASSERT_EQ(responses.size(), kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    const Frame& frame = responses[i + 1];
    if (i % 4 == 0) {
      ASSERT_EQ(frame.header.type, FrameType::kRangeQueryResult) << i;
      RangeQueryResponse resp;
      ASSERT_TRUE(ParseRangeQueryResponse(frame.payload, &resp).ok());
      ASSERT_EQ(resp.results.size(), 1u);
      std::vector<PointId> expected;
      ASSERT_TRUE(ref_flat
                      ->RangeQuery(data.Row(static_cast<PointId>(
                                       i % data.size())),
                                   0.1, &expected)
                      .ok());
      EXPECT_EQ(resp.results[0], expected) << i;
      continue;
    }
    ASSERT_EQ(frame.header.type, FrameType::kError) << i;
    Status status;
    ASSERT_TRUE(ParseErrorResponse(frame.payload, &status).ok());
    EXPECT_EQ(status.code(), i % 4 == 1 ? StatusCode::kNotFound
                                        : StatusCode::kInvalidArgument)
        << i << ": " << status.ToString();
  }

  // The connection survived every error above.
  const std::vector<uint8_t> ping = EncodeFrame(FrameType::kPing, 999, 0, {});
  ASSERT_TRUE(raw->SendAll(ping.data(), ping.size()).ok());
  const Frame pong = ReadRawFrame(&*raw);
  EXPECT_EQ(pong.header.type, FrameType::kPong);
  EXPECT_EQ(pong.header.request_id, 999u);
}

// The epsilon-grid backend built over the wire answers range queries
// bit-identically to the in-process EpsilonGrid, and joins against it fall
// back to a lazily built flat-tree auxiliary — same pairs as a tree-primary
// index, no error.
TEST(ServerLoopbackTest, GridBackendServesQueriesAndJoinsViaTreeFallback) {
  const Dataset data = MakeData(600, 3, 41);
  const EkdbConfig config = Config(0.15);
  auto ref_grid = EpsilonGrid::Build(data, config);
  ASSERT_TRUE(ref_grid.ok());

  LiveServer live = StartWithClient();
  BuildIndexRequest build = BuildRequestFor("g", data, config);
  build.backend = BackendKind::kEpsilonGrid;
  auto built = live.client.BuildIndex(build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  RangeQueryRequest req;
  req.name = "g";
  req.epsilon = 0.12;
  req.dims = static_cast<uint32_t>(data.dims());
  const size_t batch = 32;
  req.queries.assign(data.flat().begin(),
                     data.flat().begin() + batch * data.dims());
  auto resp = live.client.RangeQuery(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->results.size(), batch);
  JoinStats ref_stats;
  for (size_t q = 0; q < batch; ++q) {
    std::vector<PointId> expected;
    ASSERT_TRUE(ref_grid
                    ->RangeQuery(data.Row(static_cast<PointId>(q)), 0.12,
                                 &expected, &ref_stats)
                    .ok());
    EXPECT_EQ(resp->results[q], expected) << "query " << q;
  }
  ExpectStatsEqual(resp->stats, ref_stats);

  // Self-join on the grid index streams the same pairs the flat tree
  // produces in-process (the server joins on its lazily built tree aux).
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  VectorSink ref_sink;
  ASSERT_TRUE(FlatEkdbSelfJoin(*ref_flat, &ref_sink).ok());

  SimilarityJoinRequest join;
  join.name_a = "g";
  VectorSink sink;
  auto done = live.client.SimilarityJoin(join, &sink);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(sink.pairs(), ref_sink.pairs());

  // A cross-join naming the grid index on either side works the same way
  // (grid aux tree vs. tree primary over identical data = self-join pairs,
  // both orientations).
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("t", data, config)).ok());
  join.name_a = "t";
  join.name_b = "g";
  VectorSink cross_sink;
  done = live.client.SimilarityJoin(join, &cross_sink);
  ASSERT_TRUE(done.ok()) << done.status().ToString();

  join.name_a = "g";
  join.name_b = "t";
  VectorSink cross_sink2;
  done = live.client.SimilarityJoin(join, &cross_sink2);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(cross_sink.pairs(), cross_sink2.pairs());
}

TEST(ServerLoopbackTest, ErrorPaths) {
  LiveServer live = StartWithClient();

  // Unknown index.
  auto ids = live.client.RangeQueryOne("ghost", std::vector<float>{0.5f});
  EXPECT_EQ(ids.status().code(), StatusCode::kNotFound);

  // Dimension mismatch.
  const Dataset data = MakeData(50, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());
  auto wrong = live.client.RangeQueryOne("d", std::vector<float>{0.5f, 0.5f});
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Malformed points payload (count not a multiple of dims).
  BuildIndexRequest bad = BuildRequestFor("bad", data, Config());
  bad.points.pop_back();
  EXPECT_FALSE(live.client.BuildIndex(bad).ok());

  // Radius beyond the build epsilon.
  RangeQueryRequest req;
  req.name = "d";
  req.epsilon = 0.9;
  req.dims = 3;
  req.queries = {0.5f, 0.5f, 0.5f};
  EXPECT_EQ(live.client.RangeQuery(req).status().code(),
            StatusCode::kInvalidArgument);

  // Drop, then the index really is gone.
  auto dropped = live.client.DropIndex("d");
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped->found);
  EXPECT_EQ(live.client.DropIndex("d")->found, false);
  EXPECT_EQ(live.client.RangeQueryOne("d", std::vector<float>{0.0f, 0.0f,
                                                              0.0f})
                .status()
                .code(),
            StatusCode::kNotFound);

  // The connection survived every error above.
  EXPECT_TRUE(live.client.Ping().ok());
}

TEST(ServerLoopbackTest, BackpressureRejectsThenRecovers) {
  ServerConfig config;
  config.max_inflight = 1;
  config.handler_delay_ms_for_testing = 100;
  LiveServer live = StartWithClient(config);

  const Dataset data = MakeData(60, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());

  // Saturate the single slot from several connections at once.  With
  // max_retries = 0 the rejected requests surface as Unavailable.
  std::atomic<int> ok{0}, unavailable{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      ClientConfig cc;
      cc.port = live.server->port();
      cc.max_retries = 0;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      auto ids = client->RangeQueryOne("d", data.RowSpan(0), 0.05);
      if (ids.ok()) {
        ok.fetch_add(1);
      } else {
        ASSERT_EQ(ids.status().code(), StatusCode::kUnavailable)
            << ids.status().ToString();
        unavailable.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(unavailable.load(), 0);
  EXPECT_GT(live.server->counters().requests_rejected, 0u);

  // With retries enabled the same burst fully succeeds.
  std::atomic<int> retried_ok{0};
  std::vector<std::thread> retry_threads;
  for (int t = 0; t < 4; ++t) {
    retry_threads.emplace_back([&]() {
      ClientConfig cc;
      cc.port = live.server->port();
      cc.max_retries = 100;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      auto ids = client->RangeQueryOne("d", data.RowSpan(0), 0.05);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      retried_ok.fetch_add(1);
    });
  }
  for (std::thread& t : retry_threads) t.join();
  EXPECT_EQ(retried_ok.load(), 4);
}

TEST(ServerLoopbackTest, DeadlineExpiryReported) {
  ServerConfig config;
  config.handler_delay_ms_for_testing = 50;  // emulates queueing delay
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(60, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());

  ClientConfig cc;
  cc.port = live.server->port();
  cc.deadline_ms = 1;
  auto deadline_client = Client::Connect(cc);
  ASSERT_TRUE(deadline_client.ok());
  auto ids = deadline_client->RangeQueryOne("d", data.RowSpan(0), 0.05);
  EXPECT_EQ(ids.status().code(), StatusCode::kDeadlineExceeded)
      << ids.status().ToString();
  EXPECT_GE(live.server->counters().deadline_expired, 1u);
}

// The deadline clock starts at admission, so time spent queued behind other
// requests for the only worker counts against it: a query whose own handling
// fits its deadline expires when it has to wait, and its connection keeps
// serving afterwards.
TEST(ServerLoopbackTest, DeadlineCountsTimeQueuedForAWorker) {
  ServerConfig config;
  config.worker_threads = 1;
  config.handler_delay_ms_for_testing = 100;
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(60, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());

  ClientConfig cc;
  cc.port = live.server->port();
  cc.deadline_ms = 250;
  auto deadline_client = Client::Connect(cc);
  ASSERT_TRUE(deadline_client.ok());
  const uint64_t expired_before = live.server->counters().deadline_expired;

  // Three deadline-free blockers occupy the worker for about 300 ms.
  constexpr int kBlockers = 3;
  std::atomic<int> blockers_ok{0};
  std::vector<std::thread> blockers;
  for (int b = 0; b < kBlockers; ++b) {
    blockers.emplace_back([&, b] {
      ClientConfig bc;
      bc.port = live.server->port();
      auto client = Client::Connect(bc);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      auto ids = client->RangeQueryOne("d", data.RowSpan(b), 0.05);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      blockers_ok.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto queued = deadline_client->RangeQueryOne("d", data.RowSpan(0), 0.05);
  for (std::thread& t : blockers) t.join();
  EXPECT_EQ(blockers_ok.load(), kBlockers);
  EXPECT_EQ(queued.status().code(), StatusCode::kDeadlineExceeded)
      << queued.status().ToString();
  EXPECT_GE(live.server->counters().deadline_expired, expired_before + 1);

  // With the worker idle the same query fits its deadline on the same
  // connection, and answers as the in-process index does.
  auto solo = deadline_client->RangeQueryOne("d", data.RowSpan(0), 0.05);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  auto ref_tree = EkdbTree::Build(data, Config());
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  std::vector<PointId> expected;
  ASSERT_TRUE(ref_flat->RangeQuery(data.Row(0), 0.05, &expected).ok());
  EXPECT_EQ(*solo, expected);
}

TEST(ServerLoopbackTest, MalformedBytesGetErrorFrameAndClose) {
  LiveServer live = StartWithClient();
  auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
  ASSERT_TRUE(raw.ok());
  const uint8_t garbage[32] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(raw->SendAll(garbage, sizeof(garbage)).ok());
  // The server answers with one kError frame, then hangs up.
  uint8_t header[kFrameHeaderSize];
  ASSERT_TRUE(raw->RecvAll(header, sizeof(header)).ok());
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(header, kDefaultMaxFramePayload, &h).ok());
  EXPECT_EQ(h.type, FrameType::kError);
  std::vector<uint8_t> payload(h.payload_size);
  ASSERT_TRUE(raw->RecvAll(payload.data(), payload.size()).ok());
  uint8_t one_more;
  EXPECT_FALSE(raw->RecvAll(&one_more, 1).ok());  // EOF: connection closed
  EXPECT_EQ(live.server->counters().decode_errors, 1u);

  // Other connections are unaffected.
  EXPECT_TRUE(live.client.Ping().ok());
}

// A hostile request may ask for u32-max threads and u32-max chunk pairs;
// the server must clamp both (not spawn a million OS threads or reserve a
// 34 GB chunk buffer) and still answer the exact join result.
TEST(ServerLoopbackTest, HostileResourceParamsAreClamped) {
  const Dataset data = MakeData(300, 4, 7);
  const EkdbConfig config = Config(0.15);
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  VectorSink expected;
  ASSERT_TRUE(FlatEkdbSelfJoin(*ref_flat, &expected).ok());

  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  SimilarityJoinRequest req;
  req.name_a = "d";
  req.num_threads = 0xFFFFFFFFu;
  req.chunk_pairs = 0xFFFFFFFFu;
  VectorSink got;
  auto done = live.client.SimilarityJoin(req, &got);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(got.pairs(), expected.pairs());

  // BuildIndex carries the same unvalidated thread count.
  BuildIndexRequest build = BuildRequestFor("d2", data, config);
  build.num_threads = 0xFFFFFFFFu;
  EXPECT_TRUE(live.client.BuildIndex(build).ok());
}

// A peer that resets mid join-stream must not leave undeliverable bytes
// queued forever: the connection is marked dead, its queue discarded, and
// shutdown still drains (the pre-fix server hung in Wait() here).
TEST(ServerLoopbackTest, AbruptDisconnectMidJoinDoesNotWedgeShutdown) {
  const Dataset data = MakeData(2000, 2, 13);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config(0.3))).ok());

  {
    auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
    ASSERT_TRUE(raw.ok());
    SimilarityJoinRequest req;
    req.name_a = "d";
    req.chunk_pairs = 1024;  // many frames, well past the socket buffers
    const std::vector<uint8_t> frame = EncodeFrame(
        FrameType::kSimilarityJoin, 1, 0, EncodeSimilarityJoinRequest(req));
    ASSERT_TRUE(raw->SendAll(frame.data(), frame.size()).ok());
    // Scope exit closes the socket while the join is still streaming.
  }

  ASSERT_TRUE(live.client.Shutdown().ok());
  live.server->Wait();  // regression: must return, not spin on the dead conn
}

// A connected client that stops reading must not buffer its entire result
// set in server memory: the stream blocks at max_conn_queued_bytes and the
// stall timeout disconnects it, leaving the server responsive.
TEST(ServerLoopbackTest, StalledStreamReaderIsDisconnected) {
  ServerConfig config;
  config.max_conn_queued_bytes = 64u << 10;
  config.write_stall_timeout_ms = 250;
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(4000, 2, 17);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config(0.5))).ok());

  // Raw connection that requests a multi-megabyte pair stream and never
  // reads a byte of it.
  auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
  ASSERT_TRUE(raw.ok());
  SimilarityJoinRequest req;
  req.name_a = "d";
  const std::vector<uint8_t> frame = EncodeFrame(
      FrameType::kSimilarityJoin, 1, 0, EncodeSimilarityJoinRequest(req));
  ASSERT_TRUE(raw->SendAll(frame.data(), frame.size()).ok());

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (live.server->counters().write_stall_disconnects == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(live.server->counters().write_stall_disconnects, 1u);
  // The server shed the stalled connection and stayed responsive.
  EXPECT_TRUE(live.client.Ping().ok());
}

// A response that would overflow the frame limit is replaced by a clear
// error, never a size-field-truncated frame that desyncs the stream.
TEST(ServerLoopbackTest, OversizedResponseRejectedNotTruncated) {
  ServerConfig config;
  config.max_frame_payload = 4096;
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(80, 3, 19);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config(0.9))).ok());

  // 50 queries at a radius that matches most of the index: the result
  // payload exceeds 4096 bytes and must come back as OUT_OF_RANGE.
  RangeQueryRequest big;
  big.name = "d";
  big.epsilon = 0.9;
  big.dims = 3;
  big.queries.assign(data.flat().begin(), data.flat().begin() + 50 * 3);
  EXPECT_EQ(live.client.RangeQuery(big).status().code(),
            StatusCode::kOutOfRange);

  // The connection survived and a small batch still works.
  auto one = live.client.RangeQueryOne("d", data.RowSpan(0), 0.05);
  EXPECT_TRUE(one.ok()) << one.status().ToString();
}

// A failed Start (here: port already bound) must surface as a Status; the
// pre-fix destructor of the partially built Server dereferenced the
// never-created task group and crashed.
TEST(ServerLoopbackTest, StartOnOccupiedPortFailsCleanly) {
  LiveServer live = StartWithClient();
  ServerConfig conflict;
  conflict.port = live.server->port();
  auto second = Server::Start(conflict);
  EXPECT_FALSE(second.ok());
}

// Shutdown while admitted queries are still executing: every one of them
// still gets its exact answer, and Wait() returns.
TEST(ServerLoopbackTest, ShutdownAnswersEveryAdmittedQuery) {
  ServerConfig config;
  config.handler_delay_ms_for_testing = 50;  // keeps them in flight
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(200, 4, 13);
  const EkdbConfig index_config = Config(0.2);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, index_config)).ok());
  auto ref_tree = EkdbTree::Build(data, index_config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  constexpr size_t kQueries = 8;
  const uint64_t admitted_before = live.server->counters().requests_admitted;
  auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
  ASSERT_TRUE(raw.ok());
  std::vector<uint8_t> stream;
  for (size_t i = 0; i < kQueries; ++i) {
    const std::vector<uint8_t> frame = RangeQueryFrame(
        "d", data.RowSpan(static_cast<PointId>(i * 31 % data.size())), 0.1,
        i + 1);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(raw->SendAll(stream.data(), stream.size()).ok());
  // Pull the plug once every query is admitted (and none can have finished:
  // each sleeps in its handler first).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (live.server->counters().requests_admitted <
             admitted_before + kQueries &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(live.server->counters().requests_admitted,
            admitted_before + kQueries);
  live.server->Shutdown();

  std::map<uint64_t, Frame> responses;
  for (size_t i = 0; i < kQueries; ++i) {
    Frame frame = ReadRawFrame(&*raw);
    responses[frame.header.request_id] = std::move(frame);
  }
  for (size_t i = 0; i < kQueries; ++i) {
    const Frame& frame = responses[i + 1];
    ASSERT_EQ(frame.header.type, FrameType::kRangeQueryResult) << i;
    RangeQueryResponse resp;
    ASSERT_TRUE(ParseRangeQueryResponse(frame.payload, &resp).ok());
    ASSERT_EQ(resp.results.size(), 1u);
    std::vector<PointId> expected;
    ASSERT_TRUE(ref_flat
                    ->RangeQuery(data.Row(static_cast<PointId>(
                                     i * 31 % data.size())),
                                 0.1, &expected)
                    .ok());
    EXPECT_EQ(resp.results[0], expected) << i;
  }
  live.server->Wait();
}

TEST(ServerLoopbackTest, ShutdownDrainsCleanly) {
  LiveServer live = StartWithClient();
  const Dataset data = MakeData(100, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());
  ASSERT_TRUE(live.client.Shutdown().ok());
  live.server->Wait();
  // After the drain, new connections are refused.
  EXPECT_FALSE(Client::Connect({.port = live.server->port()}).ok());
}

}  // namespace
}  // namespace simjoin
