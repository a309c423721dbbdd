// fuzz_protocol — randomized robustness tester for the service wire codec.
//
// The decoder is the one component that parses attacker-controlled bytes, so
// its contract is absolute: any byte stream, fed in any chunking, either
// yields valid frames or a Status — never a crash, hang, or out-of-bounds
// read.  This tool soaks that contract six ways per iteration:
//
//   1. pure noise      — random bytes through the FrameDecoder
//   2. round-trips     — random valid messages encode -> parse -> compare
//   3. bit flips       — valid frame streams with random mutations
//   4. truncations     — valid frames cut off at every kind of boundary
//   5. interleaving    — pipelined RangeQuery frames from several simulated
//                        connections, delivered in arbitrarily interleaved
//                        chunks (the arrival pattern of pipelined clients
//                        on a multi-connection server), each stream
//                        decoding exactly its own frames in order
//   6. malformed updates — Insert/Remove/Flush payloads truncated at every
//                        byte and with count/dims fields patched to extremes
//   7. telemetry suffixes — trace-context request suffixes, the EXPLAIN
//                        ANALYZE profile response extension, and the Stats
//                        slow-log block truncated at every byte and with
//                        magic/length/count fields patched to extremes
//
// Random valid frames also attach trace contexts, response profiles, and
// slow-log blocks with coin-flip probability, so every generic pass
// (round-trip, bit flips, truncation) soaks the extended shapes too.
//
// Payloads of frames the decoder does produce are handed to the matching
// Parse* function, which must also only ever return a Status.  Run it under
// ASan/UBSan (scripts/check_asan_ubsan.sh) to turn silent over-reads into
// hard failures:
//
//   ./tools/fuzz_protocol --iterations 2000 --seed 1
//   ./tools/fuzz_protocol --iterations 0      # run until interrupted

#include <algorithm>
#include <cstring>
#include <iostream>

#include "common/args.h"
#include "common/rng.h"
#include "service/protocol.h"

namespace simjoin {
namespace {

std::string RandomName(Rng* rng, size_t max_len = 24) {
  std::string s(rng->UniformInt(max_len + 1), 'x');
  for (char& c : s) c = static_cast<char>('a' + rng->UniformInt(26u));
  return s;
}

std::vector<float> RandomFloats(Rng* rng, size_t count) {
  std::vector<float> v(count);
  for (float& f : v) f = rng->UniformFloat();
  return v;
}

/// Half the request frames carry a trace context so the 10-byte suffix
/// rides every generic pass; a quarter of those ask for a profile, and a
/// few get hostile flag bytes (unknown bits must parse, not reject).
TraceContext MaybeTrace(Rng* rng) {
  TraceContext ctx;
  if (!rng->Bernoulli(0.5)) return ctx;
  ctx.present = true;
  ctx.trace_id = rng->Next();
  ctx.flags = rng->Bernoulli(0.25)
                  ? static_cast<uint8_t>(rng->UniformInt(256u))
                  : (rng->Bernoulli(0.5) ? kTraceFlagProfile : 0);
  return ctx;
}

/// Small random phase tree + counters for response-profile fuzzing.
obs::RequestProfile RandomProfile(Rng* rng) {
  obs::RequestProfile p;
  p.trace_id = rng->Next();
  p.total_wall_ns = rng->Next();
  p.plan = RandomName(rng, 48);
  p.nodes.resize(rng->UniformInt(6u));
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    obs::ProfileNode& n = p.nodes[i];
    n.name = RandomName(rng, 16);
    n.parent = (i == 0 || rng->Bernoulli(0.3))
                   ? obs::kProfileNoParent
                   : static_cast<uint32_t>(rng->UniformInt(i));
    n.start_ns = rng->UniformInt(1u << 20);
    n.wall_ns = rng->UniformInt(1u << 20);
    n.cpu_ns = rng->UniformInt(1u << 20);
  }
  p.counters.resize(rng->UniformInt(4u));
  for (obs::ProfileCounter& c : p.counters) {
    c.name = RandomName(rng, 16);
    c.value = rng->Next();
  }
  p.dropped_nodes = rng->UniformInt(8u);
  return p;
}

obs::SlowQueryEntry RandomSlowEntry(Rng* rng) {
  obs::SlowQueryEntry e;
  e.unix_micros = rng->Next();
  e.trace_id = rng->Next();
  e.request_id = rng->Next();
  e.op = static_cast<uint8_t>(rng->UniformInt(256u));
  e.index = RandomName(rng, 16);
  e.wall_us = rng->Next();
  e.status_code = static_cast<uint32_t>(rng->UniformInt(16u));
  if (rng->Bernoulli(0.5)) e.status_message = RandomName(rng, 32);
  if (rng->Bernoulli(0.5)) e.profile = RandomProfile(rng);
  return e;
}

/// Encodes one random, structurally valid frame.
std::vector<uint8_t> RandomValidFrame(Rng* rng) {
  const uint64_t id = rng->Next();
  const uint32_t deadline = static_cast<uint32_t>(rng->UniformInt(1000u));
  switch (rng->UniformInt(15u)) {
    case 0: {
      BuildIndexRequest req;
      req.name = RandomName(rng);
      req.config.epsilon = rng->Uniform(0.01, 0.5);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.num_threads = static_cast<uint32_t>(rng->UniformInt(5u));
      req.points = RandomFloats(rng, req.dims * rng->UniformInt(64u));
      // Half the builds select the non-default backend so the optional
      // trailing backend byte rides the mutation and truncation passes.
      if (rng->Bernoulli(0.5)) req.backend = BackendKind::kEpsilonGrid;
      req.trace = MaybeTrace(rng);
      return EncodeFrame(FrameType::kBuildIndex, id, deadline,
                         EncodeBuildIndexRequest(req));
    }
    case 1: {
      RangeQueryRequest req;
      req.name = RandomName(rng);
      req.epsilon = rng->Uniform(0.0, 0.5);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.queries = RandomFloats(rng, req.dims * rng->UniformInt(16u));
      // Half the queries carry the planner extension, and the recall field
      // and backend byte mutate *together*: the parser keys the extension
      // off an exact 9-byte surplus, so joint corruption is what probes the
      // legacy/extension boundary (lone-byte flips only perturb one field).
      if (rng->Bernoulli(0.5)) {
        req.has_planner = true;
        req.recall = rng->Bernoulli(0.25) ? rng->Uniform(-2.0, 2.0)
                                          : rng->Uniform(0.05, 1.0);
        req.backend = rng->Bernoulli(0.25)
                          ? static_cast<uint8_t>(rng->UniformInt(256u))
                          : static_cast<uint8_t>(rng->UniformInt(4u));
        if (rng->Bernoulli(0.2)) req.backend = kWireBackendAuto;
      }
      // The trace suffix stacks after the planner tail, so mutated frames
      // probe the {0, 9, 10, 19}-byte surplus disambiguation directly.
      req.trace = MaybeTrace(rng);
      return EncodeFrame(FrameType::kRangeQuery, id, deadline,
                         EncodeRangeQueryRequest(req));
    }
    case 2: {
      SimilarityJoinRequest req;
      req.name_a = RandomName(rng);
      if (rng->Bernoulli(0.5)) req.name_b = RandomName(rng);
      req.epsilon = rng->Uniform(0.0, 0.5);
      req.num_threads = static_cast<uint32_t>(rng->UniformInt(9u));
      req.chunk_pairs = static_cast<uint32_t>(rng->UniformInt(10000u));
      req.trace = MaybeTrace(rng);
      return EncodeFrame(FrameType::kSimilarityJoin, id, deadline,
                         EncodeSimilarityJoinRequest(req));
    }
    case 3: {
      std::vector<IdPair> pairs(rng->UniformInt(200u));
      for (IdPair& p : pairs) {
        p.first = static_cast<PointId>(rng->UniformInt(1u << 20));
        p.second = static_cast<PointId>(rng->UniformInt(1u << 20));
      }
      return EncodeFrame(FrameType::kJoinChunk, id, deadline,
                         EncodeJoinChunk(pairs));
    }
    case 4: {
      JoinDone done;
      done.total_pairs = rng->Next();
      done.stats.candidate_pairs = rng->Next();
      done.stats.pairs_emitted = rng->Next();
      return EncodeFrame(FrameType::kJoinDone, id, deadline,
                         EncodeJoinDone(done));
    }
    case 5: {
      RangeQueryResponse resp;
      resp.results.resize(rng->UniformInt(8u));
      for (auto& ids : resp.results) {
        ids.resize(rng->UniformInt(32u));
        for (PointId& p : ids) p = static_cast<PointId>(rng->Next() >> 40);
      }
      if (rng->Bernoulli(0.5)) {
        resp.has_planner = true;
        resp.achieved_recall = rng->Uniform(0.0, 1.0);
        resp.backend_used = static_cast<uint8_t>(rng->UniformInt(4u));
        resp.plan_cache_hit = rng->Bernoulli(0.5);
      }
      // EXPLAIN ANALYZE extension, solo and stacked on the planner echo.
      if (rng->Bernoulli(0.5)) {
        resp.has_profile = true;
        resp.profile = RandomProfile(rng);
      }
      return EncodeFrame(FrameType::kRangeQueryResult, id, deadline,
                         EncodeRangeQueryResponse(resp));
    }
    case 6: {
      StatsResponse resp;
      resp.requests_admitted = rng->Next();
      resp.indexes.resize(rng->UniformInt(4u));
      for (IndexInfo& info : resp.indexes) {
        info.name = RandomName(rng);
        info.bytes = rng->Next();
      }
      // Rev-2 metrics block: random counters, gauges, and histograms so the
      // extended Stats payload is soaked through the same mutation and
      // truncation passes as everything else.
      resp.has_metrics = true;
      resp.metrics.counters.resize(rng->UniformInt(6u));
      for (obs::CounterSample& c : resp.metrics.counters) {
        c.name = RandomName(rng);
        c.value = rng->Next();
      }
      resp.metrics.gauges.resize(rng->UniformInt(6u));
      for (obs::GaugeSample& g : resp.metrics.gauges) {
        g.name = RandomName(rng);
        g.value = static_cast<int64_t>(rng->Next());
      }
      resp.metrics.histograms.resize(rng->UniformInt(4u));
      for (obs::HistogramSample& h : resp.metrics.histograms) {
        h.name = RandomName(rng);
        h.boundaries.resize(rng->UniformInt(8u));
        double bound = 0.0;
        for (double& b : h.boundaries) b = (bound += rng->Uniform(0.1, 10.0));
        h.counts.assign(h.boundaries.size() + 1, 0);
        h.count = 0;
        for (uint64_t& c : h.counts) {
          c = rng->UniformInt(1u << 16);
          h.count += c;
        }
        h.sum = rng->Uniform(0.0, 1e6);
      }
      // Rev-3 slow-log drain block, including the has_slowlog-but-empty
      // answer a server without a configured log returns.
      if (rng->Bernoulli(0.5)) {
        resp.has_slowlog = true;
        resp.slowlog.resize(rng->UniformInt(4u));
        for (obs::SlowQueryEntry& e : resp.slowlog) e = RandomSlowEntry(rng);
        resp.slowlog_recorded = rng->Next();
        resp.slowlog_evicted = rng->Next();
      }
      return EncodeFrame(FrameType::kStatsResult, id, deadline,
                         EncodeStatsResponse(resp));
    }
    case 7:
      return EncodeFrame(FrameType::kError, id, deadline,
                         EncodeErrorResponse(Status::NotFound(
                             "fuzz " + RandomName(rng, 64))));
    case 8: {
      DropIndexRequest req;
      req.name = RandomName(rng);
      return EncodeFrame(FrameType::kDropIndex, id, deadline,
                         EncodeDropIndexRequest(req));
    }
    case 9: {
      InsertRequest req;
      req.name = RandomName(rng);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.rows = RandomFloats(rng, req.dims * (1 + rng->UniformInt(32u)));
      req.trace = MaybeTrace(rng);
      return EncodeFrame(FrameType::kInsert, id, deadline,
                         EncodeInsertRequest(req));
    }
    case 10: {
      RemoveRequest req;
      req.name = RandomName(rng);
      req.ids.resize(1 + rng->UniformInt(64u));
      // Mix plausible ids with extremes so mutated frames probe the
      // decoder's id handling, not just small integers.
      for (PointId& p : req.ids) {
        p = rng->Bernoulli(0.25)
                ? static_cast<PointId>(rng->Next())
                : static_cast<PointId>(rng->UniformInt(1u << 16));
      }
      req.trace = MaybeTrace(rng);
      return EncodeFrame(FrameType::kRemove, id, deadline,
                         EncodeRemoveRequest(req));
    }
    case 11: {
      FlushRequest req;
      req.name = RandomName(rng);
      req.trace = MaybeTrace(rng);
      return EncodeFrame(FrameType::kFlush, id, deadline,
                         EncodeFlushRequest(req));
    }
    case 12: {
      // Update responses ride the same mutation/truncation passes.
      switch (rng->UniformInt(3u)) {
        case 0: {
          InsertResponse resp;
          resp.first_id = static_cast<PointId>(rng->Next());
          resp.count = static_cast<uint32_t>(rng->UniformInt(1u << 20));
          resp.delta_points = rng->Next();
          resp.tombstones = rng->Next();
          return EncodeFrame(FrameType::kInsertOk, id, deadline,
                             EncodeInsertResponse(resp));
        }
        case 1: {
          RemoveResponse resp;
          resp.removed = static_cast<uint32_t>(rng->UniformInt(1u << 20));
          resp.missing = static_cast<uint32_t>(rng->UniformInt(1u << 20));
          resp.delta_points = rng->Next();
          resp.tombstones = rng->Next();
          return EncodeFrame(FrameType::kRemoveOk, id, deadline,
                             EncodeRemoveResponse(resp));
        }
        default: {
          FlushResponse resp;
          resp.compacted = rng->Bernoulli(0.5);
          resp.base_points = rng->Next();
          resp.delta_points = rng->Next();
          resp.tombstones = rng->Next();
          resp.index_bytes = rng->Next();
          return EncodeFrame(FrameType::kFlushOk, id, deadline,
                             EncodeFlushResponse(resp));
        }
      }
    }
    case 13: {
      // Stats with the drain-slowlog flag byte (legacy empty payload is
      // exercised by the default case below).
      StatsRequest req;
      req.drain_slowlog = rng->Bernoulli(0.75);
      return EncodeFrame(FrameType::kStats, id, deadline,
                         EncodeStatsRequest(req));
    }
    default:
      return EncodeFrame(rng->Bernoulli(0.5) ? FrameType::kPing
                                             : FrameType::kStats,
                         id, deadline, {});
  }
}

/// Pass 6: hand-crafted malformed update payloads — the shapes a buggy or
/// hostile client is most likely to send.  Every parse must return a
/// Status (usually !ok); only a crash or sanitizer report fails the pass.
void MalformedUpdateFrames(Rng* rng) {
  InsertRequest ins;
  ins.name = RandomName(rng, 12);
  ins.dims = 4;
  ins.rows = RandomFloats(rng, 4 * (1 + rng->UniformInt(8u)));
  const std::vector<uint8_t> ins_payload = EncodeInsertRequest(ins);
  RemoveRequest rem;
  rem.name = RandomName(rng, 12);
  rem.ids.resize(1 + rng->UniformInt(16u));
  for (PointId& p : rem.ids) p = static_cast<PointId>(rng->Next());
  const std::vector<uint8_t> rem_payload = EncodeRemoveRequest(rem);

  // Short payloads: every truncation point of both request shapes.
  for (size_t cut = 0; cut < ins_payload.size(); ++cut) {
    InsertRequest out;
    (void)ParseInsertRequest(
        std::span<const uint8_t>(ins_payload.data(), cut), &out);
  }
  for (size_t cut = 0; cut < rem_payload.size(); ++cut) {
    RemoveRequest out;
    (void)ParseRemoveRequest(
        std::span<const uint8_t>(rem_payload.data(), cut), &out);
  }

  // Count fields inflated to extremes (overflow probes): patch the u32
  // immediately after the length-prefixed name.
  auto patch_count = [&](std::vector<uint8_t> bytes, size_t offset,
                         uint32_t value) {
    if (offset + 4 <= bytes.size()) {
      std::memcpy(bytes.data() + offset, &value, sizeof(value));
    }
    return bytes;
  };
  const size_t ins_count_off = 4 + ins.name.size() + 4;  // name, dims
  for (uint32_t v : {0u, 1u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    InsertRequest out;
    (void)ParseInsertRequest(patch_count(ins_payload, ins_count_off, v),
                             &out);
    RemoveRequest rout;
    (void)ParseRemoveRequest(patch_count(rem_payload, 4 + rem.name.size(), v),
                             &rout);
  }

  // Zero-dims insert and empty-name updates must be rejected, not crash.
  {
    InsertRequest out;
    (void)ParseInsertRequest(patch_count(ins_payload, 4 + ins.name.size(), 0),
                             &out);
    FlushRequest empty;
    empty.name = "";
    FlushRequest fout;
    (void)ParseFlushRequest(EncodeFlushRequest(empty), &fout);
  }
}

/// Pass 7: hand-crafted hostile telemetry suffixes.  Trace-context request
/// suffixes, the profile response extension, and the Stats slow-log block
/// are all tail-detected, so truncation at every byte and patched
/// magic/length/count fields are exactly the shapes a confused proxy or a
/// hostile client produces.  Every parse must return a Status; a crash or
/// sanitizer report is the only failure.
void HostileTelemetrySuffixes(Rng* rng) {
  auto truncate_all = [](const std::vector<uint8_t>& payload, auto parse) {
    for (size_t cut = 0; cut <= payload.size(); ++cut) {
      parse(std::span<const uint8_t>(payload.data(), cut));
    }
  };
  auto patch = [](std::vector<uint8_t> bytes, size_t off, uint8_t v) {
    if (off < bytes.size()) bytes[off] = v;
    return bytes;
  };

  // Traced RangeQuery, with and without the planner tail stacked under it.
  for (const bool planner : {false, true}) {
    RangeQueryRequest req;
    req.name = RandomName(rng, 12);
    req.epsilon = rng->Uniform(0.0, 0.5);
    req.dims = 2;
    req.queries = RandomFloats(rng, 2 * (1 + rng->UniformInt(4u)));
    req.has_planner = planner;
    req.trace.present = true;
    req.trace.trace_id = rng->Next();
    req.trace.flags = kTraceFlagProfile;
    const std::vector<uint8_t> payload = EncodeRangeQueryRequest(req);
    truncate_all(payload, [](std::span<const uint8_t> bytes) {
      RangeQueryRequest out;
      (void)ParseRangeQueryRequest(bytes, &out);
    });
    // Corrupt every byte of the 10-byte suffix, magic included.
    for (size_t i = 1; i <= kWireTraceExtBytes; ++i) {
      RangeQueryRequest out;
      (void)ParseRangeQueryRequest(
          patch(payload, payload.size() - i,
                static_cast<uint8_t>(rng->Next())),
          &out);
    }
  }

  // Traced updates: the suffix rides payloads whose body length is
  // name-driven rather than count*dims-driven.
  {
    FlushRequest req;
    req.name = RandomName(rng, 12);
    req.trace.present = true;
    req.trace.trace_id = rng->Next();
    truncate_all(EncodeFlushRequest(req), [](std::span<const uint8_t> bytes) {
      FlushRequest out;
      (void)ParseFlushRequest(bytes, &out);
    });
  }

  // Profile response extension, solo and stacked on the planner echo.
  for (const bool planner : {false, true}) {
    RangeQueryResponse resp;
    resp.results.resize(1 + rng->UniformInt(4u));
    for (auto& ids : resp.results) ids.resize(rng->UniformInt(8u));
    resp.has_planner = planner;
    resp.has_profile = true;
    resp.profile = RandomProfile(rng);
    const std::vector<uint8_t> payload = EncodeRangeQueryResponse(resp);
    truncate_all(payload, [](std::span<const uint8_t> bytes) {
      RangeQueryResponse out;
      (void)ParseRangeQueryResponse(bytes, &out);
    });
    // Patch the trailing magic and each byte of the length field.
    for (size_t i = 1; i <= kWireProfileFrameBytes; ++i) {
      RangeQueryResponse out;
      (void)ParseRangeQueryResponse(
          patch(payload, payload.size() - i,
                static_cast<uint8_t>(rng->Next())),
          &out);
    }
  }

  // Slow-log drain block: truncate everywhere, then inflate the entry
  // count to extremes against a short body (hostile-cap probe).
  {
    StatsResponse resp;
    resp.requests_admitted = rng->Next();
    resp.has_metrics = true;
    resp.has_slowlog = true;
    resp.slowlog.resize(1 + rng->UniformInt(3u));
    for (obs::SlowQueryEntry& e : resp.slowlog) e = RandomSlowEntry(rng);
    resp.slowlog_recorded = rng->Next();
    resp.slowlog_evicted = rng->Next();
    const std::vector<uint8_t> payload = EncodeStatsResponse(resp);
    truncate_all(payload, [](std::span<const uint8_t> bytes) {
      StatsResponse out;
      (void)ParseStatsResponse(bytes, &out);
    });
    for (size_t i = 0; i < 32 && i < payload.size(); ++i) {
      StatsResponse out;
      (void)ParseStatsResponse(
          patch(payload, payload.size() - 1 - i,
                static_cast<uint8_t>(rng->Next())),
          &out);
    }
  }
}

/// Routes a decoded frame's payload to its Parse function.  Statuses are
/// fine; crashing is the only way to fail.
void ParseByType(const Frame& frame) {
  switch (frame.header.type) {
    case FrameType::kBuildIndex: {
      BuildIndexRequest m;
      (void)ParseBuildIndexRequest(frame.payload, &m);
      break;
    }
    case FrameType::kRangeQuery: {
      RangeQueryRequest m;
      (void)ParseRangeQueryRequest(frame.payload, &m);
      break;
    }
    case FrameType::kSimilarityJoin: {
      SimilarityJoinRequest m;
      (void)ParseSimilarityJoinRequest(frame.payload, &m);
      break;
    }
    case FrameType::kDropIndex: {
      DropIndexRequest m;
      (void)ParseDropIndexRequest(frame.payload, &m);
      break;
    }
    case FrameType::kBuildIndexOk: {
      BuildIndexResponse m;
      (void)ParseBuildIndexResponse(frame.payload, &m);
      break;
    }
    case FrameType::kRangeQueryResult: {
      RangeQueryResponse m;
      (void)ParseRangeQueryResponse(frame.payload, &m);
      break;
    }
    case FrameType::kJoinChunk: {
      JoinChunk m;
      (void)ParseJoinChunk(frame.payload, &m);
      break;
    }
    case FrameType::kJoinDone: {
      JoinDone m;
      (void)ParseJoinDone(frame.payload, &m);
      break;
    }
    case FrameType::kStatsResult: {
      StatsResponse m;
      (void)ParseStatsResponse(frame.payload, &m);
      break;
    }
    case FrameType::kDropIndexOk: {
      DropIndexResponse m;
      (void)ParseDropIndexResponse(frame.payload, &m);
      break;
    }
    case FrameType::kError: {
      Status m = Status::OK();
      (void)ParseErrorResponse(frame.payload, &m);
      break;
    }
    case FrameType::kRetryAfter: {
      RetryAfterResponse m;
      (void)ParseRetryAfterResponse(frame.payload, &m);
      break;
    }
    case FrameType::kInsert: {
      InsertRequest m;
      (void)ParseInsertRequest(frame.payload, &m);
      break;
    }
    case FrameType::kRemove: {
      RemoveRequest m;
      (void)ParseRemoveRequest(frame.payload, &m);
      break;
    }
    case FrameType::kFlush: {
      FlushRequest m;
      (void)ParseFlushRequest(frame.payload, &m);
      break;
    }
    case FrameType::kInsertOk: {
      InsertResponse m;
      (void)ParseInsertResponse(frame.payload, &m);
      break;
    }
    case FrameType::kRemoveOk: {
      RemoveResponse m;
      (void)ParseRemoveResponse(frame.payload, &m);
      break;
    }
    case FrameType::kFlushOk: {
      FlushResponse m;
      (void)ParseFlushResponse(frame.payload, &m);
      break;
    }
    case FrameType::kStats: {
      StatsRequest m;
      (void)ParseStatsRequest(frame.payload, &m);
      break;
    }
    default:
      break;  // ping/pong/shutdown frames carry no payload contract
  }
}

/// Feeds bytes to a decoder in random chunk sizes and parses whatever comes
/// out.  Exercises the incremental reassembly path.
void Soak(Rng* rng, std::span<const uint8_t> bytes) {
  FrameDecoder decoder(1u << 20);
  size_t off = 0;
  while (off < bytes.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng->UniformInt(97u), bytes.size() - off);
    decoder.Append(bytes.data() + off, chunk);
    off += chunk;
    while (true) {
      Frame frame;
      bool got = false;
      if (!decoder.Next(&frame, &got).ok() || !got) break;
      ParseByType(frame);
    }
  }
}

/// Pass 5: several simulated connections each pipeline a run of RangeQuery
/// frames; delivery interleaves random-sized chunks across the connections
/// (each into its own decoder, like the io loop's per-connection buffers).
/// Every decoder must reproduce exactly its own frames, in order, with the
/// request ids and query payloads intact — the invariant that lets one io
/// thread serve many pipelined connections.
bool InterleavedPipelines(Rng* rng, uint64_t seed, uint64_t iter) {
  struct SimConn {
    std::vector<uint8_t> stream;            // all frames, concatenated
    size_t sent = 0;                        // delivery cursor
    std::vector<uint64_t> ids;              // expected request ids, in order
    std::vector<std::vector<float>> sent_queries;  // per frame
    FrameDecoder decoder{1u << 20};
    size_t decoded = 0;
  };
  const size_t num_conns = 2 + rng->UniformInt(5u);
  std::vector<SimConn> conns(num_conns);
  for (size_t c = 0; c < num_conns; ++c) {
    const size_t pipelined = 1 + rng->UniformInt(8u);
    for (size_t f = 0; f < pipelined; ++f) {
      RangeQueryRequest req;
      req.name = RandomName(rng);
      req.epsilon = rng->Uniform(0.0, 0.5);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.queries = RandomFloats(rng, req.dims * (1 + rng->UniformInt(8u)));
      const uint64_t id = (c << 32) | (f + 1);
      const std::vector<uint8_t> frame = EncodeFrame(
          FrameType::kRangeQuery, id,
          static_cast<uint32_t>(rng->UniformInt(1000u)),
          EncodeRangeQueryRequest(req));
      conns[c].stream.insert(conns[c].stream.end(), frame.begin(),
                             frame.end());
      conns[c].ids.push_back(id);
      conns[c].sent_queries.push_back(req.queries);
    }
  }

  // Deliver chunks from random connections until every stream drains.
  size_t remaining = num_conns;
  while (remaining > 0) {
    SimConn& conn = conns[rng->UniformInt(num_conns)];
    if (conn.sent == conn.stream.size()) continue;
    const size_t chunk = std::min<size_t>(1 + rng->UniformInt(97u),
                                          conn.stream.size() - conn.sent);
    conn.decoder.Append(conn.stream.data() + conn.sent, chunk);
    conn.sent += chunk;
    if (conn.sent == conn.stream.size()) --remaining;
    while (true) {
      Frame frame;
      bool got = false;
      const Status st = conn.decoder.Next(&frame, &got);
      if (!st.ok()) {
        std::cerr << "FAIL: pipelined stream rejected (seed=" << seed
                  << " iter=" << iter << "): " << st.ToString() << "\n";
        return false;
      }
      if (!got) break;
      if (conn.decoded >= conn.ids.size() ||
          frame.header.request_id != conn.ids[conn.decoded] ||
          frame.header.type != FrameType::kRangeQuery) {
        std::cerr << "FAIL: pipelined frame out of order (seed=" << seed
                  << " iter=" << iter << ")\n";
        return false;
      }
      RangeQueryRequest parsed;
      if (!ParseRangeQueryRequest(frame.payload, &parsed).ok() ||
          parsed.queries != conn.sent_queries[conn.decoded]) {
        std::cerr << "FAIL: pipelined payload corrupted (seed=" << seed
                  << " iter=" << iter << ")\n";
        return false;
      }
      ++conn.decoded;
    }
  }
  for (const SimConn& conn : conns) {
    if (conn.decoded != conn.ids.size() ||
        conn.decoder.buffered_bytes() != 0) {
      std::cerr << "FAIL: pipelined stream incomplete (seed=" << seed
                << " iter=" << iter << ")\n";
      return false;
    }
  }
  return true;
}

int Run(uint64_t iterations, uint64_t seed) {
  Rng rng(seed);
  uint64_t frames_ok = 0;
  for (uint64_t iter = 0; iterations == 0 || iter < iterations; ++iter) {
    // 1. Pure noise.
    std::vector<uint8_t> noise(rng.UniformInt(512u));
    for (uint8_t& b : noise) b = static_cast<uint8_t>(rng.Next());
    Soak(&rng, noise);

    // 2. Round-trip a stream of valid frames; they must all decode.
    std::vector<uint8_t> stream;
    const size_t num_frames = 1 + rng.UniformInt(4u);
    for (size_t i = 0; i < num_frames; ++i) {
      const std::vector<uint8_t> frame = RandomValidFrame(&rng);
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    {
      FrameDecoder decoder;
      decoder.Append(stream.data(), stream.size());
      size_t decoded = 0;
      while (true) {
        Frame frame;
        bool got = false;
        const Status st = decoder.Next(&frame, &got);
        if (!st.ok()) {
          std::cerr << "FAIL: valid stream rejected (seed=" << seed
                    << " iter=" << iter << "): " << st.ToString() << "\n";
          return 1;
        }
        if (!got) break;
        ParseByType(frame);
        ++decoded;
      }
      if (decoded != num_frames || decoder.buffered_bytes() != 0) {
        std::cerr << "FAIL: decoded " << decoded << "/" << num_frames
                  << " frames, " << decoder.buffered_bytes()
                  << " bytes stranded (seed=" << seed << " iter=" << iter
                  << ")\n";
        return 1;
      }
      frames_ok += decoded;
    }

    // 3. Bit flips over the same stream.
    std::vector<uint8_t> mutated = stream;
    const size_t flips = 1 + rng.UniformInt(8u);
    for (size_t i = 0; i < flips && !mutated.empty(); ++i) {
      mutated[rng.UniformInt(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.UniformInt(8u));
    }
    Soak(&rng, mutated);

    // 4. Truncation at a random offset.
    if (!stream.empty()) {
      Soak(&rng, std::span<const uint8_t>(stream.data(),
                                          rng.UniformInt(stream.size())));
    }

    // 5. Interleaved pipelined RangeQuery streams across connections.
    if (!InterleavedPipelines(&rng, seed, iter)) return 1;

    // 6. Hand-crafted malformed update (insert/remove/flush) payloads.
    MalformedUpdateFrames(&rng);

    // 7. Hostile trace/profile/slow-log suffixes.
    HostileTelemetrySuffixes(&rng);

    if ((iter + 1) % 500 == 0) {
      std::cout << "iter " << (iter + 1) << ": " << frames_ok
                << " valid frames round-tripped\n";
    }
  }
  std::cout << "OK: " << frames_ok << " valid frames round-tripped, no "
            << "decoder crashes\n";
  return 0;
}

}  // namespace
}  // namespace simjoin

int main(int argc, char** argv) {
  simjoin::ArgParser args(
      "Randomized robustness fuzzer for the service wire protocol");
  args.AddFlag("iterations", "2000", "fuzz iterations; 0 = run forever");
  args.AddFlag("seed", "1", "rng seed");
  const simjoin::Status st = args.Parse(argc, argv);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n" << args.Help();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.Help();
    return 0;
  }
  return simjoin::Run(static_cast<uint64_t>(args.GetInt("iterations")),
                      static_cast<uint64_t>(args.GetInt("seed")));
}
