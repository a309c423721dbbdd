// Tests for the slow-query log: ring bound and eviction accounting, drain
// order, the JSONL sink (content, rotation safety, rate limit, error
// accounting), and the one-line JSON rendering.

#include "obs/slow_query_log.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace obs {
namespace {

SlowQueryEntry Entry(uint64_t request_id, uint64_t unix_micros = 1) {
  SlowQueryEntry e;
  e.unix_micros = unix_micros;  // nonzero: keep tests clock-independent
  e.trace_id = 0xabc;
  e.request_id = request_id;
  e.op = 2;
  e.index = "base";
  e.wall_us = 1500;
  return e;
}

/// Temp file path unique to the current test; removed on destruction.
class TempPath {
 public:
  TempPath() : path_(testing_util::TestTempDir() + "/slowlog.jsonl") {}
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(SlowLogTest, RingKeepsNewestAndCountsEvictions) {
  SlowQueryLog log({.capacity = 3});
  for (uint64_t i = 1; i <= 5; ++i) log.Record(Entry(i));
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.evicted(), 2u);
  const std::vector<SlowQueryEntry> drained = log.Drain(10);
  ASSERT_EQ(drained.size(), 3u);  // 1 and 2 were evicted
  EXPECT_EQ(drained[0].request_id, 3u);
  EXPECT_EQ(drained[1].request_id, 4u);
  EXPECT_EQ(drained[2].request_id, 5u);
}

TEST(SlowLogTest, DrainRemovesOldestFirstAndLeavesTheRest) {
  SlowQueryLog log({.capacity = 10});
  for (uint64_t i = 1; i <= 4; ++i) log.Record(Entry(i));
  const std::vector<SlowQueryEntry> first = log.Drain(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].request_id, 1u);
  EXPECT_EQ(first[1].request_id, 2u);
  const std::vector<SlowQueryEntry> rest = log.Drain(10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].request_id, 3u);
  EXPECT_TRUE(log.Drain(10).empty());
  EXPECT_EQ(log.recorded(), 4u);  // draining is not eviction
  EXPECT_EQ(log.evicted(), 0u);
}

TEST(SlowLogTest, SinkWritesOneJsonLinePerEntry) {
  TempPath path;
  SlowQueryLog log({.capacity = 8, .jsonl_path = path.get()});
  log.Record(Entry(1));
  log.Record(Entry(2));
  const std::vector<std::string> lines = ReadLines(path.get());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"request_id\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"request_id\":2"), std::string::npos);
  EXPECT_EQ(log.sink_errors(), 0u);
  // The sink does not replace the ring.
  EXPECT_EQ(log.Drain(10).size(), 2u);
}

TEST(SlowLogTest, SinkSurvivesRotation) {
  TempPath path;
  SlowQueryLog log({.capacity = 8, .jsonl_path = path.get()});
  log.Record(Entry(1));
  ASSERT_EQ(ReadLines(path.get()).size(), 1u);
  // External logrotate moves the file away; the next entry recreates it.
  std::remove(path.get().c_str());
  log.Record(Entry(2));
  const std::vector<std::string> lines = ReadLines(path.get());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"request_id\":2"), std::string::npos);
  EXPECT_EQ(log.sink_errors(), 0u);
}

TEST(SlowLogTest, SinkRateLimitBoundsWritesPerSecondRingUnaffected) {
  TempPath path;
  SlowQueryLog log(
      {.capacity = 16, .jsonl_path = path.get(), .sink_max_per_sec = 2});
  // Five entries inside one wall-clock second: two written, three dropped.
  for (uint64_t i = 1; i <= 5; ++i) {
    log.Record(Entry(i, /*unix_micros=*/1'000'000 + i));
  }
  EXPECT_EQ(ReadLines(path.get()).size(), 2u);
  EXPECT_EQ(log.sink_suppressed(), 3u);
  // The next second opens a fresh window.
  log.Record(Entry(6, /*unix_micros=*/2'000'001));
  EXPECT_EQ(ReadLines(path.get()).size(), 3u);
  EXPECT_EQ(log.sink_suppressed(), 3u);
  // Every entry still reached the ring.
  EXPECT_EQ(log.Drain(100).size(), 6u);
}

TEST(SlowLogTest, SinkErrorsAreCountedNotFatal) {
  SlowQueryLog log(
      {.capacity = 4, .jsonl_path = "/nonexistent-dir/slow.jsonl"});
  log.Record(Entry(1));
  EXPECT_EQ(log.sink_errors(), 1u);
  EXPECT_EQ(log.recorded(), 1u);  // the ring still got the entry
  EXPECT_EQ(log.Drain(10).size(), 1u);
}

TEST(SlowLogTest, RecordStampsWallClockWhenUnset) {
  SlowQueryLog log({.capacity = 4});
  SlowQueryEntry e;
  e.request_id = 1;  // unix_micros left 0
  log.Record(e);
  const std::vector<SlowQueryEntry> drained = log.Drain(1);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_GT(drained[0].unix_micros, 0u);
}

TEST(SlowLogTest, ToJsonLineRendersProfileAndEscapes) {
  SlowQueryEntry e = Entry(7);
  e.status_code = 4;
  e.status_message = "deadline \"exceeded\"\n";
  e.profile.plan = "backend=ekdb-flat eps=0.1";
  e.profile.nodes.push_back(
      {kProfileNoParent, "service.range_query", 0, 1000, 0});
  e.profile.nodes.push_back({0, "execute", 100, 900, 400});
  e.profile.counters.push_back({"candidates", 88});

  const std::string line = SlowQueryLog::ToJsonLine(e);
  EXPECT_NE(line.find("\"status\":\"deadline \\\"exceeded\\\"\\n\""),
            std::string::npos);
  EXPECT_NE(line.find("\"plan\":\"backend=ekdb-flat eps=0.1\""),
            std::string::npos);
  // Roots render parent -1 so consumers need no sentinel knowledge.
  EXPECT_NE(line.find("\"parent\":-1"), std::string::npos);
  EXPECT_NE(line.find("\"parent\":0"), std::string::npos);
  EXPECT_NE(line.find("\"counters\":{\"candidates\":88}"), std::string::npos);
  // Exactly one line.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(SlowLogTest, OmitsEmptyOptionalBlocks) {
  const std::string line = SlowQueryLog::ToJsonLine(Entry(1));
  EXPECT_EQ(line.find("\"status\":"), std::string::npos);
  EXPECT_EQ(line.find("\"plan\""), std::string::npos);
  EXPECT_EQ(line.find("\"phases\""), std::string::npos);
  EXPECT_EQ(line.find("\"counters\""), std::string::npos);
}

TEST(SlowLogTest, ConcurrentRecordAndDrainKeepExactCounts) {
  SlowQueryLog log({.capacity = 64});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  std::atomic<uint64_t> drained{0};
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      drained += log.Drain(16).size();
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) log.Record(Entry(i + 1));
    });
  }
  for (int t = 1; t <= kThreads; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads[0].join();
  drained += log.Drain(10'000).size();

  const uint64_t total = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(log.recorded(), total);
  // Every record either reached a drain or was evicted; none invented.
  EXPECT_EQ(drained.load() + log.evicted(), total);
}

}  // namespace
}  // namespace obs
}  // namespace simjoin
