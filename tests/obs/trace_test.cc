// Tests for scoped phase tracing: lifecycle, span capture from multiple
// threads, and the Chrome trace_event JSON shape.

#include "obs/trace.h"

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

std::string TracePath(const char* name) {
  return testing_util::TestTempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class TraceTest : public testing::Test {
 protected:
  void TearDown() override {
    // Never leak an active trace into the next test.
    (void)StopTracing();
  }
};

TEST_F(TraceTest, DisabledByDefaultAndSpansAreFree) {
  ASSERT_FALSE(TracingEnabled());
  const uint64_t before = TraceEventCount();
  { SIMJOIN_TRACE_SPAN("ignored"); }
  EXPECT_EQ(TraceEventCount(), before);
}

TEST_F(TraceTest, StartStopWritesLoadableJson) {
  const std::string path = TracePath("basic.json");
  ASSERT_TRUE(StartTracing(path).ok());
  EXPECT_TRUE(TracingEnabled());
  {
    SIMJOIN_TRACE_SPAN("outer");
    SIMJOIN_TRACE_SPAN("inner");
  }
  EXPECT_EQ(TraceEventCount(), 2u);
  ASSERT_TRUE(StopTracing().ok());
  EXPECT_FALSE(TracingEnabled());

  const std::string json = ReadFile(path);
  // Chrome trace_event format: top-level object with a traceEvents array of
  // complete ("ph":"X") events carrying name/ts/dur/pid/tid.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back() == '\n' ? json[json.size() - 2] : json.back(), '}');
  std::remove(path.c_str());
}

TEST_F(TraceTest, SecondStartFailsWhileActive) {
  ASSERT_TRUE(StartTracing(TracePath("a.json")).ok());
  EXPECT_FALSE(StartTracing(TracePath("b.json")).ok());
  ASSERT_TRUE(StopTracing().ok());
}

TEST_F(TraceTest, StopWithoutStartIsOk) { EXPECT_TRUE(StopTracing().ok()); }

TEST_F(TraceTest, EmptyPathIsRejected) {
  EXPECT_FALSE(StartTracing("").ok());
}

TEST_F(TraceTest, CollectsSpansFromManyThreads) {
  const std::string path = TracePath("threads.json");
  ASSERT_TRUE(StartTracing(path).ok());
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SIMJOIN_TRACE_SPAN("worker.phase");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(TraceEventCount(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(TraceDroppedEventCount(), 0u);

  std::ostringstream os;
  WriteTraceJson(os);
  const std::string json = os.str();
  size_t events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, static_cast<size_t>(kThreads) * kSpansPerThread);
  ASSERT_TRUE(StopTracing().ok());
  std::remove(path.c_str());
}

TEST_F(TraceTest, RestartClearsPreviousEvents) {
  const std::string path1 = TracePath("first.json");
  const std::string path2 = TracePath("second.json");
  ASSERT_TRUE(StartTracing(path1).ok());
  { SIMJOIN_TRACE_SPAN("one"); }
  ASSERT_TRUE(StopTracing().ok());
  ASSERT_TRUE(StartTracing(path2).ok());
  EXPECT_EQ(TraceEventCount(), 0u);
  { SIMJOIN_TRACE_SPAN("two"); }
  ASSERT_TRUE(StopTracing().ok());
  const std::string json = ReadFile(path2);
  EXPECT_EQ(json.find("\"name\":\"one\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"two\""), std::string::npos);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST_F(TraceTest, SpanStartedBeforeStopStillRecordsSafely) {
  // A span constructed while tracing is on but destroyed after StopTracing
  // must not crash; its event lands in the (cleared) buffers and is simply
  // not part of the written file.
  const std::string path = TracePath("straddle.json");
  ASSERT_TRUE(StartTracing(path).ok());
  {
    TraceSpan straddler("straddle");
    ASSERT_TRUE(StopTracing().ok());
  }  // destructor fires here, after the stop
  EXPECT_EQ(ReadFile(path).find("\"name\":\"straddle\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace simjoin
