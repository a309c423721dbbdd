// Shared helpers for the simjoin test suites.

#ifndef SIMJOIN_TESTS_TEST_UTIL_H_
#define SIMJOIN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "baselines/nested_loop.h"
#include "common/dataset.h"
#include "common/metric.h"
#include "common/pair_sink.h"
#include "gtest/gtest.h"

namespace simjoin {
namespace testing_util {

/// Scratch directory private to the running test, created on first use:
/// <TempDir>/simjoin_<Suite>.<Test>_<pid>.  ctest runs each test in its own
/// process, and `ctest -j` runs them side by side, so a fixed path would
/// let one test delete another's files.  Every directory handed out is
/// removed when the process exits.
inline std::string TestTempDir() {
  static struct Cleanup {
    std::set<std::string> dirs;
    ~Cleanup() {
      std::error_code ec;
      for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
    }
  } cleanup;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? "global"
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  // Parameterized names contain '/', which cannot appear in a file name.
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("simjoin_" + name + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  cleanup.dirs.insert(dir);
  return dir;
}

/// Builds a dataset from an initializer-friendly nested vector.
inline Dataset MakeDataset(const std::vector<std::vector<float>>& rows) {
  Dataset ds;
  for (const auto& row : rows) ds.Append(row);
  return ds;
}

/// Sorted canonical self-join pair set computed by the brute-force oracle.
inline std::vector<IdPair> OracleSelfJoin(const Dataset& data, double epsilon,
                                          Metric metric) {
  VectorSink sink;
  const Status st = NestedLoopSelfJoin(data, epsilon, metric, &sink, nullptr);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.Sorted();
}

/// Sorted pair set of an A-to-B join computed by the brute-force oracle.
inline std::vector<IdPair> OracleJoin(const Dataset& a, const Dataset& b,
                                      double epsilon, Metric metric) {
  VectorSink sink;
  const Status st = NestedLoopJoin(a, b, epsilon, metric, &sink, nullptr);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.Sorted();
}

/// Expects two sorted pair lists to be identical, with a readable diff of
/// the first few mismatches.
inline void ExpectSamePairs(const std::vector<IdPair>& expected,
                            const std::vector<IdPair>& actual,
                            const char* label) {
  EXPECT_EQ(expected.size(), actual.size()) << label << ": pair count differs";
  std::vector<IdPair> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  for (size_t i = 0; i < std::min<size_t>(5, missing.size()); ++i) {
    ADD_FAILURE() << label << ": missing pair (" << missing[i].first << ", "
                  << missing[i].second << ")";
  }
  for (size_t i = 0; i < std::min<size_t>(5, extra.size()); ++i) {
    ADD_FAILURE() << label << ": spurious pair (" << extra[i].first << ", "
                  << extra[i].second << ")";
  }
}

}  // namespace testing_util
}  // namespace simjoin

#endif  // SIMJOIN_TESTS_TEST_UTIL_H_
