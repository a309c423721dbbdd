#include <cstdio>
#include <fstream>

#include "core/ekdb_join.h"
#include "core/ekdb_tree.h"
#include "workload/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

using testing_util::ExpectSamePairs;

std::string TempPath(const std::string& name) {
  return testing_util::TestTempDir() + "/" + name;
}

EkdbConfig Config(double epsilon) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = 12;
  config.metric = Metric::kL1;
  config.dim_order = {3, 0, 2, 1};
  return config;
}

TEST(EkdbSerializeTest, RoundTripPreservesJoinsAndConfig) {
  auto data = GenerateClustered(
      {.n = 900, .dims = 4, .clusters = 6, .sigma = 0.05, .seed = 1});
  ASSERT_TRUE(data.ok());
  auto tree = EkdbTree::Build(*data, Config(0.07));
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("tree.sjet");
  ASSERT_TRUE(tree->Save(path).ok());

  auto loaded = EkdbTree::Load(*data, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config().epsilon, 0.07);
  EXPECT_EQ(loaded->config().leaf_threshold, 12u);
  EXPECT_EQ(loaded->config().metric, Metric::kL1);
  EXPECT_EQ(loaded->dim_order(), (std::vector<uint32_t>{3, 0, 2, 1}));

  VectorSink original, reloaded;
  ASSERT_TRUE(EkdbSelfJoin(*tree, &original).ok());
  ASSERT_TRUE(EkdbSelfJoin(*loaded, &reloaded).ok());
  ExpectSamePairs(original.Sorted(), reloaded.Sorted(), "serialised join");

  const auto s1 = tree->ComputeStats();
  const auto s2 = loaded->ComputeStats();
  EXPECT_EQ(s1.nodes, s2.nodes);
  EXPECT_EQ(s1.leaves, s2.leaves);
  EXPECT_EQ(s1.max_depth, s2.max_depth);
  EXPECT_EQ(s1.total_points, s2.total_points);
  std::remove(path.c_str());
}

TEST(EkdbSerializeTest, LoadedTreeSupportsDynamicOps) {
  auto base = GenerateUniform({.n = 400, .dims = 3, .seed = 2});
  ASSERT_TRUE(base.ok());
  Dataset data = *base;
  EkdbConfig config;
  config.epsilon = 0.1;
  config.leaf_threshold = 8;
  auto tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("dyn.sjet");
  ASSERT_TRUE(tree->Save(path).ok());
  auto loaded = EkdbTree::Load(data, path);
  ASSERT_TRUE(loaded.ok());

  // Loaded trees keep working for insert/remove/range queries.
  ASSERT_TRUE(loaded->Remove(0).ok());
  data.Append(std::vector<float>{0.5f, 0.5f, 0.5f});
  ASSERT_TRUE(loaded->Insert(static_cast<PointId>(data.size() - 1)).ok());
  std::vector<PointId> hits;
  ASSERT_TRUE(loaded->RangeQuery(data.Row(1), 0.05, &hits).ok());
  std::remove(path.c_str());
}

TEST(EkdbSerializeTest, LoadRejectsMismatchedDataset) {
  auto data = GenerateUniform({.n = 100, .dims = 4, .seed = 3});
  auto other = GenerateUniform({.n = 120, .dims = 4, .seed = 4});
  auto tree = EkdbTree::Build(*data, Config(0.1));
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("mismatch.sjet");
  ASSERT_TRUE(tree->Save(path).ok());
  auto loaded = EkdbTree::Load(*other, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(EkdbSerializeTest, LoadRejectsGarbageAndTruncation) {
  auto data = GenerateUniform({.n = 50, .dims = 2, .seed = 5});
  const std::string garbage = TempPath("garbage.sjet");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a tree";
  }
  EXPECT_FALSE(EkdbTree::Load(*data, garbage).ok());
  std::remove(garbage.c_str());

  EkdbConfig config;
  config.epsilon = 0.1;
  auto tree = EkdbTree::Build(*data, config);
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("trunc.sjet");
  ASSERT_TRUE(tree->Save(path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() * 2 / 3);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(EkdbTree::Load(*data, path).ok());
  std::remove(path.c_str());

  EXPECT_EQ(EkdbTree::Load(*data, TempPath("missing.sjet")).status().code(),
            StatusCode::kIoError);
}

TEST(EkdbSerializeTest, SaveToUnwritablePathFails) {
  auto data = GenerateUniform({.n = 10, .dims = 2, .seed = 6});
  EkdbConfig config;
  config.epsilon = 0.1;
  auto tree = EkdbTree::Build(*data, config);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Save("/nonexistent_dir_xyz/tree.sjet").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace simjoin
