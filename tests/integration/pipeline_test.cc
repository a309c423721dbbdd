// End-to-end application pipelines: the motivating workloads of the paper
// run through the full public API (generate -> featurise -> normalise ->
// index -> join -> interpret results).

#include <algorithm>
#include <cstdio>
#include <set>

#include "baselines/nested_loop.h"
#include "common/csv.h"
#include "common/rng.h"
#include "core/ekdb_join.h"
#include "rtree/rtree_join.h"
#include "workload/generators.h"
#include "workload/image_features.h"
#include "workload/timeseries.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

using testing_util::ExpectSamePairs;
using testing_util::OracleSelfJoin;

TEST(TimeSeriesPipelineTest, JoinPrefersSameGroupPairs) {
  // Strongly co-moving groups: the feature-space self-join should recover
  // far more same-group pairs than cross-group pairs.
  const size_t groups = 5;
  auto family = GenerateSeriesFamily({.num_series = 60, .length = 256,
                                      .groups = groups, .group_weight = 0.9,
                                      .volatility = 0.02, .seed = 1});
  ASSERT_TRUE(family.ok());
  auto features = SeriesToFeatureDataset(*family, 6);
  ASSERT_TRUE(features.ok());
  features->NormalizeToUnitCube();

  EkdbConfig config;
  config.epsilon = 0.12;
  config.leaf_threshold = 8;
  auto tree = EkdbTree::Build(*features, config);
  ASSERT_TRUE(tree.ok());
  VectorSink sink;
  ASSERT_TRUE(EkdbSelfJoin(*tree, &sink).ok());

  ASSERT_GT(sink.pairs().size(), 0u);
  uint64_t same_group = 0, cross_group = 0;
  for (const auto& [a, b] : sink.pairs()) {
    (a % groups == b % groups ? same_group : cross_group) += 1;
  }
  EXPECT_GT(same_group, 3 * cross_group)
      << "same=" << same_group << " cross=" << cross_group;
  // And the tree result is exact with respect to brute force in feature space.
  ExpectSamePairs(OracleSelfJoin(*features, 0.12, Metric::kL2), sink.Sorted(),
                  "ts features");
}

TEST(ImageDedupPipelineTest, PlantedDuplicatesAreRecovered) {
  const size_t originals = 300, dups = 25;
  auto archive = GenerateImageArchive({.num_images = originals, .bins = 24,
                                       .prototypes = 8, .concentration = 70,
                                       .near_duplicates = dups,
                                       .duplicate_noise = 0.01, .seed = 2});
  ASSERT_TRUE(archive.ok());
  Dataset data = archive->histograms;
  data.NormalizeToUnitCube();

  EkdbConfig config;
  config.epsilon = 0.05;
  config.metric = Metric::kL2;
  config.leaf_threshold = 16;
  auto tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(tree.ok());
  VectorSink sink;
  ASSERT_TRUE(EkdbSelfJoin(*tree, &sink).ok());

  // Every planted (source, duplicate) pair must be in the result set.
  std::set<IdPair> found(sink.pairs().begin(), sink.pairs().end());
  size_t recovered = 0;
  for (size_t d = 0; d < dups; ++d) {
    const PointId dup = static_cast<PointId>(originals + d);
    const PointId src = archive->duplicate_of[d];
    const IdPair key{std::min(src, dup), std::max(src, dup)};
    recovered += found.count(key);
  }
  EXPECT_GE(recovered, dups - 2)
      << "nearly all planted duplicates must be joined";
}

TEST(CsvRoundTripPipelineTest, JoinResultsSurviveSerialisation) {
  auto data = GenerateClustered(
      {.n = 250, .dims = 4, .clusters = 4, .sigma = 0.04, .seed = 3});
  ASSERT_TRUE(data.ok());
  const std::string path =
      testing_util::TestTempDir() + "/pipeline_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(*data, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  EkdbConfig config;
  config.epsilon = 0.08;
  auto t1 = EkdbTree::Build(*data, config);
  auto t2 = EkdbTree::Build(*loaded, config);
  ASSERT_TRUE(t1.ok() && t2.ok());
  VectorSink s1, s2;
  ASSERT_TRUE(EkdbSelfJoin(*t1, &s1).ok());
  ASSERT_TRUE(EkdbSelfJoin(*t2, &s2).ok());
  ExpectSamePairs(s1.Sorted(), s2.Sorted(), "csv roundtrip");
}

TEST(RangeQueryVsJoinConsistencyTest, PerPointQueriesReproduceJoin) {
  // Running an epsilon range query per point over the R-tree must produce
  // the same pair set as the self-join (the query-vs-join duality).
  auto data = GenerateUniform({.n = 300, .dims = 3, .seed = 4});
  ASSERT_TRUE(data.ok());
  auto tree = RTree::BulkLoad(*data, RTreeConfig{});
  ASSERT_TRUE(tree.ok());

  std::vector<IdPair> via_queries;
  for (size_t i = 0; i < data->size(); ++i) {
    std::vector<PointId> hits;
    ASSERT_TRUE(
        tree->RangeQuery(data->Row(static_cast<PointId>(i)), 0.1, Metric::kL2,
                         &hits)
            .ok());
    for (PointId j : hits) {
      if (j > i) via_queries.emplace_back(static_cast<PointId>(i), j);
    }
  }
  std::sort(via_queries.begin(), via_queries.end());

  VectorSink join_sink;
  ASSERT_TRUE(RTreeSelfJoin(*tree, 0.1, &join_sink, Metric::kL2).ok());
  ExpectSamePairs(join_sink.Sorted(), via_queries, "query/join duality");
}

TEST(NormalizationPipelineTest, EpsilonScalesWithNormalization) {
  // Joining raw data at radius eps is equivalent to joining normalised data
  // at eps / span when all columns share one span (here [0, 10]).
  Dataset raw;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    raw.Append(std::vector<float>{static_cast<float>(rng.Uniform(0, 10)),
                                  static_cast<float>(rng.Uniform(0, 10))});
  }
  // Pin the exact span so the scale factor is exactly 10.
  raw.MutableRow(0)[0] = 0.0f;
  raw.MutableRow(0)[1] = 0.0f;
  raw.MutableRow(1)[0] = 10.0f;
  raw.MutableRow(1)[1] = 10.0f;

  const auto raw_pairs = OracleSelfJoin(raw, 0.5, Metric::kL2);

  Dataset normalized = raw;
  normalized.NormalizeToUnitCube();
  EkdbConfig config;
  config.epsilon = 0.05;
  auto tree = EkdbTree::Build(normalized, config);
  ASSERT_TRUE(tree.ok());
  VectorSink sink;
  ASSERT_TRUE(EkdbSelfJoin(*tree, &sink).ok());
  ExpectSamePairs(raw_pairs, sink.Sorted(), "normalization scaling");
}

}  // namespace
}  // namespace simjoin
