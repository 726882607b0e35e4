// Multi-attribute source bundling (CostModel::attribute_groups): a sorted
// hit carries the object's whole source row, the way hotels.com returns
// closeness, stars, and price together (Example 2's real structure).

#include <gtest/gtest.h>

#include "core/parallel_executor.h"
#include "core/planner.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "core/tg.h"
#include "data/generator.h"

namespace nc {
namespace {

// A sorted access that must be served.
std::optional<SortedHit> ReadSorted(SourceSet* sources, PredicateId i) {
  std::optional<SortedHit> hit;
  EXPECT_TRUE(sources->TrySortedAccess(i, &hit).ok());
  return hit;
}

Dataset MakeData(uint64_t seed, size_t n = 500, size_t m = 3) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

CostModel GroupedModel(size_t m, double cs, double cr) {
  CostModel model = CostModel::Uniform(m, cs, cr);
  model.attribute_groups.assign(m, 0);  // One source serves everything.
  return model;
}

TEST(BundlingTest, ValidationRules) {
  CostModel model = CostModel::Uniform(3, 1.0, 1.0);
  EXPECT_TRUE(model.same_group(0, 0));
  EXPECT_FALSE(model.same_group(0, 1));
  model.attribute_groups = {0, 1, 0};
  EXPECT_TRUE(model.Validate().ok());
  EXPECT_TRUE(model.same_group(0, 2));
  EXPECT_FALSE(model.same_group(0, 1));
  model.attribute_groups = {0, 1};
  EXPECT_FALSE(model.Validate().ok());
}

TEST(BundlingTest, SortedHitCarriesGroupRow) {
  const Dataset data = MakeData(1, 10, 3);
  SourceSet sources(&data, GroupedModel(3, 1.0, 1.0));
  const auto hit = ReadSorted(&sources, 1);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->bundled.size(), 2u);
  for (const auto& [predicate, score] : hit->bundled) {
    EXPECT_NE(predicate, 1u);
    EXPECT_DOUBLE_EQ(score, data.score(hit->object, predicate));
  }
}

TEST(BundlingTest, PartialGroupsBundleOnlySiblings) {
  const Dataset data = MakeData(2, 10, 3);
  CostModel model = CostModel::Uniform(3, 1.0, 1.0);
  model.attribute_groups = {0, 7, 7};  // p1 and p2 share a source.
  SourceSet sources(&data, model);
  const auto solo = ReadSorted(&sources, 0);
  EXPECT_TRUE(solo->bundled.empty());
  const auto pair = ReadSorted(&sources, 1);
  ASSERT_EQ(pair->bundled.size(), 1u);
  EXPECT_EQ(pair->bundled[0].first, 2u);
}

TEST(BundlingTest, UngroupedHitsHaveNoBundle) {
  const Dataset data = MakeData(3, 10, 2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_TRUE(ReadSorted(&sources, 0)->bundled.empty());
}

TEST(BundlingTest, EngineExactAndNeverProbes) {
  // With one source serving all attributes, the engine completes objects
  // from sorted hits alone - even when probes are impossible.
  const Dataset data = MakeData(4);
  AverageFunction avg(3);
  SourceSet sources(&data, GroupedModel(3, 1.0, kImpossibleCost));
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 5;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 5));
  EXPECT_EQ(sources.stats().TotalRandom(), 0u);
}

TEST(BundlingTest, BundlingSlashesSortedDepthVsUngrouped) {
  const Dataset data = MakeData(5, 2000, 3);
  AverageFunction avg(3);
  const auto sorted_cost = [&](const CostModel& model) {
    SourceSet sources(&data, model);
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    NC_CHECK(RunNC(&sources, &avg, &policy, options, &result).ok());
    NC_CHECK(result == BruteForceTopK(data, avg, 10));
    return sources.accrued_cost();
  };
  const double ungrouped =
      sorted_cost(CostModel::Uniform(3, 1.0, kImpossibleCost));
  const double grouped = sorted_cost(GroupedModel(3, 1.0, kImpossibleCost));
  // One-hit completion prunes far earlier than NRA-style accumulation.
  EXPECT_LT(grouped, ungrouped * 0.75);
}

TEST(BundlingTest, TGAppliesBundles) {
  const Dataset data = MakeData(6, 200, 3);
  MinFunction fmin(3);
  SourceSet sources(&data, GroupedModel(3, 1.0, kImpossibleCost));
  TGRandomPolicy policy(9);
  TGOptions options;
  options.k = 4;
  TopKResult result;
  ASSERT_TRUE(RunTG(&sources, fmin, &policy, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, fmin, 4));
}

TEST(BundlingTest, ParallelExecutorAppliesBundles) {
  const Dataset data = MakeData(7, 400, 3);
  AverageFunction avg(3);
  SourceSet sources(&data, GroupedModel(3, 1.0, kImpossibleCost));
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 4;
  ParallelResult result;
  ASSERT_TRUE(RunParallelNC(&sources, avg, &policy, options, &result).ok());
  EXPECT_EQ(result.topk, BruteForceTopK(data, avg, 5));
}

TEST(BundlingTest, PlannerWorksOnGroupedScenario) {
  const Dataset data = MakeData(8, 1500, 3);
  AverageFunction avg(3);
  SourceSet sources(&data, GroupedModel(3, 1.0, 2.0));
  PlannerOptions options;
  options.sample_size = 150;
  TopKResult result;
  ASSERT_TRUE(RunOptimizedNC(&sources, avg, 8, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 8));
}

TEST(BundlingTest, ThetaCollectorSeesBundledCompletions) {
  const Dataset data = MakeData(9, 800, 3);
  MinFunction fmin(3);
  SourceSet sources(&data, GroupedModel(3, 1.0, kImpossibleCost));
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 5;
  options.approximation_theta = 1.2;
  NCEngine engine(&sources, &fmin, &policy, options);
  TopKResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  ASSERT_EQ(result.entries.size(), 5u);
  // Guarantee check against the full database.
  const Score weakest = result.entries.back().score;
  std::vector<bool> member(data.num_objects(), false);
  for (const TopKEntry& e : result.entries) member[e.object] = true;
  for (ObjectId u = 0; u < data.num_objects(); ++u) {
    if (member[u]) continue;
    const std::vector<Score> row{data.score(u, 0), data.score(u, 1),
                                 data.score(u, 2)};
    EXPECT_GE(1.2 * weakest + 1e-12, fmin.Evaluate(row));
  }
}

}  // namespace
}  // namespace nc
