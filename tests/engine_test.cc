#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"

namespace nc {
namespace {

// A sorted access that must be served.
std::optional<SortedHit> ReadSorted(SourceSet* sources, PredicateId i) {
  std::optional<SortedHit> hit;
  EXPECT_TRUE(sources->TrySortedAccess(i, &hit).ok());
  return hit;
}

// Dataset 1 of the paper (Figure 3): u1 = (0.65, 0.9), u2 = (0.6, 0.8),
// u3 = (0.7, 0.7); u3 is the top-1 under F = min with score 0.7
// (Example 6). 0-based ids: u1 -> 0, u2 -> 1, u3 -> 2.
Dataset PaperDataset() {
  Dataset data;
  const Status s =
      Dataset::FromRows({{0.65, 0.9}, {0.6, 0.8}, {0.7, 0.7}}, &data);
  NC_CHECK(s.ok());
  return data;
}

// Runs NC with an SR/G config over the paper dataset and returns the
// result plus access counts.
struct RunOutcome {
  TopKResult result;
  size_t accesses = 0;
  size_t sorted = 0;
  size_t random = 0;
};

RunOutcome RunPaperQuery(const SRGConfig& config) {
  static const Dataset data = PaperDataset();
  MinFunction fmin(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(config);
  EngineOptions options;
  options.k = 1;
  RunOutcome outcome;
  NCEngine engine(&sources, &fmin, &policy, options);
  const Status status = engine.Run(&outcome.result);
  NC_CHECK(status.ok());
  outcome.accesses = engine.accesses_performed();
  outcome.sorted = sources.stats().TotalSorted();
  outcome.random = sources.stats().TotalRandom();
  return outcome;
}

TEST(EngineTest, PaperExample9FocusedPlan) {
  // Example 9 / Figure 7: the focused plan answers Q1 with just two
  // accesses, P = {sa_1, ra_2(u3)}: the first sorted access hits u3 (0.7)
  // and caps every other object at 0.7; u3's random probe completes it at
  // exactly 0.7. Depth 1.0 on p_2 makes its stream never attractive.
  SRGConfig config;
  config.depths = {0.0, 1.0};
  config.schedule = {1, 0};
  const RunOutcome outcome = RunPaperQuery(config);

  ASSERT_EQ(outcome.result.entries.size(), 1u);
  EXPECT_EQ(outcome.result.entries[0].object, 2u);  // u3
  EXPECT_DOUBLE_EQ(outcome.result.entries[0].score, 0.7);
  EXPECT_EQ(outcome.accesses, 2u);
  EXPECT_EQ(outcome.sorted, 1u);
  EXPECT_EQ(outcome.random, 1u);
}

TEST(EngineTest, PaperExample10ParallelPlan) {
  // Example 10 / Figure 8: with depths that keep p_2's stream attractive
  // down to 0.85, the plan spends four accesses,
  // P = {sa_1, sa_2, sa_2, ra_2(u3)}.
  SRGConfig config;
  config.depths = {0.0, 0.85};
  config.schedule = {1, 0};
  const RunOutcome outcome = RunPaperQuery(config);

  ASSERT_EQ(outcome.result.entries.size(), 1u);
  EXPECT_EQ(outcome.result.entries[0].object, 2u);  // u3
  EXPECT_DOUBLE_EQ(outcome.result.entries[0].score, 0.7);
  EXPECT_EQ(outcome.accesses, 4u);
  EXPECT_EQ(outcome.sorted, 3u);
  EXPECT_EQ(outcome.random, 1u);
}

TEST(EngineTest, PaperExample11FocusedBeatsParallelForMin) {
  // Example 11's point: for F = min, the focused configuration costs less
  // than the parallel one on the same query.
  SRGConfig focused;
  focused.depths = {0.0, 1.0};
  focused.schedule = {1, 0};
  SRGConfig parallel;
  parallel.depths = {0.0, 0.0};
  parallel.schedule = {1, 0};
  EXPECT_LT(RunPaperQuery(focused).accesses,
            RunPaperQuery(parallel).accesses);
}

TEST(EngineTest, MatchesBruteForceOnPaperDataset) {
  const Dataset data = PaperDataset();
  MinFunction fmin(2);
  for (size_t k = 1; k <= 3; ++k) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = k;
    TopKResult result;
    ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, &result).ok());
    EXPECT_EQ(result, BruteForceTopK(data, fmin, k)) << "k=" << k;
  }
}

TEST(EngineTest, KLargerThanDatabaseReturnsEverything) {
  const Dataset data = PaperDataset();
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 10;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  EXPECT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result, BruteForceTopK(data, avg, 10));
}

TEST(EngineTest, RejectsZeroK) {
  const Dataset data = PaperDataset();
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 0;
  TopKResult result;
  EXPECT_EQ(RunNC(&sources, &avg, &policy, options, &result).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, RejectsArityMismatch) {
  const Dataset data = PaperDataset();
  AverageFunction avg(3);  // Dataset has 2 predicates.
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 1;
  TopKResult result;
  EXPECT_EQ(RunNC(&sources, &avg, &policy, options, &result).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, RejectsConsumedSources) {
  const Dataset data = PaperDataset();
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ReadSorted(&sources, 0);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 1;
  TopKResult result;
  EXPECT_EQ(RunNC(&sources, &avg, &policy, options, &result).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, MaxAccessesBudgetEnforced) {
  GeneratorOptions g;
  g.num_objects = 200;
  const Dataset data = GenerateDataset(g);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 10;
  options.max_accesses = 3;
  TopKResult result;
  EXPECT_EQ(RunNC(&sources, &avg, &policy, options, &result).code(),
            StatusCode::kResourceExhausted);
}

TEST(EngineTest, AccessCallbackSeesEveryAccess) {
  const Dataset data = PaperDataset();
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 1;
  std::vector<size_t> indices;
  options.access_callback = [&](size_t idx) { indices.push_back(idx); };
  TopKResult result;
  NCEngine engine(&sources, &avg, &policy, options);
  ASSERT_TRUE(engine.Run(&result).ok());
  ASSERT_EQ(indices.size(), engine.accesses_performed());
  for (size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i + 1);
}

TEST(EngineTest, NoRandomAccessScenario) {
  // NRA's cell: random impossible. NC must answer with sorted access only.
  GeneratorOptions g;
  g.num_objects = 100;
  g.seed = 5;
  const Dataset data = GenerateDataset(g);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, kImpossibleCost));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 5));
  EXPECT_EQ(sources.stats().TotalRandom(), 0u);
}

TEST(EngineTest, NoSortedAccessScenarioSeedsUniverse) {
  // MPro's cell: sorted impossible; the object universe is known.
  GeneratorOptions g;
  g.num_objects = 100;
  g.seed = 6;
  const Dataset data = GenerateDataset(g);
  MinFunction fmin(2);
  SourceSet sources(&data, CostModel::Uniform(2, kImpossibleCost, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, fmin, 5));
  EXPECT_EQ(sources.stats().TotalSorted(), 0u);
}

TEST(EngineTest, MixedCapabilityScenario) {
  // p0 sorted-only, p1 random-only.
  GeneratorOptions g;
  g.num_objects = 150;
  g.seed = 7;
  const Dataset data = GenerateDataset(g);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel({1.0, kImpossibleCost},
                                     {kImpossibleCost, 2.0}));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 3;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 3));
}

TEST(EngineTest, NeverRepeatsRandomAccess) {
  GeneratorOptions g;
  g.num_objects = 300;
  g.num_predicates = 3;
  g.seed = 8;
  const Dataset data = GenerateDataset(g);
  MinFunction fmin(3);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 10;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, &result).ok());
  EXPECT_EQ(sources.stats().duplicate_random_count, 0u);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  GeneratorOptions g;
  g.num_objects = 200;
  g.seed = 9;
  const Dataset data = GenerateDataset(g);
  AverageFunction avg(2);
  TopKResult first;
  size_t first_sorted = 0;
  for (int run = 0; run < 3; ++run) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 7;
    TopKResult result;
    ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
    if (run == 0) {
      first = result;
      first_sorted = sources.stats().TotalSorted();
    } else {
      EXPECT_EQ(result, first);
      EXPECT_EQ(sources.stats().TotalSorted(), first_sorted);
    }
  }
}

TEST(EngineTest, ResultsRankedDescendingWithTieBreak) {
  Dataset data;
  ASSERT_TRUE(
      Dataset::FromRows({{0.5, 0.5}, {0.5, 0.5}, {0.9, 0.9}}, &data).ok());
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 3;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.entries[0].object, 2u);
  // Tie at 0.5: higher ObjectId ranks first.
  EXPECT_EQ(result.entries[1].object, 1u);
  EXPECT_EQ(result.entries[2].object, 0u);
}

TEST(EngineTest, SinglePredicateQuery) {
  Dataset data;
  ASSERT_TRUE(Dataset::FromRows({{0.3}, {0.8}, {0.1}, {0.9}}, &data).ok());
  AverageFunction avg(1);
  SourceSet sources(&data, CostModel::Uniform(1, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(1));
  EngineOptions options;
  options.k = 2;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].object, 3u);
  EXPECT_EQ(result.entries[1].object, 1u);
}

TEST(EngineTest, EngineReusableAcrossRuns) {
  const Dataset data = PaperDataset();
  MinFunction fmin(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 1;
  NCEngine engine(&sources, &fmin, &policy, options);
  TopKResult first;
  ASSERT_TRUE(engine.Run(&first).ok());
  sources.Reset();
  TopKResult second;
  ASSERT_TRUE(engine.Run(&second).ok());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace nc
