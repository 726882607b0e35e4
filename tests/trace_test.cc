// Access tracing and the plan-shape properties it lets us verify -
// notably the SR property behind Lemma 1: in full-capability scenarios an
// SR/G execution never performs a sorted access on a predicate after that
// predicate's first random access (sorted attractiveness l_i > H_i only
// ever decays).

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/planner.h"
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

// A random access that must be served.
Score ReadRandom(SourceSet* sources, PredicateId i, ObjectId u) {
  Score score = 0.0;
  EXPECT_TRUE(sources->TryRandomAccess(i, u, &score).ok());
  return score;
}

Dataset MakeData(uint64_t seed, size_t n = 400, size_t m = 2) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

TEST(TraceTest, DisabledByDefault) {
  const Dataset data = MakeData(1, 20);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ReadSorted(&sources, 0);
  ReadRandom(&sources, 1, 0);
  EXPECT_TRUE(sources.trace().empty());
}

TEST(TraceTest, RecordsAccessesInOrder) {
  const Dataset data = MakeData(2, 20);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.EnableTrace();
  ReadSorted(&sources, 0);
  ReadRandom(&sources, 1, 3);
  ReadSorted(&sources, 1);
  ASSERT_EQ(sources.trace().size(), 3u);
  EXPECT_EQ(sources.trace()[0], Access::Sorted(0));
  EXPECT_EQ(sources.trace()[1], Access::Random(1, 3));
  EXPECT_EQ(sources.trace()[2], Access::Sorted(1));
}

TEST(TraceTest, ResetClearsTrace) {
  const Dataset data = MakeData(3, 20);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.EnableTrace();
  ReadSorted(&sources, 0);
  sources.Reset();
  EXPECT_TRUE(sources.trace().empty());
}

TEST(TraceTest, TraceMatchesCounters) {
  const Dataset data = MakeData(4);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.EnableTrace();
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  size_t sorted = 0;
  size_t random = 0;
  for (const Access& a : sources.trace()) {
    (a.type == AccessType::kSorted ? sorted : random) += 1;
  }
  EXPECT_EQ(sorted, sources.stats().TotalSorted());
  EXPECT_EQ(random, sources.stats().TotalRandom());
}

// Lemma 1's shape, verified on real executions: per predicate, all
// sorted accesses precede the first random access (full-capability
// scenarios, where SRGPolicy's fallback path never fires).
void ExpectSRShape(const std::vector<Access>& trace, size_t m) {
  std::vector<bool> random_started(m, false);
  for (const Access& a : trace) {
    if (a.type == AccessType::kRandom) {
      random_started[a.predicate] = true;
    } else {
      EXPECT_FALSE(random_started[a.predicate])
          << "sa_" << a.predicate << " after ra_" << a.predicate;
    }
  }
}

TEST(TraceTest, SRGExecutionsAreSortedThenRandomPerPredicate) {
  for (const uint64_t seed : {5ull, 6ull, 7ull}) {
    const Dataset data = MakeData(seed, 500, 3);
    MinFunction fmin(3);
    for (const double h : {0.3, 0.6, 0.9}) {
      SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.0));
      sources.EnableTrace();
      SRGConfig config;
      config.depths = {h, 1.0, 0.5};
      config.schedule = {2, 0, 1};
      SRGPolicy policy(config);
      EngineOptions options;
      options.k = 5;
      TopKResult result;
      ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, &result).ok());
      ExpectSRShape(sources.trace(), 3);
    }
  }
}

TEST(TraceTest, SRShapeHoldsForPlannerChosenPlans) {
  const Dataset data = MakeData(8, 800, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 5.0));
  sources.EnableTrace();
  PlannerOptions options;
  options.sample_size = 150;
  TopKResult result;
  ASSERT_TRUE(RunOptimizedNC(&sources, avg, 10, options, &result).ok());
  ExpectSRShape(sources.trace(), 2);
}

}  // namespace
}  // namespace nc
