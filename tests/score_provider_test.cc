// The ScoreProvider seam: SourceSet (and everything above it) must work
// identically over a custom provider as over the Dataset substrate.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "access/score_provider.h"
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

// A provider that computes scores from a closed-form formula instead of a
// table - the shape a live-service adapter has. Rank orders are derived
// once, on demand.
class FormulaProvider final : public ScoreProvider {
 public:
  FormulaProvider(size_t n, size_t m) : n_(n), m_(m), orders_(m) {}

  size_t num_objects() const override { return n_; }
  size_t num_predicates() const override { return m_; }

  SortedEntry SortedEntryAt(PredicateId i, size_t rank) override {
    const std::vector<ObjectId>& order = Order(i);
    const ObjectId u = order[rank];
    return SortedEntry{u, ScoreOf(i, u)};
  }

  Score ScoreOf(PredicateId i, ObjectId u) override {
    ++score_calls_;
    // Deterministic pseudo-scores: distinct per (i, u), dense in [0, 1].
    const double x =
        std::fmod(std::sin(static_cast<double>(u * (i + 3) + 1)) * 43758.5,
                  1.0);
    return ClampScore(std::abs(x));
  }

  size_t score_calls() const { return score_calls_; }

 private:
  const std::vector<ObjectId>& Order(PredicateId i) {
    std::vector<ObjectId>& order = orders_[i];
    if (order.empty()) {
      order.resize(n_);
      for (size_t u = 0; u < n_; ++u) order[u] = static_cast<ObjectId>(u);
      std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
        const Score sa = ScoreOf(i, a);
        const Score sb = ScoreOf(i, b);
        if (sa != sb) return sa > sb;
        return a > b;
      });
    }
    return order;
  }

  size_t n_;
  size_t m_;
  std::vector<std::vector<ObjectId>> orders_;
  size_t score_calls_ = 0;
};

// Materializes the provider's scores into a Dataset for oracle checks.
Dataset Materialize(ScoreProvider& provider) {
  Dataset data(provider.num_objects(), provider.num_predicates());
  for (ObjectId u = 0; u < provider.num_objects(); ++u) {
    for (PredicateId i = 0; i < provider.num_predicates(); ++i) {
      data.SetScore(u, i, provider.ScoreOf(i, u));
    }
  }
  return data;
}

TEST(ScoreProviderTest, DatasetProviderMatchesDataset) {
  GeneratorOptions g;
  g.num_objects = 50;
  g.num_predicates = 2;
  g.seed = 1;
  const Dataset data = GenerateDataset(g);
  DatasetScoreProvider provider(&data);
  EXPECT_EQ(provider.num_objects(), 50u);
  EXPECT_EQ(provider.num_predicates(), 2u);
  const SortedEntry top = provider.SortedEntryAt(0, 0);
  EXPECT_EQ(top.object, data.SortedOrder(0)[0]);
  EXPECT_DOUBLE_EQ(top.score, data.score(top.object, 0));
  EXPECT_DOUBLE_EQ(provider.ScoreOf(1, 7), data.score(7, 1));
}

TEST(ScoreProviderTest, EngineExactOverCustomProvider) {
  FormulaProvider provider(300, 2);
  const Dataset materialized = Materialize(provider);
  MinFunction fmin(2);
  const TopKResult expected = BruteForceTopK(materialized, fmin, 5);

  SourceSet sources(&provider, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_FALSE(sources.has_dataset());
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, &result).ok());
  EXPECT_EQ(result, expected);
}

TEST(ScoreProviderTest, PlannerFallsBackToDummySamples) {
  FormulaProvider provider(400, 2);
  const Dataset materialized = Materialize(provider);
  AverageFunction avg(2);
  SourceSet sources(&provider, CostModel::Uniform(2, 1.0, 5.0));
  PlannerOptions options;
  options.sample_size = 100;
  options.sample_mode = SampleMode::kFromData;  // No dataset: falls back.
  TopKResult result;
  OptimizerResult plan;
  ASSERT_TRUE(
      RunOptimizedNC(&sources, avg, 5, options, &result, &plan).ok());
  EXPECT_EQ(result, BruteForceTopK(materialized, avg, 5));
  EXPECT_GT(plan.simulations, 0u);
}

TEST(ScoreProviderTest, BundlingWorksOverCustomProvider) {
  FormulaProvider provider(200, 3);
  const Dataset materialized = Materialize(provider);
  AverageFunction avg(3);
  CostModel cost = CostModel::Uniform(3, 1.0, kImpossibleCost);
  cost.attribute_groups = {0, 0, 0};
  SourceSet sources(&provider, cost);
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 4;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(materialized, avg, 4));
}

TEST(ScoreProviderTest, ExhaustionAndResetOverCustomProvider) {
  FormulaProvider provider(5, 1);
  SourceSet sources(&provider, CostModel::Uniform(1, 1.0, 1.0));
  Score last = 1.0;
  for (int i = 0; i < 5; ++i) {
    const auto hit = ReadSorted(&sources, 0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_LE(hit->score, last);
    last = hit->score;
  }
  EXPECT_TRUE(sources.exhausted(0));
  EXPECT_FALSE(ReadSorted(&sources, 0).has_value());
  sources.Reset();
  EXPECT_FALSE(sources.exhausted(0));
  EXPECT_TRUE(ReadSorted(&sources, 0).has_value());
}

}  // namespace
}  // namespace nc
