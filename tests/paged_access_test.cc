// The paged sorted-access extension: one charged request fetches b_i
// consecutive stream entries (Web sources return result pages).

#include <gtest/gtest.h>

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

Dataset MakeData(uint64_t seed, size_t n = 500) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = 2;
  g.seed = seed;
  return GenerateDataset(g);
}

CostModel PagedModel(double cs, double cr, size_t page) {
  CostModel model = CostModel::Uniform(2, cs, cr);
  model.sorted_page_size = {page, page};
  return model;
}

TEST(PagedAccessTest, ValidationRules) {
  CostModel model = CostModel::Uniform(2, 1.0, 1.0);
  EXPECT_EQ(model.page_size(0), 1u);
  model.sorted_page_size = {5, 10};
  EXPECT_TRUE(model.Validate().ok());
  EXPECT_EQ(model.page_size(1), 10u);
  EXPECT_DOUBLE_EQ(model.sorted_entry_cost(1), 0.1);

  model.sorted_page_size = {5};
  EXPECT_FALSE(model.Validate().ok());
  model.sorted_page_size = {5, 0};
  EXPECT_FALSE(model.Validate().ok());
}

TEST(PagedAccessTest, ChargePerPageNotPerEntry) {
  const Dataset data = MakeData(1, 20);
  SourceSet sources(&data, PagedModel(3.0, 1.0, 4));
  // Seven entries = two pages (4 + 3).
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(ReadSorted(&sources, 0).has_value());
  }
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 6.0);
  EXPECT_EQ(sources.stats().sorted_count[0], 7u);
  // TotalCost agrees with the accrual.
  EXPECT_DOUBLE_EQ(sources.stats().TotalCost(sources.cost_model()), 6.0);
}

TEST(PagedAccessTest, PageBoundaryAfterReset) {
  const Dataset data = MakeData(2, 20);
  SourceSet sources(&data, PagedModel(1.0, 1.0, 5));
  ReadSorted(&sources, 0);
  ReadSorted(&sources, 0);
  sources.Reset();
  ReadSorted(&sources, 0);
  // Fresh page after reset: exactly one charge.
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 1.0);
}

TEST(PagedAccessTest, UnitPageMatchesClassicModel) {
  const Dataset data = MakeData(3, 100);
  SourceSet classic(&data, CostModel::Uniform(2, 2.0, 1.0));
  SourceSet paged(&data, PagedModel(2.0, 1.0, 1));
  for (int i = 0; i < 10; ++i) {
    ReadSorted(&classic, 0);
    ReadSorted(&paged, 0);
  }
  EXPECT_DOUBLE_EQ(classic.accrued_cost(), paged.accrued_cost());
}

TEST(PagedAccessTest, EngineStaysExactUnderPaging) {
  const Dataset data = MakeData(4);
  AverageFunction avg(2);
  for (const size_t page : {1ul, 3ul, 10ul, 50ul}) {
    SourceSet sources(&data, PagedModel(1.0, 1.0, page));
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok())
        << "page=" << page;
    EXPECT_EQ(result, BruteForceTopK(data, avg, 10)) << "page=" << page;
  }
}

TEST(PagedAccessTest, BiggerPagesNeverRaiseFixedPlanCost) {
  const Dataset data = MakeData(5, 2000);
  MinFunction fmin(2);
  double last_cost = std::numeric_limits<double>::infinity();
  for (const size_t page : {1ul, 5ul, 25ul, 100ul}) {
    SourceSet sources(&data, PagedModel(1.0, 1.0, page));
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, &result).ok());
    EXPECT_LE(sources.accrued_cost(), last_cost + 1e-9) << "page=" << page;
    last_cost = sources.accrued_cost();
  }
}

TEST(PagedAccessTest, PlannerExploitsCheapPages) {
  // With 50-entry pages, stream reading becomes ~50x cheaper per entry;
  // the planned execution should exploit that and beat the unit-page
  // planned execution's cost.
  const Dataset data = MakeData(6, 4000);
  MinFunction fmin(2);

  const auto planned_cost = [&](const CostModel& model) {
    SourceSet sources(&data, model);
    PlannerOptions options;
    options.sample_size = 200;
    TopKResult result;
    NC_CHECK(RunOptimizedNC(&sources, fmin, 10, options, &result).ok());
    NC_CHECK(result == BruteForceTopK(data, fmin, 10));
    return sources.accrued_cost();
  };

  const double unit = planned_cost(PagedModel(1.0, 1.0, 1));
  const double paged = planned_cost(PagedModel(1.0, 1.0, 50));
  EXPECT_LT(paged, unit);
}

TEST(PagedAccessTest, LatencyAmortizedPerEntry) {
  const Dataset data = MakeData(7, 20);
  SourceSet sources(&data, PagedModel(10.0, 1.0, 5));
  EXPECT_DOUBLE_EQ(sources.DrawLatency(AccessType::kSorted, 0), 2.0);
  EXPECT_DOUBLE_EQ(sources.DrawLatency(AccessType::kRandom, 0), 1.0);
}

}  // namespace
}  // namespace nc
