#include "core/srg_policy.h"

#include <gtest/gtest.h>

#include "data/dataset.h"

namespace nc {
namespace {

// A sorted access that must be served.
std::optional<SortedHit> ReadSorted(SourceSet* sources, PredicateId i) {
  std::optional<SortedHit> hit;
  EXPECT_TRUE(sources->TrySortedAccess(i, &hit).ok());
  return hit;
}

Dataset SmallData() {
  Dataset data;
  const Status s = Dataset::FromRows(
      {{0.9, 0.8, 0.7}, {0.6, 0.5, 0.4}, {0.3, 0.2, 0.1}}, &data);
  NC_CHECK(s.ok());
  return data;
}

EngineView MakeView(const SourceSet& sources, const ScoringFunction& f) {
  EngineView view;
  view.sources = &sources;
  view.scoring = &f;
  view.k = 1;
  view.target = kUnseenObject;
  view.target_state = nullptr;
  return view;
}

TEST(SRGConfigTest, DefaultIsValid) {
  const SRGConfig config = SRGConfig::Default(3);
  EXPECT_TRUE(config.Validate(3).ok());
  EXPECT_EQ(config.depths, (std::vector<double>{0.5, 0.5, 0.5}));
  EXPECT_EQ(config.schedule, (std::vector<PredicateId>{0, 1, 2}));
}

TEST(SRGConfigTest, ValidateRejectsBadDepths) {
  SRGConfig config = SRGConfig::Default(2);
  config.depths = {0.5};
  EXPECT_FALSE(config.Validate(2).ok());
  config.depths = {0.5, 1.5};
  EXPECT_FALSE(config.Validate(2).ok());
  config.depths = {0.5, -0.1};
  EXPECT_FALSE(config.Validate(2).ok());
}

TEST(SRGConfigTest, ValidateRejectsNonPermutationSchedule) {
  SRGConfig config = SRGConfig::Default(2);
  config.schedule = {0, 0};
  EXPECT_FALSE(config.Validate(2).ok());
  config.schedule = {0, 2};
  EXPECT_FALSE(config.Validate(2).ok());
  config.schedule = {0};
  EXPECT_FALSE(config.Validate(2).ok());
}

TEST(SRGConfigTest, ToStringReadable) {
  SRGConfig config;
  config.depths = {0.85, 0.83};
  config.schedule = {1, 0};
  EXPECT_EQ(config.ToString(), "H=(0.85,0.83) sched=(1,0)");
}

TEST(SRGPolicyTest, PrefersQualifyingSortedAccess) {
  const Dataset data = SmallData();
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  MinFunction fmin(3);
  SRGConfig config = SRGConfig::Default(3);  // All depths 0.5; l_i = 1.
  SRGPolicy policy(config);
  policy.Reset(sources);

  const std::vector<Access> alts{Access::Sorted(0), Access::Sorted(2),
                                 Access::Random(1, 0)};
  const Access picked = policy.Select(alts, MakeView(sources, fmin));
  EXPECT_EQ(picked.type, AccessType::kSorted);
}

TEST(SRGPolicyTest, RoundRobinAmongQualifyingStreams) {
  const Dataset data = SmallData();
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  MinFunction fmin(3);
  SRGPolicy policy(SRGConfig::Default(3));
  policy.Reset(sources);
  const EngineView view = MakeView(sources, fmin);

  const std::vector<Access> alts{Access::Sorted(0), Access::Sorted(1),
                                 Access::Sorted(2)};
  EXPECT_EQ(policy.Select(alts, view).predicate, 0u);
  EXPECT_EQ(policy.Select(alts, view).predicate, 1u);
  EXPECT_EQ(policy.Select(alts, view).predicate, 2u);
  EXPECT_EQ(policy.Select(alts, view).predicate, 0u);
}

TEST(SRGPolicyTest, DepthReachedSwitchesToRandom) {
  const Dataset data = SmallData();
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  MinFunction fmin(3);
  SRGConfig config;
  config.depths = {1.0, 1.0, 1.0};  // No stream is ever attractive.
  config.schedule = {2, 0, 1};
  SRGPolicy policy(config);
  policy.Reset(sources);

  const std::vector<Access> alts{Access::Sorted(0), Access::Random(0, 4),
                                 Access::Random(2, 4)};
  const Access picked = policy.Select(alts, MakeView(sources, fmin));
  EXPECT_EQ(picked.type, AccessType::kRandom);
  // Schedule order: p2 before p0.
  EXPECT_EQ(picked.predicate, 2u);
}

TEST(SRGPolicyTest, ScheduleOrderRespected) {
  const Dataset data = SmallData();
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  MinFunction fmin(3);
  SRGConfig config;
  config.depths = {1.0, 1.0, 1.0};
  config.schedule = {1, 2, 0};
  SRGPolicy policy(config);
  policy.Reset(sources);

  const std::vector<Access> alts{Access::Random(0, 7), Access::Random(2, 7)};
  // p1 is not offered; the first offered predicate in schedule order is p2.
  EXPECT_EQ(policy.Select(alts, MakeView(sources, fmin)).predicate, 2u);
}

TEST(SRGPolicyTest, FallsBackToSortedWhenNoRandomOffered) {
  const Dataset data = SmallData();
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, kImpossibleCost));
  MinFunction fmin(3);
  SRGConfig config;
  config.depths = {1.0, 1.0, 1.0};  // Depths exhausted...
  config.schedule = {0, 1, 2};
  SRGPolicy policy(config);
  policy.Reset(sources);

  // ...but the only offered accesses are sorted: progress must continue.
  const std::vector<Access> alts{Access::Sorted(1)};
  const Access picked = policy.Select(alts, MakeView(sources, fmin));
  EXPECT_EQ(picked.type, AccessType::kSorted);
  EXPECT_EQ(picked.predicate, 1u);
}

TEST(SRGPolicyTest, QualificationTracksLastSeen) {
  const Dataset data = SmallData();
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  MinFunction fmin(3);
  SRGConfig config;
  config.depths = {0.7, 1.0, 1.0};
  config.schedule = {0, 1, 2};
  SRGPolicy policy(config);
  policy.Reset(sources);
  const EngineView view = MakeView(sources, fmin);
  const std::vector<Access> alts{Access::Sorted(0), Access::Random(0, 1)};

  // l_0 = 1.0 > 0.7: sorted attractive.
  EXPECT_EQ(policy.Select(alts, view).type, AccessType::kSorted);
  ReadSorted(&sources, 0);  // Returns 0.9: still above.
  EXPECT_EQ(policy.Select(alts, view).type, AccessType::kSorted);
  ReadSorted(&sources, 0);  // Returns 0.6: now below the depth.
  EXPECT_EQ(policy.Select(alts, view).type, AccessType::kRandom);
}

TEST(SRGPolicyTest, SetConfigSwapsParameters) {
  const Dataset data = SmallData();
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  MinFunction fmin(3);
  SRGPolicy policy(SRGConfig::Default(3));
  policy.Reset(sources);

  SRGConfig focused;
  focused.depths = {1.0, 1.0, 1.0};
  focused.schedule = {2, 1, 0};
  policy.set_config(focused);
  EXPECT_EQ(policy.config().depths[0], 1.0);

  const std::vector<Access> alts{Access::Sorted(0), Access::Random(1, 3)};
  // With depths at 1.0 nothing qualifies: random per the new schedule.
  EXPECT_EQ(policy.Select(alts, MakeView(sources, fmin)).type,
            AccessType::kRandom);
}

}  // namespace
}  // namespace nc
