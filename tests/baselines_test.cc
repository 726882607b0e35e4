// Correctness and scenario-requirement tests for every baseline algorithm
// in Figure 2's matrix, plus cross-algorithm sanity relations.

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/ca.h"
#include "baselines/fa.h"
#include "baselines/mpro.h"
#include "baselines/nra.h"
#include "baselines/quick_combine.h"
#include "baselines/registry.h"
#include "baselines/stream_combine.h"
#include "baselines/ta.h"
#include "baselines/taz.h"
#include "baselines/upper.h"
#include "core/reference.h"
#include "data/generator.h"

namespace nc {
namespace {

Dataset MakeData(uint64_t seed, size_t n = 150, size_t m = 2,
                 ScoreDistribution dist = ScoreDistribution::kUniform) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.distribution = dist;
  g.seed = seed;
  return GenerateDataset(g);
}

std::set<ObjectId> Objects(const TopKResult& result) {
  std::set<ObjectId> out;
  for (const TopKEntry& e : result.entries) out.insert(e.object);
  return out;
}

// ---------------------------------------------------------------------
// Exact-score algorithms: the full result (objects and scores, in order)
// must match brute force.

struct ExactCase {
  const char* name;
  size_t k;
  ScoringKind kind;
  uint64_t seed;
};

class ExactBaselineTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExactBaselineTest, MatchesBruteForce) {
  const ExactCase& c = GetParam();
  const Dataset data = MakeData(c.seed, 150, 3);
  const auto scoring = MakeScoringFunction(c.kind, 3);
  const TopKResult expected = BruteForceTopK(data, *scoring, c.k);

  const AlgorithmInfo* info = FindBaseline(c.name);
  ASSERT_NE(info, nullptr);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  ASSERT_TRUE(info->applicable(sources.cost_model()));
  TopKResult result;
  const Status status = info->run(&sources, *scoring, c.k, &result);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(result, expected);
  EXPECT_EQ(sources.stats().duplicate_random_count, 0u);
}

std::vector<ExactCase> ExactCases() {
  std::vector<ExactCase> cases;
  for (const char* name : {"FA", "TA", "TAz", "CA", "Quick-Combine",
                           "NRA-exact", "MPro", "Upper"}) {
    for (const ScoringKind kind : {ScoringKind::kMin, ScoringKind::kAverage}) {
      for (const size_t k : {1ul, 5ul, 20ul}) {
        for (const uint64_t seed : {11ull, 12ull}) {
          cases.push_back(ExactCase{name, k, kind, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactBaselineTest, ::testing::ValuesIn(ExactCases()),
    [](const ::testing::TestParamInfo<ExactCase>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_" +
             MakeScoringFunction(info.param.kind, 2)->name() + "_k" +
             std::to_string(info.param.k) + "_s" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------
// Set-only algorithms: the returned object set must be the true top-k set
// (scores are lower bounds).

class SetOnlyBaselineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SetOnlyBaselineTest, ReturnsTrueTopKSet) {
  const Dataset data = MakeData(21, 200, 2);
  AverageFunction avg(2);
  const TopKResult expected = BruteForceTopK(data, avg, 10);
  const AlgorithmInfo* info = FindBaseline(GetParam());
  ASSERT_NE(info, nullptr);
  SourceSet sources(&data,
                    CostModel::Uniform(2, 1.0, kImpossibleCost));
  TopKResult result;
  ASSERT_TRUE(info->run(&sources, avg, 10, &result).ok());
  EXPECT_EQ(Objects(result), Objects(expected));
  EXPECT_EQ(sources.stats().TotalRandom(), 0u);
  // Reported scores are lower bounds on the true scores.
  for (const TopKEntry& e : result.entries) {
    std::vector<Score> row{data.score(e.object, 0), data.score(e.object, 1)};
    EXPECT_LE(e.score, avg.Evaluate(row) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SetOnlyBaselineTest,
                         ::testing::Values("NRA", "Stream-Combine"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------
// Scenario requirements.

TEST(BaselineRequirementsTest, TARequiresRandomAccess) {
  const Dataset data = MakeData(31);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, kImpossibleCost));
  TopKResult result;
  EXPECT_EQ(RunTA(&sources, avg, 5, &result).code(),
            StatusCode::kUnsupported);
}

TEST(BaselineRequirementsTest, TARequiresSortedAccess) {
  const Dataset data = MakeData(32);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, kImpossibleCost, 1.0));
  TopKResult result;
  EXPECT_EQ(RunTA(&sources, avg, 5, &result).code(),
            StatusCode::kUnsupported);
}

TEST(BaselineRequirementsTest, NRARejectsMissingSortedAccess) {
  const Dataset data = MakeData(33);
  AverageFunction avg(2);
  SourceSet sources(&data,
                    CostModel({1.0, kImpossibleCost}, {1.0, 1.0}));
  TopKResult result;
  EXPECT_EQ(RunNRA(&sources, avg, 5, NRAMode::kSetOnly, &result).code(),
            StatusCode::kUnsupported);
}

TEST(BaselineRequirementsTest, MProRejectsMissingRandomAccess) {
  const Dataset data = MakeData(34);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel({1.0, 1.0}, {1.0, kImpossibleCost}));
  TopKResult result;
  EXPECT_EQ(RunMPro(&sources, avg, 5, {}, &result).code(),
            StatusCode::kUnsupported);
}

TEST(BaselineRequirementsTest, ZeroKRejectedEverywhere) {
  const Dataset data = MakeData(35);
  AverageFunction avg(2);
  for (const AlgorithmInfo& info : AllBaselines()) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    TopKResult result;
    EXPECT_EQ(info.run(&sources, avg, 0, &result).code(),
              StatusCode::kInvalidArgument)
        << info.name;
  }
}

// ---------------------------------------------------------------------
// Algorithm-specific behaviors.

TEST(TABehaviorTest, StopsBeforeDrainingStreams) {
  const Dataset data = MakeData(41, 2000, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunTA(&sources, avg, 5, &result).ok());
  EXPECT_LT(sources.stats().TotalSorted(), 2u * 2000u);
}

TEST(TABehaviorTest, NeverCheaperThanThresholdAllows) {
  // TA random-completes every seen object: random count is a multiple of
  // (m - 1) per distinct seen object at minimum... here simply check it
  // performed random accesses for every distinct object it saw.
  const Dataset data = MakeData(42, 300, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunTA(&sources, avg, 5, &result).ok());
  EXPECT_GT(sources.stats().TotalRandom(), 0u);
}

TEST(FABehaviorTest, ReadsAtLeastAsDeepAsTA) {
  const Dataset data = MakeData(43, 1000, 2);
  AverageFunction avg(2);
  SourceSet fa_sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SourceSet ta_sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult fa_result;
  TopKResult ta_result;
  ASSERT_TRUE(RunFA(&fa_sources, avg, 5, &fa_result).ok());
  ASSERT_TRUE(RunTA(&ta_sources, avg, 5, &ta_result).ok());
  EXPECT_EQ(fa_result, ta_result);
  // FA's stop rule (k objects seen in *all* lists) is weaker than TA's
  // threshold test, so FA reads at least as many sorted entries.
  EXPECT_GE(fa_sources.stats().TotalSorted(),
            ta_sources.stats().TotalSorted());
}

TEST(CABehaviorTest, ProbesLessThanTAWhenRandomIsExpensive) {
  const Dataset data = MakeData(44, 1000, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 50.0);
  SourceSet ca_sources(&data, cost);
  SourceSet ta_sources(&data, cost);
  TopKResult ca_result;
  TopKResult ta_result;
  ASSERT_TRUE(RunCA(&ca_sources, avg, 5, /*h=*/0, &ca_result).ok());
  ASSERT_TRUE(RunTA(&ta_sources, avg, 5, &ta_result).ok());
  EXPECT_EQ(ca_result, ta_result);
  EXPECT_LT(ca_sources.stats().TotalRandom(),
            ta_sources.stats().TotalRandom());
  EXPECT_LT(ca_sources.accrued_cost(), ta_sources.accrued_cost());
}

TEST(CABehaviorTest, ExplicitHRespected) {
  const Dataset data = MakeData(45, 300, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunCA(&sources, avg, 3, /*h=*/7, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 3));
}

TEST(MProBehaviorTest, CustomScheduleStillExact) {
  const Dataset data = MakeData(46, 200, 3);
  MinFunction fmin(3);
  SourceSet sources(&data, CostModel::Uniform(3, kImpossibleCost, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunMPro(&sources, fmin, 5, {2, 0, 1}, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, fmin, 5));
}

TEST(MProBehaviorTest, RejectsPartialSchedule) {
  const Dataset data = MakeData(47, 50, 3);
  MinFunction fmin(3);
  SourceSet sources(&data, CostModel::Uniform(3, kImpossibleCost, 1.0));
  TopKResult result;
  // Too short; p2 never probed (the run would spin on an object it can
  // never complete); a predicate the sources do not have.
  const std::vector<std::vector<PredicateId>> schedules = {
      {0, 1}, {0, 0, 1}, {0, 1, 7}};
  for (const std::vector<PredicateId>& schedule : schedules) {
    EXPECT_EQ(RunMPro(&sources, fmin, 5, schedule, &result).code(),
              StatusCode::kInvalidArgument)
        << ::testing::PrintToString(schedule);
  }
  EXPECT_EQ(sources.stats().TotalRandom(), 0u);
}

TEST(MProBehaviorTest, ProbesFewerThanExhaustive) {
  // MPro's whole point: lazy probing beats evaluating everything.
  const Dataset data = MakeData(48, 1000, 3);
  MinFunction fmin(3);
  SourceSet sources(&data, CostModel::Uniform(3, kImpossibleCost, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunMPro(&sources, fmin, 5, {}, &result).ok());
  EXPECT_LT(sources.stats().TotalRandom(), 3u * 1000u);
}

TEST(MProBehaviorTest, NarrowsTheSourcesToAProbeOnlyView) {
  // MPro never reads a stream, even where the scenario offers one: it
  // removes sorted access from the sources and probes the universe.
  const Dataset data = MakeData(55, 200, 3);
  AverageFunction avg(3);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunMPro(&sources, avg, 5, {}, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 5));
  for (PredicateId i = 0; i < 3; ++i) {
    EXPECT_FALSE(sources.has_sorted(i)) << "p" << i;
  }
  EXPECT_EQ(sources.stats().TotalSorted(), 0u);
}

TEST(UpperBehaviorTest, DiscoversViaSortedWhenAvailable) {
  const Dataset data = MakeData(49, 300, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunUpper(&sources, avg, 5, {}, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 5));
  EXPECT_GT(sources.stats().TotalSorted(), 0u);
}

TEST(UpperBehaviorTest, ExpectedScoresSteerProbes) {
  const Dataset data = MakeData(50, 300, 2);
  MinFunction fmin(2);
  SourceSet sources(&data, CostModel::Uniform(2, kImpossibleCost, 1.0));
  TopKResult result;
  // Deliberately skewed expectations still yield the exact answer.
  ASSERT_TRUE(RunUpper(&sources, fmin, 5, {0.9, 0.1}, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, fmin, 5));
}

TEST(UpperBehaviorTest, ProbesWhenEveryCeilingIsBelowItsExpectation) {
  // All-zero scores: once each list is read, every ceiling is 0, below the
  // default expectation 0.5, so every candidate probe has a negative
  // expected drop; Upper still probes the best of them.
  const Dataset data(12, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 0.25));
  TopKResult result;
  ASSERT_TRUE(RunUpper(&sources, avg, 3, {}, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 3));
  EXPECT_GT(sources.stats().TotalRandom(), 0u);
}

TEST(UpperBehaviorTest, RejectsExpectationsOutsideTheScoreRange) {
  const Dataset data = MakeData(52, 50, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 0.25));
  TopKResult result;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> expectations = {
      {5.0, 5.0}, {nan, 0.5}, {0.5, -0.1}};
  for (const std::vector<double>& expected : expectations) {
    EXPECT_EQ(RunUpper(&sources, avg, 3, expected, &result).code(),
              StatusCode::kInvalidArgument)
        << ::testing::PrintToString(expected);
  }
  EXPECT_EQ(sources.stats().TotalSorted(), 0u);
}

TEST(QuickCombineBehaviorTest, ZipfDataExactAndBounded) {
  const Dataset data = MakeData(51, 500, 2, ScoreDistribution::kZipf);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunQuickCombine(&sources, avg, 5, 5, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 5));
}

TEST(StreamCombineBehaviorTest, NoRandomAccessEver) {
  const Dataset data = MakeData(52, 300, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(RunStreamCombine(&sources, avg, 5, 5, &result).ok());
  EXPECT_EQ(sources.stats().TotalRandom(), 0u);
}

TEST(NRABehaviorTest, SetOnlyNeverCostsMoreThanExact) {
  const Dataset data = MakeData(53, 800, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, kImpossibleCost);
  SourceSet set_sources(&data, cost);
  SourceSet exact_sources(&data, cost);
  TopKResult set_result;
  TopKResult exact_result;
  ASSERT_TRUE(
      RunNRA(&set_sources, avg, 5, NRAMode::kSetOnly, &set_result).ok());
  ASSERT_TRUE(
      RunNRA(&exact_sources, avg, 5, NRAMode::kExactScores, &exact_result)
          .ok());
  EXPECT_LE(set_sources.stats().TotalSorted(),
            exact_sources.stats().TotalSorted());
  EXPECT_EQ(Objects(set_result), Objects(exact_result));
}

TEST(TAzBehaviorTest, HandlesMixedCapabilities) {
  // p0: sorted + random; p1: random-only. TA cannot run here; TAz can.
  const Dataset data = MakeData(60, 400, 2);
  AverageFunction avg(2);
  const CostModel cost({1.0, kImpossibleCost}, {1.0, 1.0});
  const AlgorithmInfo* taz = FindBaseline("TAz");
  ASSERT_NE(taz, nullptr);
  ASSERT_TRUE(taz->applicable(cost));
  const AlgorithmInfo* ta = FindBaseline("TA");
  EXPECT_FALSE(ta->applicable(cost));

  SourceSet sources(&data, cost);
  TopKResult result;
  ASSERT_TRUE(RunTAz(&sources, avg, 5, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 5));
  EXPECT_EQ(sources.stats().sorted_count[1], 0u);
}

TEST(TAzBehaviorTest, MatchesTAWhenAllStreamsExist) {
  const Dataset data = MakeData(61, 500, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  SourceSet taz_sources(&data, cost);
  SourceSet ta_sources(&data, cost);
  TopKResult taz_result;
  TopKResult ta_result;
  ASSERT_TRUE(RunTAz(&taz_sources, avg, 5, &taz_result).ok());
  ASSERT_TRUE(RunTA(&ta_sources, avg, 5, &ta_result).ok());
  EXPECT_EQ(taz_result, ta_result);
  EXPECT_DOUBLE_EQ(taz_sources.accrued_cost(), ta_sources.accrued_cost());
}

TEST(TAzBehaviorTest, RequiresSomeSortedAccess) {
  const Dataset data = MakeData(62, 50, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, kImpossibleCost, 1.0));
  TopKResult result;
  EXPECT_EQ(RunTAz(&sources, avg, 5, &result).code(),
            StatusCode::kUnsupported);
}

TEST(BaselineEdgeTest, KLargerThanDatabase) {
  const Dataset data = MakeData(54, 10, 2);
  AverageFunction avg(2);
  const TopKResult expected = BruteForceTopK(data, avg, 25);
  for (const char* name : {"FA", "TA", "CA", "NRA-exact", "MPro", "Upper",
                           "Quick-Combine"}) {
    const AlgorithmInfo* info = FindBaseline(name);
    ASSERT_NE(info, nullptr);
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    TopKResult result;
    ASSERT_TRUE(info->run(&sources, avg, 25, &result).ok()) << name;
    EXPECT_EQ(result, expected) << name;
  }
}

TEST(RegistryTest, LookupAndApplicability) {
  EXPECT_EQ(FindBaseline("nope"), nullptr);
  const AlgorithmInfo* ta = FindBaseline("TA");
  ASSERT_NE(ta, nullptr);
  EXPECT_TRUE(ta->applicable(CostModel::Uniform(2, 1.0, 1.0)));
  EXPECT_FALSE(ta->applicable(CostModel::Uniform(2, 1.0, kImpossibleCost)));
  const AlgorithmInfo* nra = FindBaseline("NRA");
  ASSERT_NE(nra, nullptr);
  EXPECT_TRUE(nra->applicable(CostModel::Uniform(2, 1.0, kImpossibleCost)));
  EXPECT_FALSE(nra->exact_scores);
  const AlgorithmInfo* mpro = FindBaseline("MPro");
  ASSERT_NE(mpro, nullptr);
  EXPECT_TRUE(mpro->applicable(CostModel::Uniform(2, kImpossibleCost, 1.0)));
  EXPECT_EQ(AllBaselines().size(), 10u);
}

}  // namespace
}  // namespace nc
