#include "core/parallel_executor.h"

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"

namespace nc {
namespace {

Dataset MakeData(uint64_t seed, size_t n = 500, size_t m = 2) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

ParallelResult RunWithConcurrency(const Dataset& data,
                                  const ScoringFunction& scoring, size_t k,
                                  size_t concurrency,
                                  const CostModel& cost) {
  SourceSet sources(&data, cost);
  SRGPolicy policy(SRGConfig::Default(data.num_predicates()));
  EngineOptions options;
  options.k = k;
  options.concurrency = concurrency;
  ParallelResult result;
  const Status status =
      RunParallelNC(&sources, scoring, &policy, options, &result);
  NC_CHECK(status.ok());
  return result;
}

TEST(ParallelTest, ResultMatchesBruteForceAtAnyConcurrency) {
  const Dataset data = MakeData(1);
  AverageFunction avg(2);
  const TopKResult expected = BruteForceTopK(data, avg, 5);
  for (const size_t c : {1ul, 2ul, 3ul, 8ul, 32ul}) {
    const ParallelResult result = RunWithConcurrency(
        data, avg, 5, c, CostModel::Uniform(2, 1.0, 1.0));
    EXPECT_EQ(result.topk, expected) << "concurrency=" << c;
  }
}

TEST(ParallelTest, SequentialDegenerateCaseElapsedEqualsCost) {
  // With one slot and latency == unit cost, the makespan is the total
  // cost and nothing is wasted.
  const Dataset data = MakeData(2);
  MinFunction fmin(2);
  const ParallelResult result =
      RunWithConcurrency(data, fmin, 5, 1, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(result.elapsed_time, result.total_cost);
  EXPECT_EQ(result.wasted_accesses, 0u);
}

TEST(ParallelTest, ElapsedTimeDropsWithConcurrency) {
  const Dataset data = MakeData(3, 2000, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  const ParallelResult c1 = RunWithConcurrency(data, avg, 10, 1, cost);
  const ParallelResult c4 = RunWithConcurrency(data, avg, 10, 4, cost);
  const ParallelResult c16 = RunWithConcurrency(data, avg, 10, 16, cost);
  EXPECT_LT(c4.elapsed_time, c1.elapsed_time);
  EXPECT_LT(c16.elapsed_time, c4.elapsed_time);
  // Meaningful speedup: at least 2x with 4 slots on this workload.
  EXPECT_LT(c4.elapsed_time, c1.elapsed_time / 2.0);
}

TEST(ParallelTest, TotalCostStaysNearSequential) {
  // Concurrency may waste some accesses but must not blow up total cost.
  const Dataset data = MakeData(4, 2000, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  const ParallelResult c1 = RunWithConcurrency(data, avg, 10, 1, cost);
  const ParallelResult c16 = RunWithConcurrency(data, avg, 10, 16, cost);
  EXPECT_LE(c16.total_cost, c1.total_cost * 1.5);
  EXPECT_GE(c16.total_cost, c1.total_cost);
}

TEST(ParallelTest, WastedAccessesBoundedByConcurrency) {
  const Dataset data = MakeData(5, 1000, 2);
  AverageFunction avg(2);
  for (const size_t c : {2ul, 8ul, 16ul}) {
    const ParallelResult result = RunWithConcurrency(
        data, avg, 5, c, CostModel::Uniform(2, 1.0, 1.0));
    EXPECT_LT(result.wasted_accesses, c) << "concurrency=" << c;
  }
}

TEST(ParallelTest, AccountingConsistent) {
  const Dataset data = MakeData(6, 300, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 2.0, 3.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 4;
  ParallelResult result;
  ASSERT_TRUE(RunParallelNC(&sources, avg, &policy, options, &result).ok());
  EXPECT_DOUBLE_EQ(result.total_cost, sources.accrued_cost());
  EXPECT_EQ(result.accesses_issued, sources.stats().TotalSorted() +
                                        sources.stats().TotalRandom());
}

TEST(ParallelTest, LatencyJitterStillExact) {
  const Dataset data = MakeData(7, 400, 2);
  MinFunction fmin(2);
  const TopKResult expected = BruteForceTopK(data, fmin, 5);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_latency_jitter(0.8, /*seed=*/99);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 8;
  ParallelResult result;
  ASSERT_TRUE(RunParallelNC(&sources, fmin, &policy, options, &result).ok());
  EXPECT_EQ(result.topk, expected);
}

TEST(ParallelTest, ProbeOnlyScenario) {
  const Dataset data = MakeData(8, 300, 2);
  MinFunction fmin(2);
  const TopKResult expected = BruteForceTopK(data, fmin, 5);
  const ParallelResult result = RunWithConcurrency(
      data, fmin, 5, 8, CostModel::Uniform(2, kImpossibleCost, 1.0));
  EXPECT_EQ(result.topk, expected);
}

TEST(ParallelTest, NoRandomScenario) {
  const Dataset data = MakeData(9, 300, 2);
  AverageFunction avg(2);
  const TopKResult expected = BruteForceTopK(data, avg, 5);
  const ParallelResult result = RunWithConcurrency(
      data, avg, 5, 8, CostModel::Uniform(2, 1.0, kImpossibleCost));
  EXPECT_EQ(result.topk, expected);
}

TEST(ParallelTest, SpeculationBuysSpeedupOnFocusedPlans) {
  // A focused min-plan's read -> probe chain is inherently sequential
  // without speculation; one speculative read per epoch unlocks
  // pipelining at a bounded cost premium.
  const Dataset data = MakeData(20, 2000, 2);
  MinFunction fmin(2);
  SRGConfig focused;
  focused.depths = {1.0, 0.2};
  focused.schedule = {0, 1};

  const auto run = [&](size_t speculation) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    SRGPolicy policy(focused);
    EngineOptions options;
    options.k = 5;
    options.concurrency = 8;
    options.max_speculation = speculation;
    ParallelResult result;
    NC_CHECK(RunParallelNC(&sources, fmin, &policy, options, &result).ok());
    EXPECT_EQ(result.topk, BruteForceTopK(data, fmin, 5));
    return result;
  };

  const ParallelResult frugal = run(0);
  const ParallelResult speculative = run(1);
  EXPECT_LT(speculative.elapsed_time, frugal.elapsed_time);
  EXPECT_GE(speculative.total_cost, frugal.total_cost);
  // Bounded waste: within 2x of the frugal execution.
  EXPECT_LE(speculative.total_cost, frugal.total_cost * 2.0);
}

TEST(ParallelTest, NoSpeculationMatchesSequentialCostOnFocusedPlans) {
  const Dataset data = MakeData(21, 2000, 2);
  MinFunction fmin(2);
  SRGConfig focused;
  focused.depths = {1.0, 0.2};
  focused.schedule = {0, 1};

  SourceSet seq_sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy seq_policy(focused);
  EngineOptions seq_options;
  seq_options.k = 5;
  TopKResult seq_result;
  ASSERT_TRUE(
      RunNC(&seq_sources, &fmin, &seq_policy, seq_options, &seq_result)
          .ok());

  SourceSet par_sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy par_policy(focused);
  EngineOptions options;
  options.k = 5;
  options.concurrency = 8;
  options.max_speculation = 0;
  ParallelResult par_result;
  ASSERT_TRUE(
      RunParallelNC(&par_sources, fmin, &par_policy, options, &par_result)
          .ok());
  EXPECT_EQ(par_result.topk, seq_result);
  // Without speculation, the focused plan's cost stays at the sequential
  // minimum (within one epoch's slack).
  EXPECT_LE(par_result.total_cost, seq_sources.accrued_cost() * 1.05);
}

TEST(ParallelTest, RejectsZeroConcurrency) {
  const Dataset data = MakeData(10, 50, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 0;
  ParallelResult result;
  EXPECT_EQ(RunParallelNC(&sources, avg, &policy, options, &result).code(),
            StatusCode::kInvalidArgument);
}

TEST(ParallelTest, DeterministicAcrossRuns) {
  const Dataset data = MakeData(11, 400, 2);
  AverageFunction avg(2);
  const ParallelResult first = RunWithConcurrency(
      data, avg, 5, 8, CostModel::Uniform(2, 1.0, 1.0));
  const ParallelResult second = RunWithConcurrency(
      data, avg, 5, 8, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_EQ(first.topk, second.topk);
  EXPECT_DOUBLE_EQ(first.elapsed_time, second.elapsed_time);
  EXPECT_EQ(first.accesses_issued, second.accesses_issued);
}

// The window persists across Extend: results still in flight when the
// first answer settled apply in the extend phase, and the widened answer
// is exact.
TEST(ParallelTest, ExtendWidensAWindowedAnswer) {
  const Dataset data = MakeData(30, 1000, 2);
  AverageFunction avg(2);
  MinFunction fmin(2);
  for (const ScoringFunction* scoring :
       {static_cast<const ScoringFunction*>(&avg),
        static_cast<const ScoringFunction*>(&fmin)}) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    sources.set_latency_jitter(1.0, /*seed=*/5);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 5;
    options.concurrency = 4;
    NCEngine engine(&sources, scoring, &policy, options);
    TopKResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_EQ(result, BruteForceTopK(data, *scoring, 5));
    EXPECT_GT(engine.in_flight(), 0u);
    ASSERT_TRUE(engine.Extend(10, &result).ok());
    EXPECT_EQ(result, BruteForceTopK(data, *scoring, 10));
  }
}

// Theta-halting on the visible state: the returned scores are exact (each
// interval is degenerate at its score) and the certificate is sound with
// an epsilon of at most theta - 1, so theta times the weakest returned
// score dominates every excluded object.
TEST(ParallelTest, ThetaHaltsAWindowedRun) {
  const Dataset data = MakeData(31, 2000, 2);
  MinFunction fmin(2);
  constexpr double kTheta = 1.2;
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_latency_jitter(1.0, /*seed=*/6);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 10;
  options.concurrency = 4;
  options.approximation_theta = kTheta;
  ParallelResult result;
  ASSERT_TRUE(RunParallelNC(&sources, fmin, &policy, options, &result).ok());
  EXPECT_FALSE(result.exact);
  ASSERT_TRUE(result.topk.certificate.has_value());
  EXPECT_EQ(result.topk.certificate->reason, TerminationReason::kTheta);
  ASSERT_EQ(result.topk.entries.size(), 10u);
  for (size_t r = 0; r < 10; ++r) {
    const Score score = result.topk.entries[r].score;
    EXPECT_EQ(result.topk.certificate->intervals.at(r),
              (ScoreInterval{score, score}))
        << "rank " << r;
  }
  EXPECT_LE(result.topk.certificate->epsilon, kTheta - 1.0);
  EXPECT_EQ(CheckAnswer(data, fmin, 10, result.topk), "");
}

// An access cap with best_effort certifies the windowed answer soundly
// (CheckAnswer). Without best_effort the cap is an error.
TEST(ParallelTest, AccessCapCertifiesAWindowedAnswer) {
  const Dataset data = MakeData(32, 1000, 2);
  AverageFunction avg(2);
  const auto run = [&](bool best_effort, ParallelResult* result) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    sources.set_latency_jitter(1.0, /*seed=*/7);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 5;
    options.concurrency = 4;
    options.max_accesses = 40;
    options.best_effort = best_effort;
    return RunParallelNC(&sources, avg, &policy, options, result);
  };
  ParallelResult result;
  EXPECT_EQ(run(/*best_effort=*/false, &result).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(run(/*best_effort=*/true, &result).ok());
  EXPECT_FALSE(result.exact);
  EXPECT_EQ(result.accesses_issued, 41u);
  ASSERT_TRUE(result.topk.certificate.has_value());
  EXPECT_EQ(result.topk.certificate->reason, TerminationReason::kAccessCap);
  EXPECT_EQ(CheckAnswer(data, avg, 5, result.topk), "");
}

// A refusal ends the epoch: once the access layer refuses an issue, the
// window stops issuing and settles, so the refusal is counted once
// however many speculative reads the epoch had left.
TEST(ParallelTest, RefusalEndsTheEpoch) {
  const Dataset data = MakeData(34, 500, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  QueryBudget budget;
  budget.max_cost = 2.0;
  ASSERT_TRUE(sources.set_budget(budget).ok());
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 10;
  options.concurrency = 8;
  options.max_speculation = 4;
  ParallelResult result;
  ASSERT_TRUE(RunParallelNC(&sources, avg, &policy, options, &result).ok());
  EXPECT_EQ(result.accesses_issued, 2u);
  EXPECT_EQ(sources.stats().budget_refusals, 1u);
  ASSERT_TRUE(result.topk.certificate.has_value());
  EXPECT_EQ(result.topk.certificate->reason, TerminationReason::kCostBudget);
}

// Results in flight have no place in a checkpoint: taking one mid-window
// is refused, never written lossily.
TEST(ParallelDeathTest, CheckpointWithAccessesInFlightIsRefused) {
  const Dataset data = MakeData(33, 300, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 4;
  NCEngine* engine_ptr = nullptr;
  options.access_callback = [&engine_ptr](size_t count) {
    if (count == 3) engine_ptr->Checkpoint();
  };
  NCEngine engine(&sources, &avg, &policy, options);
  engine_ptr = &engine;
  TopKResult result;
  EXPECT_DEATH((void)engine.Run(&result), "in_flight");
}

}  // namespace
}  // namespace nc
