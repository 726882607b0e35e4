// Query budgets (access/budget.h): every engine and every baseline must
// stop within one access's worst case of the cap and return a *certified*
// anytime answer - per-object [lower, upper] intervals containing the
// true score and an epsilon that provably upper-bounds the rank error
// against brute-force ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "access/budget.h"
#include "access/source.h"
#include "baselines/registry.h"
#include "core/engine.h"
#include "core/parallel_executor.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

constexpr double kTol = 1e-9;

Dataset MakeData(uint64_t seed, size_t n = 160, size_t m = 3) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

TEST(QueryBudgetTest, ValidateRejectsMalformedBudgets) {
  QueryBudget negative;
  negative.max_cost = -1.0;
  EXPECT_EQ(negative.Validate(3).code(), StatusCode::kInvalidArgument);

  QueryBudget nan;
  nan.deadline = std::nan("");
  EXPECT_EQ(nan.Validate(3).code(), StatusCode::kInvalidArgument);

  QueryBudget short_quota;
  short_quota.predicate_quota = {5, 5};
  EXPECT_EQ(short_quota.Validate(3).code(), StatusCode::kInvalidArgument);

  QueryBudget ok;
  ok.max_cost = 10.0;
  ok.predicate_quota = {5, 0, 5};
  EXPECT_TRUE(ok.Validate(3).ok());

  const Dataset data = MakeData(1);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  EXPECT_EQ(sources.set_budget(negative).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(sources.set_budget(ok).ok());
}

// The tightness contract for every baseline: with uniform unit costs the
// accrued cost may overshoot the cap by at most one access, and a cap too
// small to finish yields a kCostBudget certificate that is sound against
// ground truth. The rigid loops learn of the cap from the sources'
// refusal; MPro and Upper run NCEngine, which settles at its loop-top
// budget test before the sources refuse anything.
TEST(QueryBudgetTest, CostCapHoldsForEveryBaseline) {
  const Dataset data = MakeData(21);
  AverageFunction avg(3);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  for (const AlgorithmInfo& info : AllBaselines()) {
    ASSERT_TRUE(info.applicable(cost)) << info.name;
    const bool on_engine = info.name == "MPro" || info.name == "Upper";
    for (const double cap : {5.0, 25.0, 80.0}) {
      SourceSet sources(&data, cost);
      QueryBudget budget;
      budget.max_cost = cap;
      ASSERT_TRUE(sources.set_budget(budget).ok());
      TopKResult result;
      const Status status = info.run(&sources, avg, 5, &result);
      ASSERT_TRUE(status.ok()) << info.name << " cap " << cap << ": "
                               << status;
      EXPECT_LE(sources.accrued_cost(), cap + 1.0 + kTol)
          << info.name << " cap " << cap;
      if (result.certificate.has_value()) {
        EXPECT_EQ(result.certificate->reason, TerminationReason::kCostBudget)
            << info.name;
        if (on_engine) {
          EXPECT_EQ(sources.stats().budget_refusals, 0u) << info.name;
        } else {
          EXPECT_GE(sources.stats().budget_refusals, 1u) << info.name;
        }
      }
      EXPECT_EQ(CheckAnswer(data, avg, 5, result, info.exact_scores), "")
          << info.name << " cap " << cap;
      if (cap == 5.0) {
        // k = 5 cannot settle within 5 unit accesses for any of them.
        EXPECT_TRUE(result.certificate.has_value()) << info.name;
      }
    }
  }
}

TEST(QueryBudgetTest, CostCapHoldsForNCEngine) {
  const Dataset data = MakeData(22);
  AverageFunction avg(3);
  for (const double cap : {4.0, 30.0, 1e6}) {
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
    QueryBudget budget;
    budget.max_cost = cap;
    ASSERT_TRUE(sources.set_budget(budget).ok());
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 5;
    NCEngine engine(&sources, &avg, &policy, options);
    TopKResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_LE(sources.accrued_cost(), cap + 1.0 + kTol) << "cap " << cap;
    if (engine.last_run_truncated()) {
      ASSERT_TRUE(result.certificate.has_value());
      EXPECT_EQ(result.certificate->reason, TerminationReason::kCostBudget);
    } else {
      // Cap never reached: the exact answer, no certificate.
      EXPECT_FALSE(result.certificate.has_value());
    }
    EXPECT_EQ(CheckAnswer(data, avg, 5, result), "") << "cap " << cap;
  }
  // cap = 4 cannot have completed a top-5 over 160 objects.
  SourceSet tight(&data, CostModel::Uniform(3, 1.0, 1.0));
  QueryBudget budget;
  budget.max_cost = 4.0;
  ASSERT_TRUE(tight.set_budget(budget).ok());
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 5;
  NCEngine engine(&tight, &avg, &policy, options);
  TopKResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_TRUE(result.certificate.has_value());
}

// The deadline clock is accrued cost plus simulated penalties; with no
// faults it coincides with the cost clock, so the same tightness bound
// applies, under the kDeadline reason.
TEST(QueryBudgetTest, DeadlineTruncatesWithCertificate) {
  const Dataset data = MakeData(23);
  AverageFunction avg(3);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  QueryBudget budget;
  budget.deadline = 6.0;
  ASSERT_TRUE(sources.set_budget(budget).ok());
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 4;
  NCEngine engine(&sources, &avg, &policy, options);
  TopKResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_LE(sources.elapsed_time(), budget.deadline + 1.0 + kTol);
  ASSERT_TRUE(result.certificate.has_value());
  EXPECT_EQ(result.certificate->reason, TerminationReason::kDeadline);
  EXPECT_EQ(CheckAnswer(data, avg, 4, result), "");
}

// Per-predicate quotas: the NC engine steers around a quota-spent
// predicate (necessary choices simply exclude it) and the quota is never
// overshot by even one access.
TEST(QueryBudgetTest, QuotaIsNeverOvershot) {
  const Dataset data = MakeData(24);
  AverageFunction avg(3);
  const std::vector<size_t> quota = {6, 0, 0};
  {
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
    QueryBudget budget;
    budget.predicate_quota = quota;
    ASSERT_TRUE(sources.set_budget(budget).ok());
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 3;
    NCEngine engine(&sources, &avg, &policy, options);
    TopKResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    const AccessStats& stats = sources.stats();
    EXPECT_LE(stats.sorted_count[0] + stats.random_count[0], quota[0]);
    if (result.certificate.has_value()) {
      EXPECT_EQ(result.certificate->reason, TerminationReason::kQuota);
    }
    EXPECT_EQ(CheckAnswer(data, avg, 3, result), "");
  }
  // The rigid published loops settle the run with a kQuota certificate at
  // the first barred access; MPro and Upper steer around the spent
  // predicate as the engine does. Neither overshoots.
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  for (const AlgorithmInfo& info : AllBaselines()) {
    SourceSet sources(&data, cost);
    QueryBudget budget;
    budget.predicate_quota = quota;
    ASSERT_TRUE(sources.set_budget(budget).ok());
    TopKResult result;
    ASSERT_TRUE(info.run(&sources, avg, 5, &result).ok()) << info.name;
    const AccessStats& stats = sources.stats();
    EXPECT_LE(stats.sorted_count[0] + stats.random_count[0], quota[0])
        << info.name;
    if (result.certificate.has_value()) {
      EXPECT_EQ(result.certificate->reason, TerminationReason::kQuota)
          << info.name;
    }
    EXPECT_EQ(CheckAnswer(data, avg, 5, result, info.exact_scores), "")
        << info.name;
  }
}

TEST(QueryBudgetTest, CostCapHoldsForParallelExecutor) {
  const Dataset data = MakeData(25);
  AverageFunction avg(3);
  for (const double cap : {8.0, 40.0}) {
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
    QueryBudget budget;
    budget.max_cost = cap;
    ASSERT_TRUE(sources.set_budget(budget).ok());
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 5;
    options.concurrency = 3;
    ParallelResult result;
    ASSERT_TRUE(RunParallelNC(&sources, avg, &policy, options, &result).ok());
    EXPECT_LE(sources.accrued_cost(), cap + 1.0 + kTol) << "cap " << cap;
    EXPECT_LE(result.total_cost, cap + 1.0 + kTol) << "cap " << cap;
    if (result.topk.certificate.has_value()) {
      EXPECT_FALSE(result.exact);
      EXPECT_EQ(result.topk.certificate->reason,
                TerminationReason::kCostBudget);
    }
    EXPECT_EQ(CheckAnswer(data, avg, 5, result.topk), "") << "cap " << cap;
  }
  // cap = 8 cannot settle a top-5; the run must have truncated.
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  QueryBudget budget;
  budget.max_cost = 8.0;
  ASSERT_TRUE(sources.set_budget(budget).ok());
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 3;
  ParallelResult result;
  ASSERT_TRUE(RunParallelNC(&sources, avg, &policy, options, &result).ok());
  EXPECT_TRUE(result.topk.certificate.has_value());
}

// A run that completes under its budget is bit-for-bit the unbudgeted
// run: the budget layer must be invisible until it bars something.
TEST(QueryBudgetTest, GenerousBudgetChangesNothing) {
  const Dataset data = MakeData(26);
  AverageFunction avg(3);
  TopKResult unbudgeted;
  double unbudgeted_cost = 0.0;
  {
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 4;
    ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &unbudgeted).ok());
    unbudgeted_cost = sources.accrued_cost();
  }
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  QueryBudget budget;
  budget.max_cost = 1e9;
  budget.deadline = 1e9;
  budget.predicate_quota = {100000, 100000, 100000};
  ASSERT_TRUE(sources.set_budget(budget).ok());
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 4;
  TopKResult budgeted;
  ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, &budgeted).ok());
  EXPECT_FALSE(budgeted.certificate.has_value());
  EXPECT_EQ(budgeted.entries, unbudgeted.entries);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), unbudgeted_cost);
}

// The oracle every check above stands on (CheckAnswer): the brute-force
// answer, a lower-bounding set-only answer and sound certificates keep
// every promise, and each broken promise is reported.
TEST(CheckAnswerTest, ReportsEveryBrokenPromise) {
  const Dataset data = MakeData(27, 40, 2);
  AverageFunction avg(2);
  constexpr size_t kK = 4;
  const TopKResult exact = BruteForceTopK(data, avg, kK);
  const std::vector<TopKEntry> best =
      BruteForceTopK(data, avg, kK + 2).entries;
  const auto edited = [](TopKResult answer, const auto& edit) {
    edit(&answer);
    return answer;
  };
  // The exact answer certified by degenerate intervals, with the
  // (k+1)-th score as its ceiling.
  TopKResult certified = exact;
  certified.certificate = AnytimeCertificate{
      TerminationReason::kCostBudget, 0.0, best[kK].score, {}};
  for (const TopKEntry& e : exact.entries) {
    certified.certificate->intervals.push_back({e.score, e.score});
  }
  // The (k+1)-th object in place of the k-th: sound only because epsilon
  // covers the excluded k-th.
  const TopKResult swapped = edited(certified, [&](TopKResult* a) {
    a->entries.back() = best[kK];
    a->certificate->intervals.back() = {best[kK].score, best[kK].score};
    a->certificate->excluded_ceiling = best[kK - 1].score;
    a->certificate->epsilon = best[kK - 1].score / best[kK].score - 1.0;
  });
  for (const TopKResult& sound : {exact, certified, swapped}) {
    EXPECT_EQ(CheckAnswer(data, avg, kK, sound), "") << sound.ToString();
  }
  const TopKResult lower_bounds = edited(exact, [](TopKResult* a) {
    for (TopKEntry& e : a->entries) e.score /= 2.0;
  });
  EXPECT_EQ(CheckAnswer(data, avg, kK, lower_bounds, /*exact_scores=*/false),
            "");

  const struct {
    const char* promise;
    TopKResult answer;
    bool exact_scores;
  } broken[] = {
      {"a wrong score",
       edited(exact, [](TopKResult* a) { a->entries[1].score += 0.25; }),
       true},
      {"two ranks swapped",
       edited(exact,
              [](TopKResult* a) { std::swap(a->entries[0], a->entries[1]); }),
       true},
      {"an object outside the top-k",
       edited(exact, [&](TopKResult* a) { a->entries.back() = best[kK]; }),
       true},
      {"an interval that misses the true score",
       edited(certified,
              [](TopKResult* a) {
                a->certificate->intervals[2].lower += 0.125;
                a->certificate->intervals[2].upper += 0.125;
              }),
       true},
      {"a ceiling below an excluded object",
       edited(certified,
              [&](TopKResult* a) {
                a->certificate->excluded_ceiling = best[kK + 1].score;
              }),
       true},
      {"an epsilon too small",
       edited(swapped, [](TopKResult* a) { a->certificate->epsilon = 0.0; }),
       true},
      {"a set-only answer with an outsider",
       edited(lower_bounds,
              [&](TopKResult* a) {
                a->entries.back() = TopKEntry{best[kK].object, 0.0};
              }),
       false},
  };
  for (const auto& c : broken) {
    EXPECT_NE(CheckAnswer(data, avg, kK, c.answer, c.exact_scores), "")
        << c.promise;
  }
}

}  // namespace
}  // namespace nc
