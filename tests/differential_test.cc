// Differential testing: every exact algorithm in the library - NC under
// several policies, TG, and all exact-score baselines - must produce an
// answer equivalent to the brute-force oracle's on the same workload,
// including under heavy ties (discrete score grids) and degenerate
// shapes. See ExpectExactAnswer for the exact contract; any divergence
// beyond tied-group membership is a bug in somebody's bound handling.

#include <string>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/parallel_executor.h"
#include "core/random_policy.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "core/tg.h"
#include "data/generator.h"
#include "obs/telemetry.h"
#include "replica/replica.h"

namespace nc {
namespace {

// Discrete score grid: draws from {0, .25, .5, .75, 1} force masses of
// ties at every level.
Dataset DiscreteData(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  Dataset data(n, m);
  for (ObjectId u = 0; u < n; ++u) {
    for (PredicateId i = 0; i < m; ++i) {
      data.SetScore(u, i, 0.25 * static_cast<double>(rng.UniformInt(5)));
    }
  }
  return data;
}


// Under heavy ties the "top-k set" is not unique: the virtual unseen
// object cannot carry the ObjectId tie-breaker, so algorithms may settle
// different members of a tied group (all of them correct answers under
// the paper's semantics, which assumes ties away). The differential
// contract is therefore CheckAnswer's for an answer without a
// certificate: the same ranked *scores* as the oracle, bit for bit, and
// every reported score exact.
void ExpectExactAnswer(const Dataset& data, const ScoringFunction& scoring,
                       size_t k, const TopKResult& result,
                       const std::string& label) {
  EXPECT_FALSE(result.certificate.has_value()) << label;
  EXPECT_EQ(CheckAnswer(data, scoring, k, result), "") << label;
}

struct DiffCase {
  uint64_t seed;
  size_t n;
  size_t m;
  size_t k;
  ScoringKind kind;
};

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialTest, AllExactAlgorithmsAgree) {
  const DiffCase& c = GetParam();
  const Dataset data = DiscreteData(c.seed, c.n, c.m);
  const auto scoring = MakeScoringFunction(c.kind, c.m);
  const CostModel cost = CostModel::Uniform(c.m, 1.0, 1.0);

  // NC under three different policies.
  {
    SourceSet sources(&data, cost);
    SRGPolicy policy(SRGConfig::Default(c.m));
    EngineOptions options;
    options.k = c.k;
    TopKResult result;
    ASSERT_TRUE(RunNC(&sources, scoring.get(), &policy, options, &result)
                    .ok());
    ExpectExactAnswer(data, *scoring, c.k, result, "NC/SRG-default");
  }
  {
    SourceSet sources(&data, cost);
    SRGConfig focused;
    focused.depths.assign(c.m, 1.0);
    focused.depths[0] = 0.0;
    focused.schedule.resize(c.m);
    for (size_t i = 0; i < c.m; ++i) {
      focused.schedule[i] = static_cast<PredicateId>(c.m - 1 - i);
    }
    SRGPolicy policy(focused);
    EngineOptions options;
    options.k = c.k;
    TopKResult result;
    ASSERT_TRUE(RunNC(&sources, scoring.get(), &policy, options, &result)
                    .ok());
    ExpectExactAnswer(data, *scoring, c.k, result, "NC/SRG-focused");
  }
  {
    SourceSet sources(&data, cost);
    RandomSelectPolicy policy(c.seed * 31 + 7);
    EngineOptions options;
    options.k = c.k;
    TopKResult result;
    ASSERT_TRUE(RunNC(&sources, scoring.get(), &policy, options, &result)
                    .ok());
    ExpectExactAnswer(data, *scoring, c.k, result, "NC/random");
  }

  // Framework TG with a random walk.
  {
    SourceSet sources(&data, cost);
    TGRandomPolicy policy(c.seed * 17 + 3);
    TGOptions options;
    options.k = c.k;
    TopKResult result;
    ASSERT_TRUE(
        RunTG(&sources, *scoring, &policy, options, &result).ok());
    ExpectExactAnswer(data, *scoring, c.k, result, "TG/random");
  }

  // Every exact-score baseline.
  for (const AlgorithmInfo& info : AllBaselines()) {
    if (!info.exact_scores || !info.applicable(cost)) continue;
    SourceSet sources(&data, cost);
    TopKResult result;
    ASSERT_TRUE(info.run(&sources, *scoring, c.k, &result).ok())
        << info.name;
    ExpectExactAnswer(data, *scoring, c.k, result, info.name);
  }

  // The parallel executor across concurrencies, with full latency jitter
  // so sorted results complete out of order. Regression: the visible
  // ceiling used to absorb out-of-order completions directly, which is
  // unsound while shallower reads are in flight, and the executor settled
  // on wrong scores.
  for (const size_t concurrency : {1ul, 2ul, 5ul}) {
    SourceSet sources(&data, cost);
    sources.set_latency_jitter(1.0, /*seed=*/c.seed * 131 + concurrency);
    SRGPolicy policy(SRGConfig::Default(c.m));
    EngineOptions options;
    options.k = c.k;
    options.concurrency = concurrency;
    ParallelResult result;
    ASSERT_TRUE(
        RunParallelNC(&sources, *scoring, &policy, options, &result).ok());
    EXPECT_TRUE(result.exact);
    ExpectExactAnswer(data, *scoring, c.k, result.topk,
                      "parallel/c" + std::to_string(concurrency));
  }
}

// At unit concurrency without jitter the parallel executor serves one
// access at a time off the same policy and the same (now shared) rank
// order: it must reproduce the sequential engine's answer identically,
// object for object, not merely score for score.
TEST(ParallelParityTest, UnitConcurrencyMatchesSequentialExactly) {
  for (const uint64_t seed : {3ul, 21ul, 77ul}) {
    const Dataset data = DiscreteData(seed, 90, 3);
    AverageFunction avg(3);
    const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);

    SourceSet seq_sources(&data, cost);
    SRGPolicy seq_policy(SRGConfig::Default(3));
    EngineOptions seq_options;
    seq_options.k = 6;
    TopKResult seq_result;
    ASSERT_TRUE(
        RunNC(&seq_sources, &avg, &seq_policy, seq_options, &seq_result)
            .ok());

    SourceSet par_sources(&data, cost);
    SRGPolicy par_policy(SRGConfig::Default(3));
    EngineOptions par_options;
    par_options.k = 6;
    par_options.concurrency = 1;
    ParallelResult par_result;
    ASSERT_TRUE(
        RunParallelNC(&par_sources, avg, &par_policy, par_options,
                      &par_result)
            .ok());
    EXPECT_EQ(par_result.topk, seq_result) << "seed " << seed;
  }
}

std::vector<DiffCase> DiffCases() {
  std::vector<DiffCase> cases;
  uint64_t seed = 1;
  for (const size_t n : {7ul, 40ul, 150ul}) {
    for (const size_t m : {1ul, 2ul, 4ul}) {
      for (const ScoringKind kind :
           {ScoringKind::kMin, ScoringKind::kAverage, ScoringKind::kMax}) {
        const size_t k = 1 + (seed % (n / 2 + 1));
        cases.push_back(DiffCase{seed++, n, m, k, kind});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    TiesSweep, DifferentialTest, ::testing::ValuesIn(DiffCases()),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      const DiffCase& c = info.param;
      std::string name = "s";
      name += std::to_string(c.seed) + "_n" + std::to_string(c.n) + "_m" +
              std::to_string(c.m) + "_k" + std::to_string(c.k) + "_" +
              MakeScoringFunction(c.kind, 1)->name();
      return name;
    });

// Degenerate extremes outside the sweep.
TEST(DifferentialEdgeTest, AllZeroScores) {
  Dataset data(12, 2);  // Everything ties at 0.
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  for (const AlgorithmInfo& info : AllBaselines()) {
    if (!info.exact_scores) continue;
    SourceSet sources(&data, cost);
    TopKResult result;
    ASSERT_TRUE(info.run(&sources, avg, 4, &result).ok()) << info.name;
    ExpectExactAnswer(data, avg, 4, result, info.name);
  }
}

TEST(DifferentialEdgeTest, SingleObject) {
  Dataset data(1, 3);
  data.SetScore(0, 0, 0.4);
  data.SetScore(0, 1, 0.9);
  data.SetScore(0, 2, 0.1);
  MinFunction fmin(3);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  const TopKResult oracle = BruteForceTopK(data, fmin, 1);
  for (const AlgorithmInfo& info : AllBaselines()) {
    if (!info.exact_scores) continue;
    SourceSet sources(&data, cost);
    TopKResult result;
    ASSERT_TRUE(info.run(&sources, fmin, 1, &result).ok()) << info.name;
    EXPECT_EQ(result, oracle) << info.name;
  }
  SourceSet sources(&data, cost);
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 1;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, &result).ok());
  EXPECT_EQ(result, oracle);
}

// The TelemetryHub is observational: on a fault-free run the top-k
// answer, the Eq. 1 meters, and the access counts are bit-identical with
// the hub attached or detached. (Only HedgePolicy::adaptive may spend
// cost differently - and even then the ANSWER must not move.)
TEST(DifferentialEdgeTest, TelemetryHubDoesNotPerturbResults) {
  GeneratorOptions g;
  g.num_objects = 400;
  g.num_predicates = 3;
  g.seed = 77;
  const Dataset data = GenerateDataset(g);
  AverageFunction avg(3);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);

  ReplicaSetConfig config;
  config.replicas.resize(2);
  for (ReplicaEndpoint& e : config.replicas) {
    e.latency.multiplier = 1.0;
    e.latency.jitter = 0.5;
    e.latency.tail_probability = 0.05;
    e.latency.tail_multiplier = 10.0;
  }
  config.hedge.delay = 1.5;

  auto run = [&](obs::TelemetryHub* hub, TopKResult* result, double* cost_out,
                 size_t* accesses) {
    ReplicaFleet fleet(123);
    for (PredicateId i = 0; i < 3; ++i) {
      ASSERT_TRUE(fleet.Configure(i, config).ok());
    }
    SourceSet sources(&data, cost);
    ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
    if (hub != nullptr) sources.set_telemetry_hub(hub);
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 6;
    ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, result).ok());
    *cost_out = sources.accrued_cost();
    *accesses = sources.stats().TotalSorted() + sources.stats().TotalRandom();
  };

  TopKResult without_hub, with_hub;
  double cost_without = 0.0, cost_with = 0.0;
  size_t acc_without = 0, acc_with = 0;
  obs::TelemetryHub hub;
  run(nullptr, &without_hub, &cost_without, &acc_without);
  run(&hub, &with_hub, &cost_with, &acc_with);

  EXPECT_EQ(with_hub, without_hub);
  EXPECT_DOUBLE_EQ(cost_with, cost_without);
  EXPECT_EQ(acc_with, acc_without);
  EXPECT_GT(hub.replica_service_count(0, 0), 0u);  // It really sampled.

  // Adaptive hedging reads the hub and may re-time hedges (different
  // cost), but the answer still matches the oracle exactly.
  config.hedge.adaptive = true;
  TopKResult adaptive;
  double adaptive_cost = 0.0;
  size_t adaptive_acc = 0;
  run(&hub, &adaptive, &adaptive_cost, &adaptive_acc);
  EXPECT_EQ(adaptive, BruteForceTopK(data, avg, 6));
}

}  // namespace
}  // namespace nc
