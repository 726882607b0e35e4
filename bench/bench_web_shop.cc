// The web-shop benchmark: four sources, four different capability
// profiles (one with no probe endpoint, one with no ranking endpoint) -
// a scenario *no* published baseline covers at all (TA/FA/CA/Quick-
// Combine need both access types everywhere; NRA/Stream-Combine need
// streams everywhere; MPro/Upper need probes everywhere; TAz needs probes
// everywhere too). Cost-based NC simply plans through it.
//
// Reports: the NC plan with EXPLAIN output, cost versus random-valid
// scheduling over the same necessary choices (the only other general
// option), plan quality across search schemes, and parallel execution.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/explain.h"
#include "core/parallel_executor.h"
#include "core/random_policy.h"
#include "data/web_shop.h"

int main() {
  using namespace nc;
  using namespace nc::bench;

  const WebShopQuery q = MakeWebShopQuery(10000, /*seed=*/77);
  PrintHeader(std::string("Web-shop benchmark (n=10000, k=10, F=") +
              q.scoring->name() + ", costs " + q.cost.ToString() + ")");

  // No registered baseline is applicable here.
  size_t applicable = 0;
  for (const AlgorithmInfo& info : AllBaselines()) {
    if (info.applicable(q.cost)) ++applicable;
  }
  std::printf("baselines applicable to this scenario: %zu of %zu\n",
              applicable, AllBaselines().size());

  for (const SearchScheme scheme :
       {SearchScheme::kHClimb, SearchScheme::kStrategies,
        SearchScheme::kNaive}) {
    SourceSet sources(&q.data, q.cost);
    PlannerOptions options;
    options.scheme = scheme;
    options.sample_size = 300;
    TopKResult result;
    OptimizerResult plan;
    NC_CHECK(RunOptimizedNC(&sources, *q.scoring, q.k, options, &result,
                            &plan)
                 .ok());
    const std::string algorithm =
        std::string("NC/") + SearchSchemeName(scheme);
    RunStats stats;
    stats.cost = sources.accrued_cost();
    stats.sorted = sources.stats().TotalSorted();
    stats.random = sources.stats().TotalRandom();
    stats.correct = result == BruteForceTopK(q.data, *q.scoring, q.k);
    stats.plan = plan.config.ToString();
    stats.report = obs::BuildRunReport(sources, nullptr, algorithm, q.k);
    AddJsonRow(algorithm, stats);
    std::printf("  NC/%-10s cost=%9.1f (sa=%zu ra=%zu correct=%d, %zu "
                "simulations)\n",
                SearchSchemeName(scheme), stats.cost, stats.sorted,
                stats.random, stats.correct, plan.simulations);
    if (scheme == SearchScheme::kHClimb) {
      std::printf("\n%s\n",
                  ExplainPlan(plan, sources, *q.scoring, q.k).c_str());
    }
  }

  // The only general alternative: arbitrary valid scheduling.
  double random_total = 0.0;
  constexpr int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    SourceSet sources(&q.data, q.cost);
    RandomSelectPolicy policy(static_cast<uint64_t>(trial));
    EngineOptions options;
    options.k = q.k;
    TopKResult result;
    NC_CHECK(RunNC(&sources, q.scoring.get(), &policy, options, &result)
                 .ok());
    random_total += sources.accrued_cost();
  }
  std::printf("  random valid scheduling: mean cost=%9.1f over %d seeds\n",
              random_total / kTrials, kTrials);

  // Parallel execution of the planned query.
  SourceSet plan_sources(&q.data, q.cost);
  PlannerOptions planner_options;
  planner_options.sample_size = 300;
  CostBasedPlanner planner(q.scoring.get(), planner_options);
  OptimizerResult plan;
  NC_CHECK(planner.Plan(plan_sources, q.k, &plan).ok());
  std::printf("\n  parallel execution (spec=1):\n");
  for (const size_t c : {1ul, 4ul, 16ul}) {
    SourceSet sources(&q.data, q.cost);
    SRGPolicy policy(plan.config);
    EngineOptions options;
    options.k = q.k;
    options.concurrency = c;
    options.max_speculation = 1;
    ParallelResult result;
    NC_CHECK(RunParallelNC(&sources, *q.scoring, &policy, options, &result)
                 .ok());
    std::printf("    C=%-2zu elapsed=%9.1f total-cost=%9.1f\n", c,
                result.elapsed_time, result.total_cost);
  }
  nc::bench::WriteBenchJson("web_shop");
  return 0;
}
