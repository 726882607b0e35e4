// The real-life benchmark of Section 9, rebuilt: the Web travel-agent
// queries of Examples 1 and 2.
//
//   Q1 (restaurants): top-5 by min(rating, closeness) under Figure 1(a)'s
//      costs (random pricier than sorted, different scales per source).
//   Q2 (hotels): top-5 by avg(closeness, stars, cheap) under Figure
//      1(b)'s costs (random free after sorted discovery - the scenario no
//      published algorithm targets).
//
// For each query: the cost-based NC plan, every applicable baseline, and
// the parallel execution of the NC plan at several concurrency limits.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/parallel_executor.h"
#include "data/travel_agent.h"

namespace nc::bench {
namespace {

void RunQuery(const TravelAgentQuery& q) {
  PrintHeader(std::string("Travel-agent query ") + q.label + "  (F=" +
              q.scoring->name() + ", k=" + std::to_string(q.k) + ", n=" +
              std::to_string(q.data.num_objects()) + ", costs " +
              q.cost.ToString() + ")");

  const RunStats nc_stats =
      RunOptimized(q.data, q.cost, *q.scoring, q.k);
  std::printf("  %-16s cost=%9.1f  (sa=%zu ra=%zu correct=%d) %s\n",
              "NC (cost-based)", nc_stats.cost, nc_stats.sorted,
              nc_stats.random, nc_stats.correct, nc_stats.plan.c_str());

  for (const AlgorithmInfo& info : AllBaselines()) {
    bool ran = false;
    const RunStats stats =
        RunBaseline(info, q.data, q.cost, *q.scoring, q.k, &ran);
    if (!ran) continue;
    std::printf("  %-16s cost=%9.1f  (sa=%zu ra=%zu correct=%d)%s\n",
                info.name.c_str(), stats.cost, stats.sorted, stats.random,
                stats.correct,
                info.exact_scores ? "" : "  [set-only semantics]");
  }

  // Parallelize the cost-based plan (Section 9.1.1).
  SourceSet plan_sources(&q.data, q.cost);
  PlannerOptions planner_options;
  planner_options.sample_size = 200;
  CostBasedPlanner planner(q.scoring.get(), planner_options);
  OptimizerResult plan;
  NC_CHECK(planner.Plan(plan_sources, q.k, &plan).ok());
  std::printf("  parallel execution of the NC plan (spec = speculative\n"
              "  reads per epoch; 0 = cost-minimal, 1 = pipelined):\n");
  for (const size_t c : {1ul, 2ul, 4ul, 8ul}) {
    for (const size_t spec : {0ul, 1ul}) {
      SourceSet sources(&q.data, q.cost);
      SRGPolicy policy(plan.config);
      EngineOptions options;
      options.k = q.k;
      options.concurrency = c;
      options.max_speculation = spec;
      ParallelResult result;
      NC_CHECK(RunParallelNC(&sources, *q.scoring, &policy, options, &result)
                   .ok());
      std::printf(
          "    C=%zu spec=%zu  elapsed=%8.1f  total-cost=%8.1f  wasted=%zu\n",
          c, spec, result.elapsed_time, result.total_cost,
          result.wasted_accesses);
    }
  }
}

}  // namespace
}  // namespace nc::bench

int main() {
  const nc::TravelAgentQuery q1 = nc::MakeRestaurantQuery(10000, 1);
  nc::bench::RunQuery(q1);
  const nc::TravelAgentQuery q2 = nc::MakeHotelQuery(10000, 2);
  nc::bench::RunQuery(q2);
  nc::bench::WriteBenchJson("travel_agent");
  return 0;
}
