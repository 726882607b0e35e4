// Section 9.1.1: parallelization on top of the cost-minimal sequential
// plan. Elapsed time (simulated makespan) and total access cost as the
// concurrency bound grows; the paper's claim is near-linear elapsed-time
// speedup with total cost held close to the sequential minimum (bounded
// waste), versus unrestrained concurrency which abuses resources.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/parallel_executor.h"
#include "data/generator.h"

int main() {
  using namespace nc;
  using namespace nc::bench;

  constexpr size_t kObjects = 10000;
  constexpr size_t kK = 10;

  for (const ScoringKind kind : {ScoringKind::kAverage, ScoringKind::kMin}) {
    const auto scoring = MakeScoringFunction(kind, 2);
    GeneratorOptions g;
    g.num_objects = kObjects;
    g.num_predicates = 2;
    g.seed = 911;
    const Dataset data = GenerateDataset(g);
    const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

    // Plan once (the sequential cost-based plan), then parallelize it.
    SourceSet plan_sources(&data, cost);
    PlannerOptions planner_options;
    CostBasedPlanner planner(scoring.get(), planner_options);
    OptimizerResult plan;
    NC_CHECK(planner.Plan(plan_sources, kK, &plan).ok());

    PrintHeader("Parallelization, F=" + scoring->name() +
                ", uniform, cs=cr=1, n=10000, k=10, plan " +
                plan.config.ToString());
    std::printf("%6s %6s %12s %10s %12s %10s %8s\n", "C", "spec", "elapsed",
                "speedup", "total-cost", "overhead", "wasted");
    PrintRule(72);

    double sequential_elapsed = 0.0;
    double sequential_cost = 0.0;
    for (const size_t c : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
      // spec = 0: cost-minimal (only provably-unsatisfied tasks issue);
      // spec = 1: one speculative stream read per epoch, which buys
      // pipelining for focused plans whose read -> probe chain is
      // otherwise inherently sequential.
      for (const size_t spec : {0ul, 1ul}) {
        SourceSet sources(&data, cost);
        SRGPolicy policy(plan.config);
        EngineOptions options;
        options.k = kK;
        options.concurrency = c;
        options.max_speculation = spec;
        ParallelResult result;
        NC_CHECK(
            RunParallelNC(&sources, *scoring, &policy, options, &result)
                .ok());
        if (c == 1 && spec == 0) {
          sequential_elapsed = result.elapsed_time;
          sequential_cost = result.total_cost;
        }
        std::printf("%6zu %6zu %12.1f %9.2fx %12.1f %9.1f%% %8zu\n", c,
                    spec, result.elapsed_time,
                    sequential_elapsed / result.elapsed_time,
                    result.total_cost,
                    100.0 * (result.total_cost - sequential_cost) /
                        sequential_cost,
                    result.wasted_accesses);
        RunStats row;
        row.cost = result.total_cost;
        row.sorted = sources.stats().TotalSorted();
        row.random = sources.stats().TotalRandom();
        row.correct = result.exact;
        row.plan = plan.config.ToString();
        row.report = obs::BuildRunReport(sources, nullptr, "NC-parallel", kK);
        AddJsonRow("NC-parallel C=" + std::to_string(c) +
                       " spec=" + std::to_string(spec),
                   row);
      }
    }
  }
  nc::bench::WriteBenchJson("parallel");
  return 0;
}
