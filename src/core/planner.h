// The cost-based query optimizer: end-to-end planning and execution.
//
// CostBasedPlanner ties Section 7 together: it acquires samples (real or
// dummy-uniform), derives the global random-access schedule, searches
// depth space with the configured scheme, and hands back the SR/G plan
// NC should run. RunOptimizedNC additionally executes the plan.

#ifndef NC_CORE_PLANNER_H_
#define NC_CORE_PLANNER_H_

#include <cstdint>

#include "access/source.h"
#include "common/status.h"
#include "core/optimizer.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

enum class SampleMode {
  // Draw the sample from the queried database (offline samples / a-priori
  // knowledge, Section 7.3).
  kFromData,
  // Generate dummy uniform samples - the paper's worst-case validation
  // mode when real samples are unavailable or too costly.
  kDummyUniform,
};

enum class SearchScheme {
  kNaive,
  kStrategies,
  kHClimb,
};

const char* SearchSchemeName(SearchScheme scheme);

struct PlannerOptions {
  size_t sample_size = 100;
  // Independent sample draws averaged per cost estimate; more replicas
  // cut estimation variance (k' is usually tiny) at proportional
  // optimization overhead.
  size_t sample_replicas = 3;
  SampleMode sample_mode = SampleMode::kFromData;
  // Searched on the 0.1 depth grid; HClimb restarts 4 times.
  SearchScheme scheme = SearchScheme::kHClimb;
  uint64_t seed = 7;

  // Section 7.2 approximates the joint (H, schedule) optimization in two
  // steps: fix the schedule by sampled benefit/cost ranking, then search
  // depths. Setting this flag searches depths under *every* schedule
  // permutation instead (m! times the overhead; rejected for m > 6) -
  // useful for validating the two-step approximation.
  bool joint_schedule_search = false;
};

class CostBasedPlanner {
 public:
  // `scoring` must outlive the planner.
  CostBasedPlanner(const ScoringFunction* scoring, PlannerOptions options);

  // Plans a top-k query over `sources` at its current cost model. On OK,
  // *out carries the chosen SR/G configuration, its estimated cost, and
  // the optimization overhead in simulations.
  Status Plan(const SourceSet& sources, size_t k, OptimizerResult* out);

 private:
  const ScoringFunction* scoring_;
  PlannerOptions options_;
};

// Plans and executes in one step: the convenience entry point examples
// use. `plan_out` (optional) receives the chosen plan.
Status RunOptimizedNC(SourceSet* sources, const ScoringFunction& scoring,
                      size_t k, const PlannerOptions& options,
                      TopKResult* out, OptimizerResult* plan_out = nullptr);

}  // namespace nc

#endif  // NC_CORE_PLANNER_H_
