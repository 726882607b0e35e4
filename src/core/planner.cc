#include "core/planner.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "core/engine.h"
#include "core/schedule.h"
#include "data/sampling.h"

namespace nc {

namespace {

// The depth grid every search scheme walks, and HClimb's restart count
// (Section 7.2). The optimizers take both as parameters for the search
// scheme study in bench_search_schemes.
constexpr double kGridStep = 0.1;
constexpr size_t kHClimbRestarts = 4;

}  // namespace

const char* SearchSchemeName(SearchScheme scheme) {
  switch (scheme) {
    case SearchScheme::kNaive:
      return "Naive";
    case SearchScheme::kStrategies:
      return "Strategies";
    case SearchScheme::kHClimb:
      return "HClimb";
  }
  return "unknown";
}

CostBasedPlanner::CostBasedPlanner(const ScoringFunction* scoring,
                                   PlannerOptions options)
    : scoring_(scoring), options_(options) {
  NC_CHECK(scoring_ != nullptr);
  NC_CHECK(options_.sample_size > 0);
}

Status CostBasedPlanner::Plan(const SourceSet& sources, size_t k,
                              OptimizerResult* out) {
  NC_CHECK(out != nullptr);
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (scoring_->arity() != sources.num_predicates()) {
    return Status::InvalidArgument(
        "scoring function arity does not match predicate count");
  }

  // Provider-backed sources have no in-memory Dataset to draw from: fall
  // back to the paper's dummy-uniform estimation mode.
  const bool from_data =
      options_.sample_mode == SampleMode::kFromData && sources.has_dataset();
  const size_t replicas = std::max<size_t>(1, options_.sample_replicas);
  std::vector<Dataset> samples;
  samples.reserve(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    const uint64_t seed = options_.seed + r;
    samples.push_back(
        from_data
            ? SampleDataset(sources.dataset(), options_.sample_size, seed)
            : DummyUniformSample(sources.num_predicates(),
                                 options_.sample_size, seed));
  }
  const size_t k_prime =
      ScaledSampleK(k, sources.num_objects(), samples[0].num_objects());

  // G-optimization first (a schedule for the H-search to assume), then
  // H-optimization (Section 7.2's two-step approximation).
  const std::vector<PredicateId> schedule =
      OptimizeSchedule(samples[0], sources.cost_model());

  SimulationCostEstimator estimator(std::move(samples), sources.cost_model(),
                                    scoring_, k_prime);
  // Planning work (simulations, hill-climb sweeps) bills to the query's
  // profiler when one is attached to the sources.
  estimator.set_profiler(sources.profiler());

  std::unique_ptr<DepthOptimizer> optimizer;
  switch (options_.scheme) {
    case SearchScheme::kNaive:
      optimizer = std::make_unique<NaiveGridOptimizer>(kGridStep);
      break;
    case SearchScheme::kStrategies:
      optimizer = std::make_unique<StrategiesOptimizer>(kGridStep);
      break;
    case SearchScheme::kHClimb:
      optimizer = std::make_unique<HClimbOptimizer>(kHClimbRestarts,
                                                    kGridStep, options_.seed);
      break;
  }
  // Depth search for one fixed schedule. After HClimb we always sweep the
  // cheap query-driven Strategies families too (equal-depth diagonal and
  // focused axes): a handful of extra simulations that cover the
  // plateau-guarded corners where hill climbing sees no gradient (e.g.
  // highly correlated data, where the optimum hides in the last mesh cell
  // before depth 1). Naive's grid is already a superset.
  const auto optimize_depths =
      [&](const std::vector<PredicateId>& probe_order,
          OptimizerResult* result) -> Status {
    NC_RETURN_IF_ERROR(optimizer->Optimize(&estimator, probe_order, result));
    if (options_.scheme == SearchScheme::kHClimb) {
      StrategiesOptimizer families(kGridStep);
      OptimizerResult family_best;
      NC_RETURN_IF_ERROR(
          families.Optimize(&estimator, probe_order, &family_best));
      const size_t combined =
          result->simulations + family_best.simulations;
      if (family_best.estimated_cost < result->estimated_cost) {
        *result = std::move(family_best);
      }
      result->simulations = combined;
    }
    return Status::OK();
  };

  if (options_.joint_schedule_search) {
    const size_t m = sources.num_predicates();
    if (m > 6) {
      return Status::InvalidArgument(
          "joint schedule search is limited to m <= 6 (m! permutations)");
    }
    std::vector<PredicateId> permutation(m);
    for (size_t i = 0; i < m; ++i) {
      permutation[i] = static_cast<PredicateId>(i);
    }
    OptimizerResult best;
    size_t simulations = 0;
    do {
      OptimizerResult candidate;
      NC_RETURN_IF_ERROR(optimize_depths(permutation, &candidate));
      simulations += candidate.simulations;
      if (best.config.depths.empty() ||
          candidate.estimated_cost < best.estimated_cost) {
        best = std::move(candidate);
      }
    } while (std::next_permutation(permutation.begin(), permutation.end()));
    best.simulations = simulations;
    *out = std::move(best);
  } else {
    NC_RETURN_IF_ERROR(optimize_depths(schedule, out));
  }

  // Full-scale prediction of the chosen plan: the per-predicate footprint
  // of the sample simulation that scored it, which the post-run CostAudit
  // diffs against metered actuals.
  estimator.Predict(out->config, sources.num_objects(), &out->prediction);
  return Status::OK();
}

Status RunOptimizedNC(SourceSet* sources, const ScoringFunction& scoring,
                      size_t k, const PlannerOptions& options,
                      TopKResult* out, OptimizerResult* plan_out) {
  NC_CHECK(sources != nullptr);
  NC_CHECK(out != nullptr);
  CostBasedPlanner planner(&scoring, options);
  OptimizerResult plan;
  NC_RETURN_IF_ERROR(planner.Plan(*sources, k, &plan));
  if (plan_out != nullptr) *plan_out = plan;

  SRGPolicy policy(plan.config);
  EngineOptions engine_options;
  engine_options.k = k;
  return RunNC(sources, &scoring, &policy, engine_options, out);
}

}  // namespace nc
