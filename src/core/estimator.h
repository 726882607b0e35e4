// Simulation-based cost estimation (Section 7.3).
//
// Boolean optimizers estimate costs analytically from selectivities; for
// an arbitrary monotone F no closed form exists, so the paper estimates a
// plan's cost by *simulating* it: run the plan over a small sample as a
// top-k' query (k' = k * s / n) under the real cost model and read off the
// accrued cost. Estimates are comparable across plans, which is all the
// argmin search needs.

#ifndef NC_CORE_ESTIMATOR_H_
#define NC_CORE_ESTIMATOR_H_

#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "access/cost_model.h"
#include "access/source.h"
#include "common/status.h"
#include "data/dataset.h"
#include "core/srg_policy.h"
#include "scoring/scoring_function.h"

namespace nc::obs {
class Profiler;
}  // namespace nc::obs

namespace nc {

// Full-scale prediction of one plan's access footprint: what the
// estimator expects the chosen SR/G configuration to do on the real
// database, derived from the same sample simulations that scored it and
// scaled by n / s. This is the "predicted" side of the CostAudit
// (obs/run_report.h): after the real run, the metered AccessStats are
// diffed against it, closing the loop on Section 7.3's estimation.
struct CostPrediction {
  bool valid = false;
  // Expected per-predicate access counts and Eq. 1 cost shares at full
  // scale. Fractional: they are sample means scaled by n / s, not
  // integers. Page-charge quantization scales only approximately (the
  // sample's ceil(ns / b) is what gets scaled), which is part of the
  // estimation error the audit measures.
  std::vector<double> sorted_accesses;
  std::vector<double> random_accesses;
  std::vector<double> cost;
  double total_cost = 0.0;
};

// Interface so tests can substitute analytic landscapes.
class CostEstimator {
 public:
  virtual ~CostEstimator() = default;

  // Estimated total access cost of the SR/G plan `config`; lower is
  // better. Must be deterministic for a given config.
  virtual double EstimateCost(const SRGConfig& config) = 0;

  virtual size_t num_predicates() const = 0;

  // Number of plan evaluations that actually ran (optimization overhead;
  // memoized repeats excluded).
  virtual size_t simulations() const = 0;

  // Optional profiler (obs/profiler.h; must outlive the estimator).
  // Implementations bill non-memoized plan simulations to
  // kOptimizerSimulate; the optimizer bills each hill-climbing sweep to
  // kHillClimbStep through the same handle.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  obs::Profiler* profiler() const { return profiler_; }

 protected:
  obs::Profiler* profiler_ = nullptr;
};

// Estimates by executing NC+SR/G over one or more sample datasets.
//
// The scaled retrieval size k' = k * s / n is often tiny (1 for typical
// k/n ratios), which makes a single-sample estimate noisy; averaging the
// simulated cost over several independent sample draws ("replicas")
// reduces that variance at proportional extra optimization overhead.
class SimulationCostEstimator final : public CostEstimator {
 public:
  // Single-sample form. `sample` is the estimation workload (real draw or
  // dummy uniform); `cost` the real scenario's unit costs; `k_prime` the
  // scaled retrieval size (data/sampling.h::ScaledSampleK).
  SimulationCostEstimator(Dataset sample, CostModel cost,
                          const ScoringFunction* scoring, size_t k_prime);

  // Multi-replica form: the estimate is the mean simulated cost across
  // `samples` (all queried as top-k').
  SimulationCostEstimator(std::vector<Dataset> samples, CostModel cost,
                          const ScoringFunction* scoring, size_t k_prime);

  double EstimateCost(const SRGConfig& config) override;
  size_t num_predicates() const override { return cost_.num_predicates(); }
  size_t simulations() const override { return simulations_; }

  // Scales the per-predicate access tallies of `config`'s simulations to
  // a database of `full_n` objects - read from the memo when EstimateCost
  // simulated the config, simulated afresh otherwise. *out is invalid
  // (valid == false) when the config does not validate or a simulation
  // fails. Does not count toward simulations() - it is audit bookkeeping
  // for an already-chosen plan, not search work.
  void Predict(const SRGConfig& config, size_t full_n, CostPrediction* out);

 private:
  // One config run over every sample: the mean accrued cost, and each
  // sample's access tallies (empty, at infinite cost, when the config is
  // malformed or a simulation failed).
  struct Simulation {
    double cost = std::numeric_limits<double>::infinity();
    std::vector<AccessStats> stats;
  };

  // The one simulation loop, shared by EstimateCost and Predict. `config`
  // must validate.
  Simulation Simulate(const SRGConfig& config) const;

  std::vector<Dataset> samples_;
  CostModel cost_;
  const ScoringFunction* scoring_;
  size_t k_prime_;
  size_t simulations_ = 0;
  // Memo keyed by the config's canonical string; hill climbing revisits
  // neighbors constantly.
  std::unordered_map<std::string, Simulation> memo_;
};

}  // namespace nc

#endif  // NC_CORE_ESTIMATOR_H_
