#include "core/estimator.h"

#include <cstdio>

#include "access/source.h"
#include "common/check.h"
#include "core/engine.h"
#include "obs/profiler.h"

namespace nc {

namespace {

std::string ConfigKey(const SRGConfig& config) {
  std::string key;
  char buffer[32];
  for (double h : config.depths) {
    std::snprintf(buffer, sizeof(buffer), "%.12g|", h);
    key += buffer;
  }
  key += "#";
  for (PredicateId p : config.schedule) {
    key += std::to_string(p);
    key += ",";
  }
  return key;
}

}  // namespace

SimulationCostEstimator::SimulationCostEstimator(Dataset sample,
                                                 CostModel cost,
                                                 const ScoringFunction* scoring,
                                                 size_t k_prime)
    : SimulationCostEstimator(
          [&sample] {
            std::vector<Dataset> samples;
            samples.push_back(std::move(sample));
            return samples;
          }(),
          std::move(cost), scoring, k_prime) {}

SimulationCostEstimator::SimulationCostEstimator(std::vector<Dataset> samples,
                                                 CostModel cost,
                                                 const ScoringFunction* scoring,
                                                 size_t k_prime)
    : samples_(std::move(samples)),
      cost_(std::move(cost)),
      scoring_(scoring),
      k_prime_(k_prime) {
  NC_CHECK(scoring_ != nullptr);
  NC_CHECK(k_prime_ > 0);
  NC_CHECK(!samples_.empty());
  for (const Dataset& sample : samples_) {
    NC_CHECK(cost_.num_predicates() == sample.num_predicates());
  }
}

SimulationCostEstimator::Simulation SimulationCostEstimator::Simulate(
    const SRGConfig& config) const {
  Simulation sim;
  double total = 0.0;
  for (const Dataset& sample : samples_) {
    SourceSet sources(&sample, cost_);
    SRGPolicy policy(config);
    EngineOptions options;
    options.k = k_prime_;
    TopKResult ignored;
    if (!RunNC(&sources, scoring_, &policy, options, &ignored).ok()) {
      return Simulation{};
    }
    total += sources.accrued_cost();
    sim.stats.push_back(sources.stats());
  }
  sim.cost = total / static_cast<double>(samples_.size());
  return sim;
}

double SimulationCostEstimator::EstimateCost(const SRGConfig& config) {
  const std::string key = ConfigKey(config);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second.cost;
  // Malformed configs (bad depths, non-permutation schedules) surface as
  // infinite cost so searches steer away instead of crashing mid-climb.
  Simulation sim;
  if (config.Validate(cost_.num_predicates()).ok()) {
    // Only live simulations are billed; memoized repeats return above
    // without touching the profiler. The inner engines run unprofiled so
    // simulation work never pollutes the access-level cost centers.
    NC_PROFILE_SCOPE(profiler_, kOptimizerSimulate);
    ++simulations_;
    sim = Simulate(config);
  }
  return memo_.emplace(key, std::move(sim)).first->second.cost;
}

void SimulationCostEstimator::Predict(const SRGConfig& config, size_t full_n,
                                      CostPrediction* out) {
  NC_CHECK(out != nullptr);
  *out = CostPrediction{};
  const size_t m = cost_.num_predicates();
  if (!config.Validate(m).ok()) return;
  const auto it = memo_.find(ConfigKey(config));
  const Simulation sim = it != memo_.end() ? it->second : Simulate(config);
  if (sim.stats.empty()) return;  // A simulation failed.
  out->sorted_accesses.assign(m, 0.0);
  out->random_accesses.assign(m, 0.0);
  out->cost.assign(m, 0.0);
  for (size_t j = 0; j < samples_.size(); ++j) {
    const AccessStats& stats = sim.stats[j];
    const double scale = static_cast<double>(full_n) /
                         static_cast<double>(samples_[j].num_objects());
    for (PredicateId i = 0; i < m; ++i) {
      out->sorted_accesses[i] +=
          static_cast<double>(stats.sorted_count[i]) * scale;
      out->random_accesses[i] +=
          static_cast<double>(stats.random_count[i]) * scale;
      out->cost[i] += (stats.sorted_cost_accrued[i] +
                       stats.random_cost_accrued[i]) *
                      scale;
    }
  }
  const double replicas = static_cast<double>(samples_.size());
  for (PredicateId i = 0; i < m; ++i) {
    out->sorted_accesses[i] /= replicas;
    out->random_accesses[i] /= replicas;
    out->cost[i] /= replicas;
    out->total_cost += out->cost[i];
  }
  out->valid = true;
}

}  // namespace nc
