#include "baselines/mpro.h"

#include <utility>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/engine.h"
#include "core/srg_policy.h"

namespace nc {

Status RunMPro(SourceSet* sources, const ScoringFunction& scoring, size_t k,
               const std::vector<PredicateId>& schedule, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources,
                                                /*need_sorted=*/false,
                                                /*need_random=*/true,
                                                "MPro"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();

  std::vector<PredicateId> order = schedule;
  if (order.empty()) {
    order.resize(m);
    for (PredicateId i = 0; i < m; ++i) order[i] = i;
  }
  // MPro is SR/G's probe-only corner, H = (1, ..., 1): its plan checks the
  // schedule is a permutation of the predicates.
  SRGConfig config{std::vector<double>(m, kMaxScore), std::move(order)};
  NC_RETURN_IF_ERROR(config.Validate(m));

  // The probe-only view: with every stream impossible, the engine seeds
  // the object universe, and SR/G probes each target's next predicate in
  // schedule order - MPro's rule.
  CostModel probe_only = sources->cost_model();
  probe_only.sorted_cost.assign(m, kImpossibleCost);
  NC_RETURN_IF_ERROR(sources->set_cost_model(std::move(probe_only)));

  SRGPolicy policy(std::move(config));
  EngineOptions options;
  options.k = k;
  return RunNC(sources, &scoring, &policy, options, out);
}

}  // namespace nc
