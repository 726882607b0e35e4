#include "baselines/mpro.h"

#include <span>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/bound_heap.h"
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
  const size_t n = sources->num_objects();

  std::vector<PredicateId> order = schedule;
  if (order.empty()) {
    order.resize(m);
    for (PredicateId i = 0; i < m; ++i) order[i] = i;
  }
  // MPro is SR/G's probe-only corner, H = (1, ..., 1): its plan checks the
  // schedule is a permutation of the predicates.
  NC_RETURN_IF_ERROR(
      (SRGConfig{std::vector<double>(m, kMaxScore), order}).Validate(m));

  RankedPool ranked(&scoring, n, /*seed_universe=*/true);
  // Probes only - no sorted streams - so ceilings stay at 1.
  const std::vector<Score> ceilings(m, kMaxScore);

  while (true) {
    const std::span<const RankedPool::Entry> top = ranked.TopK(k, ceilings);
    const std::optional<const Candidate*> next_probe =
        ranked.FirstIncomplete(top);
    if (!next_probe.has_value()) {
      RankedPool::Answer(top, out);
      return Status::OK();
    }
    // Probe the next unevaluated predicate in global-schedule order (the
    // universe is seeded, so the member is never the unseen sentinel).
    const Candidate* c = *next_probe;
    for (PredicateId i : order) {
      if (c->IsEvaluated(i)) continue;
      Score score = 0.0;
      const Status status = sources->TryRandomAccess(i, c->id, &score);
      if (!status.ok()) {
        // The whole universe is seeded into the pool: no unseen ceiling.
        return SettleRefusal(status, *sources, scoring, k, {},
                             &ranked.candidates(), out);
      }
      ranked.Probe(c->id, i, score);
      break;
    }
  }
}

}  // namespace nc
