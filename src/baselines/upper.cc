#include "baselines/upper.h"

#include <span>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/bound_heap.h"

namespace nc {

Status RunUpper(SourceSet* sources, const ScoringFunction& scoring, size_t k,
                const std::vector<double>& expected_scores, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources,
                                                /*need_sorted=*/false,
                                                /*need_random=*/true,
                                                "Upper"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();
  std::vector<double> expected = expected_scores;
  if (expected.empty()) expected.assign(m, 0.5);
  if (expected.size() != m) {
    return Status::InvalidArgument("expected_scores size mismatch");
  }
  for (const double e : expected) {
    if (!IsValidScore(e)) {
      return Status::InvalidArgument("expected score outside [0, 1]");
    }
  }

  // Without sorted access no object can be discovered: probe the whole
  // universe.
  RankedPool ranked(&scoring, sources->num_objects(),
                    !sources->cost_model().any_sorted());
  const auto settle = [&](const Status& refusal) {
    return SettleRefusal(refusal, *sources, scoring, k, {},
                         &ranked.candidates(), out);
  };

  PredicateId rr_sorted = 0;
  while (true) {
    const std::span<const Score> ceilings = sources->last_seen();
    const std::span<const RankedPool::Entry> top = ranked.TopK(k, ceilings);
    const std::optional<const Candidate*> target =
        ranked.FirstIncomplete(top);
    if (!target.has_value()) {
      RankedPool::Answer(top, out);
      return Status::OK();
    }

    if (*target == nullptr) {
      // Discover a candidate: round-robin over the sorted-capable lists.
      for (size_t tries = 0; tries < m; ++tries) {
        const PredicateId i = rr_sorted % m;
        rr_sorted = (rr_sorted + 1) % m;
        if (!sources->has_sorted(i) || sources->exhausted(i)) continue;
        std::optional<SortedHit> hit;
        const Status status = sources->TrySortedAccess(i, &hit);
        if (!status.ok()) return settle(status);
        NC_CHECK(hit.has_value());
        ranked.Discover(i, hit->object, hit->score, {}, sources->last_seen());
        break;
      }
    } else {
      // Probe the predicate with the best expected bound-drop per cost;
      // the drop is negative once a ceiling falls below its expectation.
      const Candidate* c = *target;
      PredicateId best = m;
      double best_rate = 0.0;
      for (PredicateId i = 0; i < m; ++i) {
        if (c->IsEvaluated(i)) continue;
        const double cost = sources->cost_model().random_cost[i];
        const double drop = ceilings[i] - expected[i];
        const double rate = cost > 0.0 ? drop / cost : drop * 1e12;
        if (best == m || rate > best_rate) {
          best = i;
          best_rate = rate;
        }
      }
      Score score = 0.0;
      const Status status = sources->TryRandomAccess(best, c->id, &score);
      if (!status.ok()) return settle(status);
      ranked.Probe(c->id, best, score);
    }
  }
}

}  // namespace nc
