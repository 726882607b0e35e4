#include "baselines/ca.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/candidate.h"
#include "core/rank_order.h"

namespace nc {

namespace {

size_t DeriveH(const CostModel& model) {
  double cs_total = 0.0;
  double cr_total = 0.0;
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    cs_total += model.sorted_cost[i];
    cr_total += model.random_cost[i];
  }
  if (cs_total <= 0.0) return 1;
  const double ratio = cr_total / cs_total;
  return static_cast<size_t>(std::max(1.0, std::floor(ratio)));
}

}  // namespace

Status RunCA(SourceSet* sources, const ScoringFunction& scoring, size_t k,
             size_t h, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources, /*need_sorted=*/true,
                                                /*need_random=*/true, "CA"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (h == 0) h = DeriveH(sources->cost_model());
  const size_t m = sources->num_predicates();
  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  const std::span<const Score> ceilings = sources->last_seen();
  const auto settle = [&](const Status& refusal) {
    return SettleRefusal(refusal, *sources, scoring, k, {}, &pool, out);
  };

  while (true) {
    // h rounds of round-robin sorted access.
    bool live = false;
    for (size_t round = 0; round < h; ++round) {
      for (PredicateId i = 0; i < m; ++i) {
        if (sources->exhausted(i)) continue;
        std::optional<SortedHit> hit;
        const Status status = sources->TrySortedAccess(i, &hit);
        if (!status.ok()) return settle(status);
        if (!hit.has_value()) continue;
        live = true;
        Candidate& c = pool.GetOrCreate(hit->object);
        if (!c.IsEvaluated(i)) c.SetScore(i, hit->score);
      }
    }

    // Probe phase: completely evaluate the most promising incomplete
    // candidate.
    Candidate* best_incomplete = nullptr;
    Score best_upper = -1.0;
    for (Candidate& c : pool) {
      if (c.IsComplete(m)) continue;
      const Score upper = bounds.Upper(c, ceilings);
      if (best_incomplete == nullptr ||
          RanksAbove(upper, c.id, best_upper, best_incomplete->id)) {
        best_incomplete = &c;
        best_upper = upper;
      }
    }
    if (best_incomplete != nullptr) {
      for (PredicateId i = 0; i < m; ++i) {
        if (best_incomplete->IsEvaluated(i)) continue;
        Score score = 0.0;
        const Status status =
            sources->TryRandomAccess(i, best_incomplete->id, &score);
        if (!status.ok()) return settle(status);
        best_incomplete->SetScore(i, score);
      }
    }

    // Halting: k complete candidates whose exact scores dominate every
    // upper bound and the unseen ceiling.
    TopKCollector collector(k);
    Score max_incomplete_upper = -1.0;
    for (Candidate& c : pool) {
      if (c.IsComplete(m)) {
        collector.Offer(c.id, bounds.Exact(c));
      } else {
        max_incomplete_upper =
            std::max(max_incomplete_upper, bounds.Upper(c, ceilings));
      }
    }
    const bool unseen_possible = pool.size() < sources->num_objects();
    Score cap = max_incomplete_upper;
    if (unseen_possible) cap = std::max(cap, scoring.Evaluate(ceilings));
    if (collector.full() && collector.kth_score() >= cap) {
      *out = collector.Take();
      return Status::OK();
    }
    if (!live && best_incomplete == nullptr) {
      // Nothing left to read or probe: rank what we have.
      *out = collector.Take();
      return Status::OK();
    }
  }
}

}  // namespace nc
