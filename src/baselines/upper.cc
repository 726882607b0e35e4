#include "baselines/upper.h"

#include <span>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/bound_heap.h"
#include "core/candidate.h"

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
  const size_t n = sources->num_objects();
  std::vector<double> expected = expected_scores;
  if (expected.empty()) expected.assign(m, 0.5);
  if (expected.size() != m) {
    return Status::InvalidArgument("expected_scores size mismatch");
  }

  const bool discovery = sources->cost_model().any_sorted();
  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  std::vector<Score> ceilings(m, kMaxScore);
  const auto refresh_ceilings = [&] {
    for (PredicateId i = 0; i < m; ++i) ceilings[i] = sources->last_seen(i);
  };

  LazyBoundHeap heap;
  const Score initial = scoring.Evaluate(std::vector<Score>(m, kMaxScore));
  if (discovery) {
    heap.Push(kUnseenObject, initial);
  } else {
    for (ObjectId u = 0; u < n; ++u) {
      pool.GetOrCreate(u);
      heap.Push(u, initial);
    }
  }

  // Reads the ceilings the loop loads once per top-k derivation.
  const auto bound_fn = [&](ObjectId u) -> std::optional<Score> {
    if (u == kUnseenObject) {
      if (pool.size() >= n) return std::nullopt;
      return scoring.Evaluate(ceilings);
    }
    const Candidate* c = pool.Find(u);
    NC_CHECK(c != nullptr);
    if (c->IsComplete(m)) return bounds.Exact(*c);
    return bounds.Upper(*c, ceilings);
  };
  const auto settle = [&](const Status& refusal) {
    return SettleRefusal(refusal, *sources, scoring, k, {}, &pool, out);
  };

  PredicateId rr_sorted = 0;
  while (true) {
    refresh_ceilings();
    const std::span<const LazyBoundHeap::Entry> top = heap.TopK(k, bound_fn);
    ObjectId target = kUnseenObject;
    bool found = false;
    for (const LazyBoundHeap::Entry& e : top) {
      if (e.object == kUnseenObject) {
        target = e.object;
        found = true;
        break;
      }
      if (!pool.Find(e.object)->IsComplete(m)) {
        target = e.object;
        found = true;
        break;
      }
    }
    if (!found) {
      out->entries.clear();
      for (const LazyBoundHeap::Entry& e : top) {
        out->entries.push_back(TopKEntry{e.object, e.bound});
      }
      return Status::OK();
    }

    if (target == kUnseenObject) {
      // Discover a candidate: round-robin over the sorted-capable lists.
      for (size_t tries = 0; tries < m; ++tries) {
        const PredicateId i = rr_sorted % m;
        rr_sorted = (rr_sorted + 1) % m;
        if (!sources->has_sorted(i) || sources->exhausted(i)) continue;
        std::optional<SortedHit> hit;
        const Status status = sources->TrySortedAccess(i, &hit);
        if (!status.ok()) return settle(status);
        NC_CHECK(hit.has_value());
        bool created = false;
        Candidate& c = pool.GetOrCreate(hit->object, &created);
        if (!c.IsEvaluated(i)) c.SetScore(i, hit->score);
        if (created) {
          refresh_ceilings();
          heap.Push(c.id, bounds.Upper(c, ceilings));
        }
        break;
      }
    } else {
      // Probe the predicate with the best expected bound-drop per cost.
      Candidate* c = pool.Find(target);
      PredicateId best = m;
      double best_rate = -1.0;
      for (PredicateId i = 0; i < m; ++i) {
        if (c->IsEvaluated(i)) continue;
        const double cost = sources->cost_model().random_cost[i];
        const double drop = ceilings[i] - expected[i];
        const double rate = cost > 0.0 ? drop / cost : drop * 1e12;
        if (rate > best_rate) {
          best = i;
          best_rate = rate;
        }
      }
      NC_CHECK(best < m);
      Score score = 0.0;
      const Status status = sources->TryRandomAccess(best, c->id, &score);
      if (!status.ok()) return settle(status);
      c->SetScore(best, score);
    }
  }
}

}  // namespace nc
