#include "baselines/mpro.h"

#include <span>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/bound_heap.h"
#include "core/candidate.h"

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
  if (order.size() != m) {
    return Status::InvalidArgument("schedule must cover every predicate");
  }

  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  // Probes only - no sorted streams - so ceilings stay at 1.
  const std::vector<Score> ceilings(m, kMaxScore);

  LazyBoundHeap heap;
  const Score initial = scoring.Evaluate(ceilings);
  for (ObjectId u = 0; u < n; ++u) {
    pool.GetOrCreate(u);
    heap.Push(u, initial);
  }

  const auto bound_fn = [&](ObjectId u) -> std::optional<Score> {
    const Candidate* c = pool.Find(u);
    NC_CHECK(c != nullptr);
    if (c->IsComplete(m)) return bounds.Exact(*c);
    return bounds.Upper(*c, ceilings);
  };

  while (true) {
    const std::span<const LazyBoundHeap::Entry> top = heap.TopK(k, bound_fn);
    const Candidate* next_probe = nullptr;
    for (const LazyBoundHeap::Entry& e : top) {
      const Candidate* c = pool.Find(e.object);
      if (!c->IsComplete(m)) {
        next_probe = c;
        break;
      }
    }
    if (next_probe == nullptr) {
      out->entries.clear();
      for (const LazyBoundHeap::Entry& e : top) {
        out->entries.push_back(TopKEntry{e.object, e.bound});
      }
      return Status::OK();
    }
    // Probe the next unevaluated predicate in global-schedule order.
    Candidate* c = pool.Find(next_probe->id);
    for (PredicateId i : order) {
      if (c->IsEvaluated(i)) continue;
      Score score = 0.0;
      const Status status = sources->TryRandomAccess(i, c->id, &score);
      if (!status.ok()) {
        // The whole universe is seeded into the pool: no unseen ceiling.
        return SettleRefusal(status, *sources, scoring, k, {}, &pool, out);
      }
      c->SetScore(i, score);
      break;
    }
  }
}

}  // namespace nc
