#include "baselines/nra.h"

#include <algorithm>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/bound_heap.h"
#include "core/rank_order.h"

namespace nc {

namespace {

// One full round of sorted accesses; returns false when every stream is
// exhausted. An access that fails cuts the round short: *stop receives
// its status and the round reports whatever it managed before.
bool SortedRound(SourceSet* sources, RankedPool* ranked, Status* stop) {
  bool any = false;
  const size_t m = sources->num_predicates();
  for (PredicateId i = 0; i < m; ++i) {
    if (sources->exhausted(i)) continue;
    std::optional<SortedHit> hit;
    *stop = sources->TrySortedAccess(i, &hit);
    if (!stop->ok()) return any;
    if (!hit.has_value()) continue;
    any = true;
    ranked->Discover(i, hit->object, hit->score, {}, sources->last_seen());
  }
  return any;
}

// The classic halting test: true when the k-th best lower bound dominates
// every other candidate's upper bound and the unseen ceiling. On success
// fills `out` with the winners (scores = lower bounds at halt).
bool SetOnlyHalted(const SourceSet& sources, const CandidatePool& pool,
                   BoundEvaluator& bounds, size_t k, TopKResult* out) {
  const std::span<const Score> ceilings = sources.last_seen();

  struct State {
    ObjectId object;
    Score lower;
    Score upper;
  };
  std::vector<State> states;
  states.reserve(pool.size());
  for (const Candidate& c : pool) {
    states.push_back(
        State{c.id, bounds.Lower(c), bounds.Upper(c, ceilings)});
  }
  if (states.size() < k) return false;

  // Top-k by lower bound.
  std::partial_sort(states.begin(), states.begin() + k, states.end(),
                    [](const State& a, const State& b) {
                      return RanksAbove(a.lower, a.object, b.lower, b.object);
                    });
  const Score kth_lower = states[k - 1].lower;

  // Unseen objects are capped by F(l).
  const bool unseen_possible = pool.size() < sources.num_objects();
  if (unseen_possible) {
    const Score unseen_cap = bounds.scoring().Evaluate(ceilings);
    if (unseen_cap > kth_lower) return false;
  }
  for (size_t idx = k; idx < states.size(); ++idx) {
    if (states[idx].upper > kth_lower) return false;
  }
  out->entries.clear();
  for (size_t idx = 0; idx < k; ++idx) {
    out->entries.push_back(TopKEntry{states[idx].object, states[idx].lower});
  }
  return true;
}

// Exact-score halting: Theorem 1's test over the ranked pool; fills `out`
// with K_P's exact scores.
bool ExactHalted(const SourceSet& sources, RankedPool& ranked, size_t k,
                 TopKResult* out) {
  const std::span<const RankedPool::Entry> topk =
      ranked.TopK(k, sources.last_seen());
  if (ranked.FirstIncomplete(topk).has_value()) return false;
  RankedPool::Answer(topk, out);
  return true;
}

}  // namespace

Status RunNRA(SourceSet* sources, const ScoringFunction& scoring, size_t k,
              NRAMode mode, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources, /*need_sorted=*/true,
                                                /*need_random=*/false, "NRA"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  // Every predicate has sorted access, so objects are discovered.
  RankedPool ranked(&scoring, sources->num_objects(),
                    /*seed_universe=*/false);
  const CandidatePool& pool = ranked.candidates();
  BoundEvaluator& bounds = ranked.bounds();

  while (true) {
    Status stop;
    const bool live = SortedRound(sources, &ranked, &stop);
    const bool halted = mode == NRAMode::kSetOnly
                            ? SetOnlyHalted(*sources, pool, bounds, k, out)
                            : ExactHalted(*sources, ranked, k, out);
    if (halted) return Status::OK();
    if (!stop.ok()) {
      // Further reads are barred and the halting test has not fired: a
      // budget refusal settles with a certified answer over the current
      // bounds.
      return SettleRefusal(stop, *sources, scoring, k, {}, &pool, out);
    }
    if (!live) {
      // Streams drained: every candidate is complete; rank them directly.
      TopKCollector collector(k);
      for (const Candidate& c : pool) {
        collector.Offer(c.id, bounds.Exact(c));
      }
      *out = collector.Take();
      return Status::OK();
    }
  }
}

}  // namespace nc
