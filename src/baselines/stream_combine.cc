#include "baselines/stream_combine.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/candidate.h"
#include "core/rank_order.h"

namespace nc {

namespace {

struct RankedState {
  ObjectId object;
  Score lower;
  Score upper;
  uint64_t evaluated_mask;
};

}  // namespace

Status RunStreamCombine(SourceSet* sources, const ScoringFunction& scoring,
                        size_t k, size_t lookback, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources, /*need_sorted=*/true,
                                                /*need_random=*/false,
                                                "Stream-Combine"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (lookback == 0) lookback = 1;
  const size_t m = sources->num_predicates();
  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  std::vector<Score> ceilings(m, kMaxScore);
  std::vector<std::deque<Score>> history(m);

  while (true) {
    // Rank candidates by lower bound to find the current top-k set and
    // which predicates they are missing.
    for (PredicateId i = 0; i < m; ++i) ceilings[i] = sources->last_seen(i);
    std::vector<RankedState> states;
    states.reserve(pool.size());
    for (Candidate& c : pool) {
      states.push_back(RankedState{c.id, bounds.Lower(c),
                                   bounds.Upper(c, ceilings),
                                   c.evaluated_mask});
    }
    const size_t take = std::min(k, states.size());
    std::partial_sort(states.begin(), states.begin() + take, states.end(),
                      [](const RankedState& a, const RankedState& b) {
                        return RanksAbove(a.lower, a.object, b.lower,
                                          b.object);
                      });

    // Classic NRA halting test.
    if (take == k) {
      const Score kth_lower = states[k - 1].lower;
      bool halted = true;
      if (pool.size() < sources->num_objects() &&
          scoring.Evaluate(ceilings) > kth_lower) {
        halted = false;
      }
      for (size_t idx = k; halted && idx < states.size(); ++idx) {
        if (states[idx].upper > kth_lower) halted = false;
      }
      if (halted) {
        out->entries.clear();
        for (size_t idx = 0; idx < k; ++idx) {
          out->entries.push_back(
              TopKEntry{states[idx].object, states[idx].lower});
        }
        return Status::OK();
      }
    }

    // Indicator: weight each list by how many *relevant* candidates miss
    // it. Relevant = the current top-k by lower bound (the would-be
    // answers) plus the top-k by upper bound (the blockers whose bounds
    // keep the halting test false); counting only the former saturates at
    // zero once the leaders are fully seen and leaves the list choice to
    // noise.
    std::vector<size_t> missing(m, 0);
    const auto count_missing = [&](const RankedState& s) {
      for (PredicateId i = 0; i < m; ++i) {
        if ((s.evaluated_mask & (uint64_t{1} << i)) == 0) ++missing[i];
      }
    };
    for (size_t idx = 0; idx < take; ++idx) count_missing(states[idx]);
    if (states.size() > take) {
      std::partial_sort(states.begin() + take,
                        states.begin() + std::min(states.size(), 2 * take),
                        states.end(),
                        [](const RankedState& a, const RankedState& b) {
                          return RanksAbove(a.upper, a.object, b.upper,
                                            b.object);
                        });
      const size_t blockers = std::min(states.size() - take, take);
      for (size_t idx = take; idx < take + blockers; ++idx) {
        count_missing(states[idx]);
      }
    }
    PredicateId pick = m;
    double best_delta = -1.0;
    for (PredicateId i = 0; i < m; ++i) {
      if (sources->exhausted(i)) continue;
      // Optimistic until two observations exist (a single one would read
      // as a zero drop and starve the list).
      const double drop = history[i].size() < 2
                              ? 1.0
                              : history[i].front() - history[i].back();
      const double derivative = PartialDerivative(scoring, ceilings, i);
      // +1 keeps lists with no missing top-k candidates explorable.
      const double delta =
          static_cast<double>(missing[i] + 1) * derivative * drop;
      if (pick == m || delta > best_delta) {
        pick = i;
        best_delta = delta;
      }
    }
    if (pick == m) {
      // Streams drained: every candidate is complete.
      TopKCollector collector(k);
      for (Candidate& c : pool) collector.Offer(c.id, bounds.Exact(c));
      *out = collector.Take();
      return Status::OK();
    }

    std::optional<SortedHit> hit;
    const Status status = sources->TrySortedAccess(pick, &hit);
    if (!status.ok()) {
      return SettleRefusal(status, *sources, scoring, k, {}, &pool, out);
    }
    NC_CHECK(hit.has_value());
    Candidate& c = pool.GetOrCreate(hit->object);
    if (!c.IsEvaluated(pick)) c.SetScore(pick, hit->score);
    std::deque<Score>& h = history[pick];
    h.push_back(sources->last_seen(pick));
    if (h.size() > lookback + 1) h.pop_front();
  }
}

}  // namespace nc
