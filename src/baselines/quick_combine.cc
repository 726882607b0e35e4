#include "baselines/quick_combine.h"

#include <deque>
#include <unordered_set>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"

namespace nc {

namespace {

// Sliding window of the last `lookback` ceiling values per list, for the
// drop-rate factor of the indicator.
class DropTracker {
 public:
  DropTracker(size_t num_predicates, size_t lookback)
      : lookback_(lookback), history_(num_predicates) {}

  void Record(PredicateId i, Score ceiling) {
    std::deque<Score>& h = history_[i];
    h.push_back(ceiling);
    if (h.size() > lookback_ + 1) h.pop_front();
  }

  // l_i d-steps-ago minus l_i now; optimistic 1.0 until two observations
  // exist, so every list gets sampled before its rate is trusted (a
  // single observation would read as a zero drop and starve the list).
  double Drop(PredicateId i) const {
    const std::deque<Score>& h = history_[i];
    if (h.size() < 2) return 1.0;
    return h.front() - h.back();
  }

 private:
  size_t lookback_;
  std::vector<std::deque<Score>> history_;
};

}  // namespace

Status RunQuickCombine(SourceSet* sources, const ScoringFunction& scoring,
                       size_t k, size_t lookback, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources, /*need_sorted=*/true,
                                                /*need_random=*/true,
                                                "Quick-Combine"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (lookback == 0) lookback = 1;
  const size_t m = sources->num_predicates();

  TopKCollector collector(k);
  std::unordered_set<ObjectId> completed;
  DropTracker drops(m, lookback);
  std::vector<Score> ceilings(m, kMaxScore);
  std::vector<Score> row(m);
  std::vector<CertifiedRow> rows;
  const auto settle = [&](const Status& refusal) {
    return SettleRefusal(refusal, *sources, scoring, k, std::move(rows),
                         nullptr, out);
  };

  while (true) {
    // Pick the live list with the best indicator.
    PredicateId pick = m;
    double best_delta = -1.0;
    for (PredicateId i = 0; i < m; ++i) {
      if (sources->exhausted(i)) continue;
      const double derivative = PartialDerivative(scoring, ceilings, i);
      const double delta = derivative * drops.Drop(i);
      if (pick == m || delta > best_delta) {
        pick = i;
        best_delta = delta;
      }
    }
    if (pick == m) {
      // All streams drained.
      *out = collector.Take();
      return Status::OK();
    }

    std::optional<SortedHit> hit;
    Status status = sources->TrySortedAccess(pick, &hit);
    if (!status.ok()) return settle(status);
    NC_CHECK(hit.has_value());
    ceilings[pick] = sources->last_seen(pick);
    drops.Record(pick, ceilings[pick]);

    if (completed.insert(hit->object).second) {
      row[pick] = hit->score;
      status = CompleteRow(sources, scoring, hit->object, pick, &row, &rows);
      if (!status.ok()) return settle(status);
      collector.Offer(hit->object, rows.back().upper);
    }

    const Score threshold = scoring.Evaluate(ceilings);
    if (collector.full() && collector.kth_score() >= threshold) {
      *out = collector.Take();
      return Status::OK();
    }
  }
}

}  // namespace nc
