#include "baselines/ta.h"

#include <unordered_set>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"

namespace nc {

Status RunTA(SourceSet* sources, const ScoringFunction& scoring, size_t k,
             TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources, /*need_sorted=*/true,
                                                /*need_random=*/true, "TA"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();

  TopKCollector collector(k);
  std::unordered_set<ObjectId> completed;
  std::vector<Score> row(m);
  // Exact scores of every completed object, for the certified answer a
  // budget refusal settles with.
  std::vector<CertifiedRow> rows;
  std::vector<Score> ceilings(m);
  const auto settle = [&](const Status& refusal) {
    return SettleRefusal(refusal, *sources, scoring, k, std::move(rows),
                         nullptr, out);
  };

  bool any_stream_live = true;
  while (any_stream_live) {
    any_stream_live = false;
    for (PredicateId i = 0; i < m; ++i) {
      if (sources->exhausted(i)) continue;
      std::optional<SortedHit> hit;
      Status status = sources->TrySortedAccess(i, &hit);
      if (!status.ok()) return settle(status);
      if (!hit.has_value()) continue;
      any_stream_live = true;
      if (completed.insert(hit->object).second) {
        // Exhaustive random access: complete the object right away.
        row[i] = hit->score;
        status = CompleteRow(sources, scoring, hit->object, i, &row, &rows);
        if (!status.ok()) return settle(status);
        collector.Offer(hit->object, rows.back().upper);
      }
      // Early stop: k collected objects already at or above the
      // maximal-possible score of anything unseen.
      for (PredicateId j = 0; j < m; ++j) ceilings[j] = sources->last_seen(j);
      const Score threshold = scoring.Evaluate(ceilings);
      if (collector.full() && collector.kth_score() >= threshold) {
        *out = collector.Take();
        return Status::OK();
      }
    }
  }
  // Streams exhausted (k >= n or extreme ties): everything was seen and
  // completed.
  *out = collector.Take();
  return Status::OK();
}

}  // namespace nc
