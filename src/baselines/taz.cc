#include "baselines/taz.h"

#include <unordered_set>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"

namespace nc {

Status RunTAz(SourceSet* sources, const ScoringFunction& scoring, size_t k,
              TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources,
                                                /*need_sorted=*/false,
                                                /*need_random=*/true,
                                                "TAz"));
  const std::vector<PredicateId> streams =
      SortedCapable(sources->cost_model());
  if (streams.empty()) {
    return Status::Unsupported(
        "TAz requires sorted access on at least one predicate");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();

  TopKCollector collector(k);
  std::unordered_set<ObjectId> completed;
  std::vector<Score> row(m);
  // Ceiling 1 on probe-only predicates: nothing bounds an unseen score
  // there.
  std::vector<Score> ceilings(m, kMaxScore);
  std::vector<CertifiedRow> rows;
  const auto settle = [&](const Status& refusal) {
    return SettleRefusal(refusal, *sources, scoring, k, std::move(rows),
                         nullptr, out);
  };

  bool any_stream_live = true;
  while (any_stream_live) {
    any_stream_live = false;
    for (const PredicateId i : streams) {
      if (sources->exhausted(i)) continue;
      std::optional<SortedHit> hit;
      Status status = sources->TrySortedAccess(i, &hit);
      if (!status.ok()) return settle(status);
      if (!hit.has_value()) continue;
      any_stream_live = true;
      if (completed.insert(hit->object).second) {
        row[i] = hit->score;
        status = CompleteRow(sources, scoring, hit->object, i, &row, &rows);
        if (!status.ok()) return settle(status);
        collector.Offer(hit->object, rows.back().upper);
      }
      // Threshold: last-seen on the streams in z, ceiling 1 elsewhere.
      for (const PredicateId s : streams) ceilings[s] = sources->last_seen(s);
      const Score threshold = scoring.Evaluate(ceilings);
      if (collector.full() && collector.kth_score() >= threshold) {
        *out = collector.Take();
        return Status::OK();
      }
    }
  }
  // Streams drained: every object was seen (each stream covers the whole
  // database) and completed.
  *out = collector.Take();
  return Status::OK();
}

}  // namespace nc
