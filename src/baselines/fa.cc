#include "baselines/fa.h"

#include <unordered_map>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"

namespace nc {

Status RunFA(SourceSet* sources, const ScoringFunction& scoring, size_t k,
             TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources, /*need_sorted=*/true,
                                                /*need_random=*/true, "FA"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();
  const uint64_t full_mask = (m == 64) ? ~uint64_t{0} : (uint64_t{1} << m) - 1;

  // Phase 1: drain lists round-robin until k objects carry the full mask.
  std::unordered_map<ObjectId, uint64_t> seen_mask;
  std::unordered_map<ObjectId, std::vector<Score>> partial;
  // A budget refusal settles with a certified answer assembled from every
  // seen object's interval (phase 2 keeps the masks current, so this
  // works mid-completion too).
  const auto settle = [&](const Status& refusal) {
    std::vector<CertifiedRow> rows;
    rows.reserve(seen_mask.size());
    for (const auto& [object, mask] : seen_mask) {
      rows.push_back(
          PartialRow(*sources, scoring, object, partial[object], mask));
    }
    return SettleRefusal(refusal, *sources, scoring, k, std::move(rows),
                         nullptr, out);
  };
  size_t fully_seen = 0;
  bool any_stream_live = true;
  while (fully_seen < k && any_stream_live) {
    any_stream_live = false;
    for (PredicateId i = 0; i < m && fully_seen < k; ++i) {
      if (sources->exhausted(i)) continue;
      std::optional<SortedHit> hit;
      const Status status = sources->TrySortedAccess(i, &hit);
      if (!status.ok()) return settle(status);
      if (!hit.has_value()) continue;
      any_stream_live = true;
      uint64_t& mask = seen_mask[hit->object];
      auto [it, created] = partial.try_emplace(hit->object,
                                               std::vector<Score>(m, 0.0));
      (void)created;
      if ((mask & (uint64_t{1} << i)) == 0) {
        mask |= uint64_t{1} << i;
        it->second[i] = hit->score;
        if (mask == full_mask) ++fully_seen;
      }
    }
  }

  // Phase 2: random-complete every seen object; best k win.
  TopKCollector collector(k);
  for (auto& [object, mask] : seen_mask) {
    std::vector<Score>& row = partial[object];
    for (PredicateId i = 0; i < m; ++i) {
      if ((mask & (uint64_t{1} << i)) != 0) continue;
      const Status status = sources->TryRandomAccess(i, object, &row[i]);
      if (!status.ok()) return settle(status);
      mask |= uint64_t{1} << i;
    }
    collector.Offer(object, scoring.Evaluate(row));
  }
  *out = collector.Take();
  return Status::OK();
}

}  // namespace nc
