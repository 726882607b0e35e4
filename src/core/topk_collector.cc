#include "core/topk_collector.h"

#include <algorithm>

#include "common/check.h"
#include "core/rank_order.h"

namespace nc {

namespace {

// Ascending (weakest-first) rank order.
bool WeakerEntry(const TopKEntry& a, const TopKEntry& b) {
  return RanksAbove(b.score, b.object, a.score, a.object);
}

}  // namespace

TopKCollector::TopKCollector(size_t k) : k_(k) { NC_CHECK(k_ > 0); }

void TopKCollector::Offer(ObjectId u, Score s) {
  const TopKEntry entry{u, s};
  if (full() && !WeakerEntry(entries_.front(), entry)) return;
  auto pos = std::lower_bound(entries_.begin(), entries_.end(), entry,
                              WeakerEntry);
  entries_.insert(pos, entry);
  if (entries_.size() > k_) entries_.erase(entries_.begin());
}

Score TopKCollector::kth_score() const {
  if (!full()) return kMinScore - 1.0;
  return entries_.front().score;
}

bool TopKCollector::Contains(ObjectId u) const {
  for (const TopKEntry& e : entries_) {
    if (e.object == u) return true;
  }
  return false;
}

TopKResult TopKCollector::Take() const {
  TopKResult result;
  result.entries.assign(entries_.rbegin(), entries_.rend());
  return result;
}

}  // namespace nc
