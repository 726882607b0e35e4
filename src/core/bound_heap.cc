#include "core/bound_heap.h"

#include <bit>
#include <limits>

#include "access/source.h"
#include "obs/tracer.h"

namespace nc {

void HeldSet::Insert(const Entry& e) {
  entries_.insert(
      std::upper_bound(entries_.begin(), entries_.end(), e, Entry::Above), e);
}

void LazyBoundHeap::Push(ObjectId object, Score bound) {
  PushLazy(Entry{bound, object});
}

void LazyBoundHeap::PushLazy(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Entry::Below);
}

namespace {

constexpr Score kNoCeiling = std::numeric_limits<Score>::infinity();

}  // namespace

MinGroupRanking::MinGroupRanking(size_t num_predicates)
    : all_predicates_(num_predicates == 64
                          ? ~uint64_t{0}
                          : (uint64_t{1} << num_predicates) - 1),
      ceilings_(num_predicates, kNoCeiling) {}

Score MinGroupRanking::MissingCeiling(uint64_t mask) const {
  Score lowest = kNoCeiling;
  for (uint64_t missing = ~mask & all_predicates_; missing != 0;
       missing &= missing - 1) {
    lowest = std::min(lowest, ceilings_[std::countr_zero(missing)]);
  }
  return lowest;
}

Score MinGroupRanking::KeyOf(const Candidate& c) {
  Score key = kNoCeiling;
  for (uint64_t known = c.evaluated_mask; known != 0; known &= known - 1) {
    key = std::min(key, c.scores[std::countr_zero(known)]);
  }
  return key;
}

Score MinGroupRanking::BoundOf(const Candidate& c) const {
  return std::min(KeyOf(c), MissingCeiling(c.evaluated_mask));
}

uint32_t MinGroupRanking::GroupOf(uint64_t mask) {
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].mask == mask) return g;
  }
  // A new group takes C from the last TopK's ceilings. Created mid-call
  // (a released member's known set grew while it was held), it needs the
  // current C, not +inf, because Settle already ran; created between
  // calls, the next Settle lowers it.
  Group& g = groups_.emplace_back();
  g.mask = mask;
  g.ceiling = MissingCeiling(mask);
  return static_cast<uint32_t>(groups_.size() - 1);
}

void MinGroupRanking::PushTied(Group& g, ObjectId u) {
  g.tied.push_back(u);
  std::push_heap(g.tied.begin(), g.tied.end());
}

void MinGroupRanking::PushBelow(Group& g, const Entry& e) {
  g.below.push_back(e);
  std::push_heap(g.below.begin(), g.below.end(), Entry::Below);
}

void MinGroupRanking::File(Candidate& c) {
  const uint32_t g = GroupOf(c.evaluated_mask);
  c.stamp = g + 1;
  const Score key = KeyOf(c);
  Group& group = groups_[g];
  if (key >= group.ceiling) {
    PushTied(group, c.id);
  } else {
    PushBelow(group, Entry{key, c.id});
  }
}

void MinGroupRanking::AddUnseen(Score bound) {
  unseen_ = Unseen::kOutside;
  unseen_bound_ = bound;
}

void MinGroupRanking::Settle(uint32_t g, const CandidatePool& pool) {
  Group& group = groups_[g];
  const Score ceiling = MissingCeiling(group.mask);
  NC_DCHECK(ceiling <= group.ceiling);
  group.ceiling = ceiling;
  while (!group.below.empty() && group.below.front().bound >= group.ceiling) {
    std::pop_heap(group.below.begin(), group.below.end(), Entry::Below);
    const ObjectId u = group.below.back().object;
    group.below.pop_back();
    if (pool.Find(u)->stamp == g + 1) PushTied(group, u);
  }
}

std::optional<MinGroupRanking::Entry> MinGroupRanking::Head(
    uint32_t g, const CandidatePool& pool) {
  Group& group = groups_[g];
  while (!group.tied.empty()) {
    const ObjectId u = group.tied.front();
    if (pool.Find(u)->stamp == g + 1) return Entry{group.ceiling, u};
    std::pop_heap(group.tied.begin(), group.tied.end());
    group.tied.pop_back();
  }
  while (!group.below.empty()) {
    const Entry& e = group.below.front();
    if (pool.Find(e.object)->stamp == g + 1) return e;
    std::pop_heap(group.below.begin(), group.below.end(), Entry::Below);
    group.below.pop_back();
  }
  return std::nullopt;
}

void MinGroupRanking::PopHead(uint32_t g) {
  Group& group = groups_[g];
  if (!group.tied.empty()) {
    std::pop_heap(group.tied.begin(), group.tied.end());
    group.tied.pop_back();
  } else {
    std::pop_heap(group.below.begin(), group.below.end(), Entry::Below);
    group.below.pop_back();
  }
}

void MinGroupRanking::Release(const Entry& e, CandidatePool& pool) {
  if (e.object == kUnseenObject) {
    unseen_ = Unseen::kOutside;
    unseen_bound_ = e.bound;
    return;
  }
  File(*pool.Find(e.object));
}

std::span<const MinGroupRanking::Entry> MinGroupRanking::TopK(
    size_t k, std::span<const Score> ceilings, CandidatePool& pool,
    bool unseen_remains) {
  NC_DCHECK(ceilings.size() == ceilings_.size());
  std::copy(ceilings.begin(), ceilings.end(), ceilings_.begin());
  for (uint32_t g = 0; g < groups_.size(); ++g) Settle(g, pool);
  const auto release = [&](const Entry& e) { Release(e, pool); };
  held_.Recheck(
      k,
      [&](ObjectId u) -> std::optional<Score> {
        if (u != kUnseenObject) return BoundOf(*pool.Find(u));
        if (unseen_remains) return MissingCeiling(0);
        unseen_ = Unseen::kRetired;
        return std::nullopt;
      },
      release);
  // Merge the group heads, which are exact, with the sentinel at its
  // cached bound, while the best of them ranks above the weakest member.
  constexpr uint32_t kFromUnseen = ~uint32_t{0};
  while (true) {
    std::optional<Entry> best;
    uint32_t from = kFromUnseen;
    for (uint32_t g = 0; g < groups_.size(); ++g) {
      const std::optional<Entry> head = Head(g, pool);
      if (head.has_value() &&
          (!best.has_value() || Entry::Above(*head, *best))) {
        best = head;
        from = g;
      }
    }
    if (unseen_ == Unseen::kOutside) {
      const Entry unseen{unseen_bound_, kUnseenObject};
      if (!best.has_value() || Entry::Above(unseen, *best)) {
        best = unseen;
        from = kFromUnseen;
      }
    }
    if (!best.has_value() || !held_.Admits(*best, k)) break;
    if (from == kFromUnseen) {
      if (!unseen_remains) {
        unseen_ = Unseen::kRetired;
        continue;
      }
      best->bound = unseen_bound_ = MissingCeiling(0);
      // Stale: it stays outside with its fresh bound.
      if (!held_.Admits(*best, k)) continue;
      unseen_ = Unseen::kHeld;
    } else {
      PopHead(from);
      pool.Find(best->object)->stamp = 0;
    }
    held_.Hold(*best, k, release);
  }
  return held_.entries();
}

RankedPool::RankedPool(const ScoringFunction* scoring, size_t num_objects,
                       bool seed_universe)
    : pool_(scoring->arity()),
      bounds_(scoring),
      num_objects_(num_objects),
      grouped_(scoring->IsMin()),
      groups_(scoring->arity()) {
  // Nothing is known yet: every bound is F(1, ..., 1).
  const Score initial =
      scoring->Evaluate(std::vector<Score>(scoring->arity(), kMaxScore));
  if (seed_universe) {
    for (ObjectId u = 0; u < num_objects; ++u) {
      Candidate& c = pool_.GetOrCreate(u);
      if (grouped_) {
        groups_.File(c);
      } else {
        heap_.Push(u, initial);
      }
    }
  } else if (num_objects > 0) {
    AddUnseen(initial);
  }
}

RankedPool::RankedPool(const ScoringFunction* scoring, size_t num_objects,
                       CandidatePool candidates,
                       std::span<const Score> ceilings)
    : pool_(std::move(candidates)),
      bounds_(scoring),
      num_objects_(num_objects),
      grouped_(scoring->IsMin()),
      groups_(scoring->arity()) {
  NC_CHECK(pool_.num_predicates() == scoring->arity());
  for (Candidate& c : pool_) {
    if (grouped_) {
      groups_.File(c);
    } else {
      heap_.Push(c.id, *BoundOf(c.id, ceilings));
    }
  }
  const std::optional<Score> unseen = BoundOf(kUnseenObject, ceilings);
  if (unseen.has_value()) AddUnseen(*unseen);
}

void RankedPool::AddUnseen(Score bound) {
  if (grouped_) {
    groups_.AddUnseen(bound);
  } else {
    heap_.Push(kUnseenObject, bound);
  }
}

std::optional<Score> RankedPool::BoundOf(ObjectId u,
                                         std::span<const Score> ceilings) {
  if (u == kUnseenObject) {
    if (pool_.size() >= num_objects_) return std::nullopt;
    return bounds_.scoring().Evaluate(ceilings);
  }
  const Candidate* c = pool_.Find(u);
  NC_CHECK(c != nullptr);
  if (c->IsComplete(pool_.num_predicates())) return bounds_.Exact(*c);
  return bounds_.Upper(*c, ceilings);
}

const Candidate& RankedPool::Discover(
    PredicateId i, ObjectId u, Score score,
    std::span<const std::pair<PredicateId, Score>> bundled,
    std::span<const Score> ceilings) {
  bool created = false;
  Candidate& c = pool_.GetOrCreate(u, &created);
  const uint64_t known = c.evaluated_mask;
  if (!c.IsEvaluated(i)) c.SetScore(i, score);
  for (const auto& [predicate, s] : bundled) {
    if (!c.IsEvaluated(predicate)) c.SetScore(predicate, s);
  }
  if (!grouped_) {
    if (created) heap_.Push(u, bounds_.Upper(c, ceilings));
  } else if (created || (c.evaluated_mask != known && c.stamp != 0)) {
    // A filed candidate whose known set grew moves to that set's group;
    // a held one is re-checked by the next TopK.
    groups_.File(c);
  }
  return c;
}

const Candidate& RankedPool::Probe(ObjectId u, PredicateId i, Score score) {
  Candidate* c = pool_.Find(u);
  NC_CHECK(c != nullptr);
  if (!c->IsEvaluated(i)) {
    c->SetScore(i, score);
    if (grouped_ && c->stamp != 0) groups_.File(*c);
  }
  return *c;
}

std::span<const RankedPool::Entry> RankedPool::TopK(
    size_t k, std::span<const Score> ceilings) {
  if (!grouped_) {
    return heap_.TopK(k, [&](ObjectId u) { return BoundOf(u, ceilings); });
  }
  const std::span<const Entry> topk =
      groups_.TopK(k, ceilings, pool_, pool_.size() < num_objects_);
  // The grouped bounds are the ones F itself gives.
  NC_DCHECK(std::all_of(topk.begin(), topk.end(), [&](const Entry& e) {
    return BoundOf(e.object, ceilings) == e.bound;
  }));
  return topk;
}

bool RankedPool::IsComplete(ObjectId object) const {
  const Candidate* c = pool_.Find(object);
  return c != nullptr && c->IsComplete(pool_.num_predicates());
}

std::optional<const Candidate*> RankedPool::FirstIncomplete(
    std::span<const Entry> topk) const {
  for (const Entry& e : topk) {
    if (e.object == kUnseenObject) return nullptr;
    const Candidate* c = pool_.Find(e.object);
    NC_CHECK(c != nullptr);
    if (!c->IsComplete(pool_.num_predicates())) return c;
  }
  return std::nullopt;
}

void RankedPool::Answer(std::span<const Entry> topk, TopKResult* out) {
  out->entries.clear();
  out->entries.reserve(topk.size());
  for (const Entry& e : topk) {
    out->entries.push_back(TopKEntry{e.object, e.bound});
  }
}

void RankedPool::Certify(const SourceSet& sources, size_t k,
                         std::span<const Score> ceilings,
                         TerminationReason reason, TopKResult* out) {
  std::vector<CertifiedRow> rows;
  Score unseen = kMinScore;
  for (const Entry& e : TopK(k + 1, ceilings)) {
    if (e.object == kUnseenObject) {
      unseen = e.bound;
      continue;
    }
    const Candidate* c = pool_.Find(e.object);
    NC_CHECK(c != nullptr);
    rows.push_back(CertifiedRow{e.object, bounds_.Lower(*c), e.bound});
  }
  SettleCertified(sources, rows, unseen, k, reason, out);
}

void SettleCertified(const SourceSet& sources,
                     const std::vector<CertifiedRow>& rows,
                     Score unseen_ceiling, size_t k, TerminationReason reason,
                     TopKResult* out) {
  BuildCertifiedResult(rows, unseen_ceiling, k, reason, out);
  if (obs::ShouldTrace(sources.tracer())) {
    sources.tracer()->RecordCertificate(
        TerminationReasonName(reason), out->certificate->epsilon,
        out->certificate->excluded_ceiling, sources.accrued_cost());
  }
}

}  // namespace nc
