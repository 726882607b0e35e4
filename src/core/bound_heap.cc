#include "core/bound_heap.h"

#include "access/source.h"
#include "obs/tracer.h"

namespace nc {

void LazyBoundHeap::Push(ObjectId object, Score bound) {
  PushLazy(Entry{bound, object});
}

void LazyBoundHeap::PushLazy(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Below);
}

void LazyBoundHeap::Hold(const Entry& e, size_t k) {
  held_.insert(std::upper_bound(held_.begin(), held_.end(), e, Above), e);
  if (held_.size() > k) {
    PushLazy(held_.back());
    held_.pop_back();
  }
}

RankedPool::RankedPool(const ScoringFunction* scoring, size_t num_objects,
                       bool seed_universe)
    : pool_(scoring->arity()), bounds_(scoring), num_objects_(num_objects) {
  // Nothing is known yet: every bound is F(1, ..., 1).
  const Score initial =
      scoring->Evaluate(std::vector<Score>(scoring->arity(), kMaxScore));
  if (seed_universe) {
    for (ObjectId u = 0; u < num_objects; ++u) {
      pool_.GetOrCreate(u);
      heap_.Push(u, initial);
    }
  } else if (num_objects > 0) {
    heap_.Push(kUnseenObject, initial);
  }
}

RankedPool::RankedPool(const ScoringFunction* scoring, size_t num_objects,
                       CandidatePool candidates,
                       std::span<const Score> ceilings)
    : pool_(std::move(candidates)),
      bounds_(scoring),
      num_objects_(num_objects) {
  NC_CHECK(pool_.num_predicates() == scoring->arity());
  for (const Candidate& c : pool_) heap_.Push(c.id, *BoundOf(c.id, ceilings));
  const std::optional<Score> unseen = BoundOf(kUnseenObject, ceilings);
  if (unseen.has_value()) heap_.Push(kUnseenObject, *unseen);
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

Candidate& RankedPool::Discover(
    PredicateId i, ObjectId u, Score score,
    std::span<const std::pair<PredicateId, Score>> bundled,
    std::span<const Score> ceilings) {
  bool created = false;
  Candidate& c = pool_.GetOrCreate(u, &created);
  if (!c.IsEvaluated(i)) c.SetScore(i, score);
  for (const auto& [predicate, s] : bundled) {
    if (!c.IsEvaluated(predicate)) c.SetScore(predicate, s);
  }
  if (created) heap_.Push(u, bounds_.Upper(c, ceilings));
  return c;
}

std::span<const RankedPool::Entry> RankedPool::TopK(
    size_t k, std::span<const Score> ceilings) {
  return heap_.TopK(k, [&](ObjectId u) { return BoundOf(u, ceilings); });
}

bool RankedPool::IsComplete(ObjectId object) const {
  const Candidate* c = pool_.Find(object);
  return c != nullptr && c->IsComplete(pool_.num_predicates());
}

std::optional<Candidate*> RankedPool::FirstIncomplete(
    std::span<const Entry> topk) {
  for (const Entry& e : topk) {
    if (e.object == kUnseenObject) return nullptr;
    Candidate* c = pool_.Find(e.object);
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
