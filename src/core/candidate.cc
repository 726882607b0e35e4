#include "core/candidate.h"

namespace nc {

Candidate& CandidatePool::GetOrCreate(ObjectId u, bool* created) {
  NC_DCHECK(u != kUnseenObject);
  const size_t page = u >> kIndexPageBits;
  if (page >= directory_.size()) directory_.resize(page + 1, 0);
  if (directory_[page] == 0) {
    slots_.resize(slots_.size() + kIndexPage, 0);
    directory_[page] = static_cast<uint32_t>(slots_.size() / kIndexPage);
  }
  uint32_t& slot =
      slots_[(directory_[page] - 1) * kIndexPage + (u & (kIndexPage - 1))];
  const bool inserted = slot == 0;
  if (inserted) {
    const size_t index = candidates_.size();
    if (index % kBlockCandidates == 0) {
      score_blocks_.push_back(
          std::make_unique<Score[]>(kBlockCandidates * num_predicates_));
    }
    Candidate& c = candidates_.emplace_back();
    c.id = u;
    c.scores = std::span<Score>(
        score_blocks_.back().get() +
            (index % kBlockCandidates) * num_predicates_,
        num_predicates_);
    slot = static_cast<uint32_t>(index + 1);
  }
  if (created != nullptr) *created = inserted;
  return candidates_[slot - 1];
}

Score BoundEvaluator::Upper(const Candidate& c,
                            std::span<const Score> ceilings) {
  NC_DCHECK(ceilings.size() == scratch_.size());
  NC_DCHECK(c.scores.size() == scratch_.size());
  for (size_t i = 0; i < scratch_.size(); ++i) {
    scratch_[i] = c.IsEvaluated(static_cast<PredicateId>(i)) ? c.scores[i]
                                                             : ceilings[i];
  }
  return scoring_->Evaluate(scratch_);
}

Score BoundEvaluator::Lower(const Candidate& c) {
  NC_DCHECK(c.scores.size() == scratch_.size());
  for (size_t i = 0; i < scratch_.size(); ++i) {
    scratch_[i] =
        c.IsEvaluated(static_cast<PredicateId>(i)) ? c.scores[i] : kMinScore;
  }
  return scoring_->Evaluate(scratch_);
}

Score BoundEvaluator::Exact(const Candidate& c) {
  NC_DCHECK(c.IsComplete(scratch_.size()));
  return scoring_->Evaluate(c.scores);
}

}  // namespace nc
