// Per-object score state gathered during query processing.
//
// A Candidate records which predicates of an object have been determined
// (by a sorted hit or a random probe) and their exact scores. The
// maximal-possible score F-bar (Eq. 3) substitutes every undetermined
// predicate with its ceiling - the last-seen score l_i of the predicate's
// sorted stream (1.0 if the stream was never read).

#ifndef NC_CORE_CANDIDATE_H_
#define NC_CORE_CANDIDATE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/score.h"
#include "scoring/scoring_function.h"

namespace nc {

// Score state of one seen object. `scores` views the object's m predicate
// scores in its pool's storage; entries whose bit in `evaluated_mask` is
// unset are undefined.
//
// `stamp` belongs to RankedPool's grouped ranking under F = min
// (core/bound_heap.h): 1 + the index of the known-predicate group that
// files the candidate, or 0 while it is none's (a member of K_P's held
// set, or any candidate of a pool ranked by LazyBoundHeap). A group skips
// the items it still holds for a candidate that has since moved on.
struct Candidate {
  ObjectId id = 0;
  uint32_t stamp = 0;
  uint64_t evaluated_mask = 0;
  std::span<Score> scores;

  bool IsEvaluated(PredicateId i) const {
    return (evaluated_mask & (uint64_t{1} << i)) != 0;
  }

  void SetScore(PredicateId i, Score s) {
    NC_DCHECK(i < scores.size());
    scores[i] = s;
    evaluated_mask |= uint64_t{1} << i;
  }

  // True once every one of the m predicates is determined.
  bool IsComplete(size_t num_predicates) const {
    const uint64_t full = num_predicates == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << num_predicates) - 1;
    return (evaluated_mask & full) == full;
  }

  size_t NumEvaluated() const {
    return static_cast<size_t>(__builtin_popcountll(evaluated_mask));
  }
};
// The stamp fills the padding after `id`: a pool of 100k candidates
// costs no more than before it.
static_assert(sizeof(Candidate) == 32);

// Owns candidates with stable addresses, indexed densely by ObjectId.
//
// Creating a candidate allocates nothing of its own: records and scores
// live in fixed-size blocks (the deque's, and kBlockCandidates * m scores
// per score block), so growth never moves them. The index maps an
// ObjectId to its slot through pages of kIndexPage consecutive ids,
// allocated on first touch behind a directory of one word per page: a
// lookup is two array reads, and memory follows the objects a query sees
// rather than the size of the corpus.
class CandidatePool {
 public:
  explicit CandidatePool(size_t num_predicates)
      : num_predicates_(num_predicates) {
    NC_CHECK(num_predicates_ > 0 && num_predicates_ <= 64);
  }

  // Returns the candidate for `u`, creating it (with no evaluated
  // predicates) on first sight. Sets *created accordingly when non-null.
  Candidate& GetOrCreate(ObjectId u, bool* created = nullptr);

  // Returns the candidate for `u`, or nullptr if it was never seen.
  Candidate* Find(ObjectId u) {
    const uint32_t slot = SlotOf(u);
    return slot == 0 ? nullptr : &candidates_[slot - 1];
  }
  const Candidate* Find(ObjectId u) const {
    const uint32_t slot = SlotOf(u);
    return slot == 0 ? nullptr : &candidates_[slot - 1];
  }

  size_t size() const { return candidates_.size(); }
  size_t num_predicates() const { return num_predicates_; }

  // Iteration in creation order.
  auto begin() { return candidates_.begin(); }
  auto end() { return candidates_.end(); }
  auto begin() const { return candidates_.begin(); }
  auto end() const { return candidates_.end(); }

 private:
  static constexpr size_t kIndexPageBits = 4;
  static constexpr size_t kIndexPage = size_t{1} << kIndexPageBits;
  static constexpr size_t kBlockCandidates = 64;

  // Slot of `u` plus one; 0 when `u` was never seen.
  uint32_t SlotOf(ObjectId u) const {
    const size_t page = u >> kIndexPageBits;
    if (page >= directory_.size() || directory_[page] == 0) return 0;
    return slots_[(directory_[page] - 1) * kIndexPage +
                  (u & (kIndexPage - 1))];
  }

  size_t num_predicates_;
  // deque: stable element addresses across growth.
  std::deque<Candidate> candidates_;
  std::vector<std::unique_ptr<Score[]>> score_blocks_;
  // Per page of ids: its page number plus one, 0 while none was seen.
  std::vector<uint32_t> directory_;
  // Per id, page after page: its slot plus one, 0 when never seen.
  std::vector<uint32_t> slots_;
};

// Evaluates F-bounds for candidates; owns the scratch buffer so hot loops
// do not allocate.
class BoundEvaluator {
 public:
  explicit BoundEvaluator(const ScoringFunction* scoring)
      : scoring_(scoring), scratch_(scoring->arity()) {
    NC_CHECK(scoring_ != nullptr);
  }

  // Maximal-possible score: undetermined predicate i is read as
  // ceilings[i] (Eq. 3). ceilings.size() must equal the arity.
  Score Upper(const Candidate& c, std::span<const Score> ceilings);

  // Minimal-possible score: undetermined predicates read as 0 (used by
  // the NRA-style baselines).
  Score Lower(const Candidate& c);

  // Exact score of a complete candidate.
  Score Exact(const Candidate& c);

  const ScoringFunction& scoring() const { return *scoring_; }

 private:
  const ScoringFunction* scoring_;
  std::vector<Score> scratch_;
};

}  // namespace nc

#endif  // NC_CORE_CANDIDATE_H_
