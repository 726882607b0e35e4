// Theorem 1's ranked pool, and the two rankings it keeps K_P with: a
// lazy max-heap over maximal-possible scores for any monotone F, and
// known-predicate groups for F = min.
//
// RankedPool is the one place K_P is derived: NCEngine (sequential or
// windowed), Framework TG, Upper, MPro and NRA's exact mode all halt on
// it, each with its own scheduling. It owns the candidates a run has seen,
// their bound evaluator and the ranking, plus the virtual unseen object
// that stands for every object no sorted access has returned yet.
//
// Upper bounds in top-k processing only ever decrease (F is monotone, the
// ceilings fall, and an exact score never exceeds the bound it replaces).
// LazyBoundHeap exploits this: cached priorities are stale-high, so the
// entry at the root is the true maximum iff its recomputed bound matches
// its cached one; otherwise it goes back with the fresh bound and the
// search continues. This is MPro's queue trick.
//
// K_P is re-derived before every access, and between two accesses it
// barely moves. So the entries the last TopK call verified stay out of
// the heap, in a rank-ordered held set. Each call re-checks every held
// member with one bound evaluation, then pops the heap only while its
// root's cached bound ranks above the weakest member. A popped entry that
// makes the cut displaces the weakest member into the heap at its exact
// bound; one that does not goes back with its fresh bound. An iteration
// costs k bound evaluations plus the heap operations the moved bounds
// require, instead of popping and reinserting k entries.
//
// Under F = min the lazy heap storms. A candidate's bound is min(key, C):
// key is the minimum of its known scores, C the minimum ceiling over its
// missing predicates. Every candidate whose key is at or above a ceiling
// ties at it, so each sorted access that lowers l_i sends every one of
// them through a stale pop. MinGroupRanking instead files candidates in
// groups keyed by their known-predicate mask - the candidate lattice of
// LARA (Mamoulis et al., TODS 2007), which refines the NRA bookkeeping of
// Fagin, Lotem and Naor. A group's members share C, so two orders rank
// them exactly and never go stale as C falls: the members with key >= C
// tie at C and sit in a max-heap by ObjectId; the rest sit in a heap by
// (key, ObjectId). A member crosses from the second to the first at most
// once. TopK keeps the held-set algorithm above, with the group heads in
// place of the heap's root, so an iteration costs k re-checks plus a few
// head comparisons per group, however many candidates tie.
//
// Only min is grouped: it returns one of its inputs, so min(key, C) is
// bit-exactly the bound Evaluate gives. Under avg, sum and the other
// aggregates rounding makes the known-sum order inexact near ties, so they
// keep the lazy heap. ScoringFunction::IsMin() chooses.
//
// Each live object has exactly one entry, ordered by the library-wide
// rank order (core/rank_order.h): ties by descending ObjectId, except that
// the virtual unseen object (id = kUnseenObject) ranks below any seen
// object with an equal bound - a hit object immediately surfaces above
// `unseen` (the paper's Figure 10).

#ifndef NC_CORE_BOUND_HEAP_H_
#define NC_CORE_BOUND_HEAP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/score.h"
#include "core/candidate.h"
#include "core/rank_order.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

// An object, or the unseen sentinel, at a bound, in the library-wide rank
// order.
struct RankedEntry {
  Score bound = 0.0;
  ObjectId object = 0;

  static bool Above(const RankedEntry& a, const RankedEntry& b) {
    return RanksAbove(a.bound, a.object, b.bound, b.object);
  }
  // "Less" for std::push_heap/pop_heap, keeping the top-ranked entry at
  // the root.
  static bool Below(const RankedEntry& a, const RankedEntry& b) {
    return Above(b, a);
  }
};

// The held set both rankings keep outside their heaps (see the top of this
// file): the last verified top-k, in rank order, at exact bounds as of the
// call that verified them. A member leaves K_P through the ranking's
// release action (back to the lazy heap, into its group, or the sentinel
// outside), so the sentinel retires on the same call under either ranking
// and RankedPool::size() (the tracer's heap_size) agrees.
class HeldSet {
 public:
  using Entry = RankedEntry;

  // Re-checks every member with one bound evaluation, restores rank order
  // and releases the members past k (a smaller k than last time: the
  // certificate's k + 1, then k again). `bound_fn(object)` returns the
  // member's current bound as a std::optional<Score>, never above its held
  // one; nullopt retires it (the unseen sentinel once every object has
  // been seen).
  template <typename BoundFn, typename ReleaseFn>
  void Recheck(size_t k, BoundFn&& bound_fn, ReleaseFn&& release) {
    size_t live = 0;
    for (const Entry& e : entries_) {
      const std::optional<Score> current = bound_fn(e.object);
      if (!current.has_value()) continue;  // Retired.
      NC_DCHECK(*current <= e.bound);
      entries_[live++] = Entry{*current, e.object};
    }
    entries_.resize(live);
    // Bounds fall a little between calls, so the members are nearly sorted.
    for (size_t i = 1; i < entries_.size(); ++i) {
      for (size_t j = i; j > 0 && Entry::Above(entries_[j], entries_[j - 1]);
           --j) {
        std::swap(entries_[j], entries_[j - 1]);
      }
    }
    ReleasePast(k, release);
  }

  // True when `e` makes the cut: fewer than k members, or it ranks above
  // the weakest.
  bool Admits(const Entry& e, size_t k) const {
    return entries_.size() < k ||
           (!entries_.empty() && Entry::Above(e, entries_.back()));
  }

  // Inserts `e` at its rank; a member pushed past k is released.
  template <typename ReleaseFn>
  void Hold(const Entry& e, size_t k, ReleaseFn&& release) {
    Insert(e);
    ReleasePast(k, release);
  }

  std::span<const Entry> entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  // Out of line: the rank search and the vector's insert stay off
  // TopK's hot loop.
  void Insert(const Entry& e);

  template <typename ReleaseFn>
  void ReleasePast(size_t k, ReleaseFn&& release) {
    while (entries_.size() > k) {
      release(entries_.back());
      entries_.pop_back();
    }
  }

  std::vector<Entry> entries_;
};

class LazyBoundHeap {
 public:
  using Entry = RankedEntry;

  // Adds an entry. The caller guarantees the object is not already
  // present.
  void Push(ObjectId object, Score bound);

  // Re-derives the top-k by current bound and returns it in rank order;
  // fewer than k entries only when fewer are live. The span stays valid
  // until the next TopK call or assignment (Push does not disturb it).
  //
  // `bound_fn(object)` returns the object's current bound as a
  // std::optional<Score>, never above the bound the entry was pushed with
  // or last given; nullopt retires the entry (the unseen sentinel once
  // every object has been seen).
  template <typename BoundFn>
  std::span<const Entry> TopK(size_t k, BoundFn&& bound_fn);

  size_t size() const { return held_.size() + heap_.size(); }

 private:
  void PushLazy(const Entry& e);

  HeldSet held_;
  // Everything else, as a max-heap under Entry::Below.
  std::vector<Entry> heap_;
};

template <typename BoundFn>
std::span<const LazyBoundHeap::Entry> LazyBoundHeap::TopK(
    size_t k, BoundFn&& bound_fn) {
  const auto release = [this](const Entry& e) { PushLazy(e); };
  held_.Recheck(k, bound_fn, release);
  // The root's cached bound caps every current bound in the heap, so once
  // it ranks below the weakest member the held set is the top-k.
  while (!heap_.empty() && held_.Admits(heap_.front(), k)) {
    std::pop_heap(heap_.begin(), heap_.end(), Entry::Below);
    Entry e = heap_.back();
    heap_.pop_back();
    const std::optional<Score> current = bound_fn(e.object);
    if (!current.has_value()) continue;  // Retired.
    NC_DCHECK(*current <= e.bound);
    e.bound = *current;
    if (held_.Admits(e, k)) {
      held_.Hold(e, k, release);
    } else {
      PushLazy(e);  // Stale: back with its fresh bound.
    }
  }
  return held_.entries();
}

// K_P under F = min, in groups keyed by known-predicate mask (see the top
// of this file). Candidate bounds are exact and computed here. The unseen
// sentinel alone keeps a cached bound, as LazyBoundHeap caches it: it is
// re-checked when it ranks above the final weakest member, or while the
// held set is short of k and fewer candidates rank above it - exactly the
// calls on which the lazy heap would pop it - so it retires on the same
// call and RankedPool::size() (the tracer's heap_size) matches.
class MinGroupRanking {
 public:
  using Entry = RankedEntry;

  explicit MinGroupRanking(size_t num_predicates);

  // Files `c`, which is not in the held set, in the group of its current
  // known set; any item an earlier group holds for it goes stale.
  void File(Candidate& c);

  // Ranks the unseen sentinel at `bound`.
  void AddUnseen(Score bound);
  bool has_unseen() const { return unseen_ != Unseen::kRetired; }

  // K_P as LazyBoundHeap::TopK derives it. `pool` holds every filed and
  // held candidate; `unseen_remains` false retires the sentinel at its
  // next re-check.
  std::span<const Entry> TopK(size_t k, std::span<const Score> ceilings,
                              CandidatePool& pool, bool unseen_remains);

 private:
  struct Group {
    uint64_t mask = 0;  // The known predicates.
    // C: the lowest ceiling over the missing predicates (+inf when none).
    Score ceiling = 0.0;
    // Members with key >= C, tied at C: a max-heap by ObjectId.
    std::vector<ObjectId> tied;
    // Members with key < C, at bound = key: a max-heap under Entry::Below.
    std::vector<Entry> below;
  };
  enum class Unseen { kRetired, kOutside, kHeld };

  // The lowest ceiling over the predicates `mask` leaves out.
  Score MissingCeiling(uint64_t mask) const;
  // The lowest known score (+inf when none is known).
  static Score KeyOf(const Candidate& c);
  // min(key, C), bit-exactly MinFunction::Evaluate of the Eq. 3 vector.
  Score BoundOf(const Candidate& c) const;
  uint32_t GroupOf(uint64_t mask);
  void PushTied(Group& g, ObjectId u);
  void PushBelow(Group& g, const Entry& e);
  // Takes the group's C from ceilings_ (C never rises) and moves every
  // live member whose key reached it to the tied heap.
  void Settle(uint32_t g, const CandidatePool& pool);
  // The group's best live member at its exact bound, after dropping stale
  // items off both heaps; nullopt when none is left.
  std::optional<Entry> Head(uint32_t g, const CandidatePool& pool);
  void PopHead(uint32_t g);
  // A held member leaves K_P: back to its group, or the sentinel outside
  // at its current bound.
  void Release(const Entry& e, CandidatePool& pool);

  uint64_t all_predicates_;
  // The ceilings l_i as of the last TopK (+inf before the first).
  std::vector<Score> ceilings_;
  std::vector<Group> groups_;
  HeldSet held_;
  Unseen unseen_ = Unseen::kRetired;
  // The sentinel's bound as of its last re-check, while kOutside.
  Score unseen_bound_ = 0.0;
};

// K_P and the candidates behind it. Every bound is taken against a ceiling
// vector the caller passes in and that never rises between calls: the
// last-seen scores l_i (SourceSet::last_seen()) for the sequential
// algorithms, the contiguous-prefix visible ceilings for NCEngine's
// in-flight window.
class RankedPool {
 public:
  using Entry = RankedEntry;

  // A fresh pool. With `seed_universe` every object below `num_objects`
  // is a candidate from the start (nothing could discover one); otherwise
  // the unseen sentinel stands for the objects no sorted access has
  // returned, and retires once all of them have been.
  RankedPool(const ScoringFunction* scoring, size_t num_objects,
             bool seed_universe);

  // A restored pool: `candidates` ranked at their bounds against
  // `ceilings`, plus the sentinel while objects remain unseen (a seeded
  // universe leaves none).
  RankedPool(const ScoringFunction* scoring, size_t num_objects,
             CandidatePool candidates, std::span<const Score> ceilings);

  // Read-only: a candidate learns a score only through Discover or Probe,
  // which keep its rank current.
  const CandidatePool& candidates() const { return pool_; }
  BoundEvaluator& bounds() { return bounds_; }
  // Ranked entries, the sentinel included.
  size_t size() const {
    if (!grouped_) return heap_.size();
    return pool_.size() + (groups_.has_unseen() ? 1 : 0);
  }

  // Discovery: folds a sorted hit of `u` on predicate `i` into u's
  // candidate - p_i[u] = `score` and a multi-attribute source's `bundled`
  // scores, each unless already known. On first sight the candidate is
  // created and ranked at its bound against `ceilings`.
  const Candidate& Discover(
      PredicateId i, ObjectId u, Score score,
      std::span<const std::pair<PredicateId, Score>> bundled,
      std::span<const Score> ceilings);

  // A random probe's result: p_i[u] = `score` unless already known. `u`
  // must be a candidate.
  const Candidate& Probe(ObjectId u, PredicateId i, Score score);

  // K_P: the top k in rank order by current bound against `ceilings` -
  // a complete candidate's exact score, an incomplete one's maximal-
  // possible score (Eq. 3), the sentinel's F(ceilings). Fewer than k only
  // when fewer are live. Valid until the next TopK or Certify.
  std::span<const Entry> TopK(size_t k, std::span<const Score> ceilings);

  // True once `object` is completely evaluated; never for the sentinel.
  bool IsComplete(ObjectId object) const;

  // Theorem 1's test over `topk`: nullopt when every member is complete
  // (Answer then writes the result); otherwise the highest-ranked
  // incomplete member, whose task is unsatisfied - its candidate, or
  // nullptr for the sentinel.
  std::optional<const Candidate*> FirstIncomplete(
      std::span<const Entry> topk) const;

  // Writes a complete K_P as the exact answer: a complete member's bound
  // is its exact score.
  static void Answer(std::span<const Entry> topk, TopKResult* out);

  // Settles on the current top k with an AnytimeCertificate, through
  // SettleCertified. Ranking k + 1 entries verifies one bound past the
  // answer, and every entry outside them ranks below it, so the excluded
  // ceiling is sound without a rescan; the sentinel (no concrete object)
  // is the unseen ceiling. Scores are upper bounds.
  void Certify(const SourceSet& sources, size_t k,
               std::span<const Score> ceilings, TerminationReason reason,
               TopKResult* out);

 private:
  // nullopt retires the sentinel once every object has been seen.
  std::optional<Score> BoundOf(ObjectId u, std::span<const Score> ceilings);
  void AddUnseen(Score bound);

  CandidatePool pool_;
  BoundEvaluator bounds_;
  size_t num_objects_;
  // F = min (ScoringFunction::IsMin): groups_ ranks; otherwise heap_.
  bool grouped_;
  LazyBoundHeap heap_;
  MinGroupRanking groups_;
};

// Settles a run with BuildCertifiedResult over `rows` (in rank order)
// and records the certificate event on the sources' tracer. Both engines
// certify through it.
void SettleCertified(const SourceSet& sources,
                     const std::vector<CertifiedRow>& rows,
                     Score unseen_ceiling, size_t k, TerminationReason reason,
                     TopKResult* out);

}  // namespace nc

#endif  // NC_CORE_BOUND_HEAP_H_
