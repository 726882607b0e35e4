// Top-k query output shared by the NC engine and all baseline algorithms,
// plus the certificate attached to early-terminated (anytime) answers.

#ifndef NC_CORE_RESULT_H_
#define NC_CORE_RESULT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/score.h"
#include "common/status.h"

namespace nc {

class SourceSet;

struct TopKEntry {
  ObjectId object = 0;
  Score score = 0.0;

  friend bool operator==(const TopKEntry& a, const TopKEntry& b) {
    return a.object == b.object && a.score == b.score;
  }
};

// Why a run stopped before reaching an exact answer.
enum class TerminationReason {
  kCostBudget,     // QueryBudget::max_cost reached.
  kDeadline,       // QueryBudget::deadline reached.
  kQuota,          // Every remaining choice needs a quota-spent predicate.
  kSourceFailure,  // Unrecoverable source death / persistent failures.
  kAccessCap,      // EngineOptions::max_accesses in best-effort mode.
  kTheta,          // theta-approximate halting (an intentional early stop).
};

// "CostBudget", "Deadline", ... for logs and trace events.
const char* TerminationReasonName(TerminationReason reason);

// Why the budget bars `sources` (access/budget.h), for every algorithm
// that stops on it: kCostBudget once the cost cap is spent, else
// kDeadline once the deadline passed on the sources' clock or `late` (a
// caller's own clock, the parallel makespan) says so, else kQuota - a
// per-predicate quota refused the access.
TerminationReason BudgetStopReason(const SourceSet& sources,
                                   bool late = false);

// Proven score interval for one returned entry: the object's aggregate
// score lies in [lower, upper]. For fully probed objects lower == upper.
struct ScoreInterval {
  Score lower = kMinScore;
  Score upper = kMaxScore;

  friend bool operator==(const ScoreInterval&,
                         const ScoreInterval&) = default;
};

// Precision guarantee attached to an early-terminated answer, in the
// theta-approximation sense of Fagin, Lotem & Naor: for every returned
// object y and every excluded object z,
//     (1 + epsilon) * score(y) >= score(z).
// epsilon is proven from the engine's own bounds - the smallest returned
// lower bound vs. the largest excluded upper bound - so it upper-bounds
// the true error without knowing the true scores. epsilon == 0 means the
// answer is provably a correct top-k (only the exact scores may be
// unresolved); epsilon == infinity means no multiplicative guarantee
// exists (the smallest returned lower bound is 0).
struct AnytimeCertificate {
  TerminationReason reason = TerminationReason::kSourceFailure;
  double epsilon = 0.0;
  // Largest possible score of any object *not* returned (including the
  // unseen remainder of the sorted streams).
  Score excluded_ceiling = kMinScore;
  // One interval per result entry, parallel to TopKResult::entries.
  std::vector<ScoreInterval> intervals;

  std::string ToString() const;

  // Exact, field by field: two runs that certify the same answer carry
  // equal certificates, with no tolerance on any bound.
  friend bool operator==(const AnytimeCertificate&,
                         const AnytimeCertificate&) = default;
};

// The answer to a top-k query: entries ranked by descending score, ties by
// descending ObjectId (the deterministic tie-breaker of Section 3.1).
// Contains min(k, n) entries. Early-terminated runs carry a certificate;
// exact runs leave it empty.
struct TopKResult {
  std::vector<TopKEntry> entries;
  std::optional<AnytimeCertificate> certificate;

  // "u12:0.91 u3:0.87 ..." for logs and examples.
  std::string ToString() const;

  // Equality is over the ranked entries only: two runs that reach the
  // same answer compare equal even if one terminated early. Compare the
  // certificates too (a.certificate == b.certificate) for the whole answer.
  friend bool operator==(const TopKResult& a, const TopKResult& b) {
    return a.entries == b.entries;
  }
};

// One candidate row for assembling a certified answer: the object's
// proven score interval at the moment the run stopped.
struct CertifiedRow {
  ObjectId object = 0;
  Score lower = kMinScore;
  Score upper = kMaxScore;
};

// The one certificate builder, for the engines and the baselines alike.
// Assembles a certified anytime TopKResult from candidate rows: ranks all
// rows by upper bound (RanksAbove, the maximal-possible order the engines
// use; rows already in that order stay in place), keeps the top k as
// entries scored by their upper bound, and folds the rest - plus
// `unseen_ceiling`, the largest possible score of any never-seen object -
// into the certificate's excluded ceiling and epsilon.
void BuildCertifiedResult(const std::vector<CertifiedRow>& rows,
                          Score unseen_ceiling, size_t k,
                          TerminationReason reason, TopKResult* out);

}  // namespace nc

#endif  // NC_CORE_RESULT_H_
