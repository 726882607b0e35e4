#include "baselines/candidate_table.h"

#include <algorithm>
#include <span>

#include "common/check.h"

namespace nc {

std::vector<PredicateId> SortedCapable(const CostModel& model) {
  std::vector<PredicateId> out;
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (model.has_sorted(i)) out.push_back(i);
  }
  return out;
}

std::vector<PredicateId> RandomCapable(const CostModel& model) {
  std::vector<PredicateId> out;
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (model.has_random(i)) out.push_back(i);
  }
  return out;
}

CertifiedRow PartialRow(const SourceSet& sources,
                        const ScoringFunction& scoring, ObjectId object,
                        const std::vector<Score>& row, uint64_t known_mask) {
  const size_t m = row.size();
  std::vector<Score> filled(m);
  CertifiedRow out;
  out.object = object;
  for (PredicateId i = 0; i < m; ++i) {
    filled[i] = ((known_mask >> i) & 1) != 0 ? row[i] : 0.0;
  }
  out.lower = scoring.Evaluate(filled);
  for (PredicateId i = 0; i < m; ++i) {
    filled[i] = ((known_mask >> i) & 1) != 0 ? row[i] : sources.last_seen(i);
  }
  out.upper = scoring.Evaluate(filled);
  return out;
}

Status CompleteRow(SourceSet* sources, const ScoringFunction& scoring,
                   ObjectId object, PredicateId seen, std::vector<Score>* row,
                   std::vector<CertifiedRow>* rows) {
  uint64_t known = uint64_t{1} << seen;
  for (PredicateId j = 0; j < row->size(); ++j) {
    if (j == seen) continue;
    const Status status = sources->TryRandomAccess(j, object, &(*row)[j]);
    if (!status.ok()) {
      // Stopped mid-row: the object enters the answer with its partial
      // interval.
      rows->push_back(PartialRow(*sources, scoring, object, *row, known));
      return status;
    }
    known |= uint64_t{1} << j;
  }
  const Score exact = scoring.Evaluate(*row);
  rows->push_back(CertifiedRow{object, exact, exact});
  return Status::OK();
}

Status SettleRefusal(const Status& refusal, const SourceSet& sources,
                     const ScoringFunction& scoring, size_t k,
                     std::vector<CertifiedRow> rows, const CandidatePool* pool,
                     TopKResult* out) {
  NC_CHECK(!refusal.ok());
  if (refusal.code() != StatusCode::kResourceExhausted) return refusal;
  const std::span<const Score> ceilings = sources.last_seen();
  Score unseen = scoring.Evaluate(ceilings);
  if (pool != nullptr) {
    // A complete candidate's Lower and Upper both equal its exact score.
    BoundEvaluator bounds(&scoring);
    for (const Candidate& c : *pool) {
      rows.push_back(
          CertifiedRow{c.id, bounds.Lower(c), bounds.Upper(c, ceilings)});
    }
    if (pool->size() >= sources.num_objects()) unseen = kMinScore;
  }
  BuildCertifiedResult(rows, unseen, k, BudgetStopReason(sources), out);
  return Status::OK();
}

Status RequireUniformCapabilities(const SourceSet& sources, bool need_sorted,
                                  bool need_random, const char* algorithm) {
  const CostModel& model = sources.cost_model();
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (need_sorted && !model.has_sorted(i)) {
      return Status::Unsupported(std::string(algorithm) +
                                 " requires sorted access on predicate " +
                                 std::to_string(i));
    }
    if (need_random && !model.has_random(i)) {
      return Status::Unsupported(std::string(algorithm) +
                                 " requires random access on predicate " +
                                 std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace nc
