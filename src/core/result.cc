#include "core/result.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "access/source.h"
#include "common/check.h"
#include "core/rank_order.h"

namespace nc {

namespace {

// The proven epsilon for a returned set whose smallest lower bound is
// `min_lower` against excluded objects bounded by `excluded_ceiling`.
double CertifiedEpsilon(Score min_lower, Score excluded_ceiling) {
  if (excluded_ceiling <= 0.0) return 0.0;
  if (min_lower <= 0.0) return std::numeric_limits<double>::infinity();
  const double epsilon = excluded_ceiling / min_lower - 1.0;
  return epsilon > 0.0 ? epsilon : 0.0;
}

}  // namespace

const char* TerminationReasonName(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kCostBudget:
      return "CostBudget";
    case TerminationReason::kDeadline:
      return "Deadline";
    case TerminationReason::kQuota:
      return "Quota";
    case TerminationReason::kSourceFailure:
      return "SourceFailure";
    case TerminationReason::kAccessCap:
      return "AccessCap";
    case TerminationReason::kTheta:
      return "Theta";
  }
  return "Unknown";
}

TerminationReason BudgetStopReason(const SourceSet& sources, bool late) {
  if (sources.cost_budget_exhausted()) return TerminationReason::kCostBudget;
  if (sources.deadline_exceeded() || late) {
    return TerminationReason::kDeadline;
  }
  return TerminationReason::kQuota;
}

std::string AnytimeCertificate::ToString() const {
  std::ostringstream os;
  os << TerminationReasonName(reason) << " eps=";
  if (std::isinf(epsilon)) {
    os << "inf";
  } else {
    os << epsilon;
  }
  os << " excluded<=" << excluded_ceiling;
  return os.str();
}

std::string TopKResult::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) os << " ";
    os << "u" << entries[i].object << ":" << entries[i].score;
  }
  if (certificate.has_value()) {
    if (!entries.empty()) os << " ";
    os << "[" << certificate->ToString() << "]";
  }
  return os.str();
}

void BuildCertifiedResult(const std::vector<CertifiedRow>& rows,
                          Score unseen_ceiling, size_t k,
                          TerminationReason reason, TopKResult* out) {
  NC_CHECK(out != nullptr);
  std::vector<CertifiedRow> ranked = rows;
  std::sort(ranked.begin(), ranked.end(),
            [](const CertifiedRow& a, const CertifiedRow& b) {
              return RanksAbove(a.upper, a.object, b.upper, b.object);
            });

  out->entries.clear();
  AnytimeCertificate certificate;
  certificate.reason = reason;
  certificate.excluded_ceiling = unseen_ceiling;

  Score min_lower = kMaxScore;
  const size_t taken = std::min(k, ranked.size());
  for (size_t i = 0; i < taken; ++i) {
    const CertifiedRow& row = ranked[i];
    NC_DCHECK(row.lower <= row.upper);
    out->entries.push_back({row.object, row.upper});
    certificate.intervals.push_back({row.lower, row.upper});
    min_lower = std::min(min_lower, row.lower);
  }
  for (size_t i = taken; i < ranked.size(); ++i) {
    certificate.excluded_ceiling =
        std::max(certificate.excluded_ceiling, ranked[i].upper);
  }
  if (taken == 0) min_lower = kMinScore;
  certificate.epsilon =
      CertifiedEpsilon(min_lower, certificate.excluded_ceiling);
  out->certificate = certificate;
}

}  // namespace nc
