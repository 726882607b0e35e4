#include "core/reference.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/numeric.h"
#include "core/rank_order.h"

namespace nc {

namespace {

// The one slack CheckAnswer allows: (1 + epsilon) * score is a rounded
// product of a rounded quotient (CertifiedEpsilon), so a sound bound may
// miss the true score by an ulp or two.
constexpr double kEpsilonSlack = 1e-9;

bool EntryRanksAbove(const TopKEntry& a, const TopKEntry& b) {
  return RanksAbove(a.score, a.object, b.score, b.object);
}

// Every object with its true score, indexed by ObjectId.
std::vector<TopKEntry> ScoreAll(const Dataset& data,
                                const ScoringFunction& scoring) {
  NC_CHECK(scoring.arity() == data.num_predicates());
  const size_t m = data.num_predicates();
  std::vector<TopKEntry> all(data.num_objects());
  std::vector<Score> row(m);
  for (ObjectId u = 0; u < all.size(); ++u) {
    for (PredicateId i = 0; i < m; ++i) row[i] = data.score(u, i);
    all[u] = TopKEntry{u, scoring.Evaluate(row)};
  }
  return all;
}

// The top min(k, all.size()) entries of `all`, in rank order.
TopKResult TopOf(std::vector<TopKEntry> all, size_t k) {
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(),
                    EntryRanksAbove);
  TopKResult result;
  result.entries.assign(all.begin(), all.begin() + take);
  return result;
}

std::string Object(ObjectId u) { return "object " + std::to_string(u); }

std::string Rank(size_t r) { return "rank " + std::to_string(r) + ": "; }

// The promises of an answer without a certificate (see CheckAnswer).
std::string CheckExact(const std::vector<TopKEntry>& truth, size_t k,
                       const TopKResult& result, bool exact_scores) {
  const TopKResult oracle = TopOf(truth, k);
  if (result.entries.size() != oracle.entries.size()) {
    return std::to_string(result.entries.size()) +
           " entries where brute force returns " +
           std::to_string(oracle.entries.size());
  }
  // The returned objects at their true scores, ranked.
  std::vector<TopKEntry> returned;
  for (size_t r = 0; r < result.entries.size(); ++r) {
    const TopKEntry& e = result.entries[r];
    const Score true_score = truth[e.object].score;
    if (exact_scores ? e.score != true_score : !(e.score <= true_score)) {
      return Rank(r) + Object(e.object) + " reports " +
             FormatDouble(e.score) + " but its true score is " +
             FormatDouble(true_score);
    }
    returned.push_back(truth[e.object]);
  }
  if (!exact_scores) {
    std::sort(returned.begin(), returned.end(), EntryRanksAbove);
  }
  for (size_t r = 0; r < returned.size(); ++r) {
    if (returned[r].score != oracle.entries[r].score) {
      return Rank(r) + Object(returned[r].object) + " scores " +
             FormatDouble(returned[r].score) + " where brute force ranks " +
             Object(oracle.entries[r].object) + " at " +
             FormatDouble(oracle.entries[r].score);
    }
  }
  return "";
}

// The promises of a certified answer (see CheckAnswer).
std::string CheckCertified(const std::vector<TopKEntry>& truth,
                           const std::vector<bool>& returned,
                           const TopKResult& result) {
  const AnytimeCertificate& cert = *result.certificate;
  if (cert.intervals.size() != result.entries.size()) {
    return std::to_string(cert.intervals.size()) + " intervals for " +
           std::to_string(result.entries.size()) + " entries";
  }
  Score least_returned = kMaxScore;
  for (size_t r = 0; r < result.entries.size(); ++r) {
    const Score true_score = truth[result.entries[r].object].score;
    const ScoreInterval& interval = cert.intervals[r];
    if (!(interval.lower <= true_score && true_score <= interval.upper)) {
      return Rank(r) + Object(result.entries[r].object) + " has true score " +
             FormatDouble(true_score) + " outside its interval [" +
             FormatDouble(interval.lower) + ", " +
             FormatDouble(interval.upper) + "]";
    }
    least_returned = std::min(least_returned, true_score);
  }
  const bool epsilon_bounds = !result.entries.empty() &&
                              cert.epsilon !=
                                  std::numeric_limits<double>::infinity();
  const double epsilon_ceiling =
      (1.0 + cert.epsilon) * least_returned + kEpsilonSlack;
  for (const TopKEntry& other : truth) {
    if (returned[other.object]) continue;
    if (!(other.score <= cert.excluded_ceiling)) {
      return "excluded " + Object(other.object) + " has true score " +
             FormatDouble(other.score) + " above the excluded ceiling " +
             FormatDouble(cert.excluded_ceiling);
    }
    if (epsilon_bounds && !(other.score <= epsilon_ceiling)) {
      return "excluded " + Object(other.object) + " has true score " +
             FormatDouble(other.score) + " above (1 + epsilon " +
             FormatDouble(cert.epsilon) + ") * least returned true score " +
             FormatDouble(least_returned);
    }
  }
  return "";
}

}  // namespace

TopKResult BruteForceTopK(const Dataset& data, const ScoringFunction& scoring,
                          size_t k) {
  return TopOf(ScoreAll(data, scoring), k);
}

std::string CheckAnswer(const Dataset& data, const ScoringFunction& scoring,
                        size_t k, const TopKResult& result,
                        bool exact_scores) {
  const std::vector<TopKEntry> truth = ScoreAll(data, scoring);
  std::vector<bool> returned(truth.size(), false);
  for (const TopKEntry& e : result.entries) {
    if (e.object >= truth.size()) {
      return Object(e.object) + " is not among the dataset's " +
             std::to_string(truth.size()) + " objects";
    }
    if (returned[e.object]) return Object(e.object) + " is returned twice";
    returned[e.object] = true;
  }
  if (!result.certificate.has_value()) {
    return CheckExact(truth, k, result, exact_scores);
  }
  return CheckCertified(truth, returned, result);
}

}  // namespace nc
