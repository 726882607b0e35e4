#include "scoring/scoring_function.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace nc {

MinFunction::MinFunction(size_t arity) : arity_(arity) {
  NC_CHECK(arity > 0);
}

Score MinFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == arity_);
  Score lowest = x[0];
  for (size_t i = 1; i < x.size(); ++i) lowest = std::min(lowest, x[i]);
  return lowest;
}

MaxFunction::MaxFunction(size_t arity) : arity_(arity) {
  NC_CHECK(arity > 0);
}

Score MaxFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == arity_);
  Score highest = x[0];
  for (size_t i = 1; i < x.size(); ++i) highest = std::max(highest, x[i]);
  return highest;
}

AverageFunction::AverageFunction(size_t arity) : arity_(arity) {
  NC_CHECK(arity > 0);
}

Score AverageFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == arity_);
  Score total = 0.0;
  for (Score v : x) total += v;
  return total / static_cast<Score>(x.size());
}

WeightedSumFunction::WeightedSumFunction(std::vector<double> weights)
    : weights_(std::move(weights)) {
  NC_CHECK(!weights_.empty());
  double total = 0.0;
  for (double w : weights_) {
    NC_CHECK(w >= 0.0);
    total += w;
  }
  NC_CHECK(total > 0.0);
  for (double& w : weights_) w /= total;
}

Score WeightedSumFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == weights_.size());
  Score total = 0.0;
  for (size_t i = 0; i < x.size(); ++i) total += weights_[i] * x[i];
  return ClampScore(total);
}

std::string WeightedSumFunction::name() const {
  std::ostringstream os;
  os << "wsum(";
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (i > 0) os << ",";
    os << weights_[i];
  }
  os << ")";
  return os.str();
}

ProductFunction::ProductFunction(size_t arity) : arity_(arity) {
  NC_CHECK(arity > 0);
}

Score ProductFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == arity_);
  Score total = 1.0;
  for (Score v : x) total *= v;
  return total;
}

GeometricMeanFunction::GeometricMeanFunction(size_t arity) : arity_(arity) {
  NC_CHECK(arity > 0);
}

Score GeometricMeanFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == arity_);
  Score total = 1.0;
  for (Score v : x) total *= v;
  return std::pow(total, 1.0 / static_cast<double>(arity_));
}

OrderStatisticFunction::OrderStatisticFunction(size_t arity, size_t t)
    : arity_(arity), t_(t) {
  NC_CHECK(arity > 0 && arity <= kMaxArity);
  NC_CHECK(t >= 1 && t <= arity);
}

Score OrderStatisticFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == arity_);
  // Selection on a stack copy, so a bound evaluation allocates nothing.
  Score copy[kMaxArity] = {};
  std::copy(x.begin(), x.end(), copy);
  std::nth_element(copy, copy + (t_ - 1), copy + x.size());
  return copy[t_ - 1];
}

std::string OrderStatisticFunction::name() const {
  return "orderstat(" + std::to_string(t_) + "/" + std::to_string(arity_) +
         ")";
}

WeightedMinFunction::WeightedMinFunction(std::vector<double> weights)
    : weights_(std::move(weights)) {
  NC_CHECK(!weights_.empty());
  for (double w : weights_) {
    NC_CHECK(w >= 0.0 && w <= 1.0);
  }
}

Score WeightedMinFunction::Evaluate(std::span<const Score> x) const {
  NC_DCHECK(x.size() == weights_.size());
  Score lowest = kMaxScore;
  for (size_t i = 0; i < x.size(); ++i) {
    lowest = std::min(lowest, std::max(x[i], 1.0 - weights_[i]));
  }
  return lowest;
}

std::string WeightedMinFunction::name() const {
  std::ostringstream os;
  os << "wmin(";
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (i > 0) os << ",";
    os << weights_[i];
  }
  os << ")";
  return os.str();
}

std::unique_ptr<ScoringFunction> MakeScoringFunction(ScoringKind kind,
                                                     size_t arity) {
  switch (kind) {
    case ScoringKind::kMin:
      return std::make_unique<MinFunction>(arity);
    case ScoringKind::kMax:
      return std::make_unique<MaxFunction>(arity);
    case ScoringKind::kAverage:
      return std::make_unique<AverageFunction>(arity);
    case ScoringKind::kProduct:
      return std::make_unique<ProductFunction>(arity);
    case ScoringKind::kGeometricMean:
      return std::make_unique<GeometricMeanFunction>(arity);
  }
  NC_CHECK(false);
  return nullptr;
}

double PartialDerivative(const ScoringFunction& f, std::span<const Score> x,
                         PredicateId i, double step) {
  NC_CHECK(i < x.size());
  NC_CHECK(step > 0.0);
  std::vector<Score> probe(x.begin(), x.end());
  // Difference within the unit cube: step down if at the ceiling.
  const double hi = std::min(kMaxScore, probe[i] + step);
  const double lo = std::max(kMinScore, probe[i] - step);
  if (hi == lo) return 0.0;
  probe[i] = hi;
  const Score f_hi = f.Evaluate(probe);
  probe[i] = lo;
  const Score f_lo = f.Evaluate(probe);
  return (f_hi - f_lo) / (hi - lo);
}

}  // namespace nc
