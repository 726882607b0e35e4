// Monotonic scoring functions F(p_1, ..., p_m) -> [0, 1] (Section 3.1).
//
// Monotonicity is the only structural assumption the NC framework makes:
// it lets the engine compute an object's maximal-possible score by
// substituting each unevaluated predicate with its current upper bound
// (Eq. 3). The library ships the aggregates the paper uses (min for Query
// Q1, avg for Query Q2) plus the common middleware aggregates; users can
// subclass ScoringFunction for arbitrary monotone combinations.

#ifndef NC_SCORING_SCORING_FUNCTION_H_
#define NC_SCORING_SCORING_FUNCTION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/score.h"

namespace nc {

// Interface for a monotone aggregate over `arity` predicate scores.
// Implementations must be monotonic: raising any input never lowers the
// output (the property tests in tests/scoring_function_test.cc sweep it).
class ScoringFunction {
 public:
  virtual ~ScoringFunction() = default;

  // Evaluates F at `x`; x.size() must equal arity(). Inputs and result are
  // in [0, 1].
  virtual Score Evaluate(std::span<const Score> x) const = 0;

  virtual size_t arity() const = 0;

  // Short label for reports, e.g. "min", "avg", "wsum(0.3,0.7)".
  virtual std::string name() const = 0;

  // True when Evaluate returns min_i x_i, always one of its inputs, so a
  // bound is bit-exactly the smaller of a known minimum and a ceiling.
  // RankedPool (core/bound_heap.h) then ranks candidates in groups by
  // known predicates instead of re-evaluating each bound as a ceiling
  // falls. Only MinFunction says so.
  virtual bool IsMin() const { return false; }
};

// F = min(x_1..x_m): the fuzzy-conjunction semantics of Query Q1.
class MinFunction final : public ScoringFunction {
 public:
  explicit MinFunction(size_t arity);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return arity_; }
  std::string name() const override { return "min"; }
  bool IsMin() const override { return true; }

 private:
  size_t arity_;
};

// F = max(x_1..x_m): fuzzy disjunction.
class MaxFunction final : public ScoringFunction {
 public:
  explicit MaxFunction(size_t arity);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return arity_; }
  std::string name() const override { return "max"; }

 private:
  size_t arity_;
};

// F = (x_1 + ... + x_m) / m: Query Q2's avg.
class AverageFunction final : public ScoringFunction {
 public:
  explicit AverageFunction(size_t arity);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return arity_; }
  std::string name() const override { return "avg"; }

 private:
  size_t arity_;
};

// F = sum_i w_i x_i with w_i >= 0 and sum w_i = 1 (weights are normalized
// at construction so the result stays in [0, 1]).
class WeightedSumFunction final : public ScoringFunction {
 public:
  explicit WeightedSumFunction(std::vector<double> weights);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return weights_.size(); }
  std::string name() const override;
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
};

// F = prod_i x_i: probabilistic-AND.
class ProductFunction final : public ScoringFunction {
 public:
  explicit ProductFunction(size_t arity);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return arity_; }
  std::string name() const override { return "product"; }

 private:
  size_t arity_;
};

// F = (prod_i x_i)^(1/m): geometric mean.
class GeometricMeanFunction final : public ScoringFunction {
 public:
  explicit GeometricMeanFunction(size_t arity);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return arity_; }
  std::string name() const override { return "geomean"; }

 private:
  size_t arity_;
};

// F = t-th smallest of x_1..x_m ("at least m - t + 1 criteria must
// hold"): quota semantics. t = 1 is min, t = m is max. Monotone: raising
// any coordinate never lowers an order statistic.
class OrderStatisticFunction final : public ScoringFunction {
 public:
  // `t` is 1-based and must be in [1, arity]; `arity` is at most
  // kMaxArity, SourceSet's own predicate limit.
  static constexpr size_t kMaxArity = 64;
  OrderStatisticFunction(size_t arity, size_t t);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return arity_; }
  std::string name() const override;
  size_t t() const { return t_; }

 private:
  size_t arity_;
  size_t t_;
};

// F = min_i max(x_i, 1 - w_i): Fagin's weighted fuzzy conjunction. A
// predicate with weight 1 must fully hold; weight 0 removes it (its term
// is always 1). Weights are in [0, 1] and are not normalized.
class WeightedMinFunction final : public ScoringFunction {
 public:
  explicit WeightedMinFunction(std::vector<double> weights);
  Score Evaluate(std::span<const Score> x) const override;
  size_t arity() const override { return weights_.size(); }
  std::string name() const override;
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
};

// Named constructors used by benchmarks and the registry.
enum class ScoringKind {
  kMin,
  kMax,
  kAverage,
  kProduct,
  kGeometricMean,
};

std::unique_ptr<ScoringFunction> MakeScoringFunction(ScoringKind kind,
                                                     size_t arity);

// Numeric forward-difference dF/dx_i at `x`, clamped to the unit cube.
// Used by the Quick-Combine / Stream-Combine baselines' indicators (and
// only by them; the NC optimizer deliberately does not rely on
// derivatives, which the paper notes do not exist usefully for min).
double PartialDerivative(const ScoringFunction& f, std::span<const Score> x,
                         PredicateId i, double step = 1e-3);

}  // namespace nc

#endif  // NC_SCORING_SCORING_FUNCTION_H_
