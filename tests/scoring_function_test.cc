#include "scoring/scoring_function.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace nc {
namespace {

TEST(ScoringFunctionTest, MinEvaluates) {
  MinFunction f(3);
  const std::vector<Score> x{0.5, 0.2, 0.9};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), 0.2);
  EXPECT_EQ(f.name(), "min");
  EXPECT_EQ(f.arity(), 3u);
}

TEST(ScoringFunctionTest, MaxEvaluates) {
  MaxFunction f(3);
  const std::vector<Score> x{0.5, 0.2, 0.9};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), 0.9);
}

TEST(ScoringFunctionTest, AverageEvaluates) {
  AverageFunction f(4);
  const std::vector<Score> x{0.2, 0.4, 0.6, 0.8};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), 0.5);
}

TEST(ScoringFunctionTest, WeightedSumNormalizesWeights) {
  WeightedSumFunction f({2.0, 6.0});  // Normalizes to 0.25, 0.75.
  const std::vector<Score> x{1.0, 0.0};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), 0.25);
  EXPECT_DOUBLE_EQ(f.weights()[0], 0.25);
  EXPECT_DOUBLE_EQ(f.weights()[1], 0.75);
}

TEST(ScoringFunctionTest, WeightedSumName) {
  WeightedSumFunction f({1.0, 1.0});
  EXPECT_EQ(f.name(), "wsum(0.5,0.5)");
}

TEST(ScoringFunctionTest, ProductEvaluates) {
  ProductFunction f(2);
  const std::vector<Score> x{0.5, 0.4};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), 0.2);
}

TEST(ScoringFunctionTest, GeometricMeanEvaluates) {
  GeometricMeanFunction f(2);
  const std::vector<Score> x{0.25, 1.0};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), 0.5);
}

TEST(ScoringFunctionTest, FactoryProducesAllKinds) {
  EXPECT_EQ(MakeScoringFunction(ScoringKind::kMin, 2)->name(), "min");
  EXPECT_EQ(MakeScoringFunction(ScoringKind::kMax, 2)->name(), "max");
  EXPECT_EQ(MakeScoringFunction(ScoringKind::kAverage, 2)->name(), "avg");
  EXPECT_EQ(MakeScoringFunction(ScoringKind::kProduct, 2)->name(), "product");
  EXPECT_EQ(MakeScoringFunction(ScoringKind::kGeometricMean, 2)->name(),
            "geomean");
}

// ---------------------------------------------------------------------
// Property sweep: every shipped function must be monotone and map the
// unit cube into [0, 1] - the two assumptions Framework NC rests on.

struct FunctionCase {
  ScoringKind kind;
  size_t arity;
};

std::string CaseName(const ::testing::TestParamInfo<FunctionCase>& info) {
  return MakeScoringFunction(info.param.kind, info.param.arity)->name() +
         "_m" + std::to_string(info.param.arity);
}

class ScoringPropertyTest : public ::testing::TestWithParam<FunctionCase> {
 protected:
  std::unique_ptr<ScoringFunction> MakeF() const {
    return MakeScoringFunction(GetParam().kind, GetParam().arity);
  }
};

TEST_P(ScoringPropertyTest, MapsUnitCubeIntoUnitInterval) {
  const auto f = MakeF();
  Rng rng(101);
  std::vector<Score> x(f->arity());
  for (int trial = 0; trial < 500; ++trial) {
    for (Score& v : x) v = rng.Uniform01();
    const Score y = f->Evaluate(x);
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST_P(ScoringPropertyTest, MonotoneInEveryArgument) {
  const auto f = MakeF();
  Rng rng(202);
  std::vector<Score> x(f->arity());
  for (int trial = 0; trial < 300; ++trial) {
    for (Score& v : x) v = rng.Uniform01();
    const Score base = f->Evaluate(x);
    for (size_t i = 0; i < x.size(); ++i) {
      std::vector<Score> raised = x;
      raised[i] = std::min(1.0, raised[i] + rng.Uniform01() * (1.0 - x[i]));
      EXPECT_GE(f->Evaluate(raised), base - 1e-12)
          << f->name() << " not monotone in argument " << i;
    }
  }
}

TEST_P(ScoringPropertyTest, BoundaryValues) {
  const auto f = MakeF();
  const std::vector<Score> zeros(f->arity(), 0.0);
  const std::vector<Score> ones(f->arity(), 1.0);
  EXPECT_GE(f->Evaluate(zeros), 0.0);
  EXPECT_DOUBLE_EQ(f->Evaluate(ones), 1.0);
}

TEST_P(ScoringPropertyTest, PartialDerivativeNonNegative) {
  const auto f = MakeF();
  Rng rng(303);
  std::vector<Score> x(f->arity());
  for (int trial = 0; trial < 100; ++trial) {
    for (Score& v : x) v = rng.Uniform01();
    for (PredicateId i = 0; i < f->arity(); ++i) {
      EXPECT_GE(PartialDerivative(*f, x, i), -1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, ScoringPropertyTest,
    ::testing::Values(FunctionCase{ScoringKind::kMin, 2},
                      FunctionCase{ScoringKind::kMin, 4},
                      FunctionCase{ScoringKind::kMax, 3},
                      FunctionCase{ScoringKind::kAverage, 2},
                      FunctionCase{ScoringKind::kAverage, 5},
                      FunctionCase{ScoringKind::kProduct, 3},
                      FunctionCase{ScoringKind::kGeometricMean, 3}),
    CaseName);

TEST(OrderStatisticTest, SelectsTthSmallest) {
  OrderStatisticFunction second(3, 2);
  const std::vector<Score> x{0.9, 0.1, 0.5};
  EXPECT_DOUBLE_EQ(second.Evaluate(x), 0.5);
  EXPECT_EQ(second.name(), "orderstat(2/3)");
}

TEST(OrderStatisticTest, ExtremesMatchMinAndMax) {
  OrderStatisticFunction first(4, 1);
  OrderStatisticFunction last(4, 4);
  MinFunction fmin(4);
  MaxFunction fmax(4);
  Rng rng(71);
  std::vector<Score> x(4);
  for (int trial = 0; trial < 200; ++trial) {
    for (Score& v : x) v = rng.Uniform01();
    EXPECT_DOUBLE_EQ(first.Evaluate(x), fmin.Evaluate(x));
    EXPECT_DOUBLE_EQ(last.Evaluate(x), fmax.Evaluate(x));
  }
}

TEST(OrderStatisticTest, MonotoneAndInRange) {
  OrderStatisticFunction f(5, 3);
  Rng rng(72);
  std::vector<Score> x(5);
  for (int trial = 0; trial < 200; ++trial) {
    for (Score& v : x) v = rng.Uniform01();
    const Score base = f.Evaluate(x);
    EXPECT_GE(base, 0.0);
    EXPECT_LE(base, 1.0);
    for (size_t i = 0; i < 5; ++i) {
      std::vector<Score> raised = x;
      raised[i] = std::min(1.0, raised[i] + 0.3);
      EXPECT_GE(f.Evaluate(raised), base - 1e-12);
    }
  }
}

// The selection must return the t-th smallest, ties included, up to the
// widest arity it accepts.
TEST(OrderStatisticTest, MatchesSortedReferenceWithTies) {
  Rng rng(73);
  for (const size_t arity :
       {size_t{1}, size_t{2}, size_t{5}, OrderStatisticFunction::kMaxArity}) {
    std::vector<Score> x(arity);
    for (int trial = 0; trial < 50; ++trial) {
      // A 1/8 grid: most inputs tie with another.
      for (Score& v : x) v = static_cast<Score>(rng.UniformInt(9)) / 8.0;
      std::vector<Score> sorted = x;
      std::sort(sorted.begin(), sorted.end());
      const std::vector<Score> before = x;
      for (size_t t = 1; t <= arity; ++t) {
        const OrderStatisticFunction f(arity, t);
        EXPECT_EQ(f.Evaluate(x), sorted[t - 1])
            << "arity " << arity << " t " << t;
      }
      EXPECT_EQ(x, before);  // The input is never reordered.
    }
  }
}

TEST(ScoringFunctionTest, OnlyMinDeclaresIsMin) {
  EXPECT_TRUE(MinFunction(3).IsMin());
  EXPECT_FALSE(MaxFunction(3).IsMin());
  EXPECT_FALSE(AverageFunction(3).IsMin());
  EXPECT_FALSE(ProductFunction(3).IsMin());
  EXPECT_FALSE(GeometricMeanFunction(3).IsMin());
  EXPECT_FALSE(WeightedSumFunction({1.0, 1.0}).IsMin());
  // Equal to min on every input, but not declared: ranked lazily.
  EXPECT_FALSE(OrderStatisticFunction(3, 1).IsMin());
  EXPECT_FALSE(WeightedMinFunction({1.0, 1.0}).IsMin());
}

TEST(WeightedMinTest, FullWeightEqualsMin) {
  WeightedMinFunction f({1.0, 1.0});
  MinFunction fmin(2);
  const std::vector<Score> x{0.3, 0.8};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), fmin.Evaluate(x));
}

TEST(WeightedMinTest, ZeroWeightRemovesPredicate) {
  WeightedMinFunction f({1.0, 0.0});
  const std::vector<Score> low_second{0.7, 0.01};
  EXPECT_DOUBLE_EQ(f.Evaluate(low_second), 0.7);
}

TEST(WeightedMinTest, PartialWeightFloorsContribution) {
  // Weight 0.4: the predicate's term never drops below 0.6.
  WeightedMinFunction f({1.0, 0.4});
  const std::vector<Score> x{0.9, 0.1};
  EXPECT_DOUBLE_EQ(f.Evaluate(x), 0.6);
  EXPECT_EQ(f.name(), "wmin(1,0.4)");
}

TEST(WeightedMinTest, MonotoneAndInRange) {
  WeightedMinFunction f({0.9, 0.5, 0.2});
  Rng rng(73);
  std::vector<Score> x(3);
  for (int trial = 0; trial < 200; ++trial) {
    for (Score& v : x) v = rng.Uniform01();
    const Score base = f.Evaluate(x);
    EXPECT_GE(base, 0.0);
    EXPECT_LE(base, 1.0);
    for (size_t i = 0; i < 3; ++i) {
      std::vector<Score> raised = x;
      raised[i] = std::min(1.0, raised[i] + 0.3);
      EXPECT_GE(f.Evaluate(raised), base - 1e-12);
    }
  }
}

TEST(PartialDerivativeTest, AverageDerivativeIsOneOverM) {
  AverageFunction f(4);
  const std::vector<Score> x{0.5, 0.5, 0.5, 0.5};
  for (PredicateId i = 0; i < 4; ++i) {
    EXPECT_NEAR(PartialDerivative(f, x, i), 0.25, 1e-6);
  }
}

TEST(PartialDerivativeTest, MinDerivativeSelectsBindingArgument) {
  MinFunction f(2);
  const std::vector<Score> x{0.2, 0.8};
  EXPECT_NEAR(PartialDerivative(f, x, 0), 1.0, 1e-6);
  EXPECT_NEAR(PartialDerivative(f, x, 1), 0.0, 1e-6);
}

TEST(PartialDerivativeTest, HandlesCubeBoundary) {
  AverageFunction f(2);
  const std::vector<Score> at_one{1.0, 1.0};
  EXPECT_NEAR(PartialDerivative(f, at_one, 0), 0.5, 1e-6);
  const std::vector<Score> at_zero{0.0, 0.0};
  EXPECT_NEAR(PartialDerivative(f, at_zero, 0), 0.5, 1e-6);
}

}  // namespace
}  // namespace nc
