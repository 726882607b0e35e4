#include "data/transforms.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace nc {
namespace {

TEST(MinMaxScoresTest, AscendingBasics) {
  const std::vector<Score> scores = MinMaxScores({10.0, 20.0, 15.0});
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 1.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.5);
}

TEST(MinMaxScoresTest, DescendingFlipsOrientation) {
  // Prices: cheapest is best.
  const std::vector<Score> scores =
      MinMaxScores({100.0, 300.0, 200.0}, /*descending=*/true);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.5);
}

TEST(MinMaxScoresTest, ConstantColumnMapsToHalf) {
  const std::vector<Score> scores = MinMaxScores({7.0, 7.0, 7.0});
  for (const Score s : scores) EXPECT_DOUBLE_EQ(s, 0.5);
}

TEST(MinMaxScoresTest, PreservesOrder) {
  Rng rng(1);
  std::vector<double> raw(100);
  for (double& v : raw) v = rng.Uniform(-50.0, 50.0);
  const std::vector<Score> scores = MinMaxScores(raw);
  for (size_t i = 0; i < raw.size(); ++i) {
    for (size_t j = 0; j < raw.size(); ++j) {
      if (raw[i] < raw[j]) {
        EXPECT_LE(scores[i], scores[j]);
      }
    }
  }
}

TEST(RankScoresTest, UniformSpacing) {
  const std::vector<Score> scores = RankScores({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.5);
}

TEST(RankScoresTest, TiesShareAverageRank) {
  const std::vector<Score> scores = RankScores({1.0, 2.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  // Ranks 1 and 2 average to 1.5/3.
  EXPECT_DOUBLE_EQ(scores[1], 0.5);
  EXPECT_DOUBLE_EQ(scores[2], 0.5);
  EXPECT_DOUBLE_EQ(scores[3], 1.0);
}

TEST(RankScoresTest, DescendingFlips) {
  const std::vector<Score> scores =
      RankScores({5.0, 1.0, 3.0}, /*descending=*/true);
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 1.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.5);
}

TEST(RankScoresTest, SingleValue) {
  EXPECT_DOUBLE_EQ(RankScores({42.0})[0], 0.5);
}

TEST(RankScoresTest, DistributionShapeIgnored) {
  // Wildly skewed raw values still map to uniform ranks.
  const std::vector<Score> scores =
      RankScores({1e-9, 1.0, 1e9, 1e18, 1e27});
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(scores[i], static_cast<double>(i) / 4.0);
  }
}

TEST(ExpDecayScoresTest, DecaysWithDistance) {
  const std::vector<Score> scores = ExpDecayScores({0.0, 1.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
  EXPECT_NEAR(scores[1], std::exp(-1.0), 1e-12);
  EXPECT_NEAR(scores[2], std::exp(-2.0), 1e-12);
}

TEST(ExpDecayScoresTest, NegativeRawClampsToPerfect) {
  const std::vector<Score> scores = ExpDecayScores({-5.0}, 2.0);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
}

TEST(DatasetFromScoreColumnsTest, BuildsColumnMajor) {
  Dataset data;
  ASSERT_TRUE(DatasetFromScoreColumns({{0.1, 0.2}, {0.9, 0.8}}, &data).ok());
  EXPECT_EQ(data.num_objects(), 2u);
  EXPECT_EQ(data.num_predicates(), 2u);
  EXPECT_DOUBLE_EQ(data.score(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(data.score(1, 1), 0.8);
}

TEST(DatasetFromScoreColumnsTest, RejectsBadInput) {
  Dataset data;
  EXPECT_FALSE(DatasetFromScoreColumns({}, &data).ok());
  EXPECT_FALSE(DatasetFromScoreColumns({{}}, &data).ok());
  EXPECT_FALSE(DatasetFromScoreColumns({{0.1}, {0.1, 0.2}}, &data).ok());
  EXPECT_FALSE(DatasetFromScoreColumns({{1.5}}, &data).ok());
}

TEST(TransformsIntegrationTest, RawAttributesToQueryableDataset) {
  // Shop items: price in dollars (cheap = good), delivery days
  // (fast = good), star rating (high = good).
  const std::vector<double> price{19.0, 250.0, 80.0, 45.0};
  const std::vector<double> days{1.0, 7.0, 2.0, 3.0};
  const std::vector<double> stars{4.5, 5.0, 3.0, 4.0};

  Dataset data;
  ASSERT_TRUE(DatasetFromScoreColumns(
                  {MinMaxScores(price, /*descending=*/true),
                   ExpDecayScores(days, /*scale=*/3.0),
                   RankScores(stars)},
                  &data)
                  .ok());
  EXPECT_EQ(data.num_objects(), 4u);
  EXPECT_EQ(data.num_predicates(), 3u);
  // The $19, 1-day item tops both cost-ish predicates.
  EXPECT_EQ(data.SortedOrder(0)[0], 0u);
  EXPECT_EQ(data.SortedOrder(1)[0], 0u);
  // Five-star item tops ratings.
  EXPECT_EQ(data.SortedOrder(2)[0], 1u);
}

}  // namespace
}  // namespace nc
