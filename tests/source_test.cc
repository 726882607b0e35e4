#include "access/source.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "access/fault.h"
#include "data/generator.h"
#include "replica/replica.h"

namespace nc {
namespace {

// A sorted access that must be served.
std::optional<SortedHit> ReadSorted(SourceSet* sources, PredicateId i) {
  std::optional<SortedHit> hit;
  EXPECT_TRUE(sources->TrySortedAccess(i, &hit).ok());
  return hit;
}

// A random access that must be served.
Score ReadRandom(SourceSet* sources, PredicateId i, ObjectId u) {
  Score score = 0.0;
  EXPECT_TRUE(sources->TryRandomAccess(i, u, &score).ok());
  return score;
}

// The paper's Dataset 1 (Figure 3): three objects, two predicates.
//   u1 = (0.65, 0.9), u2 = (0.6, 0.8), u3 = (0.7, 0.7)
// so sa_1 yields .7, .65, .6 and sa_2 yields .9, .8, .7, and u3 is the
// top-1 under F = min with score 0.7 (Example 6). ObjectIds here are
// 0-based: u1 -> 0, u2 -> 1, u3 -> 2.
Dataset PaperDataset() {
  Dataset data;
  const Status s =
      Dataset::FromRows({{0.65, 0.9}, {0.6, 0.8}, {0.7, 0.7}}, &data);
  NC_CHECK(s.ok());
  return data;
}

TEST(SourceTest, SortedAccessDescendingOrder) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));

  // sa_0 (the "rating" list of the running example): .7, .65, .6,
  // hitting u3, u1, u2 in that order (Figure 3(b)).
  auto hit = ReadSorted(&sources, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->object, 2u);
  EXPECT_DOUBLE_EQ(hit->score, 0.7);

  hit = ReadSorted(&sources, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->object, 0u);
  EXPECT_DOUBLE_EQ(hit->score, 0.65);

  hit = ReadSorted(&sources, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->object, 1u);
  EXPECT_DOUBLE_EQ(hit->score, 0.6);
}

TEST(SourceTest, SortedAccessSideEffectLowersLastSeen) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(sources.last_seen(0), 1.0);
  ReadSorted(&sources, 0);
  EXPECT_DOUBLE_EQ(sources.last_seen(0), 0.7);
  ReadSorted(&sources, 0);
  EXPECT_DOUBLE_EQ(sources.last_seen(0), 0.65);
  // Lists are independent.
  EXPECT_DOUBLE_EQ(sources.last_seen(1), 1.0);
}

TEST(SourceTest, ExhaustionReturnsNulloptAndZeroBound) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ReadSorted(&sources, 0).has_value());
  }
  EXPECT_TRUE(sources.exhausted(0));
  // No unseen object remains on this list: its ceiling collapses.
  EXPECT_DOUBLE_EQ(sources.last_seen(0), 0.0);
  EXPECT_FALSE(ReadSorted(&sources, 0).has_value());
  // The failed attempt is not charged.
  EXPECT_EQ(sources.stats().sorted_count[0], 3u);
}

TEST(SourceTest, RandomAccessReturnsExactScore) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(ReadRandom(&sources, 1, 0), 0.9);
  EXPECT_DOUBLE_EQ(ReadRandom(&sources, 1, 2), 0.7);
  EXPECT_DOUBLE_EQ(ReadRandom(&sources, 0, 1), 0.6);
}

TEST(SourceTest, AccountingCountsAndPricesAccesses) {
  const Dataset data = PaperDataset();
  // The Example 4 scenario: cs = (1, 1), cr = (100, 100) scaled down.
  SourceSet sources(&data, CostModel({1.0, 1.0}, {100.0, 100.0}));
  ReadSorted(&sources, 0);
  ReadSorted(&sources, 0);
  ReadSorted(&sources, 1);
  ReadRandom(&sources, 0, 2);
  EXPECT_EQ(sources.stats().sorted_count[0], 2u);
  EXPECT_EQ(sources.stats().sorted_count[1], 1u);
  EXPECT_EQ(sources.stats().random_count[0], 1u);
  EXPECT_EQ(sources.stats().TotalSorted(), 3u);
  EXPECT_EQ(sources.stats().TotalRandom(), 1u);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 103.0);
  EXPECT_DOUBLE_EQ(sources.stats().TotalCost(sources.cost_model()), 103.0);
}

TEST(SourceTest, DuplicateRandomAccessCounted) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ReadRandom(&sources, 0, 1);
  EXPECT_EQ(sources.stats().duplicate_random_count, 0u);
  ReadRandom(&sources, 0, 1);
  EXPECT_EQ(sources.stats().duplicate_random_count, 1u);
  // Different predicate on the same object is not a duplicate.
  ReadRandom(&sources, 1, 1);
  EXPECT_EQ(sources.stats().duplicate_random_count, 1u);
}

TEST(SourceTest, ResetRestoresInitialState) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ReadSorted(&sources, 0);
  ReadRandom(&sources, 1, 0);
  sources.Reset();
  EXPECT_EQ(sources.stats().TotalSorted(), 0u);
  EXPECT_EQ(sources.stats().TotalRandom(), 0u);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 0.0);
  EXPECT_DOUBLE_EQ(sources.last_seen(0), 1.0);
  EXPECT_EQ(sources.sorted_position(0), 0u);
  // The first access after reset replays the stream from the top.
  const auto hit = ReadSorted(&sources, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->object, 2u);
}

TEST(SourceTest, CostModelSwapRepricesFutureAccesses) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ReadSorted(&sources, 0);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 1.0);
  ASSERT_TRUE(sources.set_cost_model(CostModel::Uniform(2, 5.0, 1.0)).ok());
  ReadSorted(&sources, 0);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 6.0);
}

TEST(SourceTest, CostModelSwapRejectsCapabilityAddition) {
  const Dataset data = PaperDataset();
  // Removing a capability mid-run is a legal downgrade (a source dying);
  // adding one a live query could never have planned for is not.
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_TRUE(
      sources.set_cost_model(CostModel::Uniform(2, 1.0, kImpossibleCost))
          .ok());
  EXPECT_FALSE(sources.has_random(0));
  EXPECT_FALSE(sources.set_cost_model(CostModel::Uniform(2, 1.0, 1.0)).ok());
  EXPECT_FALSE(sources.set_cost_model(CostModel::Uniform(3, 1.0, 1.0)).ok());
}

TEST(SourceTest, LatencyEqualsUnitCostWithoutJitter) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel({0.9, 0.2}, {1.5, 0.6}));
  EXPECT_DOUBLE_EQ(sources.DrawLatency(AccessType::kSorted, 0), 0.9);
  EXPECT_DOUBLE_EQ(sources.DrawLatency(AccessType::kRandom, 1), 0.6);
}

TEST(SourceTest, LatencyJitterStaysWithinBand) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 2.0, 2.0));
  sources.set_latency_jitter(0.5, /*seed=*/9);
  for (int i = 0; i < 100; ++i) {
    const double latency = sources.DrawLatency(AccessType::kSorted, 0);
    EXPECT_GE(latency, 2.0);
    EXPECT_LT(latency, 3.0);
  }
}

TEST(SourceTest, ResetReplaysLatencyJitterStream) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 2.0, 2.0));
  sources.set_latency_jitter(0.5, /*seed=*/7);
  std::vector<double> first;
  for (int i = 0; i < 8; ++i) {
    first.push_back(sources.DrawLatency(AccessType::kSorted, 0));
  }
  // Reset promises a bit-identical rerun; that includes the latency
  // draws, so parallel simulations replay deterministically.
  sources.Reset();
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(sources.DrawLatency(AccessType::kSorted, 0), first[i])
        << "draw " << i << " diverged after Reset";
  }
}

TEST(SourceTest, ResetClearsBreakerAndReplicaHealthState) {
  const Dataset data = PaperDataset();
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  RetryPolicy retry;
  retry.max_attempts = 1;
  sources.set_retry_policy(retry);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown = 50.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());

  // A replica fleet on predicate 0 whose primary dies on first contact;
  // the plain injector trips predicate 1's breaker.
  ReplicaFleet fleet(3);
  ReplicaSetConfig config;
  config.replicas.emplace_back();
  config.replicas.emplace_back();
  ASSERT_TRUE(fleet.Configure(0, config).ok());
  fleet.ScriptFaults(0, 0, {FaultKind::kSourceDown});
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  FaultInjector injector(/*seed=*/1);
  injector.Script(1, {FaultKind::kTransient});
  sources.set_fault_injector(&injector);

  std::optional<SortedHit> hit;
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());  // Failover to r1.
  EXPECT_TRUE(fleet.runtime(0, 0).dead);
  EXPECT_EQ(sources.TrySortedAccess(1, &hit).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(sources.breaker_open(1));

  // Reset clears the breaker runtime and the replica health state (the
  // policies persist: they are configuration).
  sources.Reset();
  EXPECT_FALSE(sources.breaker_open(1));
  EXPECT_FALSE(sources.any_breaker_open());
  EXPECT_EQ(sources.stats().TotalBreakerTrips(), 0u);
  EXPECT_EQ(sources.stats().replica_failovers, 0u);
  EXPECT_FALSE(fleet.runtime(0, 0).dead);
  EXPECT_FALSE(fleet.runtime(0, 0).breaker_open);
  EXPECT_EQ(fleet.runtime(0, 1).served, 0u);
  EXPECT_TRUE(sources.circuit_breaker().enabled());

  // The rerun replays the same draws: the primary dies again, predicate
  // 1 trips again - bit-identical to the first run.
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  EXPECT_TRUE(fleet.runtime(0, 0).dead);
  EXPECT_EQ(fleet.runtime(0, 1).served, 1u);
  EXPECT_EQ(sources.TrySortedAccess(1, &hit).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(sources.breaker_open(1));
}

TEST(SourceTest, TieBreakingMatchesDatasetOrder) {
  Dataset data;
  ASSERT_TRUE(Dataset::FromRows({{0.5}, {0.5}, {0.9}}, &data).ok());
  SourceSet sources(&data, CostModel::Uniform(1, 1.0, 1.0));
  EXPECT_EQ(ReadSorted(&sources, 0)->object, 2u);
  // Equal scores: higher ObjectId first.
  EXPECT_EQ(ReadSorted(&sources, 0)->object, 1u);
  EXPECT_EQ(ReadSorted(&sources, 0)->object, 0u);
}

}  // namespace
}  // namespace nc
