#include "core/session.h"

#include <gtest/gtest.h>

#include <cmath>

#include "access/budget.h"
#include "access/fault.h"
#include "core/reference.h"
#include "data/generator.h"
#include "replica/replica.h"

namespace nc {
namespace {

Dataset MakeData(uint64_t seed, size_t n = 600) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = 2;
  g.seed = seed;
  return GenerateDataset(g);
}

PlannerOptions SmallPlanner() {
  PlannerOptions options;
  options.sample_size = 100;
  return options;
}

TEST(SessionTest, RepeatedQueriesHitTheCache) {
  const Dataset data = MakeData(1);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  const TopKResult expected = BruteForceTopK(data, avg, 5);

  for (int round = 0; round < 4; ++round) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
    TopKResult result;
    ASSERT_TRUE(session.Query(&sources, 5, &result).ok());
    EXPECT_EQ(result, expected);
  }
  EXPECT_EQ(session.plans_computed(), 1u);
  EXPECT_EQ(session.cache_hits(), 3u);
}

TEST(SessionTest, CostModelChangeTriggersReplan) {
  const Dataset data = MakeData(2);
  MinFunction fmin(2);
  QuerySession session(&fmin, SmallPlanner());

  SourceSet cheap(&data, CostModel::Uniform(2, 1.0, 0.5));
  TopKResult result;
  ASSERT_TRUE(session.Query(&cheap, 5, &result).ok());
  SourceSet pricey(&data, CostModel::Uniform(2, 1.0, 50.0));
  ASSERT_TRUE(session.Query(&pricey, 5, &result).ok());
  EXPECT_EQ(session.plans_computed(), 2u);
  EXPECT_EQ(session.cache_hits(), 0u);

  // Back to the first scenario: cached.
  SourceSet cheap_again(&data, CostModel::Uniform(2, 1.0, 0.5));
  ASSERT_TRUE(session.Query(&cheap_again, 5, &result).ok());
  EXPECT_EQ(session.plans_computed(), 2u);
  EXPECT_EQ(session.cache_hits(), 1u);
}

TEST(SessionTest, DifferentKTriggersReplan) {
  const Dataset data = MakeData(3);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  TopKResult result;
  SourceSet a(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(session.Query(&a, 5, &result).ok());
  SourceSet b(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(session.Query(&b, 20, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 20));
  EXPECT_EQ(session.plans_computed(), 2u);
}

TEST(SessionTest, PageAndGroupChangesInvalidate) {
  const Dataset data = MakeData(4);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  TopKResult result;

  SourceSet plain(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(session.Query(&plain, 5, &result).ok());

  CostModel paged = CostModel::Uniform(2, 1.0, 1.0);
  paged.sorted_page_size = {10, 10};
  SourceSet paged_sources(&data, paged);
  ASSERT_TRUE(session.Query(&paged_sources, 5, &result).ok());

  CostModel grouped = CostModel::Uniform(2, 1.0, 1.0);
  grouped.attribute_groups = {0, 0};
  SourceSet grouped_sources(&data, grouped);
  ASSERT_TRUE(session.Query(&grouped_sources, 5, &result).ok());

  EXPECT_EQ(session.plans_computed(), 3u);
}

TEST(SessionTest, LastPlanExposed) {
  const Dataset data = MakeData(5);
  MinFunction fmin(2);
  QuerySession session(&fmin, SmallPlanner());
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  ASSERT_TRUE(session.Query(&sources, 5, &result).ok());
  EXPECT_TRUE(session.last_plan().config.Validate(2).ok());
  EXPECT_GT(session.last_plan().simulations, 0u);
}

TEST(SessionTest, PropagatesPlanningErrors) {
  const Dataset data = MakeData(6, 50);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  TopKResult result;
  EXPECT_EQ(session.Query(&sources, 0, &result).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.plans_computed(), 0u);
}

TEST(SessionTest, OutcomeTracksQueryDisposition) {
  const Dataset data = MakeData(7);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kNone);
  EXPECT_STREQ(QueryOutcomeName(session.last_query_outcome()), "none");
  TopKResult result;

  // A healthy run completes exactly.
  SourceSet healthy(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(session.Query(&healthy, 5, &result).ok());
  EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kExact);
  EXPECT_STREQ(QueryOutcomeName(session.last_query_outcome()), "exact");
  EXPECT_FALSE(result.certificate.has_value());

  // A starved cost cap truncates with a certificate.
  SourceSet starved(&data, CostModel::Uniform(2, 1.0, 1.0));
  QueryBudget budget;
  budget.max_cost = 4.0;
  ASSERT_TRUE(starved.set_budget(budget).ok());
  ASSERT_TRUE(session.Query(&starved, 5, &result).ok());
  ASSERT_TRUE(result.certificate.has_value());
  EXPECT_EQ(result.certificate->reason, TerminationReason::kCostBudget);
  EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kBudgetExhausted);
  EXPECT_STREQ(QueryOutcomeName(session.last_query_outcome()),
               "budget_exhausted");

  // Each query reports its own outcome: starved again, then healthy.
  SourceSet starved_again(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(starved_again.set_budget(budget).ok());
  ASSERT_TRUE(session.Query(&starved_again, 5, &result).ok());
  EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kBudgetExhausted);
  SourceSet healthy_again(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(session.Query(&healthy_again, 5, &result).ok());
  EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kExact);
  EXPECT_FALSE(result.certificate.has_value());
}

TEST(SessionTest, DeadSourceDegradesTheAnswer) {
  const Dataset data = MakeData(8, 200);
  MinFunction fmin(2);
  QuerySession session(&fmin, SmallPlanner());

  FaultProfile flaky;
  flaky.transient_rate = 0.2;
  FaultProfile deadly;
  deadly.die_after_attempts = 6;
  FaultInjector injector(/*seed=*/44);
  injector.set_profile(0, flaky);
  injector.set_profile(1, deadly);

  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);
  TopKResult result;
  const Status status = session.Query(&sources, 5, &result);
  ASSERT_TRUE(status.ok()) << status;
  // p1's death degrades the answer; the sources count the failures.
  EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kDegraded);
  EXPECT_STREQ(QueryOutcomeName(session.last_query_outcome()), "degraded");
  EXPECT_EQ(sources.stats().source_deaths, 1u);
  EXPECT_GT(sources.stats().transient_failures, 0u);
}

// A failed Query reports its own failure: the outcome is kError and there
// is no cost audit - whether it is the session's first query or follows a
// successful one.
TEST(SessionTest, FailedQueryDoesNotReportThePreviousQuery) {
  const Dataset data = MakeData(9, 50);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  TopKResult result;
  const auto expect_failed = [&session] {
    EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kError);
    EXPECT_FALSE(session.last_cost_audit().valid);
  };

  SourceSet first(&data, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_EQ(session.Query(&first, 0, &result).code(),
            StatusCode::kInvalidArgument);
  expect_failed();

  SourceSet healthy(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(session.Query(&healthy, 5, &result).ok());
  EXPECT_EQ(session.last_query_outcome(), QueryOutcome::kExact);
  EXPECT_TRUE(session.last_cost_audit().valid);

  SourceSet failing(&data, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_EQ(session.Query(&failing, 0, &result).code(),
            StatusCode::kInvalidArgument);
  expect_failed();
}

// --- Cross-query telemetry -----------------------------------------------

TEST(SessionTelemetryTest, HubStateSurvivesSourceReset) {
  const Dataset data = MakeData(11);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  const TopKResult expected = BruteForceTopK(data, avg, 5);

  ReplicaFleet fleet(31);
  for (PredicateId i = 0; i < 2; ++i) {
    ReplicaSetConfig config;
    config.replicas.resize(2);
    ASSERT_TRUE(fleet.Configure(i, config).ok());
  }
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());

  TopKResult result;
  ASSERT_TRUE(session.Query(&sources, 5, &result).ok());
  EXPECT_EQ(result, expected);
  const size_t after_first = session.hub().replica_service_count(0, 0);
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(session.hub().queries_observed(), 1u);

  // Reset() rewinds every per-query meter; the hub's sketches and the
  // access-cost EWMA deliberately survive and keep accumulating.
  for (int round = 2; round <= 4; ++round) {
    sources.Reset();
    EXPECT_EQ(sources.accrued_cost(), 0.0);
    ASSERT_TRUE(session.Query(&sources, 5, &result).ok());
    EXPECT_EQ(result, expected);
  }
  EXPECT_EQ(session.hub().queries_observed(), 4u);
  EXPECT_EQ(session.hub().replica_service_count(0, 0), 4 * after_first);
  EXPECT_FALSE(
      std::isnan(session.hub().ReplicaServiceQuantile(0, 0, 0.5)));
  EXPECT_FALSE(
      std::isnan(session.hub().AccessCostEwma(0, AccessType::kSorted)));
}

TEST(SessionTelemetryTest, RoutesAroundReplicaKilledInEarlierQuery) {
  const Dataset data = MakeData(12);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  const TopKResult expected = BruteForceTopK(data, avg, 5);

  ReplicaFleet fleet(33);
  for (PredicateId i = 0; i < 2; ++i) {
    ReplicaSetConfig config;
    config.replicas.resize(2);
    ASSERT_TRUE(fleet.Configure(i, config).ok());
  }
  // Predicate 0's primary dies on its very first attempt of query 1.
  fleet.ScriptFaults(0, 0, {FaultKind::kSourceDown});

  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());

  // Query 1 discovers the death the hard way: one failover.
  TopKResult result;
  ASSERT_TRUE(session.Query(&sources, 5, &result).ok());
  EXPECT_EQ(result, expected);
  EXPECT_TRUE(fleet.runtime(0, 0).dead);
  EXPECT_GE(sources.stats().replica_failovers, 1u);

  // Queries 2..4: Reset() wipes the fleet's runtime, but the hub's
  // captured health re-marks the replica dead, so routing never sends it
  // another access and never pays the failover again. (Without the hub,
  // the rewound injector script would replay the death every query.)
  for (int round = 2; round <= 4; ++round) {
    sources.Reset();
    ASSERT_TRUE(session.Query(&sources, 5, &result).ok());
    EXPECT_EQ(result, expected);
    EXPECT_TRUE(fleet.runtime(0, 0).dead);
    EXPECT_EQ(fleet.runtime(0, 0).served, 0u);
    EXPECT_EQ(fleet.runtime(0, 0).failovers, 0u);
    EXPECT_EQ(sources.stats().replica_failovers, 0u);
    EXPECT_GT(fleet.runtime(0, 1).served, 0u);
  }
  ASSERT_TRUE(session.hub().has_fleet_health());
  bool found = false;
  for (const obs::ReplicaHealth& h : session.hub().fleet_health()) {
    if (h.predicate == 0 && h.replica == 0) {
      EXPECT_TRUE(h.dead);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SessionTelemetryTest, CostAuditExposedPerQuery) {
  const Dataset data = MakeData(13);
  AverageFunction avg(2);
  QuerySession session(&avg, SmallPlanner());
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  TopKResult result;
  ASSERT_TRUE(session.Query(&sources, 5, &result).ok());

  const obs::CostAudit& audit = session.last_cost_audit();
  ASSERT_TRUE(audit.valid);
  ASSERT_EQ(audit.predicates.size(), 2u);
  EXPECT_GT(audit.predicted_total, 0.0);
  EXPECT_DOUBLE_EQ(audit.actual_total, sources.accrued_cost());
  EXPECT_GE(audit.total_relative_error, 0.0);
  EXPECT_LE(audit.total_relative_error, 1.0);
  double actual_sum = 0.0;
  for (const obs::PredicateAudit& row : audit.predicates) {
    EXPECT_GE(row.cost_relative_error, 0.0);
    EXPECT_LE(row.cost_relative_error, 1.0);
    actual_sum += row.actual_cost;
  }
  EXPECT_DOUBLE_EQ(actual_sum, audit.actual_total);

  // Each audited query feeds one prediction-error observation per
  // predicate into the hub's drift sketch.
  EXPECT_EQ(session.hub().prediction_error_count(0), 1u);
  SourceSet again(&data, CostModel::Uniform(2, 1.0, 2.0));
  ASSERT_TRUE(session.Query(&again, 5, &result).ok());
  EXPECT_EQ(session.hub().prediction_error_count(0), 2u);
  EXPECT_FALSE(std::isnan(session.hub().PredictionErrorQuantile(0, 0.5)));
}

}  // namespace
}  // namespace nc
