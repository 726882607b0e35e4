// Replica fleet layer (replica/replica.h + the SourceSet fleet path):
// configuration validation, the differential guarantee that every
// routing/hedging configuration returns the single-source engine's exact
// top-k, with a healthy or a flaky primary, failover when a replica dies
// mid-query, hedged sorted access billing, half-open probe interaction
// with failover, Reset replay, and checkpoint/resume with fleet state.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "access/fault.h"
#include "access/source.h"
#include "access/trace_format.h"
#include "common/check.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/tracer.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

Dataset MakeData(uint64_t seed, size_t n = 80, size_t m = 3) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

ReplicaEndpoint Endpoint(double cost_multiplier, double latency_multiplier,
                         double jitter = 0.0, double tail_probability = 0.0,
                         double tail_multiplier = 1.0) {
  ReplicaEndpoint e;
  e.cost_multiplier = cost_multiplier;
  e.latency.multiplier = latency_multiplier;
  e.latency.jitter = jitter;
  e.latency.tail_probability = tail_probability;
  e.latency.tail_multiplier = tail_multiplier;
  return e;
}

// A three-replica set with distinct cost and latency profiles, the shape
// most differential cases run against.
ReplicaSetConfig ThreeReplicas(RoutingPolicy routing, double hedge_delay,
                               double cost_spread = 1.0) {
  ReplicaSetConfig config;
  config.replicas.push_back(Endpoint(1.0, 1.0, 0.2, 0.3, 6.0));
  config.replicas.push_back(Endpoint(1.0 * cost_spread, 1.4, 0.5));
  config.replicas.push_back(Endpoint(1.0 / (cost_spread + 0.5), 0.8, 0.1));
  config.routing = routing;
  config.hedge.delay = hedge_delay;
  return config;
}

TopKResult RunEngine(SourceSet* sources, const ScoringFunction& scoring,
                     size_t k) {
  SRGPolicy policy(SRGConfig::Default(sources->num_predicates()));
  EngineOptions options;
  options.k = k;
  TopKResult result;
  const Status status = RunNC(sources, &scoring, &policy, options, &result);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return result;
}

void ExpectSameResult(const TopKResult& got, const TopKResult& want,
                      const std::string& label) {
  EXPECT_EQ(got, want) << label;
  EXPECT_EQ(got.certificate, want.certificate) << label;
}

// --- Configuration ----------------------------------------------------

TEST(ReplicaConfigTest, ValidationRejectsBadShapes) {
  ReplicaSetConfig empty;
  EXPECT_EQ(empty.Validate().code(), StatusCode::kInvalidArgument);

  ReplicaSetConfig bad_cost;
  bad_cost.replicas.push_back(Endpoint(0.0, 1.0));
  EXPECT_EQ(bad_cost.Validate().code(), StatusCode::kInvalidArgument);

  ReplicaSetConfig bad_latency;
  bad_latency.replicas.push_back(Endpoint(1.0, -1.0));
  EXPECT_EQ(bad_latency.Validate().code(), StatusCode::kInvalidArgument);

  ReplicaSetConfig bad_tail;
  bad_tail.replicas.push_back(Endpoint(1.0, 1.0, 0.0, 1.5, 2.0));
  EXPECT_EQ(bad_tail.Validate().code(), StatusCode::kInvalidArgument);

  ReplicaSetConfig bad_hedge;
  bad_hedge.replicas.push_back(Endpoint(1.0, 1.0));
  bad_hedge.hedge.delay = -0.5;
  EXPECT_EQ(bad_hedge.Validate().code(), StatusCode::kInvalidArgument);

  ReplicaSetConfig ok = ThreeReplicas(RoutingPolicy::kRoundRobin, 0.5);
  EXPECT_TRUE(ok.Validate().ok());
}

TEST(ReplicaConfigTest, AttachRejectsOutOfRangePredicate) {
  const Dataset data = MakeData(7, 20, 2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));

  ReplicaFleet fleet(11);
  ASSERT_TRUE(
      fleet.Configure(5, ThreeReplicas(RoutingPolicy::kPrimaryOnly, 0.0))
          .ok());
  EXPECT_EQ(sources.set_replica_fleet(&fleet).code(),
            StatusCode::kInvalidArgument);

  ReplicaFleet in_range(11);
  ASSERT_TRUE(
      in_range.Configure(1, ThreeReplicas(RoutingPolicy::kPrimaryOnly, 0.0))
          .ok());
  EXPECT_TRUE(sources.set_replica_fleet(&in_range).ok());
  EXPECT_TRUE(sources.has_fleet());
}

// --- Differential guarantee -------------------------------------------

// A fleet whose only replica has the default profile is indistinguishable
// from no fleet at all: same answer, same cost, same Eq. 1 split, no
// deadline-clock penalty.
TEST(ReplicaDifferentialTest, DefaultSingleReplicaIsCostBitIdentical) {
  const Dataset data = MakeData(21);
  const CostModel cost = CostModel::Uniform(3, 1.0, 2.0);
  AverageFunction avg(3);

  SourceSet plain(&data, cost);
  const TopKResult expected = RunEngine(&plain, avg, 4);

  ReplicaFleet fleet(5);
  for (PredicateId i = 0; i < 3; ++i) {
    ReplicaSetConfig config;
    config.replicas.push_back(ReplicaEndpoint{});
    ASSERT_TRUE(fleet.Configure(i, config).ok());
  }
  SourceSet fleeted(&data, cost);
  ASSERT_TRUE(fleeted.set_replica_fleet(&fleet).ok());
  const TopKResult got = RunEngine(&fleeted, avg, 4);

  ExpectSameResult(got, expected, "default single replica");
  EXPECT_DOUBLE_EQ(fleeted.accrued_cost(), plain.accrued_cost());
  EXPECT_DOUBLE_EQ(fleeted.elapsed_time(), plain.elapsed_time());
  EXPECT_EQ(fleeted.stats().TotalSorted(), plain.stats().TotalSorted());
  EXPECT_EQ(fleeted.stats().TotalRandom(), plain.stats().TotalRandom());
  for (PredicateId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(fleeted.stats().sorted_cost_accrued[i],
                     plain.stats().sorted_cost_accrued[i]);
    EXPECT_DOUBLE_EQ(fleeted.stats().random_cost_accrued[i],
                     plain.stats().random_cost_accrued[i]);
  }
}

// Every routing policy crossed with hedging on/off, and with a healthy or
// a flaky primary (30% transient attempts at 1.5x cost, behind retries
// and a breaker), returns the single-source engine's exact answer:
// replicas vary cost, latency and failures, never data, so sorted order
// and the l_i bounds - and with them Theorems 1 and 2 - are untouched.
TEST(ReplicaDifferentialTest, EveryRoutingAndHedgingConfigMatchesTopK) {
  const Dataset data = MakeData(33);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.5);
  AverageFunction avg(3);

  SourceSet plain(&data, cost);
  const TopKResult expected = RunEngine(&plain, avg, 5);

  const RoutingPolicy policies[] = {
      RoutingPolicy::kPrimaryOnly, RoutingPolicy::kRoundRobin,
      RoutingPolicy::kLeastLatency, RoutingPolicy::kCheapestHealthy};
  const double hedge_delays[] = {0.0, 0.4};
  size_t transient_failures = 0;
  for (const RoutingPolicy routing : policies) {
    for (const double delay : hedge_delays) {
      for (const bool flaky : {false, true}) {
        ReplicaSetConfig config = ThreeReplicas(routing, delay, 1.5);
        if (flaky) {
          config.replicas[0].cost_multiplier = 1.5;
          config.replicas[0].faults.transient_rate = 0.3;
        }
        ReplicaFleet fleet(17);
        for (PredicateId i = 0; i < 3; ++i) {
          ASSERT_TRUE(fleet.Configure(i, config).ok());
        }
        SourceSet fleeted(&data, cost);
        RetryPolicy retry;
        retry.max_attempts = 4;
        fleeted.set_retry_policy(retry, /*jitter_seed=*/5);
        CircuitBreakerPolicy breaker;
        breaker.failure_threshold = 6;
        breaker.cooldown = 8.0;
        ASSERT_TRUE(fleeted.set_circuit_breaker(breaker).ok());
        ASSERT_TRUE(fleeted.set_replica_fleet(&fleet).ok());
        const TopKResult got = RunEngine(&fleeted, avg, 5);
        const std::string label = std::string(RoutingPolicyName(routing)) +
                                  " hedge=" + std::to_string(delay) +
                                  (flaky ? " flaky" : "");
        ExpectSameResult(got, expected, label);
        transient_failures += fleeted.stats().transient_failures;
      }
    }
  }
  // The flaky primary's faults fired.
  EXPECT_GT(transient_failures, 0u);
}

// The same guarantee extends to certified anytime answers: with identical
// unit costs (multiplier 1, no hedging) the cost trajectory is identical,
// so a cost budget halts both runs at the same point with bit-identical
// certified intervals.
TEST(ReplicaDifferentialTest, CertifiedAnswersMatchUnderCostBudget) {
  const Dataset data = MakeData(44);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  AverageFunction avg(3);
  QueryBudget budget;
  budget.max_cost = 25.0;

  SourceSet plain(&data, cost);
  ASSERT_TRUE(plain.set_budget(budget).ok());
  const TopKResult expected = RunEngine(&plain, avg, 4);
  ASSERT_TRUE(expected.certificate.has_value());
  EXPECT_EQ(expected.certificate->reason, TerminationReason::kCostBudget);

  const RoutingPolicy policies[] = {
      RoutingPolicy::kPrimaryOnly, RoutingPolicy::kRoundRobin,
      RoutingPolicy::kLeastLatency, RoutingPolicy::kCheapestHealthy};
  for (const RoutingPolicy routing : policies) {
    ReplicaFleet fleet(23);
    for (PredicateId i = 0; i < 3; ++i) {
      ReplicaSetConfig config;
      config.replicas.push_back(Endpoint(1.0, 1.0, 0.3));
      config.replicas.push_back(Endpoint(1.0, 2.0, 0.1, 0.2, 4.0));
      config.routing = routing;
      ASSERT_TRUE(fleet.Configure(i, config).ok());
    }
    SourceSet fleeted(&data, cost);
    ASSERT_TRUE(fleeted.set_budget(budget).ok());
    ASSERT_TRUE(fleeted.set_replica_fleet(&fleet).ok());
    const TopKResult got = RunEngine(&fleeted, avg, 4);
    ExpectSameResult(got, expected,
                     std::string("certified ") + RoutingPolicyName(routing));
    EXPECT_DOUBLE_EQ(fleeted.accrued_cost(), plain.accrued_cost())
        << RoutingPolicyName(routing);
  }
}

// --- Failover ----------------------------------------------------------

// One replica dies mid-query; the engine completes through the survivor
// with the exact answer and no predicate is ever abandoned.
TEST(ReplicaFailoverTest, EngineSurvivesReplicaDeathMidQuery) {
  const Dataset data = MakeData(55);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  AverageFunction avg(3);

  ReplicaFleet fleet(29);
  for (PredicateId i = 0; i < 3; ++i) {
    ReplicaSetConfig config;
    config.replicas.push_back(Endpoint(1.0, 1.0));
    config.replicas.push_back(Endpoint(1.0, 1.0));
    ASSERT_TRUE(fleet.Configure(i, config).ok());
  }
  // Predicate 1's primary serves five attempts, then dies.
  fleet.ScriptFaults(1, 0,
                     {FaultKind::kNone, FaultKind::kNone, FaultKind::kNone,
                      FaultKind::kNone, FaultKind::kNone,
                      FaultKind::kSourceDown});

  SourceSet sources(&data, cost);
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  const TopKResult got = RunEngine(&sources, avg, 4);

  EXPECT_EQ(got, BruteForceTopK(data, avg, 4));
  EXPECT_TRUE(fleet.runtime(1, 0).dead);
  EXPECT_GE(sources.stats().replica_failovers, 1u);
  // The survivor keeps the predicate alive: nothing abandoned, the
  // predicate's capabilities intact.
  EXPECT_EQ(sources.stats().abandoned_accesses, 0u);
  EXPECT_FALSE(sources.source_down(1));
  EXPECT_EQ(sources.stats().source_deaths, 0u);
  EXPECT_GE(fleet.runtime(1, 1).served, 1u);
}

// Transient exhaustion on the routed replica trips its breaker and fails
// over within the same logical access; the access itself still succeeds,
// within the per-replica retry budget.
TEST(ReplicaFailoverTest, TransientExhaustionTripsBreakerAndFailsOver) {
  const Dataset data = MakeData(66, 40, 2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  ReplicaFleet fleet(31);
  ReplicaSetConfig config;
  config.replicas.push_back(Endpoint(1.0, 1.0));
  config.replicas.push_back(Endpoint(1.0, 1.0));
  ASSERT_TRUE(fleet.Configure(0, config).ok());
  fleet.ScriptFaults(0, 0, {FaultKind::kTransient, FaultKind::kTransient});

  SourceSet sources(&data, cost);
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_base = 0.0;
  retry.backoff_jitter = 0.0;
  sources.set_retry_policy(retry);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown = 100.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());

  std::optional<SortedHit> hit;
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  ASSERT_TRUE(hit.has_value());

  // Two failed attempts on r0 (both billed), then the failover attempt
  // on r1 succeeded.
  EXPECT_EQ(sources.stats().replica_failovers, 1u);
  EXPECT_EQ(sources.stats().transient_failures, 2u);
  EXPECT_EQ(fleet.runtime(0, 0).breaker_trips, 1u);
  EXPECT_TRUE(fleet.runtime(0, 0).breaker_open);
  EXPECT_EQ(fleet.runtime(0, 1).served, 1u);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 3.0);
  // One replica cooling is routing steering, not a predicate outage.
  EXPECT_FALSE(sources.breaker_open(0));
}

// --- Half-open probe ----------------------------------------------------

// The cooldown of a tripped primary sends traffic to the healthy
// secondary; once the cooldown elapses, the next access probes the
// primary, and a successful probe restores it as the routed replica.
TEST(ReplicaFailoverTest, HalfOpenProbeRestoresPrimary) {
  const Dataset data = MakeData(77, 60, 2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  ReplicaFleet fleet(37);
  ReplicaSetConfig config;
  config.replicas.push_back(Endpoint(1.0, 1.0));
  config.replicas.push_back(Endpoint(1.0, 1.0));
  config.routing = RoutingPolicy::kPrimaryOnly;
  ASSERT_TRUE(fleet.Configure(0, config).ok());
  fleet.ScriptFaults(0, 0, {FaultKind::kTransient});

  SourceSet sources(&data, cost);
  RetryPolicy retry;
  retry.max_attempts = 1;
  sources.set_retry_policy(retry);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown = 3.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  obs::QueryTracer tracer;
  sources.set_tracer(&tracer);

  // Access 1: the primary's single attempt fails, its breaker trips, the
  // secondary serves.
  std::optional<SortedHit> hit;
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  EXPECT_TRUE(fleet.runtime(0, 0).breaker_open);
  EXPECT_EQ(fleet.runtime(0, 0).served, 0u);
  EXPECT_EQ(fleet.runtime(0, 1).served, 1u);

  // While the primary cools, every access lands on the secondary.
  size_t accesses = 1;
  while (fleet.runtime(0, 0).breaker_open && accesses < 12) {
    const size_t secondary_before = fleet.runtime(0, 1).served;
    ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
    ++accesses;
    if (fleet.runtime(0, 0).breaker_open) {
      // Still cooling: the secondary served, the primary was not touched.
      EXPECT_EQ(fleet.runtime(0, 1).served, secondary_before + 1);
      EXPECT_EQ(fleet.runtime(0, 0).served, 0u);
    } else {
      // The cooldown elapsed: this access was the half-open probe, served
      // by the primary, and the success closed its breaker.
      EXPECT_EQ(fleet.runtime(0, 0).served, 1u);
      EXPECT_EQ(fleet.runtime(0, 1).served, secondary_before);
    }
  }
  ASSERT_FALSE(fleet.runtime(0, 0).breaker_open) << "probe never fired";

  bool restored = false;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.kind == obs::TraceEventKind::kReplica &&
        std::string(event.phase) == "replica_restored") {
      restored = true;
      EXPECT_EQ(event.replica, 0u);
    }
  }
  EXPECT_TRUE(restored);

  // The restored primary takes the traffic again.
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  EXPECT_EQ(fleet.runtime(0, 0).served, 2u);
}

// --- Hedged sorted access ----------------------------------------------

TEST(ReplicaHedgeTest, HedgeBillsBothRequestsAndWins) {
  const Dataset data = MakeData(88, 40, 2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  ReplicaFleet fleet(41);
  ReplicaSetConfig config;
  // Deterministic latencies: the primary always takes 5 cost units, the
  // secondary 1; the hedge fires after 1.5.
  config.replicas.push_back(Endpoint(1.0, 5.0));
  config.replicas.push_back(Endpoint(1.0, 1.0));
  config.routing = RoutingPolicy::kPrimaryOnly;
  config.hedge.delay = 1.5;
  ASSERT_TRUE(fleet.Configure(0, config).ok());

  SourceSet sources(&data, cost);
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  obs::QueryTracer tracer;
  sources.set_tracer(&tracer);

  std::optional<SortedHit> hit;
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  ASSERT_TRUE(hit.has_value());

  EXPECT_EQ(sources.stats().hedges_issued, 1u);
  EXPECT_EQ(sources.stats().hedge_wins, 1u);
  EXPECT_EQ(fleet.runtime(0, 1).hedges_issued, 1u);
  EXPECT_EQ(fleet.runtime(0, 1).hedge_wins, 1u);
  // Both requests billed in full: primary 1.0 + hedge 1.0.
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 2.0);
  // Completion = hedge delay 1.5 + secondary service 1.0 = 2.5; the wait
  // beyond the 1.0 already on the cost clock lands as penalty.
  EXPECT_DOUBLE_EQ(sources.last_access_penalty(), 1.5);
  EXPECT_DOUBLE_EQ(sources.elapsed_time(), 3.5);
  ASSERT_EQ(fleet.latency_samples(0).size(), 1u);
  EXPECT_DOUBLE_EQ(fleet.latency_samples(0)[0], 2.5);

  size_t issued = 0;
  size_t won = 0;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.kind != obs::TraceEventKind::kReplica) continue;
    if (std::string(event.phase) == "hedge_issued") ++issued;
    if (std::string(event.phase) == "hedge_won") ++won;
  }
  EXPECT_EQ(issued, 1u);
  EXPECT_EQ(won, 1u);
}

TEST(ReplicaHedgeTest, FastPrimaryNeverHedges) {
  const Dataset data = MakeData(88, 40, 2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  ReplicaFleet fleet(43);
  ReplicaSetConfig config;
  config.replicas.push_back(Endpoint(1.0, 1.0));
  config.replicas.push_back(Endpoint(1.0, 1.0));
  config.hedge.delay = 1.5;  // Above the deterministic latency of 1.0.
  ASSERT_TRUE(fleet.Configure(0, config).ok());

  SourceSet sources(&data, cost);
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  std::optional<SortedHit> hit;
  for (int a = 0; a < 5; ++a) {
    ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  }
  EXPECT_EQ(sources.stats().hedges_issued, 0u);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 5.0);
}

// --- Routing policies ---------------------------------------------------

TEST(ReplicaRoutingTest, PoliciesSteerTrafficAsDocumented) {
  const Dataset data = MakeData(99, 60, 2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  // Cheapest-healthy: all traffic lands on the cheapest replica.
  {
    ReplicaFleet fleet(47);
    ReplicaSetConfig config;
    config.replicas.push_back(Endpoint(2.0, 1.0));
    config.replicas.push_back(Endpoint(1.0, 1.0));
    config.routing = RoutingPolicy::kCheapestHealthy;
    ASSERT_TRUE(fleet.Configure(0, config).ok());
    SourceSet sources(&data, cost);
    ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
    std::optional<SortedHit> hit;
    for (int a = 0; a < 6; ++a) {
      ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
    }
    EXPECT_EQ(fleet.runtime(0, 0).served, 0u);
    EXPECT_EQ(fleet.runtime(0, 1).served, 6u);
    EXPECT_DOUBLE_EQ(sources.accrued_cost(), 6.0);
  }

  // Least-latency: the faster replica wins the traffic.
  {
    ReplicaFleet fleet(53);
    ReplicaSetConfig config;
    config.replicas.push_back(Endpoint(1.0, 3.0));
    config.replicas.push_back(Endpoint(1.0, 1.0));
    config.routing = RoutingPolicy::kLeastLatency;
    ASSERT_TRUE(fleet.Configure(0, config).ok());
    SourceSet sources(&data, cost);
    ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
    std::optional<SortedHit> hit;
    for (int a = 0; a < 6; ++a) {
      ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
    }
    EXPECT_EQ(fleet.runtime(0, 0).served, 0u);
    EXPECT_EQ(fleet.runtime(0, 1).served, 6u);
    EXPECT_TRUE(fleet.runtime(0, 1).has_ewma);
  }

  // Round-robin: traffic alternates across both replicas.
  {
    ReplicaFleet fleet(59);
    ReplicaSetConfig config;
    config.replicas.push_back(Endpoint(1.0, 1.0));
    config.replicas.push_back(Endpoint(1.0, 1.0));
    config.routing = RoutingPolicy::kRoundRobin;
    ASSERT_TRUE(fleet.Configure(0, config).ok());
    SourceSet sources(&data, cost);
    ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
    std::optional<SortedHit> hit;
    for (int a = 0; a < 6; ++a) {
      ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
    }
    EXPECT_EQ(fleet.runtime(0, 0).served, 3u);
    EXPECT_EQ(fleet.runtime(0, 1).served, 3u);
  }
}

// --- Reset ---------------------------------------------------------------

// Reset() rewinds the fleet with the SourceSet: breakers close, counters
// and EWMA clear, scripted faults rewind, and the rerun replays the
// original run exactly.
TEST(ReplicaResetTest, ResetRewindsFleetAndReplaysRun) {
  const Dataset data = MakeData(111);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  AverageFunction avg(3);

  ReplicaFleet fleet(61);
  for (PredicateId i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fleet.Configure(i, ThreeReplicas(RoutingPolicy::kLeastLatency, 0.4))
            .ok());
  }
  fleet.ScriptFaults(0, 0, {FaultKind::kTransient, FaultKind::kNone,
                            FaultKind::kTransient});

  SourceSet sources(&data, cost);
  RetryPolicy retry;
  retry.max_attempts = 3;
  sources.set_retry_policy(retry, /*jitter_seed=*/9);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 2;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());

  const TopKResult first = RunEngine(&sources, avg, 4);
  const double first_cost = sources.accrued_cost();
  const double first_elapsed = sources.elapsed_time();
  const size_t first_failovers = fleet.total_failovers();
  const size_t first_hedges = fleet.total_hedges_issued();

  sources.Reset();
  for (PredicateId i = 0; i < 3; ++i) {
    for (size_t r = 0; r < fleet.num_replicas(i); ++r) {
      const ReplicaRuntime& rt = fleet.runtime(i, r);
      EXPECT_FALSE(rt.breaker_open);
      EXPECT_FALSE(rt.dead);
      EXPECT_FALSE(rt.has_ewma);
      EXPECT_EQ(rt.served, 0u);
      EXPECT_EQ(rt.failovers, 0u);
      EXPECT_EQ(rt.breaker_trips, 0u);
      EXPECT_EQ(rt.hedges_issued, 0u);
      EXPECT_DOUBLE_EQ(rt.cost_accrued, 0.0);
      EXPECT_EQ(rt.latency_count, 0u);
    }
    EXPECT_TRUE(fleet.latency_samples(i).empty());
  }

  const TopKResult second = RunEngine(&sources, avg, 4);
  ExpectSameResult(second, first, "replayed run");
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), first_cost);
  EXPECT_DOUBLE_EQ(sources.elapsed_time(), first_elapsed);
  EXPECT_EQ(fleet.total_failovers(), first_failovers);
  EXPECT_EQ(fleet.total_hedges_issued(), first_hedges);
}

// --- Checkpoint / resume -------------------------------------------------

// Configures a fresh fleet + SourceSet pair identical to the scenario the
// checkpoint tests run: jittery latencies, hedging, a scripted transient
// burst, and a breaker.
struct FleetRig {
  ReplicaFleet fleet;
  SourceSet sources;

  FleetRig(const Dataset& data, const CostModel& cost)
      : fleet(67), sources(&data, cost) {
    for (PredicateId i = 0; i < data.num_predicates(); ++i) {
      NC_CHECK(fleet
                   .Configure(i, ThreeReplicas(RoutingPolicy::kLeastLatency,
                                               0.5, 1.4))
                   .ok());
    }
    fleet.ScriptFaults(1, 0, {FaultKind::kTransient, FaultKind::kNone,
                              FaultKind::kTransient, FaultKind::kTransient});
    RetryPolicy retry;
    retry.max_attempts = 2;
    sources.set_retry_policy(retry, /*jitter_seed=*/13);
    CircuitBreakerPolicy breaker;
    breaker.failure_threshold = 2;
    breaker.cooldown = 6.0;
    NC_CHECK(sources.set_circuit_breaker(breaker).ok());
    NC_CHECK(sources.set_replica_fleet(&fleet).ok());
    sources.EnableTrace();
  }
};

TEST(ReplicaCheckpointTest, ResumeReplaysFleetRunLosslessly) {
  const Dataset data = MakeData(123, 60, 3);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  AverageFunction avg(3);
  const size_t kKill = 9;

  // Uninterrupted run, checkpointed after access kKill.
  FleetRig full(data, cost);
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 3;
  std::optional<EngineCheckpoint> checkpoint;
  NCEngine* engine_ptr = nullptr;
  options.access_callback = [&checkpoint, &engine_ptr](size_t count) {
    if (count == kKill) checkpoint = engine_ptr->Checkpoint();
  };
  NCEngine engine(&full.sources, &avg, &policy, options);
  engine_ptr = &engine;
  TopKResult expected;
  ASSERT_TRUE(engine.Run(&expected).ok());
  ASSERT_TRUE(checkpoint.has_value());

  // The serialized form (ncckpt v2, fleet section included) round-trips
  // byte-identically.
  const std::string text = SerializeCheckpoint(*checkpoint);
  EngineCheckpoint parsed;
  ASSERT_TRUE(ParseCheckpoint(text, &parsed).ok());
  EXPECT_EQ(SerializeCheckpoint(parsed), text);

  // Resuming the parsed checkpoint on a freshly configured rig replays
  // the continuation exactly: same answer, cost, and access sequence.
  FleetRig resumed_rig(data, cost);
  SRGPolicy resume_policy(SRGConfig::Default(3));
  EngineOptions resume_options;
  resume_options.k = 3;
  NCEngine resume_engine(&resumed_rig.sources, &avg, &resume_policy,
                         resume_options);
  TopKResult resumed;
  ASSERT_TRUE(resume_engine.Resume(parsed, &resumed).ok());
  ExpectSameResult(resumed, expected, "fleet resume");
  EXPECT_DOUBLE_EQ(resumed_rig.sources.accrued_cost(),
                   full.sources.accrued_cost());
  EXPECT_DOUBLE_EQ(resumed_rig.sources.elapsed_time(),
                   full.sources.elapsed_time());
  EXPECT_EQ(SerializeAttemptTrace(resumed_rig.sources.attempt_trace()),
            SerializeAttemptTrace(full.sources.attempt_trace()));
  EXPECT_EQ(resumed_rig.fleet.total_failovers(), full.fleet.total_failovers());
  EXPECT_EQ(resumed_rig.fleet.total_hedges_issued(),
            full.fleet.total_hedges_issued());
}

TEST(ReplicaCheckpointTest, RestoreRejectsFleetAttachmentMismatch) {
  const Dataset data = MakeData(131, 40, 3);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);

  FleetRig rig(data, cost);
  std::optional<SortedHit> hit;
  ASSERT_TRUE(rig.sources.TrySortedAccess(0, &hit).ok());
  const SourceCheckpoint checkpoint = rig.sources.Checkpoint();
  EXPECT_TRUE(checkpoint.has_fleet);

  // A fleet-less SourceSet cannot take a fleet checkpoint.
  SourceSet plain(&data, cost);
  plain.EnableTrace();
  EXPECT_EQ(plain.RestoreCheckpoint(checkpoint).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nc
