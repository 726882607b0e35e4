#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "replica/replica.h"

namespace nc {
namespace {

using obs::ReplicaHealth;
using obs::ShouldSample;
using obs::TelemetryHub;

// --- Feeds and streaming estimates ---------------------------------------

TEST(TelemetryHubTest, ColdHubReturnsNaNEverywhere) {
  TelemetryHub hub;
  EXPECT_TRUE(hub.enabled());
  EXPECT_EQ(hub.queries_observed(), 0u);
  EXPECT_EQ(hub.replica_service_count(0, 0), 0u);
  EXPECT_TRUE(std::isnan(hub.ReplicaServiceQuantile(0, 0, 0.5)));
  EXPECT_TRUE(std::isnan(hub.CompletionQuantile(0, 0.99)));
  EXPECT_TRUE(std::isnan(hub.AccessCostEwma(0, AccessType::kSorted)));
  EXPECT_TRUE(std::isnan(hub.PredictionErrorQuantile(0, 0.5)));
  EXPECT_TRUE(std::isnan(hub.AdaptiveHedgeDelay(0, 0)));
  EXPECT_FALSE(hub.has_fleet_health());
}

TEST(TelemetryHubTest, ServiceSketchIsExactOnSmallSamples) {
  TelemetryHub hub;
  // P2 estimators are exact through their first five samples, so small
  // feeds give crisp expectations.
  for (const double v : {3.0, 1.0, 5.0, 2.0, 4.0}) {
    hub.ObserveReplicaService(/*i=*/1, /*r=*/2, v);
  }
  EXPECT_EQ(hub.replica_service_count(1, 2), 5u);
  EXPECT_DOUBLE_EQ(hub.ReplicaServiceQuantile(1, 2, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(hub.ReplicaServiceQuantile(1, 2, 0.99),
                   Percentile({1, 2, 3, 4, 5}, 0.99));
  // Other slots are untouched.
  EXPECT_EQ(hub.replica_service_count(1, 0), 0u);
  EXPECT_TRUE(std::isnan(hub.ReplicaServiceQuantile(2, 2, 0.5)));
}

TEST(TelemetryHubTest, SketchesTrackExactQuantilesOnLongStreams) {
  TelemetryHub hub;
  Rng rng(404);
  std::vector<double> stream;
  for (int n = 0; n < 2000; ++n) {
    const double v = rng.Uniform01() * 10.0;
    stream.push_back(v);
    hub.ObserveReplicaService(0, 0, v);
    hub.ObserveCompletion(0, v);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    // Bound the streamed estimate by the exact quantile's +-5 percentile
    // rank band, the same contract stats_test.cc proves for P2Quantile.
    const double lo = Percentile(stream, std::max(0.0, q - 0.05));
    const double hi = Percentile(stream, std::min(1.0, q + 0.05));
    const double service = hub.ReplicaServiceQuantile(0, 0, q);
    EXPECT_GE(service, lo) << "q=" << q;
    EXPECT_LE(service, hi) << "q=" << q;
    const double completion = hub.CompletionQuantile(0, q);
    EXPECT_GE(completion, lo) << "q=" << q;
    EXPECT_LE(completion, hi) << "q=" << q;
  }
}

TEST(TelemetryHubTest, AccessCostEwmaSeedsThenSmoothes) {
  TelemetryHub hub;
  hub.ObserveAccessCost(0, AccessType::kSorted, 10.0);
  EXPECT_DOUBLE_EQ(hub.AccessCostEwma(0, AccessType::kSorted), 10.0);
  hub.ObserveAccessCost(0, AccessType::kSorted, 20.0);
  EXPECT_DOUBLE_EQ(hub.AccessCostEwma(0, AccessType::kSorted),
                   10.0 + obs::kTelemetryCostEwmaAlpha * 10.0);
  // Sorted and random series are independent.
  EXPECT_TRUE(std::isnan(hub.AccessCostEwma(0, AccessType::kRandom)));
  hub.ObserveAccessCost(0, AccessType::kRandom, 3.0);
  EXPECT_DOUBLE_EQ(hub.AccessCostEwma(0, AccessType::kRandom), 3.0);
}

TEST(TelemetryHubTest, PredictionErrorSketchAccumulates) {
  TelemetryHub hub;
  hub.ObservePredictionError(0, 0.1);
  hub.ObservePredictionError(0, 0.3);
  hub.ObservePredictionError(0, 0.2);
  EXPECT_EQ(hub.prediction_error_count(0), 3u);
  EXPECT_DOUBLE_EQ(hub.PredictionErrorQuantile(0, 0.5), 0.2);
  EXPECT_EQ(hub.prediction_error_count(1), 0u);
}

// --- The adaptive hedge trigger ------------------------------------------

TEST(TelemetryHubTest, AdaptiveHedgeDelayNeedsMinSamples) {
  TelemetryHub hub;
  for (size_t n = 0; n + 1 < obs::kTelemetryMinSamples; ++n) {
    hub.ObserveReplicaService(0, 0, 1.0);
    EXPECT_TRUE(std::isnan(hub.AdaptiveHedgeDelay(0, 0)));
  }
  hub.ObserveReplicaService(0, 0, 1.0);
  EXPECT_DOUBLE_EQ(hub.AdaptiveHedgeDelay(0, 0), 1.0);
}

TEST(TelemetryHubTest, AdaptiveHedgeDelayIsWindowedExactP90) {
  TelemetryHub hub;
  // Fill the ring with a known mixture: 90 ones and 10 twenties would
  // exceed the window, so use the window size itself.
  std::vector<double> window;
  Rng rng(7);
  for (size_t n = 0; n < obs::kTelemetryHedgeWindow; ++n) {
    const double v = 1.0 + rng.Uniform01();
    window.push_back(v);
    hub.ObserveReplicaService(0, 0, v);
  }
  EXPECT_DOUBLE_EQ(hub.AdaptiveHedgeDelay(0, 0), Percentile(window, 0.9));

  // The window slides: after a full window of slower samples, the old
  // regime is forgotten and the trigger tracks the new one - the
  // property a whole-stream P2 marker cannot offer.
  std::vector<double> slower;
  for (size_t n = 0; n < obs::kTelemetryHedgeWindow; ++n) {
    const double v = 5.0 + rng.Uniform01();
    slower.push_back(v);
    hub.ObserveReplicaService(0, 0, v);
  }
  EXPECT_DOUBLE_EQ(hub.AdaptiveHedgeDelay(0, 0), Percentile(slower, 0.9));
  EXPECT_GE(hub.AdaptiveHedgeDelay(0, 0), 5.0);
}

TEST(TelemetryHubTest, AdaptiveHedgeDelaySitsInTheBulkUnderStragglers) {
  // The design point from the header comment: with a ~5% straggler tail
  // the trigger must land just above the latency bulk, never inside the
  // bulk/tail gap.
  TelemetryHub hub;
  Rng rng(11);
  for (int n = 0; n < 400; ++n) {
    const double bulk = 1.0 + 0.3 * rng.Uniform01();
    const double v = rng.Uniform01() < 0.05 ? bulk * 20.0 : bulk;
    hub.ObserveReplicaService(0, 0, v);
  }
  const double trigger = hub.AdaptiveHedgeDelay(0, 0);
  EXPECT_GE(trigger, 1.0);
  EXPECT_LE(trigger, 1.3);
}

// --- Cross-query fleet health --------------------------------------------

ReplicaFleet TwoByTwoFleet(uint64_t seed = 5) {
  ReplicaFleet fleet(seed);
  for (PredicateId i = 0; i < 2; ++i) {
    ReplicaSetConfig config;
    config.replicas.resize(2);
    EXPECT_TRUE(fleet.Configure(i, config).ok());
  }
  return fleet;
}

TEST(TelemetryHubTest, CaptureAndWarmCarryHealthAcrossReset) {
  ReplicaFleet fleet = TwoByTwoFleet();
  fleet.runtime(0, 0).dead = true;
  fleet.runtime(1, 1).breaker_open = true;
  fleet.runtime(1, 1).breaker_open_until = 7.5;
  fleet.runtime(1, 1).breaker_consecutive = 3;
  fleet.runtime(0, 1).has_ewma = true;
  fleet.runtime(0, 1).ewma_latency = 2.25;

  TelemetryHub hub;
  hub.CaptureFleetHealth(fleet, /*now=*/2.5);
  ASSERT_TRUE(hub.has_fleet_health());

  fleet.ResetRuntime();
  ASSERT_FALSE(fleet.runtime(0, 0).dead);
  hub.WarmFleet(&fleet);

  EXPECT_TRUE(fleet.runtime(0, 0).dead);
  EXPECT_TRUE(fleet.runtime(1, 1).breaker_open);
  // Cooldowns restart as *remaining* time on the new query's zero clock.
  EXPECT_DOUBLE_EQ(fleet.runtime(1, 1).breaker_open_until, 5.0);
  EXPECT_EQ(fleet.runtime(1, 1).breaker_consecutive, 3u);
  EXPECT_TRUE(fleet.runtime(0, 1).has_ewma);
  EXPECT_DOUBLE_EQ(fleet.runtime(0, 1).ewma_latency, 2.25);
  // Counters are per-query and deliberately NOT restored.
  EXPECT_EQ(fleet.runtime(0, 0).served, 0u);

  // Warming twice is idempotent.
  hub.WarmFleet(&fleet);
  EXPECT_TRUE(fleet.runtime(0, 0).dead);
  EXPECT_DOUBLE_EQ(fleet.runtime(1, 1).breaker_open_until, 5.0);
}

TEST(TelemetryHubTest, ElapsedCooldownIsNotCarried) {
  ReplicaFleet fleet = TwoByTwoFleet();
  fleet.runtime(0, 0).breaker_open = true;
  fleet.runtime(0, 0).breaker_open_until = 2.0;

  TelemetryHub hub;
  // Captured at now=3.0 the cooldown has already elapsed: the breaker
  // would admit a probe immediately, so nothing is worth carrying.
  hub.CaptureFleetHealth(fleet, /*now=*/3.0);
  fleet.ResetRuntime();
  hub.WarmFleet(&fleet);
  EXPECT_FALSE(fleet.runtime(0, 0).breaker_open);
  EXPECT_DOUBLE_EQ(fleet.runtime(0, 0).breaker_open_until, 0.0);
}

TEST(TelemetryHubTest, WarmSkipsSlotsTheFleetNoLongerHas) {
  ReplicaFleet fleet = TwoByTwoFleet();
  fleet.runtime(1, 1).dead = true;
  TelemetryHub hub;
  hub.CaptureFleetHealth(fleet, 0.0);

  // Shrink predicate 1 to a single replica: the captured (1, 1) slot no
  // longer exists and must be skipped, not crash or misapply.
  ReplicaSetConfig single;
  single.replicas.resize(1);
  ASSERT_TRUE(fleet.Configure(1, single).ok());
  hub.WarmFleet(&fleet);
  EXPECT_FALSE(fleet.runtime(1, 0).dead);
}

// Hub-informed routing: WarmFleet seeds a cold slot's kLeastLatency EWMA
// from the cross-query service sketch's median - but only once the
// sketch has kTelemetryMinSamples, and never over a health-carried EWMA.
TEST(TelemetryHubTest, WarmFleetSeedsColdRoutingEwmasFromServiceSketch) {
  TelemetryHub hub;
  ReplicaFleet fleet = TwoByTwoFleet();
  for (size_t n = 0; n < obs::kTelemetryMinSamples + 4; ++n) {
    hub.ObserveReplicaService(0, 1, 2.0 + 0.01 * static_cast<double>(n));
  }
  for (size_t n = 0; n < obs::kTelemetryMinSamples / 2; ++n) {
    hub.ObserveReplicaService(1, 0, 9.0);  // below threshold: stays cold
  }
  hub.WarmFleet(&fleet);
  EXPECT_TRUE(fleet.runtime(0, 1).has_ewma);
  EXPECT_DOUBLE_EQ(fleet.runtime(0, 1).ewma_latency,
                   hub.ReplicaServiceQuantile(0, 1, 0.5));
  EXPECT_FALSE(fleet.runtime(1, 0).has_ewma);
  EXPECT_FALSE(fleet.runtime(0, 0).has_ewma);  // no samples at all

  // Re-warming is idempotent: the seeded value does not drift.
  const double seeded = fleet.runtime(0, 1).ewma_latency;
  hub.WarmFleet(&fleet);
  EXPECT_DOUBLE_EQ(fleet.runtime(0, 1).ewma_latency, seeded);
}

TEST(TelemetryHubTest, HealthCarriedEwmaBeatsServiceSeed) {
  ReplicaFleet fleet = TwoByTwoFleet();
  fleet.runtime(0, 1).has_ewma = true;
  fleet.runtime(0, 1).ewma_latency = 1.25;
  TelemetryHub hub;
  hub.CaptureFleetHealth(fleet, /*now=*/0.0);
  for (size_t n = 0; n < 2 * obs::kTelemetryMinSamples; ++n) {
    hub.ObserveReplicaService(0, 1, 50.0);
  }
  fleet.ResetRuntime();
  hub.WarmFleet(&fleet);
  // The live health capture is authoritative; the sketch only fills gaps.
  EXPECT_TRUE(fleet.runtime(0, 1).has_ewma);
  EXPECT_DOUBLE_EQ(fleet.runtime(0, 1).ewma_latency, 1.25);
}

// Differential guarantee for hub-informed routing: seeding EWMAs changes
// WHERE an access is served, never what it returns. A fault-free
// kLeastLatency run with a service-seeded hub attached answers
// bit-identically to the hub-less run and to brute force.
TEST(TelemetryHubTest, ServiceSeededRoutingDoesNotPerturbAnswers) {
  GeneratorOptions g;
  g.num_objects = 300;
  g.num_predicates = 2;
  g.seed = 1234;
  const Dataset data = GenerateDataset(g);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  ReplicaSetConfig config;
  config.replicas.resize(2);
  config.replicas[1].latency.multiplier = 3.0;
  config.routing = RoutingPolicy::kLeastLatency;

  const auto run = [&](TelemetryHub* hub, TopKResult* result) {
    ReplicaFleet fleet(9);
    for (PredicateId i = 0; i < 2; ++i) {
      ASSERT_TRUE(fleet.Configure(i, config).ok());
    }
    SourceSet sources(&data, cost);
    ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
    if (hub != nullptr) {
      sources.set_telemetry_hub(hub);
      // The seed really landed before the query ran.
      EXPECT_TRUE(fleet.runtime(0, 1).has_ewma);
    }
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 5;
    ASSERT_TRUE(RunNC(&sources, &avg, &policy, options, result).ok());
  };

  // A hub that has watched replica 1 answer fast: the seed steers
  // kLeastLatency toward it from the first access.
  TelemetryHub hub;
  for (size_t n = 0; n < 2 * obs::kTelemetryMinSamples; ++n) {
    hub.ObserveReplicaService(0, 1, 0.25);
    hub.ObserveReplicaService(1, 1, 0.25);
  }

  TopKResult without_hub, with_hub;
  run(nullptr, &without_hub);
  run(&hub, &with_hub);
  EXPECT_EQ(with_hub, without_hub);
  EXPECT_EQ(with_hub, BruteForceTopK(data, avg, 5));
}

// Hedging under a heavy tail (three replicas, 5% of requests straggle at
// 20x): every fixed delay > 0 cuts the pooled p99 below primary-only,
// every answer stays exact, and no fixed delay beats HedgePolicy::adaptive
// on both p99 and Eq. 1 cost. Each point runs a warm-up query into the
// hub, then the measured one across Reset(), as a session's second query.
TEST(TelemetryHubTest, AdaptiveHedgeIsNotDominatedByAnyFixedDelay) {
  GeneratorOptions g;
  g.num_objects = 200;
  g.num_predicates = 3;
  g.seed = 2026;
  const Dataset data = GenerateDataset(g);
  AverageFunction avg(3);
  const TopKResult expected = BruteForceTopK(data, avg, 10);
  ReplicaEndpoint heavy_tail;
  heavy_tail.latency.jitter = 0.3;
  heavy_tail.latency.tail_probability = 0.05;
  heavy_tail.latency.tail_multiplier = 20.0;

  // The measured query's pooled p99 latency and Eq. 1 cost.
  const auto run = [&](bool adaptive, double delay) {
    ReplicaSetConfig config;
    config.replicas = {heavy_tail, heavy_tail, heavy_tail};
    config.hedge.adaptive = adaptive;
    config.hedge.delay = delay;
    ReplicaFleet fleet(97);
    for (PredicateId i = 0; i < 3; ++i) {
      EXPECT_TRUE(fleet.Configure(i, config).ok());
    }
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
    EXPECT_TRUE(sources.set_replica_fleet(&fleet).ok());
    TelemetryHub hub;
    sources.set_telemetry_hub(&hub);
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    EXPECT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
    sources.Reset();
    EXPECT_TRUE(RunNC(&sources, &avg, &policy, options, &result).ok());
    EXPECT_EQ(result, expected) << "adaptive " << adaptive << " delay "
                                << delay;
    std::vector<double> samples;
    for (PredicateId i = 0; i < 3; ++i) {
      const std::vector<double>& s = fleet.latency_samples(i);
      samples.insert(samples.end(), s.begin(), s.end());
    }
    return std::make_pair(Percentile(samples, 0.99), sources.accrued_cost());
  };

  const double primary_only_p99 = run(false, 0.0).first;
  const auto adaptive = run(true, 0.0);
  EXPECT_LT(adaptive.first, primary_only_p99);
  for (const double delay : {1.2, 1.5, 2.0, 4.0}) {
    const auto fixed = run(false, delay);
    EXPECT_LT(fixed.first, primary_only_p99) << "delay " << delay;
    const bool dominates = fixed.first <= adaptive.first &&
                           fixed.second <= adaptive.second && fixed != adaptive;
    EXPECT_FALSE(dominates)
        << "delay " << delay << ": (p99, cost) (" << fixed.first << ", "
        << fixed.second << ") vs adaptive (" << adaptive.first << ", "
        << adaptive.second << ")";
  }
}

TEST(TelemetryHubTest, DisabledHubIsInert) {
  TelemetryHub hub;
  hub.Disable();
  EXPECT_FALSE(ShouldSample(&hub));
  EXPECT_FALSE(ShouldSample(nullptr));

  hub.ObserveReplicaService(0, 0, 1.0);
  hub.ObserveCompletion(0, 1.0);
  hub.ObserveAccessCost(0, AccessType::kSorted, 1.0);
  hub.ObservePredictionError(0, 0.5);
  hub.NoteQuery();
  EXPECT_EQ(hub.replica_service_count(0, 0), 0u);
  EXPECT_EQ(hub.queries_observed(), 0u);
  EXPECT_TRUE(std::isnan(hub.AccessCostEwma(0, AccessType::kSorted)));

  ReplicaFleet fleet = TwoByTwoFleet();
  fleet.runtime(0, 0).dead = true;
  hub.CaptureFleetHealth(fleet, 0.0);
  EXPECT_FALSE(hub.has_fleet_health());

  // Re-enabling resumes sampling without losing the (empty) slate.
  hub.Enable();
  hub.NoteQuery();
  EXPECT_EQ(hub.queries_observed(), 1u);
}

TEST(TelemetryHubTest, ClearDropsAllCrossQueryState) {
  TelemetryHub hub;
  hub.ObserveReplicaService(0, 0, 1.0);
  hub.ObserveCompletion(0, 1.0);
  hub.ObserveAccessCost(0, AccessType::kRandom, 2.0);
  hub.ObservePredictionError(0, 0.1);
  hub.NoteQuery();
  ReplicaFleet fleet = TwoByTwoFleet();
  fleet.runtime(0, 0).dead = true;
  hub.CaptureFleetHealth(fleet, 0.0);
  ASSERT_TRUE(hub.has_fleet_health());

  hub.Clear();
  EXPECT_EQ(hub.queries_observed(), 0u);
  EXPECT_EQ(hub.replica_service_count(0, 0), 0u);
  EXPECT_TRUE(std::isnan(hub.CompletionQuantile(0, 0.5)));
  EXPECT_TRUE(std::isnan(hub.AccessCostEwma(0, AccessType::kRandom)));
  EXPECT_EQ(hub.prediction_error_count(0), 0u);
  EXPECT_FALSE(hub.has_fleet_health());
  // A cleared hub warms nothing.
  fleet.ResetRuntime();
  hub.WarmFleet(&fleet);
  EXPECT_FALSE(fleet.runtime(0, 0).dead);
}

// --- SlotKey packing ------------------------------------------------------

TEST(TelemetryHubTest, SlotKeyBoundaryReplicaIndicesDoNotAlias) {
  TelemetryHub hub;
  // (0, 2^32-1) and (1, 0) pack into adjacent uint64 keys; a narrowing
  // or unshifted pack would alias them onto one slot.
  const size_t top = (size_t{1} << 32) - 1;
  hub.ObserveReplicaService(0, top, 1.0);
  hub.ObserveReplicaService(0, top, 2.0);
  hub.ObserveReplicaService(1, 0, 9.0);
  EXPECT_EQ(hub.replica_service_count(0, top), 2u);
  EXPECT_EQ(hub.replica_service_count(1, 0), 1u);
  EXPECT_EQ(hub.replica_service_count(0, 0), 0u);
  EXPECT_DOUBLE_EQ(hub.ReplicaServiceQuantile(1, 0, 0.5), 9.0);
}

TEST(TelemetryHubDeathTest, OversizedReplicaIndexIsRefusedNotAliased) {
  TelemetryHub hub;
  // Replica index 2^32 would silently wrap into (predicate + 1, 0); the
  // CHECK turns the aliasing into a crash at the call site.
  EXPECT_DEATH(hub.ObserveReplicaService(0, size_t{1} << 32, 1.0), "");
}

// --- Concurrent capture semantics -----------------------------------------

TEST(TelemetryHubTest, CaptureMergeKeepsDeathsSticky) {
  // Two workers capture their own per-worker fleet views in turn.
  // Worker B's view never saw the death worker A observed; the
  // slot-by-slot merge must not let B's capture resurrect the replica,
  // while B's fresher EWMA still lands.
  TelemetryHub hub;
  ReplicaFleet seen_death = TwoByTwoFleet();
  seen_death.runtime(0, 0).dead = true;
  hub.CaptureFleetHealth(seen_death, 0.0);

  ReplicaFleet never_saw_it = TwoByTwoFleet();
  never_saw_it.runtime(0, 0).has_ewma = true;
  never_saw_it.runtime(0, 0).ewma_latency = 4.5;
  hub.CaptureFleetHealth(never_saw_it, 0.0);

  const std::vector<ReplicaHealth> health = hub.fleet_health();
  ASSERT_EQ(health.size(), 4u);
  EXPECT_EQ(health[0].predicate, 0u);
  EXPECT_EQ(health[0].replica, 0u);
  EXPECT_TRUE(health[0].dead);      // Sticky across captures.
  EXPECT_TRUE(health[0].has_ewma);  // The fresh capture's value.
  EXPECT_DOUBLE_EQ(health[0].ewma_latency, 4.5);

  // A fleet warmed from the merged capture routes around the death.
  ReplicaFleet fresh = TwoByTwoFleet();
  hub.WarmFleet(&fresh);
  EXPECT_TRUE(fresh.runtime(0, 0).dead);
}

TEST(TelemetryHubTest, ConcurrentFeedsAndReadsAreSafe) {
  // Smoke for the hub's internal synchronization (the full proof is
  // server_test.cc under the tsan preset): four threads hammer feeds
  // and reads on overlapping and distinct slots.
  TelemetryHub hub;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hub, t] {
      const size_t r = static_cast<size_t>(t);
      for (int n = 0; n < 500; ++n) {
        hub.ObserveReplicaService(0, r, 1.0 + n % 7);
        hub.ObserveCompletion(0, 2.0);
        hub.ObserveAccessCost(0, AccessType::kSorted, 1.0);
        hub.NoteQuery();
        (void)hub.ReplicaServiceQuantile(0, r, 0.5);
        (void)hub.AdaptiveHedgeDelay(0, r);
        (void)hub.CompletionQuantile(0, 0.99);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hub.queries_observed(), 4u * 500u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(hub.replica_service_count(0, r), 500u);
  }
}

// --- Persistence ("nchub 2") ----------------------------------------------

// Fills a hub with pseudo-random state across every record kind the
// format carries: sketches on several slots, cost EWMAs, hedge windows
// (both partially filled and wrapped rings), and captured fleet health.
void FeedRandomly(TelemetryHub* hub, uint64_t seed) {
  Rng rng(seed);
  const size_t slots = 1 + rng.UniformInt(4);
  for (size_t s = 0; s < slots; ++s) {
    const PredicateId i = static_cast<PredicateId>(rng.UniformInt(3));
    const size_t r = rng.UniformInt(3);
    const size_t n = 1 + rng.UniformInt(150);  // May wrap the hedge ring.
    for (size_t v = 0; v < n; ++v) {
      hub->ObserveReplicaService(i, r, rng.Uniform01() * 50.0);
    }
    for (size_t v = 0; v < 1 + rng.UniformInt(30); ++v) {
      hub->ObserveCompletion(i, rng.Uniform01() * 20.0);
      hub->ObservePredictionError(i, rng.Uniform01());
    }
    hub->ObserveAccessCost(i, AccessType::kSorted, rng.Uniform01() * 3.0);
    hub->ObserveAccessCost(i, AccessType::kRandom, rng.Uniform01() * 8.0);
    hub->NoteQuery();
  }
  ReplicaFleet fleet = TwoByTwoFleet(seed);
  fleet.runtime(0, 0).dead = rng.Uniform01() < 0.5;
  fleet.runtime(1, 1).breaker_open = true;
  fleet.runtime(1, 1).breaker_open_until = 4.0 + rng.Uniform01();
  fleet.runtime(1, 1).breaker_consecutive = 1 + rng.UniformInt(5);
  fleet.runtime(0, 1).has_ewma = true;
  fleet.runtime(0, 1).ewma_latency = rng.Uniform01() * 7.0;
  hub->CaptureFleetHealth(fleet, /*now=*/rng.Uniform01());
}

// THE property test the header contract names: Deserialize(Serialize())
// reproduces the document byte-for-byte, across many random hub states.
// Byte-exact re-serialization implies bit-exact state (every double
// rides as a hexfloat), so a restored hub continues estimating exactly
// where the saved one stopped.
TEST(TelemetryHubPersistTest, SerializeRoundTripsByteExact) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    TelemetryHub hub;
    FeedRandomly(&hub, seed);
    const std::string doc = hub.Serialize();
    ASSERT_EQ(doc.rfind("nchub 2\n", 0), 0u) << "seed " << seed;

    TelemetryHub restored;
    ASSERT_TRUE(restored.Deserialize(doc).ok()) << "seed " << seed;
    EXPECT_EQ(restored.Serialize(), doc) << "seed " << seed;

    // Spot-check live behavior, not just bytes: the estimators answer
    // identically.
    EXPECT_EQ(restored.queries_observed(), hub.queries_observed());
    for (PredicateId i = 0; i < 3; ++i) {
      for (size_t r = 0; r < 3; ++r) {
        const double a = hub.AdaptiveHedgeDelay(i, r);
        const double b = restored.AdaptiveHedgeDelay(i, r);
        EXPECT_TRUE((std::isnan(a) && std::isnan(b)) || a == b);
        const double qa = hub.ReplicaServiceQuantile(i, r, 0.9);
        const double qb = restored.ReplicaServiceQuantile(i, r, 0.9);
        EXPECT_TRUE((std::isnan(qa) && std::isnan(qb)) || qa == qb);
      }
    }
  }
}

TEST(TelemetryHubPersistTest, EmptyHubRoundTrips) {
  TelemetryHub hub;
  const std::string doc = hub.Serialize();
  EXPECT_EQ(doc, "nchub 2\nqueries 0\nend\n");
  TelemetryHub restored;
  ASSERT_TRUE(restored.Deserialize(doc).ok());
  EXPECT_EQ(restored.Serialize(), doc);
}

TEST(TelemetryHubPersistTest, VersionOneDocumentStillLoads) {
  // Version 2 added the "profile" record; hubs saved by older builds
  // must keep loading, and re-serializing upgrades the header.
  TelemetryHub hub;
  ASSERT_TRUE(hub.Deserialize("nchub 1\nqueries 7\nend\n").ok());
  EXPECT_EQ(hub.queries_observed(), 7u);
  EXPECT_EQ(hub.Serialize().rfind("nchub 2\n", 0), 0u);
}

TEST(TelemetryHubPersistTest, RestoredSketchKeepsEstimatingNotJustReporting) {
  // The format carries the full P2 marker vectors, so feeding MORE
  // samples after a restore matches feeding them without the round trip.
  TelemetryHub hub;
  Rng rng(77);
  std::vector<double> tail;
  for (int n = 0; n < 300; ++n) hub.ObserveCompletion(0, rng.Uniform01());
  for (int n = 0; n < 300; ++n) tail.push_back(rng.Uniform01());

  TelemetryHub restored;
  ASSERT_TRUE(restored.Deserialize(hub.Serialize()).ok());
  for (const double v : tail) {
    hub.ObserveCompletion(0, v);
    restored.ObserveCompletion(0, v);
  }
  EXPECT_EQ(restored.CompletionQuantile(0, 0.5), hub.CompletionQuantile(0, 0.5));
  EXPECT_EQ(restored.CompletionQuantile(0, 0.99),
            hub.CompletionQuantile(0, 0.99));
}

TEST(TelemetryHubPersistTest, ParseErrorsNameTheLineAndLeaveHubUntouched) {
  TelemetryHub hub;
  FeedRandomly(&hub, 3);
  const std::string before = hub.Serialize();

  const char* corrupt[] = {
      "",                                     // No header.
      "nchub 3\nend\n",                       // Future version.
      "nchub 1\nqueries 0\n",                 // Missing end.
      "nchub 1\nqueries 0\nend\ntrailing\n",  // Records after end.
      "nchub 1\nqueries 0\nwhat 1 2\nend\n",  // Unknown record.
      "nchub 1\nqueries zero\nend\n",         // Non-numeric token.
      "nchub 1\nqueries 0 0\nend\n",          // Trailing token.
      "nchub 1\ncost 0 2 0x1p+0\nend\n",      // Access type out of range.
      "nchub 2\nhedge 0 0 64 1 1 0x1p+0\nend\n",  // Ring cursor past the ring.
  };
  for (const char* doc : corrupt) {
    const Status status = hub.Deserialize(doc);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << doc;
    EXPECT_EQ(hub.Serialize(), before) << doc;  // State unchanged.
  }
}

TEST(TelemetryHubPersistTest, SaveAndLoadFileRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/nchub_roundtrip_test.nchub";
  TelemetryHub hub;
  FeedRandomly(&hub, 9);
  ASSERT_TRUE(hub.SaveToFile(path).ok());

  TelemetryHub loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.Serialize(), hub.Serialize());

  // A missing file is kUnavailable (the caller decides whether that is a
  // cold start or an error), not a crash.
  TelemetryHub missing;
  EXPECT_EQ(missing.LoadFromFile(path + ".does-not-exist").code(),
            StatusCode::kUnavailable);
  std::remove(path.c_str());
}

// SaveToFile writes "<path>.tmp" and renames it over the snapshot, so a
// save that fails leaves the previous snapshot byte-identical. Here the
// temp path is a directory, which cannot be opened for writing.
TEST(TelemetryHubPersistTest, FailedSaveLeavesThePreviousSnapshot) {
  const std::string path = ::testing::TempDir() + "/nchub_atomic_test.nchub";
  const auto read = [&path] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  TelemetryHub saved;
  FeedRandomly(&saved, 4);
  ASSERT_TRUE(saved.SaveToFile(path).ok());
  const std::string before = read();
  ASSERT_EQ(before, saved.Serialize());
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));

  TelemetryHub hub;
  FeedRandomly(&hub, 5);
  EXPECT_EQ(hub.SaveToFile(path).code(), StatusCode::kUnavailable);
  EXPECT_EQ(read(), before);
  std::filesystem::remove(path + ".tmp");
  std::filesystem::remove(path);
}

TEST(TelemetryHubPersistTest, LoadedHealthWarmsAFreshFleet) {
  // The warm-start story end to end at the hub level: health captured in
  // process A (replica (0,0) dead) survives the text round trip and
  // re-applies onto process B's brand-new fleet.
  TelemetryHub hub;
  ReplicaFleet fleet = TwoByTwoFleet();
  fleet.runtime(0, 0).dead = true;
  hub.CaptureFleetHealth(fleet, 0.0);

  TelemetryHub loaded;
  ASSERT_TRUE(loaded.Deserialize(hub.Serialize()).ok());
  ReplicaFleet fresh = TwoByTwoFleet(/*seed=*/99);
  ASSERT_FALSE(fresh.runtime(0, 0).dead);
  loaded.WarmFleet(&fresh);
  EXPECT_TRUE(fresh.runtime(0, 0).dead);
  EXPECT_FALSE(fresh.runtime(0, 1).dead);
}

TEST(TelemetryHubPersistTest, SnapshotDecodesAndSortsEverything) {
  TelemetryHub hub;
  hub.ObserveReplicaService(1, 0, 2.0);
  hub.ObserveReplicaService(0, 1, 3.0);
  hub.ObserveCompletion(0, 1.0);
  hub.ObserveAccessCost(0, AccessType::kRandom, 4.0);
  hub.NoteQuery();
  const obs::HubSnapshot snap = hub.Snapshot();
  EXPECT_EQ(snap.queries_observed, 1u);
  ASSERT_EQ(snap.service.size(), 2u);
  EXPECT_EQ(snap.service[0].predicate, 0u);
  EXPECT_EQ(snap.service[0].replica, 1u);
  EXPECT_EQ(snap.service[1].predicate, 1u);
  EXPECT_EQ(snap.service[1].replica, 0u);
  EXPECT_DOUBLE_EQ(snap.service[1].p50, 2.0);
  ASSERT_EQ(snap.completion.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.completion[0].p50, 1.0);
  ASSERT_EQ(snap.cost.size(), 1u);
  EXPECT_EQ(snap.cost[0].type, AccessType::kRandom);
  EXPECT_DOUBLE_EQ(snap.cost[0].ewma, 4.0);
}

}  // namespace
}  // namespace nc
