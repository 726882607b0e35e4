// Fault injection and recovery (access/fault.h): retries must be
// invisible except in cost, deaths must degrade the engines instead of
// crashing them, and every failure sequence must replay from its seed.

#include <gtest/gtest.h>

#include <vector>

#include "access/budget.h"
#include "access/fault.h"
#include "access/source.h"
#include "baselines/registry.h"
#include "core/engine.h"
#include "core/parallel_executor.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"

namespace nc {
namespace {

// A sorted access that must be served.
std::optional<SortedHit> ReadSorted(SourceSet* sources, PredicateId i) {
  std::optional<SortedHit> hit;
  EXPECT_TRUE(sources->TrySortedAccess(i, &hit).ok());
  return hit;
}

Dataset MakeData(uint64_t seed, size_t n = 200, size_t m = 2) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithoutJitter) {
  RetryPolicy policy;
  policy.backoff_base = 0.5;
  policy.backoff_multiplier = 3.0;
  policy.backoff_jitter = 0.0;
  EXPECT_DOUBLE_EQ(policy.BackoffDelay(1, nullptr), 0.5);
  EXPECT_DOUBLE_EQ(policy.BackoffDelay(2, nullptr), 1.5);
  EXPECT_DOUBLE_EQ(policy.BackoffDelay(3, nullptr), 4.5);
}

TEST(FaultInjectorTest, ScriptsRunBeforeRatesAndResetRestoresThem) {
  FaultInjector injector(/*seed=*/1);
  injector.Script(0, {FaultKind::kTransient, FaultKind::kTimeout});
  EXPECT_EQ(injector.NextOutcome(0), FaultKind::kTransient);
  EXPECT_EQ(injector.NextOutcome(0), FaultKind::kTimeout);
  // Script exhausted, no rates configured: clean success.
  EXPECT_EQ(injector.NextOutcome(0), FaultKind::kNone);
  EXPECT_EQ(injector.attempts(0), 3u);
  injector.Reset();
  EXPECT_EQ(injector.attempts(0), 0u);
  EXPECT_EQ(injector.NextOutcome(0), FaultKind::kTransient);
}

TEST(FaultToleranceTest, ScriptedTransientsRetryUntilSuccess) {
  const Dataset data = MakeData(11);
  SourceSet plain(&data, CostModel::Uniform(2, 1.0, 1.0));
  const auto undisturbed = ReadSorted(&plain, 0);
  ASSERT_TRUE(undisturbed.has_value());

  FaultInjector injector(/*seed=*/2);
  injector.Script(0, {FaultKind::kTransient, FaultKind::kTransient});
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);

  std::optional<SortedHit> hit;
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  ASSERT_TRUE(hit.has_value());
  // Retries never change what the access returns...
  EXPECT_EQ(hit->object, undisturbed->object);
  EXPECT_DOUBLE_EQ(hit->score, undisturbed->score);
  EXPECT_DOUBLE_EQ(sources.last_seen(0), plain.last_seen(0));
  // ...only what it costs: two failed attempts at retry_cost_factor=1
  // plus the successful one.
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 3.0);
  EXPECT_EQ(sources.stats().transient_failures, 2u);
  EXPECT_EQ(sources.stats().retried_attempts[0], 2u);
  EXPECT_EQ(sources.stats().TotalSorted(), 1u);
  EXPECT_EQ(sources.stats().abandoned_accesses, 0u);
}

TEST(FaultToleranceTest, ExhaustedRetriesConsumeNoSourceState) {
  const Dataset data = MakeData(12);
  FaultInjector injector(/*seed=*/3);
  // Default policy makes 3 attempts; script all of them to fail.
  injector.Script(0, {FaultKind::kTransient, FaultKind::kTimeout,
                      FaultKind::kTransient});
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);

  std::optional<SortedHit> hit;
  const Status status = sources.TrySortedAccess(0, &hit);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(hit.has_value());
  // The stream did not advance, nothing was traced or counted, and the
  // unseen-object bound is untouched.
  EXPECT_EQ(sources.sorted_position(0), 0u);
  EXPECT_EQ(sources.stats().TotalSorted(), 0u);
  EXPECT_DOUBLE_EQ(sources.last_seen(0), kMaxScore);
  EXPECT_EQ(sources.stats().abandoned_accesses, 1u);
  // The three failed attempts were still billed.
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 3.0);
  // The source is alive: the next access succeeds and reads the first
  // entry the failed one never consumed.
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(sources.sorted_position(0), 1u);
  EXPECT_FALSE(sources.any_source_down());
}

// The ISSUE's acceptance scenario: a seeded run with ~10% transient
// failures must produce the same top-k and the same access trace as the
// failure-free run - retries only add cost.
TEST(FaultToleranceTest, TransientFailuresPreserveResultAndTrace) {
  const Dataset data = MakeData(13, 300, 3);
  AverageFunction avg(3);
  const CostModel cost = CostModel::Uniform(3, 1.0, 1.0);
  const TopKResult oracle = BruteForceTopK(data, avg, 7);

  TopKResult clean_result;
  SourceSet clean(&data, cost);
  clean.EnableTrace();
  {
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 7;
    ASSERT_TRUE(RunNC(&clean, &avg, &policy, options, &clean_result).ok());
  }
  EXPECT_EQ(clean_result, oracle);

  FaultProfile profile;
  profile.transient_rate = 0.08;
  profile.timeout_rate = 0.02;
  FaultInjector injector(/*seed=*/99);
  injector.set_default_profile(profile);
  RetryPolicy retry;
  retry.max_attempts = 12;  // Make abandonment vanishingly unlikely.

  SourceSet faulty(&data, cost);
  faulty.EnableTrace();
  faulty.set_fault_injector(&injector);
  faulty.set_retry_policy(retry, /*jitter_seed=*/5);
  TopKResult faulty_result;
  {
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 7;
    NCEngine engine(&faulty, &avg, &policy, options);
    ASSERT_TRUE(engine.Run(&faulty_result).ok());
    EXPECT_TRUE(engine.last_run_exact());
    EXPECT_FALSE(engine.last_run_degraded());
  }
  EXPECT_EQ(faulty_result, clean_result);
  EXPECT_EQ(faulty.trace(), clean.trace());
  // The seed produced failures, and each failed attempt was billed.
  const size_t failures = faulty.stats().transient_failures +
                          faulty.stats().timeout_failures;
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(faulty.stats().abandoned_accesses, 0u);
  EXPECT_DOUBLE_EQ(faulty.accrued_cost(),
                   clean.accrued_cost() + static_cast<double>(failures));
}

TEST(FaultToleranceTest, SourceDeathMidRunReturnsBestEffort) {
  const Dataset data = MakeData(14, 150, 2);
  MinFunction fmin(2);
  // Figure 2's asymmetric pattern: p0 is stream-only, p1 probe-only, so
  // p1's death makes every unfinished scoring task unsatisfiable.
  CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  cost.random_cost[0] = kImpossibleCost;
  cost.sorted_cost[1] = kImpossibleCost;

  FaultProfile deadly;
  deadly.die_after_attempts = 5;
  FaultInjector injector(/*seed=*/4);
  injector.set_profile(1, deadly);

  SourceSet sources(&data, cost);
  sources.set_fault_injector(&injector);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  NCEngine engine(&sources, &fmin, &policy, options);
  TopKResult result;
  const Status status = engine.Run(&result);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(sources.source_down(1));
  EXPECT_EQ(sources.stats().source_deaths, 1u);
  EXPECT_TRUE(engine.last_run_degraded());
  EXPECT_TRUE(engine.last_run_truncated());
  EXPECT_FALSE(engine.last_run_exact());
  // Best-effort scores are upper bounds on the true scores.
  std::vector<Score> row(2);
  for (const TopKEntry& e : result.entries) {
    for (PredicateId i = 0; i < 2; ++i) row[i] = data.score(e.object, i);
    EXPECT_GE(e.score, fmin.Evaluate(row));
  }
  // A truncated answer cannot be widened.
  TopKResult widened;
  EXPECT_EQ(engine.Extend(10, &widened).code(),
            StatusCode::kFailedPrecondition);
}

// The baselines' published control loops cannot steer around a dead
// predicate, but a source that fails for good surfaces as kUnavailable
// instead of aborting the process. MPro and Upper run NCEngine, which
// degrades around the death and certifies what the survivors established.
TEST(FaultToleranceTest, BaselinesReturnUnavailableWhenASourceDies) {
  const Dataset data = MakeData(16, 80, 3);
  AverageFunction avg(3);
  FaultProfile deadly;
  deadly.die_after_attempts = 3;
  for (const AlgorithmInfo& info : AllBaselines()) {
    FaultInjector injector(/*seed=*/6);
    injector.set_profile(1, deadly);
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
    sources.set_fault_injector(&injector);
    TopKResult result;
    const Status status = info.run(&sources, avg, 5, &result);
    EXPECT_TRUE(sources.source_down(1)) << info.name;
    if (info.name != "MPro" && info.name != "Upper") {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable)
          << info.name << ": " << status;
      continue;
    }
    ASSERT_TRUE(status.ok()) << info.name << ": " << status;
    ASSERT_TRUE(result.certificate.has_value()) << info.name;
    EXPECT_EQ(result.certificate->reason, TerminationReason::kSourceFailure)
        << info.name;
    EXPECT_EQ(CheckAnswer(data, avg, 5, result), "") << info.name;
  }
}

// Replays a fixed access sequence; the fault scenarios below need exact
// control over which access meets which injected outcome.
class ScriptedPolicy : public SelectPolicy {
 public:
  explicit ScriptedPolicy(std::vector<Access> script)
      : script_(std::move(script)) {}
  void Reset(const SourceSet& sources) override {
    (void)sources;
    next_ = 0;
  }
  Access Select(std::span<const Access> alternatives,
                const EngineView& view) override {
    (void)alternatives;
    (void)view;
    NC_CHECK(next_ < script_.size());
    return script_[next_++];
  }

 private:
  std::vector<Access> script_;
  size_t next_ = 0;
};

TEST(FaultToleranceTest, DeathWithSurvivingCapabilitiesCompletesExactly) {
  // u2 = (.9, .9) is the clear top-1 and is completely evaluated before
  // p1 dies; the death lands on a *discovery* read of p1's stream, and
  // discovery survives on p0. The engine keeps going on the surviving
  // capabilities and still terminates with the exact answer.
  Dataset data;
  ASSERT_TRUE(
      Dataset::FromRows({{0.1, 0.1}, {0.8, 0.2}, {0.9, 0.9}}, &data).ok());
  AverageFunction avg(2);

  FaultInjector injector(/*seed=*/6);
  // First p1 attempt (the probe completing u2) succeeds; the second (the
  // discovery read) reveals the death.
  injector.Script(1, {FaultKind::kNone, FaultKind::kSourceDown});

  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);
  // Discover u2 on p0, complete it with a probe, try to push the unseen
  // bound down on p1 (death), fall back to p0's stream.
  ScriptedPolicy policy({Access::Sorted(0), Access::Random(1, 2),
                         Access::Sorted(1), Access::Sorted(0)});
  EngineOptions options;
  options.k = 1;
  NCEngine engine(&sources, &avg, &policy, options);
  TopKResult result;
  const Status status = engine.Run(&result);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(sources.source_down(1));
  EXPECT_TRUE(engine.last_run_degraded());
  EXPECT_FALSE(engine.last_run_truncated());
  EXPECT_TRUE(engine.last_run_exact());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 1));
  // The killed access never performed: three accesses did.
  EXPECT_EQ(engine.accesses_performed(), 3u);
}

TEST(FaultToleranceTest, ResetRevivesDeadSourcesAndReplaysFaults) {
  const Dataset data = MakeData(17, 60, 2);
  FaultProfile flaky;
  flaky.transient_rate = 0.3;
  FaultInjector injector(/*seed=*/7);
  injector.set_default_profile(flaky);

  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);
  sources.KillSource(0);
  EXPECT_TRUE(sources.source_down(0));
  EXPECT_FALSE(sources.has_sorted(0));

  std::vector<double> costs;
  std::optional<SortedHit> hit;
  sources.Reset();
  EXPECT_FALSE(sources.any_source_down());
  EXPECT_TRUE(sources.has_sorted(0));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sources.TrySortedAccess(1, &hit).ok());
    costs.push_back(sources.accrued_cost());
  }
  const size_t failures_first = sources.stats().transient_failures;

  // A second pass after Reset replays the identical failure sequence.
  sources.Reset();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sources.TrySortedAccess(1, &hit).ok());
    EXPECT_DOUBLE_EQ(sources.accrued_cost(), costs[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(sources.stats().transient_failures, failures_first);
  EXPECT_GT(failures_first, 0u);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveAbandonmentsAndFastFails) {
  const Dataset data = MakeData(41, 60, 2);
  FaultInjector injector(/*seed=*/21);
  injector.Script(0, {FaultKind::kTransient, FaultKind::kTransient});
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);
  RetryPolicy retry;
  retry.max_attempts = 1;  // Every scripted failure abandons immediately.
  sources.set_retry_policy(retry);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 10.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());

  std::optional<SortedHit> hit;
  EXPECT_EQ(sources.TrySortedAccess(0, &hit).code(), StatusCode::kUnavailable);
  EXPECT_FALSE(sources.breaker_open(0));
  EXPECT_EQ(sources.TrySortedAccess(0, &hit).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(sources.breaker_open(0));
  EXPECT_TRUE(sources.any_breaker_open());
  EXPECT_EQ(sources.stats().breaker_trips[0], 1u);
  EXPECT_EQ(sources.stats().abandoned_accesses, 2u);

  // While cooling down the breaker fast-fails: nothing billed, nothing
  // drawn from the injector, no abandoned-access record.
  const double cost_before = sources.accrued_cost();
  const size_t attempts_before = injector.attempts(0);
  EXPECT_EQ(sources.TrySortedAccess(0, &hit).code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), cost_before);
  EXPECT_EQ(injector.attempts(0), attempts_before);
  EXPECT_EQ(sources.stats().breaker_fast_failures, 1u);
  EXPECT_EQ(sources.stats().abandoned_accesses, 2u);

  // The other predicate's breaker is independent.
  ASSERT_TRUE(sources.TrySortedAccess(1, &hit).ok());
  ASSERT_TRUE(hit.has_value());
}

TEST(CircuitBreakerTest, HalfOpenProbeRetripsOnFailureAndClosesOnSuccess) {
  const Dataset data = MakeData(42, 200, 2);
  FaultInjector injector(/*seed=*/22);
  // Two abandonments trip the breaker; the third failure lands on the
  // half-open probe; the script then runs dry so the second probe succeeds.
  injector.Script(0, {FaultKind::kTransient, FaultKind::kTransient,
                      FaultKind::kTransient});
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);
  RetryPolicy retry;
  retry.max_attempts = 1;
  sources.set_retry_policy(retry);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 5.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());

  std::optional<SortedHit> hit;
  EXPECT_EQ(sources.TrySortedAccess(0, &hit).code(), StatusCode::kUnavailable);
  EXPECT_EQ(sources.TrySortedAccess(0, &hit).code(), StatusCode::kUnavailable);
  ASSERT_TRUE(sources.breaker_open(0));
  // elapsed_time() is 2.0 (two billed failed attempts), so the breaker
  // cools until 7.0. Spend elapsed time on the healthy predicate.
  while (sources.elapsed_time() < 7.0) {
    ASSERT_TRUE(sources.TrySortedAccess(1, &hit).ok());
  }
  EXPECT_FALSE(sources.breaker_open(0));

  // The half-open probe fails: one probing failure re-trips immediately,
  // without needing failure_threshold consecutive abandonments.
  EXPECT_EQ(sources.TrySortedAccess(0, &hit).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(sources.breaker_open(0));
  EXPECT_EQ(sources.stats().breaker_trips[0], 2u);

  const double reopened_until = sources.elapsed_time() + breaker.cooldown;
  while (sources.elapsed_time() < reopened_until) {
    ASSERT_TRUE(sources.TrySortedAccess(1, &hit).ok());
  }
  // Script exhausted: the probe succeeds and the breaker closes for good.
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(sources.breaker_open(0));
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  EXPECT_EQ(sources.stats().breaker_trips[0], 2u);
}

// Satellite regression: Reset() must clear the latency penalties, the
// attempt counters, and the budget/breaker telemetry - not just cursors.
TEST(FaultToleranceTest, ResetClearsPenaltyAttemptAndResilienceCounters) {
  const Dataset data = MakeData(43, 60, 2);
  FaultInjector injector(/*seed=*/23);
  // Access 1 on p0: timeout then success (a retry with penalty).
  // Access 2 on p0: two transients, abandoned -> breaker trips.
  injector.Script(0, {FaultKind::kTimeout, FaultKind::kNone,
                      FaultKind::kTransient, FaultKind::kTransient});
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  sources.set_fault_injector(&injector);
  sources.EnableTrace();
  RetryPolicy retry;
  retry.max_attempts = 2;
  sources.set_retry_policy(retry, /*jitter_seed=*/31);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown = 100.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
  QueryBudget budget;
  budget.max_cost = 5.0;
  ASSERT_TRUE(sources.set_budget(budget).ok());

  std::optional<SortedHit> hit;
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  EXPECT_GT(sources.last_access_penalty(), 0.0);  // timeout held the line
  EXPECT_EQ(sources.TrySortedAccess(0, &hit).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(sources.breaker_open(0));
  // Cost so far: 2.0 (timeout + success) + 2.0 (two abandoned attempts).
  // One more billed access reaches the 5.0 cap; the next is refused.
  ASSERT_TRUE(sources.TrySortedAccess(1, &hit).ok());
  EXPECT_EQ(sources.TrySortedAccess(1, &hit).code(),
            StatusCode::kResourceExhausted);
  ASSERT_EQ(sources.stats().timeout_failures, 1u);
  ASSERT_EQ(sources.stats().transient_failures, 2u);
  // One retry after the timeout, one between the two transients.
  ASSERT_EQ(sources.stats().retried_attempts[0], 2u);
  ASSERT_EQ(sources.stats().abandoned_accesses, 1u);
  ASSERT_EQ(sources.stats().breaker_trips[0], 1u);
  ASSERT_EQ(sources.stats().budget_refusals, 1u);
  ASSERT_FALSE(sources.attempt_trace().empty());

  sources.Reset();
  EXPECT_DOUBLE_EQ(sources.last_access_penalty(), 0.0);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 0.0);
  EXPECT_DOUBLE_EQ(sources.elapsed_time(), 0.0);
  EXPECT_EQ(sources.stats().timeout_failures, 0u);
  EXPECT_EQ(sources.stats().transient_failures, 0u);
  EXPECT_EQ(sources.stats().retried_attempts[0], 0u);
  EXPECT_EQ(sources.stats().abandoned_accesses, 0u);
  EXPECT_EQ(sources.stats().breaker_trips[0], 0u);
  EXPECT_EQ(sources.stats().TotalBreakerTrips(), 0u);
  EXPECT_EQ(sources.stats().breaker_fast_failures, 0u);
  EXPECT_EQ(sources.stats().budget_refusals, 0u);
  EXPECT_EQ(sources.stats().TotalSorted(), 0u);
  EXPECT_TRUE(sources.attempt_trace().empty());
  EXPECT_FALSE(sources.breaker_open(0));
  EXPECT_FALSE(sources.budget_exhausted());
  // The policies survive Reset (they are configuration)...
  EXPECT_TRUE(sources.circuit_breaker().enabled());
  EXPECT_DOUBLE_EQ(sources.budget().max_cost, 5.0);
  // ...and the rewound injector replays the same faults: the first
  // access again meets the timeout and costs 2.0 with a fresh penalty.
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), 2.0);
  EXPECT_GT(sources.last_access_penalty(), 0.0);
  EXPECT_EQ(sources.stats().timeout_failures, 1u);
}

TEST(FaultToleranceTest, ParallelExecutorSurvivesTransientFailures) {
  const Dataset data = MakeData(18, 200, 3);
  AverageFunction avg(3);
  const TopKResult oracle = BruteForceTopK(data, avg, 5);

  FaultProfile profile;
  profile.transient_rate = 0.1;
  FaultInjector injector(/*seed=*/8);
  injector.set_default_profile(profile);
  RetryPolicy retry;
  retry.max_attempts = 12;

  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
  sources.set_fault_injector(&injector);
  sources.set_retry_policy(retry, /*jitter_seed=*/9);
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 4;
  ParallelResult result;
  const Status status =
      RunParallelNC(&sources, avg, &policy, options, &result);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(result.exact);
  ASSERT_EQ(result.topk.entries.size(), oracle.entries.size());
  for (size_t r = 0; r < oracle.entries.size(); ++r) {
    EXPECT_DOUBLE_EQ(result.topk.entries[r].score, oracle.entries[r].score)
        << "rank " << r;
  }
  EXPECT_GT(sources.stats().transient_failures, 0u);
  // Backoff waits push the simulated makespan past the failure-free one.
  EXPECT_GT(result.elapsed_time, 0.0);
}

TEST(FaultToleranceTest, ParallelExecutorDegradesOnDeath) {
  const Dataset data = MakeData(19, 150, 2);
  MinFunction fmin(2);
  CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  cost.random_cost[0] = kImpossibleCost;
  cost.sorted_cost[1] = kImpossibleCost;

  FaultProfile deadly;
  deadly.die_after_attempts = 5;
  FaultInjector injector(/*seed=*/10);
  injector.set_profile(1, deadly);

  SourceSet sources(&data, cost);
  sources.set_fault_injector(&injector);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  options.concurrency = 3;
  ParallelResult result;
  const Status status =
      RunParallelNC(&sources, fmin, &policy, options, &result);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_FALSE(result.exact);
  EXPECT_TRUE(sources.source_down(1));
  EXPECT_GT(result.failed_accesses, 0u);
}

}  // namespace
}  // namespace nc
