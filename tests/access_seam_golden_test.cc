// Golden access-seam dump: every observable effect of SourceSet, byte for
// byte. SourceSet is the one place that bills Eq. 1, counts accesses,
// records the attempt trace, emits the tracer's access events and feeds
// the telemetry hub; a refactor of that seam must reproduce
// testdata/golden_access_seam.txt exactly, and a deliberate behavior
// change regenerates it. On a mismatch the test writes the text it
// produced to golden_access_seam.actual in its working directory, so
// `diff` shows exactly which case moved.
//
// The matrix:
//   * plain sources with sorted pages and attribute-group bundles;
//   * injected transients, timeouts and a scripted death, with retry
//     jitter and breaker thresholds 1 and 2;
//   * a cost cap plus a predicate quota;
//   * replica fleets under all four routing policies, fixed and adaptive
//     hedging with a TelemetryHub, replica deaths, per-replica breakers,
//     and a warm second query after Reset();
//   * two SourceSets sharing one AccessCache (sorted and random hits, a
//     fleet-topology stream);
//   * scripted direct Try* calls covering every refusal status,
//     KillSource and duplicate random probes.
// Each case dumps statuses, every AccessStats field, the cost clocks in
// hexfloat, cache tallies, per-replica runtime, the attempt trace, the
// tracer's JSONL under a fixed clock, the mid-run and final checkpoint
// text and the hub's serialized state. Each case also asserts that it
// reached the path it exists for, so a regenerated file keeps covering
// the seam.

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "access/fault.h"
#include "access/source.h"
#include "access/trace_format.h"
#include "cache/cache.h"
#include "common/numeric.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

constexpr char kGoldenPath[] = NC_TESTDATA_DIR "/golden_access_seam.txt";

Dataset Corpus(size_t n, size_t m, uint64_t seed) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

std::string Hex(double v) { return FormatHexDouble(v); }

std::string Join(const std::vector<size_t>& v) {
  std::string s;
  for (size_t x : v) {
    if (!s.empty()) s += ",";
    s += std::to_string(x);
  }
  return "(" + s + ")";
}

std::string Join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) {
    if (!s.empty()) s += ",";
    s += Hex(x);
  }
  return "(" + s + ")";
}

// A SourceSet-only checkpoint (scripted cases have no engine) wrapped in
// the engine envelope so it serializes through the ncckpt format.
std::string SourceCheckpointText(const SourceSet& sources) {
  EngineCheckpoint ck;
  ck.k = 1;
  ck.num_predicates = sources.num_predicates();
  ck.num_objects = sources.num_objects();
  ck.sources = sources.Checkpoint();
  return SerializeCheckpoint(ck);
}

// Attaches a fixed-clock tracer and turns the attempt trace on.
void Observe(SourceSet* sources, obs::QueryTracer* tracer) {
  tracer->set_clock_for_testing([] { return uint64_t{0}; });
  sources->set_tracer(tracer);
  sources->EnableTrace();
}

class SeamDump {
 public:
  void Case(const std::string& label) { out_ += "case " + label + "\n"; }

  void Line(const std::string& line) { out_ += line + "\n"; }

  void Result(const std::string& what, const Status& status) {
    Line(what + " " + status.ToString());
  }

  void Answer(const TopKResult& result) {
    std::string s = "answer";
    for (const TopKEntry& e : result.entries) {
      s += " u" + std::to_string(e.object) + ":" + Hex(e.score);
    }
    Line(s);
    if (result.certificate.has_value()) {
      const AnytimeCertificate& c = *result.certificate;
      Line(std::string("certificate ") + TerminationReasonName(c.reason) +
           " epsilon " + Hex(c.epsilon) + " excluded " +
           Hex(c.excluded_ceiling));
    }
  }

  // Every counter, clock and trace the seam maintains.
  void Sources(const std::string& name, const SourceSet& s) {
    const AccessStats& st = s.stats();
    Line(name + " sorted_count " + Join(st.sorted_count) + " random_count " +
         Join(st.random_count));
    Line(name + " sorted_cost " + Join(st.sorted_cost_accrued) +
         " random_cost " + Join(st.random_cost_accrued));
    Line(name + " duplicates " + std::to_string(st.duplicate_random_count) +
         " retried " + Join(st.retried_attempts) + " transient " +
         std::to_string(st.transient_failures) + " timeout " +
         std::to_string(st.timeout_failures) + " abandoned " +
         std::to_string(st.abandoned_accesses) + " deaths " +
         std::to_string(st.source_deaths));
    Line(name + " trips " + Join(st.breaker_trips) + " fast_failures " +
         std::to_string(st.breaker_fast_failures) + " budget_refusals " +
         std::to_string(st.budget_refusals) + " failovers " +
         std::to_string(st.replica_failovers) + " hedges " +
         std::to_string(st.hedges_issued) + " hedge_wins " +
         std::to_string(st.hedge_wins));
    Line(name + " accrued " + Hex(s.accrued_cost()) + " elapsed " +
         Hex(s.elapsed_time()) + " last_penalty " +
         Hex(s.last_access_penalty()));
    std::vector<size_t> positions;
    std::vector<double> bounds;
    std::string down;
    for (PredicateId i = 0; i < s.num_predicates(); ++i) {
      positions.push_back(s.sorted_position(i));
      bounds.push_back(s.last_seen(i));
      down += s.source_down(i) ? "1" : "0";
    }
    Line(name + " positions " + Join(positions) + " last_seen " +
         Join(bounds) + " down " + down);
    const SourceSet::QueryCacheHits& hits = s.cache_hits();
    Line(name + " cache_hits sorted " + std::to_string(hits.sorted_hits) +
         " random " + std::to_string(hits.random_hits) + " merges " +
         std::to_string(hits.inflight_merges) + " hit_cost " +
         Hex(hits.hit_cost_accrued));
    if (s.has_fleet()) {
      const ReplicaFleet& fleet = s.fleet();
      for (PredicateId i = 0; i < s.num_predicates(); ++i) {
        if (!fleet.configured(i)) continue;
        for (size_t r = 0; r < fleet.num_replicas(i); ++r) {
          const ReplicaRuntime& rt = fleet.runtime(i, r);
          Line(name + " replica p" + std::to_string(i) + " r" +
               std::to_string(r) + " breaker " +
               std::to_string(rt.breaker_consecutive) + "/" +
               (rt.breaker_open ? "open" : "closed") + "/" +
               Hex(rt.breaker_open_until) + " dead " +
               (rt.dead ? "1" : "0") + " ewma " +
               (rt.has_ewma ? Hex(rt.ewma_latency) : "-") + " served " +
               std::to_string(rt.served) + " failovers " +
               std::to_string(rt.failovers) + " trips " +
               std::to_string(rt.breaker_trips) + " hedges " +
               std::to_string(rt.hedges_issued) + "/" +
               std::to_string(rt.hedge_wins) + " cost " +
               Hex(rt.cost_accrued) + " latency " +
               std::to_string(rt.latency_count) + "/" +
               Hex(rt.latency_sum) + "/" + Hex(rt.latency_min) + "/" +
               Hex(rt.latency_max));
        }
      }
    }
    Line(name + " attempts " + SerializeAttemptTrace(s.attempt_trace()));
    Line(name + " trace " + FormatTrace(s.trace()));
  }

  void Tracer(const std::string& name, const obs::QueryTracer& tracer) {
    std::ostringstream jsonl;
    tracer.ExportJsonl(&jsonl);
    std::istringstream lines(jsonl.str());
    std::string line;
    while (std::getline(lines, line)) Line(name + " jsonl " + line);
  }

  void Checkpoint(const std::string& what, const std::string& text) {
    Line("checkpoint " + what);
    out_ += text;
    if (!text.empty() && text.back() != '\n') out_ += "\n";
  }

  void Hub(const obs::TelemetryHub& hub) {
    Line("hub");
    const std::string text = hub.Serialize();
    out_ += text;
    if (!text.empty() && text.back() != '\n') out_ += "\n";
  }

  void Cache(const cache::AccessCache& cache) {
    const cache::CacheStatsSnapshot snap = cache.Snapshot();
    std::string depths;
    for (const auto& [predicate, depth] : snap.stream_depths) {
      depths += " p" + std::to_string(predicate) + ":" + std::to_string(depth);
    }
    Line("cache sorted " + std::to_string(snap.sorted_hits) + "/" +
         std::to_string(snap.sorted_misses) + " random " +
         std::to_string(snap.random_hits) + "/" +
         std::to_string(snap.random_misses) + " invalidations " +
         std::to_string(snap.invalidations) + " entries " +
         std::to_string(snap.random_entries) + "/" +
         std::to_string(snap.stream_entries) + " streams" + depths);
  }

  const std::string& text() const { return out_; }

 private:
  std::string out_;
};

// One NC run over `sources` with SR/G depth `depth` on every predicate
// (identity schedule), checkpointing after access `checkpoint_at`.
struct EngineRun {
  Status status;
  TopKResult result;
  std::string mid_checkpoint;
  std::string final_checkpoint;
};

EngineRun RunEngine(SourceSet* sources, size_t k, double depth,
                    size_t checkpoint_at) {
  const size_t m = sources->num_predicates();
  SRGConfig config = SRGConfig::Default(m);
  config.depths.assign(m, depth);
  SRGPolicy policy(config);
  const AverageFunction avg(m);
  EngineRun run;
  NCEngine* engine_ptr = nullptr;
  EngineOptions options;
  options.k = k;
  options.access_callback = [&run, &engine_ptr, checkpoint_at](size_t n) {
    if (n == checkpoint_at) {
      run.mid_checkpoint = SerializeCheckpoint(engine_ptr->Checkpoint());
    }
  };
  NCEngine engine(sources, &avg, &policy, options);
  engine_ptr = &engine;
  run.status = engine.Run(&run.result);
  run.final_checkpoint = SerializeCheckpoint(engine.Checkpoint());
  return run;
}

void DumpRun(SeamDump* dump, const std::string& name, const EngineRun& run,
             const SourceSet& sources, const obs::QueryTracer& tracer) {
  dump->Result(name + " status", run.status);
  dump->Answer(run.result);
  dump->Sources(name, sources);
  dump->Tracer(name, tracer);
  dump->Checkpoint(name + " mid", run.mid_checkpoint);
  dump->Checkpoint(name + " final", run.final_checkpoint);
}

// --- Plain sources ------------------------------------------------------

void PlainPagedBundled(SeamDump* dump) {
  const Dataset data = Corpus(64, 3, 11);
  CostModel cost = CostModel::Uniform(3, 1.0, 3.0);
  cost.sorted_page_size = {4, 1, 3};
  cost.attribute_groups = {0, 0, 1};
  for (const double depth : {0.5, 0.9}) {
    SourceSet sources(&data, cost);
    obs::QueryTracer tracer;
    Observe(&sources, &tracer);
    const EngineRun run = RunEngine(&sources, 4, depth, 9);
    dump->Case("plain_paged_bundled depth=" + Hex(depth));
    DumpRun(dump, "s", run, sources, tracer);
    EXPECT_TRUE(run.status.ok());
    EXPECT_GT(sources.stats().TotalSorted(), 0u);
    if (depth > 0.75) {
      EXPECT_GT(sources.stats().TotalRandom(), 0u);
    }
  }
}

void PlainFaults(SeamDump* dump) {
  const Dataset data = Corpus(64, 3, 12);
  for (const size_t threshold : {size_t{1}, size_t{2}}) {
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.0));
    obs::QueryTracer tracer;
    Observe(&sources, &tracer);
    FaultInjector injector(/*seed=*/40 + threshold);
    FaultProfile flaky;
    flaky.transient_rate = 0.2;
    flaky.timeout_rate = 0.1;
    injector.set_default_profile(flaky);
    // Predicate 2 dies late in the run, which truncates it.
    FaultProfile dying = flaky;
    dying.die_after_attempts = 20;
    injector.set_profile(2, dying);
    sources.set_fault_injector(&injector);
    RetryPolicy retry;
    retry.max_attempts = 2;
    retry.backoff_jitter = 0.3;
    retry.timeout_latency_factor = 1.5;
    sources.set_retry_policy(retry, /*jitter_seed=*/threshold);
    CircuitBreakerPolicy breaker;
    breaker.failure_threshold = threshold;
    breaker.cooldown = 2.5;
    ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
    const EngineRun run = RunEngine(&sources, 5, 0.85, 12);
    dump->Case("plain_faults threshold=" + std::to_string(threshold));
    DumpRun(dump, "s", run, sources, tracer);
    const AccessStats& st = sources.stats();
    EXPECT_GT(st.TotalRetried(), 0u);
    EXPECT_GT(st.transient_failures, 0u);
    EXPECT_GT(st.timeout_failures, 0u);
    EXPECT_GT(st.abandoned_accesses, 0u);
    // Threshold 1 ends the run on an open breaker's fast-failures;
    // threshold 2 runs on, random-probing, until predicate 2 dies.
    if (threshold == 1) {
      EXPECT_GT(st.TotalBreakerTrips(), 0u);
      EXPECT_GT(st.breaker_fast_failures, 0u);
    } else {
      EXPECT_GT(st.TotalRandom(), 0u);
      EXPECT_EQ(st.source_deaths, 1u);
    }
  }
}

void BudgetCapAndQuota(SeamDump* dump) {
  const Dataset data = Corpus(64, 3, 13);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.0));
  obs::QueryTracer tracer;
  Observe(&sources, &tracer);
  QueryBudget budget;
  budget.max_cost = 30.0;
  budget.predicate_quota = {0, 8, 0};
  ASSERT_TRUE(sources.set_budget(budget).ok());
  const EngineRun run = RunEngine(&sources, 5, 0.85, 10);
  dump->Case("budget_cap_quota");
  DumpRun(dump, "s", run, sources, tracer);
  EXPECT_TRUE(run.result.certificate.has_value());
  EXPECT_TRUE(sources.quota_exhausted(1));
  EXPECT_TRUE(sources.cost_budget_exhausted());
}

// --- Replica fleets -----------------------------------------------------

ReplicaEndpoint Endpoint(double cost_multiplier, double latency_multiplier,
                         double jitter, double tail_probability,
                         double tail_multiplier) {
  ReplicaEndpoint e;
  e.cost_multiplier = cost_multiplier;
  e.latency.multiplier = latency_multiplier;
  e.latency.jitter = jitter;
  e.latency.tail_probability = tail_probability;
  e.latency.tail_multiplier = tail_multiplier;
  return e;
}

// Three replicas with distinct prices, latencies and fault profiles;
// replicas 0 and 2 die mid-run.
ReplicaSetConfig ThreeReplicas(RoutingPolicy routing, double hedge_delay,
                               bool adaptive) {
  ReplicaSetConfig config;
  config.replicas.push_back(Endpoint(1.0, 1.0, 0.3, 0.25, 5.0));
  config.replicas.push_back(Endpoint(1.5, 1.3, 0.5, 0.0, 1.0));
  config.replicas.push_back(Endpoint(0.7, 0.8, 0.2, 0.1, 3.0));
  config.replicas[0].faults.transient_rate = 0.1;
  config.replicas[0].faults.timeout_rate = 0.05;
  config.replicas[0].faults.die_after_attempts = 12;
  config.replicas[1].faults.transient_rate = 0.2;
  config.replicas[2].faults.timeout_rate = 0.15;
  config.replicas[2].faults.die_after_attempts = 12;
  config.routing = routing;
  config.hedge.delay = hedge_delay;
  config.hedge.adaptive = adaptive;
  return config;
}

// Two replicas behind a paged predicate (mid-page entries issue no
// request).
ReplicaSetConfig TwoReplicas(RoutingPolicy routing, double hedge_delay) {
  ReplicaSetConfig config;
  config.replicas.push_back(Endpoint(1.0, 1.2, 0.4, 0.2, 4.0));
  config.replicas.push_back(Endpoint(0.9, 1.0, 0.1, 0.0, 1.0));
  config.replicas[0].faults.transient_rate = 0.15;
  config.replicas[1].faults.timeout_rate = 0.1;
  config.routing = routing;
  config.hedge.delay = hedge_delay;
  return config;
}

void Fleets(SeamDump* dump) {
  const Dataset data = Corpus(80, 3, 14);
  CostModel cost = CostModel::Uniform(3, 1.0, 2.0);
  cost.sorted_page_size = {1, 2, 1};
  const RoutingPolicy policies[] = {
      RoutingPolicy::kPrimaryOnly, RoutingPolicy::kRoundRobin,
      RoutingPolicy::kLeastLatency, RoutingPolicy::kCheapestHealthy};
  for (size_t p = 0; p < 4; ++p) {
    const RoutingPolicy routing = policies[p];
    SourceSet sources(&data, cost);
    obs::QueryTracer tracer;
    Observe(&sources, &tracer);
    ReplicaFleet fleet(/*seed=*/60 + p);
    ASSERT_TRUE(fleet.Configure(0, ThreeReplicas(routing, 1.4, false)).ok());
    ASSERT_TRUE(fleet.Configure(1, TwoReplicas(routing, 1.1)).ok());
    ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
    // Predicate 2 keeps the plain path, with its own injector.
    FaultInjector injector(/*seed=*/70 + p);
    FaultProfile flaky;
    flaky.transient_rate = 0.1;
    injector.set_profile(2, flaky);
    sources.set_fault_injector(&injector);
    RetryPolicy retry;
    retry.max_attempts = 2;
    retry.backoff_jitter = 0.2;
    sources.set_retry_policy(retry, /*jitter_seed=*/p);
    CircuitBreakerPolicy breaker;
    breaker.failure_threshold = 1 + p % 2;
    breaker.cooldown = 3.0;
    ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
    obs::TelemetryHub hub;
    sources.set_telemetry_hub(&hub);
    const EngineRun run = RunEngine(&sources, 5, 0.8, 15);
    dump->Case(std::string("fleet routing=") + RoutingPolicyName(routing));
    DumpRun(dump, "s", run, sources, tracer);
    dump->Hub(hub);
    const AccessStats& st = sources.stats();
    EXPECT_TRUE(run.status.ok());
    EXPECT_GT(st.hedges_issued, 0u);
    EXPECT_GT(st.replica_failovers, 0u);
    EXPECT_GT(fleet.total_replica_deaths(), 0u);
    EXPECT_GT(st.TotalRandom(), 0u);
  }
}

// Adaptive hedging learns its trigger from the hub; the second query
// after Reset() starts warm from the hub's captured fleet health.
void AdaptiveFleetWarmRestart(SeamDump* dump) {
  const Dataset data = Corpus(80, 2, 15);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  obs::QueryTracer tracer;
  Observe(&sources, &tracer);
  ReplicaFleet fleet(/*seed=*/81);
  ASSERT_TRUE(fleet
                  .Configure(0, ThreeReplicas(RoutingPolicy::kLeastLatency,
                                              1.6, /*adaptive=*/true))
                  .ok());
  ASSERT_TRUE(
      fleet.Configure(1, TwoReplicas(RoutingPolicy::kRoundRobin, 0.0)).ok());
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown = 2.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
  obs::TelemetryHub hub;
  sources.set_telemetry_hub(&hub);
  for (const size_t query : {size_t{1}, size_t{2}}) {
    if (query == 2) {
      sources.Reset();
      tracer.Clear();
    }
    const EngineRun run = RunEngine(&sources, 6, 0.85, 20);
    dump->Case("fleet_adaptive query=" + std::to_string(query));
    DumpRun(dump, "s", run, sources, tracer);
    dump->Hub(hub);
    EXPECT_TRUE(run.status.ok());
    EXPECT_GT(fleet.total_replica_deaths(), 0u);
    if (query == 1) {
      EXPECT_GT(sources.stats().hedges_issued, 0u);
    }
  }
}

// --- Shared cache -------------------------------------------------------

void SharedCache(SeamDump* dump) {
  const Dataset data = Corpus(64, 3, 16);
  CostModel cost = CostModel::Uniform(3, 1.0, 2.0);
  cost.attribute_groups = {0, 0, 1};
  cache::CacheConfig config;
  config.hit_cost = 0.125;
  cache::AccessCache cache(config);
  SourceSet first(&data, cost);
  SourceSet second(&data, cost);
  obs::QueryTracer first_tracer;
  obs::QueryTracer second_tracer;
  Observe(&first, &first_tracer);
  Observe(&second, &second_tracer);
  first.set_access_cache(&cache);
  second.set_access_cache(&cache);
  // The first query materializes the streams; the second reads them and
  // runs past their end.
  const EngineRun a = RunEngine(&first, 4, 0.85, 8);
  const EngineRun b = RunEngine(&second, 7, 0.85, 8);
  dump->Case("shared_cache plain");
  DumpRun(dump, "a", a, first, first_tracer);
  DumpRun(dump, "b", b, second, second_tracer);
  dump->Cache(cache);
  EXPECT_GT(second.cache_hits().sorted_hits, 0u);
  EXPECT_GT(second.cache_hits().random_hits, 0u);
  EXPECT_GT(second.stats().TotalSorted(), second.cache_hits().sorted_hits);
}

void SharedCacheFleetTopology(SeamDump* dump) {
  const Dataset data = Corpus(64, 2, 17);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  cache::CacheConfig config;
  config.hit_cost = 0.25;
  cache::AccessCache cache(config);
  // Identical topologies share predicate 0's stream; the third stack's
  // routing differs, so it reads its own stream.
  const RoutingPolicy routings[] = {RoutingPolicy::kPrimaryOnly,
                                    RoutingPolicy::kPrimaryOnly,
                                    RoutingPolicy::kCheapestHealthy};
  dump->Case("shared_cache fleet_topology");
  for (size_t s = 0; s < 3; ++s) {
    SourceSet sources(&data, cost);
    obs::QueryTracer tracer;
    Observe(&sources, &tracer);
    ReplicaFleet fleet(/*seed=*/90);
    ASSERT_TRUE(
        fleet.Configure(0, ThreeReplicas(routings[s], 1.5, false)).ok());
    ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
    sources.set_access_cache(&cache);
    const EngineRun run = RunEngine(&sources, 3 + s, 0.9, 6);
    const std::string index = std::to_string(s);
    DumpRun(dump, "s" + index, run, sources, tracer);
    dump->Cache(cache);
    if (s == 1) {
      EXPECT_GT(sources.cache_hits().sorted_hits, 0u);
    }
    if (s > 0) {
      EXPECT_GT(sources.cache_hits().random_hits, 0u);
    }
  }
}

// --- Scripted direct calls ----------------------------------------------

// Runs one scripted call and dumps its status (and hit or score).
class Script {
 public:
  Script(SeamDump* dump, SourceSet* sources)
      : dump_(dump), sources_(sources) {}

  Status Sorted(PredicateId i) {
    std::optional<SortedHit> hit;
    const Status status = sources_->TrySortedAccess(i, &hit);
    std::string line = "sa_" + std::to_string(i) + " " + status.ToString();
    if (hit.has_value()) {
      line += " u" + std::to_string(hit->object) + ":" + Hex(hit->score);
      for (const auto& [j, score] : hit->bundled) {
        line += " +p" + std::to_string(j) + ":" + Hex(score);
      }
    } else if (status.ok()) {
      line += " end";
    }
    dump_->Line(line + " penalty " + Hex(sources_->last_access_penalty()));
    return status;
  }

  Status Random(PredicateId i, ObjectId u) {
    Score score = -1.0;
    const Status status = sources_->TryRandomAccess(i, u, &score);
    std::string line = "ra_" + std::to_string(i) + "(u" + std::to_string(u) +
                       ") " + status.ToString();
    if (status.ok()) {
      line += " ";
      line += Hex(score);
    }
    dump_->Line(line + " penalty " + Hex(sources_->last_access_penalty()));
    return status;
  }

 private:
  SeamDump* dump_;
  SourceSet* sources_;
};

void ScriptedRetryBreakerDeath(SeamDump* dump) {
  const Dataset data = Corpus(8, 3, 18);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.0));
  obs::QueryTracer tracer;
  Observe(&sources, &tracer);
  FaultInjector injector(/*seed=*/5);
  using F = FaultKind;
  injector.Script(0, {F::kTransient, F::kNone,                  // retried
                      F::kTimeout, F::kTimeout, F::kTransient,  // abandoned
                      F::kNone,                                 // resets
                      F::kTransient, F::kTransient, F::kTransient,
                      F::kTimeout, F::kTransient, F::kTimeout,  // trips
                      F::kTransient,                            // probe fails
                      F::kNone,                                 // probe ok
                      F::kSourceDown});
  sources.set_fault_injector(&injector);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_jitter = 0.3;
  retry.retry_cost_factor = 0.5;
  sources.set_retry_policy(retry, /*jitter_seed=*/9);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 3.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
  dump->Case("scripted retry_breaker_death");
  Script call(dump, &sources);
  EXPECT_TRUE(call.Sorted(0).ok());
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(call.Sorted(0).ok());
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.Random(0, 1).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(sources.breaker_open(0));
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);  // Fast fail.
  EXPECT_TRUE(call.Random(1, 0).ok());
  EXPECT_TRUE(call.Random(1, 1).ok());
  EXPECT_TRUE(call.Random(1, 2).ok());
  EXPECT_TRUE(call.Random(1, 3).ok());
  EXPECT_EQ(call.Random(0, 2).code(), StatusCode::kUnavailable);  // Probe.
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);  // Fast fail.
  for (ObjectId u = 4; u < 8; ++u) EXPECT_TRUE(call.Random(1, u).ok());
  EXPECT_TRUE(call.Sorted(0).ok());  // Probe succeeds.
  EXPECT_EQ(call.Random(0, 2).code(), StatusCode::kUnavailable);  // Death.
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.Random(0, 3).code(), StatusCode::kUnavailable);
  // Duplicate probes, a scripted kill, and an exhausted stream.
  EXPECT_TRUE(call.Random(1, 0).ok());
  EXPECT_TRUE(call.Random(2, 5).ok());
  EXPECT_TRUE(call.Random(2, 5).ok());
  sources.KillSource(2);
  sources.KillSource(2);
  EXPECT_EQ(call.Sorted(2).code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.Random(2, 4).code(), StatusCode::kUnavailable);
  for (size_t r = 0; r <= data.num_objects(); ++r) {
    EXPECT_TRUE(call.Sorted(1).ok());
  }
  dump->Sources("s", sources);
  dump->Tracer("s", tracer);
  dump->Checkpoint("s final", SourceCheckpointText(sources));
  const AccessStats& st = sources.stats();
  EXPECT_EQ(st.source_deaths, 2u);
  EXPECT_EQ(st.duplicate_random_count, 2u);
  EXPECT_EQ(st.breaker_fast_failures, 2u);
  EXPECT_EQ(st.breaker_trips[0], 2u);
}

void ScriptedBudget(SeamDump* dump) {
  const Dataset data = Corpus(8, 3, 19);
  CostModel cost = CostModel::Uniform(3, 1.0, 2.0);
  cost.sorted_page_size = {2, 1, 1};
  SourceSet sources(&data, cost);
  obs::QueryTracer tracer;
  Observe(&sources, &tracer);
  FaultInjector injector(/*seed=*/6);
  injector.Script(0, {FaultKind::kTimeout, FaultKind::kNone});
  sources.set_fault_injector(&injector);
  dump->Case("scripted budget");
  Script call(dump, &sources);
  for (size_t r = 0; r <= data.num_objects(); ++r) {
    EXPECT_TRUE(call.Sorted(2).ok());
  }
  std::string mid;
  QueryBudget budget;
  budget.max_cost = sources.accrued_cost() + 7.0;
  budget.predicate_quota = {0, 2, 0};
  ASSERT_TRUE(sources.set_budget(budget).ok());
  EXPECT_TRUE(call.Random(1, 0).ok());
  EXPECT_TRUE(call.Sorted(1).ok());
  EXPECT_EQ(call.Sorted(1).code(), StatusCode::kResourceExhausted);  // Quota.
  EXPECT_EQ(call.Random(1, 1).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(call.Sorted(0).ok());  // Timeout, then a paged charge.
  EXPECT_TRUE(call.Sorted(0).ok());  // Mid-page: no charge.
  EXPECT_TRUE(call.Sorted(0).ok());
  mid = SourceCheckpointText(sources);
  EXPECT_TRUE(call.Random(0, 3).ok());  // Crosses the cap.
  EXPECT_TRUE(sources.cost_budget_exhausted());
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(call.Random(2, 1).code(), StatusCode::kResourceExhausted);
  // An exhausted stream under a spent budget returns OK, no refusal.
  EXPECT_TRUE(call.Sorted(2).ok());
  // A refusal counts whether or not the caller reports it.
  Score unreported = 0.0;
  EXPECT_EQ(sources.TryRandomAccess(0, 4, &unreported).code(),
            StatusCode::kResourceExhausted);
  // A deadline on the Eq. 1 clock, elapsed by a timeout penalty.
  QueryBudget deadline;
  deadline.deadline = sources.elapsed_time() + 1.5;
  ASSERT_TRUE(sources.set_budget(deadline).ok());
  EXPECT_TRUE(call.Sorted(0).ok());
  EXPECT_TRUE(call.Random(2, 2).ok());
  EXPECT_TRUE(sources.deadline_exceeded());
  EXPECT_EQ(call.Random(2, 3).code(), StatusCode::kResourceExhausted);
  dump->Sources("s", sources);
  dump->Tracer("s", tracer);
  dump->Checkpoint("s mid", mid);
  dump->Checkpoint("s final", SourceCheckpointText(sources));
  EXPECT_EQ(sources.stats().budget_refusals, 6u);
}

void ScriptedFleet(SeamDump* dump) {
  const Dataset data = Corpus(10, 2, 20);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  obs::QueryTracer tracer;
  Observe(&sources, &tracer);
  ReplicaFleet fleet(/*seed=*/31);
  ReplicaSetConfig primary;
  primary.replicas.push_back(Endpoint(1.0, 1.0, 0.0, 0.0, 1.0));
  primary.replicas.push_back(Endpoint(2.0, 1.0, 0.0, 0.0, 1.0));
  ASSERT_TRUE(fleet.Configure(0, primary).ok());
  // Predicate 1 always hedges: its primary is slower than the trigger.
  ReplicaSetConfig hedged;
  hedged.replicas.push_back(Endpoint(1.0, 3.0, 0.0, 0.0, 1.0));
  hedged.replicas.push_back(Endpoint(0.5, 1.0, 0.0, 0.0, 1.0));
  hedged.routing = RoutingPolicy::kPrimaryOnly;
  hedged.hedge.delay = 0.5;
  ASSERT_TRUE(fleet.Configure(1, hedged).ok());
  using F = FaultKind;
  fleet.ScriptFaults(0, 0, {F::kTimeout, F::kNone,          // retried
                            F::kTransient, F::kTransient,  // fails over
                            F::kNone,                      // probe
                            F::kSourceDown});
  fleet.ScriptFaults(0, 1, {F::kNone,                      // failover target
                            F::kTransient, F::kTransient,  // abandoned
                            F::kNone,                      // probe
                            F::kSourceDown});
  fleet.ScriptFaults(1, 1, {F::kNone, F::kTransient, F::kTimeout,
                            F::kSourceDown});
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_jitter = 0.25;
  sources.set_retry_policy(retry, /*jitter_seed=*/4);
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown = 9.0;
  ASSERT_TRUE(sources.set_circuit_breaker(breaker).ok());
  obs::TelemetryHub hub;
  sources.set_telemetry_hub(&hub);
  dump->Case("scripted fleet");
  Script call(dump, &sources);
  EXPECT_TRUE(call.Sorted(0).ok());  // Retried on r0.
  EXPECT_TRUE(call.Sorted(0).ok());  // r0 exhausted, fails over to r1.
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);  // Abandoned.
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);  // All open.
  // Hedged sorted accesses on predicate 1: a win, a transient loss, a
  // timeout loss, and a hedge target that dies.
  for (int h = 0; h < 4; ++h) EXPECT_TRUE(call.Sorted(1).ok());
  const std::string mid = SourceCheckpointText(sources);
  EXPECT_TRUE(call.Random(1, 0).ok());
  EXPECT_TRUE(call.Random(1, 1).ok());
  EXPECT_TRUE(call.Random(0, 3).ok());  // Half-open probe on r0.
  // r0 dies; the access fails over to r1's half-open probe.
  EXPECT_TRUE(call.Sorted(0).ok());
  // r1 dies too: the predicate is downgraded.
  EXPECT_EQ(call.Random(0, 4).code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.Sorted(0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.Random(0, 5).code(), StatusCode::kUnavailable);
  dump->Sources("s", sources);
  dump->Tracer("s", tracer);
  dump->Checkpoint("s mid", mid);
  dump->Checkpoint("s final", SourceCheckpointText(sources));
  dump->Hub(hub);
  const AccessStats& st = sources.stats();
  EXPECT_EQ(st.source_deaths, 1u);
  EXPECT_EQ(st.breaker_fast_failures, 1u);
  EXPECT_GT(st.replica_failovers, 0u);
  EXPECT_EQ(st.hedges_issued, 4u);
  EXPECT_TRUE(fleet.runtime(1, 1).dead);
}

// A shared cache under faults: an owner that fails aborts its slot, a
// later owner publishes, and a death invalidates the stream.
void ScriptedCache(SeamDump* dump) {
  const Dataset data = Corpus(10, 2, 21);
  cache::CacheConfig config;
  config.hit_cost = 0.5;
  cache::AccessCache cache(config);
  SourceSet first(&data, CostModel::Uniform(2, 1.0, 2.0));
  SourceSet second(&data, CostModel::Uniform(2, 1.0, 2.0));
  obs::QueryTracer first_tracer;
  obs::QueryTracer second_tracer;
  Observe(&first, &first_tracer);
  Observe(&second, &second_tracer);
  first.set_access_cache(&cache);
  second.set_access_cache(&cache);
  FaultInjector injector(/*seed=*/8);
  injector.Script(0, {FaultKind::kTransient, FaultKind::kTransient,
                      FaultKind::kTransient, FaultKind::kNone});
  second.set_fault_injector(&injector);
  dump->Case("scripted cache");
  Script a(dump, &first);
  Script b(dump, &second);
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(a.Sorted(0).ok());
  EXPECT_TRUE(a.Random(1, 0).ok());
  EXPECT_TRUE(b.Sorted(0).ok());  // Hit.
  EXPECT_TRUE(b.Sorted(0).ok());  // Hit.
  EXPECT_TRUE(b.Random(1, 0).ok());  // Hit.
  EXPECT_TRUE(b.Random(1, 0).ok());  // Duplicate hit.
  EXPECT_TRUE(b.Random(1, 1).ok());  // Miss: owner publishes.
  EXPECT_TRUE(b.Sorted(0).ok());  // Hit.
  EXPECT_EQ(b.Sorted(0).code(), StatusCode::kUnavailable);  // Owner aborts.
  EXPECT_TRUE(b.Sorted(0).ok());  // Owner publishes.
  EXPECT_TRUE(a.Sorted(0).ok());  // Hit on the second set's entry.
  EXPECT_TRUE(a.Random(1, 1).ok());  // Hit.
  second.KillSource(0);
  EXPECT_TRUE(a.Sorted(0).ok());  // Stream invalidated: bypass.
  dump->Sources("a", first);
  dump->Sources("b", second);
  dump->Tracer("a", first_tracer);
  dump->Tracer("b", second_tracer);
  dump->Checkpoint("a final", SourceCheckpointText(first));
  dump->Checkpoint("b final", SourceCheckpointText(second));
  dump->Cache(cache);
  EXPECT_EQ(first.cache_hits().sorted_hits, 1u);
  EXPECT_EQ(second.cache_hits().sorted_hits, 3u);
  EXPECT_EQ(second.cache_hits().random_hits, 2u);
}

std::string DumpSeam() {
  SeamDump dump;
  PlainPagedBundled(&dump);
  PlainFaults(&dump);
  BudgetCapAndQuota(&dump);
  Fleets(&dump);
  AdaptiveFleetWarmRestart(&dump);
  SharedCache(&dump);
  SharedCacheFleetTopology(&dump);
  ScriptedRetryBreakerDeath(&dump);
  ScriptedBudget(&dump);
  ScriptedFleet(&dump);
  ScriptedCache(&dump);
  return dump.text();
}

TEST(AccessSeamGoldenTest, SeamDumpsByteIdentically) {
  const std::string actual = DumpSeam();
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << kGoldenPath;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() != actual) {
    std::ofstream("golden_access_seam.actual", std::ios::binary) << actual;
  }
  EXPECT_TRUE(golden.str() == actual)
      << "the access seam moved; the dump was written to "
         "golden_access_seam.actual";
}

}  // namespace
}  // namespace nc
