// Golden observation bytes: what a finished run leaves in the metrics
// registry, what a served query leaves in /metrics, and what a
// session-traced query leaves in the tracer, byte for byte against
// testdata/golden_obs.txt. A change to how observers attach, or to how a
// run is folded into the registry, must reproduce the file exactly; a
// deliberate change of what is recorded regenerates it. On a mismatch
// the test writes the text it produced to golden_obs.actual in its
// working directory, so `diff` shows exactly which section moved.
//
// The sections:
//   * metrics - one registry folding eight runs: plain (with a scripted
//     duplicate probe), faults + retries + a breaker + a source death, a
//     cost cap (with a scripted refusal), a hedging fleet, fleets whose
//     primaries die (so their accesses fail over), a cache payer and
//     rider, and a planned session query with its cost audit. Two runs
//     carry a hand-built ProfileReport, so no clock or allocator enters
//     the bytes;
//   * scrape - a one-worker server with a fleet, the shared cache and
//     the profiler on, fed twelve requests one at a time, with the
//     wall-clock series (queue wait, service time, nc_profile_*) masked;
//   * trace - the JSONL and Chrome trace of QuerySession queries traced
//     through set_tracer and set_profiler under zero clocks, for avg and
//     min, over a faulty fleet, with a budget-certified query.

#include <gtest/gtest.h>

#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "access/budget.h"
#include "access/fault.h"
#include "access/source.h"
#include "cache/cache.h"
#include "core/engine.h"
#include "core/session.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/tracer.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"
#include "server/server.h"

namespace nc {
namespace {

constexpr char kGoldenPath[] = NC_TESTDATA_DIR "/golden_obs.txt";

Dataset Corpus(size_t n, size_t m, uint64_t seed) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

PlannerOptions SmallPlanner() {
  PlannerOptions options;
  options.sample_size = 60;
  return options;
}

// One NC run of F = avg with the default SR/G plan.
Status RunEngine(SourceSet* sources, size_t k, TopKResult* out) {
  const size_t m = sources->num_predicates();
  const AverageFunction avg(m);
  SRGPolicy policy(SRGConfig::Default(m));
  EngineOptions options;
  options.k = k;
  return RunNC(sources, &avg, &policy, options, out);
}

// Folds one finished run into `registry`: its Eq. 1 tallies, its cost
// audit and its profile.
void Fold(obs::MetricsRegistry* registry, const std::string& algorithm,
          const SourceSet& sources, const obs::CostAudit& audit,
          const obs::ProfileReport& profile) {
  obs::RunReport report = obs::BuildRunReport(sources, nullptr, algorithm);
  report.cost_audit = audit;
  report.profile = profile;
  obs::RecordRunMetrics(registry, report);
}

obs::ProfileReport HandBuiltProfile(bool alloc_accounting) {
  obs::ProfileReport profile;
  profile.alloc_accounting = alloc_accounting;
  profile.flat.push_back({obs::CostCenter::kSortedAccess, 40, 9000, 7000,
                          12, 4096});
  profile.flat.push_back({obs::CostCenter::kRandomAccess, 7, 2100, 2100, 0,
                          0});
  profile.flat.push_back({obs::CostCenter::kCandidateHeap, 47, 3300, 3300,
                          3, 96});
  return profile;
}

ReplicaEndpoint Endpoint(const char* name, double cost_multiplier,
                         double latency_multiplier, double jitter,
                         double tail_probability, double tail_multiplier) {
  ReplicaEndpoint e;
  e.name = name;
  e.cost_multiplier = cost_multiplier;
  e.latency.multiplier = latency_multiplier;
  e.latency.jitter = jitter;
  e.latency.tail_probability = tail_probability;
  e.latency.tail_multiplier = tail_multiplier;
  return e;
}

// A flaky, straggling primary and a pricier mirror, hedged after
// `hedge_delay` cost units (0: no hedging).
ReplicaSetConfig HedgedPair(double hedge_delay) {
  ReplicaSetConfig config;
  config.replicas.push_back(Endpoint("primary", 1.0, 1.2, 0.4, 0.25, 4.0));
  config.replicas.push_back(Endpoint("mirror", 1.2, 1.0, 0.1, 0.0, 1.0));
  config.replicas[0].faults.transient_rate = 0.15;
  config.replicas[1].faults.timeout_rate = 0.1;
  config.hedge.delay = hedge_delay;
  return config;
}

// --- metrics ------------------------------------------------------------

std::string MetricsSection() {
  obs::MetricsRegistry registry;
  const obs::CostAudit no_audit;
  const obs::ProfileReport no_profile;

  {  // Plain, plus a scripted duplicate probe.
    const Dataset data = Corpus(300, 3, 101);
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.5));
    TopKResult result;
    EXPECT_TRUE(RunEngine(&sources, 5, &result).ok());
    Score score = 0.0;
    EXPECT_TRUE(sources.TryRandomAccess(2, 0, &score).ok());
    EXPECT_TRUE(sources.TryRandomAccess(2, 0, &score).ok());
    EXPECT_GT(sources.stats().duplicate_random_count, 0u);
    Fold(&registry, "plain", sources, no_audit, HandBuiltProfile(false));
  }

  {  // Faults, retries, a breaker and a death.
    const Dataset data = Corpus(200, 3, 102);
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.0));
    FaultInjector injector(/*seed=*/7);
    FaultProfile flaky;
    flaky.transient_rate = 0.3;
    flaky.timeout_rate = 0.1;
    injector.set_default_profile(flaky);
    FaultProfile dying = flaky;
    dying.die_after_attempts = 8;
    injector.set_profile(2, dying);
    sources.set_fault_injector(&injector);
    RetryPolicy retry;
    retry.max_attempts = 2;
    retry.backoff_jitter = 0.3;
    sources.set_retry_policy(retry, /*jitter_seed=*/3);
    CircuitBreakerPolicy breaker;
    breaker.failure_threshold = 1;
    breaker.cooldown = 2.5;
    EXPECT_TRUE(sources.set_circuit_breaker(breaker).ok());
    TopKResult result;
    EXPECT_TRUE(RunEngine(&sources, 5, &result).ok());
    const AccessStats& st = sources.stats();
    EXPECT_GT(st.TotalRetried(), 0u);
    EXPECT_GT(st.transient_failures, 0u);
    EXPECT_GT(st.timeout_failures, 0u);
    EXPECT_GT(st.abandoned_accesses, 0u);
    EXPECT_GT(st.source_deaths, 0u);
    EXPECT_GT(st.TotalBreakerTrips(), 0u);
    EXPECT_GT(st.breaker_fast_failures, 0u);
    Fold(&registry, "faults", sources, no_audit, no_profile);
  }

  {  // A cost cap, then a scripted access the spent budget refuses.
    const Dataset data = Corpus(200, 3, 102);
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.0));
    QueryBudget budget;
    budget.max_cost = 30.0;
    EXPECT_TRUE(sources.set_budget(budget).ok());
    TopKResult result;
    EXPECT_TRUE(RunEngine(&sources, 5, &result).ok());
    EXPECT_TRUE(result.certificate.has_value());
    Score score = 0.0;
    EXPECT_EQ(sources.TryRandomAccess(1, 0, &score).code(),
              StatusCode::kResourceExhausted);
    EXPECT_GT(sources.stats().budget_refusals, 0u);
    Fold(&registry, "budget", sources, no_audit, no_profile);
  }

  {  // A hedging fleet on both predicates, with retries.
    const Dataset data = Corpus(150, 2, 103);
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
    ReplicaFleet fleet(/*seed=*/11);
    EXPECT_TRUE(fleet.Configure(0, HedgedPair(1.1)).ok());
    EXPECT_TRUE(fleet.Configure(1, HedgedPair(1.3)).ok());
    EXPECT_TRUE(sources.set_replica_fleet(&fleet).ok());
    RetryPolicy retry;
    retry.max_attempts = 3;
    sources.set_retry_policy(retry, /*jitter_seed=*/5);
    TopKResult result;
    EXPECT_TRUE(RunEngine(&sources, 5, &result).ok());
    EXPECT_GT(sources.stats().hedges_issued, 0u);
    EXPECT_GT(sources.stats().hedge_wins, 0u);
    Fold(&registry, "fleet", sources, no_audit, no_profile);
  }

  {  // Fleets on predicates 0 and 2 whose primaries die at once, so
     // every access there fails over; predicate 1 has no fleet.
    const Dataset data = Corpus(150, 3, 104);
    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 2.0));
    ReplicaFleet fleet(/*seed=*/13);
    for (const PredicateId i : {PredicateId{0}, PredicateId{2}}) {
      ReplicaSetConfig config = HedgedPair(0.0);
      config.replicas[0].faults = FaultProfile{};
      config.replicas[0].faults.die_after_attempts = 1;
      EXPECT_TRUE(fleet.Configure(i, config).ok());
    }
    EXPECT_TRUE(sources.set_replica_fleet(&fleet).ok());
    RetryPolicy retry;
    retry.max_attempts = 3;
    sources.set_retry_policy(retry, /*jitter_seed=*/6);
    TopKResult result;
    EXPECT_TRUE(RunEngine(&sources, 5, &result).ok());
    EXPECT_GT(sources.stats().replica_failovers, 0u);
    Fold(&registry, "failover", sources, no_audit, no_profile);
  }

  {  // A cache payer and a rider, folded under one label.
    const Dataset data = Corpus(200, 2, 105);
    const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
    cache::CacheConfig config;
    config.hit_cost = 0.125;
    cache::AccessCache cache(config);
    SourceSet payer(&data, cost);
    SourceSet rider(&data, cost);
    payer.set_access_cache(&cache);
    rider.set_access_cache(&cache);
    TopKResult result;
    EXPECT_TRUE(RunEngine(&payer, 4, &result).ok());
    EXPECT_TRUE(RunEngine(&rider, 6, &result).ok());
    EXPECT_GT(rider.cache_hits().sorted_hits, 0u);
    Fold(&registry, "cache", payer, no_audit, no_profile);
    Fold(&registry, "cache", rider, no_audit, no_profile);
  }

  {  // A planned session query and its cost audit.
    const Dataset data = Corpus(400, 2, 106);
    const AverageFunction avg(2);
    QuerySession session(&avg, SmallPlanner());
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 3.0));
    TopKResult result;
    EXPECT_TRUE(session.Query(&sources, 5, &result).ok());
    EXPECT_TRUE(session.last_cost_audit().valid);
    Fold(&registry, "session", sources, session.last_cost_audit(),
         HandBuiltProfile(true));
  }

  std::ostringstream text;
  registry.WritePrometheusText(&text);
  for (const char* family :
       {"nc_accesses_total", "nc_access_cost_total", "nc_access_retries_total",
        "nc_access_faults_total", "nc_duplicate_random_total",
        "nc_breaker_trips_total", "nc_breaker_fast_failures_total",
        "nc_budget_refusals_total", "nc_replica_accesses_total",
        "nc_replica_cost_total", "nc_replica_failovers_total",
        "nc_hedges_issued_total", "nc_hedge_wins_total", "nc_hedge_win_rate",
        "nc_replica_completion_latency", "nc_cost_predicted_total",
        "nc_cost_actual_total", "nc_cost_audit_relative_error",
        "nc_profile_count_total", "nc_profile_total_ns_total",
        "nc_profile_self_ns_total", "nc_profile_alloc_total",
        "nc_profile_alloc_bytes_total"}) {
    EXPECT_NE(text.str().find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << family;
  }
  return text.str();
}

// --- scrape -------------------------------------------------------------

class FleetStack : public server::WorkerStack {
 public:
  explicit FleetStack(const Dataset* data)
      : fleet_(/*seed=*/17), sources_(data, CostModel::Uniform(2, 1.0, 2.0)) {
    NC_CHECK(fleet_.Configure(0, HedgedPair(1.2)).ok());
    ReplicaSetConfig dying = HedgedPair(0.0);
    dying.replicas[0].faults.die_after_attempts = 30;
    NC_CHECK(fleet_.Configure(1, dying).ok());
    RetryPolicy retry;
    retry.max_attempts = 3;
    sources_.set_retry_policy(retry, /*jitter_seed=*/8);
    NC_CHECK(sources_.set_replica_fleet(&fleet_).ok());
  }
  SourceSet& sources() override { return sources_; }

 private:
  ReplicaFleet fleet_;
  SourceSet sources_;
};

// Drops the lines of the series whose values are wall-clock readings.
std::string MaskWallClock(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    bool masked = false;
    for (const char* name :
         {"nc_server_queue_wait_us", "nc_server_service_us", "nc_profile_"}) {
      masked |= line.find(name) != std::string::npos;
    }
    if (!masked) out += line + "\n";
  }
  return out;
}

std::string ScrapeSection() {
  const Dataset data = Corpus(250, 2, 107);
  const AverageFunction avg(2);
  server::ServerConfig config;
  config.num_workers = 1;
  config.planner = SmallPlanner();
  config.enable_cache = true;
  config.cache.hit_cost = 0.25;
  config.enable_profiler = true;
  server::QueryServer server(&avg, config, [&data](size_t) {
    return std::make_unique<FleetStack>(&data);
  });
  EXPECT_TRUE(server.Start().ok());
  const size_t ks[] = {5, 3, 8, 5, 3, 5, 8, 3, 5, 5, 8, 3};
  for (size_t j = 0; j < 12; ++j) {
    server::QueryRequest request;
    request.k = ks[j];
    if (j % 4 == 1) request.budget.max_cost = 25.0;
    if (j % 4 == 3) request.budget.predicate_quota = {6, 0};
    std::future<server::QueryResponse> response;
    EXPECT_TRUE(server.Submit(std::move(request), &response).ok());
    EXPECT_TRUE(response.get().status.ok()) << "request " << j;
  }
  server.Shutdown(/*finish_queued=*/true);
  std::ostringstream text;
  server.metrics().WritePrometheusText(&text);
  for (const char* family :
       {"nc_replica_failovers_total", "nc_hedge_win_rate",
        "nc_access_retries_total", "nc_cost_audit_relative_error",
        "nc_cache_"}) {
    EXPECT_NE(text.str().find(family), std::string::npos) << family;
  }
  return MaskWallClock(text.str());
}

// --- trace --------------------------------------------------------------

std::string TraceSection(const ScoringFunction& scoring,
                         const std::string& label) {
  const Dataset data = Corpus(90, 2, 108);
  QuerySession session(&scoring, SmallPlanner());
  obs::QueryTracer tracer;
  tracer.set_clock_for_testing([] { return uint64_t{0}; });
  obs::Profiler profiler;
  profiler.set_clock_for_testing([] { return uint64_t{0}; });
  profiler.set_tracer(&tracer);
  session.set_tracer(&tracer);
  session.set_profiler(&profiler);

  std::string out;
  std::string events;
  for (const double max_cost : {0.0, 20.0}) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
    ReplicaFleet fleet(/*seed=*/19);
    EXPECT_TRUE(fleet.Configure(0, HedgedPair(1.2)).ok());
    EXPECT_TRUE(sources.set_replica_fleet(&fleet).ok());
    RetryPolicy retry;
    retry.max_attempts = 3;
    sources.set_retry_policy(retry, /*jitter_seed=*/9);
    if (max_cost > 0.0) {
      QueryBudget budget;
      budget.max_cost = max_cost;
      EXPECT_TRUE(sources.set_budget(budget).ok());
    }
    tracer.Clear();
    profiler.Clear();
    TopKResult result;
    EXPECT_TRUE(session.Query(&sources, 4, &result).ok());
    EXPECT_EQ(result.certificate.has_value(), max_cost > 0.0);

    const std::string query =
        label + " max_cost=" + std::to_string(static_cast<int>(max_cost));
    std::ostringstream jsonl;
    tracer.ExportJsonl(&jsonl);
    std::istringstream lines(jsonl.str());
    std::string line;
    while (std::getline(lines, line)) out += query + " jsonl " + line + "\n";
    std::ostringstream chrome;
    tracer.ExportChromeTrace(&chrome);
    out += query + " chrome " + chrome.str() + "\n";
    events += jsonl.str();
  }
  for (const char* kind :
       {"\"kind\":\"iteration\"", "\"kind\":\"attempt\"",
        "\"kind\":\"certificate\"", "\"kind\":\"telemetry\"",
        "\"kind\":\"profile\"", "\"phase\":\"probe\""}) {
    EXPECT_NE(events.find(kind), std::string::npos) << label << kind;
  }
  return out;
}

std::string DumpObservations() {
  const AverageFunction avg(2);
  const MinFunction fmin(2);
  return "section metrics\n" + MetricsSection() + "section scrape\n" +
         ScrapeSection() + "section trace\n" + TraceSection(avg, "avg") +
         TraceSection(fmin, "min");
}

TEST(ObsGoldenTest, ObservationsDumpByteIdentically) {
  const std::string actual = DumpObservations();
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << kGoldenPath;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() != actual) {
    std::ofstream("golden_obs.actual", std::ios::binary) << actual;
  }
  EXPECT_TRUE(golden.str() == actual)
      << "observation bytes drifted from " << kGoldenPath
      << "; diff it against golden_obs.actual";
}

}  // namespace
}  // namespace nc
