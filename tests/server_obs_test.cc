// The server observability plane, end to end: request-scoped tracing
// stitched across workers, the live introspection endpoint scraped over
// real HTTP, the persistent hub snapshot closing the warm-start loop,
// and the anomaly watchdog riding the same baseline.
//
// Run under the tsan preset, this file is also the data-race proof for
// the StatsServer and watchdog threads against serving workers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/reference.h"
#include "data/generator.h"
#include "loopback_http.h"
#include "obs/json_parse.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "replica/replica.h"
#include "server/server.h"

namespace nc {
namespace {

using server::QueryRequest;
using server::QueryResponse;
using server::QueryServer;
using server::ServeOutcome;
using server::ServerConfig;
using server::WorkerStack;

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

class PlainStack : public WorkerStack {
 public:
  PlainStack(const Dataset* data, CostModel cost)
      : sources_(data, std::move(cost)) {}
  SourceSet& sources() override { return sources_; }

 private:
  SourceSet sources_;
};

// A two-replica fleet per predicate. With `scripted_death`, predicate
// 0's primary dies on its second routed attempt - the health event the
// hub snapshot must carry across the restart.
class TwoReplicaStack : public WorkerStack {
 public:
  TwoReplicaStack(const Dataset* data, CostModel cost, uint64_t seed,
                  bool scripted_death)
      : fleet_(seed), sources_(data, std::move(cost)) {
    ReplicaEndpoint primary;
    primary.name = "primary";
    ReplicaEndpoint mirror;
    mirror.name = "mirror";
    mirror.cost_multiplier = 1.0;
    for (PredicateId i = 0; i < 2; ++i) {
      ReplicaSetConfig config;
      config.replicas = {primary, mirror};
      if (scripted_death && i == 0) {
        config.replicas[0].faults.die_after_attempts = 1;
      }
      NC_CHECK(fleet_.Configure(i, config).ok());
    }
    RetryPolicy retry;
    retry.max_attempts = 3;
    sources_.set_retry_policy(retry, /*jitter_seed=*/seed);
    NC_CHECK(sources_.set_replica_fleet(&fleet_).ok());
  }
  SourceSet& sources() override { return sources_; }

 private:
  ReplicaFleet fleet_;
  SourceSet sources_;
};

// --- Scrape checks ----------------------------------------------------------

// One exposition sample line, "name{labels} value", in the grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf).
bool IsSample(const std::string& line) {
  size_t at = line.find_first_not_of(
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:0123456789");
  if (at == 0 || at == std::string::npos ||
      (line[0] >= '0' && line[0] <= '9')) {
    return false;
  }
  if (line[at] == '{') {
    at = line.find('}', at);
    if (at == std::string::npos) return false;
    ++at;
  }
  if (line.compare(at, 1, " ") != 0) return false;
  const std::string value = line.substr(at + 1);
  return value == "NaN" || value == "+Inf" || value == "-Inf" ||
         (!value.empty() &&
          value.find_first_not_of("0123456789.eE+-") == std::string::npos);
}

// Checks every line of a /metrics body: "# TYPE" lines, and one sample
// per other non-empty line. Returns the families the TYPE lines name.
std::set<std::string> ExpectExposition(const std::string& body) {
  std::set<std::string> families;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.insert(line.substr(7, line.find(' ', 7) - 7));
    } else if (!line.empty()) {
      EXPECT_TRUE(IsSample(line)) << line;
    }
  }
  return families;
}

// Extracts `"key":<uint>` from one JSONL line; false when absent.
bool FindUInt(const std::string& line, const std::string& key,
              uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

bool FindString(const std::string& line, const std::string& key,
                std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const size_t begin = at + needle.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

// --- Request-scoped tracing ------------------------------------------------

// THE stitching test: 4 workers stream concurrently into one sink; the
// per-request timelines must reconstruct from the JSONL alone - every
// worker event carries a valid trace/request/worker triple, each request
// has exactly one queue_wait and one serve span, spans nest sanely, and
// no line is torn or interleaved.
TEST(ServerObsTest, MultiWorkerStreamingTracesStitchPerRequest) {
  const Dataset data = MakeData(71);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  std::ostringstream trace_out;
  obs::JsonlSink sink(&trace_out);

  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = 16;
  config.planner = SmallPlanner();
  config.trace_sink = &sink;
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kQueries = 12;
  std::vector<std::future<QueryResponse>> responses(kQueries);
  for (size_t j = 0; j < kQueries; ++j) {
    QueryRequest request;
    request.k = 1 + j % 7;
    ASSERT_TRUE(server.Submit(request, &responses[j]).ok());
  }
  for (auto& response : responses) {
    EXPECT_EQ(response.get().outcome, ServeOutcome::kCompleted);
  }
  server.Shutdown(/*finish_queued=*/true);

  struct PerRequest {
    std::set<std::string> traces;
    std::set<uint64_t> workers;
    size_t queue_wait_spans = 0;
    size_t serve_spans = 0;
    size_t accesses = 0;
    uint64_t queue_wait_start = 0;
    uint64_t serve_start = 0;
  };
  std::map<uint64_t, PerRequest> requests;

  std::istringstream in(trace_out.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // No torn or interleaved lines: each is one complete JSON object.
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
    ASSERT_NE(line.find("\"kind\":\""), std::string::npos) << line;

    // Every worker event rides inside a request scope (the server
    // installs the context before Reset and clears it after the serve
    // span), so every line carries the full triple.
    uint64_t request_id = 0;
    ASSERT_TRUE(FindUInt(line, "request", &request_id)) << line;
    std::string trace;
    ASSERT_TRUE(FindString(line, "trace", &trace)) << line;
    ASSERT_EQ(trace.size(), 16u) << line;  // 64-bit lowercase hex.
    ASSERT_EQ(trace.find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << line;
    uint64_t worker = 0;
    ASSERT_TRUE(FindUInt(line, "worker", &worker)) << line;
    ASSERT_LT(worker, 4u) << line;

    PerRequest& per = requests[request_id];
    per.traces.insert(trace);
    per.workers.insert(worker);
    std::string name;
    if (line.find("\"kind\":\"span\"") != std::string::npos) {
      ASSERT_TRUE(FindString(line, "name", &name));
      uint64_t start = 0;
      ASSERT_TRUE(FindUInt(line, "wall_us", &start));
      if (name == "queue_wait") {
        ++per.queue_wait_spans;
        per.queue_wait_start = start;
      } else if (name == "serve") {
        ++per.serve_spans;
        per.serve_start = start;
      }
    } else if (line.find("\"kind\":\"access\"") != std::string::npos) {
      ++per.accesses;
    }
  }
  EXPECT_EQ(sink.lines_written(), lines);
  ASSERT_EQ(requests.size(), kQueries);

  std::set<std::string> all_traces;
  for (uint64_t id = 1; id <= kQueries; ++id) {
    ASSERT_TRUE(requests.count(id)) << "request " << id;
    const PerRequest& per = requests[id];
    // One trace id and one worker per request: the timeline stitches.
    EXPECT_EQ(per.traces.size(), 1u);
    EXPECT_EQ(per.workers.size(), 1u);
    all_traces.insert(*per.traces.begin());
    // Well-formed sequence: admitted once, served once, did real work.
    EXPECT_EQ(per.queue_wait_spans, 1u) << "request " << id;
    EXPECT_EQ(per.serve_spans, 1u) << "request " << id;
    EXPECT_GT(per.accesses, 0u) << "request " << id;
    // The queue wait precedes the serve span on the shared epoch.
    EXPECT_LE(per.queue_wait_start, per.serve_start);
  }
  // Trace ids are distinct across requests.
  EXPECT_EQ(all_traces.size(), kQueries);
}

// --- The live introspection endpoint ---------------------------------------

// The executable spec of docs/SERVER.md's curl recipe: what an operator
// scrapes from a live cache-on, profiler-on server.
TEST(ServerObsTest, ScrapeEndpointsServeLiveState) {
  const Dataset data = MakeData(81);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 2;
  config.planner = SmallPlanner();
  config.stats_port = 0;  // Ephemeral.
  // The repeated k = 5 queries below overlap fully, so the shared cache
  // serves hits from the second one on.
  config.enable_cache = true;
  config.enable_profiler = true;
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.stats_port();
  ASSERT_GT(port, 0);

  // Liveness and readiness answer before any query.
  EXPECT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/readyz").find("ready"), std::string::npos);

  constexpr size_t kQueries = 6;
  for (size_t j = 0; j < kQueries; ++j) {
    QueryRequest request;
    request.k = 5;
    std::future<QueryResponse> response;
    ASSERT_TRUE(server.Submit(request, &response).ok());
    EXPECT_EQ(response.get().outcome, ServeOutcome::kCompleted);
  }

  // /metrics: the Prometheus mirror of what was just served, in the
  // exposition grammar: "# TYPE" lines, and one "name{labels} value"
  // sample per other line.
  const std::string metrics = Body(HttpGet(port, "/metrics"));
  EXPECT_NE(metrics.find("nc_server_queries_total{outcome=\"completed\"} 6"),
            std::string::npos);
  EXPECT_NE(metrics.find("nc_server_service_us_count"), std::string::npos);
  EXPECT_NE(metrics.find("nc_accesses_total{algorithm=\"server\""),
            std::string::npos);
  const std::set<std::string> families = ExpectExposition(metrics);
  for (const char* family : {"nc_server_queries_total", "nc_server_service_us",
                             "nc_accesses_total"}) {
    EXPECT_TRUE(families.count(family)) << family;
  }

  // /varz: the JSON snapshot agrees with the server's own accessors.
  const std::string varz_response = HttpGet(port, "/varz");
  EXPECT_NE(varz_response.find("Content-Type: application/json"),
            std::string::npos);
  const std::string varz = Body(varz_response);
  EXPECT_EQ(varz.rfind("{", 0), 0u);
  EXPECT_NE(varz.find("\"running\":true"), std::string::npos);
  EXPECT_NE(varz.find("\"accepting\":true"), std::string::npos);
  EXPECT_NE(varz.find("\"num_workers\":2"), std::string::npos);
  EXPECT_NE(varz.find("\"submitted\":6"), std::string::npos);
  EXPECT_NE(varz.find("\"completed\":6"), std::string::npos);
  EXPECT_NE(varz.find("\"queries_observed\":6"), std::string::npos);
  EXPECT_NE(varz.find("\"workers\":["), std::string::npos);
  EXPECT_NE(varz.find("\"cost_audit\":"), std::string::npos);
  // Both workers may not have served, but every meter row renders.
  EXPECT_NE(varz.find("\"worker\":0"), std::string::npos);
  EXPECT_NE(varz.find("\"worker\":1"), std::string::npos);
  // The direct accessor returns the same document shape.
  EXPECT_EQ(server.VarzJson().rfind("{", 0), 0u);
  // The cache section shows the live shared state.
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(varz, &doc).ok()) << varz;
  const obs::JsonValue* cache = doc.Find("cache");
  ASSERT_NE(cache, nullptr);
  bool cache_enabled = false;
  EXPECT_TRUE(cache->GetBool("enabled", &cache_enabled) && cache_enabled);
  for (const char* key : {"entries", "bytes", "hits", "hit_rate"}) {
    double value = 0.0;
    EXPECT_TRUE(cache->GetNumber(key, &value) && value > 0.0) << key;
  }
  const obs::JsonValue* streams = cache->Find("streams");
  EXPECT_TRUE(streams != nullptr && !streams->array.empty());

  EXPECT_NE(HttpGet(port, "/nope").find("404"), std::string::npos);

  server.Shutdown(/*finish_queued=*/true);
  EXPECT_EQ(server.stats_port(), 0);  // Endpoint stopped with the server.
}

TEST(ServerObsTest, StatsPortValidationAndDisabledByDefault) {
  ServerConfig config;
  config.stats_port = 70000;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.stats_port = -1;
  EXPECT_TRUE(config.Validate().ok());

  const Dataset data = MakeData(82, 200);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.stats_port(), 0);  // Disabled: nothing bound.
  server.Shutdown(true);
}

// --- Persistent warm-start telemetry ---------------------------------------

// THE warm-start loop: process A learns a replica death the hard way and
// snapshots its hub at drain; process B (a fresh server, fresh stacks,
// same snapshot path) must route around that replica from its very
// first access - no failover, no rediscovery - while answering
// bit-identically to a cold run.
TEST(ServerObsTest, HubSnapshotWarmStartsRestartedServerRouting) {
  const std::string path =
      ::testing::TempDir() + "/nc_server_obs_warmstart.nchub";
  std::remove(path.c_str());
  const Dataset data = MakeData(91, 500);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  const TopKResult expected = BruteForceTopK(data, avg, 8);

  // --- Process A: cold start, scripted death, snapshot at shutdown. ---
  {
    ServerConfig config;
    config.num_workers = 1;
    config.planner = SmallPlanner();
    config.hub_snapshot_path = path;
    QueryServer server(&avg, config, [&](size_t) {
      return std::make_unique<TwoReplicaStack>(&data, cost, /*seed=*/7,
                                               /*scripted_death=*/true);
    });
    ASSERT_TRUE(server.Start().ok());
    EXPECT_FALSE(server.warm_started());  // No snapshot yet: cold.
    for (int j = 0; j < 3; ++j) {
      QueryRequest request;
      request.k = 8;
      std::future<QueryResponse> response;
      ASSERT_TRUE(server.Submit(request, &response).ok());
      const QueryResponse served = response.get();
      ASSERT_TRUE(served.status.ok()) << served.status;
      EXPECT_EQ(served.result, expected);  // Failover, not wrong answers.
    }
    // The death was observed and captured.
    const std::vector<obs::ReplicaHealth> health = server.hub().fleet_health();
    bool primary_dead = false;
    for (const obs::ReplicaHealth& slot : health) {
      if (slot.predicate == 0 && slot.replica == 0) {
        primary_dead = slot.dead;
      }
    }
    ASSERT_TRUE(primary_dead);
    server.Shutdown(/*finish_queued=*/true);
  }
  {
    std::ifstream snapshot(path);
    ASSERT_TRUE(snapshot.good());  // Shutdown wrote the hub back.
  }

  // --- Process B: fresh server, HEALTHY stacks, warm from the file. ---
  {
    ServerConfig config;
    config.num_workers = 1;
    config.planner = SmallPlanner();
    config.hub_snapshot_path = path;
    QueryServer server(&avg, config, [&](size_t) {
      return std::make_unique<TwoReplicaStack>(&data, cost, /*seed=*/7,
                                               /*scripted_death=*/false);
    });
    ASSERT_TRUE(server.Start().ok());
    EXPECT_TRUE(server.warm_started());

    // The loaded hub already knows the death - before any query runs.
    const uint64_t primary_samples_before =
        server.hub().replica_service_count(0, 0);
    QueryRequest request;
    request.k = 8;
    std::future<QueryResponse> response;
    ASSERT_TRUE(server.Submit(request, &response).ok());
    const QueryResponse served = response.get();
    ASSERT_TRUE(served.status.ok()) << served.status;
    // Bit-identical to the cold answer: the hub only moves traffic,
    // never changes results.
    EXPECT_EQ(served.result, expected);

    // The first query routed around the dead primary from its first
    // access: the primary's sample count never grew, the mirror's did,
    // and - the sharpest signal - there was nothing to fail over FROM.
    EXPECT_EQ(server.hub().replica_service_count(0, 0),
              primary_samples_before);
    EXPECT_GT(server.hub().replica_service_count(0, 1), 0u);
    EXPECT_DOUBLE_EQ(
        server.metrics().CounterSum("nc_replica_failovers_total"), 0.0);
    server.Shutdown(/*finish_queued=*/true);
  }

  // --- Corrupt snapshots fail Start loudly, not silently cold. ---
  {
    std::ofstream corrupt(path, std::ios::trunc);
    corrupt << "nchub 1\ngarbage record\nend\n";
  }
  {
    ServerConfig config;
    config.num_workers = 1;
    config.planner = SmallPlanner();
    config.hub_snapshot_path = path;
    QueryServer server(&avg, config, [&](size_t) {
      return std::make_unique<PlainStack>(&data, cost);
    });
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(server.running());
  }
  std::remove(path.c_str());
}

// --- The anomaly watchdog, wired into the server ---------------------------

TEST(ServerObsTest, WatchdogRunsAgainstLoadedBaseline) {
  const std::string path =
      ::testing::TempDir() + "/nc_server_obs_watchdog.nchub";
  std::remove(path.c_str());
  const Dataset data = MakeData(93, 300);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);

  // A baseline snapshot claiming accesses used to be dramatically
  // cheaper than this cost model charges: the watchdog must notice.
  {
    obs::TelemetryHub seed_hub;
    seed_hub.ObserveAccessCost(0, AccessType::kSorted, 1e-3);
    seed_hub.ObserveAccessCost(1, AccessType::kSorted, 1e-3);
    ASSERT_TRUE(seed_hub.SaveToFile(path).ok());
  }

  ServerConfig config;
  config.num_workers = 1;
  config.planner = SmallPlanner();
  config.hub_snapshot_path = path;
  config.watchdog = true;
  config.watchdog_options.interval_ms = 5.0;
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.watchdog(), nullptr);
  EXPECT_TRUE(server.watchdog()->running());

  QueryRequest request;
  request.k = 5;
  std::future<QueryResponse> response;
  ASSERT_TRUE(server.Submit(request, &response).ok());
  EXPECT_EQ(response.get().outcome, ServeOutcome::kCompleted);

  // Wait for a check that sees the live cost EWMA (fed by the query).
  for (int spin = 0; spin < 400; ++spin) {
    if (server.metrics().CounterSum("nc_anomaly_access_cost_total") > 0.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(server.metrics().CounterSum("nc_anomaly_access_cost_total"), 0.0);
  EXPECT_FALSE(server.watchdog()->last_anomalies().empty());
  // The findings render into /varz.
  EXPECT_NE(server.VarzJson().find("\"kind\":\"access_cost\""),
            std::string::npos);

  server.Shutdown(/*finish_queued=*/true);
  EXPECT_FALSE(server.watchdog()->running());
  std::remove(path.c_str());
}

// Without a snapshot there is no baseline: watchdog=true stays inert
// rather than diffing against emptiness.
TEST(ServerObsTest, WatchdogNeedsABaselineToStart) {
  const Dataset data = MakeData(94, 200);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 1;
  config.planner = SmallPlanner();
  config.watchdog = true;  // But no hub_snapshot_path.
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.watchdog(), nullptr);
  server.Shutdown(true);
}

// --- Build provenance and the profiler plane -------------------------------

TEST(ServerObsTest, HealthzAndVarzCarryBuildProvenance) {
  const Dataset data = MakeData(95, 300);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 1;
  config.planner = SmallPlanner();
  config.stats_port = 0;
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.stats_port();

  // /healthz is now a JSON document with the build section; both it and
  // /varz parse with the repo's strict parser.
  const std::string health_response = HttpGet(port, "/healthz");
  EXPECT_NE(health_response.find("200 OK"), std::string::npos);
  EXPECT_NE(health_response.find("Content-Type: application/json"),
            std::string::npos);
  obs::JsonValue health;
  ASSERT_TRUE(obs::ParseJson(Body(health_response), &health).ok())
      << Body(health_response);
  std::string status;
  ASSERT_TRUE(health.GetString("status", &status));
  EXPECT_EQ(status, "ok");
  const obs::JsonValue* build = health.Find("build");
  ASSERT_NE(build, nullptr);
  std::string version, flavor;
  ASSERT_TRUE(build->GetString("version", &version));
  EXPECT_FALSE(version.empty());
  ASSERT_TRUE(build->GetString("flavor", &flavor));
  EXPECT_FALSE(flavor.empty());
  bool sanitized = false;
  EXPECT_TRUE(build->GetBool("sanitized", &sanitized));
  double start_unix_s = 0.0;
  ASSERT_TRUE(build->GetNumber("start_unix_s", &start_unix_s));
  EXPECT_GT(start_unix_s, 0.0);
  double uptime = -1.0;
  EXPECT_TRUE(build->GetNumber("uptime_s", &uptime));
  EXPECT_GE(uptime, 0.0);

  obs::JsonValue varz;
  ASSERT_TRUE(obs::ParseJson(server.VarzJson(), &varz).ok());
  const obs::JsonValue* varz_build = varz.Find("build");
  ASSERT_NE(varz_build, nullptr);
  std::string varz_version;
  ASSERT_TRUE(varz_build->GetString("version", &varz_version));
  EXPECT_EQ(varz_version, version);  // One binary, one answer.
  // The tracer health section reports "no sink attached".
  const obs::JsonValue* tracer = varz.Find("tracer");
  ASSERT_NE(tracer, nullptr);
  bool tracing = true;
  ASSERT_TRUE(tracer->GetBool("enabled", &tracing));
  EXPECT_FALSE(tracing);

  server.Shutdown(/*finish_queued=*/true);
  // Stopped server: /healthz (via the direct accessor path) reports the
  // stopped state - the endpoint itself is down with the server.
  EXPECT_EQ(server.stats_port(), 0);
}

TEST(ServerObsTest, ProfilezServesPerQueryAndCrossQueryBreakdowns) {
  const Dataset data = MakeData(96, 400);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 1;
  config.planner = SmallPlanner();
  config.stats_port = 0;
  config.enable_profiler = true;
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.stats_port();

  // Before any query: enabled, but nothing profiled yet.
  obs::JsonValue before;
  ASSERT_TRUE(obs::ParseJson(Body(HttpGet(port, "/profilez")), &before).ok());
  bool enabled = false;
  ASSERT_TRUE(before.GetBool("enabled", &enabled));
  EXPECT_TRUE(enabled);
  const obs::JsonValue* last = before.Find("last");
  ASSERT_NE(last, nullptr);
  bool valid = true;
  ASSERT_TRUE(last->GetBool("valid", &valid));
  EXPECT_FALSE(valid);

  constexpr size_t kQueries = 6;
  for (size_t j = 0; j < kQueries; ++j) {
    QueryRequest request;
    request.k = 5;
    std::future<QueryResponse> response;
    ASSERT_TRUE(server.Submit(request, &response).ok());
    EXPECT_EQ(response.get().outcome, ServeOutcome::kCompleted);
  }

  const std::string profilez_response = HttpGet(port, "/profilez");
  EXPECT_NE(profilez_response.find("Content-Type: application/json"),
            std::string::npos);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(Body(profilez_response), &doc).ok())
      << Body(profilez_response);
  last = doc.Find("last");
  ASSERT_NE(last, nullptr);
  ASSERT_TRUE(last->GetBool("valid", &valid));
  EXPECT_TRUE(valid);
  double request_id = 0.0;
  ASSERT_TRUE(last->GetNumber("request", &request_id));
  EXPECT_EQ(request_id, static_cast<double>(kQueries));
  // The last query's report metered the access seam and billed the
  // queue wait as the external server_queue center.
  const obs::JsonValue* report = last->Find("report");
  ASSERT_NE(report, nullptr);
  const obs::JsonValue* flat = report->Find("flat");
  ASSERT_NE(flat, nullptr);
  ASSERT_TRUE(flat->is_array());
  std::set<std::string> centers;
  for (const obs::JsonValue& row : flat->array) {
    std::string center;
    ASSERT_TRUE(row.GetString("center", &center));
    centers.insert(center);
  }
  EXPECT_TRUE(centers.count("sorted_access")) << Body(profilez_response);
  EXPECT_TRUE(centers.count("server_queue")) << Body(profilez_response);

  // The cross-query rollup has one sample per served query; the
  // optimizer centers appear there even though later queries hit the
  // worker's plan cache and skip planning.
  const obs::JsonValue* cross = doc.Find("cross_query");
  ASSERT_NE(cross, nullptr);
  ASSERT_TRUE(cross->is_array());
  ASSERT_FALSE(cross->array.empty());
  bool saw_queue_rollup = false;
  bool saw_simulate_rollup = false;
  for (const obs::JsonValue& row : cross->array) {
    std::string center;
    ASSERT_TRUE(row.GetString("center", &center));
    double count = 0.0;
    ASSERT_TRUE(row.GetNumber("count", &count));
    if (center == "server_queue") {
      saw_queue_rollup = true;
      EXPECT_EQ(count, static_cast<double>(kQueries));
    }
    saw_simulate_rollup |= center == "optimizer_simulate";
  }
  EXPECT_TRUE(saw_queue_rollup);
  EXPECT_TRUE(saw_simulate_rollup);

  // The same breakdown reached the Prometheus mirror.
  const std::string metrics = Body(HttpGet(port, "/metrics"));
  EXPECT_NE(metrics.find("nc_profile_self_ns_total{center=\"sorted_access\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("nc_profile_count_total{center=\"server_queue\"}"),
            std::string::npos);

  server.Shutdown(/*finish_queued=*/true);

  // Profiling off (the default): /profilez still answers, honestly.
  ServerConfig off_config;
  off_config.num_workers = 1;
  off_config.planner = SmallPlanner();
  QueryServer off_server(&avg, off_config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(off_server.Start().ok());
  obs::JsonValue off_doc;
  ASSERT_TRUE(obs::ParseJson(off_server.ProfilezJson(), &off_doc).ok());
  ASSERT_TRUE(off_doc.GetBool("enabled", &enabled));
  EXPECT_FALSE(enabled);
  off_server.Shutdown(/*finish_queued=*/true);
}

TEST(ServerObsTest, TracerDropCountsSurfaceInMetricsAndVarz) {
  const Dataset data = MakeData(97, 300);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);

  // An unopened ofstream fails every write: the sink keeps serving but
  // counts each lost line, and the server folds the count into the
  // nc_tracer_dropped_lines counter after every query.
  std::ofstream dead_stream;
  obs::JsonlSink sink(&dead_stream);

  ServerConfig config;
  config.num_workers = 1;
  config.planner = SmallPlanner();
  config.trace_sink = &sink;
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  for (int j = 0; j < 2; ++j) {
    QueryRequest request;
    request.k = 4;
    std::future<QueryResponse> response;
    ASSERT_TRUE(server.Submit(request, &response).ok());
    EXPECT_EQ(response.get().outcome, ServeOutcome::kCompleted);
  }
  EXPECT_GT(sink.lines_dropped(), 0u);
  EXPECT_EQ(sink.lines_written(), 0u);
  EXPECT_DOUBLE_EQ(server.metrics().CounterSum("nc_tracer_dropped_lines"),
                   static_cast<double>(sink.lines_dropped()));

  obs::JsonValue varz;
  ASSERT_TRUE(obs::ParseJson(server.VarzJson(), &varz).ok());
  const obs::JsonValue* tracer = varz.Find("tracer");
  ASSERT_NE(tracer, nullptr);
  double dropped = 0.0;
  ASSERT_TRUE(tracer->GetNumber("lines_dropped", &dropped));
  EXPECT_EQ(dropped, static_cast<double>(sink.lines_dropped()));

  server.Shutdown(/*finish_queued=*/true);
}

// --- Scraping a server that is draining ------------------------------------

// The stats endpoint stops LAST in Shutdown, so a supervisor scraping
// mid-drain must see /readyz flip to 503 ("draining") while /metrics,
// /varz, and /healthz keep answering well-formed documents until the
// very end. Slow queries (simulated access stalls) hold the drain open
// long enough to observe it.
TEST(ServerObsTest, ScrapesStayWellFormedDuringGracefulDrain) {
  const Dataset data = MakeData(98, 500);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 32;
  config.planner = SmallPlanner();
  config.stats_port = 0;
  config.simulated_access_stall_us = 150;
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.stats_port();

  // A backlog of slow queries keeps the single worker busy through the
  // drain; every one must still be answered (finish_queued = true).
  constexpr size_t kQueries = 8;
  std::vector<std::future<QueryResponse>> responses(kQueries);
  for (size_t j = 0; j < kQueries; ++j) {
    QueryRequest request;
    request.k = 5;
    ASSERT_TRUE(server.Submit(request, &responses[j]).ok());
  }

  std::thread shutdown_thread([&server] {
    server.Shutdown(/*finish_queued=*/true);
  });

  bool saw_draining = false;
  bool saw_not_accepting = false;
  bool saw_metrics_mid_drain = false;
  bool saw_varz_mid_drain = false;
  std::string response;
  // Once the workers have joined, Shutdown clears `stopping_` while the
  // stats endpoint still serves, and /readyz answers "not accepting": the
  // drain is over, so polling stops there.
  while (!saw_not_accepting && TryHttpGet(port, "/readyz", &response)) {
    if (response.find("503") == std::string::npos) continue;
    if (response.find("not accepting") != std::string::npos) {
      saw_not_accepting = true;
      continue;
    }
    EXPECT_NE(response.find("draining"), std::string::npos) << response;
    saw_draining = true;
    // Mid-drain, the other endpoints still serve complete documents.
    if (TryHttpGet(port, "/metrics", &response)) {
      const std::string body = Body(response);
      if (!body.empty()) {
        saw_metrics_mid_drain = true;
        ExpectExposition(body);
      }
    }
    if (TryHttpGet(port, "/varz", &response)) {
      const std::string body = Body(response);
      if (!body.empty()) {
        saw_varz_mid_drain = true;
        obs::JsonValue varz;
        ASSERT_TRUE(obs::ParseJson(body, &varz).ok()) << body;
        const obs::JsonValue* server_section = varz.Find("server");
        ASSERT_NE(server_section, nullptr);
        bool accepting = true;
        ASSERT_TRUE(server_section->GetBool("accepting", &accepting));
        EXPECT_FALSE(accepting);
      }
    }
  }
  // The drain never reopens: no "draining" follows "not accepting".
  if (saw_not_accepting && TryHttpGet(port, "/readyz", &response)) {
    EXPECT_EQ(response.find("draining"), std::string::npos) << response;
  }
  shutdown_thread.join();

  EXPECT_TRUE(saw_draining);
  EXPECT_TRUE(saw_metrics_mid_drain);
  EXPECT_TRUE(saw_varz_mid_drain);
  for (auto& response_future : responses) {
    const QueryResponse served = response_future.get();
    EXPECT_EQ(served.outcome, ServeOutcome::kCompleted);
    EXPECT_TRUE(served.status.ok());
  }
  EXPECT_EQ(server.stats_port(), 0);
}

}  // namespace
}  // namespace nc
