// Golden persisted-format documents: canonical "nchub", "ncplay" and
// "nccache" text, byte for byte. Each document is built from a fixed
// in-memory state that exercises every record kind its format carries; the
// writer must reproduce testdata/golden_formats.txt exactly, and parsing
// each golden document must re-serialize to the same bytes. A change to
// any writer, or to what a parser accepts as canonical, moves this file.
// On a mismatch the test writes the text it produced to
// golden_formats.actual in its working directory, so `diff` shows which
// document moved.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/rng.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "playbook/catalog.h"
#include "playbook/scenario.h"
#include "replica/replica.h"

namespace nc {
namespace {

constexpr char kGoldenPath[] = NC_TESTDATA_DIR "/golden_formats.txt";

// A hub carrying every "nchub" record kind: service sketches (one slot
// wraps its hedge ring), completion and prediction-error sketches, both
// cost EWMAs, profile sketches and captured fleet health.
std::string HubDocument() {
  obs::TelemetryHub hub;
  Rng rng(2024);
  using Slot = std::tuple<PredicateId, size_t, size_t>;
  for (const auto& [i, r, n] : {Slot{0, 0, 9}, Slot{0, 1, 90}, Slot{1, 1, 3}}) {
    for (size_t v = 0; v < n; ++v) {
      hub.ObserveReplicaService(i, r, rng.Uniform01() * 50.0);
    }
    for (size_t v = 0; v < 7; ++v) {
      hub.ObserveCompletion(i, rng.Uniform01() * 20.0);
      hub.ObservePredictionError(i, rng.Uniform01());
    }
    hub.ObserveAccessCost(i, AccessType::kSorted, rng.Uniform01() * 3.0);
    hub.ObserveAccessCost(i, AccessType::kRandom, rng.Uniform01() * 8.0);
    hub.NoteQuery();
  }
  obs::ProfileReport report;
  for (const obs::CostCenter center :
       {obs::CostCenter::kSortedAccess, obs::CostCenter::kCandidateHeap}) {
    for (uint64_t self_ns : {1500u, 250u, 9000u}) {
      obs::ProfileReport::FlatRow row;
      row.center = center;
      row.count = 1;
      row.total_ns = self_ns;
      row.self_ns = self_ns;
      report.flat = {row};
      hub.ObserveProfile(report);
    }
  }
  ReplicaFleet fleet(5);
  for (PredicateId i = 0; i < 2; ++i) {
    ReplicaSetConfig config;
    config.replicas.resize(2);
    EXPECT_TRUE(fleet.Configure(i, config).ok());
  }
  fleet.runtime(0, 0).dead = true;
  fleet.runtime(1, 1).breaker_open = true;
  fleet.runtime(1, 1).breaker_open_until = 4.25;
  fleet.runtime(1, 1).breaker_consecutive = 3;
  fleet.runtime(0, 1).has_ewma = true;
  fleet.runtime(0, 1).ewma_latency = 6.5;
  hub.CaptureFleetHealth(fleet, /*now=*/0.5);
  return hub.Serialize();
}

// A spec carrying every "ncplay" record, optional ones included.
playbook::ScenarioSpec FancyScenario() {
  playbook::ScenarioSpec s;
  s.name = "golden_0:fmt.test";
  s.num_objects = 300;
  s.num_predicates = 3;
  s.distribution = ScoreDistribution::kGaussian;
  s.correlation = -0.75;
  s.gaussian_mean = 0.4;
  s.gaussian_stddev = 0.25;
  s.data_seed = 777;
  s.scoring = ScoringKind::kMin;
  s.k = 7;
  s.sorted_cost = {1.0, kImpossibleCost, 0.125};
  s.random_cost = {kImpossibleCost, 5.0, 10.0};
  s.sorted_page_size = {4, 1, 8};
  s.attribute_groups = {0, 1, 1};
  s.fault.transient_rate = 0.03125;
  s.fault.timeout_rate = 0.015625;
  playbook::ReplicaSpec primary;
  playbook::ReplicaSpec backup;
  backup.cost_multiplier = 1.5;
  backup.latency.jitter = 0.1;
  backup.faults.transient_rate = 0.0625;
  backup.faults.die_after_attempts = 40;
  s.replicas = {primary, backup};
  s.routing = RoutingPolicy::kLeastLatency;
  s.hedge_delay = 12.5;
  s.budget.max_cost = 250.0;
  s.budget.deadline = 400.0;
  s.budget.predicate_quota = {0, 40, 0};
  s.srg_depths = {0.5, 0.25, 1.0};
  s.srg_schedule = {2, 0, 1};
  s.cache_enabled = true;
  s.cache_hit_cost = 0.01;
  s.fault_seed = 9;
  s.jitter_seed = 10;
  s.fleet_seed = 11;
  return s;
}

// Every golden document, in file order, each behind a "=== <name>" line.
std::string Documents() {
  std::string out;
  const auto add = [&out](const char* name, const std::string& doc) {
    out += "=== ";
    out += name;
    out += "\n";
    out += doc;
  };
  add("nchub empty", obs::TelemetryHub().Serialize());
  add("nchub full", HubDocument());
  add("ncplay catalog", playbook::CatalogBase().Serialize());
  playbook::ScenarioSpec killed = playbook::CatalogBase();
  killed.name = "killed";
  killed.num_objects = 500;
  killed.kill_at_access = 60;
  killed.data_seed = 38;
  add("ncplay killed", killed.Serialize());
  add("ncplay fancy", FancyScenario().Serialize());
  cache::CacheConfig cache_config;
  add("nccache default", cache_config.Serialize());
  cache_config.hit_cost = 0.1;
  cache_config.random_capacity = 77;
  cache_config.random_ttl = 2.5;
  add("nccache tuned", cache_config.Serialize());
  return out;
}

// Splits the golden file back into its documents.
std::vector<std::pair<std::string, std::string>> Split(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> docs;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("=== ", 0) == 0) {
      docs.emplace_back(line.substr(4), "");
    } else if (!docs.empty()) {
      docs.back().second += line + "\n";
    }
  }
  return docs;
}

std::string ReadGolden() {
  std::ifstream in(kGoldenPath, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << kGoldenPath;
  std::ostringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

TEST(FormatGoldenTest, WritersReproduceTheGoldenDocuments) {
  const std::string actual = Documents();
  const std::string golden = ReadGolden();
  if (golden != actual) {
    std::ofstream("golden_formats.actual", std::ios::binary) << actual;
  }
  EXPECT_TRUE(golden == actual)
      << "a persisted format moved; the documents were written to "
         "golden_formats.actual";
}

// Parsing a golden document and writing it again reproduces it byte for
// byte: the parsers accept every canonical document and lose nothing.
TEST(FormatGoldenTest, GoldenDocumentsParseAndReserializeByteExactly) {
  const auto docs = Split(ReadGolden());
  ASSERT_EQ(docs.size(), 7u);
  for (const auto& [name, doc] : docs) {
    std::string again;
    if (name.rfind("nchub", 0) == 0) {
      obs::TelemetryHub hub;
      ASSERT_TRUE(hub.Deserialize(doc).ok()) << name;
      again = hub.Serialize();
    } else if (name.rfind("ncplay", 0) == 0) {
      playbook::ScenarioSpec spec;
      const Status status = playbook::ParseScenario(doc, &spec);
      ASSERT_TRUE(status.ok()) << name << ": " << status;
      again = spec.Serialize();
    } else {
      cache::CacheConfig config;
      ASSERT_TRUE(cache::ParseCacheConfig(doc, &config).ok()) << name;
      again = config.Serialize();
    }
    EXPECT_EQ(again, doc) << name;
  }
}

}  // namespace
}  // namespace nc
