// Shared plumbing for the experiment harnesses: one-line runners for NC
// (fixed-config, cost-optimized, adaptive) and the baselines, simple
// fixed-width table printing so every binary reports rows the way the
// paper's figures/tables do, and a process-wide JSON sink so every
// binary also emits its rows machine-readably.
//
// JSON emission: each Run* helper snapshots its finished run into an
// obs::RunReport and records a row in the sink under the current
// scenario label (PrintHeader doubles as the scenario marker). A bench
// main ends with WriteBenchJson("name"), which writes BENCH_<NAME>.json
// into the working directory:
//   {"bench":"name","rows":[{"scenario":...,"algorithm":...,
//     "correct":...,"plan":...,"report":{<RunReport::ToJson()>}}]}

#ifndef NC_BENCH_BENCH_UTIL_H_
#define NC_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "common/build_info.h"
#include "common/check.h"
#include "core/planner.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "obs/json.h"
#include "obs/run_report.h"

namespace nc::bench {

// Outcome of one measured execution.
struct RunStats {
  double cost = 0.0;
  size_t sorted = 0;
  size_t random = 0;
  bool correct = false;  // Exact match against the brute-force oracle.
  std::string plan;      // SR/G config for NC runs; empty for baselines.
  // The full Eq. 1 breakdown of the run, for the JSON sink.
  obs::RunReport report;
};

// --- JSON sink --------------------------------------------------------

struct JsonRow {
  std::string scenario;
  std::string algorithm;
  RunStats stats;
};

// Rows accumulated by this process, in recording order.
inline std::vector<JsonRow>& JsonRows() {
  static std::vector<JsonRow>* rows = new std::vector<JsonRow>();
  return *rows;
}

// The scenario label attached to subsequently recorded rows.
inline std::string& CurrentScenario() {
  static std::string* scenario = new std::string();
  return *scenario;
}

inline void SetScenario(const std::string& scenario) {
  CurrentScenario() = scenario;
}

inline void AddJsonRow(const std::string& algorithm, const RunStats& stats) {
  JsonRows().push_back(JsonRow{CurrentScenario(), algorithm, stats});
}

// Schema of the BENCH_*.json envelope; bump when the row shape changes
// so the perf trajectory stays comparable across changes, together with
// the value CI's micro-bench step requires.
inline constexpr int kBenchJsonSchemaVersion = 2;

// UTC wall-clock in ISO 8601 ("2026-01-31T12:34:56Z").
inline std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

// The one JSON emitter every bench binary funnels through: writes
// BENCH_<FILE_BASE>.json (upper-cased) holding the shared envelope
// (bench, schema_version, timestamp, build_type) plus whatever keys
// `body` adds inside the top-level object. `bench_name` is the "bench"
// key's value (usually equal to file_base).
template <typename Body>
inline void WriteBenchJsonDoc(const std::string& file_base,
                              const std::string& bench_name, Body&& body) {
  std::string file_name = "BENCH_";
  for (const char c : file_base) {
    file_name.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  file_name += ".json";
  std::ostringstream os;
  obs::JsonWriter w(&os);
  w.BeginObject();
  w.Key("bench").String(bench_name);
  w.Key("schema_version").Int(kBenchJsonSchemaVersion);
  w.Key("timestamp").String(IsoTimestampUtc());
  // How this binary was compiled, so numbers from sanitizer CI runs are
  // never mistaken for release measurements.
  w.Key("build_type").String(BuildFlavor());
  body(w);
  w.EndObject();
  std::ofstream file(file_name);
  NC_CHECK(file.good());
  file << os.str() << "\n";
  std::printf("\nwrote %s\n", file_name.c_str());
}

// Writes BENCH_<NAME>.json (name upper-cased) with every recorded row.
// A bench that recorded none fails here: its JSON would carry no result.
inline void WriteBenchJson(const std::string& bench_name) {
  NC_CHECK(!JsonRows().empty());
  WriteBenchJsonDoc(bench_name, bench_name, [](obs::JsonWriter& w) {
    w.Key("rows").BeginArray();
    for (const JsonRow& row : JsonRows()) {
      w.BeginObject();
      if (!row.scenario.empty()) w.Key("scenario").String(row.scenario);
      w.Key("algorithm").String(row.algorithm);
      w.Key("correct").Bool(row.stats.correct);
      if (!row.stats.plan.empty()) w.Key("plan").String(row.stats.plan);
      w.Key("report").Raw(row.stats.report.ToJson());
      w.EndObject();
    }
    w.EndArray();
  });
  std::printf("  (%zu rows)\n", JsonRows().size());
}

// --- Runners ----------------------------------------------------------

// Runs NC with a fixed SR/G configuration.
inline RunStats RunFixedNC(const Dataset& data, const CostModel& cost,
                           const ScoringFunction& scoring, size_t k,
                           const SRGConfig& config) {
  SourceSet sources(&data, cost);
  SRGPolicy policy(config);
  EngineOptions options;
  options.k = k;
  TopKResult result;
  const Status status = RunNC(&sources, &scoring, &policy, options, &result);
  NC_CHECK(status.ok());
  RunStats stats;
  stats.cost = sources.accrued_cost();
  stats.sorted = sources.stats().TotalSorted();
  stats.random = sources.stats().TotalRandom();
  stats.correct = result == BruteForceTopK(data, scoring, k);
  stats.plan = config.ToString();
  stats.report = obs::BuildRunReport(sources, nullptr, "NC", k);
  AddJsonRow("NC", stats);
  return stats;
}

// Runs the full cost-based pipeline (plan with the given scheme, then
// execute). Optimization overhead is not part of the reported access cost,
// matching the paper's accounting (estimation runs on samples, not on the
// priced sources).
inline RunStats RunOptimized(const Dataset& data, const CostModel& cost,
                             const ScoringFunction& scoring, size_t k,
                             SearchScheme scheme = SearchScheme::kHClimb,
                             size_t sample_size = 200) {
  SourceSet sources(&data, cost);
  PlannerOptions options;
  options.scheme = scheme;
  options.sample_size = sample_size;
  TopKResult result;
  OptimizerResult plan;
  const Status status =
      RunOptimizedNC(&sources, scoring, k, options, &result, &plan);
  NC_CHECK(status.ok());
  RunStats stats;
  stats.cost = sources.accrued_cost();
  stats.sorted = sources.stats().TotalSorted();
  stats.random = sources.stats().TotalRandom();
  stats.correct = result == BruteForceTopK(data, scoring, k);
  stats.plan = plan.config.ToString();
  stats.report = obs::BuildRunReport(sources, nullptr, "NC-opt", k);
  AddJsonRow("NC-opt", stats);
  return stats;
}

// Runs a registered baseline. Returns false in `*ran` when the baseline's
// scenario does not cover `cost`.
inline RunStats RunBaseline(const AlgorithmInfo& info, const Dataset& data,
                            const CostModel& cost,
                            const ScoringFunction& scoring, size_t k,
                            bool* ran = nullptr) {
  RunStats stats;
  if (!info.applicable(cost)) {
    if (ran != nullptr) *ran = false;
    return stats;
  }
  SourceSet sources(&data, cost);
  TopKResult result;
  const Status status = info.run(&sources, scoring, k, &result);
  NC_CHECK(status.ok());
  stats.cost = sources.accrued_cost();
  stats.sorted = sources.stats().TotalSorted();
  stats.random = sources.stats().TotalRandom();
  stats.correct =
      CheckAnswer(data, scoring, k, result, info.exact_scores).empty();
  stats.report = obs::BuildRunReport(sources, nullptr, info.name, k);
  AddJsonRow(info.name, stats);
  if (ran != nullptr) *ran = true;
  return stats;
}

// --- Table printing ---------------------------------------------------

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n");
  PrintRule(72);
  std::printf("%s\n", title.c_str());
  PrintRule(72);
  // The printed section doubles as the JSON rows' scenario label.
  SetScenario(title);
}

}  // namespace nc::bench

#endif  // NC_BENCH_BENCH_UTIL_H_
