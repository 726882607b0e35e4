#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "access/fault.h"
#include "core/engine.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace nc::obs {
namespace {

Dataset MakeData(size_t n, size_t m, uint64_t seed) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

void RunQuery(SourceSet* sources, const Dataset& data, size_t k,
              QueryTracer* tracer = nullptr) {
  const size_t m = sources->num_predicates();
  (void)data;
  MinFunction fmin(m);
  SRGPolicy policy(SRGConfig::Default(m));
  EngineOptions options;
  options.k = k;
  sources->set_tracer(tracer);
  TopKResult result;
  ASSERT_TRUE(RunNC(sources, &fmin, &policy, options, &result).ok());
}

double PredicateCostSum(const RunReport& report) {
  double total = 0.0;
  for (const PredicateCost& row : report.predicates) {
    total += row.sorted_cost + row.random_cost;
  }
  return total;
}

// Eq. 1: the per-predicate, per-type cost cells sum exactly to the
// engine's total accrued cost.
TEST(RunReportTest, Eq1CrossCheckFaultFree) {
  const Dataset data = MakeData(800, 3, 21);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 5.0));
  RunQuery(&sources, data, 5);
  const RunReport report = BuildRunReport(sources, nullptr, "NC", 5);
  EXPECT_GT(report.total_cost, 0.0);
  EXPECT_DOUBLE_EQ(PredicateCostSum(report), report.total_cost);
  EXPECT_DOUBLE_EQ(report.total_cost, sources.accrued_cost());
}

// The cross-check must survive retries (fractional per-attempt charges)
// and page-granular sorted pricing, which both bypass naive
// count-times-unit-cost accounting.
TEST(RunReportTest, Eq1CrossCheckWithFaultsAndPages) {
  const Dataset data = MakeData(600, 2, 22);
  CostModel cost = CostModel::Uniform(2, 2.0, 7.0);
  cost.sorted_page_size = {4, 1};
  SourceSet sources(&data, cost);
  FaultProfile profile;
  profile.transient_rate = 0.15;
  profile.timeout_rate = 0.1;
  FaultInjector injector(/*seed=*/17);
  injector.set_default_profile(profile);
  sources.set_fault_injector(&injector);
  RunQuery(&sources, data, 4);

  const RunReport report = BuildRunReport(sources, nullptr, "NC", 4);
  ASSERT_GT(report.retried_attempts, 0u);  // Faults actually happened.
  EXPECT_NEAR(PredicateCostSum(report), report.total_cost,
              1e-9 * report.total_cost);
  EXPECT_EQ(report.transient_failures + report.timeout_failures,
            sources.stats().transient_failures +
                sources.stats().timeout_failures);
}

TEST(RunReportTest, ThetaTimelineIsMonotonicallyNonIncreasing) {
  const Dataset data = MakeData(1000, 3, 23);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 3.0));
  QueryTracer tracer;
  RunQuery(&sources, data, 5, &tracer);

  const RunReport report = BuildRunReport(sources, &tracer, "NC", 5);
  ASSERT_FALSE(report.convergence.empty());
  for (size_t i = 1; i < report.convergence.size(); ++i) {
    EXPECT_LE(report.convergence[i].threshold,
              report.convergence[i - 1].threshold)
        << "theta rose at iteration " << i;
    EXPECT_LE(report.convergence[i - 1].cost, report.convergence[i].cost)
        << "cost clock ran backwards at iteration " << i;
  }
}

TEST(RunReportTest, TextRenderingNamesEveryPredicate) {
  const Dataset data = MakeData(400, 2, 24);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  RunQuery(&sources, data, 3);
  const std::string text = BuildRunReport(sources, nullptr, "NC", 3).ToText();
  EXPECT_NE(text.find("NC top-3"), std::string::npos);
  EXPECT_NE(text.find("accesses:"), std::string::npos);
  for (PredicateId i = 0; i < 2; ++i) {
    EXPECT_NE(text.find(data.predicate_name(i)), std::string::npos);
  }
}

TEST(RunReportTest, JsonRenderingIsWellFormedAndComplete) {
  const Dataset data = MakeData(400, 2, 25);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  QueryTracer tracer;
  RunQuery(&sources, data, 3, &tracer);
  const std::string json =
      BuildRunReport(sources, &tracer, "NC", 3).ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"algorithm\":\"NC\""), std::string::npos);
  EXPECT_NE(json.find("\"total_cost\":"), std::string::npos);
  EXPECT_NE(json.find("\"predicates\":["), std::string::npos);
  EXPECT_NE(json.find("\"convergence\":["), std::string::npos);
  EXPECT_NE(json.find("\"faults\":{"), std::string::npos);
  // No stray control characters or unescaped quotes: every quote is
  // structural or escaped, so the brace/bracket nesting must balance.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// The acceptance-criteria cross-check: a metrics dump's per-predicate
// sorted/random cost series sum back to the engine's total cost.
TEST(RunReportTest, RecordedMetricsSumToEngineTotalCost) {
  const Dataset data = MakeData(700, 3, 26);
  SourceSet sources(&data, CostModel::Uniform(3, 1.0, 4.0));
  MetricsRegistry registry;
  RunQuery(&sources, data, 5);
  RecordRunMetrics(&registry, BuildRunReport(sources, nullptr, "NC", 5));

  EXPECT_DOUBLE_EQ(
      registry.CounterSum("nc_access_cost_total", {{"algorithm", "NC"}}),
      sources.accrued_cost());
  EXPECT_DOUBLE_EQ(
      registry.CounterSum("nc_accesses_total", {{"algorithm", "NC"}}),
      static_cast<double>(sources.stats().TotalSorted() +
                          sources.stats().TotalRandom()));
  // And the Prometheus dump carries the series.
  std::ostringstream os;
  registry.WritePrometheusText(&os);
  EXPECT_NE(os.str().find("nc_access_cost_total{algorithm=\"NC\""),
            std::string::npos);
}

// --- Predicted-vs-actual cost audit --------------------------------------

TEST(RunReportTest, CostAuditDiffsPredictionAgainstMeteredRun) {
  const Dataset data = MakeData(500, 2, 27);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  RunQuery(&sources, data, 4);

  CostPrediction prediction;
  prediction.valid = true;
  prediction.sorted_accesses = {10.0, 12.0};
  prediction.random_accesses = {3.0, 0.0};
  prediction.cost = {16.0, 12.0};
  prediction.total_cost = 28.0;

  const CostAudit audit = BuildCostAudit(prediction, sources);
  ASSERT_TRUE(audit.valid);
  ASSERT_EQ(audit.predicates.size(), 2u);
  EXPECT_DOUBLE_EQ(audit.predicted_total, 28.0);
  EXPECT_DOUBLE_EQ(audit.actual_total, sources.accrued_cost());
  EXPECT_DOUBLE_EQ(audit.total_error, audit.actual_total - 28.0);
  EXPECT_DOUBLE_EQ(audit.total_relative_error,
                   std::abs(audit.total_error) /
                       std::max(audit.actual_total, audit.predicted_total));
  for (PredicateId i = 0; i < 2; ++i) {
    const PredicateAudit& row = audit.predicates[i];
    EXPECT_EQ(row.name, data.predicate_name(i));
    EXPECT_DOUBLE_EQ(row.predicted_sorted, prediction.sorted_accesses[i]);
    EXPECT_DOUBLE_EQ(row.actual_sorted,
                     static_cast<double>(sources.stats().sorted_count[i]));
    EXPECT_DOUBLE_EQ(row.actual_random,
                     static_cast<double>(sources.stats().random_count[i]));
    EXPECT_DOUBLE_EQ(row.actual_cost,
                     sources.stats().sorted_cost_accrued[i] +
                         sources.stats().random_cost_accrued[i]);
    EXPECT_DOUBLE_EQ(row.cost_error, row.actual_cost - row.predicted_cost);
    EXPECT_GE(row.cost_relative_error, 0.0);
    EXPECT_LE(row.cost_relative_error, 1.0);
  }
}

TEST(RunReportTest, CostAuditRejectsInvalidOrMismatchedPredictions) {
  const Dataset data = MakeData(300, 2, 28);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  RunQuery(&sources, data, 3);

  CostPrediction invalid;  // Never filled by a planner.
  EXPECT_FALSE(BuildCostAudit(invalid, sources).valid);

  CostPrediction mismatched;
  mismatched.valid = true;
  mismatched.cost = {1.0, 2.0, 3.0};  // Three predicates, sources has two.
  mismatched.sorted_accesses = {1.0, 2.0, 3.0};
  mismatched.random_accesses = {0.0, 0.0, 0.0};
  EXPECT_FALSE(BuildCostAudit(mismatched, sources).valid);

  // And BuildRunReport without a prediction leaves the audit invalid.
  const RunReport report = BuildRunReport(sources, nullptr, "NC", 3);
  EXPECT_FALSE(report.cost_audit.valid);
}

TEST(RunReportTest, CostAuditRendersInTextAndJson) {
  const Dataset data = MakeData(300, 2, 29);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  RunQuery(&sources, data, 3);

  CostPrediction prediction;
  prediction.valid = true;
  prediction.sorted_accesses = {8.0, 8.0};
  prediction.random_accesses = {2.0, 2.0};
  prediction.cost = {12.0, 12.0};
  prediction.total_cost = 24.0;

  const RunReport report =
      BuildRunReport(sources, nullptr, "NC", 3, &prediction);
  ASSERT_TRUE(report.cost_audit.valid);
  const std::string text = report.ToText();
  EXPECT_NE(text.find("cost audit:"), std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"cost_audit\":{"), std::string::npos);
  EXPECT_NE(json.find("\"predicted_total\":"), std::string::npos);
  EXPECT_NE(json.find("\"total_relative_error\":"), std::string::npos);
}

TEST(RunReportTest, CostAuditMetricsLandInRegistry) {
  const Dataset data = MakeData(300, 2, 30);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  RunQuery(&sources, data, 3);

  CostPrediction prediction;
  prediction.valid = true;
  prediction.sorted_accesses = {8.0, 8.0};
  prediction.random_accesses = {2.0, 2.0};
  prediction.cost = {12.0, 12.0};
  prediction.total_cost = 24.0;
  const CostAudit audit = BuildCostAudit(prediction, sources);
  ASSERT_TRUE(audit.valid);

  RunReport report;
  report.algorithm = "NC";
  report.cost_audit = audit;
  MetricsRegistry registry;
  RecordRunMetrics(&registry, report);
  EXPECT_DOUBLE_EQ(
      registry.CounterSum("nc_cost_predicted_total", {{"algorithm", "NC"}}),
      audit.predicted_total);
  EXPECT_DOUBLE_EQ(
      registry.CounterSum("nc_cost_actual_total", {{"algorithm", "NC"}}),
      audit.actual_total);
  std::ostringstream os;
  registry.WritePrometheusText(&os);
  EXPECT_NE(os.str().find("nc_cost_audit_relative_error"), std::string::npos);
}

}  // namespace
}  // namespace nc::obs
