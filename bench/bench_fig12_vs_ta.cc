// Figure 12: relative access cost of the cost-based NC plan versus TA
// (TA = 100%), across symmetric and asymmetric settings.
//
// The paper's reading: in TA's sweet spot (F = avg, uniform scores,
// cs = cr) NC matches TA within a few percent; as the setting turns
// asymmetric - min-like F, correlated/anti-correlated or mixed-marginal
// data, uneven unit costs - TA's equal-depth, exhaustive-probe,
// early-stop habits stop fitting and the cost-based plan wins by growing
// factors.
//
// (Note on marginals: for iid per-predicate scores, any common monotone
// transform of the marginal - e.g. a zipf-shaped power law - leaves every
// threshold algorithm's access pattern for min unchanged, so the
// interesting data asymmetries are cross-predicate correlation and
// *different* marginals per predicate, benchmarked here.)

#include <cstdio>
#include <fstream>
#include <functional>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace nc::bench {
namespace {

constexpr size_t kObjects = 10000;
constexpr size_t kK = 10;

Dataset Plain(ScoreDistribution dist, double correlation) {
  GeneratorOptions g;
  g.num_objects = kObjects;
  g.num_predicates = 2;
  g.distribution = dist;
  g.correlation = correlation;
  g.seed = 1212;
  return GenerateDataset(g);
}

// p0 uniform, p1 zipf-skewed: per-predicate marginals differ, so the
// streams drop at very different rates.
Dataset MixedMarginals() {
  GeneratorOptions uniform;
  uniform.num_objects = kObjects;
  uniform.num_predicates = 1;
  uniform.seed = 1212;
  GeneratorOptions zipf = uniform;
  zipf.distribution = ScoreDistribution::kZipf;
  zipf.zipf_skew = 3.0;
  zipf.seed = 1213;
  const Dataset u = GenerateDataset(uniform);
  const Dataset z = GenerateDataset(zipf);
  Dataset mixed(kObjects, 2);
  for (ObjectId o = 0; o < kObjects; ++o) {
    mixed.SetScore(o, 0, u.score(o, 0));
    mixed.SetScore(o, 1, z.score(o, 0));
  }
  return mixed;
}

struct Row {
  const char* label;
  ScoringKind kind;
  std::function<Dataset()> data;
  double cs;
  double cr;
};

}  // namespace
}  // namespace nc::bench

int main() {
  using namespace nc;
  using namespace nc::bench;

  const std::vector<Row> rows = {
      {"symmetric: avg/uniform cs=cr=1", ScoringKind::kAverage,
       [] { return Plain(ScoreDistribution::kUniform, 0.0); }, 1.0, 1.0},
      {"asymmetric F: min/uniform cs=cr=1", ScoringKind::kMin,
       [] { return Plain(ScoreDistribution::kUniform, 0.0); }, 1.0, 1.0},
      {"asymmetric F: product/uniform cs=cr=1", ScoringKind::kProduct,
       [] { return Plain(ScoreDistribution::kUniform, 0.0); }, 1.0, 1.0},
      {"correlated data (rho=0.8): avg", ScoringKind::kAverage,
       [] { return Plain(ScoreDistribution::kUniform, 0.8); }, 1.0, 1.0},
      {"anti-correlated data (rho=-0.8): avg", ScoringKind::kAverage,
       [] { return Plain(ScoreDistribution::kUniform, -0.8); }, 1.0, 1.0},
      {"mixed marginals (uniform+zipf): avg", ScoringKind::kAverage,
       MixedMarginals, 1.0, 1.0},
      {"mixed marginals (uniform+zipf): min", ScoringKind::kMin,
       MixedMarginals, 1.0, 1.0},
      {"asymmetric cost: avg/uniform cr=10cs", ScoringKind::kAverage,
       [] { return Plain(ScoreDistribution::kUniform, 0.0); }, 1.0, 10.0},
      {"asymmetric cost: min/uniform cr=10cs", ScoringKind::kMin,
       [] { return Plain(ScoreDistribution::kUniform, 0.0); }, 1.0, 10.0},
      {"asymmetric cost: avg/uniform cr=cs/10", ScoringKind::kAverage,
       [] { return Plain(ScoreDistribution::kUniform, 0.0); }, 1.0, 0.1},
      {"asymmetric cost: min/uniform cr=cs/10", ScoringKind::kMin,
       [] { return Plain(ScoreDistribution::kUniform, 0.0); }, 1.0, 0.1},
  };

  PrintHeader(
      "Figure 12 - NC relative to TA (TA = 100%), n=10000, k=10, m=2");
  std::printf("%-42s %10s %10s %8s %s\n", "setting", "TA cost", "NC cost",
              "NC/TA%", "NC plan");
  PrintRule(110);

  for (const Row& row : rows) {
    const Dataset data = row.data();
    const CostModel cost = CostModel::Uniform(2, row.cs, row.cr);
    const auto scoring = MakeScoringFunction(row.kind, 2);

    const AlgorithmInfo* ta = FindBaseline("TA");
    const RunStats ta_stats = RunBaseline(*ta, data, cost, *scoring, kK);
    const RunStats nc_stats = RunOptimized(data, cost, *scoring, kK);
    NC_CHECK(ta_stats.correct);
    NC_CHECK(nc_stats.correct);

    std::printf("%-42s %10.0f %10.0f %7.0f%% %s\n", row.label, ta_stats.cost,
                nc_stats.cost, 100.0 * nc_stats.cost / ta_stats.cost,
                nc_stats.plan.c_str());
  }

  // --- Fully observed run (docs/OBSERVABILITY.md) ----------------------
  // One instrumented execution of the first (symmetric) setting, emitting
  // every artifact the observability layer produces: a Chrome trace, the
  // JSONL event log, a Prometheus metrics dump, and the run report.
  {
    PrintHeader("Traced run: avg/uniform cs=cr=1 with full observability");
    const Dataset data = Plain(ScoreDistribution::kUniform, 0.0);
    const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
    AverageFunction scoring(2);
    obs::QueryTracer tracer;
    obs::MetricsRegistry metrics;

    SourceSet sources(&data, cost);
    sources.set_tracer(&tracer);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = kK;
    TopKResult result;
    NC_CHECK(RunNC(&sources, &scoring, &policy, options, &result).ok());

    const obs::RunReport report =
        obs::BuildRunReport(sources, &tracer, "NC", kK);
    obs::RecordRunMetrics(&metrics, report);
    // Wall time differs run to run: fig12_report.json keeps it, stdout
    // stays byte-identical.
    obs::RunReport text_report = report;
    text_report.wall_ms = 0.0;
    std::fputs(text_report.ToText().c_str(), stdout);

    const auto write_file = [](const char* path, auto&& emit) {
      std::ofstream file(path);
      NC_CHECK(file.good());
      emit(&file);
      std::printf("wrote %s\n", path);
    };
    write_file("fig12_trace.json",
               [&](std::ostream* os) { tracer.ExportChromeTrace(os); });
    write_file("fig12_trace.jsonl",
               [&](std::ostream* os) { tracer.ExportJsonl(os); });
    write_file("fig12_metrics.prom",
               [&](std::ostream* os) { metrics.WritePrometheusText(os); });
    write_file("fig12_report.json",
               [&](std::ostream* os) { (*os) << report.ToJson() << "\n"; });
  }
  nc::bench::WriteBenchJson("fig12_vs_ta");
  return 0;
}
