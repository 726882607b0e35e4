// Engine-internal microbenchmarks (google-benchmark): the hot paths the
// experiment harnesses lean on - bound evaluation, lazy-heap maintenance,
// full NC runs, plan simulation throughput (the optimizer's unit of
// overhead), and the SourceSet access seam (fresh sorted, fresh random,
// and cache-served sorted accesses) - plus the observability layer's
// overhead budget.
//
// The custom main additionally runs a paired A/B/C measurement of the
// hot-path profiler (no profiler vs. disabled vs. enabled) over the
// planned query path and writes BENCH_PROFILER.json in the working
// directory - its disabled-profiler state is the artifact CI's < 1%
// overhead gate reads (see docs/OBSERVABILITY.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "cache/cache.h"
#include "common/check.h"
#include "core/bound_heap.h"
#include "core/candidate.h"
#include "core/engine.h"
#include "core/estimator.h"
#include "core/planner.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "data/sampling.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/tracer.h"

namespace nc {
namespace {

Dataset BenchData(size_t n, size_t m) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = 4242;
  return GenerateDataset(g);
}

void BM_BoundUpper(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  AverageFunction avg(m);
  BoundEvaluator bounds(&avg);
  CandidatePool pool(m);
  Candidate& c = pool.GetOrCreate(0);
  for (PredicateId i = 0; i < m / 2; ++i) c.SetScore(i, 0.5);
  const std::vector<Score> ceilings(m, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds.Upper(c, ceilings));
  }
}
BENCHMARK(BM_BoundUpper)->Arg(2)->Arg(8)->Arg(32);

// Re-deriving an unchanged top-10: the held members are re-checked and
// the heap's root compared once.
void BM_LazyHeapTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  LazyBoundHeap heap;
  std::vector<double> bounds(n);
  for (ObjectId u = 0; u < n; ++u) {
    bounds[u] = 1.0 - static_cast<double>(u) / static_cast<double>(n);
    heap.Push(u, bounds[u]);
  }
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds[u];
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap.TopK(10, fn).data());
  }
}
BENCHMARK(BM_LazyHeapTopK)->Arg(1000)->Arg(100000);

void BM_NCQueryUniformCosts(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = BenchData(n, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  for (auto _ : state) {
    SourceSet sources(&data, cost);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    const Status status = RunNC(&sources, &avg, &policy, options, &result);
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_NCQueryUniformCosts)->Arg(1000)->Arg(10000)->Arg(100000);

// The same query under F = min at m = 2 and m = 3 (args n, m). Every
// candidate whose known minimum is at or above a ceiling ties at it, so
// this is the shape RankedPool's known-predicate groups exist for.
void BM_NCQueryMin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  const Dataset data = BenchData(n, m);
  MinFunction fmin(m);
  const CostModel cost = CostModel::Uniform(m, 1.0, 1.0);
  for (auto _ : state) {
    SourceSet sources(&data, cost);
    SRGPolicy policy(SRGConfig::Default(m));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    const Status status = RunNC(&sources, &fmin, &policy, options, &result);
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_NCQueryMin)->Args({10000, 2})->Args({10000, 3});

// Same query with a constructed-but-disabled tracer attached to the
// sources: the cost of the ShouldTrace() guards alone.
void BM_NCQueryTracerDisabled(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = BenchData(n, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  obs::QueryTracer tracer;
  tracer.Disable();
  for (auto _ : state) {
    SourceSet sources(&data, cost);
    sources.set_tracer(&tracer);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    const Status status = RunNC(&sources, &avg, &policy, options, &result);
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_NCQueryTracerDisabled)->Arg(1000)->Arg(10000);

// Full observability: an enabled tracer, then the finished run folded
// into a metrics registry. The upper bound on what "turn everything on"
// costs per query.
void BM_NCQueryFullyTraced(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = BenchData(n, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  obs::MetricsRegistry metrics;
  for (auto _ : state) {
    obs::QueryTracer tracer;
    SourceSet sources(&data, cost);
    sources.set_tracer(&tracer);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 10;
    TopKResult result;
    const Status status = RunNC(&sources, &avg, &policy, options, &result);
    obs::RecordRunMetrics(&metrics,
                          obs::BuildRunReport(sources, &tracer, "NC", 10));
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_NCQueryFullyTraced)->Arg(1000)->Arg(10000);

// The tracer's per-event append cost in isolation.
void BM_TracerRecordIteration(benchmark::State& state) {
  obs::QueryTracer tracer;
  uint64_t target = 0;
  for (auto _ : state) {
    tracer.RecordIteration(static_cast<ObjectId>(target++ & 0xffff), 4, 0.9,
                           0.8, 128, 1000.0);
    if (tracer.events().size() >= (1u << 20)) tracer.Clear();
  }
}
BENCHMARK(BM_TracerRecordIteration);

// One counter bump through the registry's find-or-create fast path.
void BM_MetricsCounterIncrement(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  obs::Counter& counter = metrics.counter(
      "nc_bench_ops_total", {{"algorithm", "NC"}, {"phase", "probe"}});
  for (auto _ : state) {
    counter.Increment(1.0);
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_PlanSimulation(benchmark::State& state) {
  // One optimizer plan evaluation: NC over a 200-object sample.
  const Dataset data = BenchData(10000, 2);
  const Dataset sample = SampleDataset(data, 200, /*seed=*/5);
  AverageFunction avg(2);
  SimulationCostEstimator estimator(sample, CostModel::Uniform(2, 1.0, 1.0),
                                    &avg, /*k_prime=*/1);
  SRGConfig config = SRGConfig::Default(2);
  double wobble = 0.0;
  for (auto _ : state) {
    // Vary depths slightly so memoization does not short-circuit.
    config.depths[0] = 0.5 + wobble;
    wobble = wobble < 0.4 ? wobble + 1e-6 : 0.0;
    benchmark::DoNotOptimize(estimator.EstimateCost(config));
  }
}
BENCHMARK(BM_PlanSimulation);

void BM_BruteForceOracle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = BenchData(n, 2);
  AverageFunction avg(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceTopK(data, avg, 10));
  }
}
BENCHMARK(BM_BruteForceOracle)->Arg(10000)->Arg(100000);

void BM_SortedAccessThroughput(benchmark::State& state) {
  const Dataset data = BenchData(100000, 2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  std::optional<SortedHit> hit;
  for (auto _ : state) {
    if (sources.exhausted(0)) {
      state.PauseTiming();
      sources.Reset();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(sources.TrySortedAccess(0, &hit));
  }
}
BENCHMARK(BM_SortedAccessThroughput);

void BM_RandomAccessThroughput(benchmark::State& state) {
  const Dataset data = BenchData(100000, 2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ObjectId u = 0;
  Score score = 0.0;
  for (auto _ : state) {
    if (u == data.num_objects()) {
      state.PauseTiming();
      sources.Reset();
      u = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(sources.TryRandomAccess(0, u++, &score));
  }
}
BENCHMARK(BM_RandomAccessThroughput);

// One SourceSet reads a stream another one materialized in a shared
// cache: every access is a cache hit.
void BM_CacheHitSortedAccess(benchmark::State& state) {
  const Dataset data = BenchData(100000, 2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);
  cache::AccessCache cache;
  SourceSet writer(&data, cost);
  writer.set_access_cache(&cache);
  std::optional<SortedHit> hit;
  while (!writer.exhausted(0)) NC_CHECK(writer.TrySortedAccess(0, &hit).ok());
  SourceSet reader(&data, cost);
  reader.set_access_cache(&cache);
  for (auto _ : state) {
    if (reader.exhausted(0)) {
      state.PauseTiming();
      reader.Reset();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(reader.TrySortedAccess(0, &hit));
  }
  NC_CHECK(reader.cache_hits().sorted_hits > 0);
}
BENCHMARK(BM_CacheHitSortedAccess);

// --- Profiler overhead report -----------------------------------------
// Paired A/B/C measurement of the *planned* query path (RunOptimizedNC
// re-plans every call, so the optimizer's simulate and hill-climb cost
// centers fire alongside the access seam). Three states per repetition:
// no profiler attached, a disabled profiler attached (the cost of the
// ShouldProfile guards alone - CI holds this under 1%), and an enabled
// profiler whose final report supplies the per-center self-time shares.
// The states are interleaved within every repetition so clock drift,
// thermal throttling, and background load hit all three equally. Each
// state does identical deterministic work every repetition, so its
// *minimum* is the least noise-contaminated estimate and is what the
// overhead ratio uses; medians ride along in the JSON for context. The
// last repetition's profiled and unprofiled answers must match bit for
// bit - entries and certificate intervals.

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double TimeOnePlannedRunNs(const Dataset& data, const CostModel& cost,
                           const ScoringFunction& scoring,
                           obs::Profiler* profiler, TopKResult* out) {
  if (profiler != nullptr) profiler->Clear();
  SourceSet sources(&data, cost);
  if (profiler != nullptr) sources.set_profiler(profiler);
  const PlannerOptions plan_options;
  const auto start = std::chrono::steady_clock::now();
  const Status status =
      RunOptimizedNC(&sources, scoring, 10, plan_options, out, nullptr);
  const auto stop = std::chrono::steady_clock::now();
  NC_CHECK(status.ok());
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

bool SameAnswer(const TopKResult& a, const TopKResult& b) {
  return a == b && a.certificate == b.certificate;
}

void WriteProfilerReport() {
  // A profiler's overhead is a few per cent at most, well inside the
  // run-to-run drift of one planned query on a shared machine, so the
  // estimator compares the variants within each round: the three runs of
  // a round go back to back (forward order in even rounds, reversed in
  // odd ones, so neither side always runs first), and the overhead is the
  // median over rounds of each round's paired difference.
  constexpr int kReps = 301;
  const Dataset data = BenchData(10000, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  obs::Profiler disabled_profiler;
  disabled_profiler.Disable();
  obs::Profiler enabled_profiler;

  TopKResult plain_result, disabled_result, profiled_result;
  std::vector<double> unprofiled, disabled, enabled;
  std::vector<double> disabled_pct, enabled_pct;
  for (int r = -3; r < kReps; ++r) {
    double a = 0.0, b = 0.0, c = 0.0;
    const auto time_a = [&] {
      a = TimeOnePlannedRunNs(data, cost, avg, nullptr, &plain_result);
    };
    const auto time_b = [&] {
      b = TimeOnePlannedRunNs(data, cost, avg, &disabled_profiler,
                              &disabled_result);
    };
    const auto time_c = [&] {
      c = TimeOnePlannedRunNs(data, cost, avg, &enabled_profiler,
                              &profiled_result);
    };
    if (r % 2 == 0) {
      time_a();
      time_b();
      time_c();
    } else {
      time_c();
      time_b();
      time_a();
    }
    if (r < 0) continue;  // Warm-up rounds.
    unprofiled.push_back(a);
    disabled.push_back(b);
    enabled.push_back(c);
    disabled_pct.push_back(100.0 * (b - a) / a);
    enabled_pct.push_back(100.0 * (c - a) / a);
  }
  const auto min_of = [](const std::vector<double>& xs) {
    return *std::min_element(xs.begin(), xs.end());
  };
  const double unprofiled_ns = min_of(unprofiled);
  const double disabled_ns = min_of(disabled);
  const double enabled_ns = min_of(enabled);
  const double disabled_overhead = Median(disabled_pct);
  const double enabled_overhead = Median(enabled_pct);

  // The enabled profiler still holds the last repetition's tree.
  const obs::ProfileReport report = enabled_profiler.Report();
  NC_CHECK(!report.empty());
  const double self_total = static_cast<double>(report.SelfNs());
  const bool identical = SameAnswer(plain_result, profiled_result) &&
                         SameAnswer(plain_result, disabled_result);

  double share_sum = 0.0;
  bench::WriteBenchJsonDoc(
      "profiler", "profiler_overhead", [&](obs::JsonWriter& w) {
        w.Key("query").BeginObject();
        w.Key("objects").UInt(10000);
        w.Key("predicates").UInt(2);
        w.Key("k").UInt(10);
        w.Key("planned").Bool(true);
        w.EndObject();
        w.Key("repetitions").Int(kReps);
        w.Key("alloc_accounting").Bool(report.alloc_accounting);
        w.Key("differential_bit_identical").Bool(identical);
        w.Key("min_ns").BeginObject();
        w.Key("unprofiled").Number(unprofiled_ns);
        w.Key("profiler_disabled").Number(disabled_ns);
        w.Key("profiler_enabled").Number(enabled_ns);
        w.EndObject();
        w.Key("median_ns").BeginObject();
        w.Key("unprofiled").Number(Median(unprofiled));
        w.Key("profiler_disabled").Number(Median(disabled));
        w.Key("profiler_enabled").Number(Median(enabled));
        w.EndObject();
        // Median of the per-round paired differences, in per cent.
        w.Key("overhead_pct_vs_unprofiled").BeginObject();
        w.Key("profiler_disabled").Number(disabled_overhead);
        w.Key("profiler_enabled").Number(enabled_overhead);
        w.EndObject();
        // Convenience copy for the CI envelope check.
        w.Key("disabled_overhead_pct").Number(disabled_overhead);
        w.Key("centers").BeginObject();
        for (const obs::ProfileReport::FlatRow& row : report.flat) {
          const double share =
              self_total > 0.0
                  ? static_cast<double>(row.self_ns) / self_total
                  : 0.0;
          share_sum += share;
          w.Key(obs::CostCenterName(row.center)).BeginObject();
          w.Key("count").UInt(row.count);
          w.Key("total_ns").UInt(row.total_ns);
          w.Key("self_ns").UInt(row.self_ns);
          w.Key("share").Number(share);
          w.EndObject();
        }
        w.EndObject();
        w.Key("share_sum").Number(share_sum);
      });
  std::printf(
      "profiler overhead (median paired difference over %d alternating "
      "rounds of the planned n=10000 query; min times):\n"
      "  unprofiled        %12.0f ns\n"
      "  profiler disabled %12.0f ns  (%+.2f%%)\n"
      "  profiler enabled  %12.0f ns  (%+.2f%%)\n"
      "  differential bit-identical: %s\n",
      kReps, unprofiled_ns, disabled_ns, disabled_overhead, enabled_ns,
      enabled_overhead, identical ? "yes" : "no");
}

// Console output as usual, but every per-iteration result is also
// captured so the run lands in BENCH_MICRO.json alongside the other
// committed bench artifacts (the perf trajectory across PRs).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_ns = 0.0;
    double cpu_ns = 0.0;
    int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.real_ns = run.GetAdjustedRealTime();
      row.cpu_ns = run.GetAdjustedCPUTime();
      row.iterations = static_cast<int64_t>(run.iterations);
      rows_.push_back(row);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

void WriteMicroReport(const std::vector<CapturingReporter::Row>& rows) {
  bench::WriteBenchJsonDoc("micro", "micro", [&](obs::JsonWriter& w) {
    w.Key("time_unit").String("ns");
    w.Key("rows").BeginArray();
    for (const CapturingReporter::Row& row : rows) {
      w.BeginObject();
      w.Key("name").String(row.name);
      w.Key("real_ns").Number(row.real_ns);
      w.Key("cpu_ns").Number(row.cpu_ns);
      w.Key("iterations").Int(row.iterations);
      w.EndObject();
    }
    w.EndArray();
  });
}

}  // namespace
}  // namespace nc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  nc::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  nc::WriteMicroReport(reporter.rows());
  nc::WriteProfilerReport();
  return 0;
}
