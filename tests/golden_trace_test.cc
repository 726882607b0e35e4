// Golden access sequences: a fixed query matrix whose attempt traces,
// answers and certificates are committed in testdata/. Engine work that
// claims "same answers, same accesses" (bound-heap, candidate-pool and
// bound-evaluation refactors) must reproduce the file byte for byte; a
// deliberate behavior change regenerates it. On a mismatch the test
// writes the text it produced to golden_access_sequences.actual in its
// working directory, so `diff` shows exactly which case moved.
//
// The matrix, at n = 300 over 2 uniform predicates:
//   F in {avg, min} x the four Fig. 11/12 cost regimes x k in {1, 10, 20},
// and for each cell: the planned run (RunOptimizedNC), then on the same
// plan a theta = 1.2 run, a cost-budgeted (certified) run, a best-effort
// max_accesses run, a fault-injected run and Extend(k -> 2k), plus MPro
// and Upper.
//
// A second matrix, committed as testdata/golden_stops.txt, pins every way
// a budget stops a run, and the unbudgeted parallel and Framework TG runs
// (see StopsMatrix).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "access/fault.h"
#include "access/source.h"
#include "access/trace_format.h"
#include "baselines/mpro.h"
#include "baselines/registry.h"
#include "baselines/upper.h"
#include "common/numeric.h"
#include "core/engine.h"
#include "core/parallel_executor.h"
#include "core/planner.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "core/tg.h"
#include "data/generator.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

constexpr char kGoldenPath[] = NC_TESTDATA_DIR "/golden_access_sequences.txt";
constexpr char kStopsPath[] = NC_TESTDATA_DIR "/golden_stops.txt";

Dataset Corpus() {
  GeneratorOptions g;
  g.num_objects = 300;
  g.num_predicates = 2;
  g.seed = 20050405;
  return GenerateDataset(g);
}

// The paper's Fig. 11/12 regimes: symmetric, expensive random, expensive
// sorted, and one predicate without random access.
std::vector<CostModel> Regimes() {
  return {CostModel::Uniform(2, 1.0, 1.0), CostModel::Uniform(2, 1.0, 10.0),
          CostModel::Uniform(2, 10.0, 1.0),
          CostModel({1.0, 1.0}, {2.0, kImpossibleCost})};
}

void AppendRun(const std::string& label, const Status& status,
               const SourceSet& sources, const TopKResult& result,
               std::string* out) {
  std::ostringstream s;
  s << "case " << label << "\n";
  s << "status " << status.ToString() << "\n";
  s << "cost " << FormatHexDouble(sources.accrued_cost()) << "\n";
  s << "trace " << SerializeAttemptTrace(sources.attempt_trace()) << "\n";
  s << "answer";
  for (const TopKEntry& e : result.entries) {
    s << " u" << e.object << ":" << FormatHexDouble(e.score);
  }
  s << "\n";
  if (result.certificate.has_value()) {
    const AnytimeCertificate& cert = *result.certificate;
    s << "certificate " << TerminationReasonName(cert.reason) << " epsilon "
      << FormatHexDouble(cert.epsilon) << " excluded "
      << FormatHexDouble(cert.excluded_ceiling) << " intervals";
    for (const ScoreInterval& in : cert.intervals) {
      s << " [" << FormatHexDouble(in.lower) << ","
        << FormatHexDouble(in.upper) << "]";
    }
    s << "\n";
  }
  *out += s.str();
}

// One engine run on a fixed plan; at most one knob differs from the
// planned run.
struct Variant {
  const char* name = "";
  double theta = 1.0;
  double max_cost = 0.0;
  size_t max_accesses = 0;
  bool faults = false;
  size_t extend_to = 0;
};

void RunVariant(const Dataset& data, const CostModel& regime,
                const ScoringFunction& scoring, size_t k,
                const SRGConfig& plan, const Variant& v,
                const std::string& cell, std::string* out) {
  SourceSet sources(&data, regime);
  sources.EnableTrace();
  FaultInjector injector(/*seed=*/77);
  if (v.faults) {
    FaultProfile flaky;
    flaky.transient_rate = 0.1;
    flaky.timeout_rate = 0.05;
    injector.set_default_profile(flaky);
    // Predicate 1 dies mid-run: the degradation path certifies.
    FaultProfile dying = flaky;
    dying.die_after_attempts = 60;
    injector.set_profile(1, dying);
    sources.set_fault_injector(&injector);
  }
  if (v.max_cost > 0.0) {
    QueryBudget budget;
    budget.max_cost = v.max_cost;
    ASSERT_TRUE(sources.set_budget(budget).ok());
  }
  SRGPolicy policy(plan);
  EngineOptions options;
  options.k = k;
  options.approximation_theta = v.theta;
  options.max_accesses = v.max_accesses;
  options.best_effort = v.max_accesses != 0;
  NCEngine engine(&sources, &scoring, &policy, options);
  TopKResult result;
  Status status = engine.Run(&result);
  const std::string label = cell + " " + v.name;
  if (v.extend_to == 0) {
    AppendRun(label, status, sources, result, out);
    return;
  }
  AppendRun(label + " run", status, sources, result, out);
  status = engine.Extend(v.extend_to, &result);
  AppendRun(label + " extend", status, sources, result, out);
}

std::string ReplayMatrix() {
  const Dataset data = Corpus();
  const std::vector<CostModel> regimes = Regimes();
  const AverageFunction avg(2);
  const MinFunction fmin(2);
  std::string out;
  for (const ScoringFunction* scoring :
       {static_cast<const ScoringFunction*>(&avg),
        static_cast<const ScoringFunction*>(&fmin)}) {
    for (size_t r = 0; r < regimes.size(); ++r) {
      for (const size_t k : {size_t{1}, size_t{10}, size_t{20}}) {
        const std::string cell =
            std::string("F=") + (scoring == &avg ? "avg" : "min") +
            " regime=" + std::to_string(r) + " k=" + std::to_string(k);
        // The planned run fixes the plan the variants reuse; its cost and
        // access count size their budgets.
        SourceSet planned(&data, regimes[r]);
        planned.EnableTrace();
        TopKResult result;
        OptimizerResult plan;
        const Status status = RunOptimizedNC(&planned, *scoring, k,
                                             PlannerOptions(), &result, &plan);
        AppendRun(cell + " planned", status, planned, result, &out);
        if (!status.ok()) continue;

        Variant theta;
        theta.name = "theta";
        theta.theta = 1.2;
        Variant budget;
        budget.name = "budget";
        budget.max_cost = planned.accrued_cost() / 2.0;
        Variant capped;
        capped.name = "best_effort";
        capped.max_accesses =
            SuccessfulAccesses(planned.attempt_trace()).size() / 2 + 1;
        Variant faults;
        faults.name = "faults";
        faults.faults = true;
        Variant extend;
        extend.name = "extend";
        extend.extend_to = 2 * k;
        for (const Variant& v : {theta, budget, capped, faults, extend}) {
          RunVariant(data, regimes[r], *scoring, k, plan.config, v, cell,
                     &out);
        }

        SourceSet mpro_sources(&data, regimes[r]);
        mpro_sources.EnableTrace();
        const Status mpro = RunMPro(&mpro_sources, *scoring, k, {}, &result);
        AppendRun(cell + " mpro", mpro, mpro_sources, result, &out);

        SourceSet upper_sources(&data, regimes[r]);
        upper_sources.EnableTrace();
        const Status upper =
            RunUpper(&upper_sources, *scoring, k, {}, &result);
        AppendRun(cell + " upper", upper, upper_sources, result, &out);
      }
    }
  }
  return out;
}

// --- Stops ----------------------------------------------------------------
// Every way a budget stops a run, with what the certificate, the refusal
// counter and both clocks say: each AllBaselines() entry, the sequential
// engine and the parallel executor under a cost cap, a deadline and a
// per-predicate quota. Each budget is sized from the same run unbudgeted,
// over n = 150 objects and 3 predicates with unequal unit costs. Every
// answer is checked against the data (CheckAnswer).

Dataset StopsCorpus() {
  GeneratorOptions g;
  g.num_objects = 150;
  g.num_predicates = 3;
  g.seed = 20050406;
  return GenerateDataset(g);
}

void AppendStop(const std::string& label, const Status& status,
                const SourceSet& sources, const TopKResult& result,
                std::string* out) {
  AppendRun(label, status, sources, result, out);
  *out += "elapsed " + FormatHexDouble(sources.elapsed_time()) +
          " refusals " + std::to_string(sources.stats().budget_refusals) +
          "\n";
}

void AppendParallel(const ParallelResult& result, std::string* out) {
  *out += "makespan " + FormatHexDouble(result.elapsed_time) + " issued " +
          std::to_string(result.accesses_issued) + " wasted " +
          std::to_string(result.wasted_accesses) + "\n";
}

// The budgets, sized from an unbudgeted run: half its cost as a cap,
// half its `clock` (the Eq. 1 clock, or the parallel makespan) as a
// deadline, and half its accesses on predicate 0 as that predicate's
// quota; plus a cap of 2 that bars one of the first few accesses (for
// the parallel executor, in the middle of its first epoch).
std::vector<std::pair<std::string, QueryBudget>> StopBudgets(
    const SourceSet& unbudgeted, double clock) {
  QueryBudget cost;
  cost.max_cost = unbudgeted.accrued_cost() / 2.0;
  QueryBudget early;
  early.max_cost = 2.0;
  QueryBudget deadline;
  deadline.deadline = clock / 2.0;
  QueryBudget quota;
  const AccessStats& stats = unbudgeted.stats();
  quota.predicate_quota = {
      std::max<size_t>(1, (stats.sorted_count[0] + stats.random_count[0]) / 2),
      0, 0};
  return {{"cost", cost},
          {"deadline", deadline},
          {"quota", quota},
          {"early", early}};
}

// Runs one algorithm on `sources`: the parallel executor answers into
// the ParallelResult, every other algorithm into the TopKResult.
using StopRun =
    std::function<Status(SourceSet*, TopKResult*, ParallelResult*)>;

void AppendStops(const Dataset& data, const CostModel& cost,
                 const ScoringFunction& scoring, size_t k, bool exact_scores,
                 const std::string& label, bool parallel, const StopRun& run,
                 std::string* out) {
  const auto fresh = [&](SourceSet* sources) {
    sources->EnableTrace();
    // Latency above the unit cost lets the makespan run ahead of the
    // Eq. 1 clock, so the parallel deadline can trip on either.
    if (parallel) sources->set_latency_jitter(3.0, /*seed=*/17);
  };
  SourceSet unbudgeted(&data, cost);
  fresh(&unbudgeted);
  TopKResult result;
  ParallelResult presult;
  const Status full = run(&unbudgeted, &result, &presult);
  if (!full.ok()) {
    AppendStop(label + " unbudgeted", full, unbudgeted, result, out);
    return;
  }
  const double clock =
      parallel ? presult.elapsed_time : unbudgeted.elapsed_time();
  for (const auto& [name, budget] : StopBudgets(unbudgeted, clock)) {
    SourceSet sources(&data, cost);
    fresh(&sources);
    EXPECT_TRUE(sources.set_budget(budget).ok());
    const Status status = run(&sources, &result, &presult);
    const TopKResult& answer = parallel ? presult.topk : result;
    const std::string case_label = label + " " + name + " " + budget.ToString();
    AppendStop(case_label, status, sources, answer, out);
    if (parallel) AppendParallel(presult, out);
    if (status.ok()) {
      EXPECT_EQ(CheckAnswer(data, scoring, k, answer, exact_scores), "")
          << case_label;
    }
  }
}

// One in flight: the window's sequential path. Two: the makespan runs
// ahead of the Eq. 1 clock. Eight with speculation: several issues per
// epoch, so a budget can bar one mid-epoch.
Status RunParallel(SourceSet* sources, const ScoringFunction& scoring,
                   size_t k, size_t concurrency, ParallelResult* out) {
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = k;
  options.concurrency = concurrency;
  options.max_speculation = concurrency / 4;
  return RunParallelNC(sources, scoring, &policy, options, out);
}

std::string StopsMatrix() {
  const Dataset data = StopsCorpus();
  const CostModel cost({1.0, 2.0, 1.0}, {3.0, 1.0, 2.0});
  const AverageFunction avg(3);
  const MinFunction fmin(3);
  const std::vector<const ScoringFunction*> functions = {&avg, &fmin};
  const auto cell_of = [&](const ScoringFunction* scoring, size_t k) {
    return std::string("F=") + (scoring == &avg ? "avg" : "min") +
           " k=" + std::to_string(k);
  };
  std::string out;
  for (const ScoringFunction* scoring : functions) {
    for (const size_t k : {size_t{1}, size_t{10}}) {
      const std::string cell = cell_of(scoring, k);
      for (const AlgorithmInfo& info : AllBaselines()) {
        EXPECT_TRUE(info.applicable(cost)) << info.name;
        AppendStops(data, cost, *scoring, k, info.exact_scores,
                    cell + " " + info.name, /*parallel=*/false,
                    [&](SourceSet* s, TopKResult* r, ParallelResult*) {
                      return info.run(s, *scoring, k, r);
                    },
                    &out);
      }
      AppendStops(data, cost, *scoring, k, /*exact_scores=*/true,
                  cell + " NC", /*parallel=*/false,
                  [&](SourceSet* s, TopKResult* r, ParallelResult*) {
                    SRGPolicy policy(SRGConfig::Default(3));
                    EngineOptions options;
                    options.k = k;
                    NCEngine engine(s, scoring, &policy, options);
                    return engine.Run(r);
                  },
                  &out);
      for (const size_t concurrency : {size_t{1}, size_t{2}, size_t{8}}) {
        AppendStops(data, cost, *scoring, k, /*exact_scores=*/true,
                    cell + " parallel c=" + std::to_string(concurrency),
                    /*parallel=*/true,
                    [&](SourceSet* s, TopKResult*, ParallelResult* r) {
                      return RunParallel(s, *scoring, k, concurrency, r);
                    },
                    &out);
      }
    }
  }
  // The unbudgeted runs: the parallel executor at all three widths,
  // under the jitter its budgets are sized with, and Framework TG drawing
  // every access at random from its legal pool.
  for (const ScoringFunction* scoring : functions) {
    for (const size_t k : {size_t{1}, size_t{10}}) {
      const std::string cell = cell_of(scoring, k);
      for (const size_t concurrency : {size_t{1}, size_t{2}, size_t{8}}) {
        SourceSet sources(&data, cost);
        sources.EnableTrace();
        sources.set_latency_jitter(3.0, /*seed=*/17);
        ParallelResult result;
        const Status status =
            RunParallel(&sources, *scoring, k, concurrency, &result);
        const std::string label = cell + " parallel c=" +
                                  std::to_string(concurrency) + " unbudgeted";
        AppendStop(label, status, sources, result.topk, &out);
        AppendParallel(result, &out);
        EXPECT_TRUE(status.ok()) << label << ": " << status;
        EXPECT_EQ(CheckAnswer(data, *scoring, k, result.topk), "") << label;
      }
      SourceSet sources(&data, cost);
      sources.EnableTrace();
      TGRandomPolicy policy(/*seed=*/17);
      TGOptions options;
      options.k = k;
      TopKResult result;
      TGReport report;
      const Status status =
          RunTG(&sources, *scoring, &policy, options, &result, &report);
      const std::string label = cell + " TG random unbudgeted";
      AppendStop(label, status, sources, result, &out);
      out += "width " + FormatHexDouble(report.mean_choice_width) + "\n";
      EXPECT_TRUE(status.ok()) << label << ": " << status;
      EXPECT_EQ(CheckAnswer(data, *scoring, k, result), "") << label;
    }
  }
  return out;
}

// Compares `actual` with the committed golden file at `path`; on a
// mismatch writes it to `actual_name` in the working directory.
void ExpectGolden(const std::string& actual, const char* path,
                  const char* actual_name) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream golden;
  if (in.is_open()) golden << in.rdbuf();
  if (golden.str() != actual) {
    std::ofstream(actual_name, std::ios::binary) << actual;
  }
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
  EXPECT_TRUE(golden.str() == actual)
      << "golden bytes moved; the replay was written to " << actual_name;
}

TEST(GoldenTraceTest, MatrixReplaysByteIdentically) {
  ExpectGolden(ReplayMatrix(), kGoldenPath, "golden_access_sequences.actual");
}

TEST(GoldenTraceTest, StopsReplayByteIdentically) {
  ExpectGolden(StopsMatrix(), kStopsPath, "golden_stops.actual");
}

}  // namespace
}  // namespace nc
