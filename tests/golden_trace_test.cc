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

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "access/fault.h"
#include "access/source.h"
#include "access/trace_format.h"
#include "baselines/mpro.h"
#include "baselines/upper.h"
#include "common/numeric.h"
#include "core/engine.h"
#include "core/planner.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

constexpr char kGoldenPath[] = NC_TESTDATA_DIR "/golden_access_sequences.txt";

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

TEST(GoldenTraceTest, MatrixReplaysByteIdentically) {
  const std::string actual = ReplayMatrix();
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << kGoldenPath;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() != actual) {
    std::ofstream("golden_access_sequences.actual", std::ios::binary)
        << actual;
  }
  EXPECT_TRUE(golden.str() == actual)
      << "golden access sequences moved; the replay was written to "
         "golden_access_sequences.actual";
}

}  // namespace
}  // namespace nc
