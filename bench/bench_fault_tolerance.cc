// Robustness: what failures, budgets, and crash recovery cost. Sweeps the
// per-attempt transient failure rate and reports how retries inflate
// access cost and simulated elapsed time while the answer stays exact;
// kills a source mid-run at increasing depths and reports how much of the
// answer survives; sweeps cost caps and reports the budget overshoot
// (never more than one access) and the certified epsilon of the anytime
// answer; and checkpoints mid-run at increasing depths, reporting
// snapshot size and the resume overhead (zero re-issued accesses, zero
// double-charged cost). Every printed cell is deterministic.

#include <cmath>
#include <cstdio>

#include "access/budget.h"
#include "access/fault.h"
#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/parallel_executor.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"

int main() {
  using namespace nc;
  using namespace nc::bench;

  constexpr size_t kObjects = 5000;
  constexpr size_t kPredicates = 3;
  constexpr size_t kK = 10;

  GeneratorOptions g;
  g.num_objects = kObjects;
  g.num_predicates = kPredicates;
  g.seed = 4242;
  const Dataset data = GenerateDataset(g);
  const CostModel cost = CostModel::Uniform(kPredicates, 1.0, 1.0);
  AverageFunction scoring(kPredicates);
  const TopKResult oracle = BruteForceTopK(data, scoring, kK);

  PrintHeader("Retry overhead vs transient failure rate, F=avg, n=5000, "
              "k=10, max_attempts=8");
  std::printf("%8s %12s %10s %12s %10s %8s %8s\n", "rate", "cost",
              "overhead", "elapsed", "stretch", "retries", "exact");
  PrintRule(74);

  double clean_cost = 0.0;
  double clean_elapsed = 0.0;
  for (const double rate : {0.0, 0.02, 0.05, 0.1, 0.2, 0.3}) {
    FaultProfile profile;
    profile.transient_rate = rate * 0.8;
    profile.timeout_rate = rate * 0.2;
    FaultInjector injector(/*seed=*/7);
    injector.set_default_profile(profile);
    RetryPolicy retry;
    retry.max_attempts = 8;

    SourceSet sources(&data, cost);
    sources.set_fault_injector(&injector);
    sources.set_retry_policy(retry, /*jitter_seed=*/11);
    SRGPolicy policy(SRGConfig::Default(kPredicates));
    EngineOptions options;
    options.k = kK;
    options.concurrency = 4;
    ParallelResult result;
    NC_CHECK(RunParallelNC(&sources, scoring, &policy, options, &result)
                 .ok());
    if (rate == 0.0) {
      clean_cost = result.total_cost;
      clean_elapsed = result.elapsed_time;
    }
    bool matches_oracle = result.exact &&
                          result.topk.entries.size() == oracle.entries.size();
    if (matches_oracle) {
      for (size_t r = 0; r < oracle.entries.size(); ++r) {
        if (result.topk.entries[r].score != oracle.entries[r].score) {
          matches_oracle = false;
          break;
        }
      }
    }
    std::printf("%8.2f %12.1f %9.1f%% %12.1f %9.2fx %8zu %8s\n", rate,
                result.total_cost,
                100.0 * (result.total_cost - clean_cost) / clean_cost,
                result.elapsed_time, result.elapsed_time / clean_elapsed,
                sources.stats().TotalRetried(),
                matches_oracle ? "yes" : "NO");
    RunStats row;
    row.cost = result.total_cost;
    row.sorted = sources.stats().TotalSorted();
    row.random = sources.stats().TotalRandom();
    row.correct = matches_oracle;
    row.report = obs::BuildRunReport(sources, nullptr, "NC-parallel", kK);
    AddJsonRow("NC-parallel rate=" + std::to_string(rate), row);
  }

  PrintHeader("Graceful degradation: p2 dies after N accesses "
              "(sequential engine, same workload)");
  std::printf("%10s %10s %10s %12s %10s\n", "die-after", "answered",
              "exact", "cost", "accesses");
  PrintRule(58);
  for (const size_t die_after : {5ul, 20ul, 80ul, 320ul, 1280ul}) {
    FaultProfile deadly;
    deadly.die_after_attempts = die_after;
    FaultInjector injector(/*seed=*/13);
    injector.set_profile(kPredicates - 1, deadly);

    SourceSet sources(&data, cost);
    sources.set_fault_injector(&injector);
    SRGPolicy policy(SRGConfig::Default(kPredicates));
    EngineOptions options;
    options.k = kK;
    NCEngine engine(&sources, &scoring, &policy, options);
    TopKResult result;
    NC_CHECK(engine.Run(&result).ok());
    std::printf("%10zu %7zu/%zu %10s %12.1f %10zu\n", die_after,
                result.entries.size(), kK,
                engine.last_run_exact() ? "yes" : "no",
                sources.accrued_cost(), engine.accesses_performed());
    RunStats row;
    row.cost = sources.accrued_cost();
    row.sorted = sources.stats().TotalSorted();
    row.random = sources.stats().TotalRandom();
    row.correct = engine.last_run_exact();
    row.report = obs::BuildRunReport(sources, nullptr, "NC", kK);
    AddJsonRow("NC die-after=" + std::to_string(die_after), row);
  }
  // --- Budget overshoot --------------------------------------------------
  // The tightness contract priced: how far past the cap a run lands (at
  // most one access's cost) and how good the certified anytime answer is.
  PrintHeader("Budget overshoot: accrued cost vs cost cap (sequential "
              "engine, unit costs)");
  std::printf("%10s %12s %10s %10s %12s %10s\n", "cap", "accrued",
              "overshoot", "refusals", "certified", "epsilon");
  PrintRule(70);
  const double uncapped_cost = [&] {
    SourceSet sources(&data, cost);
    SRGPolicy policy(SRGConfig::Default(kPredicates));
    EngineOptions options;
    options.k = kK;
    TopKResult result;
    NC_CHECK(RunNC(&sources, &scoring, &policy, options, &result).ok());
    return sources.accrued_cost();
  }();
  for (const double fraction : {0.05, 0.25, 0.5, 0.75, 1.5}) {
    const double cap = std::max(1.0, fraction * uncapped_cost);
    SourceSet sources(&data, cost);
    QueryBudget budget;
    budget.max_cost = cap;
    NC_CHECK(sources.set_budget(budget).ok());
    SRGPolicy policy(SRGConfig::Default(kPredicates));
    EngineOptions options;
    options.k = kK;
    NCEngine engine(&sources, &scoring, &policy, options);
    TopKResult result;
    NC_CHECK(engine.Run(&result).ok());
    const double overshoot = std::max(0.0, sources.accrued_cost() - cap);
    NC_CHECK(overshoot <= 1.0 + 1e-9);  // One unit access, by contract.
    const bool certified = result.certificate.has_value();
    const double epsilon = certified ? result.certificate->epsilon
                                     : 0.0;
    std::printf("%10.1f %12.1f %10.2f %10zu %12s %10.3f\n", cap,
                sources.accrued_cost(), overshoot,
                sources.stats().budget_refusals,
                certified ? "yes" : "no (done)", epsilon);
    RunStats row;
    row.cost = sources.accrued_cost();
    row.sorted = sources.stats().TotalSorted();
    row.random = sources.stats().TotalRandom();
    row.correct = !certified && engine.last_run_exact();
    row.report = obs::BuildRunReport(sources, nullptr, "NC", kK);
    AddJsonRow("NC cap=" + std::to_string(cap), row);
  }

  // --- Resume overhead ---------------------------------------------------
  // Crash recovery priced: checkpoint at increasing depths, resume on
  // fresh state, and report snapshot size and what the recovery re-spent
  // (nothing: zero re-issued accesses, zero cost).
  PrintHeader("Checkpoint/resume overhead: kill at a fraction of the "
              "uninterrupted run's accesses");
  std::printf("%8s %8s %10s %12s %10s %12s\n", "kill%", "kill", "bytes",
              "resume cost", "reissued", "cost delta");
  PrintRule(65);
  const size_t total_accesses = [&] {
    SourceSet sources(&data, cost);
    SRGPolicy policy(SRGConfig::Default(kPredicates));
    EngineOptions options;
    options.k = kK;
    NCEngine engine(&sources, &scoring, &policy, options);
    TopKResult result;
    NC_CHECK(engine.Run(&result).ok());
    return engine.accesses_performed();
  }();
  for (const double fraction : {0.1, 0.25, 0.5, 0.75, 0.95}) {
    const size_t kill = std::max<size_t>(
        1, static_cast<size_t>(fraction * static_cast<double>(
                                              total_accesses)));
    // The interrupted run, checkpointed right after access `kill`.
    std::optional<EngineCheckpoint> checkpoint;
    NCEngine* engine_ptr = nullptr;
    SourceSet sources(&data, cost);
    SRGPolicy policy(SRGConfig::Default(kPredicates));
    EngineOptions options;
    options.k = kK;
    options.access_callback = [&checkpoint, &engine_ptr,
                               kill](size_t count) {
      if (count == kill) checkpoint = engine_ptr->Checkpoint();
    };
    NCEngine engine(&sources, &scoring, &policy, options);
    engine_ptr = &engine;
    TopKResult full_result;
    NC_CHECK(engine.Run(&full_result).ok());
    NC_CHECK(checkpoint.has_value());

    const std::string text = SerializeCheckpoint(*checkpoint);
    EngineCheckpoint parsed;
    NC_CHECK(ParseCheckpoint(text, &parsed).ok());

    SourceSet resume_sources(&data, cost);
    SRGPolicy resume_policy(SRGConfig::Default(kPredicates));
    EngineOptions resume_options;
    resume_options.k = kK;
    NCEngine resume_engine(&resume_sources, &scoring, &resume_policy,
                           resume_options);
    TopKResult resumed;
    NC_CHECK(resume_engine.Resume(parsed, &resumed).ok());
    const size_t reissued =
        resume_engine.accesses_performed() - (total_accesses - kill) - kill;
    const double cost_delta =
        std::abs(resume_sources.accrued_cost() - sources.accrued_cost());
    NC_CHECK(reissued == 0);
    NC_CHECK(cost_delta == 0.0);
    std::printf("%7.0f%% %8zu %10zu %12.1f %10zu %12.2f\n",
                100.0 * fraction, kill, text.size(),
                resume_sources.accrued_cost(), reissued, cost_delta);
    RunStats row;
    row.cost = resume_sources.accrued_cost();
    row.sorted = resume_sources.stats().TotalSorted();
    row.random = resume_sources.stats().TotalRandom();
    row.correct = resumed == full_result;
    row.report = obs::BuildRunReport(resume_sources, nullptr, "NC-resume",
                                     kK);
    AddJsonRow("NC-resume kill=" + std::to_string(kill), row);
  }

  nc::bench::WriteBenchJson("robustness");
  return 0;
}
