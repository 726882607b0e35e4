// Differential test of RankedPool's grouped ranking under F = min.
//
// MinFunction declares IsMin(), so RankedPool ranks its candidates in
// groups keyed by known predicates (core/bound_heap.h). LazyMin below
// forwards to MinFunction without declaring it, so the same pool ranks
// the same inputs through LazyBoundHeap - the oracle. Nothing in src/
// chooses between the two paths except the trait.
//
// Two layers:
//   - RankedPool itself: random Discover / Probe / TopK sequences over
//     scores on a 1/16 grid (keys tie with ceilings and with each other),
//     with the certificate's k + 1 after k, Extend's growing k, ceilings
//     that fall in sorted order or over the parallel executor's
//     contiguous prefix of out-of-order reads, a seeded universe, and
//     restores mid-sequence. Every TopK entry (object and bit-exact
//     bound) and size() must agree.
//   - Every RankedPool user - NCEngine (theta 1 and 1.2, a budget, and a
//     Resume from a mid-run checkpoint), RunParallelNC, RunTG, RunUpper,
//     RunMPro and exact NRA - on the two cost regimes where min storms:
//     attempt traces, answers, certificates and tracer lines must agree.
//
// NC_CHAOS_ITERS scales the rounds and NC_CHAOS_SEED shifts the seeds
// (the scheduled sanitizer soak sets both).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "access/source.h"
#include "access/trace_format.h"
#include "baselines/mpro.h"
#include "baselines/nra.h"
#include "baselines/upper.h"
#include "common/numeric.h"
#include "common/rng.h"
#include "core/bound_heap.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/parallel_executor.h"
#include "core/srg_policy.h"
#include "core/tg.h"
#include "data/dataset.h"
#include "obs/tracer.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

// F = min without the IsMin() trait: RankedPool ranks it lazily.
class LazyMin final : public ScoringFunction {
 public:
  explicit LazyMin(size_t arity) : min_(arity) {}
  Score Evaluate(std::span<const Score> x) const override {
    return min_.Evaluate(x);
  }
  size_t arity() const override { return min_.arity(); }
  std::string name() const override { return min_.name(); }

 private:
  MinFunction min_;
};

size_t ChaosIters() {
  if (const char* env = std::getenv("NC_CHAOS_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 3;
}

uint64_t ChaosSeed() {
  if (const char* env = std::getenv("NC_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0;
}

// A score on the 1/16 grid, 0 and 1 included.
Score GridScore(Rng& rng) {
  return static_cast<Score>(rng.UniformInt(17)) / 16.0;
}

CandidatePool Clone(const CandidatePool& from) {
  CandidatePool to(from.num_predicates());
  for (const Candidate& c : from) {
    Candidate& copy = to.GetOrCreate(c.id);
    for (PredicateId i = 0; i < from.num_predicates(); ++i) {
      if (c.IsEvaluated(i)) copy.SetScore(i, c.scores[i]);
    }
  }
  return to;
}

// --- Layer 1: RankedPool ---------------------------------------------------

struct PoolConfig {
  size_t m = 2;
  bool seed_universe = false;
  // Sorted reads land out of order and the ceilings follow the
  // contiguous prefix of landed positions, as in the parallel executor.
  bool out_of_order = false;
};

// Feeds one random sequence to a grouped and a lazy pool; adds the
// number of TopK calls compared to *compared.
void PoolRound(const PoolConfig& config, uint64_t seed, size_t* compared) {
  Rng rng(seed);
  const size_t m = config.m;
  const size_t n = 1 + rng.UniformInt(48);
  std::vector<std::vector<Score>> p(n, std::vector<Score>(m));
  for (auto& row : p) {
    for (Score& s : row) s = GridScore(rng);
  }
  // Each predicate's sorted list: descending score, ties by ascending id.
  std::vector<std::vector<ObjectId>> lists(m);
  for (PredicateId i = 0; i < m; ++i) {
    for (ObjectId u = 0; u < n; ++u) lists[i].push_back(u);
    std::stable_sort(lists[i].begin(), lists[i].end(),
                     [&](ObjectId a, ObjectId b) { return p[a][i] > p[b][i]; });
  }

  const MinFunction grouped_min(m);
  const LazyMin lazy_min(m);
  std::optional<RankedPool> grouped;
  std::optional<RankedPool> lazy;
  grouped.emplace(&grouped_min, n, config.seed_universe);
  lazy.emplace(&lazy_min, n, config.seed_universe);

  std::vector<Score> ceilings(m, kMaxScore);
  // Per predicate: positions read so far, the contiguous prefix applied,
  // and (out of order) the positions read but not yet applied.
  std::vector<size_t> read(m, 0);
  std::vector<size_t> frontier(m, 0);
  std::vector<std::set<size_t>> pending(m);
  std::vector<std::set<size_t>> landed(m);

  const std::string where = "seed " + std::to_string(seed) + " m " +
                            std::to_string(m) + " n " + std::to_string(n);
  const auto compare = [&](size_t k) {
    const std::span<const RankedPool::Entry> want = lazy->TopK(k, ceilings);
    const std::span<const RankedPool::Entry> got = grouped->TopK(k, ceilings);
    ASSERT_EQ(got.size(), want.size()) << where << " call " << *compared;
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got[r].object, want[r].object)
          << where << " call " << *compared << " rank " << r;
      ASSERT_EQ(std::bit_cast<uint64_t>(got[r].bound),
                std::bit_cast<uint64_t>(want[r].bound))
          << where << " call " << *compared << " rank " << r;
    }
    ASSERT_EQ(grouped->size(), lazy->size()) << where << " call " << *compared;
    ++*compared;
  };
  const auto discover = [&](PredicateId i, size_t position) {
    const ObjectId u = lists[i][position];
    std::vector<std::pair<PredicateId, Score>> bundled;
    if (rng.UniformInt(4) == 0) {  // A multi-attribute source's row.
      for (PredicateId j = 0; j < m; ++j) {
        if (j != i) bundled.emplace_back(j, p[u][j]);
      }
    }
    const Candidate& a = grouped->Discover(i, u, p[u][i], bundled, ceilings);
    const Candidate& b = lazy->Discover(i, u, p[u][i], bundled, ceilings);
    ASSERT_EQ(a.evaluated_mask, b.evaluated_mask) << where;
  };

  size_t k = 1 + rng.UniformInt(6);
  for (int step = 0; step < 160; ++step) {
    switch (rng.UniformInt(10)) {
      case 0:
      case 1:
      case 2: {  // A sorted read.
        const PredicateId i = static_cast<PredicateId>(rng.UniformInt(m));
        if (!config.out_of_order) {
          if (read[i] == n) break;
          const size_t position = read[i]++;
          ceilings[i] =
              read[i] == n ? kMinScore : p[lists[i][position]][i];
          discover(i, position);
          break;
        }
        // Out of order: issue a read, or land a random one in flight.
        if (read[i] < n && (pending[i].empty() || rng.UniformInt(2) == 0)) {
          pending[i].insert(read[i]++);
          break;
        }
        if (pending[i].empty()) break;
        auto it = pending[i].begin();
        std::advance(it, rng.UniformInt(pending[i].size()));
        const size_t position = *it;
        pending[i].erase(it);
        discover(i, position);
        landed[i].insert(position);
        bool advanced = false;
        while (landed[i].count(frontier[i]) != 0) {
          landed[i].erase(frontier[i]);
          ++frontier[i];
          advanced = true;
        }
        if (advanced) {
          ceilings[i] = frontier[i] == n
                            ? kMinScore
                            : p[lists[i][frontier[i] - 1]][i];
        }
        break;
      }
      case 3:
      case 4: {  // A random probe of a candidate's missing predicate.
        const ObjectId u = static_cast<ObjectId>(rng.UniformInt(n));
        const Candidate* c = lazy->candidates().Find(u);
        if (c == nullptr) break;
        const PredicateId i = static_cast<PredicateId>(rng.UniformInt(m));
        // A probe that lands after the sorted hit changes nothing.
        if (c->IsEvaluated(i) && rng.UniformInt(4) != 0) break;
        const Candidate& a = grouped->Probe(u, i, p[u][i]);
        const Candidate& b = lazy->Probe(u, i, p[u][i]);
        ASSERT_EQ(a.evaluated_mask, b.evaluated_mask) << where;
        break;
      }
      case 5:  // The certificate ranks k + 1, then the loop goes on at k.
        compare(k + 1);
        compare(k);
        break;
      case 6:
        if (rng.UniformInt(8) == 0) {  // Extend.
          k += 1 + rng.UniformInt(3);
        } else if (rng.UniformInt(4) == 0) {  // Restore mid-run.
          CandidatePool for_grouped = Clone(lazy->candidates());
          CandidatePool for_lazy = Clone(lazy->candidates());
          grouped.emplace(&grouped_min, n, std::move(for_grouped), ceilings);
          lazy.emplace(&lazy_min, n, std::move(for_lazy), ceilings);
        }
        compare(k);
        break;
      default:
        compare(k);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class PoolDifferential : public ::testing::TestWithParam<PoolConfig> {};

TEST_P(PoolDifferential, GroupedTopKMatchesLazyHeap) {
  const PoolConfig& config = GetParam();
  const size_t rounds = 100 * ChaosIters();
  const uint64_t base = ChaosSeed() * 1000003 + config.m * 7919 +
                        (config.seed_universe ? 31 : 0) +
                        (config.out_of_order ? 17 : 0);
  size_t compared = 0;
  for (size_t round = 0; round < rounds; ++round) {
    PoolRound(config, base + round * 104729, &compared);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(compared, rounds);
}

std::vector<PoolConfig> PoolConfigs() {
  std::vector<PoolConfig> configs;
  for (const size_t m : {size_t{2}, size_t{3}, size_t{4}}) {
    for (const bool seeded : {false, true}) {
      for (const bool out_of_order : {false, true}) {
        configs.push_back(PoolConfig{m, seeded, out_of_order});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PoolDifferential, ::testing::ValuesIn(PoolConfigs()),
    [](const ::testing::TestParamInfo<PoolConfig>& info) {
      std::string name = "m";
      name += std::to_string(info.param.m);
      name += info.param.seed_universe ? "_seeded" : "_discovered";
      name += info.param.out_of_order ? "_out_of_order" : "_sorted";
      return name;
    });

// --- Layer 2: every RankedPool user ----------------------------------------

// The two regimes where min storms: dear random access, and predicate 1
// without random access.
std::vector<std::pair<std::string, CostModel>> StormRegimes() {
  return {{"cs=1 cr=10", CostModel::Uniform(2, 1.0, 10.0)},
          {"cs=1 cr=(2,inf)", CostModel({1.0, 1.0}, {2.0, kImpossibleCost})}};
}

Dataset GridData(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Dataset data(n, m);
  for (ObjectId u = 0; u < n; ++u) {
    for (PredicateId i = 0; i < m; ++i) data.SetScore(u, i, GridScore(rng));
  }
  return data;
}

// Sources with an attempt trace and a tracer on a zero clock.
struct Traced {
  Traced(const Dataset& data, const CostModel& cost) : sources(&data, cost) {
    sources.EnableTrace();
    tracer.set_clock_for_testing([] { return uint64_t{0}; });
    sources.set_tracer(&tracer);
  }
  SourceSet sources;
  obs::QueryTracer tracer;
};

std::string Describe(const Status& status, const Traced& run,
                     const TopKResult& result) {
  std::ostringstream s;
  s << "status " << status.ToString() << "\n";
  s << "cost " << FormatHexDouble(run.sources.accrued_cost()) << "\n";
  s << "trace " << SerializeAttemptTrace(run.sources.attempt_trace()) << "\n";
  s << "answer";
  for (const TopKEntry& e : result.entries) {
    s << " u" << e.object << ":" << FormatHexDouble(e.score);
  }
  s << "\n";
  if (result.certificate.has_value()) {
    const AnytimeCertificate& cert = *result.certificate;
    s << "certificate " << TerminationReasonName(cert.reason) << " "
      << FormatHexDouble(cert.epsilon) << " "
      << FormatHexDouble(cert.excluded_ceiling);
    for (const ScoreInterval& in : cert.intervals) {
      s << " [" << FormatHexDouble(in.lower) << ","
        << FormatHexDouble(in.upper) << "]";
    }
    s << "\n";
  }
  run.tracer.ExportJsonl(&s);
  return s.str();
}

// `spent`, when given, receives the run's Eq. 1 cost.
std::string RunEngine(const Dataset& data, const CostModel& cost,
                      const ScoringFunction& f, size_t k, double theta,
                      double max_cost, double* spent = nullptr) {
  Traced run(data, cost);
  if (max_cost > 0.0) {
    QueryBudget budget;
    budget.max_cost = max_cost;
    EXPECT_TRUE(run.sources.set_budget(budget).ok());
  }
  SRGPolicy policy(SRGConfig::Default(data.num_predicates()));
  EngineOptions options;
  options.k = k;
  options.approximation_theta = theta;
  NCEngine engine(&run.sources, &f, &policy, options);
  TopKResult result;
  const Status status = engine.Run(&result);
  if (spent != nullptr) *spent = run.sources.accrued_cost();
  return Describe(status, run, result);
}

// The checkpoint taken after `kill` accesses, and the resumed run.
std::string RunResume(const Dataset& data, const CostModel& cost,
                      const ScoringFunction& f, size_t k, size_t kill) {
  std::string text;
  {
    SourceSet sources(&data, cost);
    SRGPolicy policy(SRGConfig::Default(data.num_predicates()));
    EngineOptions options;
    options.k = k;
    NCEngine* engine_ptr = nullptr;
    options.access_callback = [&](size_t count) {
      if (count == kill) text = SerializeCheckpoint(engine_ptr->Checkpoint());
    };
    NCEngine engine(&sources, &f, &policy, options);
    engine_ptr = &engine;
    TopKResult result;
    EXPECT_TRUE(engine.Run(&result).ok());
  }
  if (text.empty()) return "finished before access " + std::to_string(kill);
  EngineCheckpoint checkpoint;
  EXPECT_TRUE(ParseCheckpoint(text, &checkpoint).ok());
  Traced run(data, cost);
  SRGPolicy policy(SRGConfig::Default(data.num_predicates()));
  EngineOptions options;
  options.k = k;
  NCEngine engine(&run.sources, &f, &policy, options);
  TopKResult result;
  const Status status = engine.Resume(checkpoint, &result);
  return text + Describe(status, run, result);
}

std::string RunParallel(const Dataset& data, const CostModel& cost,
                        const ScoringFunction& f, size_t k,
                        size_t concurrency, size_t speculation) {
  Traced run(data, cost);
  run.sources.set_latency_jitter(3.0, /*seed=*/17);
  SRGPolicy policy(SRGConfig::Default(data.num_predicates()));
  EngineOptions options;
  options.k = k;
  options.concurrency = concurrency;
  options.max_speculation = speculation;
  ParallelResult result;
  const Status status = RunParallelNC(&run.sources, f, &policy, options,
                                      &result);
  return Describe(status, run, result.topk) + "makespan " +
         FormatHexDouble(result.elapsed_time) + " issued " +
         std::to_string(result.accesses_issued) + " wasted " +
         std::to_string(result.wasted_accesses) + "\n";
}

std::string RunFrameworkTG(const Dataset& data, const CostModel& cost,
                           const ScoringFunction& f, size_t k) {
  Traced run(data, cost);
  TGRandomPolicy policy(/*seed=*/17);
  TGOptions options;
  options.k = k;
  TopKResult result;
  TGReport report;
  const Status status =
      RunTG(&run.sources, f, &policy, options, &result, &report);
  return Describe(status, run, result) + "width " +
         FormatHexDouble(report.mean_choice_width) + "\n";
}

// Every RankedPool user under F, one labeled block each.
std::vector<std::pair<std::string, std::string>> AllUsers(
    const Dataset& data, const CostModel& cost, const ScoringFunction& f,
    size_t k) {
  std::vector<std::pair<std::string, std::string>> runs;
  double spent = 0.0;
  runs.emplace_back("NC", RunEngine(data, cost, f, k, 1.0, 0.0, &spent));
  runs.emplace_back("NC theta=1.2", RunEngine(data, cost, f, k, 1.2, 0.0));
  // Half the unbudgeted cost: the certificate ranks k + 1.
  runs.emplace_back("NC budget",
                    RunEngine(data, cost, f, k, 1.0, spent / 2.0));
  runs.emplace_back("NC resume", RunResume(data, cost, f, k, 12));
  runs.emplace_back("parallel c=2", RunParallel(data, cost, f, k, 2, 0));
  runs.emplace_back("parallel c=8 spec=2",
                    RunParallel(data, cost, f, k, 8, 2));
  runs.emplace_back("TG random", RunFrameworkTG(data, cost, f, k));
  const auto baseline = [&](const char* name, auto&& algorithm) {
    Traced run(data, cost);
    TopKResult result;
    const Status status = algorithm(&run.sources, &result);
    runs.emplace_back(name, Describe(status, run, result));
  };
  baseline("Upper", [&](SourceSet* s, TopKResult* r) {
    return RunUpper(s, f, k, {}, r);
  });
  baseline("MPro", [&](SourceSet* s, TopKResult* r) {
    return RunMPro(s, f, k, {}, r);
  });
  baseline("NRA exact", [&](SourceSet* s, TopKResult* r) {
    return RunNRA(s, f, k, NRAMode::kExactScores, r);
  });
  return runs;
}

TEST(EngineDifferential, EveryPoolUserRunsTheSameUnderGroupedMin) {
  const MinFunction grouped_min(2);
  const LazyMin lazy_min(2);
  const size_t data_seeds = ChaosIters();
  for (size_t d = 0; d < data_seeds; ++d) {
    const uint64_t seed = ChaosSeed() * 1000003 + 20050405 + d;
    const Dataset data = GridData(200, 2, seed);
    for (const auto& [regime, cost] : StormRegimes()) {
      for (const size_t k : {size_t{1}, size_t{5}, size_t{10}}) {
        const auto grouped = AllUsers(data, cost, grouped_min, k);
        const auto lazy = AllUsers(data, cost, lazy_min, k);
        ASSERT_EQ(grouped.size(), lazy.size());
        for (size_t r = 0; r < grouped.size(); ++r) {
          EXPECT_EQ(grouped[r].second, lazy[r].second)
              << "data seed " << seed << " " << regime << " k=" << k << " "
              << grouped[r].first;
          // At k = 10 every run outlasts the kill point, so Resume runs.
          if (k == 10 && grouped[r].first == "NC resume") {
            EXPECT_EQ(grouped[r].second.rfind("finished before", 0),
                      std::string::npos)
                << "data seed " << seed << " " << regime;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nc
