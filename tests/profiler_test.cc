// The hot-path profiler (obs/profiler.h): scope nesting into a cost-
// center tree, self-vs-total attribution, external samples, allocation
// accounting, the report renderings, the metrics/hub/tracer bridges -
// and THE differential guarantee the header promises: answers are
// bit-identical with the profiler on, off, or absent.
//
// Run under the tsan preset, the concurrency test is the data-race
// proof for per-worker profilers feeding the shared hub and registry.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "access/budget.h"
#include "access/source.h"
#include "core/engine.h"
#include "core/planner.h"
#include "core/result.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

using obs::CostCenter;
using obs::CostCenterName;
using obs::ProfileReport;
using obs::Profiler;

// A hand-cranked nanosecond clock: tests advance it between Begin/End
// calls, so every duration below is exact, not approximate.
class FakeClock {
 public:
  explicit FakeClock(Profiler* profiler) {
    profiler->set_clock_for_testing([this] { return now_ns_; });
  }
  void Advance(uint64_t ns) { now_ns_ += ns; }

 private:
  uint64_t now_ns_ = 0;
};

TEST(ProfilerTest, NullAndDisabledProfilersRecordNothing) {
  EXPECT_FALSE(obs::ShouldProfile(nullptr));

  // The macro with a null profiler is legal and does nothing.
  {
    Profiler* none = nullptr;
    NC_PROFILE_SCOPE(none, kSortedAccess);
  }

  Profiler profiler;
  EXPECT_TRUE(obs::ShouldProfile(&profiler));
  profiler.Disable();
  EXPECT_FALSE(obs::ShouldProfile(&profiler));
  {
    NC_PROFILE_SCOPE(&profiler, kSortedAccess);
    NC_PROFILE_SCOPE(&profiler, kCacheProbe);
  }
  profiler.AddExternal(CostCenter::kServerQueue, 500);
  EXPECT_TRUE(profiler.empty());
  EXPECT_TRUE(profiler.Report().empty());
  EXPECT_EQ(profiler.Report().TotalNs(), 0u);
}

TEST(ProfilerTest, NestedScopesBuildATreeWithSelfTime) {
  Profiler profiler;
  FakeClock clock(&profiler);

  profiler.Begin(CostCenter::kSortedAccess);  // t = 0
  clock.Advance(100);
  profiler.Begin(CostCenter::kCacheProbe);  // t = 100
  clock.Advance(300);
  profiler.End();  // t = 400: probe total 300
  clock.Advance(600);
  profiler.End();  // t = 1000: sorted total 1000, self 700
  profiler.Begin(CostCenter::kRandomAccess);  // t = 1000
  clock.Advance(500);
  profiler.End();  // t = 1500
  EXPECT_EQ(profiler.open_scopes(), 0u);

  const ProfileReport report = profiler.Report();
  ASSERT_EQ(report.tree.size(), 3u);
  // Preorder: sorted, its probe child, then random.
  EXPECT_EQ(report.tree[0].center, CostCenter::kSortedAccess);
  EXPECT_EQ(report.tree[0].depth, 0u);
  EXPECT_EQ(report.tree[0].count, 1u);
  EXPECT_EQ(report.tree[0].total_ns, 1000u);
  EXPECT_EQ(report.tree[0].self_ns, 700u);
  EXPECT_EQ(report.tree[1].center, CostCenter::kCacheProbe);
  EXPECT_EQ(report.tree[1].depth, 1u);
  EXPECT_EQ(report.tree[1].total_ns, 300u);
  EXPECT_EQ(report.tree[1].self_ns, 300u);
  EXPECT_EQ(report.tree[2].center, CostCenter::kRandomAccess);
  EXPECT_EQ(report.tree[2].depth, 0u);
  EXPECT_EQ(report.tree[2].total_ns, 500u);

  // Flat view in enum order; every nanosecond lands in exactly one
  // self bucket, so SelfNs == TotalNs.
  ASSERT_EQ(report.flat.size(), 3u);
  EXPECT_EQ(report.flat[0].center, CostCenter::kSortedAccess);
  EXPECT_EQ(report.flat[1].center, CostCenter::kRandomAccess);
  EXPECT_EQ(report.flat[2].center, CostCenter::kCacheProbe);
  EXPECT_EQ(report.TotalNs(), 1500u);
  EXPECT_EQ(report.SelfNs(), 1500u);
}

TEST(ProfilerTest, RepeatedSiblingsMergeAndSplitPositionsSumInFlat) {
  Profiler profiler;
  FakeClock clock(&profiler);

  // kCacheProbe fires twice under sorted and once under random: two tree
  // positions (counts 2 and 1), one flat row summing all three.
  for (int i = 0; i < 2; ++i) {
    profiler.Begin(CostCenter::kSortedAccess);
    profiler.Begin(CostCenter::kCacheProbe);
    clock.Advance(10);
    profiler.End();
    profiler.End();
  }
  profiler.Begin(CostCenter::kRandomAccess);
  profiler.Begin(CostCenter::kCacheProbe);
  clock.Advance(5);
  profiler.End();
  profiler.End();

  const ProfileReport report = profiler.Report();
  ASSERT_EQ(report.tree.size(), 4u);
  EXPECT_EQ(report.tree[0].center, CostCenter::kSortedAccess);
  EXPECT_EQ(report.tree[0].count, 2u);
  EXPECT_EQ(report.tree[1].center, CostCenter::kCacheProbe);
  EXPECT_EQ(report.tree[1].count, 2u);
  EXPECT_EQ(report.tree[1].total_ns, 20u);
  EXPECT_EQ(report.tree[3].center, CostCenter::kCacheProbe);
  EXPECT_EQ(report.tree[3].count, 1u);
  EXPECT_EQ(report.tree[3].total_ns, 5u);

  ASSERT_EQ(report.flat.size(), 3u);
  EXPECT_EQ(report.flat[2].center, CostCenter::kCacheProbe);
  EXPECT_EQ(report.flat[2].count, 3u);
  EXPECT_EQ(report.flat[2].total_ns, 25u);
  EXPECT_EQ(report.flat[2].self_ns, 25u);
}

TEST(ProfilerTest, AddExternalIsARootLevelSample) {
  Profiler profiler;
  FakeClock clock(&profiler);
  profiler.AddExternal(CostCenter::kServerQueue, 1234);
  profiler.AddExternal(CostCenter::kServerQueue, 766);

  const ProfileReport report = profiler.Report();
  ASSERT_EQ(report.tree.size(), 1u);
  EXPECT_EQ(report.tree[0].center, CostCenter::kServerQueue);
  EXPECT_EQ(report.tree[0].depth, 0u);
  EXPECT_EQ(report.tree[0].count, 2u);
  EXPECT_EQ(report.tree[0].total_ns, 2000u);
  EXPECT_EQ(report.tree[0].self_ns, 2000u);
  EXPECT_EQ(report.TotalNs(), 2000u);

  profiler.Clear();
  EXPECT_TRUE(profiler.empty());
  EXPECT_TRUE(profiler.Report().empty());
}

TEST(ProfilerTest, ReportRendersTextAndValidJson) {
  Profiler profiler;
  FakeClock clock(&profiler);
  profiler.Begin(CostCenter::kOptimizerSimulate);
  clock.Advance(4000);
  profiler.End();
  profiler.AddExternal(CostCenter::kServerQueue, 1000);

  const ProfileReport report = profiler.Report();
  const std::string text = report.ToText();
  EXPECT_NE(text.find("optimizer_simulate"), std::string::npos);
  EXPECT_NE(text.find("server_queue"), std::string::npos);

  // The JSON rendering parses with the repo's own strict parser and
  // round-trips the numbers.
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(report.ToJson(), &doc).ok());
  double total = 0.0;
  ASSERT_TRUE(doc.GetNumber("total_ns", &total));
  EXPECT_EQ(total, 5000.0);
  const obs::JsonValue* flat = doc.Find("flat");
  ASSERT_NE(flat, nullptr);
  ASSERT_TRUE(flat->is_array());
  ASSERT_EQ(flat->array.size(), 2u);
  std::string center;
  ASSERT_TRUE(flat->array[0].GetString("center", &center));
  EXPECT_EQ(center, "optimizer_simulate");
  const obs::JsonValue* tree = doc.Find("tree");
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->array.size(), 2u);
}

TEST(ProfilerTest, RecordRunMetricsMirrorsTheFlatView) {
  Profiler profiler;
  FakeClock clock(&profiler);
  profiler.Begin(CostCenter::kSortedAccess);
  clock.Advance(700);
  profiler.End();
  profiler.Begin(CostCenter::kSortedAccess);
  clock.Advance(300);
  profiler.End();

  obs::RunReport run;
  run.profile = profiler.Report();
  obs::MetricsRegistry metrics;
  obs::RecordRunMetrics(&metrics, run);
  const obs::LabelSet labels = {{"center", "sorted_access"}};
  EXPECT_EQ(metrics.counter("nc_profile_count_total", labels).value(), 2.0);
  EXPECT_EQ(metrics.counter("nc_profile_total_ns_total", labels).value(),
            1000.0);
  EXPECT_EQ(metrics.counter("nc_profile_self_ns_total", labels).value(),
            1000.0);
}

TEST(ProfilerTest, HubRollupFeedsQuantilesAndSurvivesPersistence) {
  obs::TelemetryHub hub;
  EXPECT_EQ(hub.profile_sample_count(CostCenter::kSortedAccess), 0u);

  // 40 queries whose sorted-access self time ramps 1..40 us.
  for (int q = 1; q <= 40; ++q) {
    Profiler profiler;
    FakeClock clock(&profiler);
    profiler.Begin(CostCenter::kSortedAccess);
    clock.Advance(static_cast<uint64_t>(q) * 1000);
    profiler.End();
    hub.ObserveProfile(profiler.Report());
  }
  EXPECT_EQ(hub.profile_sample_count(CostCenter::kSortedAccess), 40u);
  const double p50 = hub.ProfileQuantile(CostCenter::kSortedAccess, 0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LT(p50, 30.0);

  // The sketches ride the "nchub 2" document and restore bit-exactly.
  const std::string doc = hub.Serialize();
  EXPECT_EQ(doc.rfind("nchub 2\n", 0), 0u);
  EXPECT_NE(doc.find("\nprofile "), std::string::npos);
  obs::TelemetryHub restored;
  ASSERT_TRUE(restored.Deserialize(doc).ok());
  EXPECT_EQ(restored.Serialize(), doc);
  EXPECT_EQ(restored.profile_sample_count(CostCenter::kSortedAccess), 40u);
  EXPECT_EQ(restored.ProfileQuantile(CostCenter::kSortedAccess, 0.5), p50);

  // The snapshot carries the rollup for /profilez.
  const obs::HubSnapshot snap = hub.Snapshot();
  ASSERT_EQ(snap.profile.size(), 1u);
  EXPECT_EQ(snap.profile[0].center, CostCenter::kSortedAccess);
  EXPECT_EQ(snap.profile[0].count, 40u);
  EXPECT_EQ(snap.profile[0].p50, p50);
}

TEST(ProfilerTest, ClosedScopesBecomeTracerProfileSlices) {
  Profiler profiler;
  FakeClock clock(&profiler);
  obs::QueryTracer tracer;
  profiler.set_tracer(&tracer);

  profiler.Begin(CostCenter::kSortedAccess);
  clock.Advance(2000);
  profiler.Begin(CostCenter::kCacheProbe);
  clock.Advance(5000);
  profiler.End();
  clock.Advance(1000);
  profiler.End();

  // Children close first, so slices arrive inner-to-outer.
  ASSERT_EQ(tracer.events().size(), 2u);
  const obs::TraceEvent& inner = tracer.events()[0];
  EXPECT_EQ(inner.kind, obs::TraceEventKind::kProfile);
  EXPECT_STREQ(inner.phase, "cache_probe");
  EXPECT_EQ(inner.wall_us, 2u);
  EXPECT_EQ(inner.duration_us, 5u);
  const obs::TraceEvent& outer = tracer.events()[1];
  EXPECT_STREQ(outer.phase, "sorted_access");
  EXPECT_EQ(outer.wall_us, 0u);
  EXPECT_EQ(outer.duration_us, 8u);

  // The Chrome exporter renders them as named slices.
  std::ostringstream chrome;
  tracer.ExportChromeTrace(&chrome);
  EXPECT_NE(chrome.str().find("cache_probe"), std::string::npos);
  EXPECT_NE(chrome.str().find("sorted_access"), std::string::npos);
}

#if !defined(NC_SANITIZE_BUILD)
TEST(ProfilerTest, AllocationAccountingAttributesScopeAllocations) {
  ASSERT_TRUE(obs::AllocAccountingActive());
  Profiler profiler;
  {
    NC_PROFILE_SCOPE(&profiler, kCertificateBuild);
    std::vector<char>* spill = new std::vector<char>(1 << 14);
    volatile size_t keep = spill->size();  // Defeat dead-store elimination.
    (void)keep;
    delete spill;
  }
  const ProfileReport report = profiler.Report();
  ASSERT_TRUE(report.alloc_accounting);
  ASSERT_EQ(report.tree.size(), 1u);
  EXPECT_GE(report.tree[0].alloc_count, 1u);
  EXPECT_GE(report.tree[0].alloc_bytes, static_cast<uint64_t>(1 << 14));
}
#endif  // !NC_SANITIZE_BUILD

// THE differential guarantee: an attached profiler (enabled or disabled)
// never changes an answer. Exercised over the full planned path -
// optimizer simulation, hill-climb, and the live engine run - both to a
// natural finish and through a budget-exhausted certified answer, where
// entries AND certificate intervals must match bit for bit.
void RunPlanned(const Dataset& data, Profiler* profiler, double max_cost,
                TopKResult* out) {
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  if (profiler != nullptr) sources.set_profiler(profiler);
  if (max_cost > 0.0) {
    QueryBudget budget;
    budget.max_cost = max_cost;
    ASSERT_TRUE(sources.set_budget(budget).ok());
  }
  const AverageFunction avg(2);
  PlannerOptions options;
  options.sample_size = 80;
  ASSERT_TRUE(RunOptimizedNC(&sources, avg, 5, options, out).ok());
}

void ExpectBitIdentical(const TopKResult& a, const TopKResult& b) {
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.certificate, b.certificate);
}

TEST(ProfilerTest, DifferentialAnswersBitIdenticalProfilerOnOrOff) {
  GeneratorOptions g;
  g.num_objects = 2000;
  g.num_predicates = 2;
  g.seed = 515;
  const Dataset data = GenerateDataset(g);

  for (const double max_cost : {0.0, 60.0}) {
    SCOPED_TRACE(max_cost);
    TopKResult plain, profiled, guarded;
    RunPlanned(data, nullptr, max_cost, &plain);

    Profiler enabled;
    RunPlanned(data, &enabled, max_cost, &profiled);

    Profiler disabled;
    disabled.Disable();
    RunPlanned(data, &disabled, max_cost, &guarded);

    ASSERT_FALSE(plain.entries.empty());
    ExpectBitIdentical(plain, profiled);
    ExpectBitIdentical(plain, guarded);
    EXPECT_TRUE(disabled.empty());

    // The enabled run metered real work: planner simulation, the
    // hill-climb sweeps, and the access seam all fired.
    const ProfileReport report = enabled.Report();
    ASSERT_FALSE(report.empty());
    bool saw_simulate = false, saw_hclimb = false, saw_sorted = false;
    for (const ProfileReport::FlatRow& row : report.flat) {
      saw_simulate |= row.center == CostCenter::kOptimizerSimulate;
      saw_hclimb |= row.center == CostCenter::kHillClimbStep;
      saw_sorted |= row.center == CostCenter::kSortedAccess;
    }
    EXPECT_TRUE(saw_simulate);
    EXPECT_TRUE(saw_hclimb);
    EXPECT_TRUE(saw_sorted);
  }

  // The budgeted run terminated early and certified its answer - the
  // interval comparison above was not vacuous.
  TopKResult budgeted;
  RunPlanned(data, nullptr, 60.0, &budgeted);
  ASSERT_TRUE(budgeted.certificate.has_value());
  EXPECT_FALSE(budgeted.certificate->intervals.empty());
}

// A profiler attached to the SourceSet alone also meters the engine's
// own cost centers, not just the access seam's.
TEST(ProfilerTest, AttachingToTheSourcesProfilesTheEngine) {
  GeneratorOptions g;
  g.num_objects = 300;
  g.num_predicates = 2;
  g.seed = 9;
  const Dataset data = GenerateDataset(g);
  const AverageFunction avg(2);
  Profiler profiler;
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 2.0));
  sources.set_profiler(&profiler);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  NCEngine engine(&sources, &avg, &policy, options);
  TopKResult result;
  ASSERT_TRUE(engine.Run(&result).ok());

  bool saw_heap = false, saw_sorted = false;
  for (const ProfileReport::FlatRow& row : profiler.Report().flat) {
    saw_heap |= row.center == CostCenter::kCandidateHeap;
    saw_sorted |= row.center == CostCenter::kSortedAccess;
  }
  EXPECT_TRUE(saw_sorted);
  EXPECT_TRUE(saw_heap);
}

// Per-worker profilers are thread-confined; the shared surfaces are the
// hub's rollup and the metrics registry. Run under tsan this is the
// data-race proof for that fan-in.
TEST(ProfilerTest, ConcurrentReportsFanIntoSharedHubAndMetrics) {
  obs::TelemetryHub hub;
  obs::MetricsRegistry metrics;
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hub, &metrics, t] {
      Profiler profiler;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        profiler.Clear();
        {
          NC_PROFILE_SCOPE(&profiler, kSortedAccess);
          NC_PROFILE_SCOPE(&profiler, kCacheProbe);
        }
        profiler.AddExternal(CostCenter::kServerQueue,
                             static_cast<uint64_t>(t + 1) * 1000);
        obs::RunReport run;
        run.profile = profiler.Report();
        hub.ObserveProfile(run.profile);
        obs::RecordRunMetrics(&metrics, run);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(hub.profile_sample_count(CostCenter::kServerQueue),
            static_cast<size_t>(kThreads) * kQueriesPerThread);
  EXPECT_EQ(
      metrics.counter("nc_profile_count_total", {{"center", "server_queue"}})
          .value(),
      static_cast<double>(kThreads * kQueriesPerThread));
}

}  // namespace
}  // namespace nc
