#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace nc::obs {
namespace {

TEST(CounterTest, IncrementsAndReads) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.Increment();
  c.Increment(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(HistogramTest, BucketsAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.Observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  // 0.5 and 1.0 land in <=1; 1.5 in <=2; 3.0 in <=4; 100 overflows.
  const std::vector<uint64_t> expected{2, 1, 1, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
  EXPECT_DOUBLE_EQ(h.snapshot().max(), 100.0);
}

TEST(MetricsRegistryTest, FindOrCreateIsStableAcrossLabelOrder) {
  MetricsRegistry registry;
  Counter& a = registry.counter("nc_x_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("nc_x_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);  // Canonical label order: one series.
  a.Increment(3.0);
  EXPECT_DOUBLE_EQ(
      registry.CounterValue("nc_x_total", {{"b", "2"}, {"a", "1"}}), 3.0);
  EXPECT_DOUBLE_EQ(registry.CounterValue("nc_x_total", {{"a", "1"}}), 0.0);
  EXPECT_DOUBLE_EQ(registry.CounterValue("nc_missing_total"), 0.0);
}

TEST(MetricsRegistryTest, CounterSumRestrictsBySubset) {
  MetricsRegistry registry;
  registry.counter("nc_cost_total", {{"algorithm", "NC"}, {"type", "sorted"}})
      .Increment(2.0);
  registry.counter("nc_cost_total", {{"algorithm", "NC"}, {"type", "random"}})
      .Increment(5.0);
  registry.counter("nc_cost_total", {{"algorithm", "TA"}, {"type", "sorted"}})
      .Increment(11.0);
  EXPECT_DOUBLE_EQ(registry.CounterSum("nc_cost_total"), 18.0);
  EXPECT_DOUBLE_EQ(
      registry.CounterSum("nc_cost_total", {{"algorithm", "NC"}}), 7.0);
  EXPECT_DOUBLE_EQ(
      registry.CounterSum("nc_cost_total", {{"type", "sorted"}}), 13.0);
  EXPECT_DOUBLE_EQ(
      registry.CounterSum("nc_cost_total", {{"algorithm", "CA"}}), 0.0);
}

TEST(MetricsRegistryTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.counter("nc_accesses_total", {{"algorithm", "NC"}})
      .Increment(4.0);
  registry.counter("nc_accesses_total", {{"algorithm", "TA"}})
      .Increment(9.0);
  Histogram& h =
      registry.histogram("nc_width", {1.0, 2.0}, {{"algorithm", "NC"}});
  h.Observe(1.0);
  h.Observe(1.5);
  h.Observe(10.0);

  std::ostringstream os;
  registry.WritePrometheusText(&os);
  EXPECT_EQ(os.str(),
            "# TYPE nc_accesses_total counter\n"
            "nc_accesses_total{algorithm=\"NC\"} 4\n"
            "nc_accesses_total{algorithm=\"TA\"} 9\n"
            "# TYPE nc_width histogram\n"
            "nc_width_bucket{algorithm=\"NC\",le=\"1\"} 1\n"
            "nc_width_bucket{algorithm=\"NC\",le=\"2\"} 2\n"
            "nc_width_bucket{algorithm=\"NC\",le=\"+Inf\"} 3\n"
            "nc_width_sum{algorithm=\"NC\"} 12.5\n"
            "nc_width_count{algorithm=\"NC\"} 3\n");
}

TEST(MetricsTest, PrometheusQuoteEscapesExactlyTheExpositionSet) {
  // The exposition format allows exactly \\ , \" and \n inside a quoted
  // label value; everything else - including raw UTF-8 - passes through.
  // (JsonQuote would emit \uXXXX escapes, which are invalid exposition
  // syntax - the bug this function exists to fix.)
  EXPECT_EQ(PrometheusQuote("plain"), "\"plain\"");
  EXPECT_EQ(PrometheusQuote("a\\b\"c\nd"), "\"a\\\\b\\\"c\\nd\"");
  EXPECT_EQ(PrometheusQuote("caf\xC3\xA9 \xE2\x82\xAC"),
            "\"caf\xC3\xA9 \xE2\x82\xAC\"");
  EXPECT_EQ(PrometheusQuote(""), "\"\"");
  // A tab is NOT in the escape set: raw passthrough.
  EXPECT_EQ(PrometheusQuote("a\tb"), "\"a\tb\"");
}

TEST(MetricsTest, FormatLabelsUsesExpositionEscapes) {
  const std::string labels = FormatLabels(
      {{"msg", "line1\nline2"}, {"name", "caf\xC3\xA9"}, {"path", "C:\\tmp"}});
  EXPECT_EQ(labels,
            "{msg=\"line1\\nline2\",name=\"caf\xC3\xA9\","
            "path=\"C:\\\\tmp\"}");
}

TEST(MetricsRegistryTest, ExpositionStaysOneLinePerSeriesUnderHostileLabels) {
  MetricsRegistry registry;
  registry.counter("nc_files_total", {{"path", "a\nb\\c\"d"}}).Increment();
  std::ostringstream os;
  registry.WritePrometheusText(&os);
  EXPECT_EQ(os.str(),
            "# TYPE nc_files_total counter\n"
            "nc_files_total{path=\"a\\nb\\\\c\\\"d\"} 1\n");
}

TEST(MetricsRegistryTest, ClearDropsEverySeries) {
  MetricsRegistry registry;
  registry.counter("nc_x_total").Increment();
  registry.Clear();
  EXPECT_DOUBLE_EQ(registry.CounterValue("nc_x_total"), 0.0);
  std::ostringstream os;
  registry.WritePrometheusText(&os);
  EXPECT_EQ(os.str(), "");
}

// Hammers one registry from many threads: lookups racing with increments
// and observations racing with exports. Run under the sanitize preset,
// this is the thread-safety contract's enforcement.
TEST(MetricsRegistryTest, ConcurrentRecordingIsLossFree) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Half the threads share one hot series; the rest own a series
      // each, so both contended and creating paths are exercised.
      const std::string id = std::to_string(t);
      const std::string label = t % 2 == 0 ? "shared" : "t" + id;
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("nc_hammer_total", {{"worker", label}}).Increment();
        registry
            .histogram("nc_hammer_width", {4.0, 16.0}, {{"worker", label}})
            .Observe(static_cast<double>(i % 32));
        if (i % 512 == 0) {
          std::ostringstream os;
          registry.WritePrometheusText(&os);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(registry.CounterSum("nc_hammer_total"),
                   static_cast<double>(kThreads * kPerThread));
  size_t observed = registry
                        .histogram("nc_hammer_width", {4.0, 16.0},
                                   {{"worker", "shared"}})
                        .count();
  for (int t = 1; t < kThreads; t += 2) {
    const std::string id = std::to_string(t);
    observed += registry
                    .histogram("nc_hammer_width", {4.0, 16.0},
                               {{"worker", "t" + id}})
                    .count();
  }
  EXPECT_EQ(observed,
            static_cast<size_t>(kThreads) * static_cast<size_t>(kPerThread));
}

}  // namespace
}  // namespace nc::obs
