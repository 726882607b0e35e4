// Traced query: run one top-k query with the full observability stack
// attached and export every artifact it produces.
//
//   $ ./build/examples/traced_query
//
// Demonstrates the docs/OBSERVABILITY.md conventions:
//   1. attach ONE QueryTracer to the sources (SourceSet::set_tracer) -
//      every layer reads it from there - and stream its JSONL live to
//      disk through a JsonlSink: every event is flushed as it happens,
//      so a crash or kill mid-query still leaves a complete, parseable
//      prefix,
//   2. run through a QuerySession: the session owns the TelemetryHub
//      (cross-query quantiles, cost EWMAs, fleet health) and diffs the
//      planner's Eq. 1 prediction against the metered run (CostAudit),
//   3. after the run, build a RunReport - the per-predicate cost
//      breakdown, the threshold-convergence timeline, and the
//      predicted-vs-actual audit - and fold it into a MetricsRegistry
//      with RecordRunMetrics,
//   4. export: Chrome trace JSON (load traced_query.trace.json in
//      https://ui.perfetto.dev or chrome://tracing), the streamed JSONL,
//      Prometheus text, and the report as text + JSON.

#include <cstdio>
#include <fstream>

#include "core/session.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/tracer.h"

int main() {
  // A 2-predicate database and a uniform-cost access scenario.
  nc::GeneratorOptions gen;
  gen.num_objects = 2000;
  gen.num_predicates = 2;
  gen.seed = 99;
  const nc::Dataset data = nc::GenerateDataset(gen);
  const nc::CostModel cost = nc::CostModel::Uniform(2, 1.0, 2.0);
  const nc::AverageFunction scoring(2);

  // 1. One tracer, streaming JSONL live (flushed per event).
  nc::obs::QueryTracer tracer;
  std::ofstream live_events("traced_query.events.jsonl");
  nc::obs::JsonlSink sink(&live_events);
  tracer.set_streaming_sink(&sink);
  nc::obs::MetricsRegistry metrics;

  nc::SourceSet sources(&data, cost);
  sources.set_tracer(&tracer);

  // 2. The session plans (caching the plan + its cost prediction), runs,
  //    and audits; its TelemetryHub accumulates across queries.
  nc::QuerySession session(&scoring, nc::PlannerOptions{});
  nc::TopKResult result;
  const nc::Status status = session.Query(&sources, 5, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // 3. The run report, with the plan's prediction so it carries the
  //    cost audit; then the report -> registry.
  const nc::obs::RunReport report = nc::obs::BuildRunReport(
      sources, &tracer, "NC", 5, &session.last_plan().prediction);
  nc::obs::RecordRunMetrics(&metrics, report);
  std::fputs(report.ToText().c_str(), stdout);

  // 4. Exports. The JSONL was already streamed to
  //    traced_query.events.jsonl while the query ran.
  {
    std::ofstream file("traced_query.trace.json");
    tracer.ExportChromeTrace(&file);
  }
  {
    std::ofstream file("traced_query.metrics.prom");
    metrics.WritePrometheusText(&file);
  }
  {
    std::ofstream file("traced_query.report.json");
    file << report.ToJson() << "\n";
  }
  std::printf(
      "\nwrote traced_query.trace.json (open in https://ui.perfetto.dev),\n"
      "      traced_query.events.jsonl (streamed live),\n"
      "      traced_query.metrics.prom, traced_query.report.json\n");
  return 0;
}
