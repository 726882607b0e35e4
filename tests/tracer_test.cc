#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mpro.h"
#include "baselines/upper.h"
#include "core/adaptive.h"
#include "core/engine.h"
#include "core/parallel_executor.h"
#include "core/planner.h"
#include "core/session.h"
#include "core/srg_policy.h"
#include "data/generator.h"

namespace nc::obs {
namespace {

// Deterministic clock: every event lands 10us after the previous one.
void InstallTickClock(QueryTracer* tracer) {
  auto ticks = std::make_shared<uint64_t>(0);
  tracer->set_clock_for_testing([ticks]() { return (*ticks)++ * 10; });
}

TEST(QueryTracerTest, StartsEnabledAndRecords) {
  QueryTracer tracer;
  EXPECT_TRUE(tracer.enabled());
  tracer.RecordAccess(AccessType::kSorted, 0, 0, 1.0, 1.0);
  tracer.RecordIteration(7, 3, 0.9, 0.5, 12, 1.0);
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].kind, TraceEventKind::kAccess);
  EXPECT_EQ(tracer.events()[1].kind, TraceEventKind::kIteration);
  EXPECT_EQ(tracer.events()[1].target, 7u);
  EXPECT_EQ(tracer.events()[1].choice_width, 3u);
}

TEST(QueryTracerTest, DisabledTracerRecordsNothing) {
  QueryTracer tracer;
  tracer.Disable();
  EXPECT_FALSE(ShouldTrace(&tracer));
  tracer.RecordAccess(AccessType::kRandom, 1, 5, 2.0, 2.0);
  tracer.RecordAttempt(AccessType::kSorted, 0, 0, AccessOutcome::kTransient,
                       0.5, 2.5);
  tracer.RecordIteration(1, 2, 0.8, 0.4, 3, 2.5);
  tracer.BeginPhase("probe");
  tracer.EndPhase("probe");
  EXPECT_TRUE(tracer.events().empty());
  // Re-enabling resumes recording without losing anything prior.
  tracer.Enable();
  EXPECT_TRUE(ShouldTrace(&tracer));
  tracer.BeginPhase("probe");
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(QueryTracerTest, NullTracerFailsTheGuard) {
  EXPECT_FALSE(ShouldTrace(nullptr));
}

TEST(QueryTracerTest, ClearDropsEvents) {
  QueryTracer tracer;
  tracer.BeginPhase("probe");
  tracer.EndPhase("probe");
  ASSERT_EQ(tracer.events().size(), 2u);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(QueryTracerTest, JsonlGolden) {
  QueryTracer tracer;
  InstallTickClock(&tracer);
  tracer.BeginPhase("probe");
  tracer.RecordAccess(AccessType::kSorted, 0, 0, 1.0, 1.0);
  tracer.RecordAttempt(AccessType::kRandom, 1, 42, AccessOutcome::kTimeout,
                       0.5, 1.5);
  tracer.RecordAccess(AccessType::kRandom, 1, 42, 2.0, 3.5);
  tracer.RecordIteration(kUnseenObject, 4, 0.75, 0.5, 9, 3.5);
  tracer.EndPhase("probe");

  std::ostringstream os;
  tracer.ExportJsonl(&os);
  EXPECT_EQ(
      os.str(),
      "{\"kind\":\"phase_begin\",\"wall_us\":0,\"phase\":\"probe\"}\n"
      "{\"kind\":\"access\",\"wall_us\":10,\"cost_clock\":1,"
      "\"type\":\"sorted\",\"predicate\":0,\"outcome\":\"ok\","
      "\"charged\":1}\n"
      "{\"kind\":\"attempt\",\"wall_us\":20,\"cost_clock\":1.5,"
      "\"type\":\"random\",\"predicate\":1,\"object\":42,"
      "\"outcome\":\"timeout\",\"charged\":0.5}\n"
      "{\"kind\":\"access\",\"wall_us\":30,\"cost_clock\":3.5,"
      "\"type\":\"random\",\"predicate\":1,\"object\":42,"
      "\"outcome\":\"ok\",\"charged\":2}\n"
      "{\"kind\":\"iteration\",\"wall_us\":40,\"cost_clock\":3.5,"
      "\"target\":\"unseen\",\"choice_width\":4,\"threshold\":0.75,"
      "\"kth_bound\":0.5,\"heap_size\":9}\n"
      "{\"kind\":\"phase_end\",\"wall_us\":50,\"phase\":\"probe\"}\n");
}

TEST(QueryTracerTest, ChromeTraceGolden) {
  QueryTracer tracer;
  InstallTickClock(&tracer);
  tracer.BeginPhase("probe");
  tracer.RecordAccess(AccessType::kSorted, 1, 0, 1.0, 1.0);
  tracer.RecordIteration(3, 2, 0.9, 0.4, 5, 1.0);
  tracer.EndPhase("probe");

  std::ostringstream os;
  tracer.ExportChromeTrace(&os);
  EXPECT_EQ(
      os.str(),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"probe\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1},"
      "{\"name\":\"sa_1\",\"ph\":\"i\",\"ts\":10,\"pid\":1,\"tid\":1,"
      "\"s\":\"t\",\"args\":{\"outcome\":\"ok\",\"charged\":1,"
      "\"cost_clock\":1}},"
      "{\"name\":\"theta\",\"ph\":\"C\",\"ts\":20,\"pid\":1,\"tid\":1,"
      "\"args\":{\"threshold\":0.9,\"kth_bound\":0.4}},"
      "{\"name\":\"heap_size\",\"ph\":\"C\",\"ts\":20,\"pid\":1,\"tid\":1,"
      "\"args\":{\"size\":5}},"
      "{\"name\":\"probe\",\"ph\":\"E\",\"ts\":30,\"pid\":1,\"tid\":1}]}");
}

// End-to-end: the tracer on the sources records the sources' and the
// engine's events as one interleaved timeline; disabling the tracer
// reproduces the identical query at zero event volume.
TEST(QueryTracerTest, EngineAndSourcesShareOneTimeline) {
  GeneratorOptions g;
  g.num_objects = 300;
  g.num_predicates = 2;
  g.seed = 5;
  const Dataset data = GenerateDataset(g);
  MinFunction fmin(2);

  const auto run = [&](QueryTracer* tracer, TopKResult* result) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 4.0));
    sources.set_tracer(tracer);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 3;
    ASSERT_TRUE(RunNC(&sources, &fmin, &policy, options, result).ok());
  };

  QueryTracer tracer;
  TopKResult traced;
  run(&tracer, &traced);

  size_t accesses = 0;
  size_t iterations = 0;
  size_t spans = 0;
  for (const TraceEvent& e : tracer.events()) {
    switch (e.kind) {
      case TraceEventKind::kAccess:
        ++accesses;
        break;
      case TraceEventKind::kIteration:
        ++iterations;
        break;
      case TraceEventKind::kPhaseBegin:
      case TraceEventKind::kPhaseEnd:
        ++spans;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(accesses, 0u);
  // One iteration event per performed access.
  EXPECT_EQ(iterations, accesses);
  EXPECT_EQ(spans, 2u);  // probe begin + end.
  EXPECT_EQ(tracer.events().front().kind, TraceEventKind::kPhaseBegin);
  EXPECT_EQ(tracer.events().back().kind, TraceEventKind::kPhaseEnd);

  QueryTracer disabled;
  disabled.Disable();
  TopKResult untraced;
  run(&disabled, &untraced);
  EXPECT_TRUE(disabled.events().empty());
  ASSERT_EQ(untraced.entries.size(), traced.entries.size());
  for (size_t i = 0; i < traced.entries.size(); ++i) {
    EXPECT_EQ(untraced.entries[i].object, traced.entries[i].object);
    EXPECT_DOUBLE_EQ(untraced.entries[i].score, traced.entries[i].score);
  }
}

// A tracer attached to the SourceSet alone sees the whole run on every
// execution path: the engine's (or executor's) phase span brackets every
// access event, and the sequential paths record one kIteration per
// engine access.
TEST(QueryTracerTest, AttachingToTheSourcesTracesTheWholeRun) {
  GeneratorOptions g;
  g.num_objects = 300;
  g.num_predicates = 2;
  g.seed = 8;
  const Dataset data = GenerateDataset(g);
  const AverageFunction avg(2);
  PlannerOptions planner;
  planner.sample_size = 60;

  struct Path {
    const char* name;
    const char* phase;
    std::function<Status(SourceSet*, TopKResult*)> run;
  };
  const std::vector<Path> paths = {
      {"NCEngine::Run", "probe",
       [&](SourceSet* sources, TopKResult* out) {
         SRGPolicy policy(SRGConfig::Default(2));
         EngineOptions options;
         options.k = 5;
         NCEngine engine(sources, &avg, &policy, options);
         return engine.Run(out);
       }},
      {"RunOptimizedNC", "probe",
       [&](SourceSet* sources, TopKResult* out) {
         return RunOptimizedNC(sources, avg, 5, planner, out);
       }},
      {"QuerySession::Query", "probe",
       [&](SourceSet* sources, TopKResult* out) {
         QuerySession session(&avg, planner);
         return session.Query(sources, 5, out);
       }},
      {"RunAdaptiveNC", "probe",
       [&](SourceSet* sources, TopKResult* out) {
         AdaptiveOptions options;
         options.k = 5;
         options.reoptimize_every = 50;
         options.planner = planner;
         return RunAdaptiveNC(sources, avg, options, out);
       }},
      {"RunParallelNC", "parallel",
       [&](SourceSet* sources, TopKResult* out) {
         SRGPolicy policy(SRGConfig::Default(2));
         EngineOptions options;
         options.k = 5;
         options.concurrency = 4;
         ParallelResult result;
         const Status status =
             RunParallelNC(sources, avg, &policy, options, &result);
         *out = result.topk;
         return status;
       }},
      {"RunMPro", "probe",
       [&](SourceSet* sources, TopKResult* out) {
         return RunMPro(sources, avg, 5, {}, out);
       }},
      {"RunUpper", "probe",
       [&](SourceSet* sources, TopKResult* out) {
         return RunUpper(sources, avg, 5, {}, out);
       }},
  };

  for (const Path& path : paths) {
    SCOPED_TRACE(path.name);
    QueryTracer tracer;
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 3.0));
    sources.set_tracer(&tracer);
    TopKResult result;
    ASSERT_TRUE(path.run(&sources, &result).ok());

    const std::vector<TraceEvent>& events = tracer.events();
    size_t begin = events.size();
    size_t end = events.size();
    size_t accesses = 0;
    size_t iterations = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      const bool ours =
          e.phase != nullptr && std::string(e.phase) == path.phase;
      if (e.kind == TraceEventKind::kPhaseBegin && ours &&
          begin == events.size()) {
        begin = i;
      }
      if (e.kind == TraceEventKind::kPhaseEnd && ours) end = i;
      accesses += e.kind == TraceEventKind::kAccess;
      iterations += e.kind == TraceEventKind::kIteration;
    }
    ASSERT_LT(begin, events.size()) << "no " << path.phase << " phase begin";
    ASSERT_LT(end, events.size()) << "no " << path.phase << " phase end";
    ASSERT_GT(accesses, 0u);
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind != TraceEventKind::kAccess) continue;
      EXPECT_GT(i, begin) << "access before the phase span";
      EXPECT_LT(i, end) << "access after the phase span";
    }
    if (std::string(path.phase) == "parallel") {
      EXPECT_GE(iterations, 1u);
    } else {
      EXPECT_EQ(iterations, accesses);
    }
  }
}

// The flush guarantee: with a streaming JSONL sink attached, every event
// recorded before an abnormal termination survives as a complete line.
// A forked child runs a real traced query and dies with _Exit (no
// destructors, no stdio flush) from inside the tracer's clock after 40
// events; the parent requires a file of only complete, balanced lines.
TEST(QueryTracerTest, StreamingJsonlSurvivesMidQueryKill) {
  char path[] = "/tmp/nc_tracer_kill_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- Child: die mid-query, mid-record. ----------------------------
    GeneratorOptions g;
    g.num_objects = 400;
    g.num_predicates = 2;
    g.seed = 6;
    const Dataset data = GenerateDataset(g);
    MinFunction fmin(2);

    std::ofstream out(path);
    JsonlSink sink(&out);
    QueryTracer tracer;
    tracer.set_streaming_sink(&sink);
    auto ticks = std::make_shared<uint64_t>(0);
    tracer.set_clock_for_testing([ticks]() {
      if (++*ticks > 40) std::_Exit(17);
      return *ticks * 10;
    });

    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 4.0));
    sources.set_tracer(&tracer);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 5;
    TopKResult result;
    (void)RunNC(&sources, &fmin, &policy, options, &result);
    std::_Exit(1);  // The query must NOT have finished first.
  }

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 17);  // Killed inside the clock.

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // Every surviving line is one complete JSON object.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":"), std::string::npos);
  }
  // 40 clock reads = 40 recorded events, each flushed before the kill.
  EXPECT_EQ(lines, 40u);
  std::remove(path);
}

// --- Request scoping, spans, and the shared sink -------------------------

TEST(QueryTracerTest, ContextStampsEventsUntilCleared) {
  QueryTracer tracer;
  InstallTickClock(&tracer);
  TraceContext ctx;
  ctx.trace_id = 0xabcdef0123456789ull;
  ctx.request_id = 7;
  ctx.worker = 2;
  tracer.set_context(ctx);
  tracer.RecordAccess(AccessType::kSorted, 0, 0, 1.0, 1.0);
  tracer.clear_context();
  tracer.RecordAccess(AccessType::kSorted, 0, 0, 1.0, 2.0);

  std::ostringstream os;
  tracer.ExportJsonl(&os);
  EXPECT_EQ(os.str(),
            "{\"kind\":\"access\",\"wall_us\":0,"
            "\"trace\":\"abcdef0123456789\",\"request\":7,\"worker\":2,"
            "\"cost_clock\":1,\"type\":\"sorted\",\"predicate\":0,"
            "\"outcome\":\"ok\",\"charged\":1}\n"
            "{\"kind\":\"access\",\"wall_us\":10,\"cost_clock\":2,"
            "\"type\":\"sorted\",\"predicate\":0,\"outcome\":\"ok\","
            "\"charged\":1}\n");
}

TEST(QueryTracerTest, SpanGoldenJsonlAndChrome) {
  QueryTracer tracer;
  InstallTickClock(&tracer);
  TraceContext ctx;
  ctx.trace_id = 0x1;
  ctx.request_id = 3;
  ctx.worker = 1;
  tracer.set_context(ctx);
  tracer.RecordSpan("queue_wait", 100, 250);
  tracer.RecordSpan("serve", 250, 900);

  std::ostringstream jsonl;
  tracer.ExportJsonl(&jsonl);
  EXPECT_EQ(jsonl.str(),
            "{\"kind\":\"span\",\"wall_us\":100,"
            "\"trace\":\"0000000000000001\",\"request\":3,\"worker\":1,"
            "\"name\":\"queue_wait\",\"duration_us\":150}\n"
            "{\"kind\":\"span\",\"wall_us\":250,"
            "\"trace\":\"0000000000000001\",\"request\":3,\"worker\":1,"
            "\"name\":\"serve\",\"duration_us\":650}\n");

  // Chrome: complete "X" slices on the worker's track (tid = worker + 1),
  // carrying the request identity in args.
  std::ostringstream chrome;
  tracer.ExportChromeTrace(&chrome);
  EXPECT_NE(chrome.str().find("\"name\":\"queue_wait\",\"ph\":\"X\","
                              "\"ts\":100,\"pid\":1,\"tid\":2,\"dur\":150"),
            std::string::npos);
  EXPECT_NE(chrome.str().find("\"request\":3"), std::string::npos);
}

TEST(QueryTracerTest, RealClockEmitsUnixTimeTestClockDoesNot) {
  QueryTracer real;
  real.set_epoch_ns(MonotonicTimeNs());
  real.BeginPhase("probe");
  std::ostringstream with_unix;
  real.ExportJsonl(&with_unix);
  EXPECT_NE(with_unix.str().find("\"unix_us\":"), std::string::npos);

  QueryTracer fake;
  InstallTickClock(&fake);
  fake.BeginPhase("probe");
  std::ostringstream without_unix;
  fake.ExportJsonl(&without_unix);
  EXPECT_EQ(without_unix.str().find("\"unix_us\":"), std::string::npos);
}

TEST(JsonlSinkTest, ConcurrentWritersNeverTearLines) {
  std::ostringstream out;
  JsonlSink sink(&out);
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      for (int n = 0; n < kLines; ++n) {
        // Distinct, self-checking payloads: a torn or interleaved write
        // would break the begin/end markers.
        sink.WriteLine("{\"writer\":" + std::to_string(t) +
                       ",\"seq\":" + std::to_string(n) + ",\"end\":\"ok\"}");
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(sink.lines_written(), size_t{kThreads * kLines});

  std::istringstream in(out.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_EQ(line.rfind("{\"writer\":", 0), 0u) << line;
    ASSERT_NE(line.find(",\"end\":\"ok\"}"), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_EQ(lines, size_t{kThreads * kLines});
}

TEST(QueryTracerTest, SinkReceivesEachEventAsOneLine) {
  std::ostringstream out;
  JsonlSink sink(&out);
  QueryTracer tracer;
  InstallTickClock(&tracer);
  tracer.set_streaming_sink(&sink);
  tracer.BeginPhase("probe");
  tracer.RecordSpan("serve", 0, 5);
  tracer.EndPhase("probe");
  EXPECT_EQ(sink.lines_written(), 3u);
  // The streamed lines match the buffering exporter's exactly.
  std::ostringstream expected;
  tracer.ExportJsonl(&expected);
  EXPECT_EQ(out.str(), expected.str());
}

TEST(QueryTracerDeathTest, ZeroTraceIdContextIsRefused) {
  QueryTracer tracer;
  TraceContext ctx;  // trace_id == 0 means "no context": not installable.
  EXPECT_DEATH(tracer.set_context(ctx), "trace_id");
}

}  // namespace
}  // namespace nc::obs
