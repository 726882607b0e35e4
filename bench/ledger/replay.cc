// The traced run: the start of the request stream, replayed serially on
// one thread. Each request passes through seven timed calls, back to back,
// each into one layer's public function, so the library runs exactly the
// code it runs when served:
//
//   server    the run's own server (RunOptimizedNC when unserved), with
//             nothing else in flight
//   session   QuerySession::Query (RunOptimizedNC when unserved), bare
//   observed  the same, with the workload's tracer + profiler attached
//   planner   CostBasedPlanner::Plan
//   engine    NCEngine::Run with the request's plan, bare
//   decorated NCEngine::Run again, with SRGPolicy behind a timing
//             SelectPolicy and the sources behind a timing ScoreProvider
//   access    the decorated run's access trace re-issued through
//             SourceSet::TrySortedAccess / TryRandomAccess
//
// Running a request's passes back to back, rather than each pass over all
// requests, keeps machine-speed drift from landing on one layer. Every
// pass owns its source stacks (and cache), so each sees the request
// sequence exactly as a lone server would. Every pass must reproduce the
// oracle's answer, which shows the replay did the untraced run's work.

#include <algorithm>
#include <fstream>
#include <span>
#include <utility>

#include "bench/ledger/ledger.h"
#include "common/check.h"
#include "core/engine.h"
#include "core/planner.h"
#include "core/session.h"
#include "core/srg_policy.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"

namespace nc::ledger {

namespace {

// Serves a Dataset and times every call into it.
class TimedProvider final : public ScoreProvider {
 public:
  explicit TimedProvider(const Dataset* data) : inner_(data) {}

  size_t num_objects() const override { return inner_.num_objects(); }
  size_t num_predicates() const override { return inner_.num_predicates(); }

  SortedEntry SortedEntryAt(PredicateId i, size_t rank) override {
    const uint64_t start = NowNs();
    const SortedEntry entry = inner_.SortedEntryAt(i, rank);
    ns_ += NowNs() - start;
    ++calls_;
    return entry;
  }

  Score ScoreOf(PredicateId i, ObjectId u) override {
    const uint64_t start = NowNs();
    const Score score = inner_.ScoreOf(i, u);
    ns_ += NowNs() - start;
    ++calls_;
    return score;
  }

  void ResetCounters() { ns_ = calls_ = 0; }
  uint64_t ns() const { return ns_; }
  uint64_t calls() const { return calls_; }

 private:
  DatasetScoreProvider inner_;
  uint64_t ns_ = 0;
  uint64_t calls_ = 0;
};

// Forwards to a policy and times every Select.
class TimedSelect final : public SelectPolicy {
 public:
  explicit TimedSelect(SelectPolicy* inner) : inner_(inner) {}

  void Reset(const SourceSet& sources) override { inner_->Reset(sources); }

  Access Select(std::span<const Access> alternatives,
                const EngineView& view) override {
    const uint64_t start = NowNs();
    const Access access = inner_->Select(alternatives, view);
    ns_ += NowNs() - start;
    ++calls_;
    return access;
  }

  std::string SaveState() const override { return inner_->SaveState(); }
  Status RestoreState(const std::string& state) override {
    return inner_->RestoreState(state);
  }

  uint64_t ns() const { return ns_; }
  uint64_t calls() const { return calls_; }

 private:
  SelectPolicy* inner_;
  uint64_t ns_ = 0;
  uint64_t calls_ = 0;
};

// What one timed call costs the clock: `inner_ns` is what a timed empty
// region reads as (subtracted from each decorated call's own reading),
// `outer_ns` what it adds to the enclosing interval.
struct TimerCost {
  double inner_ns = 0.0;
  double outer_ns = 0.0;
};

TimerCost CalibrateTimer() {
  constexpr int kIterations = 100000;
  TimerCost best{1e9, 1e9};
  for (int trial = 0; trial < 5; ++trial) {
    uint64_t inner = 0;
    const uint64_t start = NowNs();
    for (int i = 0; i < kIterations; ++i) {
      const uint64_t t = NowNs();
      inner += NowNs() - t;
    }
    const double outer = static_cast<double>(NowNs() - start) / kIterations;
    best.inner_ns =
        std::min(best.inner_ns, static_cast<double>(inner) / kIterations);
    best.outer_ns = std::min(best.outer_ns, outer);
  }
  return best;
}

// Answers of two passes over the same request must match bit for bit
// unless either was cut short by a budget: a certified answer depends on
// where the budget ran out, which the shared hub's routing may move.
bool SameWork(const TopKResult& a, const TopKResult& b) {
  if (a.certificate.has_value() || b.certificate.has_value()) return true;
  return a == b;
}

// One pass's source stacks (one per cost regime) and, for cache
// workloads, its private cache.
struct PassStacks {
  std::unique_ptr<cache::AccessCache> cache;
  std::vector<std::unique_ptr<LedgerStack>> stacks;

  // Dataset-backed when `provider` is null.
  PassStacks(const WorkloadSpec& spec, const Dataset* data,
             ScoreProvider* provider, obs::TelemetryHub* hub) {
    if (spec.cache) {
      cache =
          std::make_unique<cache::AccessCache>(MakeServerConfig(spec).cache);
    }
    for (const CostModel& cost : spec.regimes) {
      stacks.push_back(provider != nullptr
                           ? std::make_unique<LedgerStack>(spec, provider, cost)
                           : std::make_unique<LedgerStack>(spec, data, cost));
      SourceSet& sources = stacks.back()->sources();
      if (cache != nullptr) sources.set_access_cache(cache.get());
      // Served workloads share one hub across workers; the replay shares
      // one across passes.
      if (spec.served) sources.set_telemetry_hub(hub);
    }
  }

  // The request's stack, rewound, with its budget applied.
  SourceSet& Prepare(const Request& r, bool budgeted) {
    SourceSet& sources = stacks[r.regime]->sources();
    sources.Reset();
    QueryBudget budget;
    if (budgeted) budget.max_cost = r.max_cost;
    NC_CHECK(sources.set_budget(budget).ok());
    return sources;
  }
};

// Per-query sums the replay accumulates, in nanoseconds or counts.
struct Totals {
  double serial_service_us = 0.0;
  double session_ns = 0.0;
  double observed_ns = 0.0;
  double plan_ns = 0.0;
  double simulations = 0.0;
  double engine_ns = 0.0;
  double decorated_ns = 0.0;
  double select_ns = 0.0;
  double select_calls = 0.0;
  double provider_ns = 0.0;
  double provider_calls = 0.0;
  double seam_ns = 0.0;
  double accesses = 0.0;
  double sorted = 0.0;
  double random = 0.0;
  double sorted_cost = 0.0;
  double random_cost = 0.0;
  double retried = 0.0;
  double refusals = 0.0;
  double fast_failures = 0.0;
  double failovers = 0.0;
  double hedges = 0.0;
  double hedge_wins = 0.0;
};

}  // namespace

size_t SpanLog::Begin(const char* layer, int64_t request, int64_t parent) {
  spans_.push_back(Span{layer, request, NowNs(), 0, parent});
  return spans_.size() - 1;
}

void SpanLog::End(size_t span) { spans_[span].end_ns = NowNs(); }

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    obs::JsonWriter w(&out);
    w.BeginObject();
    w.Key("layer").String(span.layer);
    w.Key("request").Int(span.request);
    w.Key("start_ns").UInt(span.start_ns - origin);
    w.Key("end_ns").UInt(span.end_ns - origin);
    w.Key("parent").Int(span.parent);
    w.EndObject();
    out << "\n";
  }
  return out.good();
}

ReplayResult Replay(Setup& setup, const std::vector<Request>& requests,
                    SpanLog* spans) {
  const Corpus& corpus = setup.corpus();
  const WorkloadSpec& spec = corpus.spec();
  const Dataset& data = corpus.data();
  const size_t n = requests.size();
  const TimerCost timer = CalibrateTimer();
  const PlannerOptions planner_options;
  ReplayResult out;
  out.answers.resize(n);

  obs::TelemetryHub hub;
  TimedProvider provider(&data);
  PassStacks session_stacks(spec, &data, nullptr, &hub);
  PassStacks observed_stacks(spec, &data, nullptr, &hub);
  PassStacks engine_stacks(spec, &data, nullptr, &hub);
  PassStacks decorated_stacks(spec, &data, &provider, &hub);
  PassStacks replay_stacks(spec, &data, &provider, &hub);
  for (const auto& stack : decorated_stacks.stacks) {
    stack->sources().EnableTrace();
  }

  // The observation path a worker attaches when profiling and tracing.
  CountingBuf trace_bytes;
  std::ostream trace_stream(&trace_bytes);
  obs::JsonlSink sink(&trace_stream);
  obs::QueryTracer tracer;
  tracer.set_streaming_sink(&sink);
  obs::Profiler profiler;
  profiler.set_tracer(&tracer);
  for (const auto& stack : observed_stacks.stacks) {
    stack->sources().set_tracer(&tracer);
    stack->sources().set_profiler(&profiler);
  }

  // Served workloads plan through per-worker sessions whose plans the
  // server warms before it measures; the replay's sessions are warmed
  // the same way, so plan keys hit exactly as they do when served.
  std::vector<std::unique_ptr<QuerySession>> sessions;
  std::vector<std::unique_ptr<QuerySession>> observed_sessions;
  for (size_t s = 0; spec.served && s < spec.scorings.size(); ++s) {
    sessions.push_back(std::make_unique<QuerySession>(
        &corpus.scoring(s), planner_options, &hub));
    observed_sessions.push_back(std::make_unique<QuerySession>(
        &corpus.scoring(s), planner_options, &hub));
    observed_sessions.back()->set_tracer(&tracer);
    observed_sessions.back()->set_profiler(&profiler);
    for (size_t k = spec.k_min; k <= spec.k_max; ++k) {
      for (PassStacks* pass : {&session_stacks, &observed_stacks}) {
        SourceSet& sources = pass->stacks[0]->sources();
        sources.Reset();
        QuerySession& session = pass == &session_stacks
                                    ? *sessions.back()
                                    : *observed_sessions.back();
        TopKResult warm;
        NC_CHECK(session.Query(&sources, k, &warm).ok());
      }
    }
  }
  for (PassStacks* pass : {&session_stacks, &observed_stacks}) {
    if (pass->cache != nullptr) pass->cache->Clear();
  }
  // The server's cache starts cold too, like every pass's.
  setup.ClearCache();
  size_t plans_before = 0;
  for (const auto& session : sessions) plans_before += session->plans_computed();
  const uint64_t lines_before = sink.lines_written();
  const uint64_t bytes_before = trace_bytes.bytes();

  Totals t;
  std::vector<TopKResult> served_answers(n);
  const auto check = [&](const Request& r, const TopKResult& result,
                         const TopKResult* reference) {
    if (!corpus.Check(r, result) ||
        (reference != nullptr && !SameWork(result, *reference))) {
      ++out.wrong;
    }
  };
  // One timed call as a child span of the request.
  const auto timed = [&](const char* layer, size_t i, size_t parent,
                         const auto& call) {
    const size_t span = spans->Begin(layer, static_cast<int64_t>(i),
                                     static_cast<int64_t>(parent));
    const uint64_t start = NowNs();
    call();
    const uint64_t elapsed = NowNs() - start;
    spans->End(span);
    return static_cast<double>(elapsed);
  };

  for (size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    const ScoringFunction& scoring = corpus.scoring(r.scoring);
    const size_t root = spans->Begin("request", static_cast<int64_t>(i), -1);

    // --- Server, serially: the session plus the server's bookkeeping -----
    {
      Served served;
      bool ok = false;
      timed("server.serve", i, root, [&] { ok = setup.Serve(r, &served); });
      NC_CHECK(ok);
      t.serial_service_us += served.service_us;
      check(r, served.result, nullptr);
      served_answers[i] = std::move(served.result);
    }

    // --- Session, bare: what a server worker calls -----------------------
    SRGConfig plan_config;
    {
      SourceSet& sources = session_stacks.Prepare(r, true);
      TopKResult& result = out.answers[i];
      OptimizerResult plan;
      Status status;
      t.session_ns += timed("session.query", i, root, [&] {
        status = spec.served
                     ? sessions[r.scoring]->Query(&sources, r.k, &result)
                     : RunOptimizedNC(&sources, scoring, r.k, planner_options,
                                      &result, &plan);
      });
      NC_CHECK(status.ok());
      check(r, result, &served_answers[i]);
      plan_config =
          spec.served ? sessions[r.scoring]->last_plan().config : plan.config;
      const AccessStats& stats = sources.stats();
      for (PredicateId p = 0; p < sources.num_predicates(); ++p) {
        t.sorted_cost += stats.sorted_cost_accrued[p];
        t.random_cost += stats.random_cost_accrued[p];
      }
      t.sorted += static_cast<double>(stats.TotalSorted());
      t.random += static_cast<double>(stats.TotalRandom());
      t.retried += static_cast<double>(stats.TotalRetried());
      t.refusals += static_cast<double>(stats.budget_refusals);
      t.fast_failures += static_cast<double>(stats.breaker_fast_failures);
      t.failovers += static_cast<double>(stats.replica_failovers);
      t.hedges += static_cast<double>(stats.hedges_issued);
      t.hedge_wins += static_cast<double>(stats.hedge_wins);
    }

    // --- Session with the observation path, as a server worker runs it --
    {
      SourceSet& sources = observed_stacks.Prepare(r, true);
      profiler.Clear();
      obs::TraceContext context;
      context.trace_id = i + 1;
      context.request_id = i + 1;
      tracer.set_context(context);
      TopKResult result;
      Status status;
      t.observed_ns += timed("session.query+obs", i, root, [&] {
        status = spec.served
                     ? observed_sessions[r.scoring]->Query(&sources, r.k,
                                                           &result)
                     : RunOptimizedNC(&sources, scoring, r.k, planner_options,
                                      &result);
      });
      NC_CHECK(status.ok());
      hub.ObserveProfile(profiler.Report());
      tracer.clear_context();
      tracer.Clear();
      check(r, result, &out.answers[i]);
    }

    // --- Planner ---------------------------------------------------------
    {
      CostBasedPlanner planner(&scoring, planner_options);
      OptimizerResult plan;
      Status status;
      t.plan_ns += timed("planner.plan", i, root, [&] {
        status = planner.Plan(session_stacks.stacks[r.regime]->sources(), r.k,
                              &plan);
      });
      NC_CHECK(status.ok());
      t.simulations += static_cast<double>(plan.simulations);
      // The planner is deterministic: a different plan would mean the
      // replay is not doing the served work.
      if (plan.config.ToString() != plan_config.ToString()) ++out.wrong;
    }

    // --- Engine, bare, then decorated -------------------------------------
    EngineOptions options;
    options.k = r.k;
    {
      SourceSet& sources = engine_stacks.Prepare(r, true);
      SRGPolicy policy(plan_config);
      NCEngine engine(&sources, &scoring, &policy, options);
      TopKResult result;
      Status status;
      t.engine_ns +=
          timed("engine.run", i, root, [&] { status = engine.Run(&result); });
      NC_CHECK(status.ok());
      check(r, result, &out.answers[i]);
    }
    std::vector<Access> trace;
    {
      SourceSet& sources = decorated_stacks.Prepare(r, true);
      SRGPolicy policy(plan_config);
      TimedSelect select(&policy);
      NCEngine engine(&sources, &scoring, &select, options);
      provider.ResetCounters();
      TopKResult result;
      Status status;
      t.decorated_ns += timed("engine.run+decorators", i, root,
                              [&] { status = engine.Run(&result); });
      NC_CHECK(status.ok());
      check(r, result, &out.answers[i]);
      t.select_ns += static_cast<double>(select.ns()) -
                     static_cast<double>(select.calls()) * timer.inner_ns;
      t.select_calls += static_cast<double>(select.calls());
      t.provider_ns += static_cast<double>(provider.ns()) -
                       static_cast<double>(provider.calls()) * timer.inner_ns;
      t.provider_calls += static_cast<double>(provider.calls());
      trace = sources.trace();
      t.accesses += static_cast<double>(trace.size());
    }

    // --- Access seam: the decorated run's accesses, re-issued -------------
    {
      // Unbudgeted: the trace holds only accesses that were performed.
      SourceSet& sources = replay_stacks.Prepare(r, /*budgeted=*/false);
      provider.ResetCounters();
      const double elapsed = timed("access.replay", i, root, [&] {
        for (const Access& access : trace) {
          if (access.type == AccessType::kSorted) {
            std::optional<SortedHit> hit;
            (void)sources.TrySortedAccess(access.predicate, &hit);
          } else {
            Score score = 0.0;
            (void)sources.TryRandomAccess(access.predicate, access.object,
                                          &score);
          }
        }
      });
      const double calls = static_cast<double>(provider.calls());
      const double inside =
          static_cast<double>(provider.ns()) - calls * timer.inner_ns;
      t.seam_ns += elapsed - inside - calls * timer.outer_ns;
    }
    spans->End(root);
  }

  size_t plans_after = 0;
  for (const auto& session : sessions) plans_after += session->plans_computed();

  // --- Per-query means ----------------------------------------------------
  const auto per_query = [n](double total) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const auto us = [&](double ns) { return per_query(ns) / 1000.0; };
  const double plans_per_query =
      spec.served ? per_query(static_cast<double>(plans_after - plans_before))
                  : 1.0;
  const double plan_us = us(t.plan_ns);
  const double engine_us = us(t.engine_ns);
  const double select_us = us(t.select_ns);
  const double provider_us = us(t.provider_ns);
  const double seam_us = us(t.seam_ns);
  const double self_us = engine_us - select_us - seam_us - provider_us;
  const double accesses = per_query(t.accesses);
  const auto per_access_ns = [accesses](double us_per_query) {
    return accesses > 0.0 ? us_per_query * 1000.0 / accesses : 0.0;
  };

  // On observed workloads the served session carries the observation
  // path; session.other_us stays the bare remainder either way.
  const double session_us = us(spec.observed ? t.observed_ns : t.session_ns);
  const double serial_service_us = per_query(t.serial_service_us);

  std::vector<Metric>& m = out.metrics;
  SetMetric(&m, "server.serial_service_us", serial_service_us, "us");
  SetMetric(&m, "unattributed_us", serial_service_us - session_us, "us");
  SetMetric(&m, "session.query_us", session_us, "us");
  SetMetric(&m, "session.other_us",
            us(t.session_ns) - plans_per_query * plan_us - engine_us, "us");
  SetMetric(&m, "planner.plan_us", plan_us, "us");
  SetMetric(&m, "planner.plans_per_query", plans_per_query, "count");
  SetMetric(&m, "planner.simulations_per_plan", per_query(t.simulations),
            "count");
  SetMetric(&m, "planner.us_per_simulation",
            t.simulations > 0.0 ? t.plan_ns / t.simulations / 1000.0 : 0.0,
            "us");
  SetMetric(&m, "engine.run_us", engine_us, "us");
  SetMetric(&m, "engine.self_us", self_us, "us");
  SetMetric(&m, "engine.accesses_per_query", accesses, "count");
  SetMetric(&m, "engine.self_ns_per_access", per_access_ns(self_us), "ns");
  SetMetric(&m, "srg.select_us", select_us, "us");
  SetMetric(&m, "srg.select_calls_per_query", per_query(t.select_calls),
            "count");
  SetMetric(&m, "access.seam_us", seam_us, "us");
  SetMetric(&m, "access.seam_ns_per_access", per_access_ns(seam_us), "ns");
  SetMetric(&m, "access.sorted_per_query", per_query(t.sorted), "count");
  SetMetric(&m, "access.random_per_query", per_query(t.random), "count");
  SetMetric(&m, "access.sorted_cost_per_query", per_query(t.sorted_cost),
            "eq1");
  SetMetric(&m, "access.random_cost_per_query", per_query(t.random_cost),
            "eq1");
  SetMetric(&m, "access.retried_attempts_per_query", per_query(t.retried),
            "count");
  SetMetric(&m, "access.budget_refusals_per_query", per_query(t.refusals),
            "count");
  SetMetric(&m, "access.breaker_fast_failures_per_query",
            per_query(t.fast_failures), "count");
  SetMetric(&m, "replica.failovers_per_query", per_query(t.failovers),
            "count");
  SetMetric(&m, "replica.hedges_per_query", per_query(t.hedges), "count");
  SetMetric(&m, "replica.hedge_win_ratio",
            t.hedges > 0.0 ? t.hedge_wins / t.hedges : 0.0, "ratio");
  SetMetric(&m, "provider.calls_per_query", per_query(t.provider_calls),
            "count");
  SetMetric(&m, "provider.us", provider_us, "us");
  SetMetric(&m, "obs.trace_lines_per_query",
            per_query(static_cast<double>(sink.lines_written() - lines_before)),
            "count");
  SetMetric(&m, "obs.trace_bytes_per_query",
            per_query(static_cast<double>(trace_bytes.bytes() - bytes_before)),
            "B");
  SetMetric(&m, "obs.attach_us", us(t.observed_ns - t.session_ns), "us");
  SetMetric(&m, "trace_overhead_pct",
            t.engine_ns > 0.0
                ? 100.0 * (t.decorated_ns - t.engine_ns) / t.engine_ns
                : 0.0,
            "%");
  return out;
}

}  // namespace nc::ledger
