// Plan caching and cross-query telemetry for a middleware session.
//
// Optimization overhead is tiny per query (a few dozen sample
// simulations) but a busy middleware answers the same query shape
// thousands of times. QuerySession memoizes the planner's output keyed by
// (k, cost-model signature): repeated queries reuse the cached SR/G plan;
// a drifted cost model (the signature includes unit costs, page sizes,
// and attribute groups) or a new k re-plans automatically.
//
// The session also owns the TelemetryHub: each Query attaches it to the
// sources (and warms any replica fleet from the health snapshot captured
// at the previous query's Reset), so breaker states, EWMA latencies, and
// latency sketches outlive the per-query SourceSet rewind. After every
// run, the session diffs the plan's CostPrediction against the metered
// actuals into a CostAudit (last_cost_audit()), and mirrors the audit
// rows as kTelemetry trace events when a tracer is attached.

#ifndef NC_CORE_SESSION_H_
#define NC_CORE_SESSION_H_

#include <functional>
#include <string>
#include <unordered_map>

#include "access/source.h"
#include "common/status.h"
#include "core/planner.h"
#include "core/result.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "scoring/scoring_function.h"

namespace nc {

class NCEngine;

// Disposition of the most recent QuerySession::Query, finer-grained than
// the exact/inexact split: a budget-barred certified answer is a very
// different operational signal than one degraded by source failures.
enum class QueryOutcome {
  kNone,             // no query answered yet
  kExact,            // completed with the exact top-k
  kApproximate,      // completed under theta-approximation
  kDegraded,         // truncated by source failure or the access cap
  kBudgetExhausted,  // truncated by a cost/deadline/quota bar
  kError,            // Query returned a non-OK status
};

const char* QueryOutcomeName(QueryOutcome outcome);

// Embedder hooks into one QuerySession::Query execution. The query
// server uses them to interleave wall-clock pacing and graceful-drain
// interception with the engine's iteration without owning the engine.
struct QueryHooks {
  // Invoked after every performed access, on the querying thread, with
  // the live engine (it is legal to Checkpoint() here - the engine is
  // between iterations) and the running access count. The hook may
  // mutate the SourceSet's budget (same thread, between accesses) to
  // force certified early termination - the drain mechanism.
  std::function<void(NCEngine& engine, size_t accesses)> on_access;
};

class QuerySession {
 public:
  // `scoring` must outlive the session. With `shared_hub` set, the
  // session feeds and warms that hub instead of its own - the query
  // server hands every worker's session one server-wide hub so breaker
  // state, deaths, and latency sketches are shared across workers (the
  // hub is internally synchronized; see obs/telemetry.h). The shared hub
  // must outlive the session.
  QuerySession(const ScoringFunction* scoring, PlannerOptions options,
               obs::TelemetryHub* shared_hub = nullptr);

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  // Answers a top-k query over `sources` (rewound by the caller), planning
  // only when no cached plan matches the sources' current cost model.
  Status Query(SourceSet* sources, size_t k, TopKResult* out);

  // As above, with per-access hooks (see QueryHooks).
  Status Query(SourceSet* sources, size_t k, const QueryHooks& hooks,
               TopKResult* out);

  // Number of planner invocations and of queries served from the cache.
  size_t plans_computed() const { return plans_computed_; }
  size_t cache_hits() const { return cache_hits_; }

  // The plan used by the most recent Query.
  const OptimizerResult& last_plan() const { return last_plan_; }

  // The session's cross-query telemetry hub (the shared one when the
  // session was constructed with it). Attached to the sources on every
  // Query; disable it (hub().Disable()) to opt out of sampling — query
  // answers are bit-identical either way on fault-free runs.
  obs::TelemetryHub& hub() { return *active_hub_; }
  const obs::TelemetryHub& hub() const { return *active_hub_; }

  // Attaches a tracer that every subsequent Query attaches to the
  // sources, where every layer reads it: one per-request timeline without
  // the embedder reaching into the SourceSet. nullptr detaches: the
  // session then leaves whatever tracer the caller set on the sources.
  // The tracer must outlive the session (or be detached first) and is
  // used from the querying thread only.
  void set_tracer(obs::QueryTracer* tracer) { tracer_ = tracer; }

  // Attaches a profiler (obs/profiler.h) that every subsequent Query
  // attaches to the sources, exactly as set_tracer does for tracers. The
  // session only *attaches* it: the owner decides when to Clear(), add
  // external cost centers (e.g. queue wait), and build the per-query
  // ProfileReport — the session never resets or reads it. Must outlive
  // the session (or be detached with nullptr first); used from the
  // querying thread only.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  // Predicted-vs-actual Eq. 1 audit of the most recent Query (invalid
  // before the first one or when the run errored out pre-execution).
  const obs::CostAudit& last_cost_audit() const { return last_cost_audit_; }

  // Disposition of the most recent Query; kNone before the first one.
  QueryOutcome last_query_outcome() const { return last_query_outcome_; }

 private:
  static std::string PlanKey(const CostModel& model, size_t k);

  const ScoringFunction* scoring_;
  PlannerOptions options_;
  std::unordered_map<std::string, OptimizerResult> cache_;
  OptimizerResult last_plan_;
  obs::TelemetryHub hub_;
  // Either &hub_ (the default) or the shared hub the session was
  // constructed with.
  obs::TelemetryHub* active_hub_ = nullptr;
  obs::QueryTracer* tracer_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::CostAudit last_cost_audit_;
  size_t plans_computed_ = 0;
  size_t cache_hits_ = 0;
  QueryOutcome last_query_outcome_ = QueryOutcome::kNone;
};

}  // namespace nc

#endif  // NC_CORE_SESSION_H_
