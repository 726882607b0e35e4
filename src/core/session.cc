#include "core/session.h"

#include "common/check.h"
#include "core/engine.h"
#include "core/srg_policy.h"

namespace nc {

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kNone:
      return "none";
    case QueryOutcome::kExact:
      return "exact";
    case QueryOutcome::kApproximate:
      return "approximate";
    case QueryOutcome::kDegraded:
      return "degraded";
    case QueryOutcome::kBudgetExhausted:
      return "budget_exhausted";
    case QueryOutcome::kError:
      return "error";
  }
  return "unknown";
}

QuerySession::QuerySession(const ScoringFunction* scoring,
                           PlannerOptions options,
                           obs::TelemetryHub* shared_hub)
    : scoring_(scoring),
      options_(options),
      active_hub_(shared_hub != nullptr ? shared_hub : &hub_) {
  NC_CHECK(scoring_ != nullptr);
}

std::string QuerySession::PlanKey(const CostModel& model, size_t k) {
  std::string key = "k=" + std::to_string(k) + "|" + model.ToString();
  key += "|pages=";
  for (size_t b : model.sorted_page_size) {
    key += std::to_string(b);
    key += ",";
  }
  key += "|groups=";
  for (int g : model.attribute_groups) {
    key += std::to_string(g);
    key += ",";
  }
  return key;
}

Status QuerySession::Query(SourceSet* sources, size_t k, TopKResult* out) {
  return Query(sources, k, QueryHooks{}, out);
}

Status QuerySession::Query(SourceSet* sources, size_t k,
                           const QueryHooks& hooks, TopKResult* out) {
  NC_CHECK(sources != nullptr);
  NC_CHECK(out != nullptr);
  // A query counts as failed until it answers, so an error return never
  // reports the previous query's outcome or audit.
  last_query_outcome_ = QueryOutcome::kError;
  last_cost_audit_ = obs::CostAudit{};
  // The session's hub outlives every per-query SourceSet rewind: attach
  // it before planning so a replica fleet starts warm (breakers, deaths,
  // and EWMAs from earlier queries re-applied) and this query's accesses
  // feed the cross-query sketches.
  sources->set_telemetry_hub(active_hub_);
  // A session-attached tracer covers the whole stack, because every
  // layer reads it from the sources. Detached (nullptr), the caller's own
  // sources tracer (if any) is left in place.
  if (tracer_ != nullptr) sources->set_tracer(tracer_);
  // Same contract for a session-attached profiler: attached before
  // planning so optimizer simulations bill to the query it plans for.
  if (profiler_ != nullptr) sources->set_profiler(profiler_);
  const std::string key = PlanKey(sources->cost_model(), k);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    CostBasedPlanner planner(scoring_, options_);
    OptimizerResult plan;
    NC_RETURN_IF_ERROR(planner.Plan(*sources, k, &plan));
    ++plans_computed_;
    it = cache_.emplace(key, std::move(plan)).first;
  } else {
    ++cache_hits_;
  }
  last_plan_ = it->second;

  SRGPolicy policy(it->second.config);
  EngineOptions engine_options;
  engine_options.k = k;
  // The hook closes over a pointer filled right after construction: the
  // engine cannot invoke the callback before Run().
  NCEngine* engine_ptr = nullptr;
  if (hooks.on_access) {
    engine_options.access_callback = [&hooks, &engine_ptr](size_t accesses) {
      hooks.on_access(*engine_ptr, accesses);
    };
  }
  NCEngine engine(sources, scoring_, &policy, engine_options);
  engine_ptr = &engine;
  const Status status = engine.Run(out);

  // The cost audit: the plan's full-scale Eq. 1 prediction against the
  // metered actuals of the run just finished (before any caller Reset).
  last_cost_audit_ = obs::BuildCostAudit(it->second.prediction, *sources);
  if (last_cost_audit_.valid && obs::ShouldSample(active_hub_)) {
    for (PredicateId i = 0; i < last_cost_audit_.predicates.size(); ++i) {
      const obs::PredicateAudit& row = last_cost_audit_.predicates[i];
      active_hub_->ObservePredictionError(i, row.cost_relative_error);
    }
  }
  if (obs::ShouldTrace(sources->tracer())) {
    obs::QueryTracer* tracer = sources->tracer();
    if (last_cost_audit_.valid) {
      for (PredicateId i = 0; i < last_cost_audit_.predicates.size(); ++i) {
        const obs::PredicateAudit& row = last_cost_audit_.predicates[i];
        tracer->RecordTelemetry("cost_audit", i, row.predicted_cost,
                                row.actual_cost, sources->accrued_cost());
      }
      tracer->RecordTelemetry("cost_audit_total", 0,
                              last_cost_audit_.predicted_total,
                              last_cost_audit_.actual_total,
                              sources->accrued_cost());
    }
  }
  active_hub_->NoteQuery();

  if (!status.ok()) return status;
  if (out->certificate.has_value()) {
    switch (out->certificate->reason) {
      case TerminationReason::kCostBudget:
      case TerminationReason::kDeadline:
      case TerminationReason::kQuota:
        last_query_outcome_ = QueryOutcome::kBudgetExhausted;
        break;
      case TerminationReason::kTheta:
        last_query_outcome_ = QueryOutcome::kApproximate;
        break;
      case TerminationReason::kSourceFailure:
      case TerminationReason::kAccessCap:
        last_query_outcome_ = QueryOutcome::kDegraded;
        break;
    }
  } else if (engine.last_run_degraded()) {
    last_query_outcome_ = QueryOutcome::kDegraded;
  } else if (engine.last_run_exact()) {
    last_query_outcome_ = QueryOutcome::kExact;
  } else {
    last_query_outcome_ = QueryOutcome::kApproximate;
  }
  return status;
}

}  // namespace nc
