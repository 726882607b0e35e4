#include "core/parallel_executor.h"

#include "common/check.h"
#include "obs/tracer.h"

namespace nc {

Status RunParallelNC(SourceSet* sources, const ScoringFunction& scoring,
                     SelectPolicy* policy, const EngineOptions& options,
                     ParallelResult* out) {
  NC_CHECK(sources != nullptr);
  NC_CHECK(out != nullptr);
  NCEngine engine(sources, &scoring, policy, options);
  obs::QueryTracer* const tracer = sources->tracer();
  const bool tracing = obs::ShouldTrace(tracer);
  if (tracing) tracer->BeginPhase("parallel");
  const Status status = engine.Run(&out->topk);
  if (tracing) tracer->EndPhase("parallel");
  out->elapsed_time = engine.makespan();
  out->total_cost = sources->accrued_cost();
  out->accesses_issued = engine.accesses_performed();
  out->wasted_accesses = engine.in_flight();
  out->failed_accesses = engine.failed_accesses();
  out->exact = engine.last_run_exact();
  return status;
}

}  // namespace nc
