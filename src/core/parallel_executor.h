// Bounded-concurrency execution (Section 9.1.1).
//
// Web sources serve concurrent requests, so elapsed time can drop below
// total cost - but unrestrained concurrency wastes resources. The paper's
// position: parallelize the cost-minimal *sequential* plan within a
// concurrency limit. NCEngine does exactly that when
// EngineOptions::concurrency exceeds 1: its in-flight window simulates
// each access's latency, scheduling decisions use only results that have
// landed, and the plan policy (the same SelectPolicy as the sequential
// run) still drives which access is issued for which unsatisfied task.
// RunParallelNC runs such an engine and reports the simulated makespan
// beside the answer.

#ifndef NC_CORE_PARALLEL_EXECUTOR_H_
#define NC_CORE_PARALLEL_EXECUTOR_H_

#include "access/source.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

struct ParallelResult {
  TopKResult topk;
  // Simulated makespan (NCEngine::makespan).
  double elapsed_time = 0.0;
  // Total access cost (Eq. 1), including wasted in-flight accesses.
  double total_cost = 0.0;
  size_t accesses_issued = 0;
  // Accesses still in flight when the top-k settled: past the exact
  // answer, or landing after the deadline of an early stop.
  size_t wasted_accesses = 0;
  // Issue attempts that failed unrecoverably (retries exhausted or the
  // source died) and were skipped.
  size_t failed_accesses = 0;
  // False when the answer is an anytime one (a budget, the access cap or
  // source failure forced an early settle, or theta > 1); reported scores
  // are then upper bounds and `topk.certificate` carries the proven
  // intervals and epsilon.
  bool exact = true;
};

// Runs the query once on an NCEngine with `options`, inside the sources'
// tracer's "parallel" phase span. `policy` drives access selection
// exactly as in the sequential engine.
Status RunParallelNC(SourceSet* sources, const ScoringFunction& scoring,
                     SelectPolicy* policy, const EngineOptions& options,
                     ParallelResult* out);

}  // namespace nc

#endif  // NC_CORE_PARALLEL_EXECUTOR_H_
