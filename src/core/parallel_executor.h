// Bounded-concurrency execution (Section 9.1.1).
//
// Web sources serve concurrent requests, so elapsed time can drop below
// total cost - but unrestrained concurrency wastes resources. The paper's
// position: parallelize the cost-minimal *sequential* plan within a
// concurrency limit. This executor does exactly that with a discrete-event
// simulation: up to `concurrency` accesses are in flight at once, each
// completing after its simulated latency; scheduling decisions use only
// information whose access has completed, while the plan policy (the same
// SelectPolicy as the sequential engine) still drives which access is
// issued for which unsatisfied task. An early stop (a budget, a deadline,
// persistent failures) first applies every result in flight that lands
// by the deadline; accesses still in flight when the answer settles are
// counted as wasted (they were paid for).

#ifndef NC_CORE_PARALLEL_EXECUTOR_H_
#define NC_CORE_PARALLEL_EXECUTOR_H_

#include "access/source.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

struct ParallelOptions {
  size_t k = 1;
  // Maximum accesses in flight; 1 degenerates to the sequential engine's
  // behavior (elapsed == total cost when latency == unit cost).
  size_t concurrency = 4;
  // Extra *speculative* sorted accesses allowed per scheduling epoch (the
  // span between two completions), beyond the one access each unsatisfied
  // task may issue. Speculation reads streams ahead of proven need: it
  // can deepen pipelining (more elapsed-time speedup) but pays for reads
  // the sequential plan might never perform - the paper's "unrestrained
  // concurrency abuses resources" trade-off, exposed as a dial.
  size_t max_speculation = 0;

  // Like the sequential engine, the executor degrades under source
  // failure: unrecoverable accesses are skipped and the run completes on
  // the surviving capabilities, falling back to a certified anytime
  // answer (ParallelResult::exact false) when a death leaves the query
  // unsatisfiable.
  //
  // Budgets (QueryBudget) attach to the SourceSet (set_budget), not here:
  // the access layer refuses accesses past the cap and the executor
  // settles with a certified answer. The wall deadline is enforced both
  // against the sources' cost clock and against the simulated makespan -
  // whichever trips first ends the run (conservative under concurrency,
  // where makespan runs behind total cost).
  // So do observers: a tracer on the SourceSet gets a "parallel" phase
  // span and one kIteration event per scheduling epoch, against the
  // *visible* ceiling.
};

struct ParallelResult {
  TopKResult topk;
  // Simulated makespan.
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
  // False when the answer is an anytime one (budget exhaustion or source
  // failure forced an early settle); reported scores are then upper
  // bounds and `topk.certificate` carries the proven intervals and
  // epsilon.
  bool exact = true;
};

// Runs the query with bounded concurrency. `policy` drives access
// selection exactly as in the sequential engine.
Status RunParallelNC(SourceSet* sources, const ScoringFunction& scoring,
                     SelectPolicy* policy, const ParallelOptions& options,
                     ParallelResult* out);

}  // namespace nc

#endif  // NC_CORE_PARALLEL_EXECUTOR_H_
