// RunReport: the one-stop summary of a finished query execution.
//
// Where the tracer answers "what happened, in order", the report answers
// "where did the cost go": the Eq. 1 split ns_i*cs_i + nr_i*cr_i per
// predicate and access type (priced access-by-access, so retries and
// mid-run cost swaps are included), the bound-convergence timeline of
// the ceiling threshold theta versus the k-th bound per unit cost, the
// fault/retry tallies, and wall-clock time. It renders as aligned text
// (the replacement for the ad-hoc printing that used to live in
// explain.cc and the bench harness) and as JSON (the machine-readable
// form every bench binary emits).
//
// Invariant: the per-predicate cost cells sum to total_cost exactly -
// both come from the same per-access accounting in SourceSet - so the
// report *is* the Eq. 1 cross-check (asserted in run_report_test.cc).

#ifndef NC_OBS_RUN_REPORT_H_
#define NC_OBS_RUN_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "access/source.h"
#include "core/estimator.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace nc::obs {

// One predicate's row of the Eq. 1 breakdown.
struct PredicateCost {
  std::string name;
  size_t sorted_accesses = 0;
  size_t random_accesses = 0;
  double sorted_cost = 0.0;
  double random_cost = 0.0;
  size_t retried_attempts = 0;
  bool source_down = false;
  // The replica fleet's completion latencies on this predicate, in access
  // order (empty without a fleet on it).
  std::vector<double> completion_latencies;
};

// One replica's row of the fleet breakdown (fleet runs only): its share
// of the Eq. 1 cost and the completion latencies of the accesses it won.
struct ReplicaCost {
  std::string predicate;
  std::string replica;
  size_t served = 0;
  size_t failovers = 0;      // Accesses that failed over away from it.
  size_t breaker_trips = 0;
  size_t hedges_issued = 0;  // Hedge requests issued to it.
  size_t hedge_wins = 0;
  double cost = 0.0;
  double mean_latency = 0.0;
  double max_latency = 0.0;
  bool dead = false;
};

// One predicate's predicted-vs-actual row of the cost audit: the
// optimizer's full-scale prediction (CostPrediction, Section 7.3's
// simulation estimate scaled by n / s) against the metered AccessStats
// of the real run. Counts are fractional on the predicted side.
struct PredicateAudit {
  std::string name;
  double predicted_sorted = 0.0;
  double actual_sorted = 0.0;
  double predicted_random = 0.0;
  double actual_random = 0.0;
  double predicted_cost = 0.0;
  double actual_cost = 0.0;
  // actual - predicted, and the symmetric relative error
  // |actual - predicted| / max(actual, predicted) in [0, 1] (0 when both
  // sides are 0), which stays finite when either side vanishes.
  double cost_error = 0.0;
  double cost_relative_error = 0.0;
};

// The audit of Eq. 1's prediction quality for one finished run. Only
// meaningful when the run executed the predicted plan on the predicted
// scenario (the planner's own flow guarantees this; ad-hoc runs may
// diff against any prediction they like).
struct CostAudit {
  bool valid = false;
  std::vector<PredicateAudit> predicates;
  double predicted_total = 0.0;
  double actual_total = 0.0;
  double total_error = 0.0;           // actual - predicted
  double total_relative_error = 0.0;  // symmetric, in [0, 1]
};

// Diffs `prediction` against the metered run in `sources`. Invalid when
// the prediction is invalid or its arity does not match.
CostAudit BuildCostAudit(const CostPrediction& prediction,
                         const SourceSet& sources);

// One sample of the bound-convergence timeline, taken per engine
// iteration: how the ceiling closes in on the k-th bound as cost is
// spent. `threshold` is monotonically non-increasing over a run.
struct ConvergencePoint {
  double cost = 0.0;       // Accrued cost when the sample was taken.
  double threshold = 0.0;  // Ceiling theta = F(last-seen bounds).
  double kth_bound = 0.0;  // Bound of the current k-th entry.
};

struct RunReport {
  std::string algorithm;  // "NC", "TA", ... (empty when unknown).
  size_t k = 0;

  // Eq. 1 totals and per-predicate split.
  double total_cost = 0.0;
  size_t total_sorted = 0;
  size_t total_random = 0;
  size_t duplicate_random = 0;
  std::vector<PredicateCost> predicates;

  // Fault layer tallies (all zero in fault-free runs).
  size_t retried_attempts = 0;
  size_t transient_failures = 0;
  size_t timeout_failures = 0;
  size_t abandoned_accesses = 0;
  size_t source_deaths = 0;

  // Resilience layer: circuit-breaker trips / unbilled fast-failures and
  // accesses refused by a budget, deadline, or quota bar.
  size_t breaker_trips = 0;
  size_t breaker_fast_failures = 0;
  size_t budget_refusals = 0;

  // Cross-query cache (all zero without an AccessCache attached):
  // accesses served from the shared cache instead of the source, and the
  // hit cost they accrued. The gap between this query's total_cost and
  // what the same accesses would have cost uncached is the sharing win
  // the CostAudit's predicted-vs-actual error also surfaces.
  size_t cache_sorted_hits = 0;
  size_t cache_random_hits = 0;
  size_t cache_inflight_merges = 0;
  double cache_hit_cost = 0.0;

  // Replica fleet (empty / zero without one attached).
  size_t replica_failovers = 0;
  size_t hedges_issued = 0;
  size_t hedge_wins = 0;
  std::vector<ReplicaCost> replicas;

  // Certified anytime answer, from the run's last kCertificate trace
  // event (absent without a tracer or when the run completed normally).
  bool certified = false;
  std::string termination_reason;  // "CostBudget", "Deadline", ...
  double certified_epsilon = 0.0;  // May be +inf (rendered null in JSON).

  // Predicted-vs-actual cost audit (valid only when BuildRunReport was
  // handed the plan's CostPrediction).
  CostAudit cost_audit;

  // From tracer iteration events; empty without a tracer.
  std::vector<ConvergencePoint> convergence;

  // Per-cost-center time/allocation breakdown (obs/profiler.h); empty
  // without a profiler.
  ProfileReport profile;

  double wall_ms = 0.0;

  // Aligned multi-line text rendering.
  std::string ToText() const;
  // Single JSON object (no trailing newline).
  std::string ToJson() const;
};

// Snapshots `sources` (and, when given, the tracer's iteration events)
// into a report. Call after the run, before Reset(). With a
// `prediction` (the executed plan's CostPrediction), the report also
// carries the cost audit. With a `profiler` (the one attached for the
// run), the report carries its per-cost-center breakdown.
RunReport BuildRunReport(const SourceSet& sources,
                         const QueryTracer* tracer = nullptr,
                         std::string algorithm = "", size_t k = 0,
                         const CostPrediction* prediction = nullptr,
                         const Profiler* profiler = nullptr);

class MetricsRegistry;

// Folds one finished run into `registry` under {algorithm=
// report.algorithm}: the one bridge from a run to /metrics, so every
// embedder exports the same series. Access, fault and replica counters
// that would read zero are skipped.
//   nc_accesses_total, nc_access_cost_total{predicate,type},
//   nc_access_retries_total{predicate}, nc_access_faults_total{kind},
//   nc_duplicate_random_total, nc_breaker_trips_total,
//   nc_breaker_fast_failures_total, nc_budget_refusals_total;
// from the replica rows: nc_replica_{accesses,cost,failovers}_total
//   {predicate,replica}, nc_hedges_issued_total, nc_hedge_wins_total,
//   and the nc_hedge_win_rate (one observation per predicate) and
//   nc_replica_completion_latency histograms;
// from a valid cost audit: nc_cost_{predicted,actual}_total{predicate}
//   and the nc_cost_audit_relative_error histogram (per predicate and
//   the total);
// from the profile: nc_profile_{count,total_ns,self_ns}_total{center},
//   plus nc_profile_alloc{,_bytes}_total with allocation accounting.
// Replica rows belong to the predicate row of the same name.
void RecordRunMetrics(MetricsRegistry* registry, const RunReport& report);

}  // namespace nc::obs

#endif  // NC_OBS_RUN_REPORT_H_
