// Web sources: the single gateway through which every algorithm (the NC
// engine and all baselines) touches scores.
//
// A SourceSet wraps a ScoreProvider (by default the Dataset-backed
// simulation substrate) with the capability/cost matrix of a scenario. It
// implements the two access primitives of Section 3.2 with their defining
// behaviors:
//   * TrySortedAccess(i) is progressive - each call returns the next
//     object in descending p_i order - and has the side effect of
//     lowering the last-seen score l_i, which bounds every still-unseen
//     object.
//   * TryRandomAccess(i, u) returns p_i[u] exactly and should never be
//     repeated (repeats are tolerated but counted separately so tests can
//     assert algorithms do not waste them).
//
// All accounting (access counts, accrued cost per Eq. 1) happens here, so
// benchmark numbers cannot drift from what algorithms actually did. The
// unit-cost vector may be swapped mid-run (set_cost_model) to model the
// dynamic Web; cost accrues at the rate in force when the access happens.
//
// --- The access path -----------------------------------------------------
// Every access, sorted or random, plain or replicated, fresh or cached,
// takes one path through TrySortedAccess / TryRandomAccess:
//   1. capability and budget checks (a refusal bills nothing);
//   2. the cross-query cache probe (set_access_cache);
//   3. AttemptAccess: the plain source's circuit breaker or the fleet's
//      routing and failover, both driving the one retry loop
//      (RunAttempts) and the one breaker-trip rule (TripBreaker);
//   4. Book(), exactly once per served access, which bumps its count and
//      writes its Eq. 1 cell, attempt-trace entry and tracer event.
// accrued_cost() is written in exactly three places: failed attempts in
// RunAttempts, hedge requests in CompleteFleetRequest, and served
// accesses in Book. The per-predicate cells of AccessStats are written
// alongside, so the two always agree.
//
// --- Failure model -----------------------------------------------------
// Autonomous sources fail. With a FaultInjector attached, every access
// attempt may draw a transient error, a timeout, or permanent source
// death (see access/fault.h). SourceSet retries failed attempts per its
// RetryPolicy, charging each attempt (retries inflate accrued_cost() and
// the AccessStats fault counters but never change what an access
// returns, its cursor effects, or the trace). Both entry points return
// kUnavailable when retries are exhausted or the source is down, leaving
// cursors, bounds, and probed-state untouched. A permanent death
// downgrades the capability in the cost model itself (through the
// set_cost_model guard path, which permits capability removal but never
// addition), so has_sorted/has_random, planners, and plan caches all
// observe the degraded scenario. The engines degrade around such a
// failure; TG and the baselines return it.
//
// --- Budgets and the circuit breaker ------------------------------------
// With a QueryBudget attached (set_budget), every access first checks the
// cost cap, the deadline, and the predicate's quota; a barred access is
// refused with kResourceExhausted *before anything is billed* and counted
// once in AccessStats::budget_refusals, so the accrued cost can overshoot
// the cap by at most one access's worst case. That refusal is the one
// budget check: the engines and the baselines settle it with a certified
// anytime answer (core/result.h's BudgetStopReason names why), TG returns
// it, and the engines also read quota_exhausted() to steer around a
// quota-spent predicate.
// With a CircuitBreakerPolicy attached (set_circuit_breaker), a predicate
// whose accesses keep getting abandoned trips open and fast-fails
// (kUnavailable, nothing billed, nothing drawn from the injector) until a
// cooldown admits a half-open probe (breaker_open()).

#ifndef NC_ACCESS_SOURCE_H_
#define NC_ACCESS_SOURCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "access/access.h"
#include "access/budget.h"
#include "access/cost_model.h"
#include "access/fault.h"
#include "access/score_provider.h"
#include "access/trace_format.h"
#include "common/rng.h"
#include "common/score.h"
#include "common/status.h"
#include "data/dataset.h"
#include "replica/replica.h"

namespace nc::obs {
class QueryTracer;
class TelemetryHub;
class Profiler;
}  // namespace nc::obs

namespace nc::cache {
class AccessCache;
}  // namespace nc::cache

namespace nc {

// Result of one sorted access: the next-ranked object and its exact score
// on the accessed predicate, plus - for multi-attribute sources
// (CostModel::attribute_groups) - the object's scores on every other
// predicate the same source row carries.
struct SortedHit {
  ObjectId object = 0;
  Score score = 0.0;
  std::vector<std::pair<PredicateId, Score>> bundled;
};

// Per-scenario access counters.
struct AccessStats {
  std::vector<size_t> sorted_count;
  std::vector<size_t> random_count;
  // Cost accrued per predicate and access type, priced access-by-access
  // exactly like SourceSet::accrued_cost() (page charges land on the
  // sorted side; each failed attempt's retry charge lands on the type
  // being attempted). Invariant: the sums over both vectors equal
  // accrued_cost() - the Eq. 1 split the observability layer reports.
  std::vector<double> sorted_cost_accrued;
  std::vector<double> random_cost_accrued;
  // Random accesses that repeated an earlier (predicate, object) probe.
  size_t duplicate_random_count = 0;

  // --- Fault-tolerance counters (all zero in fault-free runs) ----------
  // Failed attempts that were retried, per predicate.
  std::vector<size_t> retried_attempts;
  // Attempts that failed with a transient error / a timeout.
  size_t transient_failures = 0;
  size_t timeout_failures = 0;
  // Accesses abandoned after exhausting RetryPolicy::max_attempts.
  size_t abandoned_accesses = 0;
  // Permanent source deaths observed (one per predicate whose
  // capabilities were downgraded).
  size_t source_deaths = 0;

  // --- Budget / circuit-breaker counters -------------------------------
  // Circuit-breaker trips per predicate (closed/half-open -> open). With
  // a replica fleet attached, per-replica trips aggregate here.
  std::vector<size_t> breaker_trips;
  // Accesses refused instantly by an open breaker (nothing billed). With
  // a fleet, counted only when *every* replica is open and cooling.
  size_t breaker_fast_failures = 0;
  // Accesses refused by the budget (cost cap, deadline, or quota) before
  // anything was billed.
  size_t budget_refusals = 0;

  // --- Replica-fleet counters (all zero without a fleet) ---------------
  // Accesses that moved on from a failing replica to the next healthy
  // one instead of abandoning the predicate.
  size_t replica_failovers = 0;
  // Hedge requests issued (each billed a full extra request) and hedges
  // whose second response arrived first.
  size_t hedges_issued = 0;
  size_t hedge_wins = 0;

  size_t TotalSorted() const;
  size_t TotalRandom() const;
  size_t TotalRetried() const;
  size_t TotalBreakerTrips() const;

  // Prices the counters against `model` (Eq. 1). Only meaningful for
  // static cost scenarios; dynamic runs (and runs with retries, which
  // are charged per attempt) should use SourceSet::accrued_cost().
  double TotalCost(const CostModel& model) const;
};

// A full snapshot of one SourceSet's mid-run state, sufficient to resume
// a query on an identically configured SourceSet (same dataset/provider,
// scenario, retry policy, budget, breaker policy, seeds, and injector
// configuration) with bit-identical behavior and zero re-issued accesses.
// Configuration itself is deliberately *not* captured: a checkpoint is
// state, the scenario is code. Produced by SourceSet::Checkpoint(),
// consumed by SourceSet::RestoreCheckpoint(); serialized (with the engine
// state around it) by core/checkpoint.*.
struct SourceCheckpoint {
  // Sorted cursors. The last-seen scores l_i are a function of them and
  // are re-derived on restore, not stored.
  std::vector<size_t> positions;
  AccessStats stats;
  double accrued_cost = 0.0;
  double last_access_penalty = 0.0;
  double total_penalty = 0.0;
  // Probed-predicate bitmasks, sorted by object for deterministic
  // serialization.
  std::vector<std::pair<ObjectId, uint64_t>> probed;
  // Current unit costs (reflecting mid-run deaths and dynamic swaps).
  std::vector<double> sorted_cost;
  std::vector<double> random_cost;
  std::vector<bool> source_down;
  // Circuit-breaker runtime state (empty when no breaker is configured).
  std::vector<size_t> breaker_consecutive;
  std::vector<bool> breaker_open;
  std::vector<double> breaker_open_until;
  // RNG stream states (Rng::SerializeState tokens).
  std::string latency_rng_state;
  std::string retry_rng_state;
  // Fault-injector state; has_injector records whether one was attached
  // (restore requires the same).
  bool has_injector = false;
  std::string injector_rng_state;
  std::vector<std::pair<PredicateId, size_t>> injector_attempts;
  std::vector<std::pair<PredicateId, size_t>> injector_script_pos;
  // Attempt trace (empty unless tracing was enabled); the classic access
  // trace is rebuilt from it on restore.
  bool trace_enabled = false;
  std::vector<AccessAttempt> attempt_trace;
  // Replica-fleet routing state; has_fleet records whether one was
  // attached (restore requires the same).
  bool has_fleet = false;
  ReplicaFleetState fleet_state;
};

class SourceSet {
 public:
  // Simulation substrate: `data` must outlive the SourceSet. `cost` must
  // validate and match data->num_predicates().
  SourceSet(const Dataset* data, CostModel cost);

  // Custom backing: `provider` must outlive the SourceSet. Use this to
  // serve live sources; the planner falls back to dummy-uniform samples
  // (no Dataset to draw from).
  SourceSet(ScoreProvider* provider, CostModel cost);

  size_t num_predicates() const { return provider_->num_predicates(); }
  size_t num_objects() const { return provider_->num_objects(); }

  // True when backed by an in-memory Dataset (dataset() is then legal).
  bool has_dataset() const { return data_ != nullptr; }
  const Dataset& dataset() const {
    NC_CHECK(data_ != nullptr);
    return *data_;
  }

  bool has_sorted(PredicateId i) const { return cost_.has_sorted(i); }
  bool has_random(PredicateId i) const { return cost_.has_random(i); }

  // Performs one sorted access on predicate i. On OK, *out is the hit (or
  // nullopt when the stream is exhausted). Returns kResourceExhausted when
  // the budget refuses the access, and kUnavailable when the source is
  // down or every retry attempt failed; the cursor, last_seen bound,
  // stats counts, and trace are untouched by a failed access (only cost
  // and the fault counters advance). Must not be called on a predicate
  // that never supported sorted access.
  Status TrySortedAccess(PredicateId i, std::optional<SortedHit>* out);

  // Performs one random access for p_i[u]; same contract as
  // TrySortedAccess.
  Status TryRandomAccess(PredicateId i, ObjectId u, Score* out);

  // The last-seen score l_i from sorted accesses on predicate i: the upper
  // bound for any object not yet returned by sa_i. 1.0 before the first
  // access; 0.0 once the source is exhausted (no unseen object remains, so
  // the bound is vacuous). A dead source's l_i stays frozen at its last
  // value - still a sound bound, since object scores do not change.
  Score last_seen(PredicateId i) const { return last_seen_[i]; }
  // All m of them, the ceilings of Eq. 3.
  std::span<const Score> last_seen() const { return last_seen_; }

  // True once every object has been returned by sa_i.
  bool exhausted(PredicateId i) const {
    return positions_[i] >= provider_->num_objects();
  }

  // Number of sorted accesses performed so far on predicate i.
  size_t sorted_position(PredicateId i) const { return positions_[i]; }

  ScoreProvider& provider() const { return *provider_; }

  const CostModel& cost_model() const { return cost_; }

  // Swaps the unit costs mid-run (dynamic Web scenario). Capabilities may
  // be *removed* (a live source can degrade or die) but never added: an
  // access type that was impossible stays impossible for the run.
  Status set_cost_model(CostModel cost);

  // --- Query budget ----------------------------------------------------
  // Attaches a budget (validated against num_predicates()); every access
  // is checked against it before anything is billed. The budget
  // is configuration: it persists across Reset(). Replace it with a
  // default-constructed QueryBudget to lift all limits.
  Status set_budget(QueryBudget budget);
  const QueryBudget& budget() const { return budget_; }

  // Elapsed time on the paper's Eq. 1 clock: accrued cost plus every
  // simulated penalty served so far (timeouts, backoff waits). The
  // sequential engines check the deadline against this; the parallel
  // executor additionally enforces it on its makespan.
  double elapsed_time() const { return accrued_cost_ + total_penalty_; }

  // True when the accrued cost reached the cost cap.
  bool cost_budget_exhausted() const {
    return budget_.max_cost > 0.0 && accrued_cost_ >= budget_.max_cost;
  }

  // True when elapsed_time() reached the deadline.
  bool deadline_exceeded() const {
    return budget_.deadline > 0.0 && elapsed_time() >= budget_.deadline;
  }

  // True when any *global* budget dimension is spent (cost or deadline).
  bool budget_exhausted() const {
    return cost_budget_exhausted() || deadline_exceeded();
  }

  // True when predicate i's access quota is spent.
  bool quota_exhausted(PredicateId i) const {
    NC_CHECK(i < num_predicates());
    if (budget_.predicate_quota.empty()) return false;
    const size_t quota = budget_.predicate_quota[i];
    return quota > 0 &&
           stats_.sorted_count[i] + stats_.random_count[i] >= quota;
  }

  // True when the budget would refuse the next access on predicate i
  // (globally spent or quota spent). Breaker state is separate:
  // see breaker_open().
  bool access_barred(PredicateId i) const {
    return budget_exhausted() || quota_exhausted(i);
  }

  // --- Circuit breaker -------------------------------------------------
  // Attaches a breaker policy (validated). Like the budget, the policy
  // persists across Reset(); the runtime state (trip counts, open
  // breakers) does not.
  Status set_circuit_breaker(CircuitBreakerPolicy policy);
  const CircuitBreakerPolicy& circuit_breaker() const { return breaker_; }

  // True while predicate i's breaker is open and still cooling down
  // (the next access would fast-fail rather than probe). With a replica
  // fleet, true only when *every* replica of i is dead or cooling - a
  // single open replica breaker just steers routing.
  bool breaker_open(PredicateId i) const;

  // True when any predicate's breaker is currently open (cooling down).
  bool any_breaker_open() const;

  // --- Replica fleet ---------------------------------------------------
  // Attaches a replica fleet (nullptr detaches; must outlive the
  // SourceSet). Predicates the fleet configures are served through their
  // replica sets: per-replica fault draws (the plain fault injector is
  // bypassed for them), per-replica breaker state with failover, routing
  // policies, and hedged sorted access (docs/REPLICAS.md). Unconfigured
  // predicates keep the plain single-source path. Rejected when the
  // fleet names a predicate this SourceSet does not have.
  Status set_replica_fleet(ReplicaFleet* fleet);
  bool has_fleet() const { return fleet_ != nullptr; }
  const ReplicaFleet& fleet() const {
    NC_CHECK(fleet_ != nullptr);
    return *fleet_;
  }

  // --- Fault injection -------------------------------------------------
  // Attaches a fault injector (nullptr detaches; must outlive the
  // SourceSet). Without one, accesses never fail. Fleet-configured
  // predicates draw from their per-replica injectors instead.
  void set_fault_injector(FaultInjector* injector);

  // Configures retries; `jitter_seed` drives the backoff jitter draws.
  // The policy must validate.
  void set_retry_policy(const RetryPolicy& policy, uint64_t jitter_seed = 0);
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  // Permanently kills the source serving predicate i: both access types
  // are downgraded for the whole attribute group (a multi-attribute
  // source dies as a unit). Idempotent. Scripted counterpart of an
  // injector-drawn kSourceDown.
  void KillSource(PredicateId i);

  // True when predicate i lost at least one construction-time capability
  // to a source death.
  bool source_down(PredicateId i) const { return source_down_[i]; }

  // True when any source died during this run.
  bool any_source_down() const { return sources_down_ > 0; }

  // Simulated extra latency (timeouts served, backoff waits) of the most
  // recent access, in cost units. 0 when the access succeeded on the
  // first attempt. The parallel executor folds this into the access's
  // completion time.
  double last_access_penalty() const { return last_access_penalty_; }

  const AccessStats& stats() const { return stats_; }

  // Cost accrued so far, priced access-by-access (robust to cost swaps
  // and inflated by per-attempt retry charges).
  double accrued_cost() const { return accrued_cost_; }

  // Restores the SourceSet to its initial state: cursors rewound,
  // counters, accrued cost, and any trace cleared; latency and backoff
  // RNGs reseeded so reruns replay identical draws; dead sources revived
  // (their construction-time capabilities restored) and the fault
  // injector, if any, rewound. Budget and breaker *policies* persist
  // (they are configuration); breaker runtime state clears.
  void Reset();

  // --- Checkpoint / resume ---------------------------------------------
  // Snapshots the full mid-run state (cursors, bounds, stats, accrued
  // cost, probed masks, breaker state, RNG streams, injector state,
  // attempt trace). See SourceCheckpoint.
  SourceCheckpoint Checkpoint() const;

  // Restores a snapshot onto this SourceSet, which must be configured
  // identically to the one that produced it (same predicate count,
  // construction-time capabilities, injector attachment, scripts at
  // least as long as the restored cursors). Each last-seen bound l_i is
  // derived from its cursor on this provider (read, not accessed).
  // InvalidArgument / FailedPrecondition on mismatch, with no partial
  // state applied for shape mismatches or for costs that are negative,
  // non-finite, or not summing to the accrued cost (Eq. 1).
  Status RestoreCheckpoint(const SourceCheckpoint& checkpoint);

  // --- Access tracing --------------------------------------------------
  // When enabled, every attempt is appended to attempt_trace() in order.
  // trace() is its successful subsequence: failed attempts never enter
  // it, so a retried-then-successful access traces exactly like an
  // undisturbed one. Used by diagnostics and by the plan-property tests
  // (e.g. verifying the SR shape of SR/G executions).
  void EnableTrace() { trace_enabled_ = true; }
  std::vector<Access> trace() const {
    return SuccessfulAccesses(attempt_trace_);
  }

  // The replay trace: every attempt in order, failed ones included, so a
  // traced faulty run round-trips losslessly through
  // SerializeAttemptTrace / ParseAttemptTrace.
  const std::vector<AccessAttempt>& attempt_trace() const {
    return attempt_trace_;
  }

  // --- Query-level observability ---------------------------------------
  // Attaches a tracer (nullptr detaches; must outlive the SourceSet).
  // Every performed access and every failed attempt is recorded with its
  // charge and the accrued-cost clock. A detached or disabled tracer
  // costs one branch per access.
  void set_tracer(obs::QueryTracer* tracer) { tracer_ = tracer; }
  obs::QueryTracer* tracer() const { return tracer_; }

  // Attaches a profiler (nullptr detaches; must outlive the SourceSet).
  // The access seam then times the sorted/random paths, cache
  // probe/fill, replica failover re-routes, and hedge issuance as
  // nested cost-center scopes (obs/profiler.h). A detached or disabled
  // profiler costs one branch per access; answers are bit-identical
  // either way (profiling never changes control flow).
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  obs::Profiler* profiler() const { return profiler_; }

  // --- Cross-query telemetry -------------------------------------------
  // Attaches a TelemetryHub (nullptr detaches; must outlive the
  // SourceSet). The hub is fed the per-replica service latencies,
  // per-access charges, and completion latencies of every access, and -
  // unlike everything else here - it SURVIVES Reset(): right before the
  // fleet's runtime is rewound, the hub captures its health (deaths,
  // open breakers, routing EWMAs) and re-applies it afterwards, so the
  // next query starts warm. With HedgePolicy::adaptive, the hub also
  // supplies the hedge trigger. A detached or disabled hub costs one
  // branch per access. Checkpoints deliberately exclude hub state (a
  // resumed query re-warms from the live hub; see obs/telemetry.h).
  // Attaching an enabled hub to an untouched fleet immediately re-applies
  // the hub's health snapshot (idempotent; a no-op without one).
  void set_telemetry_hub(obs::TelemetryHub* hub);
  obs::TelemetryHub* telemetry_hub() const { return hub_; }

  // --- Cross-query access cache ----------------------------------------
  // Attaches a shared AccessCache (nullptr detaches; must outlive the
  // SourceSet; typically one cache serves every worker of a
  // QueryServer). Sorted accesses whose position lies inside the shared
  // stream's materialized prefix, and random accesses whose (predicate,
  // object) is cached, are served from the cache: every engine-visible
  // effect (cursor, bound, counts, trace) matches the real access, but
  // only CacheConfig::hit_cost is billed - into the same Eq. 1 cells,
  // so billing conservation holds. Misses at the stream head claim a
  // single-flight slot, perform the real access, and publish it for
  // concurrent queries. Attaching (and every Reset()) binds the cache
  // to this provider's content fingerprint: a cache reused across
  // datasets is wiped instead of ever serving stale scores. Checkpoints
  // deliberately exclude cache state (a restored cursor past the shared
  // prefix simply bypasses the cache; see docs/CACHE.md).
  void set_access_cache(cache::AccessCache* cache);
  cache::AccessCache* access_cache() const { return access_cache_; }

  // Per-query cache tallies (zeroed by Reset(); kept outside
  // AccessStats so the checkpoint format is unchanged).
  struct QueryCacheHits {
    size_t sorted_hits = 0;
    size_t random_hits = 0;
    size_t inflight_merges = 0;
    double hit_cost_accrued = 0.0;
  };
  const QueryCacheHits& cache_hits() const { return cache_hits_; }

  // --- Latency model (used by the parallel executor) ------------------
  // Each access's simulated latency is unit_cost * (1 + jitter * U) with
  // U uniform in [0, 1). jitter = 0 (the default) makes latency equal the
  // unit cost, matching the paper's elapsed-time reading of Eq. 1.
  void set_latency_jitter(double jitter, uint64_t seed);

  // Draws the latency for one access of the given shape.
  double DrawLatency(AccessType type, PredicateId i);

 private:
  // Shared initialization for both constructors.
  SourceSet(ScoreProvider* provider,
            std::unique_ptr<DatasetScoreProvider> owned,
            const Dataset* data, CostModel cost);

  // What the replica layer decided for the access in flight, consumed by
  // BookSourced. On the plain path `routed` stays null and the multiplier
  // stays 1.
  struct FleetServe {
    ReplicaRuntime* routed = nullptr;  // Replica billed for the request.
    double cost_multiplier = 1.0;
    double completion_latency = 0.0;  // 0 for a mid-page sorted entry.
  };

  // Zeroes the per-run state: stats, cost clocks, cursors, bounds,
  // probed masks, attempt trace and breaker state. The constructor and
  // Reset() share it; Reset() also reseeds the RNGs and rewinds the
  // attached injector, fleet and cache.
  void ClearRunState();

  // Step 3 of the access path. OK when an attempt succeeded (filling
  // *served on the fleet path); kUnavailable after a death, an open
  // breaker, or once attempts are exhausted. Fleet-configured predicates
  // route through AttemptFleetAccess.
  Status AttemptAccess(const Access& access, double unit_cost,
                       FleetServe* served);

  // The fleet analogue: routes the access per the predicate's policy,
  // runs each replica's attempts, fails over across replicas, manages
  // per-replica breakers, and completes the winning request.
  Status AttemptFleetAccess(const Access& access, double unit_cost,
                            FleetServe* served);

  // The one retry loop: up to `attempt_cap` attempts drawn from
  // injector->NextOutcome(key), each failure priced at `unit` (also added
  // to *billed when non-null), penalized, recorded and backed off. True
  // when an attempt succeeded; false when the cap ran out or the source
  // died (*died). Only the `last` route's exhaustion marks the attempt
  // abandoned.
  bool RunAttempts(const Access& access, double unit, FaultInjector* injector,
                   PredicateId key, size_t attempt_cap, bool last,
                   double* billed, bool* died);

  // The one breaker-trip rule, for the plain breaker and per-replica
  // ones alike: a failed half-open probe reopens at once, otherwise the
  // failure_threshold-th consecutive failure opens. True when it tripped.
  bool TripBreaker(PredicateId i, bool probing, size_t* consecutive,
                   bool* open, double* open_until);

  // Completes a successful fleet request: latency draw, hedging
  // (suppressed for half-open probes; hedges are billed here), EWMA and
  // sample recording, and *served.
  void CompleteFleetRequest(const Access& access, double unit_cost,
                            size_t routed, const std::vector<size_t>& order,
                            bool probed, FleetServe* served);

  // Downgrades the capabilities of predicate i's attribute group, counts
  // the death, and invalidates the group's cache entries. Injector-drawn
  // deaths and scripted KillSource calls both land here, through
  // set_cost_model's removal-only guard.
  void MarkSourceDown(PredicateId i);

  // Step 4: books one served access at `charged` - its count, Eq. 1
  // cell, attempt-trace entry and tracer kAccess event.
  void Book(const Access& access, double charged);
  // Books a freshly served access at `unit` times the routed replica's
  // multiplier, bills the replica, adds any completion wait to the
  // deadline clock, and feeds the hub.
  void BookSourced(const Access& access, double unit,
                   const FleetServe& served);
  // Books a cache-served access at CacheConfig::hit_cost and records the
  // cache event and per-query tallies. `merged` marks an in-flight merge.
  void BookCacheHit(const Access& access, ObjectId object, bool merged);

  // Appends one attempt to the attempt trace and the tracer (kAccess for
  // a success, kAccessAttempt for a failure).
  void RecordAttempt(const Access& access, FaultKind fault, bool abandoned,
                     double charged);
  // Records a replica-fleet tracer event on predicate i.
  void ReplicaEvent(const char* what, PredicateId i, size_t from, size_t to);

  // Content-derived identity of the backing provider (shape + sampled
  // scores), used to bind the attached cache to this dataset.
  uint64_t DatasetFingerprint() const;

  // Shared-stream topology component of the cache key: the fleet's
  // topology token for fleet-served predicates, 0 for the plain path.
  uint64_t StreamTopology(PredicateId i) const;

  ScoreProvider* provider_;
  std::unique_ptr<DatasetScoreProvider> owned_provider_;
  // Non-null only for Dataset-backed sources.
  const Dataset* data_;
  CostModel cost_;
  // Construction-time unit costs, used to revive dead sources on Reset.
  CostModel initial_cost_;
  AccessStats stats_;
  double accrued_cost_ = 0.0;
  // Cursor into Dataset::SortedOrder per predicate.
  std::vector<size_t> positions_;
  std::vector<Score> last_seen_;
  // Per-object bitmask of predicates already random-probed (m <= 64).
  std::unordered_map<ObjectId, uint64_t> probed_;
  double latency_jitter_ = 0.0;
  // Jitter seed, remembered so Reset() replays the same latency stream.
  uint64_t latency_seed_ = 0;
  Rng latency_rng_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_policy_;
  uint64_t retry_seed_ = 0;
  Rng retry_rng_;
  std::vector<bool> source_down_;
  size_t sources_down_ = 0;
  double last_access_penalty_ = 0.0;
  // Sum of every last_access_penalty_ charged this run; elapsed_time()
  // reads accrued_cost_ + total_penalty_.
  double total_penalty_ = 0.0;
  QueryBudget budget_;
  CircuitBreakerPolicy breaker_;
  struct BreakerState {
    size_t consecutive_failures = 0;
    bool open = false;
    // elapsed_time() value at which an open breaker admits a probe.
    double open_until = 0.0;
  };
  std::vector<BreakerState> breaker_state_;
  ReplicaFleet* fleet_ = nullptr;
  bool trace_enabled_ = false;
  std::vector<AccessAttempt> attempt_trace_;
  obs::QueryTracer* tracer_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::TelemetryHub* hub_ = nullptr;
  cache::AccessCache* access_cache_ = nullptr;
  QueryCacheHits cache_hits_;
};

}  // namespace nc

#endif  // NC_ACCESS_SOURCE_H_
