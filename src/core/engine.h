// Framework NC: the paper's core contribution (Section 6).
//
// The engine iterates Theorem 1's loop:
//   1. Maintain K_P, the current top-k objects by maximal-possible score
//      F-bar (RankedPool in core/bound_heap.h; the virtual `unseen` object
//      stands for all objects not yet returned by any sorted access).
//   2. If every member of K_P is completely evaluated, halt: K_P is the
//      final answer with exact scores.
//   3. Otherwise the highest-ranked incomplete member v_j designates an
//      unsatisfied scoring task; its necessary choices N_j (Definition 2)
//      are exactly the supported accesses that can determine one of v_j's
//      undetermined predicates. A pluggable SelectPolicy picks one; the
//      engine performs it and loops.
//
// Necessary-choice completeness (the argument behind Theorem 2) guarantees
// that restricting selection to N_j loses no optimality; the policy is
// where cost-based optimization plugs in (core/srg_policy.h implements the
// SR/G heuristics, core/optimizer.h searches their parameter space).
// Section 9.1.1's bounded concurrency runs the same loop (see NCEngine):
// the halting test is sound for any access schedule (Fagin et al.).

#ifndef NC_CORE_ENGINE_H_
#define NC_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "access/access.h"
#include "access/source.h"
#include "common/score.h"
#include "common/status.h"
#include "core/bound_heap.h"
#include "core/candidate.h"
#include "core/result.h"
#include "core/topk_collector.h"
#include "scoring/scoring_function.h"

namespace nc {

struct EngineCheckpoint;  // core/checkpoint.h

// Read-only context handed to SelectPolicy::Select.
struct EngineView {
  const SourceSet* sources = nullptr;
  const ScoringFunction* scoring = nullptr;
  size_t k = 0;
  // The object whose unsatisfied task induced the alternatives;
  // kUnseenObject when it is the virtual unseen object.
  ObjectId target = 0;
  // Score state of the target (nullptr for the unseen object).
  const Candidate* target_state = nullptr;
};

// Access-selection strategy: the one degree of freedom Framework NC leaves
// open. Select must return one of the offered alternatives.
class SelectPolicy {
 public:
  virtual ~SelectPolicy() = default;

  // Called once per Run before the first Select.
  virtual void Reset(const SourceSet& sources) { (void)sources; }

  virtual Access Select(std::span<const Access> alternatives,
                        const EngineView& view) = 0;

  // --- Checkpoint support ----------------------------------------------
  // Policies with mutable per-run state (cursors, RNG streams) override
  // this pair so EngineCheckpoint can capture and restore it. The string
  // is opaque to the engine; it must be newline-free. Stateless policies
  // keep the defaults: save nothing, accept only nothing.
  virtual std::string SaveState() const { return ""; }
  virtual Status RestoreState(const std::string& state) {
    if (!state.empty()) {
      return Status::InvalidArgument("policy carries no per-run state");
    }
    return Status::OK();
  }
};

// Under no-wild-guesses (the standard middleware restriction, [9]) an
// object can be random-accessed only after a sorted access has seen it;
// the engine tracks unseen objects through a virtual sentinel. When the
// scenario has no sorted access at all (MPro's probe-only setting), the
// object universe is known up front and every object starts as a
// candidate.
struct EngineOptions {
  size_t k = 1;

  // Optional hard cap on accesses; 0 means "only the internal runaway
  // guard". The budget applies to each Run or Extend phase separately (an
  // Extend starts with a fresh budget). Exceeding it returns
  // ResourceExhausted.
  size_t max_accesses = 0;

  // Theta-approximation (Fagin's relaxation): with theta > 1 the engine
  // may halt once it holds k completely evaluated objects y_1..y_k such
  // that theta * score(y_k) dominates the maximal-possible score of every
  // other object - every returned object is within a factor theta of
  // anything it displaced. theta = 1 (the default) is the exact
  // semantics. Exactness of the produced answer is reported through
  // NCEngine::last_run_exact().
  double approximation_theta = 1.0;

  // With best_effort set, exhausting max_accesses returns OK and the
  // *current* top-k by maximal-possible score - an anytime answer whose
  // reported scores are upper bounds. NCEngine::last_run_exact()
  // distinguishes such approximate answers from completed ones. (The
  // k-th reported bound always dominates the true k-th score, so the
  // answer degrades gracefully with the budget.)
  bool best_effort = false;

  // Invoked after every performed access with the running access count;
  // used by the adaptive executor to re-optimize mid-flight.
  std::function<void(size_t)> access_callback;

  // Section 9.1.1: at most this many accesses in flight; above 1 the
  // engine keeps an in-flight window (see NCEngine).
  size_t concurrency = 1;

  // With a window: extra *speculative* sorted reads per epoch. They read
  // streams ahead of proven need, deepening pipelining at the price of
  // reads the sequential plan might never perform - the paper's
  // "unrestrained concurrency abuses resources" trade-off, as a dial.
  size_t max_speculation = 0;
};

// The checks every engine makes before its first access: a valid cost
// model, a scoring function of the sources' arity, and a positive k.
Status ValidateQuery(const SourceSet& sources, const ScoringFunction& scoring,
                     size_t k);

// Every useful execution performs at most n sorted and n random accesses
// per predicate; an engine past this many accesses has a bug in itself or
// in its policy.
size_t RunawayGuard(const SourceSet& sources, size_t k);

// The engine's observers are its SourceSet's (docs/OBSERVABILITY.md): a
// tracer there gets a phase span per Run/Extend/Resume and one kIteration
// event per access; a profiler there is billed for candidate-heap and
// certificate work. Absent or disabled, each costs one branch.
//
// With concurrency > 1 the engine keeps an in-flight window: an access is
// paid for when issued and applies when it completes after its simulated
// latency (SourceSet::DrawLatency, after its retry penalty), and the loop
// ranks against the window's visible ceilings. Each unsatisfied task of
// K_P issues at most one access per scheduling epoch, the span between
// two completions. An early stop first applies every result landing by
// the deadline (all, without one), which also trips on the makespan;
// what is still in flight when the answer settles is wasted. The window
// persists across Extend, so no paid-for result is dropped.
class NCEngine {
 public:
  // All pointers must outlive the engine. `policy` may be shared across
  // runs; it is Reset at the start of each Run.
  NCEngine(SourceSet* sources, const ScoringFunction* scoring,
           SelectPolicy* policy, EngineOptions options);

  ~NCEngine();
  NCEngine(const NCEngine&) = delete;
  NCEngine& operator=(const NCEngine&) = delete;

  // Executes the query against the sources' current state. On OK, *out
  // holds min(k, n) completely evaluated entries in final rank order.
  Status Run(TopKResult* out);

  // Progressive retrieval: after a successful Run, widens the answer to
  // the top new_k (>= the previous k) by continuing from the engine's
  // current score state - no access already performed is repeated, and
  // only the extra scoring tasks are paid for. May be called repeatedly
  // with growing k, and each Extend gets a fresh max_accesses budget.
  //
  // Extend requires a *completed* prior answer: if the last Run/Extend was
  // truncated (best-effort budget exhaustion or source-failure
  // degradation, see last_run_truncated()), the score state does not
  // describe a finished top-k and Extend returns FailedPrecondition -
  // re-Run instead. Extending a theta-approximate answer is legal.
  Status Extend(size_t new_k, TopKResult* out);

  // --- Checkpoint / resume (core/checkpoint.h) -------------------------
  // Snapshots the mid-query state Resume cannot derive: the candidate
  // pool's evaluated scores, counters, policy state, and the SourceSet
  // (cursors, accrued cost, stats, injector and fleet state, RNG
  // streams). Legal whenever the engine is between iterations - in
  // practice from the access_callback or after a Run returns - and
  // nothing is in flight: results in flight have no place in a checkpoint,
  // so it is refused (NC_CHECK), never written lossily. The bytes depend
  // only on the score state, never on which entries the heap last
  // refreshed or held.
  EngineCheckpoint Checkpoint() const;

  // Continues a checkpointed run on a *freshly configured* engine: same
  // dataset/provider, scenario, scoring function, policy type and
  // config, and options as the engine that produced the checkpoint (only
  // `k` is taken from the checkpoint). The sources are restored in
  // place, so no already-paid access is re-issued, and the continuation
  // replays bit-identically to the uninterrupted run.
  //
  // Derived, not stored: the last-seen scores l_i (from the cursors),
  // whether the universe is seeded (from the scenario, as Run decides
  // it), the ranked pool's heap (every candidate at its current bound,
  // plus the unseen sentinel while objects remain unseen) and the theta
  // collector (the top-k complete candidates). Verified against the
  // provider (read, never accessed or billed): every stored score, and
  // that every object a cursor has passed is a candidate with that
  // predicate evaluated. Validation errors (shape mismatch, malformed or
  // corrupt state) leave the engine unusable for queries until a
  // successful Run or Resume. A window starts empty, its clock at 0.
  Status Resume(const EngineCheckpoint& checkpoint, TopKResult* out);

  // Total accesses performed across Run and any Extends.
  size_t accesses_performed() const { return accesses_; }

  // False iff the last Run/Extend returned an approximate answer: a
  // best-effort (budget-capped or degraded) one, or a theta-approximate
  // one.
  bool last_run_exact() const { return last_run_exact_; }

  // True iff the last Run/Extend stopped early with a best-effort answer
  // (budget exhausted or sources failed) - such an answer cannot be
  // Extended. Theta-approximate answers are complete, not truncated.
  bool last_run_truncated() const { return last_run_truncated_; }

  // True iff the last Run/Extend hit an unrecoverable source failure
  // (access/fault.h: retries exhausted or the source died) and finished in
  // degraded mode, whether or not the final answer still completed
  // exactly on the surviving capabilities. Such a failure never fails the
  // run: the engine re-derives the necessary choices against what
  // survives, and certifies kSourceFailure once a death leaves a task
  // unsatisfiable.
  bool last_run_degraded() const { return last_run_degraded_; }

  // Mean size of the necessary-choice sets offered to the policy - the
  // specificity metric Section 6.2 contrasts against TG's O(n*m)-wide
  // pools (never exceeds 2m here).
  double mean_choice_width() const {
    return accesses_ == 0
               ? 0.0
               : choice_width_total_ / static_cast<double>(accesses_);
  }

  // Accesses that failed unrecoverably since the last Run or Resume.
  size_t failed_accesses() const { return failed_accesses_; }

  // The window's clock, or the sources' elapsed_time() without a window.
  double makespan() const;

  // Accesses paid for whose results are not applied yet.
  size_t in_flight() const;

 private:
  struct Window;  // The in-flight state; engaged only when concurrency > 1.
  struct Epoch;   // What one scheduling iteration did.

  // Run's and Resume's checks before the first access, for width `k`.
  Status ValidateOptions(size_t k) const;

  // The ceilings the loop ranks against: the window's visible ones, or
  // the last-seen scores l_i.
  std::span<const Score> Ceilings() const;

  // Theorem 1's iteration, shared by Run and Extend: work unsatisfied
  // tasks until the current top-k are all complete.
  Status Loop(TopKResult* out);

  // Offers the task `state` designates (nullptr: the unseen sentinel) its
  // necessary choices - less the random probes in flight, and sorted
  // reads only when `speculative` - and performs the policy's pick. False
  // when nothing was offered or the access failed unrecoverably.
  bool Serve(const Candidate* state, bool speculative, Epoch* epoch);

  // One window epoch: each unsatisfied task of `topk` in rank order while
  // slots remain, the deferred sentinel, then speculation.
  void ServeWindow(std::span<const RankedPool::Entry> topk, Epoch* epoch);

  // Wraps Loop in the sources' tracer phase span.
  Status InstrumentedLoop(const char* phase, TopKResult* out);

  // Re-derives the theta collector at the current k from the pool's
  // complete candidates; disengaged when approximation_theta is 1. The
  // collector's order is total, so the result does not depend on the
  // order candidates completed in.
  void RebuildCompleteTopK();

  // Performs `access`, then applies its result or puts it in flight.
  // kUnavailable when the access failed unrecoverably (no state was
  // consumed).
  Status Perform(const Access& access);

  // Folds a result into the pool against `ceilings`, and offers the theta
  // collector a candidate it completes.
  void Apply(const Access& access, const SortedHit& hit,
             std::span<const Score> ceilings);

  // Applies the earliest result in flight and advances the window's
  // clock and visible ceilings.
  void ApplyNext();

  // Emits the current top-k by maximal-possible score into *out with an
  // AnytimeCertificate (RankedPool::Certify): per-object [lower, upper]
  // score intervals and the proven epsilon against everything excluded
  // (including the unseen remainder). Scores are upper bounds; the unseen
  // sentinel never appears as an entry. Flags the run truncated. A window
  // first applies the results landing by the deadline.
  void EmitCertified(TerminationReason reason, TopKResult* out);

  SourceSet* sources_;
  const ScoringFunction* scoring_;
  SelectPolicy* policy_;
  EngineOptions options_;

  RankedPool ranked_;
  // Best complete candidates so far; drives the theta-halting test.
  // Engaged only when approximation_theta > 1.
  std::optional<TopKCollector> complete_topk_;
  std::vector<Access> alternatives_;
  size_t accesses_ = 0;
  // Accesses performed in the current Run/Extend phase; the max_accesses
  // budget is charged against this, not the cumulative count.
  size_t phase_accesses_ = 0;
  // Consecutive unrecovered access failures; guards against livelock when
  // sources flake persistently without dying.
  size_t consecutive_failures_ = 0;
  double choice_width_total_ = 0.0;
  size_t failed_accesses_ = 0;
  std::unique_ptr<Window> window_;
  bool has_run_ = false;
  bool last_run_exact_ = true;
  bool last_run_truncated_ = false;
  bool last_run_degraded_ = false;
};

// Convenience wrapper: constructs an engine and runs the query once.
Status RunNC(SourceSet* sources, const ScoringFunction* scoring,
             SelectPolicy* policy, const EngineOptions& options,
             TopKResult* out);

}  // namespace nc

#endif  // NC_CORE_ENGINE_H_
