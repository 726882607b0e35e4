#include "core/parallel_executor.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "common/check.h"
#include "core/bound_heap.h"
#include "obs/tracer.h"

namespace nc {

namespace {

// An access that was issued (and paid for) but whose result is not yet
// visible to the scheduler.
struct InFlight {
  double completion_time = 0.0;
  uint64_t sequence = 0;  // FIFO tie-break.
  Access access;
  // For sorted accesses: the stream position this read consumed. Results
  // can complete out of order; the ceiling may only advance over the
  // contiguous prefix of applied positions (see ApplyNext).
  size_t rank = 0;
  // Result captured at issue time (the simulated source decides its answer
  // immediately; the network delays its visibility).
  ObjectId object = 0;
  Score score = 0.0;
  // Whole-row scores from a multi-attribute source.
  std::vector<std::pair<PredicateId, Score>> bundled;

  friend bool operator>(const InFlight& a, const InFlight& b) {
    if (a.completion_time != b.completion_time) {
      return a.completion_time > b.completion_time;
    }
    return a.sequence > b.sequence;
  }
};

class ParallelRun {
 public:
  ParallelRun(SourceSet* sources, const ScoringFunction& scoring,
              SelectPolicy* policy, const ParallelOptions& options)
      : sources_(sources),
        scoring_(scoring),
        policy_(policy),
        options_(options),
        // Without sorted access anywhere no object can be discovered, so
        // the universe is known up front (MPro's probe-only setting).
        ranked_(&scoring_, sources->num_objects(),
                !sources->cost_model().any_sorted()),
        visible_ceiling_(sources->num_predicates(), kMaxScore),
        applied_frontier_(sources->num_predicates(), 0),
        ooo_scores_(sources->num_predicates()) {}

  Status Execute(ParallelResult* out);

 private:
  // NecessaryChoices of `target` against the visible state, minus the
  // random probes already in flight; epoch_skipped_quota_ records that
  // some choice was withheld by a spent quota this epoch.
  void BuildAlternatives(ObjectId target, std::vector<Access>* out);

  // Performs the access against the sources now (accounting happens at
  // issue) and schedules its visibility. False when the access failed
  // unrecoverably and nothing was scheduled; `status` (optional) receives
  // the failure.
  bool Issue(const Access& access, Status* status);

  // Makes the earliest pending result visible; advances the clock.
  void ApplyNext();

  // Settles on the current visible top-k (scores are upper bounds) with
  // an AnytimeCertificate and marks the result inexact.
  void EmitCertified(TerminationReason reason, ParallelResult* out);

  // Fills the accounting fields of *out from the run's state.
  void FillAccounting(ParallelResult* out) const;

  SourceSet* sources_;
  const ScoringFunction& scoring_;
  SelectPolicy* policy_;
  ParallelOptions options_;

  // K_P of the *visible* state: applied results only, bounded by the
  // visible ceilings.
  RankedPool ranked_;
  std::vector<Score> visible_ceiling_;
  // Length of the contiguous prefix of applied sorted results, per
  // predicate, plus the buffer of results that landed beyond it.
  std::vector<size_t> applied_frontier_;
  std::vector<std::map<size_t, Score>> ooo_scores_;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>>
      pending_;
  std::set<std::pair<PredicateId, ObjectId>> random_in_flight_;
  // Tasks already served this epoch (cleared whenever a completion lands).
  std::set<ObjectId> issued_this_epoch_;
  double now_ = 0.0;
  uint64_t sequence_ = 0;
  size_t issued_ = 0;
  size_t failed_ = 0;
  // Consecutive issue attempts that failed unrecoverably; bounds the
  // degraded-retry loop as kMaxConsecutiveFailures bounds the sequential
  // engine's.
  size_t consecutive_failures_ = 0;
  // Set when an issue was refused with kResourceExhausted: the budget or
  // a quota ran out mid-epoch (nothing was billed for the refusal).
  bool budget_stopped_ = false;
  // Some necessary choice was withheld this epoch because its
  // predicate's quota is spent; a stall then certifies as kQuota.
  bool epoch_skipped_quota_ = false;
};

void ParallelRun::BuildAlternatives(ObjectId target,
                                    std::vector<Access>* out) {
  const Candidate* state = nullptr;
  if (target != kUnseenObject) {
    state = ranked_.candidates().Find(target);
    NC_CHECK(state != nullptr);
  }
  if (NecessaryChoices(*sources_, state, out)) epoch_skipped_quota_ = true;
  std::erase_if(*out, [this](const Access& a) {
    return a.type == AccessType::kRandom &&
           random_in_flight_.count({a.predicate, a.object}) != 0;
  });
}

bool ParallelRun::Issue(const Access& access, Status* status) {
  InFlight flight;
  flight.access = access;
  flight.sequence = sequence_++;
  if (access.type == AccessType::kSorted) {
    flight.rank = sources_->sorted_position(access.predicate);
    std::optional<SortedHit> hit;
    const Status s = sources_->TrySortedAccess(access.predicate, &hit);
    if (!s.ok()) {
      // A budget refusal is not a source failure; only count the latter.
      if (s.code() != StatusCode::kResourceExhausted) ++failed_;
      if (status != nullptr) *status = s;
      return false;
    }
    NC_CHECK(hit.has_value());
    flight.object = hit->object;
    flight.score = hit->score;
    flight.bundled = hit->bundled;
  } else {
    flight.object = access.object;
    const Status s =
        sources_->TryRandomAccess(access.predicate, access.object,
                                  &flight.score);
    if (!s.ok()) {
      if (s.code() != StatusCode::kResourceExhausted) ++failed_;
      if (status != nullptr) *status = s;
      return false;
    }
    random_in_flight_.insert({access.predicate, access.object});
  }
  // Retries and timeouts held the line before the request that finally
  // succeeded went out; its latency starts after that penalty.
  flight.completion_time =
      now_ + sources_->last_access_penalty() +
      sources_->DrawLatency(access.type, access.predicate);
  pending_.push(flight);
  ++issued_;
  return true;
}

void ParallelRun::ApplyNext() {
  NC_CHECK(!pending_.empty());
  const InFlight flight = pending_.top();
  pending_.pop();
  now_ = std::max(now_, flight.completion_time);
  issued_this_epoch_.clear();
  const PredicateId i = flight.access.predicate;
  if (flight.access.type == AccessType::kSorted) {
    ranked_.Discover(i, flight.object, flight.score, flight.bundled,
                     visible_ceiling_);
    // Sorted results complete out of order under latency jitter, and a
    // deep entry's score is NOT a sound bound while shallower reads are
    // still in flight: an unseen object could land at one of those
    // shallower positions with a higher score. The ceiling therefore
    // tracks only the contiguous prefix of applied positions.
    auto& buffered = ooo_scores_[i];
    buffered.emplace(flight.rank, flight.score);
    bool advanced = false;
    Score frontier_score = kMaxScore;
    while (!buffered.empty() &&
           buffered.begin()->first == applied_frontier_[i]) {
      frontier_score = buffered.begin()->second;
      buffered.erase(buffered.begin());
      ++applied_frontier_[i];
      advanced = true;
    }
    if (advanced) {
      // Every object of an exhausted list is visible: no unseen object
      // remains on it.
      visible_ceiling_[i] = applied_frontier_[i] >= sources_->num_objects()
                                ? kMinScore
                                : frontier_score;
    }
  } else {
    random_in_flight_.erase({i, flight.object});
    ranked_.Probe(flight.object, i, flight.score);
  }
}

void ParallelRun::FillAccounting(ParallelResult* out) const {
  out->elapsed_time = now_;
  out->total_cost = sources_->accrued_cost();
  out->accesses_issued = issued_;
  out->wasted_accesses = pending_.size();
  out->failed_accesses = failed_;
}

void ParallelRun::EmitCertified(TerminationReason reason,
                                ParallelResult* out) {
  // Settle on what was paid for: every result in flight that lands by the
  // deadline (all of them, without one) is applied in completion order
  // first. Only those landing later stay unseen, and are wasted.
  const double deadline = sources_->budget().deadline;
  while (!pending_.empty() &&
         (deadline <= 0.0 || pending_.top().completion_time <= deadline)) {
    ApplyNext();
  }
  ranked_.Certify(*sources_, options_.k, visible_ceiling_, reason,
                  &out->topk);
  out->exact = false;
  FillAccounting(out);
}

Status ParallelRun::Execute(ParallelResult* out) {
  NC_CHECK(out != nullptr);
  out->topk.entries.clear();
  out->topk.certificate.reset();
  NC_RETURN_IF_ERROR(ValidateQuery(*sources_, scoring_, options_.k));
  if (options_.concurrency == 0) {
    return Status::InvalidArgument("concurrency must be positive");
  }
  policy_->Reset(*sources_);

  const size_t runaway_guard = RunawayGuard(*sources_, options_.k);
  obs::QueryTracer* const tracer = sources_->tracer();
  const bool tracing = obs::ShouldTrace(tracer);
  std::vector<Access> alternatives;
  while (true) {
    const std::span<const RankedPool::Entry> topk =
        ranked_.TopK(options_.k, visible_ceiling_);
    const std::optional<const Candidate*> first =
        ranked_.FirstIncomplete(topk);
    if (tracing) {
      // One iteration event per scheduling epoch: the leading unsatisfied
      // task and the visible ceiling (the concurrent analogue of theta).
      tracer->RecordIteration(
          first.has_value() && *first != nullptr ? (*first)->id
                                                 : kUnseenObject,
          0, scoring_.Evaluate(visible_ceiling_),
          topk.empty() ? 0.0 : topk.back().bound,
          ranked_.candidates().size(), sources_->accrued_cost());
    }
    if (!first.has_value()) {
      RankedPool::Answer(topk, &out->topk);
      out->exact = true;
      FillAccounting(out);
      return Status::OK();
    }

    // Budget exhaustion settles with a certified answer (the exact
    // check above runs first). The deadline trips on whichever clock
    // crosses first: the sources' cost clock or the simulated makespan.
    const double deadline = sources_->budget().deadline;
    const bool late = deadline > 0.0 && now_ >= deadline;
    if (sources_->budget_exhausted() || late) {
      EmitCertified(BudgetStopReason(*sources_, late), out);
      return Status::OK();
    }
    epoch_skipped_quota_ = false;

    // Issue phase: one access per unsatisfied task per epoch, rank order,
    // while slots remain.
    bool issued_any = false;
    bool failed_this_round = false;
    // False when the issue failed unrecoverably (a budget refusal stops
    // the epoch through budget_stopped_ instead).
    const auto select_and_issue = [&](const RankedPool::Entry& e) {
      EngineView view;
      view.sources = sources_;
      view.scoring = &scoring_;
      view.k = options_.k;
      view.target = e.object;
      view.target_state = e.object == kUnseenObject
                              ? nullptr
                              : ranked_.candidates().Find(e.object);
      const Access access = policy_->Select(alternatives, view);
      const bool offered =
          std::find(alternatives.begin(), alternatives.end(), access) !=
          alternatives.end();
      NC_CHECK(offered);
      Status status = Status::OK();
      if (Issue(access, &status)) {
        issued_any = true;
        consecutive_failures_ = 0;
        // One access per task per epoch; a failed issue stays eligible
        // for retry against the re-derived capabilities.
        issued_this_epoch_.insert(e.object);
        return true;
      }
      if (status.code() == StatusCode::kResourceExhausted) {
        // The budget crossed mid-epoch (an earlier issue's cost or retry
        // penalty pushed it over); nothing was billed for the refusal.
        budget_stopped_ = true;
        return true;
      }
      NC_CHECK(status.code() == StatusCode::kUnavailable);
      failed_this_round = true;
      ++consecutive_failures_;
      return false;
    };

    // Discovery (the unseen sentinel's sorted reads) is the speculative
    // part of a plan: a candidate's probe stays useful however the ranks
    // shift, but a discovery read is only needed if the sentinel is still
    // in the way once everything in flight lands. Serve it when it leads
    // the rank order, or as a stall-breaker when no concrete task could
    // issue this epoch.
    bool first_incomplete = true;
    bool issued_concrete = false;
    const RankedPool::Entry* deferred_sentinel = nullptr;
    for (const RankedPool::Entry& e : topk) {
      if (pending_.size() >= options_.concurrency || budget_stopped_) break;
      if (ranked_.IsComplete(e.object)) continue;
      const bool is_first = first_incomplete;
      first_incomplete = false;
      if (e.object == kUnseenObject && !is_first) {
        deferred_sentinel = &e;
        continue;
      }
      if (issued_this_epoch_.count(e.object) != 0) continue;
      BuildAlternatives(e.object, &alternatives);
      if (alternatives.empty()) continue;  // Waiting on in-flight results.
      if (select_and_issue(e) && e.object != kUnseenObject) {
        issued_concrete = true;
      }
    }
    if (deferred_sentinel != nullptr && !issued_concrete &&
        !budget_stopped_ && pending_.size() < options_.concurrency &&
        issued_this_epoch_.count(kUnseenObject) == 0) {
      BuildAlternatives(kUnseenObject, &alternatives);
      if (!alternatives.empty()) select_and_issue(*deferred_sentinel);
    }

    // Optional speculation: read streams ahead for the highest-ranked task
    // that still has a sorted alternative.
    for (size_t spec = 0; spec < options_.max_speculation; ++spec) {
      if (pending_.size() >= options_.concurrency || budget_stopped_) break;
      bool launched = false;
      for (const RankedPool::Entry& e : topk) {
        if (ranked_.IsComplete(e.object)) continue;
        BuildAlternatives(e.object, &alternatives);
        // Speculate on sorted accesses only: a duplicate random probe is
        // pure waste, but a deeper read is at worst early.
        std::erase_if(alternatives, [](const Access& a) {
          return a.type != AccessType::kSorted;
        });
        if (alternatives.empty() || !select_and_issue(e)) continue;
        launched = true;
        break;
      }
      if (!launched) break;
    }

    if (budget_stopped_) {
      // Mid-epoch refusal: settle on the results already paid for.
      EmitCertified(BudgetStopReason(*sources_), out);
      return Status::OK();
    }
    if (consecutive_failures_ >= kMaxConsecutiveFailures) {
      // Sources keep failing without anything completing in between:
      // settle on what was paid for rather than spin.
      EmitCertified(TerminationReason::kSourceFailure, out);
      return Status::OK();
    }
    if (issued_ > runaway_guard) {
      return Status::Internal("parallel executor exceeded the runaway guard");
    }
    if (!pending_.empty()) {
      ApplyNext();
    } else if (!issued_any) {
      if (failed_this_round) continue;  // Retry against what survives.
      // Nothing was issued or billed since the global budget check above.
      TerminationReason reason;
      NC_RETURN_IF_ERROR(
          StallReason(*sources_, epoch_skipped_quota_, &reason));
      EmitCertified(reason, out);
      return Status::OK();
    }
  }
}

}  // namespace

Status RunParallelNC(SourceSet* sources, const ScoringFunction& scoring,
                     SelectPolicy* policy, const ParallelOptions& options,
                     ParallelResult* out) {
  NC_CHECK(sources != nullptr);
  NC_CHECK(policy != nullptr);
  ParallelRun run(sources, scoring, policy, options);
  obs::QueryTracer* const tracer = sources->tracer();
  const bool tracing = obs::ShouldTrace(tracer);
  if (tracing) tracer->BeginPhase("parallel");
  const Status status = run.Execute(out);
  if (tracing) tracer->EndPhase("parallel");
  return status;
}

}  // namespace nc
