#include "core/engine.h"

#include <algorithm>

#include "common/check.h"
#include "core/checkpoint.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace nc {

NCEngine::NCEngine(SourceSet* sources, const ScoringFunction* scoring,
                   SelectPolicy* policy, EngineOptions options)
    : sources_(sources),
      scoring_(scoring),
      policy_(policy),
      options_(std::move(options)),
      ranked_(scoring, sources->num_objects(), /*seed_universe=*/false) {
  NC_CHECK(sources_ != nullptr);
  NC_CHECK(scoring_ != nullptr);
  NC_CHECK(policy_ != nullptr);
}

Status ValidateQuery(const SourceSet& sources, const ScoringFunction& scoring,
                     size_t k) {
  NC_RETURN_IF_ERROR(sources.cost_model().Validate());
  if (scoring.arity() != sources.num_predicates()) {
    return Status::InvalidArgument(
        "scoring function arity does not match predicate count");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  return Status::OK();
}

size_t RunawayGuard(const SourceSet& sources, size_t k) {
  return 2 * sources.num_objects() * sources.num_predicates() + k + 64;
}

Status StallReason(const SourceSet& sources, bool skipped_quota,
                   TerminationReason* reason) {
  if (skipped_quota) {
    // The per-predicate budget, not the scenario, blocks progress.
    *reason = BudgetStopReason(sources);
  } else if (sources.any_source_down()) {
    // A death made the remaining tasks unsatisfiable mid-run: rather than
    // fail, return what the surviving accesses established.
    *reason = TerminationReason::kSourceFailure;
  } else {
    return Status::FailedPrecondition(
        "query cannot be completed under the scenario's capabilities");
  }
  return Status::OK();
}

bool NecessaryChoices(const SourceSet& sources, const Candidate* target,
                      std::vector<Access>* out) {
  out->clear();
  bool skipped_quota = false;
  const size_t m = sources.num_predicates();
  for (PredicateId i = 0; i < m; ++i) {
    if (target != nullptr && target->IsEvaluated(i)) continue;
    if (!sources.has_sorted(i) || sources.exhausted(i)) continue;
    if (sources.quota_exhausted(i)) {
      skipped_quota = true;
      continue;
    }
    out->push_back(Access::Sorted(i));
  }
  // No wild guesses: an unseen object admits only sorted accesses.
  if (target == nullptr) return skipped_quota;
  for (PredicateId i = 0; i < m; ++i) {
    if (target->IsEvaluated(i) || !sources.has_random(i)) continue;
    if (sources.quota_exhausted(i)) {
      skipped_quota = true;
      continue;
    }
    out->push_back(Access::Random(i, target->id));
  }
  return skipped_quota;
}

Status NCEngine::Perform(const Access& access) {
  if (access.type == AccessType::kSorted) {
    std::optional<SortedHit> hit;
    NC_RETURN_IF_ERROR(sources_->TrySortedAccess(access.predicate, &hit));
    NC_CHECK(hit.has_value());  // Alternatives exclude exhausted streams.
    // The theta collector is offered a candidate this hit completes.
    const bool offer =
        complete_topk_.has_value() && !ranked_.IsComplete(hit->object);
    // Multi-attribute sources deliver the whole row.
    const Candidate& c =
        ranked_.Discover(access.predicate, hit->object, hit->score,
                         hit->bundled, sources_->last_seen());
    if (offer && c.IsComplete(sources_->num_predicates())) {
      complete_topk_->Offer(c.id, ranked_.bounds().Exact(c));
    }
    return Status::OK();
  }
  const Candidate* target = ranked_.candidates().Find(access.object);
  NC_CHECK(target != nullptr);  // No wild guesses: the target was seen.
  NC_CHECK(!target->IsEvaluated(access.predicate));
  Score score = 0.0;
  NC_RETURN_IF_ERROR(
      sources_->TryRandomAccess(access.predicate, access.object, &score));
  const Candidate& c = ranked_.Probe(access.object, access.predicate, score);
  if (complete_topk_.has_value() &&
      c.IsComplete(sources_->num_predicates())) {
    complete_topk_->Offer(c.id, ranked_.bounds().Exact(c));
  }
  return Status::OK();
}

void NCEngine::EmitCertified(TerminationReason reason, TopKResult* out) {
  NC_PROFILE_SCOPE(sources_->profiler(), kCertificateBuild);
  ranked_.Certify(*sources_, options_.k, sources_->last_seen(), reason, out);
  last_run_exact_ = false;
  last_run_truncated_ = true;
}

Status NCEngine::Run(TopKResult* out) {
  NC_CHECK(out != nullptr);
  out->entries.clear();
  out->certificate.reset();
  NC_RETURN_IF_ERROR(ValidateQuery(*sources_, *scoring_, options_.k));
  if (!(options_.approximation_theta >= 1.0)) {
    return Status::InvalidArgument("approximation_theta must be >= 1");
  }
  for (PredicateId i = 0; i < sources_->num_predicates(); ++i) {
    if (sources_->sorted_position(i) != 0) {
      return Status::FailedPrecondition(
          "sources must be rewound (SourceSet::Reset) before Run");
    }
  }

  // Fresh per-run state. Without sorted access anywhere, no-wild-guesses
  // is unsatisfiable, so the object universe is taken as known (the
  // probe-only model of MPro).
  ranked_ = RankedPool(scoring_, sources_->num_objects(),
                       !sources_->cost_model().any_sorted());
  accesses_ = 0;
  phase_accesses_ = 0;
  consecutive_failures_ = 0;
  choice_width_total_ = 0.0;
  complete_topk_.reset();
  if (options_.approximation_theta > 1.0) {
    complete_topk_.emplace(options_.k);
  }
  policy_->Reset(*sources_);
  has_run_ = true;
  return InstrumentedLoop("probe", out);
}

Status NCEngine::Extend(size_t new_k, TopKResult* out) {
  NC_CHECK(out != nullptr);
  out->entries.clear();
  out->certificate.reset();
  if (!has_run_) {
    return Status::FailedPrecondition("Extend requires a completed Run");
  }
  if (last_run_truncated_) {
    // A truncated answer's score state does not describe a finished
    // top-k; widening it would silently compound the approximation.
    return Status::FailedPrecondition(
        "Extend after a truncated (best-effort) answer; re-Run instead");
  }
  if (new_k < options_.k) {
    return Status::InvalidArgument("Extend cannot shrink k");
  }
  options_.k = new_k;
  // Each progressive phase gets its own access budget.
  phase_accesses_ = 0;
  consecutive_failures_ = 0;
  // The theta collector's capacity is k: rebuild it at the new width.
  RebuildCompleteTopK();
  return InstrumentedLoop("extend", out);
}

void NCEngine::RebuildCompleteTopK() {
  complete_topk_.reset();
  if (!(options_.approximation_theta > 1.0)) return;
  complete_topk_.emplace(options_.k);
  const size_t m = sources_->num_predicates();
  for (const Candidate& c : ranked_.candidates()) {
    if (c.IsComplete(m)) {
      complete_topk_->Offer(c.id, ranked_.bounds().Exact(c));
    }
  }
}

EngineCheckpoint NCEngine::Checkpoint() const {
  EngineCheckpoint ck;
  ck.k = options_.k;
  const size_t m = sources_->num_predicates();
  ck.num_predicates = m;
  ck.num_objects = sources_->num_objects();
  ck.accesses = accesses_;
  ck.phase_accesses = phase_accesses_;
  ck.consecutive_failures = consecutive_failures_;
  ck.choice_width_total = choice_width_total_;
  ck.pool.reserve(ranked_.candidates().size());
  for (const Candidate& c : ranked_.candidates()) {
    CandidateCheckpoint cand;
    cand.object = c.id;
    cand.mask = c.evaluated_mask;
    for (PredicateId i = 0; i < m; ++i) {
      if (c.IsEvaluated(i)) cand.scores.push_back(c.scores[i]);
    }
    ck.pool.push_back(std::move(cand));
  }
  ck.policy_state = policy_->SaveState();
  ck.sources = sources_->Checkpoint();
  return ck;
}

Status NCEngine::Resume(const EngineCheckpoint& ck, TopKResult* out) {
  NC_CHECK(out != nullptr);
  out->entries.clear();
  out->certificate.reset();
  const size_t m = sources_->num_predicates();
  const size_t n = sources_->num_objects();
  if (ck.version != kEngineCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  if (ck.num_predicates != m || ck.num_objects != n) {
    return Status::InvalidArgument(
        "checkpoint shape does not match the sources");
  }
  NC_RETURN_IF_ERROR(ValidateQuery(*sources_, *scoring_, ck.k));
  if (!(options_.approximation_theta >= 1.0)) {
    return Status::InvalidArgument("approximation_theta must be >= 1");
  }

  // A failure below leaves the engine unusable for queries until a
  // successful Run or Resume.
  has_run_ = false;
  // As Run decides it, and before the restore: a restored source death
  // can leave no sorted access behind.
  const bool universe_seeded = !sources_->cost_model().any_sorted();
  NC_RETURN_IF_ERROR(sources_->RestoreCheckpoint(ck.sources));
  options_.k = ck.k;

  CandidatePool pool(m);
  for (const CandidateCheckpoint& cand : ck.pool) {
    if (cand.object >= n) {
      return Status::InvalidArgument("checkpoint candidate out of range");
    }
    if (m < 64 && (cand.mask >> m) != 0) {
      return Status::InvalidArgument(
          "checkpoint candidate mask names unknown predicates");
    }
    bool created = false;
    Candidate& c = pool.GetOrCreate(cand.object, &created);
    if (!created) {
      return Status::InvalidArgument("duplicate checkpoint candidate");
    }
    size_t next_score = 0;
    for (PredicateId i = 0; i < m; ++i) {
      if (((cand.mask >> i) & 1) == 0) continue;
      if (next_score >= cand.scores.size()) {
        return Status::InvalidArgument(
            "checkpoint candidate score count mismatch");
      }
      // A stored score must be the exact p_i[u] the sources serve
      // (ScoreProvider::ScoreOf agrees with the streams; reading it bills
      // nothing). A corrupt one could certify a wrong "exact" answer.
      const Score score = cand.scores[next_score++];
      if (score != sources_->provider().ScoreOf(i, cand.object)) {
        return Status::InvalidArgument(
            "checkpoint candidate score disagrees with the source");
      }
      c.SetScore(i, score);
    }
    if (next_score != cand.scores.size()) {
      return Status::InvalidArgument(
          "checkpoint candidate score count mismatch");
    }
  }
  // The heap is derived from the pool, so the pool must hold every object
  // the run has seen: the whole universe when it was seeded, and every
  // object a cursor has passed, with that predicate evaluated. An object
  // missing from it would silently drop out of the answer. The check
  // reads the provider and bills nothing.
  if (universe_seeded && pool.size() != n) {
    return Status::InvalidArgument(
        "checkpoint pool misses part of the seeded universe");
  }
  for (PredicateId i = 0; i < m; ++i) {
    for (size_t rank = 0; rank < sources_->sorted_position(i); ++rank) {
      const Candidate* c =
          pool.Find(sources_->provider().SortedEntryAt(i, rank).object);
      if (c == nullptr || !c->IsEvaluated(i)) {
        return Status::InvalidArgument(
            "checkpoint pool misses an object a cursor has passed");
      }
    }
  }
  // TopK answers depend only on current bounds, so the continuation
  // replays the original run.
  ranked_ =
      RankedPool(scoring_, n, std::move(pool), sources_->last_seen());
  RebuildCompleteTopK();
  policy_->Reset(*sources_);
  NC_RETURN_IF_ERROR(policy_->RestoreState(ck.policy_state));
  accesses_ = ck.accesses;
  phase_accesses_ = ck.phase_accesses;
  consecutive_failures_ = ck.consecutive_failures;
  choice_width_total_ = ck.choice_width_total;
  has_run_ = true;
  return InstrumentedLoop("resume", out);
}

Status NCEngine::InstrumentedLoop(const char* phase, TopKResult* out) {
  obs::QueryTracer* const tracer = sources_->tracer();
  const bool tracing = obs::ShouldTrace(tracer);
  if (tracing) tracer->BeginPhase(phase);
  const Status status = Loop(out);
  if (tracing) tracer->EndPhase(phase);
  return status;
}

Status NCEngine::Loop(TopKResult* out) {
  const size_t runaway_guard = RunawayGuard(*sources_, options_.k);
  last_run_truncated_ = false;
  last_run_degraded_ = false;
  obs::QueryTracer* const tracer = sources_->tracer();
  obs::Profiler* const profiler = sources_->profiler();
  const bool tracing = obs::ShouldTrace(tracer);

  while (true) {
    std::span<const RankedPool::Entry> topk;
    {
      NC_PROFILE_SCOPE(profiler, kCandidateHeap);
      topk = ranked_.TopK(options_.k, sources_->last_seen());
    }
    const double kth_bound = topk.empty() ? 0.0 : topk.back().bound;
    // Theorem 1: the first incomplete member of K_P (rank order)
    // designates an unsatisfied task; if none exists, K_P is the answer.
    const std::optional<const Candidate*> task =
        ranked_.FirstIncomplete(topk);
    if (!task.has_value()) {
      RankedPool::Answer(topk, out);
      last_run_exact_ = true;
      return Status::OK();
    }
    const Candidate* const target_state = *task;
    const ObjectId target =
        target_state == nullptr ? kUnseenObject : target_state->id;

    // Theta-halting: k complete objects whose k-th exact score, inflated
    // by theta, dominates every non-member's maximal-possible score. Any
    // object outside K_P ranks below all of it, so it is bounded by a
    // K_P non-member's bound (or every K_P entry is a complete member,
    // which is the exact-termination case handled above).
    if (complete_topk_.has_value() && complete_topk_->full()) {
      double max_nonmember = -1.0;
      for (const RankedPool::Entry& e : topk) {
        if (e.object == kUnseenObject || !complete_topk_->Contains(e.object)) {
          max_nonmember = std::max(max_nonmember, e.bound);
        }
      }
      if (max_nonmember >= 0.0 &&
          options_.approximation_theta * complete_topk_->kth_score() >=
              max_nonmember) {
        // Theta answers are complete, but still carry their proof: the
        // returned scores are exact (degenerate intervals) and every
        // excluded object is bounded by max_nonmember, which dominates
        // everything outside K_P. The halting test then caps epsilon at
        // theta - 1.
        std::vector<CertifiedRow> rows;
        for (const TopKEntry& e : complete_topk_->Take().entries) {
          rows.push_back(CertifiedRow{e.object, e.score, e.score});
        }
        SettleCertified(*sources_, rows, max_nonmember, options_.k,
                        TerminationReason::kTheta, out);
        last_run_exact_ = false;
        return Status::OK();
      }
    }

    // Budget exhaustion certifies the current answer instead of failing.
    // The exact- and theta-termination tests above run first, so a query
    // whose answer is already proven keeps it even at the budget edge.
    if (sources_->budget_exhausted()) {
      EmitCertified(BudgetStopReason(*sources_), out);
      return Status::OK();
    }

    const bool skipped_quota =
        NecessaryChoices(*sources_, target_state, &alternatives_);
    if (alternatives_.empty()) {
      TerminationReason reason;
      NC_RETURN_IF_ERROR(StallReason(*sources_, skipped_quota, &reason));
      EmitCertified(reason, out);
      return Status::OK();
    }
    EngineView view;
    view.sources = sources_;
    view.scoring = scoring_;
    view.k = options_.k;
    view.target = target;
    view.target_state = target_state;

    const Access access = policy_->Select(alternatives_, view);
    const bool offered =
        std::find(alternatives_.begin(), alternatives_.end(), access) !=
        alternatives_.end();
    NC_CHECK(offered);  // Policies must pick among the necessary choices.

    const Status performed = Perform(access);
    if (performed.code() == StatusCode::kResourceExhausted) {
      // The access layer refused to start the access: the budget or a
      // quota ran out under the engine (defensive - the loop-top check
      // and NecessaryChoices normally catch both first). Nothing was
      // billed, so the current answer certifies as-is.
      EmitCertified(BudgetStopReason(*sources_), out);
      return Status::OK();
    }
    if (!performed.ok()) {
      // Unrecoverable access failure: no candidate state was consumed,
      // so the loop can simply re-derive the necessary choices against
      // whatever capabilities survive.
      NC_CHECK(performed.code() == StatusCode::kUnavailable);
      last_run_degraded_ = true;
      ++consecutive_failures_;
      if (consecutive_failures_ >= kMaxConsecutiveFailures) {
        EmitCertified(TerminationReason::kSourceFailure, out);
        return Status::OK();
      }
      continue;
    }
    consecutive_failures_ = 0;
    choice_width_total_ += static_cast<double>(alternatives_.size());
    if (tracing) {
      tracer->RecordIteration(
          target, static_cast<uint32_t>(alternatives_.size()),
          scoring_->Evaluate(sources_->last_seen()), kth_bound,
          ranked_.size(), sources_->accrued_cost());
    }

    ++accesses_;
    ++phase_accesses_;
    if (options_.access_callback) options_.access_callback(accesses_);
    if (options_.max_accesses != 0 &&
        phase_accesses_ > options_.max_accesses) {
      if (!options_.best_effort) {
        return Status::ResourceExhausted("max_accesses exceeded");
      }
      EmitCertified(TerminationReason::kAccessCap, out);
      return Status::OK();
    }
    if (accesses_ > runaway_guard) {
      return Status::Internal("engine exceeded the runaway-access guard");
    }
  }
}

Status RunNC(SourceSet* sources, const ScoringFunction* scoring,
             SelectPolicy* policy, const EngineOptions& options,
             TopKResult* out) {
  NCEngine engine(sources, scoring, policy, options);
  return engine.Run(out);
}

}  // namespace nc
