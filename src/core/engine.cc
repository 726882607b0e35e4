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
      pool_(sources->num_predicates()),
      bounds_(scoring),
      ceilings_(sources->num_predicates(), kMaxScore) {
  NC_CHECK(sources_ != nullptr);
  NC_CHECK(scoring_ != nullptr);
  NC_CHECK(policy_ != nullptr);
}

std::optional<Score> NCEngine::BoundOf(ObjectId u,
                                       std::span<const Score> ceilings,
                                       BoundEvaluator* bounds) const {
  if (u == kUnseenObject) {
    // The sentinel dies once every object has been seen.
    if (pool_.size() >= sources_->num_objects()) return std::nullopt;
    return scoring_->Evaluate(ceilings);
  }
  const Candidate* c = pool_.Find(u);
  NC_CHECK(c != nullptr);
  if (c->IsComplete(sources_->num_predicates())) return bounds->Exact(*c);
  return bounds->Upper(*c, ceilings);
}

void NCEngine::LoadCeilings() {
  const size_t m = sources_->num_predicates();
  for (PredicateId i = 0; i < m; ++i) ceilings_[i] = sources_->last_seen(i);
}

std::span<const LazyBoundHeap::Entry> NCEngine::RankTopK(size_t k) {
  LoadCeilings();
  return heap_.TopK(
      k, [this](ObjectId u) { return BoundOf(u, ceilings_, &bounds_); });
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

void SettleCertified(const SourceSet& sources,
                     const std::vector<CertifiedRow>& rows,
                     Score unseen_ceiling, size_t k, TerminationReason reason,
                     TopKResult* out) {
  BuildCertifiedResult(rows, unseen_ceiling, k, reason, out);
  if (obs::ShouldTrace(sources.tracer())) {
    sources.tracer()->RecordCertificate(
        TerminationReasonName(reason), out->certificate->epsilon,
        out->certificate->excluded_ceiling, sources.accrued_cost());
  }
}

Status NCEngine::Perform(const Access& access) {
  if (access.type == AccessType::kSorted) {
    std::optional<SortedHit> hit;
    NC_RETURN_IF_ERROR(sources_->TrySortedAccess(access.predicate, &hit));
    NC_CHECK(hit.has_value());  // Alternatives exclude exhausted streams.
    bool created = false;
    Candidate& c = pool_.GetOrCreate(hit->object, &created);
    const bool was_complete = c.IsComplete(sources_->num_predicates());
    if (!c.IsEvaluated(access.predicate)) {
      c.SetScore(access.predicate, hit->score);
    }
    // Multi-attribute sources deliver the whole row.
    for (const auto& [predicate, score] : hit->bundled) {
      if (!c.IsEvaluated(predicate)) c.SetScore(predicate, score);
    }
    if (complete_topk_.has_value() && !was_complete &&
        c.IsComplete(sources_->num_predicates())) {
      complete_topk_->Offer(c.id, bounds_.Exact(c));
    }
    if (created) {
      LoadCeilings();
      heap_.Push(c.id, bounds_.Upper(c, ceilings_));
    }
    return Status::OK();
  }
  Candidate* c = pool_.Find(access.object);
  NC_CHECK(c != nullptr);  // No wild guesses: the target was seen.
  NC_CHECK(!c->IsEvaluated(access.predicate));
  Score score = 0.0;
  NC_RETURN_IF_ERROR(
      sources_->TryRandomAccess(access.predicate, access.object, &score));
  c->SetScore(access.predicate, score);
  if (complete_topk_.has_value() &&
      c->IsComplete(sources_->num_predicates())) {
    complete_topk_->Offer(c->id, bounds_.Exact(*c));
  }
  return Status::OK();
}

void NCEngine::EmitCertified(TerminationReason reason, TopKResult* out) {
  NC_PROFILE_SCOPE(sources_->profiler(), kCertificateBuild);
  // Deriving the top k+1 verifies one bound past the answer, and every
  // entry outside those k+1 ranks below it, so the excluded ceiling is
  // sound without a global rescan. (The sentinel stands for no concrete
  // object: its bound is the unseen ceiling.)
  std::vector<CertifiedRow> rows;
  Score unseen = kMinScore;
  for (const LazyBoundHeap::Entry& e : RankTopK(options_.k + 1)) {
    if (e.object == kUnseenObject) {
      unseen = e.bound;
      continue;
    }
    const Candidate* c = pool_.Find(e.object);
    NC_CHECK(c != nullptr);
    rows.push_back(CertifiedRow{e.object, bounds_.Lower(*c), e.bound});
  }
  SettleCertified(*sources_, rows, unseen, options_.k, reason, out);
  last_run_exact_ = false;
  last_run_truncated_ = true;
}

Status NCEngine::Run(TopKResult* out) {
  NC_CHECK(out != nullptr);
  out->entries.clear();
  out->certificate.reset();
  const size_t m = sources_->num_predicates();
  const size_t n = sources_->num_objects();
  NC_RETURN_IF_ERROR(sources_->cost_model().Validate());
  if (scoring_->arity() != m) {
    return Status::InvalidArgument(
        "scoring function arity does not match predicate count");
  }
  if (options_.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (!(options_.approximation_theta >= 1.0)) {
    return Status::InvalidArgument("approximation_theta must be >= 1");
  }
  for (PredicateId i = 0; i < m; ++i) {
    if (sources_->sorted_position(i) != 0) {
      return Status::FailedPrecondition(
          "sources must be rewound (SourceSet::Reset) before Run");
    }
  }

  // Fresh per-run state.
  pool_ = CandidatePool(m);
  heap_ = LazyBoundHeap();
  accesses_ = 0;
  phase_accesses_ = 0;
  consecutive_failures_ = 0;
  choice_width_total_ = 0.0;
  complete_topk_.reset();
  if (options_.approximation_theta > 1.0) {
    complete_topk_.emplace(options_.k);
  }
  policy_->Reset(*sources_);

  // Seed candidates. Without sorted access anywhere, no-wild-guesses is
  // unsatisfiable, so the object universe is taken as known (the
  // probe-only model of MPro).
  universe_seeded_ =
      !options_.no_wild_guesses || !sources_->cost_model().any_sorted();
  const std::vector<Score> all_ones(m, kMaxScore);
  const Score initial_bound = scoring_->Evaluate(all_ones);
  if (universe_seeded_) {
    for (ObjectId u = 0; u < n; ++u) {
      pool_.GetOrCreate(u);
      heap_.Push(u, initial_bound);
    }
  } else if (n > 0) {
    heap_.Push(kUnseenObject, initial_bound);
  }

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
  for (const Candidate& c : pool_) {
    if (c.IsComplete(m)) complete_topk_->Offer(c.id, bounds_.Exact(c));
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
  ck.pool.reserve(pool_.size());
  for (const Candidate& c : pool_) {
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
  NC_RETURN_IF_ERROR(sources_->cost_model().Validate());
  if (scoring_->arity() != m) {
    return Status::InvalidArgument(
        "scoring function arity does not match predicate count");
  }
  if (ck.k == 0) {
    return Status::InvalidArgument("checkpoint k must be positive");
  }
  if (!(options_.approximation_theta >= 1.0)) {
    return Status::InvalidArgument("approximation_theta must be >= 1");
  }

  // A failure below leaves the engine unusable for queries until a
  // successful Run or Resume.
  has_run_ = false;
  // As Run decides it, and before the restore: a restored source death
  // can leave no sorted access behind.
  universe_seeded_ =
      !options_.no_wild_guesses || !sources_->cost_model().any_sorted();
  NC_RETURN_IF_ERROR(sources_->RestoreCheckpoint(ck.sources));
  options_.k = ck.k;

  pool_ = CandidatePool(m);
  for (const CandidateCheckpoint& cand : ck.pool) {
    if (cand.object >= n) {
      return Status::InvalidArgument("checkpoint candidate out of range");
    }
    if (m < 64 && (cand.mask >> m) != 0) {
      return Status::InvalidArgument(
          "checkpoint candidate mask names unknown predicates");
    }
    bool created = false;
    Candidate& c = pool_.GetOrCreate(cand.object, &created);
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
  if (universe_seeded_ && pool_.size() != n) {
    return Status::InvalidArgument(
        "checkpoint pool misses part of the seeded universe");
  }
  for (PredicateId i = 0; i < m; ++i) {
    for (size_t rank = 0; rank < sources_->sorted_position(i); ++rank) {
      const Candidate* c =
          pool_.Find(sources_->provider().SortedEntryAt(i, rank).object);
      if (c == nullptr || !c->IsEvaluated(i)) {
        return Status::InvalidArgument(
            "checkpoint pool misses an object a cursor has passed");
      }
    }
  }
  // The bound heap holds every candidate at its current bound, plus the
  // unseen sentinel while objects remain unseen; TopK answers depend only
  // on current bounds, so the continuation replays the original run.
  heap_ = LazyBoundHeap();
  LoadCeilings();
  for (const Candidate& c : pool_) {
    heap_.Push(c.id, *BoundOf(c.id, ceilings_, &bounds_));
  }
  if (!universe_seeded_) {
    const std::optional<Score> unseen =
        BoundOf(kUnseenObject, ceilings_, &bounds_);
    if (unseen.has_value()) heap_.Push(kUnseenObject, *unseen);
  }
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
  const size_t m = sources_->num_predicates();
  const size_t n = sources_->num_objects();
  // Every useful execution performs at most n sorted and n random accesses
  // per predicate; anything beyond signals an engine/policy bug.
  const size_t runaway_guard = 2 * n * m + options_.k + 64;
  // Persistent flaking without a death could otherwise loop forever on
  // the same task; after this many unrecovered failures in a row the
  // engine gives up and degrades.
  constexpr size_t kMaxConsecutiveFailures = 32;
  last_run_truncated_ = false;
  last_run_degraded_ = false;
  obs::QueryTracer* const tracer = sources_->tracer();
  obs::Profiler* const profiler = sources_->profiler();
  const bool tracing = obs::ShouldTrace(tracer);

  while (true) {
    std::span<const LazyBoundHeap::Entry> topk;
    {
      NC_PROFILE_SCOPE(profiler, kCandidateHeap);
      topk = RankTopK(options_.k);
    }
    const double kth_bound = topk.empty() ? 0.0 : topk.back().bound;
    // Theorem 1: the first incomplete member of K_P (rank order)
    // designates an unsatisfied task; if none exists, K_P is the answer.
    ObjectId target = kUnseenObject;
    const Candidate* target_state = nullptr;
    bool found_incomplete = false;
    for (const LazyBoundHeap::Entry& e : topk) {
      if (e.object == kUnseenObject) {
        found_incomplete = true;
        break;
      }
      const Candidate* c = pool_.Find(e.object);
      NC_CHECK(c != nullptr);
      if (!c->IsComplete(m)) {
        target = e.object;
        target_state = c;
        found_incomplete = true;
        break;
      }
    }
    if (!found_incomplete) {
      out->entries.reserve(topk.size());
      for (const LazyBoundHeap::Entry& e : topk) {
        // A complete entry's verified bound is its exact score.
        out->entries.push_back(TopKEntry{e.object, e.bound});
      }
      last_run_exact_ = true;
      return Status::OK();
    }

    // Theta-halting: k complete objects whose k-th exact score, inflated
    // by theta, dominates every non-member's maximal-possible score. Any
    // object outside K_P ranks below all of it, so it is bounded by a
    // K_P non-member's bound (or every K_P entry is a complete member,
    // which is the exact-termination case handled above).
    if (complete_topk_.has_value() && complete_topk_->full()) {
      double max_nonmember = -1.0;
      for (const LazyBoundHeap::Entry& e : topk) {
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
      if (skipped_quota) {
        // Every remaining choice for the task needs a quota-spent
        // predicate: the per-predicate budget, not the scenario, is what
        // blocks progress (the global budget was checked above).
        EmitCertified(BudgetStopReason(*sources_), out);
        return Status::OK();
      }
      if (sources_->any_source_down()) {
        // A death made the task unsatisfiable mid-run: rather than fail,
        // return what the surviving accesses established.
        EmitCertified(TerminationReason::kSourceFailure, out);
        return Status::OK();
      }
      return Status::FailedPrecondition(
          "scoring task for " +
          (target == kUnseenObject ? std::string("unseen objects")
                                   : "object " + std::to_string(target)) +
          " cannot be completed under the scenario's capabilities");
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
      LoadCeilings();
      tracer->RecordIteration(
          target, static_cast<uint32_t>(alternatives_.size()),
          scoring_->Evaluate(ceilings_), kth_bound, heap_.size(),
          sources_->accrued_cost());
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
