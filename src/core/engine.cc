#include "core/engine.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <utility>

#include "common/check.h"
#include "core/checkpoint.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace nc {

// The state only a run with concurrency > 1 keeps.
struct NCEngine::Window {
  // An access issued (and paid for) whose result is not yet visible: the
  // simulated source decides its answer at issue, the network delays it.
  struct InFlight {
    double completion = 0.0;
    uint64_t sequence = 0;  // FIFO tie-break.
    Access access;
    // For a sorted read: the stream position it consumed.
    size_t rank = 0;
    SortedHit hit;

    friend bool operator>(const InFlight& a, const InFlight& b) {
      if (a.completion != b.completion) return a.completion > b.completion;
      return a.sequence > b.sequence;
    }
  };

  // Opens on the sources' current state, with nothing in flight.
  explicit Window(const SourceSet& sources)
      : ceilings(sources.last_seen().begin(), sources.last_seen().end()),
        frontier(sources.num_predicates()),
        landed(sources.num_predicates()) {
    for (PredicateId i = 0; i < frontier.size(); ++i) {
      frontier[i] = sources.sorted_position(i);
    }
  }

  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>>
      pending;
  // The completion time of the latest applied result.
  double now = 0.0;
  uint64_t sequence = 0;
  // Sorted results land out of order under latency jitter, and a deep
  // entry's score is no bound while shallower reads are in flight: an
  // unseen object could land at one of those positions with a higher
  // score. So each visible ceiling tracks only the contiguous prefix of
  // applied positions (`frontier`); results past it wait in `landed`.
  std::vector<Score> ceilings;
  std::vector<size_t> frontier;
  std::vector<std::map<size_t, Score>> landed;
  // Random probes in flight, never offered twice.
  std::set<std::pair<PredicateId, ObjectId>> probing;
  // Tasks served this epoch; cleared whenever a completion lands.
  std::set<ObjectId> served;
};

struct NCEngine::Epoch {
  Score kth_bound = 0.0;  // K_P's k-th bound, for the iteration events.
  bool tried = false;     // Some access went out or failed unrecoverably.
  // Some necessary choice was withheld by a spent quota.
  bool skipped_quota = false;
  // Set when the access layer refused an access or the access cap was
  // passed: nothing more is issued, and the run settles.
  std::optional<TerminationReason> stop;
};

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

NCEngine::~NCEngine() = default;

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

namespace {

// Persistent flaking without a death could otherwise loop forever on the
// same task: after this many unrecovered access failures in a row, the
// engine settles with kSourceFailure.
constexpr size_t kMaxConsecutiveFailures = 32;

// Definition 2: the necessary choices of the task `target` designates (a
// candidate, or nullptr for the unseen sentinel, which admits only sorted
// accesses under no-wild-guesses), into *out in deterministic order:
// sorted accesses by predicate, then random accesses by predicate. Dead
// sources offer nothing, so a mid-run death re-derives the choices.
// Quota-spent predicates are withheld (a hard, permanent bar) and the
// return value says whether one was; breaker-open predicates are NOT -
// their fast-fails are transient, unbilled, and bounded by
// kMaxConsecutiveFailures.
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

}  // namespace

Status NCEngine::Perform(const Access& access) {
  const PredicateId i = access.predicate;
  SortedHit hit;
  size_t rank = 0;
  if (access.type == AccessType::kSorted) {
    rank = sources_->sorted_position(i);
    std::optional<SortedHit> sorted;
    NC_RETURN_IF_ERROR(sources_->TrySortedAccess(i, &sorted));
    NC_CHECK(sorted.has_value());  // Alternatives exclude exhausted streams.
    hit = std::move(*sorted);
  } else {
    const Candidate* target = ranked_.candidates().Find(access.object);
    NC_CHECK(target != nullptr);  // No wild guesses: the target was seen.
    NC_CHECK(!target->IsEvaluated(i));
    hit.object = access.object;
    NC_RETURN_IF_ERROR(
        sources_->TryRandomAccess(i, access.object, &hit.score));
  }
  if (window_ == nullptr) [[likely]] {
    Apply(access, hit, sources_->last_seen());
    return Status::OK();
  }
  // Retries and timeouts held the line before the request that finally
  // succeeded went out; its latency starts after that penalty.
  const double completion = window_->now + sources_->last_access_penalty() +
                            sources_->DrawLatency(access.type, i);
  if (access.type == AccessType::kRandom) {
    window_->probing.insert({i, access.object});
  }
  window_->pending.push(Window::InFlight{completion, window_->sequence++,
                                         access, rank, std::move(hit)});
  return Status::OK();
}

void NCEngine::Apply(const Access& access, const SortedHit& hit,
                     std::span<const Score> ceilings) {
  const bool offer =
      complete_topk_.has_value() && !ranked_.IsComplete(hit.object);
  // Multi-attribute sources deliver the whole row.
  const Candidate& c =
      access.type == AccessType::kSorted
          ? ranked_.Discover(access.predicate, hit.object, hit.score,
                             hit.bundled, ceilings)
          : ranked_.Probe(hit.object, access.predicate, hit.score);
  if (offer && c.IsComplete(sources_->num_predicates())) {
    complete_topk_->Offer(c.id, ranked_.bounds().Exact(c));
  }
}

void NCEngine::ApplyNext() {
  Window& w = *window_;
  const Window::InFlight flight = w.pending.top();
  w.pending.pop();
  w.now = std::max(w.now, flight.completion);
  w.served.clear();
  Apply(flight.access, flight.hit, w.ceilings);
  const PredicateId i = flight.access.predicate;
  if (flight.access.type == AccessType::kRandom) {
    w.probing.erase({i, flight.hit.object});
    return;
  }
  std::map<size_t, Score>& landed = w.landed[i];
  landed.emplace(flight.rank, flight.hit.score);
  for (auto it = landed.begin();
       it != landed.end() && it->first == w.frontier[i];
       it = landed.erase(it)) {
    // Every object of an exhausted list is visible: none remains unseen.
    w.ceilings[i] =
        ++w.frontier[i] >= sources_->num_objects() ? kMinScore : it->second;
  }
}

std::span<const Score> NCEngine::Ceilings() const {
  if (window_ == nullptr) return sources_->last_seen();
  return window_->ceilings;
}

double NCEngine::makespan() const {
  return window_ == nullptr ? sources_->elapsed_time() : window_->now;
}

size_t NCEngine::in_flight() const {
  return window_ == nullptr ? 0 : window_->pending.size();
}

void NCEngine::EmitCertified(TerminationReason reason, TopKResult* out) {
  if (window_ != nullptr) {
    // Settle on what was paid for: every result in flight that lands by
    // the deadline (all of them, without one) applies first, in
    // completion order. Only those landing later stay unseen, and are
    // wasted.
    const double deadline = sources_->budget().deadline;
    while (!window_->pending.empty() &&
           (deadline <= 0.0 || window_->pending.top().completion <= deadline)) {
      ApplyNext();
    }
  }
  NC_PROFILE_SCOPE(sources_->profiler(), kCertificateBuild);
  ranked_.Certify(*sources_, options_.k, Ceilings(), reason, out);
  last_run_exact_ = false;
  last_run_truncated_ = true;
}

Status NCEngine::ValidateOptions(size_t k) const {
  NC_RETURN_IF_ERROR(ValidateQuery(*sources_, *scoring_, k));
  if (!(options_.approximation_theta >= 1.0)) {
    return Status::InvalidArgument("approximation_theta must be >= 1");
  }
  if (options_.concurrency == 0) {
    return Status::InvalidArgument("concurrency must be positive");
  }
  return Status::OK();
}

Status NCEngine::Run(TopKResult* out) {
  NC_CHECK(out != nullptr);
  out->entries.clear();
  out->certificate.reset();
  NC_RETURN_IF_ERROR(ValidateOptions(options_.k));
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
  failed_accesses_ = 0;
  RebuildCompleteTopK();
  window_ = options_.concurrency > 1 ? std::make_unique<Window>(*sources_)
                                     : nullptr;
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
  NC_CHECK(in_flight() == 0);  // Results in flight have no place here.
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
  NC_RETURN_IF_ERROR(ValidateOptions(ck.k));

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
  failed_accesses_ = 0;
  window_ = options_.concurrency > 1 ? std::make_unique<Window>(*sources_)
                                     : nullptr;
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
  obs::Profiler* const profiler = sources_->profiler();

  while (true) {
    std::span<const RankedPool::Entry> topk;
    {
      NC_PROFILE_SCOPE(profiler, kCandidateHeap);
      topk = ranked_.TopK(options_.k, Ceilings());
    }
    // Theorem 1: the first incomplete member of K_P (rank order)
    // designates an unsatisfied task; if none exists, K_P is the answer.
    const std::optional<const Candidate*> task =
        ranked_.FirstIncomplete(topk);
    if (!task.has_value()) {
      RankedPool::Answer(topk, out);
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
    // The deadline also trips on the window's makespan (conservative:
    // under concurrency the makespan runs behind total cost).
    const double deadline = sources_->budget().deadline;
    const bool late =
        window_ != nullptr && deadline > 0.0 && window_->now >= deadline;
    if (sources_->budget_exhausted() || late) {
      EmitCertified(BudgetStopReason(*sources_, late), out);
      return Status::OK();
    }

    Epoch epoch;
    epoch.kth_bound = topk.empty() ? 0.0 : topk.back().bound;
    if (window_ == nullptr) [[likely]] {
      Serve(*task, /*speculative=*/false, &epoch);
    } else {
      ServeWindow(topk, &epoch);
    }
    if (epoch.stop == TerminationReason::kAccessCap && !options_.best_effort) {
      return Status::ResourceExhausted("max_accesses exceeded");
    }
    if (epoch.stop.has_value()) {
      EmitCertified(*epoch.stop, out);
      return Status::OK();
    }
    if (consecutive_failures_ >= kMaxConsecutiveFailures) {
      // Sources keep failing without anything landing in between: settle
      // on what was paid for rather than spin.
      EmitCertified(TerminationReason::kSourceFailure, out);
      return Status::OK();
    }
    if (accesses_ > runaway_guard) {
      return Status::Internal("engine exceeded the runaway-access guard");
    }
    if (window_ != nullptr && !window_->pending.empty()) {
      ApplyNext();
    } else if (!epoch.tried) {
      // Nothing went out and nothing is in flight. A spent quota, not the
      // scenario, can block progress; so can a death that made the
      // remaining tasks unsatisfiable mid-run, and then the run returns
      // what the surviving accesses established. Anything else is the
      // scenario's capabilities.
      if (!epoch.skipped_quota && !sources_->any_source_down()) {
        return Status::FailedPrecondition(
            "query cannot be completed under the scenario's capabilities");
      }
      EmitCertified(epoch.skipped_quota ? BudgetStopReason(*sources_)
                                        : TerminationReason::kSourceFailure,
                    out);
      return Status::OK();
    }
  }
}

void NCEngine::ServeWindow(std::span<const RankedPool::Entry> topk,
                           Epoch* epoch) {
  const auto room = [&] {
    return window_->pending.size() < options_.concurrency &&
           !epoch->stop.has_value();
  };
  const auto state_of = [&](ObjectId u) {
    return u == kUnseenObject ? nullptr : ranked_.candidates().Find(u);
  };
  // Discovery (the unseen sentinel's sorted reads) is the speculative
  // part of a plan: a candidate's probe stays useful however the ranks
  // shift, but a discovery read is only needed if the sentinel is still
  // in the way once everything in flight lands. Serve it when it leads
  // the rank order, or as a stall-breaker when no concrete task could
  // issue this epoch.
  bool leading = true;
  bool issued_concrete = false;
  bool deferred_sentinel = false;
  for (const RankedPool::Entry& e : topk) {
    if (!room()) break;
    if (ranked_.IsComplete(e.object)) continue;
    if (!std::exchange(leading, false) && e.object == kUnseenObject) {
      deferred_sentinel = true;
      continue;
    }
    if (window_->served.count(e.object) != 0) continue;
    if (Serve(state_of(e.object), /*speculative=*/false, epoch) &&
        e.object != kUnseenObject) {
      issued_concrete = true;
    }
  }
  if (deferred_sentinel && !issued_concrete && room() &&
      window_->served.count(kUnseenObject) == 0) {
    Serve(nullptr, /*speculative=*/false, epoch);
  }
  // Speculation: read streams ahead for the highest-ranked task that
  // still has a sorted alternative.
  for (size_t spec = 0; spec < options_.max_speculation && room(); ++spec) {
    const bool launched =
        std::any_of(topk.begin(), topk.end(), [&](const RankedPool::Entry& e) {
          return !ranked_.IsComplete(e.object) &&
                 Serve(state_of(e.object), /*speculative=*/true, epoch);
        });
    if (!launched) break;
  }
}

bool NCEngine::Serve(const Candidate* state, bool speculative,
                     Epoch* epoch) {
  const ObjectId target = state == nullptr ? kUnseenObject : state->id;
  if (NecessaryChoices(*sources_, state, &alternatives_)) {
    epoch->skipped_quota = true;
  }
  if (window_ != nullptr) [[unlikely]] {
    // A probe in flight is never offered twice; speculation reads streams
    // only (a duplicate probe is pure waste, a deeper read at worst early).
    std::erase_if(alternatives_, [&](const Access& a) {
      return a.type == AccessType::kRandom &&
             (speculative ||
              window_->probing.count({a.predicate, a.object}) != 0);
    });
  }
  if (alternatives_.empty()) return false;
  const EngineView view{sources_, scoring_, options_.k, target, state};
  const Access access = policy_->Select(alternatives_, view);
  const bool offered =
      std::find(alternatives_.begin(), alternatives_.end(), access) !=
      alternatives_.end();
  NC_CHECK(offered);  // Policies must pick among the necessary choices.

  const Status performed = Perform(access);
  if (performed.code() == StatusCode::kResourceExhausted) {
    // The access layer refused to start the access: the budget or a quota
    // ran out under the engine (the loop-top check and NecessaryChoices
    // catch both first, unless an earlier issue of this epoch crossed
    // it). Nothing was billed, so the current answer certifies as-is.
    epoch->stop = BudgetStopReason(*sources_);
    return true;
  }
  if (!performed.ok()) {
    // Unrecoverable access failure: no candidate state was consumed, so
    // the loop can simply re-derive the necessary choices against
    // whatever capabilities survive.
    NC_CHECK(performed.code() == StatusCode::kUnavailable);
    last_run_degraded_ = true;
    epoch->tried = true;
    ++failed_accesses_;
    ++consecutive_failures_;
    return false;
  }
  consecutive_failures_ = 0;
  epoch->tried = true;
  if (window_ != nullptr) [[unlikely]] window_->served.insert(target);
  choice_width_total_ += static_cast<double>(alternatives_.size());
  obs::QueryTracer* const tracer = sources_->tracer();
  if (obs::ShouldTrace(tracer)) {
    tracer->RecordIteration(
        target, static_cast<uint32_t>(alternatives_.size()),
        scoring_->Evaluate(Ceilings()), epoch->kth_bound, ranked_.size(),
        sources_->accrued_cost());
  }
  ++accesses_;
  ++phase_accesses_;
  if (options_.access_callback) options_.access_callback(accesses_);
  if (options_.max_accesses != 0 &&
      phase_accesses_ > options_.max_accesses) {
    epoch->stop = TerminationReason::kAccessCap;
  }
  return true;
}

Status RunNC(SourceSet* sources, const ScoringFunction* scoring,
             SelectPolicy* policy, const EngineOptions& options,
             TopKResult* out) {
  NCEngine engine(sources, scoring, policy, options);
  return engine.Run(out);
}

}  // namespace nc
