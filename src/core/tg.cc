#include "core/tg.h"

#include <algorithm>

#include "common/check.h"

namespace nc {

TGRandomPolicy::TGRandomPolicy(uint64_t seed) : seed_(seed), rng_(seed) {}

void TGRandomPolicy::Reset(const SourceSet& sources) {
  (void)sources;
  rng_ = Rng(seed_);
}

Access TGRandomPolicy::Select(std::span<const Access> pool_accesses,
                              const TGView& view) {
  (void)view;
  NC_CHECK(!pool_accesses.empty());
  return pool_accesses[rng_.UniformInt(pool_accesses.size())];
}

namespace {

// Ranks the current top-k by maximal-possible score (seen objects plus
// the unseen sentinel); returns true when all of them are complete, in
// which case `out` receives the answer.
bool Halted(const SourceSet& sources, CandidatePool& pool,
            BoundEvaluator& bounds, bool universe_seeded, size_t k,
            TopKResult* out) {
  const size_t m = sources.num_predicates();
  std::vector<Score> ceilings(m);
  for (PredicateId i = 0; i < m; ++i) ceilings[i] = sources.last_seen(i);

  struct Ranked {
    ObjectId object;
    Score bound;
    bool complete;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(pool.size() + 1);
  for (Candidate& c : pool) {
    const bool complete = c.IsComplete(m);
    ranked.push_back(Ranked{
        c.id, complete ? bounds.Exact(c) : bounds.Upper(c, ceilings),
        complete});
  }
  if (!universe_seeded && pool.size() < sources.num_objects()) {
    ranked.push_back(Ranked{kUnseenObject,
                            bounds.scoring().Evaluate(ceilings), false});
  }
  const size_t take = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + take, ranked.end(),
                    [](const Ranked& a, const Ranked& b) {
                      if (a.bound != b.bound) return a.bound > b.bound;
                      if (a.object == kUnseenObject) return false;
                      if (b.object == kUnseenObject) return true;
                      return a.object > b.object;
                    });
  for (size_t i = 0; i < take; ++i) {
    if (!ranked[i].complete) return false;
  }
  out->entries.clear();
  for (size_t i = 0; i < take; ++i) {
    out->entries.push_back(TopKEntry{ranked[i].object, ranked[i].bound});
  }
  return true;
}

// Every currently legal access: live sorted streams plus useful probes.
void EnumerateLegalPool(const SourceSet& sources, CandidatePool& pool,
                        std::vector<Access>* out) {
  out->clear();
  const size_t m = sources.num_predicates();
  for (PredicateId i = 0; i < m; ++i) {
    if (sources.has_sorted(i) && !sources.exhausted(i)) {
      out->push_back(Access::Sorted(i));
    }
  }
  for (Candidate& c : pool) {
    for (PredicateId i = 0; i < m; ++i) {
      if (!c.IsEvaluated(i) && sources.has_random(i)) {
        out->push_back(Access::Random(i, c.id));
      }
    }
  }
}

}  // namespace

Status RunTG(SourceSet* sources, const ScoringFunction& scoring,
             TGSelectPolicy* policy, const TGOptions& options,
             TopKResult* out, TGReport* report) {
  NC_CHECK(sources != nullptr);
  NC_CHECK(policy != nullptr);
  NC_CHECK(out != nullptr);
  out->entries.clear();
  const size_t m = sources->num_predicates();
  const size_t n = sources->num_objects();
  NC_RETURN_IF_ERROR(sources->cost_model().Validate());
  if (scoring.arity() != m) {
    return Status::InvalidArgument(
        "scoring function arity does not match predicate count");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be positive");

  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  policy->Reset(*sources);
  const bool universe_seeded = !sources->cost_model().any_sorted();
  if (universe_seeded) {
    for (ObjectId u = 0; u < n; ++u) pool.GetOrCreate(u);
  }

  TGView view;
  view.sources = sources;
  view.scoring = &scoring;
  view.k = options.k;
  view.pool = &pool;

  std::vector<Access> legal;
  size_t accesses = 0;
  double width_total = 0.0;
  const size_t runaway_guard = 2 * n * m + options.k + 64;

  while (!Halted(*sources, pool, bounds, universe_seeded, options.k, out)) {
    EnumerateLegalPool(*sources, pool, &legal);
    if (legal.empty()) {
      return Status::FailedPrecondition(
          "query cannot be completed under the scenario's capabilities");
    }
    width_total += static_cast<double>(legal.size());
    const Access access = policy->Select(legal, view);
    const bool offered =
        std::find(legal.begin(), legal.end(), access) != legal.end();
    NC_CHECK(offered);

    if (access.type == AccessType::kSorted) {
      std::optional<SortedHit> hit;
      NC_RETURN_IF_ERROR(sources->TrySortedAccess(access.predicate, &hit));
      NC_CHECK(hit.has_value());
      Candidate& c = pool.GetOrCreate(hit->object);
      if (!c.IsEvaluated(access.predicate)) {
        c.SetScore(access.predicate, hit->score);
      }
      for (const auto& [predicate, score] : hit->bundled) {
        if (!c.IsEvaluated(predicate)) c.SetScore(predicate, score);
      }
    } else {
      Candidate* c = pool.Find(access.object);
      NC_CHECK(c != nullptr);
      Score score = 0.0;
      NC_RETURN_IF_ERROR(
          sources->TryRandomAccess(access.predicate, access.object, &score));
      c->SetScore(access.predicate, score);
    }
    ++accesses;
    if (accesses > runaway_guard) {
      return Status::Internal("TG exceeded the runaway-access guard");
    }
  }

  if (report != nullptr) {
    report->accesses = accesses;
    report->mean_choice_width =
        accesses == 0 ? 0.0 : width_total / static_cast<double>(accesses);
  }
  return Status::OK();
}

}  // namespace nc
