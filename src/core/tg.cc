#include "core/tg.h"

#include <algorithm>

#include "common/check.h"
#include "core/bound_heap.h"
#include "core/engine.h"

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

// Every currently legal access: live sorted streams plus useful probes.
void EnumerateLegalPool(const SourceSet& sources, const CandidatePool& pool,
                        std::vector<Access>* out) {
  out->clear();
  const size_t m = sources.num_predicates();
  for (PredicateId i = 0; i < m; ++i) {
    if (sources.has_sorted(i) && !sources.exhausted(i)) {
      out->push_back(Access::Sorted(i));
    }
  }
  for (const Candidate& c : pool) {
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
  NC_RETURN_IF_ERROR(ValidateQuery(*sources, scoring, options.k));
  RankedPool ranked(&scoring, sources->num_objects(),
                    !sources->cost_model().any_sorted());
  policy->Reset(*sources);

  TGView view;
  view.sources = sources;
  view.scoring = &scoring;
  view.k = options.k;
  view.pool = &ranked.candidates();

  std::vector<Access> legal;
  size_t accesses = 0;
  double width_total = 0.0;
  const size_t runaway_guard = RunawayGuard(*sources, options.k);

  while (true) {
    // The same Theorem-1 test NC halts on.
    const std::span<const RankedPool::Entry> topk =
        ranked.TopK(options.k, sources->last_seen());
    if (!ranked.FirstIncomplete(topk).has_value()) {
      RankedPool::Answer(topk, out);
      break;
    }
    EnumerateLegalPool(*sources, ranked.candidates(), &legal);
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
      ranked.Discover(access.predicate, hit->object, hit->score, hit->bundled,
                      sources->last_seen());
    } else {
      NC_CHECK(ranked.candidates().Find(access.object) != nullptr);
      Score score = 0.0;
      NC_RETURN_IF_ERROR(
          sources->TryRandomAccess(access.predicate, access.object, &score));
      ranked.Probe(access.object, access.predicate, score);
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
