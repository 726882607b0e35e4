#include "baselines/upper.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "common/numeric.h"
#include "core/engine.h"

namespace nc {

namespace {

// Upper's select rule over the engine's necessary choices: the unseen
// sentinel is offered sorted reads only, a candidate its probes (and
// reads of its unevaluated streams, which Upper leaves alone).
class UpperPolicy final : public SelectPolicy {
 public:
  explicit UpperPolicy(std::vector<double> expected)
      : expected_(std::move(expected)) {}

  void Reset(const SourceSet&) override { rr_sorted_ = 0; }

  Access Select(std::span<const Access> alternatives,
                const EngineView& view) override {
    const SourceSet& sources = *view.sources;
    const size_t m = sources.num_predicates();
    if (view.target_state == nullptr) {
      // Discover a candidate: round-robin over the sorted-capable lists.
      const auto nearer_the_cursor = [&](const Access& a, const Access& b) {
        return (a.predicate + m - rr_sorted_) % m <
               (b.predicate + m - rr_sorted_) % m;
      };
      const Access& read = *std::min_element(
          alternatives.begin(), alternatives.end(), nearer_the_cursor);
      rr_sorted_ = (read.predicate + 1) % m;
      return read;
    }
    // Probe the predicate with the best expected bound-drop per cost; the
    // drop is negative once a ceiling falls below its expectation.
    const Access* best = nullptr;
    double best_rate = 0.0;
    for (const Access& a : alternatives) {
      if (a.type != AccessType::kRandom) continue;
      const PredicateId i = a.predicate;
      const double cost = sources.cost_model().random_cost[i];
      const double drop = sources.last_seen(i) - expected_[i];
      const double rate = cost > 0.0 ? drop / cost : drop * 1e12;
      if (best == nullptr || rate > best_rate) {
        best = &a;
        best_rate = rate;
      }
    }
    // Upper requires a probe on every predicate, and only a death takes
    // one away - with its stream, so a candidate offered a read is
    // offered that predicate's probe too.
    NC_CHECK(best != nullptr);
    return *best;
  }

  std::string SaveState() const override {
    return std::to_string(rr_sorted_);
  }

  Status RestoreState(const std::string& state) override {
    uint64_t cursor = 0;
    if (!state.empty() && !ParseUInt64(state, &cursor)) {
      return Status::InvalidArgument("malformed Upper policy state");
    }
    rr_sorted_ = static_cast<size_t>(cursor);
    return Status::OK();
  }

 private:
  std::vector<double> expected_;
  size_t rr_sorted_ = 0;  // The list the next discovery read tries first.
};

}  // namespace

Status RunUpper(SourceSet* sources, const ScoringFunction& scoring, size_t k,
                const std::vector<double>& expected_scores, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources,
                                                /*need_sorted=*/false,
                                                /*need_random=*/true,
                                                "Upper"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();
  std::vector<double> expected = expected_scores;
  if (expected.empty()) expected.assign(m, 0.5);
  if (expected.size() != m) {
    return Status::InvalidArgument("expected_scores size mismatch");
  }
  for (const double e : expected) {
    if (!IsValidScore(e)) {
      return Status::InvalidArgument("expected score outside [0, 1]");
    }
  }

  UpperPolicy policy(std::move(expected));
  EngineOptions options;
  options.k = k;
  return RunNC(sources, &scoring, &policy, options, out);
}

}  // namespace nc
