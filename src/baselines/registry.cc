#include "baselines/registry.h"

#include "baselines/ca.h"
#include "baselines/fa.h"
#include "baselines/mpro.h"
#include "baselines/nra.h"
#include "baselines/quick_combine.h"
#include "baselines/stream_combine.h"
#include "baselines/ta.h"
#include "baselines/taz.h"
#include "baselines/upper.h"

namespace nc {

namespace {

bool AllSorted(const CostModel& model) {
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (!model.has_sorted(i)) return false;
  }
  return true;
}

bool AllRandom(const CostModel& model) {
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (!model.has_random(i)) return false;
  }
  return true;
}

std::vector<AlgorithmInfo> BuildRegistry() {
  std::vector<AlgorithmInfo> algorithms;
  algorithms.push_back(AlgorithmInfo{
      "FA",
      [](const CostModel& m) { return AllSorted(m) && AllRandom(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunFA(s, f, k, out);
      },
      /*exact_scores=*/true});
  algorithms.push_back(AlgorithmInfo{
      "TA",
      [](const CostModel& m) { return AllSorted(m) && AllRandom(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunTA(s, f, k, out);
      },
      /*exact_scores=*/true});
  algorithms.push_back(AlgorithmInfo{
      "TAz",
      [](const CostModel& m) { return AllRandom(m) && m.any_sorted(); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunTAz(s, f, k, out);
      },
      /*exact_scores=*/true});
  algorithms.push_back(AlgorithmInfo{
      "CA",
      [](const CostModel& m) { return AllSorted(m) && AllRandom(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunCA(s, f, k, /*h=*/0, out);
      },
      /*exact_scores=*/true});
  algorithms.push_back(AlgorithmInfo{
      "Quick-Combine",
      [](const CostModel& m) { return AllSorted(m) && AllRandom(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunQuickCombine(s, f, k, /*lookback=*/5, out);
      },
      /*exact_scores=*/true});
  algorithms.push_back(AlgorithmInfo{
      "NRA",
      [](const CostModel& m) { return AllSorted(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunNRA(s, f, k, NRAMode::kSetOnly, out);
      },
      /*exact_scores=*/false});
  algorithms.push_back(AlgorithmInfo{
      "NRA-exact",
      [](const CostModel& m) { return AllSorted(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunNRA(s, f, k, NRAMode::kExactScores, out);
      },
      /*exact_scores=*/true});
  algorithms.push_back(AlgorithmInfo{
      "Stream-Combine",
      [](const CostModel& m) { return AllSorted(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunStreamCombine(s, f, k, /*lookback=*/5, out);
      },
      /*exact_scores=*/false});
  algorithms.push_back(AlgorithmInfo{
      "MPro",
      [](const CostModel& m) { return AllRandom(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunMPro(s, f, k, /*schedule=*/{}, out);
      },
      /*exact_scores=*/true});
  algorithms.push_back(AlgorithmInfo{
      "Upper",
      [](const CostModel& m) { return AllRandom(m); },
      [](SourceSet* s, const ScoringFunction& f, size_t k, TopKResult* out) {
        return RunUpper(s, f, k, /*expected_scores=*/{}, out);
      },
      /*exact_scores=*/true});
  return algorithms;
}

}  // namespace

const std::vector<AlgorithmInfo>& AllBaselines() {
  static const std::vector<AlgorithmInfo>& registry =
      *new std::vector<AlgorithmInfo>(BuildRegistry());
  return registry;
}

const AlgorithmInfo* FindBaseline(const std::string& name) {
  for (const AlgorithmInfo& info : AllBaselines()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

}  // namespace nc
