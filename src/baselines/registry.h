// Uniform handle over every implemented algorithm (NC and the baselines),
// used by the benchmark harness to run "each algorithm in each scenario it
// supports" without per-binary wiring.

#ifndef NC_BASELINES_REGISTRY_H_
#define NC_BASELINES_REGISTRY_H_

#include <functional>
#include <string>
#include <vector>

#include "access/source.h"
#include "common/status.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

struct AlgorithmInfo {
  std::string name;
  // True when the algorithm's published scenario covers `model`.
  std::function<bool(const CostModel&)> applicable;
  // Runs the algorithm; `sources` is rewound by the caller.
  std::function<Status(SourceSet*, const ScoringFunction&, size_t,
                       TopKResult*)>
      run;
  // True when the algorithm returns exact scores (Definition 1's
  // semantics); set-only algorithms (classic NRA, Stream-Combine) return
  // a correct top-k set whose reported scores are lower bounds.
  bool exact_scores = true;
};

// Every baseline: FA, TA, CA, NRA (both modes), MPro, Upper,
// Quick-Combine, Stream-Combine. NC itself is run via core/planner.h.
const std::vector<AlgorithmInfo>& AllBaselines();

// Looks up one baseline by name; nullptr if unknown.
const AlgorithmInfo* FindBaseline(const std::string& name);

}  // namespace nc

#endif  // NC_BASELINES_REGISTRY_H_
