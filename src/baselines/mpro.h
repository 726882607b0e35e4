// MPro (Chang & Hwang, SIGMOD 2002; [5] in the paper): the reference
// algorithm when sorted access is impossible and predicates are evaluated
// by probes only.
//
// The object universe is known up front (per MPro's model the candidates
// come from a driving filter; here that is SourceSet's dataset). A
// priority queue ranks candidates by maximal-possible score; the top
// incomplete candidate is probed on its next unevaluated predicate
// following a fixed global schedule; the query halts when the top k are
// complete. MPro proved this probe-optimal for the given schedule, and
// Section 8 puts it inside NC's space: here it is NCEngine running SR/G
// at H = (1, ..., 1) with that schedule, over a probe-only view.

#ifndef NC_BASELINES_MPRO_H_
#define NC_BASELINES_MPRO_H_

#include <vector>

#include "access/source.h"
#include "common/status.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

// Runs MPro for the top-k using the global probe `schedule` (a permutation
// of the predicates; pass an empty vector for the identity schedule).
// Requires random access on every predicate. Once the arguments are
// valid it narrows `sources` to the probe-only view: every sorted cost
// becomes kImpossibleCost, which SourceSet::Reset does not undo for a
// live source. So it never performs sorted access, and the engine seeds
// the object universe.
Status RunMPro(SourceSet* sources, const ScoringFunction& scoring, size_t k,
               const std::vector<PredicateId>& schedule, TopKResult* out);

}  // namespace nc

#endif  // NC_BASELINES_MPRO_H_
