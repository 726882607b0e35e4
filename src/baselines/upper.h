// Upper (Bruno, Gravano & Marian, ICDE 2002; [2] in the paper): a
// probe-scheduling algorithm for Web sources that always works on the
// object with the highest maximal-possible score.
//
// Our rendition covers both of Upper's published settings:
//  * probe-only (no sorted access): like MPro but with a per-object probe
//    choice - the undetermined predicate with the best expected
//    bound-reduction per unit cost, (ceiling_i - E[p_i]) / cr_i - instead
//    of a fixed global schedule.
//  * discovery via sorted access: when the top of the queue is the
//    virtual unseen object, perform a round-robin sorted access.
//
// E[p_i] comes from samples (the optimizer's machinery); pass empty
// expectations for the uninformed default of 0.5. Section 8 puts Upper
// inside NC's space: it runs NCEngine with this select rule as policy.

#ifndef NC_BASELINES_UPPER_H_
#define NC_BASELINES_UPPER_H_

#include <vector>

#include "access/source.h"
#include "common/status.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

// Runs Upper for the top-k. Requires random access on every predicate;
// uses sorted access for candidate discovery when available.
// `expected_scores` holds one E[p_i] in [0, 1] per predicate (empty for
// 0.5 each); anything else is InvalidArgument.
Status RunUpper(SourceSet* sources, const ScoringFunction& scoring, size_t k,
                const std::vector<double>& expected_scores, TopKResult* out);

}  // namespace nc

#endif  // NC_BASELINES_UPPER_H_
