// Brute-force top-k over the raw dataset, and the one definition of a true
// answer built on it: the test oracle every algorithm is checked against.
// Bypasses the access layer deliberately (it is not a middleware algorithm
// and has no cost).

#ifndef NC_CORE_REFERENCE_H_
#define NC_CORE_REFERENCE_H_

#include <string>

#include "core/result.h"
#include "data/dataset.h"
#include "scoring/scoring_function.h"

namespace nc {

// Scores every object and returns the top min(k, n), ranked by descending
// score with ties broken by descending ObjectId (matching the middleware
// algorithms' deterministic semantics).
TopKResult BruteForceTopK(const Dataset& data, const ScoringFunction& scoring,
                          size_t k);

// Whether `result`, a top-k answer over `data`, keeps its promises. Empty
// when it does; otherwise the first broken promise, naming the object and
// both numbers. Every answer returns distinct objects of `data`.
//
// An answer without a certificate is the exact top-k: its ranked scores
// are bit-equal to BruteForceTopK's (a tie may rank either member) and
// every reported score is bit-equal to its object's true score. A set-only
// algorithm (`exact_scores` false, see AlgorithmInfo) reports lower bounds
// instead: its objects' true scores, ranked, equal the brute-force scores,
// and each reported score is at most its object's true score.
//
// A certified answer (AnytimeCertificate) has one interval per entry, and
// each interval contains its entry's true score; every object not
// returned scores at most the excluded ceiling and, unless epsilon is
// infinite or the answer is empty, at most (1 + epsilon) times the least
// true score returned, plus 1e-9 for the rounding of that product. Every
// other comparison is exact.
std::string CheckAnswer(const Dataset& data, const ScoringFunction& scoring,
                        size_t k, const TopKResult& result,
                        bool exact_scores = true);

}  // namespace nc

#endif  // NC_CORE_REFERENCE_H_
