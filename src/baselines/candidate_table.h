// Shared plumbing for the baseline algorithms (Figure 2's matrix).
//
// Every baseline works off the same primitives as the NC engine - the
// access layer, the candidate pool, and bound evaluation. MPro and Upper,
// which Section 8 places inside NC's space, are select policies of the
// engine itself (baselines/mpro.cc, baselines/upper.cc). The rest keep
// their published control loops, and NRA's exact mode halts on Theorem
// 1's ranked pool (core/bound_heap.h) without sharing the scheduler, so
// cost comparisons against them compare genuinely different schedulers.

#ifndef NC_BASELINES_CANDIDATE_TABLE_H_
#define NC_BASELINES_CANDIDATE_TABLE_H_

#include <vector>

#include "access/source.h"
#include "common/score.h"
#include "common/status.h"
#include "core/candidate.h"
#include "core/result.h"
#include "core/topk_collector.h"
#include "scoring/scoring_function.h"

namespace nc {

// The predicates of `model` that support the given access type, ascending.
std::vector<PredicateId> SortedCapable(const CostModel& model);
std::vector<PredicateId> RandomCapable(const CostModel& model);

// Returns Unsupported unless every predicate supports sorted access
// (and random access, when `need_random` is set). Baselines use this to
// declare their scenario requirements up front.
Status RequireUniformCapabilities(const SourceSet& sources, bool need_sorted,
                                  bool need_random, const char* algorithm);

// --- Stopping (access/budget.h, access/fault.h) -------------------------
// Every baseline access goes through SourceSet::TrySortedAccess /
// TryRandomAccess. Unlike NC (and MPro and Upper, which run on it), the
// published control loops are rigid - they cannot steer around one
// quota-spent or dead predicate - so the first access the sources refuse
// or fail ends the whole run through SettleRefusal.

// Proven [lower, upper] interval of a partially evaluated row: unknown
// predicates (unset bits of `known_mask`) read as 0 for the lower bound
// and as the last-seen score l_j for the upper bound.
CertifiedRow PartialRow(const SourceSet& sources,
                        const ScoringFunction& scoring, ObjectId object,
                        const std::vector<Score>& row, uint64_t known_mask);

// Completes the row of `object`, first returned by sorted access on
// `seen` (row[seen] holds that score), by random access on every other
// predicate in index order - the TA family's exhaustive probing. On OK
// appends the exact row to *rows; when an access fails, appends the
// object's PartialRow instead and returns the failure.
Status CompleteRow(SourceSet* sources, const ScoringFunction& scoring,
                   ObjectId object, PredicateId seen, std::vector<Score>* row,
                   std::vector<CertifiedRow>* rows);

// Ends a run whose access returned `refusal` (not OK). A budget refusal
// (kResourceExhausted, already counted in AccessStats::budget_refusals)
// returns OK with the certified anytime answer under BudgetStopReason:
// `rows` plus, when `pool` is given, every pool candidate at [Lower,
// Upper at the last-seen scores l], against F(l) for every object no
// sorted access has returned (none once `pool` holds the whole universe).
// Any other failure - a source that failed for good - is returned as is.
Status SettleRefusal(const Status& refusal, const SourceSet& sources,
                     const ScoringFunction& scoring, size_t k,
                     std::vector<CertifiedRow> rows, const CandidatePool* pool,
                     TopKResult* out);

}  // namespace nc

#endif  // NC_BASELINES_CANDIDATE_TABLE_H_
