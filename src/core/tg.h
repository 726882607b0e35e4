// Framework TG (Section 4): the trivially-general sequential framework
// the paper refines into NC.
//
// TG iterates "select some supported access; perform it" until the
// gathered information suffices (the same Theorem-1 stopping test NC
// uses, which is exact for top-k semantics). Its Select ranges over the
// *entire* pool of legal accesses - every live sorted stream and every
// useful probe on every seen object - rather than one unsatisfied task's
// necessary choices. That makes TG complete but hopeless to optimize:
// the choice set is O(n*m) wide versus NC's <= 2m (the specificity
// contrast both engines instrument; see choice_set_width()).
//
// TG exists in the library for exactly what the paper uses it for:
// grounding the generality argument (any sequential algorithm fits TG;
// tests drive TG with arbitrary policies and verify NC never needs more
// than comparable TG runs) and quantifying why restricting to necessary
// choices is what makes cost-based search feasible.

#ifndef NC_CORE_TG_H_
#define NC_CORE_TG_H_

#include <span>
#include <vector>

#include "access/access.h"
#include "access/source.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/candidate.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

// Context for a TG access selection.
struct TGView {
  const SourceSet* sources = nullptr;
  const ScoringFunction* scoring = nullptr;
  size_t k = 0;
  // Score state of every seen object.
  const CandidatePool* pool = nullptr;
};

// Selects from the full legal pool. "Legal" excludes only provably
// useless accesses (exhausted streams, re-probes of known scores, probes
// of unseen objects under no-wild-guesses); anything else goes.
class TGSelectPolicy {
 public:
  virtual ~TGSelectPolicy() = default;
  virtual void Reset(const SourceSet& sources) { (void)sources; }
  // `pool_accesses` enumerates the current legal accesses.
  virtual Access Select(std::span<const Access> pool_accesses,
                        const TGView& view) = 0;
};

// Picks uniformly at random from the legal pool: the paper's point that
// TG admits any sequence of supported accesses, exercised as a fuzzer.
class TGRandomPolicy final : public TGSelectPolicy {
 public:
  explicit TGRandomPolicy(uint64_t seed);
  void Reset(const SourceSet& sources) override;
  Access Select(std::span<const Access> pool_accesses,
                const TGView& view) override;

 private:
  uint64_t seed_;
  Rng rng_;
};

struct TGOptions {
  size_t k = 1;
};

struct TGReport {
  size_t accesses = 0;
  // Mean size of the legal choice pool per iteration - the specificity
  // metric contrasted against NCEngine's necessary-choice width.
  double mean_choice_width = 0.0;
};

// Runs a TG algorithm to completion. On OK, *out holds the exact top-k.
// The object universe is seeded up front exactly when the scenario has no
// sorted access (no object could be discovered otherwise). An access the
// sources refuse or fail for good ends the run with that status.
Status RunTG(SourceSet* sources, const ScoringFunction& scoring,
             TGSelectPolicy* policy, const TGOptions& options,
             TopKResult* out, TGReport* report = nullptr);

}  // namespace nc

#endif  // NC_CORE_TG_H_
