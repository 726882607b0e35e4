// Crash-safe checkpoint/resume of in-flight NC queries.
//
// A production middleware paying real money per source access cannot
// afford to repay those accesses because its own process restarted.
// EngineCheckpoint captures everything an interrupted NCEngine run knows
// - candidate score state, heap entries, counters, policy state, and the
// full SourceSet snapshot (cursors, last-seen bounds, accrued cost,
// probed masks, breaker state, fault-injector state, RNG streams) - so
// NCEngine::Resume continues the run with *zero re-issued accesses* and
// a final answer bit-identical to the uninterrupted run's.
//
// The serialized form is a versioned, line-oriented text format in the
// spirit of access/trace_format.h: a "ncckpt <version>" header followed
// by fixed-order `key value` lines. Doubles are written as C hexfloats
// ("%a"), so every value - including +-inf - round-trips byte-exactly;
// SerializeCheckpoint and ParseCheckpoint invert each other exactly, and
// serializing a parsed checkpoint reproduces the input byte for byte.
//
// What a checkpoint is NOT: configuration. The dataset, scenario,
// scoring function, policy type/config, retry/budget/breaker policies,
// and engine options all live in code; Resume requires the caller to
// have rebuilt them identically and validates the shapes it can check
// (predicate/object counts, capability sets, injector attachment).

#ifndef NC_CORE_CHECKPOINT_H_
#define NC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "access/source.h"
#include "common/score.h"
#include "common/status.h"
#include "core/bound_heap.h"
#include "core/result.h"

namespace nc {

// One candidate's score state: `scores` holds the evaluated entries in
// ascending predicate order (one per set bit of `mask`).
struct CandidateCheckpoint {
  ObjectId object = 0;
  uint64_t mask = 0;
  std::vector<Score> scores;
};

// Full mid-query state of one NCEngine run. Produced by
// NCEngine::Checkpoint(), consumed by NCEngine::Resume().
struct EngineCheckpoint {
  // Format version (kEngineCheckpointVersion when produced by this
  // build). Version 2 added the replica-fleet section.
  uint32_t version = 2;

  // --- Query shape (validated against the resuming engine) -------------
  size_t k = 0;
  size_t num_predicates = 0;
  size_t num_objects = 0;

  // --- Engine counters --------------------------------------------------
  size_t accesses = 0;
  size_t phase_accesses = 0;
  size_t consecutive_failures = 0;
  double choice_width_total = 0.0;
  bool universe_seeded = false;

  // --- Theta collector (engaged only when approximation_theta > 1) -----
  bool has_complete_topk = false;
  // Complete candidates in rank order (exact scores).
  std::vector<TopKEntry> complete_topk;

  // --- Candidate pool in creation order ---------------------------------
  std::vector<CandidateCheckpoint> pool;

  // --- Heap entries: written at current bounds in rank order; Resume
  // accepts any order and any bound no lower than the current one -----
  std::vector<LazyBoundHeap::Entry> heap;

  // --- Opaque per-run policy state (SelectPolicy::SaveState) -----------
  std::string policy_state;

  // --- The access layer -------------------------------------------------
  SourceCheckpoint sources;
};

inline constexpr uint32_t kEngineCheckpointVersion = 2;

// Serializes to the versioned text format described above.
std::string SerializeCheckpoint(const EngineCheckpoint& checkpoint);

// Parses SerializeCheckpoint output. InvalidArgument on a malformed or
// version-incompatible document; *out is only written on success.
Status ParseCheckpoint(const std::string& text, EngineCheckpoint* out);

}  // namespace nc

#endif  // NC_CORE_CHECKPOINT_H_
