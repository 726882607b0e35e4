// Crash-safe checkpoint/resume of in-flight NC queries.
//
// A production middleware paying real money per source access cannot
// afford to repay those accesses because its own process restarted.
// EngineCheckpoint captures what an interrupted NCEngine run knows and
// cannot recompute, so NCEngine::Resume continues the run with *zero
// re-issued accesses* and a final answer bit-identical to the
// uninterrupted run's.
//
// Stored: the candidate pool (each candidate's evaluated scores), the
// engine counters, the policy state, and the SourceSet snapshot (cursors,
// accrued cost and the Eq. 1 stats cells, probed masks, breaker,
// fault-injector and fleet state, RNG streams, attempt trace).
//
// Derived by Resume, never stored: the last-seen scores l_i (a function
// of each cursor), whether the object universe was seeded (a function of
// the engine options and the scenario), the bound heap (every candidate
// at its current bound, plus the unseen sentinel while objects remain
// unseen) and the theta collector (the top-k complete candidates under a
// total order). A stored copy of any of these could only disagree with
// the state it is a function of, and a disagreeing copy could certify a
// wrong answer; deriving them leaves nothing to disagree.
//
// Verified by Resume against the provider (reads, never billed
// accesses): every stored score equals the source's, and every object a
// cursor has passed is a candidate with that predicate evaluated.
// Trusted as stored: the accrued cost and the Eq. 1 stats cells (their
// summation order cannot be replayed bit-exactly, and they do not decide
// what the answer is), counters, RNG streams and breaker state.
//
// The serialized form is "ncckpt 3" in the shared record format
// (common/record_codec.h): fixed-order `key value...` lines with C
// hexfloat doubles, so SerializeCheckpoint and ParseCheckpoint invert each
// other exactly and serializing a parsed checkpoint reproduces the input
// byte for byte. ParseCheckpoint also loads "ncckpt 2" files, skipping
// the four lines version 3 derives (universe_seeded, complete_topk, heap,
// src_last_seen).
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

namespace nc {

// One candidate's score state: `scores` holds the evaluated entries in
// ascending predicate order (one per set bit of `mask`).
struct CandidateCheckpoint {
  ObjectId object = 0;
  uint64_t mask = 0;
  std::vector<Score> scores;
};

inline constexpr uint32_t kEngineCheckpointVersion = 3;

// Mid-query state of one NCEngine run that Resume cannot derive.
// Produced by NCEngine::Checkpoint(), consumed by NCEngine::Resume().
struct EngineCheckpoint {
  // Format version: kEngineCheckpointVersion when produced or parsed by
  // this build. Version 2 added the replica-fleet section; version 3
  // dropped the derived sections.
  uint32_t version = kEngineCheckpointVersion;

  // --- Query shape (validated against the resuming engine) -------------
  size_t k = 0;
  size_t num_predicates = 0;
  size_t num_objects = 0;

  // --- Engine counters --------------------------------------------------
  size_t accesses = 0;
  size_t phase_accesses = 0;
  size_t consecutive_failures = 0;
  double choice_width_total = 0.0;

  // --- Candidate pool in creation order ---------------------------------
  std::vector<CandidateCheckpoint> pool;

  // --- Opaque per-run policy state (SelectPolicy::SaveState) -----------
  std::string policy_state;

  // --- The access layer -------------------------------------------------
  SourceCheckpoint sources;
};

// Serializes to the versioned text format described above.
std::string SerializeCheckpoint(const EngineCheckpoint& checkpoint);

// Parses SerializeCheckpoint output, version 3 or 2. InvalidArgument on a
// malformed or version-incompatible document; *out is only written on
// success.
Status ParseCheckpoint(const std::string& text, EngineCheckpoint* out);

}  // namespace nc

#endif  // NC_CORE_CHECKPOINT_H_
