// PlaybookRunner: execute scenario variants under invariant oracles.
//
// The runner is the playbook's verdict machine. Each variant is executed
// through the stack the spec selects - the NC engine in-process
// (workers == 0) or a QueryServer (workers >= 1) - and then judged by
// the invariant oracles, every one of which is a promise the rest of the
// codebase already makes:
//
//   kDifferential - every answer without a certificate, whatever its
//       faults, budget or server, is THE top-k: its ranked scores and
//       every reported score bit-equal to BruteForceTopK's (CheckAnswer,
//       core/reference.h). A fault-free, unlimited-budget variant must
//       also reach that exact answer.
//   kCertificate  - a returned AnytimeCertificate keeps CheckAnswer's
//       promises against ground truth: intervals contain true scores, the
//       excluded ceiling dominates every non-returned object, epsilon
//       bounds the rank error in the (1 + eps) * score(y) >= score(z)
//       sense.
//   kBilling      - Eq. 1 conservation: the per-predicate AccessStats
//       cost cells sum to accrued_cost(), and RecordRunMetrics
//       re-aggregates to the same totals in a MetricsRegistry.
//   kBudget       - a capped run stops within one worst-case access of
//       its cost cap / deadline (fleet cost multipliers and hedging
//       included), and never exceeds a predicate quota.
//   kResume       - a variant killed at kill_at_access must, when its
//       checkpoint is resumed on a freshly configured stack, replay to
//       the bit-identical answer and certificate, cost, elapsed time,
//       access count, and attempt trace.
//
// Runs stop early on the configured StopConditions (wall-clock cap,
// max flagged variants, stop-on-first-anomaly). The PlaybookReport is
// the "engineer packet": for every flagged variant it records the exact
// repro command line, the violated oracles, the anomaly diff against a
// recorded baseline, and the full serialized spec - enough to reproduce
// without the generator. Its JSON form is also the next run's baseline,
// each entry keyed by variant name and stamped with a hash of the spec
// it was recorded for.

#ifndef NC_PLAYBOOK_RUNNER_H_
#define NC_PLAYBOOK_RUNNER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "access/cost_model.h"
#include "access/fault.h"
#include "common/status.h"
#include "core/result.h"
#include "playbook/scenario.h"

namespace nc::playbook {

enum class Oracle {
  kDifferential,
  kCertificate,
  kBilling,
  kBudget,
  kResume,
};

// "Differential", "Certificate", ... for packets and logs.
const char* OracleName(Oracle oracle);

// The worst a single access can bill against a plain (fleet-less)
// source: the priciest live unit cost, with every preceding attempt
// failed and charged at the retry factor. Shared with the chaos fuzz
// suite; the budget oracle scales it by the fleet's worst cost
// multiplier and the hedging factor.
double WorstAccessBilling(const CostModel& cost, const RetryPolicy& retry);

// The worst a single access can advance the deadline clock: the billing
// above plus every attempt timing out plus maximal jittered backoff.
double WorstElapsedIncrement(const CostModel& cost, const RetryPolicy& retry);

// One oracle violation: the invariant that broke and the evidence.
struct Violation {
  Oracle oracle = Oracle::kDifferential;
  std::string detail;
};

// Everything the runner learned about one variant.
struct VariantVerdict {
  ScenarioSpec spec;
  // False when a stop condition skipped the variant before execution.
  bool executed = false;
  Status run_status;
  std::vector<Violation> violations;
  // Non-empty when the observed (cost, accesses) diverged from the
  // baseline recorded for this scenario name and spec.
  std::string anomaly;

  // Observed outcome (valid when executed and run_status.ok()).
  double accrued_cost = 0.0;
  double elapsed_time = 0.0;
  size_t accesses = 0;
  size_t result_size = 0;
  bool exact = false;
  bool certified = false;
  double wall_seconds = 0.0;

  // A variant is flagged when anything at all went wrong.
  bool flagged() const {
    return !run_status.ok() || !violations.empty() || !anomaly.empty();
  }
};

struct StopConditions {
  // Stop starting new variants once this much wall time has elapsed;
  // 0 = no cap. Variants never started count as skipped, not failed.
  double max_wall_seconds = 0.0;
  // Stop after this many flagged variants; 0 = no cap.
  size_t max_failures = 0;
  // Stop at the first flagged variant (violation, anomaly, or error).
  bool stop_on_first_anomaly = false;
};

// Recorded expectation for one scenario name (from a packet's baseline).
// Runs are deterministic on the simulated cost clock, so cost and access
// counts must reproduce exactly - for the same spec: a variant is only
// compared with an entry whose spec_hash is its own.
struct BaselineEntry {
  double cost = 0.0;
  size_t accesses = 0;
  // 64-bit FNV-1a of the recorded spec's Serialize() text, in 16 hex
  // digits.
  std::string spec_hash;
};

struct RunnerOptions {
  StopConditions stop;
  // Floating-point slack for the billing / budget / baseline oracles.
  // The answer oracles do not use it (CheckAnswer).
  double tolerance = 1e-9;
  // Echoed into each flagged variant's repro line as
  // "<repro_prefix> --only <variant-name>". Leave empty to omit.
  std::string repro_prefix;
  // Per-scenario-name expectations to diff against (anomaly oracle);
  // entries recorded for another spec are not compared.
  std::map<std::string, BaselineEntry> baseline;
  // TEST HOOK: invoked on every executed result before the oracles run.
  // Tests corrupt the result here (e.g. widen a certificate interval) to
  // prove the oracles catch and report it.
  std::function<void(const ScenarioSpec&, TopKResult*)> tamper;
};

// The engineer packet: aggregate counts plus per-variant verdicts.
struct PlaybookReport {
  size_t total = 0;
  size_t executed = 0;
  size_t passed = 0;
  size_t flagged = 0;
  size_t skipped = 0;
  size_t violations = 0;
  size_t anomalies = 0;
  bool stopped_early = false;
  std::string stop_reason;
  double wall_seconds = 0.0;
  std::string repro_prefix;
  std::vector<VariantVerdict> verdicts;

  // The repro command line for one verdict ("<prefix> --only <name>";
  // just the name when no prefix is configured).
  std::string ReproCommand(const VariantVerdict& verdict) const;

  // Human packet: summary line + one block per flagged variant.
  std::string ToText() const;
  // Machine packet (obs::JsonWriter): summary + flagged variants, each
  // with its repro command and full serialized spec, + the "baseline"
  // map of every executed, unflagged variant's (cost, accesses,
  // spec_hash).
  std::string ToJson() const;
};

class PlaybookRunner {
 public:
  explicit PlaybookRunner(RunnerOptions options = RunnerOptions());

  // Executes one variant and judges it. Invalid specs come back
  // unexecuted with run_status carrying the validation error.
  VariantVerdict RunOne(const ScenarioSpec& spec) const;

  // Executes `variants` in order under the stop conditions.
  PlaybookReport Run(const std::vector<ScenarioSpec>& variants) const;

  const RunnerOptions& options() const { return options_; }

 private:
  VariantVerdict RunEngineVariant(const ScenarioSpec& spec) const;
  VariantVerdict RunServerVariant(const ScenarioSpec& spec) const;

  RunnerOptions options_;
};

// Extracts the top-level {"baseline": {"<name>": {"cost": c, "accesses":
// a, "spec_hash": "h"}}} member of a PlaybookReport::ToJson packet
// (parsed by obs::ParseJson). InvalidArgument when the document is not
// one valid JSON document or its baseline object is malformed: a missing
// field, an unknown one, or an access count that is not a non-negative
// integer.
Status LoadBaseline(const std::string& json,
                    std::map<std::string, BaselineEntry>* out);

// FailedPrecondition naming the first of `variants` whose name has an
// entry in `baseline` recorded for another spec - a packet from another
// soak, whose entries would be diffed against unrelated variants.
Status MatchBaseline(const std::map<std::string, BaselineEntry>& baseline,
                     const std::vector<ScenarioSpec>& variants);

}  // namespace nc::playbook

#endif  // NC_PLAYBOOK_RUNNER_H_
