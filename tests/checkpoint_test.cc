// Checkpoint/resume (core/checkpoint.h): a mid-query snapshot resumed on
// a freshly configured engine must replay bit-identically - same final
// answer, same Eq. 1 cost, the exact same access sequence with zero
// re-issued accesses - at *every* possible interruption point, and the
// text format must round-trip byte-identically.

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "access/fault.h"
#include "access/source.h"
#include "access/trace_format.h"
#include "common/numeric.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/telemetry.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

Dataset MakeData(uint64_t seed, size_t n = 60, size_t m = 3) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

// Runs a fresh engine over `data`, capturing a checkpoint right after
// access number `kill` (0 = never). Returns the final result.
struct RunOutcome {
  TopKResult result;
  double cost = 0.0;
  size_t accesses = 0;
  std::string trace;
  std::optional<EngineCheckpoint> checkpoint;
};

RunOutcome RunWithKill(const Dataset& data, const ScoringFunction& scoring,
                       size_t k, size_t kill, FaultInjector* injector,
                       double theta = 1.0) {
  RunOutcome outcome;
  SourceSet sources(&data, CostModel::Uniform(data.num_predicates(), 1.0,
                                              1.0));
  sources.EnableTrace();
  if (injector != nullptr) sources.set_fault_injector(injector);
  SRGPolicy policy(SRGConfig::Default(data.num_predicates()));
  EngineOptions options;
  options.k = k;
  options.approximation_theta = theta;
  NCEngine* engine_ptr = nullptr;
  if (kill != 0) {
    options.access_callback = [&outcome, &engine_ptr, kill](size_t count) {
      if (count == kill) outcome.checkpoint = engine_ptr->Checkpoint();
    };
  }
  NCEngine engine(&sources, &scoring, &policy, options);
  engine_ptr = &engine;
  EXPECT_TRUE(engine.Run(&outcome.result).ok());
  outcome.cost = sources.accrued_cost();
  outcome.accesses = engine.accesses_performed();
  outcome.trace = SerializeAttemptTrace(sources.attempt_trace());
  return outcome;
}

// Resumes `checkpoint` on a freshly configured engine and checks the
// continuation against the uninterrupted run.
void ExpectLosslessResume(const Dataset& data,
                          const ScoringFunction& scoring, size_t k,
                          const EngineCheckpoint& checkpoint,
                          const RunOutcome& expected,
                          FaultInjector* injector, double theta,
                          const std::string& label) {
  SourceSet sources(&data, CostModel::Uniform(data.num_predicates(), 1.0,
                                              1.0));
  if (injector != nullptr) sources.set_fault_injector(injector);
  SRGPolicy policy(SRGConfig::Default(data.num_predicates()));
  EngineOptions options;
  options.k = k;
  options.approximation_theta = theta;
  NCEngine engine(&sources, &scoring, &policy, options);
  TopKResult resumed;
  ASSERT_TRUE(engine.Resume(checkpoint, &resumed).ok()) << label;

  ASSERT_EQ(resumed.entries.size(), expected.result.entries.size()) << label;
  for (size_t r = 0; r < resumed.entries.size(); ++r) {
    EXPECT_EQ(resumed.entries[r].object, expected.result.entries[r].object)
        << label << " rank " << r;
    EXPECT_DOUBLE_EQ(resumed.entries[r].score,
                     expected.result.entries[r].score)
        << label << " rank " << r;
  }
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), expected.cost) << label;
  EXPECT_EQ(engine.accesses_performed(), expected.accesses) << label;
  // The restored prefix plus the continuation must be the uninterrupted
  // run's exact access sequence: nothing re-issued, nothing reordered.
  EXPECT_EQ(SerializeAttemptTrace(sources.attempt_trace()), expected.trace)
      << label;
}

TEST(CheckpointTest, SerializationRoundTripsByteIdentically) {
  const Dataset data = MakeData(31);
  AverageFunction avg(3);
  const RunOutcome run =
      RunWithKill(data, avg, 3, /*kill=*/7, /*injector=*/nullptr);
  ASSERT_TRUE(run.checkpoint.has_value());

  const std::string text = SerializeCheckpoint(*run.checkpoint);
  EngineCheckpoint parsed;
  ASSERT_TRUE(ParseCheckpoint(text, &parsed).ok());
  EXPECT_EQ(SerializeCheckpoint(parsed), text);
}

TEST(CheckpointTest, ParseRejectsCorruptedText) {
  const Dataset data = MakeData(32);
  AverageFunction avg(3);
  const RunOutcome run =
      RunWithKill(data, avg, 3, /*kill=*/5, /*injector=*/nullptr);
  ASSERT_TRUE(run.checkpoint.has_value());
  const std::string text = SerializeCheckpoint(*run.checkpoint);

  EngineCheckpoint parsed;
  EXPECT_EQ(ParseCheckpoint("", &parsed).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCheckpoint("ncckpt 99\n", &parsed).code(),
            StatusCode::kInvalidArgument);
  // Truncation anywhere must be detected, never silently accepted.
  EXPECT_EQ(ParseCheckpoint(text.substr(0, text.size() / 2), &parsed).code(),
            StatusCode::kInvalidArgument);
  // Trailing garbage likewise.
  EXPECT_EQ(ParseCheckpoint(text + "extra\n", &parsed).code(),
            StatusCode::kInvalidArgument);
}

// The tentpole proof: kill the query after every single access, resume
// each snapshot on a fresh engine, and demand the uninterrupted run's
// exact answer, cost, and access sequence every time. Every checkpoint
// also takes a trip through the text format first.
TEST(CheckpointTest, KillAtEveryAccessResumesLosslessly) {
  const Dataset data = MakeData(33);
  AverageFunction avg(3);
  const RunOutcome expected =
      RunWithKill(data, avg, 3, /*kill=*/0, /*injector=*/nullptr);
  ASSERT_GT(expected.accesses, 10u);

  for (size_t kill = 1; kill < expected.accesses; ++kill) {
    const RunOutcome killed =
        RunWithKill(data, avg, 3, kill, /*injector=*/nullptr);
    ASSERT_TRUE(killed.checkpoint.has_value()) << "kill " << kill;

    const std::string text = SerializeCheckpoint(*killed.checkpoint);
    EngineCheckpoint parsed;
    ASSERT_TRUE(ParseCheckpoint(text, &parsed).ok()) << "kill " << kill;

    ExpectLosslessResume(data, avg, 3, parsed, expected,
                         /*injector=*/nullptr, /*theta=*/1.0,
                         "kill " + std::to_string(kill));
  }
}

// Checkpoint bytes are canonical: every heap entry at its current bound,
// in rank order, so they depend only on the score state and not on which
// entries the heap last refreshed or held. Resume rebuilds the heap from
// scratch, yet the resumed run's checkpoint at the next access equals the
// uninterrupted run's byte for byte.
TEST(CheckpointTest, ResumedRunCheckpointsByteIdentically) {
  const Dataset data = MakeData(36);
  AverageFunction avg(3);
  const RunOutcome expected =
      RunWithKill(data, avg, 3, /*kill=*/0, /*injector=*/nullptr);
  ASSERT_GT(expected.accesses, 10u);

  for (size_t kill = 1; kill + 1 < expected.accesses; ++kill) {
    const RunOutcome first = RunWithKill(data, avg, 3, kill, nullptr);
    const RunOutcome next = RunWithKill(data, avg, 3, kill + 1, nullptr);
    ASSERT_TRUE(first.checkpoint.has_value()) << "kill " << kill;
    ASSERT_TRUE(next.checkpoint.has_value()) << "kill " << kill;

    SourceSet sources(&data, CostModel::Uniform(3, 1.0, 1.0));
    SRGPolicy policy(SRGConfig::Default(3));
    EngineOptions options;
    options.k = 3;
    std::optional<EngineCheckpoint> again;
    NCEngine* engine_ptr = nullptr;
    options.access_callback = [&again, &engine_ptr, kill](size_t count) {
      if (count == kill + 1) again = engine_ptr->Checkpoint();
    };
    NCEngine engine(&sources, &avg, &policy, options);
    engine_ptr = &engine;
    TopKResult resumed;
    ASSERT_TRUE(engine.Resume(*first.checkpoint, &resumed).ok())
        << "kill " << kill;
    ASSERT_TRUE(again.has_value()) << "kill " << kill;
    EXPECT_EQ(SerializeCheckpoint(*again),
              SerializeCheckpoint(*next.checkpoint))
        << "kill " << kill;
  }
}

// Checkpoints written before the heap section was canonical list entries
// in heap-array order at stale cached bounds. Such a file (kill at access
// 12 of KillAtEveryAccessResumesLosslessly's run) must still parse and
// resume to the uninterrupted run's answer, cost and access sequence.
TEST(CheckpointTest, LegacyHeapOrderCheckpointResumes) {
  std::ifstream in(NC_TESTDATA_DIR "/legacy_heap_order.ncckpt",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream text;
  text << in.rdbuf();
  EngineCheckpoint parsed;
  ASSERT_TRUE(ParseCheckpoint(text.str(), &parsed).ok());

  const Dataset data = MakeData(33);
  AverageFunction avg(3);
  const RunOutcome expected =
      RunWithKill(data, avg, 3, /*kill=*/0, /*injector=*/nullptr);
  ExpectLosslessResume(data, avg, 3, parsed, expected, /*injector=*/nullptr,
                       /*theta=*/1.0, "legacy");
}

// Faulted runs checkpoint their RNG streams and injector cursors, so the
// continuation replays the same failures, retries, and costs.
TEST(CheckpointTest, ResumeReplaysFaultsIdentically) {
  const Dataset data = MakeData(34, 80, 3);
  AverageFunction avg(3);
  FaultProfile flaky;
  flaky.transient_rate = 0.1;

  const auto make_injector = [&] {
    FaultInjector injector(/*seed=*/77);
    injector.set_default_profile(flaky);
    injector.Script(1, {FaultKind::kTransient, FaultKind::kTimeout});
    return injector;
  };

  FaultInjector base_injector = make_injector();
  const RunOutcome expected =
      RunWithKill(data, avg, 4, /*kill=*/0, &base_injector);
  ASSERT_GT(expected.accesses, 6u);

  for (const size_t kill :
       {size_t{1}, expected.accesses / 2, expected.accesses - 1}) {
    FaultInjector kill_injector = make_injector();
    const RunOutcome killed = RunWithKill(data, avg, 4, kill, &kill_injector);
    ASSERT_TRUE(killed.checkpoint.has_value()) << "kill " << kill;

    // The resuming side attaches a same-configured injector; the
    // checkpoint restores its mid-run cursors and RNG stream.
    FaultInjector resume_injector = make_injector();
    ExpectLosslessResume(data, avg, 4, *killed.checkpoint, expected,
                         &resume_injector, /*theta=*/1.0,
                         "faulted kill " + std::to_string(kill));
  }
}

// Theta-approximate runs rebuild the complete-top-k collector from the
// resumed pool; resuming must preserve the halting behavior.
TEST(CheckpointTest, ThetaRunsCheckpointTheCollector) {
  const Dataset data = MakeData(35);
  AverageFunction avg(3);
  const double theta = 1.2;
  const RunOutcome expected =
      RunWithKill(data, avg, 3, /*kill=*/0, /*injector=*/nullptr, theta);
  ASSERT_GT(expected.accesses, 4u);

  for (const size_t kill : {size_t{2}, expected.accesses - 1}) {
    const RunOutcome killed =
        RunWithKill(data, avg, 3, kill, /*injector=*/nullptr, theta);
    ASSERT_TRUE(killed.checkpoint.has_value()) << "kill " << kill;
    ExpectLosslessResume(data, avg, 3, *killed.checkpoint, expected,
                         /*injector=*/nullptr, theta,
                         "theta kill " + std::to_string(kill));
  }
}

// Resume validates the checkpoint against the engine's configuration
// instead of continuing on mismatched state.
TEST(CheckpointTest, ResumeRejectsMismatchedConfiguration) {
  const Dataset data = MakeData(36);
  AverageFunction avg(3);
  const RunOutcome run =
      RunWithKill(data, avg, 3, /*kill=*/4, /*injector=*/nullptr);
  ASSERT_TRUE(run.checkpoint.has_value());

  // Wrong shape: a dataset with a different number of objects.
  const Dataset other = MakeData(37, 50, 3);
  SourceSet sources(&other, CostModel::Uniform(3, 1.0, 1.0));
  SRGPolicy policy(SRGConfig::Default(3));
  EngineOptions options;
  options.k = 3;
  NCEngine engine(&sources, &avg, &policy, options);
  TopKResult out;
  EXPECT_EQ(engine.Resume(*run.checkpoint, &out).code(),
            StatusCode::kInvalidArgument);

  // Wrong version.
  EngineCheckpoint stale = *run.checkpoint;
  stale.version = 99;
  SourceSet sources2(&data, CostModel::Uniform(3, 1.0, 1.0));
  NCEngine engine2(&sources2, &avg, &policy, options);
  EXPECT_EQ(engine2.Resume(stale, &out).code(),
            StatusCode::kInvalidArgument);
}

// Checkpoints deliberately EXCLUDE TelemetryHub state: the hub is
// session-scoped, so a resumed query re-warms fleet health from the
// LIVE session's hub instead of a stale snapshot. This proves the
// round trip is clean: a fleet run that starts warm (the hub knows a
// replica is dead), is killed mid-query, and resumes on a fresh fleet
// with the same hub attached replays the uninterrupted run exactly -
// and the dead replica never serves an access anywhere.
TEST(CheckpointTest, ResumeReWarmsFleetHealthFromLiveHub) {
  const Dataset data = MakeData(38, 80, 2);
  AverageFunction avg(2);

  // The session's hub learned (in some earlier query) that predicate
  // 0's primary is dead.
  obs::TelemetryHub hub;
  {
    ReplicaFleet seed_fleet(41);
    ReplicaSetConfig config;
    config.replicas.resize(2);
    ASSERT_TRUE(seed_fleet.Configure(0, config).ok());
    ASSERT_TRUE(seed_fleet.Configure(1, config).ok());
    seed_fleet.runtime(0, 0).dead = true;
    hub.CaptureFleetHealth(seed_fleet, /*now=*/0.0);
  }

  struct FleetOutcome {
    TopKResult result;
    double cost = 0.0;
    std::string trace;
    std::optional<EngineCheckpoint> checkpoint;
  };
  const auto run = [&](size_t kill) {
    FleetOutcome outcome;
    ReplicaFleet fleet(41);
    ReplicaSetConfig config;
    config.replicas.resize(2);
    EXPECT_TRUE(fleet.Configure(0, config).ok());
    EXPECT_TRUE(fleet.Configure(1, config).ok());
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    EXPECT_TRUE(sources.set_replica_fleet(&fleet).ok());
    sources.set_telemetry_hub(&hub);  // Warms: replica (0, 0) is dead.
    sources.EnableTrace();
    EXPECT_TRUE(fleet.runtime(0, 0).dead);
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = 4;
    NCEngine* engine_ptr = nullptr;
    if (kill != 0) {
      options.access_callback = [&outcome, &engine_ptr, kill](size_t count) {
        if (count == kill) outcome.checkpoint = engine_ptr->Checkpoint();
      };
    }
    NCEngine engine(&sources, &avg, &policy, options);
    engine_ptr = &engine;
    EXPECT_TRUE(engine.Run(&outcome.result).ok());
    EXPECT_EQ(fleet.runtime(0, 0).served, 0u);
    outcome.cost = sources.accrued_cost();
    outcome.trace = SerializeAttemptTrace(sources.attempt_trace());
    return outcome;
  };

  const FleetOutcome expected = run(/*kill=*/0);
  EXPECT_EQ(expected.result, BruteForceTopK(data, avg, 4));

  const FleetOutcome killed = run(/*kill=*/5);
  ASSERT_TRUE(killed.checkpoint.has_value());

  // Resume on a FRESH fleet: only the live hub knows about the death
  // until the checkpoint's fleet section lands on top of the warm state.
  ReplicaFleet fleet(41);
  ReplicaSetConfig config;
  config.replicas.resize(2);
  ASSERT_TRUE(fleet.Configure(0, config).ok());
  ASSERT_TRUE(fleet.Configure(1, config).ok());
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  ASSERT_TRUE(sources.set_replica_fleet(&fleet).ok());
  sources.set_telemetry_hub(&hub);
  sources.EnableTrace();
  EXPECT_TRUE(fleet.runtime(0, 0).dead);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 4;
  NCEngine engine(&sources, &avg, &policy, options);
  TopKResult resumed;
  ASSERT_TRUE(engine.Resume(*killed.checkpoint, &resumed).ok());

  EXPECT_EQ(resumed, expected.result);
  EXPECT_DOUBLE_EQ(sources.accrued_cost(), expected.cost);
  EXPECT_EQ(SerializeAttemptTrace(sources.attempt_trace()), expected.trace);
  EXPECT_TRUE(fleet.runtime(0, 0).dead);
  EXPECT_EQ(fleet.runtime(0, 0).served, 0u);
}

// Replaces the whole line of `text` that starts with `prefix`.
std::string ReplaceLine(const std::string& text, const std::string& prefix,
                        const std::string& line) {
  const size_t begin = text.find("\n" + prefix);
  EXPECT_NE(begin, std::string::npos) << prefix;
  if (begin == std::string::npos) return text;
  const size_t end = text.find('\n', begin + 1);
  return text.substr(0, begin + 1) + line + text.substr(end);
}

struct Resumed {
  Status status;
  TopKResult result;
  bool exact = false;
};

// Resumes `text` on a fresh m=2, avg, k=5 engine over `sources`.
Resumed ResumeText(const std::string& text, SourceSet* sources,
                   double theta = 1.0) {
  EngineCheckpoint parsed;
  const Status parsed_status = ParseCheckpoint(text, &parsed);
  EXPECT_TRUE(parsed_status.ok()) << parsed_status.ToString();
  AverageFunction avg(2);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 5;
  options.approximation_theta = theta;
  NCEngine engine(sources, &avg, &policy, options);
  Resumed resumed;
  resumed.status = engine.Resume(parsed, &resumed.result);
  resumed.exact = engine.last_run_exact();
  return resumed;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(NC_TESTDATA_DIR "/" + name, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Resumes a tampered version-2 fixture taken from the m=2, avg, k=5 run
// over MakeData(38, 200, 2) and requires the uninterrupted run's answer,
// true to the data (CheckAnswer).
void ExpectFixtureResumesSoundly(const std::string& fixture, double theta) {
  const Dataset data = MakeData(38, 200, 2);
  AverageFunction avg(2);
  const RunOutcome expected =
      RunWithKill(data, avg, 5, /*kill=*/0, /*injector=*/nullptr, theta);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  const Resumed resumed = ResumeText(ReadFixture(fixture), &sources, theta);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.result, expected.result);
  EXPECT_EQ(CheckAnswer(data, avg, 5, resumed.result), "");
}

// Lowered l_i bounds (here "src_last_seen 2 0x1p-9 0x1p-9" in a
// version-2 file at access 4) would let the engine certify a wrong
// "exact" answer: almost every unseen object looks dominated. Each l_i is
// a function of its cursor, so Resume derives it from the provider (a
// read, never an access) and a version-2 file's stored bounds are
// skipped. Whatever Resume does with the file, it cannot produce a wrong
// exact answer.
TEST(CheckpointTest, ResumeRejectsCorruptLastSeenBounds) {
  const Dataset data = MakeData(38, 200, 2);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  const Resumed resumed =
      ResumeText(ReadFixture("tampered_last_seen_v2.ncckpt"), &sources);
  if (resumed.status.ok() && resumed.exact) {
    EXPECT_EQ(resumed.result, BruteForceTopK(data, avg, 5));
  }
}

// The bound heap is derived, not stored: at access 60 the file's heap
// line lowers the true top-1's bound (object 128) to 2^-9. Trusting it,
// a resumed run returned an "exact" answer without object 128.
TEST(CheckpointTest, TamperedHeapLineCannotChangeTheAnswer) {
  ExpectFixtureResumesSoundly("tampered_heap_v2.ncckpt", /*theta=*/1.0);
}

// So is the theta collector: with theta = 1.2 at access 40, the file's
// complete_topk line raises object 128's score from 0.9668 to 1.0.
// Trusting it, a resumed run certified 1.0 within [1.0, 1.0].
TEST(CheckpointTest, TamperedThetaCollectorCannotChangeTheCertificate) {
  ExpectFixtureResumesSoundly("tampered_collector_v2.ncckpt", /*theta=*/1.2);
}

// Without sorted access the object universe is seeded: every object is a
// candidate from the first access on, and no cursor vouches for any of
// them. The heap is derived from the pool, so a checkpoint whose pool
// lacks an object (here the true top-1) must be rejected, not resumed
// into an "exact" answer without it.
TEST(CheckpointTest, ResumeRejectsAnIncompleteSeededUniverse) {
  const Dataset data = MakeData(39, 40, 2);
  AverageFunction avg(2);
  const CostModel probe_only({kImpossibleCost, kImpossibleCost}, {1.0, 1.0});
  SourceSet sources(&data, probe_only);
  SRGPolicy policy(SRGConfig::Default(2));
  EngineOptions options;
  options.k = 3;
  std::optional<EngineCheckpoint> checkpoint;
  NCEngine* engine_ptr = nullptr;
  options.access_callback = [&checkpoint, &engine_ptr](size_t count) {
    if (count == 3) checkpoint = engine_ptr->Checkpoint();
  };
  NCEngine engine(&sources, &avg, &policy, options);
  engine_ptr = &engine;
  TopKResult answer;
  ASSERT_TRUE(engine.Run(&answer).ok());
  ASSERT_TRUE(checkpoint.has_value());
  ASSERT_EQ(checkpoint->pool.size(), 40u);
  const ObjectId top1 = BruteForceTopK(data, avg, 1).entries[0].object;
  std::erase_if(checkpoint->pool, [top1](const CandidateCheckpoint& c) {
    return c.object == top1;
  });

  SourceSet fresh(&data, probe_only);
  options.access_callback = nullptr;
  NCEngine resumed(&fresh, &avg, &policy, options);
  TopKResult out;
  EXPECT_EQ(resumed.Resume(*checkpoint, &out).code(),
            StatusCode::kInvalidArgument);
}

// Likewise a lowered candidate score: with the true top-1's stored score
// cut to 2^-9 at access 60, the resumed run would return an "exact"
// answer without it. Resume checks every stored score against
// ScoreProvider::ScoreOf.
TEST(CheckpointTest, ResumeRejectsCorruptCandidateScores) {
  const Dataset data = MakeData(38, 200, 2);
  AverageFunction avg(2);
  const ObjectId top1 = BruteForceTopK(data, avg, 1).entries[0].object;
  const RunOutcome run = RunWithKill(data, avg, 5, /*kill=*/60, nullptr);
  ASSERT_TRUE(run.checkpoint.has_value());
  const CandidateCheckpoint* cand = nullptr;
  for (const CandidateCheckpoint& c : run.checkpoint->pool) {
    if (c.object == top1) cand = &c;
  }
  ASSERT_NE(cand, nullptr) << "top-1 not yet seen at access 60";
  std::string line = "cand " + std::to_string(top1) + " " +
                     std::to_string(cand->mask) + " 0x1p-9";
  for (size_t s = 1; s < cand->scores.size(); ++s) {
    line += " ";
    line += FormatHexDouble(cand->scores[s]);
  }
  const std::string text = ReplaceLine(
      SerializeCheckpoint(*run.checkpoint),
      "cand " + std::to_string(top1) + " ", line);

  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  EXPECT_EQ(ResumeText(text, &sources).status.code(),
            StatusCode::kInvalidArgument);
}

// The Eq. 1 cells and the accrued cost are both restored, so a file can
// make them disagree. At access 60 of the m=2, avg, k=5 run the cells sum
// to 60; resuming with src_accrued_cost 0 finished with accrued_cost() 31
// while the cells summed to 91, and a budgeted resume got 60 units free.
// Restore rejects a disagreement, and a negative or non-finite cost field
// even when the sum still agrees.
TEST(CheckpointTest, ResumeRejectsAccruedCostThatBreaksEq1) {
  const Dataset data = MakeData(38, 200, 2);
  AverageFunction avg(2);
  const RunOutcome run = RunWithKill(data, avg, 5, /*kill=*/60, nullptr);
  ASSERT_TRUE(run.checkpoint.has_value());
  const std::string text = SerializeCheckpoint(*run.checkpoint);
  ASSERT_NE(text.find("\nsrc_accrued_cost 0x1.ep+5\n"), std::string::npos);
  const std::vector<double>& sorted = run.checkpoint->sources.stats
                                          .sorted_cost_accrued;
  ASSERT_GT(sorted[0], 1.0);
  const std::string shifted_cells =
      "stats_sorted_cost 2 " + FormatHexDouble(-1.0) + " " +
      FormatHexDouble(sorted[1] + sorted[0] + 1.0);

  const std::vector<std::pair<std::string, std::string>> tampered = {
      {"src_accrued_cost ", "src_accrued_cost 0x0p+0"},
      {"src_accrued_cost ", "src_accrued_cost inf"},
      {"src_total_penalty ", "src_total_penalty -0x1p+0"},
      {"src_total_penalty ", "src_total_penalty nan"},
      {"stats_sorted_cost ", shifted_cells},
  };
  for (const auto& [prefix, line] : tampered) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
    EXPECT_EQ(ResumeText(ReplaceLine(text, prefix, line), &sources)
                  .status.code(),
              StatusCode::kInvalidArgument)
        << line;
  }
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  const Resumed untouched = ResumeText(text, &sources);
  ASSERT_TRUE(untouched.status.ok()) << untouched.status.ToString();
  EXPECT_EQ(untouched.result, BruteForceTopK(data, avg, 5));
}

}  // namespace
}  // namespace nc
