// Playbook contract tests: the "ncplay 1" format round-trips byte-exactly
// and rejects corruption with line numbers, the variant generator and the
// runner's verdicts are seed-deterministic, the validator refuses
// contradictory specs, injected violations are caught and reported with a
// working repro command, and baseline packets load and diff correctly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "playbook/catalog.h"
#include "playbook/runner.h"
#include "playbook/scenario.h"
#include "playbook/variant.h"

namespace nc::playbook {
namespace {

// The pinned soak: 60 ChaosDefaults() variants at this seed, 18 of them
// served by a QueryServer and 33 answered without a certificate.
constexpr uint64_t kPinnedSeed = 20260809;

// A small, fast, fault-free spec the oracle tests execute in-process.
ScenarioSpec SmallSpec(const std::string& name) {
  ScenarioSpec s;
  s.name = name;
  s.num_objects = 120;
  s.num_predicates = 2;
  s.sorted_cost = {1.0, 2.0};
  s.random_cost = {3.0, 1.0};
  s.k = 5;
  return s;
}

// A spec exercising every optional record: infinities, replicas, budget,
// pages, groups, explicit SRG plan, negative correlation.
ScenarioSpec FancySpec() {
  ScenarioSpec s;
  s.name = "fancy_0:rt.test";
  s.num_objects = 300;
  s.num_predicates = 3;
  s.distribution = ScoreDistribution::kGaussian;
  s.correlation = -0.75;
  s.gaussian_mean = 0.4;
  s.gaussian_stddev = 0.25;
  s.data_seed = 777;
  s.scoring = ScoringKind::kMin;
  s.k = 7;
  s.sorted_cost = {1.0, kImpossibleCost, 0.125};
  s.random_cost = {kImpossibleCost, 5.0, 10.0};
  s.sorted_page_size = {4, 1, 8};
  s.attribute_groups = {0, 1, 1};
  s.fault.transient_rate = 0.03125;
  s.fault.timeout_rate = 0.015625;
  ReplicaSpec primary;
  ReplicaSpec backup;
  backup.cost_multiplier = 1.5;
  backup.faults.transient_rate = 0.0625;
  s.replicas = {primary, backup};
  s.routing = RoutingPolicy::kLeastLatency;
  s.hedge_delay = 12.5;
  s.budget.max_cost = 250.0;
  s.budget.deadline = 400.0;
  s.budget.predicate_quota = {0, 40, 0};
  s.srg_depths = {0.5, 0.25, 1.0};
  s.srg_schedule = {2, 0, 1};
  s.workers = 0;
  s.fault_seed = 9;
  s.jitter_seed = 10;
  s.fleet_seed = 11;
  return s;
}

void ExpectRoundTrip(const ScenarioSpec& spec) {
  ASSERT_TRUE(spec.Validate().ok()) << spec.Signature();
  const std::string text = spec.Serialize();
  ScenarioSpec parsed;
  const Status status = ParseScenario(text, &parsed);
  ASSERT_TRUE(status.ok()) << status << "\n" << text;
  EXPECT_EQ(parsed.Serialize(), text) << spec.Signature();
}

TEST(ScenarioFormatTest, HandBuiltSpecsRoundTripByteExactly) {
  ExpectRoundTrip(SmallSpec("small"));
  ExpectRoundTrip(FancySpec());
  ExpectRoundTrip(CatalogBase());
}

// The property the soak's repro commands stand on: every generated
// variant's document re-parses and re-serializes to the identical bytes.
TEST(ScenarioFormatTest, GeneratedVariantsRoundTripByteExactly) {
  VariantGenerator generator(VariantAxes::ChaosDefaults(), 20260809);
  for (const ScenarioSpec& spec : generator.Generate(120)) {
    ExpectRoundTrip(spec);
  }
}

TEST(ScenarioFormatTest, RejectsMissingHeader) {
  ScenarioSpec out = SmallSpec("sentinel");
  const std::string before = out.Serialize();
  const Status status = ParseScenario("nope 1\nend\n", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ncplay line 1"), std::string::npos)
      << status;
  EXPECT_EQ(out.Serialize(), before);  // *out untouched on failure
}

TEST(ScenarioFormatTest, RejectsCorruptLineByNumber) {
  const std::string text = FancySpec().Serialize();
  // Corrupt the 4th line (header is line 1) and expect the parser to name
  // exactly that line.
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_GT(lines.size(), 5u);
  lines[3] = lines[3] + " trailing garbage tokens";
  std::string corrupt;
  for (const std::string& line : lines) corrupt += line + "\n";

  ScenarioSpec out = SmallSpec("sentinel");
  const std::string before = out.Serialize();
  const Status status = ParseScenario(corrupt, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ncplay line 4"), std::string::npos)
      << status;
  EXPECT_EQ(out.Serialize(), before);
}

// A missing or malformed token rejects its record instead of reading as
// 0: a dropped data seed would otherwise silently select another dataset.
TEST(ScenarioFormatTest, RejectsTruncatedAndMalformedTokens) {
  const std::string text = CatalogBase().Serialize();
  const std::pair<std::string, std::string> edits[] = {
      {"data ", "data 10000 2 uniform 0x0p+0"},
      {"seeds ", "seeds 1"},
      {"kill ", "kill x"},
      {"workers ", "workers 0x4"},
  };
  for (const auto& [prefix, replacement] : edits) {
    const size_t begin = text.find("\n" + prefix);
    ASSERT_NE(begin, std::string::npos) << prefix;
    const size_t end = text.find('\n', begin + 1);
    const std::string edited =
        text.substr(0, begin + 1) + replacement + text.substr(end);
    const size_t line_no =
        2 + static_cast<size_t>(std::count(text.begin(),
                                           text.begin() + begin, '\n'));

    ScenarioSpec out = SmallSpec("sentinel");
    const std::string before = out.Serialize();
    const Status status = ParseScenario(edited, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << replacement;
    EXPECT_NE(status.message().find("ncplay line " + std::to_string(line_no)),
              std::string::npos)
        << replacement << ": " << status;
    EXPECT_EQ(out.Serialize(), before) << replacement;
  }
}

// Corruption fuzz: drop, truncate, or scramble every line of a rich
// document in turn. Each mutation must either fail with an "ncplay"
// diagnostic and leave *out untouched, or parse to a spec that still
// validates - never a silent half-parsed state.
TEST(ScenarioFormatTest, CorruptionFuzzNeverHalfParses) {
  const std::string text = FancySpec().Serialize();
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }

  // A mutation either fails - with a diagnostic (an "ncplay line N"
  // parse error or the semantic validation message) and *out untouched -
  // or parses to a spec that still validates. Never a half-parsed state.
  const auto check = [](const std::string& doc) {
    ScenarioSpec out = SmallSpec("sentinel");
    const std::string before = out.Serialize();
    const Status status = ParseScenario(doc, &out);
    if (status.ok()) {
      EXPECT_TRUE(out.Validate().ok()) << doc;
    } else {
      EXPECT_FALSE(status.message().empty()) << doc;
      EXPECT_EQ(out.Serialize(), before) << doc;
    }
  };
  // Mutations that break a *line* (not just semantics) name the line.
  {
    ScenarioSpec out;
    const Status status = ParseScenario("ncplay 1\nname x y\nend\n", &out);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("ncplay line 2"), std::string::npos)
        << status;
  }

  for (size_t i = 0; i < lines.size(); ++i) {
    std::string dropped;
    std::string truncated;
    std::string scrambled;
    for (size_t j = 0; j < lines.size(); ++j) {
      if (j != i) dropped += lines[j] + "\n";
      if (j == i) {
        truncated += lines[j].substr(0, lines[j].size() / 2) + "\n";
        scrambled += lines[j] + " 0xnot-a-number\n";
      } else {
        truncated += lines[j] + "\n";
        scrambled += lines[j] + "\n";
      }
    }
    check(dropped);
    check(truncated);
    check(scrambled);
    // Truncate the whole document at this line: the missing "end" footer
    // (or header) must be diagnosed.
    std::string cut;
    for (size_t j = 0; j < i; ++j) cut += lines[j] + "\n";
    check(cut);
  }
}

TEST(ScenarioValidateTest, RejectsContradictorySpecs) {
  ScenarioSpec kill_with_workers = SmallSpec("kw");
  kill_with_workers.kill_at_access = 5;
  kill_with_workers.workers = 2;
  EXPECT_FALSE(kill_with_workers.Validate().ok());

  ScenarioSpec kill_with_adaptive = SmallSpec("ka");
  kill_with_adaptive.replicas = {ReplicaSpec{}, ReplicaSpec{}};
  kill_with_adaptive.adaptive_hedge = true;
  kill_with_adaptive.kill_at_access = 5;
  EXPECT_FALSE(kill_with_adaptive.Validate().ok());

  ScenarioSpec bad_arity = SmallSpec("arity");
  bad_arity.sorted_cost = {1.0};
  EXPECT_FALSE(bad_arity.Validate().ok());

  ScenarioSpec hedge_without_fleet = SmallSpec("hedge");
  hedge_without_fleet.hedge_delay = 5.0;
  EXPECT_FALSE(hedge_without_fleet.Validate().ok());

  ScenarioSpec bad_name = SmallSpec("ok");
  bad_name.name = "two tokens";
  EXPECT_FALSE(bad_name.Validate().ok());

  // The runner surfaces the validation error instead of executing.
  PlaybookRunner runner;
  const VariantVerdict verdict = runner.RunOne(kill_with_workers);
  EXPECT_FALSE(verdict.executed);
  EXPECT_FALSE(verdict.run_status.ok());
  EXPECT_TRUE(verdict.flagged());
}

// Same (axes, seed) => byte-identical variant list AND identical verdicts
// on the deterministic simulated cost clock.
TEST(PlaybookDeterminismTest, SameSeedSameVariantsAndVerdicts) {
  VariantAxes axes = VariantAxes::ChaosDefaults();
  axes.worker_counts = {0};  // engine-only keeps this test lean
  VariantGenerator a(axes, 314159);
  VariantGenerator b(axes, 314159);
  const std::vector<ScenarioSpec> va = a.Generate(12);
  const std::vector<ScenarioSpec> vb = b.Generate(12);
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].Serialize(), vb[i].Serialize()) << "variant " << i;
  }

  PlaybookRunner runner;
  const PlaybookReport ra = runner.Run(va);
  const PlaybookReport rb = runner.Run(vb);
  EXPECT_EQ(ra.flagged, 0u) << ra.ToText();
  ASSERT_EQ(ra.verdicts.size(), rb.verdicts.size());
  for (size_t i = 0; i < ra.verdicts.size(); ++i) {
    EXPECT_EQ(ra.verdicts[i].accrued_cost, rb.verdicts[i].accrued_cost)
        << "variant " << i;
    EXPECT_EQ(ra.verdicts[i].elapsed_time, rb.verdicts[i].elapsed_time)
        << "variant " << i;
    EXPECT_EQ(ra.verdicts[i].accesses, rb.verdicts[i].accesses)
        << "variant " << i;
    EXPECT_EQ(ra.verdicts[i].flagged(), rb.verdicts[i].flagged())
        << "variant " << i;
  }
}

// The pinned-seed soak: 60 ChaosDefaults() variants (faults, budgets,
// fleets, kills, and variants served by a QueryServer) pass every
// oracle, and a second generator regenerates them byte for byte.
TEST(PlaybookDeterminismTest, PinnedSeedSoakPassesEveryOracle) {
  const std::vector<ScenarioSpec> variants =
      VariantGenerator(VariantAxes::ChaosDefaults(), kPinnedSeed).Generate(60);
  const std::vector<ScenarioSpec> again =
      VariantGenerator(VariantAxes::ChaosDefaults(), kPinnedSeed).Generate(60);
  ASSERT_EQ(again.size(), variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(again[i].Serialize(), variants[i].Serialize()) << "variant " << i;
  }

  const PlaybookReport report = PlaybookRunner().Run(variants);
  EXPECT_EQ(report.executed, variants.size());
  EXPECT_EQ(report.flagged, 0u) << report.ToText();
  // Not quietly engine-only: the server path ran too.
  size_t served = 0;
  for (const VariantVerdict& verdict : report.verdicts) {
    if (verdict.executed && verdict.spec.workers > 0) ++served;
  }
  EXPECT_GT(served, 0u);
}

bool HasOracle(const VariantVerdict& verdict, Oracle oracle) {
  for (const Violation& v : verdict.violations) {
    if (v.oracle == oracle) return true;
  }
  return false;
}

// Inject a wrong answer through the tamper hook: the differential oracle
// must catch it, the packet must carry the repro command, and the repro
// (the same spec, untampered) must pass - proving the flag is about the
// injected corruption, not the scenario.
TEST(PlaybookOracleTest, TamperedAnswerIsCaughtWithWorkingRepro) {
  const ScenarioSpec spec = SmallSpec("tamper-answer");
  ASSERT_TRUE(spec.fault_free());

  RunnerOptions options;
  options.repro_prefix = "ncplaybook soak --seed 11 --count 1";
  options.tamper = [](const ScenarioSpec&, TopKResult* result) {
    ASSERT_FALSE(result->entries.empty());
    result->entries[0].score += 1.0;
  };
  PlaybookRunner tampered(std::move(options));
  const PlaybookReport report = tampered.Run({spec});
  ASSERT_EQ(report.verdicts.size(), 1u);
  const VariantVerdict& verdict = report.verdicts[0];
  EXPECT_TRUE(verdict.flagged());
  EXPECT_TRUE(HasOracle(verdict, Oracle::kDifferential)) << report.ToText();
  EXPECT_EQ(report.flagged, 1u);

  const std::string repro = report.ReproCommand(verdict);
  EXPECT_EQ(repro,
            "ncplaybook soak --seed 11 --count 1 --only tamper-answer");
  EXPECT_NE(report.ToText().find(repro), std::string::npos);
  EXPECT_NE(report.ToJson().find("tamper-answer"), std::string::npos);

  // The repro without the injection is clean.
  PlaybookRunner clean;
  EXPECT_FALSE(clean.RunOne(spec).flagged());
}

// The differential oracle judges every answer without a certificate,
// whatever its faults, budget or server: a wrong first score in each one
// flags exactly the pinned soak's uncertified variants.
TEST(PlaybookOracleTest, EveryUncertifiedAnswerIsJudged) {
  const std::vector<ScenarioSpec> variants =
      VariantGenerator(VariantAxes::ChaosDefaults(), kPinnedSeed).Generate(60);
  RunnerOptions options;
  options.tamper = [](const ScenarioSpec&, TopKResult* result) {
    if (!result->certificate.has_value()) result->entries.at(0).score += 1.0;
  };
  const PlaybookReport report = PlaybookRunner(std::move(options)).Run(variants);
  size_t uncertified = 0;
  for (const VariantVerdict& verdict : report.verdicts) {
    ASSERT_TRUE(verdict.run_status.ok()) << verdict.spec.name;
    EXPECT_EQ(verdict.flagged(), !verdict.certified) << verdict.spec.name;
    EXPECT_EQ(HasOracle(verdict, Oracle::kDifferential), !verdict.certified)
        << verdict.spec.name;
    if (!verdict.certified) ++uncertified;
  }
  EXPECT_EQ(uncertified, 33u);
  EXPECT_EQ(report.flagged, uncertified);
}

// Inject a corrupt certificate into a budget-truncated run: the
// certificate oracle must reject the broken excluded-score ceiling.
TEST(PlaybookOracleTest, TamperedCertificateIsCaught) {
  ScenarioSpec spec = SmallSpec("tamper-cert");
  spec.budget.max_cost = 6.0;  // forces a truncated, certified answer

  PlaybookRunner clean;
  const VariantVerdict baseline = clean.RunOne(spec);
  ASSERT_FALSE(baseline.flagged()) << baseline.run_status;
  ASSERT_TRUE(baseline.certified);

  RunnerOptions options;
  options.tamper = [](const ScenarioSpec&, TopKResult* result) {
    ASSERT_TRUE(result->certificate.has_value());
    result->certificate->excluded_ceiling = -1e9;
  };
  PlaybookRunner tampered(std::move(options));
  const VariantVerdict verdict = tampered.RunOne(spec);
  EXPECT_TRUE(verdict.flagged());
  EXPECT_TRUE(HasOracle(verdict, Oracle::kCertificate));
}

TEST(PlaybookBaselineTest, LoadBaselineParsesBenchDocument) {
  const std::string json =
      "{\"bench\": \"playbook\", \"schema_version\": 2,\n"
      " \"baseline\": {\"alpha\": {\"cost\": 12.5, \"accesses\": 34,\n"
      "                          \"spec_hash\": \"0123456789abcdef\"},\n"
      "                \"beta\": {\"cost\": 0.25, \"accesses\": 2,\n"
      "                         \"spec_hash\": \"fedcba9876543210\"}}}\n";
  std::map<std::string, BaselineEntry> baseline;
  const Status status = LoadBaseline(json, &baseline);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(baseline.size(), 2u);
  EXPECT_EQ(baseline.at("alpha").cost, 12.5);
  EXPECT_EQ(baseline.at("alpha").accesses, 34u);
  EXPECT_EQ(baseline.at("alpha").spec_hash, "0123456789abcdef");
  EXPECT_EQ(baseline.at("beta").cost, 0.25);
  EXPECT_EQ(baseline.at("beta").accesses, 2u);

  std::map<std::string, BaselineEntry> untouched;
  EXPECT_FALSE(LoadBaseline("{\"bench\": \"playbook\"}", &untouched).ok());
  EXPECT_FALSE(LoadBaseline("{\"baseline\": [1, 2]}", &untouched).ok());
  EXPECT_FALSE(
      LoadBaseline("{\"baseline\": {\"a\": {\"cost\": }}}", &untouched).ok());
  // An entry must name the spec it was recorded for, as a string.
  EXPECT_FALSE(
      LoadBaseline("{\"baseline\": {\"a\": {\"cost\": 1, \"accesses\": 2}}}",
                   &untouched)
          .ok());
  EXPECT_FALSE(LoadBaseline("{\"baseline\": {\"a\": {\"cost\": 1, "
                            "\"accesses\": 2, \"spec_hash\": 7}}}",
                            &untouched)
                   .ok());

  // Only the top-level member counts: a nested "baseline" key or a
  // scenario named "baseline" does not hide it.
  const auto load_a = [](const std::string& doc) {
    std::map<std::string, BaselineEntry> loaded;
    const Status loaded_status = LoadBaseline(doc, &loaded);
    EXPECT_TRUE(loaded_status.ok()) << doc << ": " << loaded_status;
    EXPECT_EQ(loaded.size(), 1u) << doc;
    EXPECT_EQ(loaded["a"].cost, 1.0) << doc;
    EXPECT_EQ(loaded["a"].accesses, 2u) << doc;
  };
  load_a(
      "{\"meta\":{\"baseline\":{}},"
      "\"baseline\":{\"a\":{\"cost\":1,\"accesses\":2,\"spec_hash\":\"h\"}}}");
  load_a(
      "{\"rows\": [{\"name\": \"baseline\", \"cost\": 3}],\n"
      " \"baseline\": {\"a\": {\"cost\": 1, \"accesses\": 2, "
      "\"spec_hash\": \"h\"}}}\n");
  // Text after the document, and access counts that are not
  // non-negative integers, are rejected.
  EXPECT_FALSE(LoadBaseline("{\"baseline\": {}} {}", &untouched).ok());
  EXPECT_FALSE(LoadBaseline("{\"baseline\": {\"a\": {\"cost\": 1, "
                            "\"accesses\": -1, \"spec_hash\": \"h\"}}}",
                            &untouched)
                   .ok());
  EXPECT_FALSE(LoadBaseline("{\"baseline\": {\"a\": {\"cost\": 1, "
                            "\"accesses\": 2.7, \"spec_hash\": \"h\"}}}",
                            &untouched)
                   .ok());
  EXPECT_TRUE(untouched.empty());
}

// Baseline diffing: the exact recorded (cost, accesses) passes; any
// divergence is an anomaly carrying both values.
TEST(PlaybookBaselineTest, BaselineDivergenceIsAnAnomaly) {
  const ScenarioSpec spec = SmallSpec("baselined");
  PlaybookRunner probe;
  const VariantVerdict observed = probe.RunOne(spec);
  ASSERT_FALSE(observed.flagged());

  // The packet is the baseline: its JSON loads back to exactly the
  // observed (cost, accesses), which replays clean.
  std::map<std::string, BaselineEntry> recorded;
  ASSERT_TRUE(LoadBaseline(probe.Run({spec}).ToJson(), &recorded).ok());
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded["baselined"].cost, observed.accrued_cost);
  EXPECT_EQ(recorded["baselined"].accesses, observed.accesses);
  RunnerOptions exact;
  exact.baseline = recorded;
  EXPECT_FALSE(PlaybookRunner(std::move(exact)).RunOne(spec).flagged());

  RunnerOptions shifted;
  shifted.baseline = recorded;
  shifted.baseline["baselined"].cost += 7.0;
  const PlaybookReport report =
      PlaybookRunner(std::move(shifted)).Run({spec});
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_TRUE(report.verdicts[0].flagged());
  EXPECT_FALSE(report.verdicts[0].anomaly.empty());
  // A flagged variant leaves no baseline entry.
  std::map<std::string, BaselineEntry> flagged_baseline;
  ASSERT_TRUE(LoadBaseline(report.ToJson(), &flagged_baseline).ok());
  EXPECT_TRUE(flagged_baseline.empty());
}

// A packet from another soak: variant names do not depend on the seed, so
// the pinned soak's chaos-0000 entry names another spec than `ncplaybook
// gen --seed 1 --count 1`'s chaos-0000. The runner does not diff against
// it, and MatchBaseline, on which ncplaybook exits 2, names the variant.
TEST(PlaybookBaselineTest, EntryRecordedForAnotherSpecIsNotCompared) {
  const ScenarioSpec soaked =
      VariantGenerator(VariantAxes::ChaosDefaults(), kPinnedSeed)
          .Generate(60)
          .at(0);
  const std::vector<ScenarioSpec> one =
      VariantGenerator(VariantAxes::ChaosDefaults(), 1).Generate(1);
  ASSERT_EQ(one.at(0).name, soaked.name);

  RunnerOptions options;
  ASSERT_TRUE(
      LoadBaseline(PlaybookRunner().Run({soaked}).ToJson(), &options.baseline)
          .ok());
  ASSERT_EQ(options.baseline.count(soaked.name), 1u);
  EXPECT_TRUE(MatchBaseline(options.baseline, {soaked}).ok());
  const Status foreign = MatchBaseline(options.baseline, one);
  EXPECT_EQ(foreign.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(foreign.message().find(soaked.name), std::string::npos)
      << foreign;

  const VariantVerdict verdict =
      PlaybookRunner(std::move(options)).RunOne(one.at(0));
  EXPECT_FALSE(verdict.flagged()) << verdict.anomaly;
}

// Stop conditions: max_failures caps the flagged count and the remainder
// is reported skipped, never silently dropped.
TEST(PlaybookRunnerTest, MaxFailuresStopsEarlyAndCountsSkips) {
  std::vector<ScenarioSpec> variants;
  for (int i = 0; i < 4; ++i) {
    variants.push_back(SmallSpec("stop-" + std::to_string(i)));
  }
  RunnerOptions options;
  options.stop.max_failures = 2;
  options.tamper = [](const ScenarioSpec&, TopKResult* result) {
    if (!result->entries.empty()) result->entries[0].score += 1.0;
  };
  const PlaybookReport report =
      PlaybookRunner(std::move(options)).Run(variants);
  EXPECT_EQ(report.total, 4u);
  EXPECT_EQ(report.flagged, 2u);
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_TRUE(report.stopped_early);
  EXPECT_FALSE(report.stop_reason.empty());
}

}  // namespace
}  // namespace nc::playbook
