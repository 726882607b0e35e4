// ncplaybook: the chaos-playbook command line.
//
//   ncplaybook soak --seed S --count N [--max-seconds X] [--max-failures K]
//              [--stop-on-first] [--only NAME] [--baseline FILE]
//              [--packet FILE] [--engine-only]
//       Generate N seeded chaos variants and run them under the invariant
//       oracles. Exit 0 when every executed variant passes, 1 when any is
//       flagged (the engineer packet names each one with its repro
//       command), 2 on usage errors. The --packet FILE a clean run
//       writes is the --baseline FILE of the next: every variant's
//       (cost, accesses) must then reproduce exactly. A baseline entry
//       recorded for another spec under a variant's name is an error.
//   ncplaybook gen --seed S --count N [--only NAME]
//       Print the generated variants as canonical "ncplay 1" documents.
//   ncplaybook run --spec FILE [--baseline FILE] [--packet FILE]
//       Run one serialized scenario document under the oracles.
//   ncplaybook print --seed S --count N --only NAME
//       Print one generated variant's one-line signature and document.
//
// The same (seed, count) always regenerates the byte-identical variant
// list, so "<soak line> --only <name>" reruns exactly the flagged
// variant - that string is what the packet records as `repro`.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/numeric.h"
#include "playbook/runner.h"
#include "playbook/scenario.h"
#include "playbook/variant.h"

namespace nc::playbook {
namespace {

struct CliOptions {
  std::string command;
  uint64_t seed = 1;
  size_t count = 50;
  std::string only;
  std::string spec_path;
  std::string baseline_path;
  std::string packet_path;
  StopConditions stop;
  // Drop server variants (workers stay 0): the ASan/UBSan soak keeps the
  // thread count flat, and the engine path is where the oracles bite.
  bool engine_only = false;
};

int Usage() {
  std::cerr
      << "usage: ncplaybook soak --seed S --count N [--max-seconds X]\n"
         "                  [--max-failures K] [--stop-on-first]\n"
         "                  [--only NAME] [--baseline FILE] [--packet FILE]\n"
         "                  [--engine-only]\n"
         "       ncplaybook gen --seed S --count N [--only NAME]\n"
         "       ncplaybook run --spec FILE [--baseline FILE] [--packet FILE]\n"
         "       ncplaybook print --seed S --count N --only NAME\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  if (argc < 2) return false;
  options->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = value();
      uint64_t seed = 0;
      if (v == nullptr || !ParseUInt64(v, &seed)) return false;
      options->seed = seed;
    } else if (arg == "--count") {
      const char* v = value();
      uint64_t count = 0;
      if (v == nullptr || !ParseUInt64(v, &count) || count == 0) return false;
      options->count = static_cast<size_t>(count);
    } else if (arg == "--max-seconds") {
      const char* v = value();
      double seconds = 0.0;
      if (v == nullptr || !ParseDouble(v, &seconds) || seconds < 0.0) {
        return false;
      }
      options->stop.max_wall_seconds = seconds;
    } else if (arg == "--max-failures") {
      const char* v = value();
      uint64_t failures = 0;
      if (v == nullptr || !ParseUInt64(v, &failures)) return false;
      options->stop.max_failures = static_cast<size_t>(failures);
    } else if (arg == "--stop-on-first") {
      options->stop.stop_on_first_anomaly = true;
    } else if (arg == "--only") {
      const char* v = value();
      if (v == nullptr) return false;
      options->only = v;
    } else if (arg == "--spec") {
      const char* v = value();
      if (v == nullptr) return false;
      options->spec_path = v;
    } else if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return false;
      options->baseline_path = v;
    } else if (arg == "--packet") {
      const char* v = value();
      if (v == nullptr) return false;
      options->packet_path = v;
    } else if (arg == "--engine-only") {
      options->engine_only = true;
    } else {
      std::cerr << "ncplaybook: unknown flag " << arg << "\n";
      return false;
    }
  }
  return true;
}

std::vector<ScenarioSpec> GenerateVariants(const CliOptions& options) {
  VariantAxes axes = VariantAxes::ChaosDefaults();
  if (options.engine_only) axes.worker_counts = {0};
  VariantGenerator generator(std::move(axes), options.seed);
  std::vector<ScenarioSpec> variants = generator.Generate(options.count);
  if (!options.only.empty()) {
    std::vector<ScenarioSpec> filtered;
    for (ScenarioSpec& spec : variants) {
      if (spec.name == options.only) filtered.push_back(std::move(spec));
    }
    variants = std::move(filtered);
  }
  return variants;
}

bool WritePacket(const std::string& path, const PlaybookReport& report) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "ncplaybook: cannot write packet to " << path << "\n";
    return false;
  }
  out << report.ToJson();
  return out.good();
}

// Runs `variants` under the oracles, diffed against the packet an
// earlier soak wrote when --baseline names one, and reports: exit 0 when
// every executed variant passes, 1 when any is flagged, 2 when the
// baseline cannot be read, holds an entry recorded for another spec under
// one of the variants' names, or the packet cannot be written.
int RunVariants(const CliOptions& options, std::string repro_prefix,
                const std::vector<ScenarioSpec>& variants) {
  RunnerOptions runner_options;
  runner_options.stop = options.stop;
  runner_options.repro_prefix = std::move(repro_prefix);
  if (!options.baseline_path.empty()) {
    std::ifstream in(options.baseline_path);
    if (!in) {
      std::cerr << "ncplaybook: cannot read baseline "
                << options.baseline_path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Status status = LoadBaseline(buffer.str(), &runner_options.baseline);
    if (status.ok()) status = MatchBaseline(runner_options.baseline, variants);
    if (!status.ok()) {
      std::cerr << "ncplaybook: " << status.ToString() << "\n";
      return 2;
    }
  }
  const PlaybookReport report =
      PlaybookRunner(std::move(runner_options)).Run(variants);
  std::cout << report.ToText();
  if (!WritePacket(options.packet_path, report)) return 2;
  return report.flagged == 0 ? 0 : 1;
}

int RunSoak(const CliOptions& options) {
  const std::vector<ScenarioSpec> variants = GenerateVariants(options);
  if (variants.empty()) {
    std::cerr << "ncplaybook: no variants to run\n";
    return 2;
  }
  return RunVariants(options,
                     "ncplaybook soak --seed " + std::to_string(options.seed) +
                         " --count " + std::to_string(options.count) +
                         (options.engine_only ? " --engine-only" : ""),
                     variants);
}

int RunGen(const CliOptions& options) {
  for (const ScenarioSpec& spec : GenerateVariants(options)) {
    std::cout << spec.Serialize();
  }
  return 0;
}

int RunSpecFile(const CliOptions& options) {
  std::ifstream in(options.spec_path);
  if (!in) {
    std::cerr << "ncplaybook: cannot read " << options.spec_path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ScenarioSpec spec;
  const Status status = ParseScenario(buffer.str(), &spec);
  if (!status.ok()) {
    std::cerr << "ncplaybook: " << status.ToString() << "\n";
    return 2;
  }
  return RunVariants(options, /*repro_prefix=*/"", {spec});
}

int RunPrint(const CliOptions& options) {
  if (options.only.empty()) {
    std::cerr << "ncplaybook: print needs --only NAME\n";
    return 2;
  }
  const std::vector<ScenarioSpec> variants = GenerateVariants(options);
  if (variants.empty()) {
    std::cerr << "ncplaybook: no variant named " << options.only << "\n";
    return 2;
  }
  for (const ScenarioSpec& spec : variants) {
    std::cout << spec.Signature() << "\n" << spec.Serialize();
  }
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  if (options.command == "soak") return RunSoak(options);
  if (options.command == "gen") return RunGen(options);
  if (options.command == "run") {
    if (options.spec_path.empty()) return Usage();
    return RunSpecFile(options);
  }
  if (options.command == "print") return RunPrint(options);
  return Usage();
}

}  // namespace
}  // namespace nc::playbook

int main(int argc, char** argv) { return nc::playbook::Main(argc, argv); }
