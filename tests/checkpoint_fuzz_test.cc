// Checkpoint mutation fuzz with a semantic oracle. Every line, token and
// number of a real checkpoint is perturbed in turn, and each mutant must
// either be rejected (by ParseCheckpoint or Resume) or resume to an
// answer that is sound at the checkpoint's own k: true to the data
// (CheckAnswer), certified unless the run reports it exact, and, for a
// theta answer, with an epsilon of at most theta - 1.
// A parse-level fuzz cannot see the dangerous mutants: they parse, resume
// and halt, just on the wrong answer.
//
// Data: n = 200, m = 2, avg, k = 5, data seed 38. Kill points: accesses 1,
// 4 and 60, plus theta = 1.2 at access 40. NC_CHAOS_ITERS above 3 adds
// evenly spaced kill points across the run (the nightly soak).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "access/source.h"
#include "common/numeric.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "scoring/scoring_function.h"

namespace nc {
namespace {

constexpr size_t kK = 5;

size_t ChaosRounds() {
  if (const char* env = std::getenv("NC_CHAOS_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 3;
}

class CheckpointFuzz {
 public:
  CheckpointFuzz() : data_(MakeData()), avg_(2) {}

  // The checkpoint text after access `kill` (0: run to the end), and the
  // run's total access count.
  std::string CheckpointAt(size_t kill, double theta, size_t* accesses) {
    SourceSet sources(&data_, CostModel::Uniform(2, 1.0, 1.0));
    sources.EnableTrace();
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = kK;
    options.approximation_theta = theta;
    std::optional<EngineCheckpoint> checkpoint;
    NCEngine* engine_ptr = nullptr;
    options.access_callback = [&](size_t count) {
      if (count == kill) checkpoint = engine_ptr->Checkpoint();
    };
    NCEngine engine(&sources, &avg_, &policy, options);
    engine_ptr = &engine;
    TopKResult out;
    EXPECT_TRUE(engine.Run(&out).ok());
    if (accesses != nullptr) *accesses = engine.accesses_performed();
    return checkpoint.has_value() ? SerializeCheckpoint(*checkpoint) : "";
  }

  // Empty when `text` is rejected or resumes soundly; otherwise why not.
  std::string Judge(const std::string& text, double theta) {
    EngineCheckpoint parsed;
    if (!ParseCheckpoint(text, &parsed).ok()) return "";
    SourceSet sources(&data_, CostModel::Uniform(2, 1.0, 1.0));
    SRGPolicy policy(SRGConfig::Default(2));
    EngineOptions options;
    options.k = kK;
    options.approximation_theta = theta;
    NCEngine engine(&sources, &avg_, &policy, options);
    TopKResult out;
    if (!engine.Resume(parsed, &out).ok()) return "";
    ++resumed_;
    if (!engine.last_run_exact() && !out.certificate.has_value()) {
      return "inexact answer without proof";
    }
    if (out.certificate.has_value() &&
        out.certificate->reason == TerminationReason::kTheta &&
        !(out.certificate->epsilon <= theta - 1.0)) {
      return "theta answer's epsilon " +
             FormatDouble(out.certificate->epsilon) + " above theta - 1";
    }
    return CheckAnswer(data_, avg_, parsed.k, out);
  }

  size_t resumed() const { return resumed_; }

 private:
  static Dataset MakeData() {
    GeneratorOptions g;
    g.num_objects = 200;
    g.num_predicates = 2;
    g.seed = 38;
    return GenerateDataset(g);
  }

  Dataset data_;
  AverageFunction avg_;
  size_t resumed_ = 0;
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

bool IsUInt(const std::string& token) {
  uint64_t v = 0;
  return ParseUInt64(token, &v);
}

bool IsDouble(const std::string& token) {
  double v = 0.0;
  return !IsUInt(token) && ParseDouble(token, &v);
}

// The replacements for one numeric token; empty for any other token.
std::vector<std::string> Perturb(const std::string& token) {
  std::vector<std::string> out;
  uint64_t u = 0;
  double d = 0.0;
  if (ParseUInt64(token, &u)) {
    if (u != UINT64_MAX) out.push_back(std::to_string(u + 1));
    out.push_back(u == 0 ? "-1" : std::to_string(u - 1));
    out.push_back("0");
    if (u <= UINT64_MAX / 2) out.push_back(std::to_string(u * 2));
  } else if (IsDouble(token) && ParseDouble(token, &d)) {
    for (const double v : {0.0, 1.0, d * 0.5, std::min(d * 1.01, 1.0),
                           -1e-3}) {
      out.push_back(FormatHexDouble(v));
    }
  }
  out.erase(std::remove(out.begin(), out.end(), token), out.end());
  return out;
}

// Calls `visit` with every mutant of a checkpoint's lines: each line
// dropped and duplicated, each number perturbed, and each candidate
// dropped with the pool count fixed up so the document still parses.
void ForEachMutant(const std::string& text,
                   const std::function<void(const std::string&)>& visit) {
  std::vector<std::string> lines = SplitLines(text);
  size_t pool_line = lines.size();
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string line = lines[i];
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
    visit(JoinLines(lines));
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), line);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), line);
    visit(JoinLines(lines));
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
    if (line.rfind("pool ", 0) == 0) pool_line = i;

    // Tokens keep their separators, so only the perturbed one changes.
    size_t pos = line.find(' ');
    while (pos != std::string::npos) {
      const size_t begin = pos + 1;
      const size_t end = line.find(' ', begin);
      const std::string token = line.substr(
          begin, end == std::string::npos ? std::string::npos : end - begin);
      for (const std::string& replacement : Perturb(token)) {
        lines[i] = line.substr(0, begin) + replacement +
                   (end == std::string::npos ? "" : line.substr(end));
        visit(JoinLines(lines));
      }
      lines[i] = line;
      pos = end;
    }
  }
  ASSERT_LT(pool_line, lines.size());
  uint64_t pool = 0;
  ASSERT_TRUE(ParseUInt64(lines[pool_line].substr(5), &pool));
  for (size_t i = pool_line + 1; i < lines.size(); ++i) {
    if (lines[i].rfind("cand ", 0) != 0) continue;
    std::vector<std::string> edited = lines;
    edited[pool_line] = "pool " + std::to_string(pool - 1);
    edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(i));
    visit(JoinLines(edited));
  }
}

TEST(CheckpointFuzzTest, EveryMutantIsRejectedOrResumesSoundly) {
  CheckpointFuzz fuzz;
  size_t exact_accesses = 0;
  size_t theta_accesses = 0;
  fuzz.CheckpointAt(/*kill=*/0, /*theta=*/1.0, &exact_accesses);
  fuzz.CheckpointAt(/*kill=*/0, /*theta=*/1.2, &theta_accesses);
  ASSERT_GT(exact_accesses, 60u);
  ASSERT_GT(theta_accesses, 40u);

  std::vector<std::pair<size_t, double>> kills = {
      {1, 1.0}, {4, 1.0}, {60, 1.0}, {40, 1.2}};
  const size_t rounds = ChaosRounds();
  for (size_t j = 3; j < rounds; ++j) {
    const bool theta = j % 2 == 1;
    const size_t total = theta ? theta_accesses : exact_accesses;
    kills.emplace_back(1 + (j - 3) * (total - 1) / (rounds - 3),
                       theta ? 1.2 : 1.0);
  }

  size_t mutants = 0;
  std::vector<std::string> unsound;
  for (const auto& [kill, theta] : kills) {
    const std::string text = fuzz.CheckpointAt(kill, theta, nullptr);
    ASSERT_FALSE(text.empty()) << "kill " << kill;
    ASSERT_EQ(fuzz.Judge(text, theta), "") << "unmutated kill " << kill;
    ForEachMutant(text, [&](const std::string& mutant) {
      ++mutants;
      const std::string why = fuzz.Judge(mutant, theta);
      if (why.empty()) return;
      // Name the mutant by the first line that differs.
      const std::vector<std::string> a = SplitLines(text);
      const std::vector<std::string> b = SplitLines(mutant);
      size_t line = 0;
      while (line < a.size() && line < b.size() && a[line] == b[line]) ++line;
      unsound.push_back("kill " + std::to_string(kill) + " theta " +
                        FormatDouble(theta) + " line " +
                        std::to_string(line + 1) + " (" +
                        (line < b.size() ? b[line].substr(0, 60) : "") +
                        "): " + why);
    });
  }
  std::printf("checkpoint fuzz: %zu mutants over %zu kill points, %zu "
              "resumed, %zu unsound\n",
              mutants, kills.size(), fuzz.resumed(), unsound.size());
  EXPECT_EQ(unsound.size(), 0u);
  for (size_t i = 0; i < unsound.size() && i < 20; ++i) {
    ADD_FAILURE() << unsound[i];
  }
}

}  // namespace
}  // namespace nc
