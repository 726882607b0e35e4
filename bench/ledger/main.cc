// nc_ledger: the repository's benchmark.
//
//   nc_ledger --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--out FILE] [--spans FILE]
//   nc_ledger --check
//
// A run sets the workload up several times (reporting the median set-up
// time), then drives it for --seconds with closed-loop callers and prints
// every end-to-end metric by name with its unit. With --trace 1 it prints
// the per-layer metrics instead: the serving window still runs (for the
// server-side and cache numbers), followed by a serial replay of the
// stream's first requests that times each layer. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any answer was wrong or unsound.
//
// --check is a smoke test: every workload at a fixed request count, twice
// on one seed, asserting identical streams, identical Eq. 1 cost where it
// is deterministic, zero failures, and replayed answers equal to served
// ones.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/ledger/ledger.h"
#include "common/check.h"
#include "common/stats.h"
#include "obs/json.h"

namespace nc::ledger {
namespace {

// Set-ups per run; the median is reported so one slow start does not
// move the metric.
constexpr size_t kSetupRepeats = 9;
// Requests the traced run replays.
constexpr size_t kReplayRequests = 300;
// Requests per workload in --check, and how many of them are replayed.
constexpr size_t kCheckRequests = 200;
constexpr size_t kCheckReplayed = 32;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool check = false;
  std::string out;
  std::string spans;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "nc_ledger: %s\n"
               "usage: nc_ledger --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--out FILE] [--spans FILE]\n"
               "       nc_ledger --check\n"
               "workloads:",
               why);
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

// Returns 0 on success, else the exit code of a usage error.
int ParseArgs(int argc, char** argv, Options* options) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check") {
      options->check = true;
      continue;
    }
    if (flag == "--traced") {
      options->trace = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &options->seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 3600) {
        return Usage("--seconds must be in [1, 3600]");
      }
      options->seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) {
        return Usage("--trace must be 0 or 1");
      }
      options->trace = number == 1;
    } else if (flag == "--out") {
      options->out = value;
    } else if (flag == "--spans") {
      options->spans = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options->check) return 0;
  if (FindWorkload(options->workload) == nullptr) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed) return Usage("missing --seed");
  return 0;
}

double PeakRssMb() {
  rusage usage{};
  NC_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux.
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// The median of `repeats` set-ups; the last one is kept for the run.
std::unique_ptr<Setup> TimedSetup(const WorkloadSpec& spec, size_t repeats,
                                  double* setup_s) {
  std::vector<double> seconds;
  std::unique_ptr<Setup> setup;
  for (size_t r = 0; r < repeats; ++r) {
    setup.reset();
    const uint64_t start = NowNs();
    setup = std::make_unique<Setup>(spec);
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  *setup_s = Median(seconds);
  return setup;
}

// What a user of the system sees, from the untraced window.
std::vector<Metric> EndToEndMetrics(const WindowResult& w, double setup_s,
                                    double rss_mb) {
  const double completed = static_cast<double>(std::max<size_t>(w.completed, 1));
  std::vector<Metric> m;
  SetMetric(&m, "qps", static_cast<double>(w.completed) / w.seconds, "1/s");
  SetMetric(&m, "latency_p50_us", Percentile(w.latency_us, 0.5), "us");
  SetMetric(&m, "latency_p99_us", Percentile(w.latency_us, 0.99), "us");
  SetMetric(&m, "cpu_us_per_query", w.cpu_seconds * 1e6 / completed, "us");
  SetMetric(&m, "cost_per_query", w.cost / completed, "eq1");
  SetMetric(&m, "setup_s", setup_s, "s");
  SetMetric(&m, "peak_rss_mb", rss_mb, "MB");
  return m;
}

// The per-layer metrics the serving window measures, joined with the
// replay's, plus the ledger's remainder terms.
std::vector<Metric> PerLayerMetrics(const WindowResult& w,
                                    const ReplayResult& replay) {
  std::vector<double> queue_wait(w.latency_us.size());
  for (size_t i = 0; i < queue_wait.size(); ++i) {
    queue_wait[i] = std::max(0.0, w.latency_us[i] - w.service_us[i]);
  }
  const cache::CacheStatsSnapshot& a = w.cache_before;
  const cache::CacheStatsSnapshot& b = w.cache_after;
  const double hits = static_cast<double>(b.hits() - a.hits());
  const double lookups = hits + static_cast<double>(b.misses() - a.misses());
  const double service_mean = Mean(w.service_us);

  std::vector<Metric> m;
  SetMetric(&m, "server.queue_wait_us_p50", Percentile(queue_wait, 0.5), "us");
  SetMetric(&m, "server.service_us_p50", Percentile(w.service_us, 0.5), "us");
  SetMetric(&m, "server.service_us_p99", Percentile(w.service_us, 0.99),
            "us");
  SetMetric(&m, "server.service_us_mean", service_mean, "us");
  for (const Metric& metric : replay.metrics) {
    SetMetric(&m, metric.name, metric.value, metric.unit);
  }
  SetMetric(&m, "cache.hit_ratio", lookups > 0.0 ? hits / lookups : 0.0,
            "ratio");
  SetMetric(&m, "cache.evictions",
            static_cast<double>(b.evictions - a.evictions), "count");
  SetMetric(&m, "cache.inflight_merges",
            static_cast<double>(b.inflight_merges - a.inflight_merges),
            "count");
  SetMetric(&m, "certified_frac",
            static_cast<double>(w.certified) /
                static_cast<double>(std::max<size_t>(w.completed, 1)),
            "ratio");
  return m;
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics,
                       const Options* identity) {
  std::ostringstream os;
  obs::JsonWriter w(&os);
  w.BeginObject();
  if (identity != nullptr) {
    w.Key("workload").String(identity->workload);
    w.Key("seed").UInt(identity->seed);
    w.Key("seconds").Number(identity->seconds);
    w.Key("trace").Int(identity->trace ? 1 : 0);
  }
  w.Key("correct").Bool(correct);
  w.Key("attempted").UInt(attempted);
  w.Key("failed").UInt(failed);
  w.Key("metrics").BeginObject();
  for (const Metric& metric : metrics) {
    w.Key(metric.name).BeginObject();
    w.Key("value").Number(metric.value);
    w.Key("unit").String(metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return os.str();
}

int RunOnce(const Options& options) {
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  std::printf("ledger workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  double setup_s = 0.0;
  std::unique_ptr<Setup> setup = TimedSetup(spec, kSetupRepeats, &setup_s);
  setup->corpus().PrecomputeOracles();

  WindowOptions window_options;
  window_options.seconds = options.seconds;
  const WindowResult window = RunWindow(*setup, options.seed, window_options);
  const double rss_mb = PeakRssMb();
  const size_t beyond_p99 = window.latency_us.size() / 100;
  std::printf("  window: %zu attempted, %zu completed, %zu errors, %zu wrong, "
              "%zu certified in %.3fs; %zu latency samples, %zu beyond p99\n",
              window.attempted, window.completed, window.errors, window.wrong,
              window.certified, window.seconds, window.latency_us.size(),
              beyond_p99);

  size_t attempted = window.attempted;
  size_t failed = window.errors + window.wrong;
  std::vector<Metric> metrics;
  if (options.trace) {
    SpanLog spans;
    const ReplayResult replay =
        Replay(*setup, MergedStream(spec, options.seed, kReplayRequests),
               &spans);
    std::printf("  replay: %zu requests, %zu wrong\n", kReplayRequests,
                replay.wrong);
    attempted += kReplayRequests;
    failed += replay.wrong;
    metrics = PerLayerMetrics(window, replay);
    if (!options.spans.empty() && !spans.Write(options.spans)) {
      std::fprintf(stderr, "nc_ledger: cannot write %s\n",
                   options.spans.c_str());
      return 1;
    }
  } else {
    metrics = EndToEndMetrics(window, setup_s, rss_mb);
  }
  setup.reset();

  std::printf("  failed_frac %.6g (failed %zu of %zu)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted);
  for (const Metric& metric : metrics) {
    std::printf("  metric %-40s %14.6g %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  const bool correct = failed == 0;
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << ResultJson(correct, attempted, failed, metrics, &options) << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "nc_ledger: cannot write %s\n",
                   options.out.c_str());
      return 1;
    }
  }
  std::printf("%s\n",
              ResultJson(correct, attempted, failed, metrics, nullptr).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// One --check run of a workload: a count-bounded window and a replay of
// the same requests.
struct CheckRun {
  WindowResult window;
  ReplayResult replay;
  std::vector<Metric> metrics;
};

CheckRun RunCheck(const WorkloadSpec& spec, uint64_t seed) {
  CheckRun run;
  double setup_s = 0.0;
  std::unique_ptr<Setup> setup = TimedSetup(spec, 1, &setup_s);
  setup->corpus().PrecomputeOracles();
  WindowOptions options;
  options.per_caller = kCheckRequests / spec.callers;
  options.keep_answers = true;
  run.window = RunWindow(*setup, seed, options);
  SpanLog spans;
  run.replay =
      Replay(*setup, MergedStream(spec, seed, kCheckReplayed), &spans);
  run.metrics = EndToEndMetrics(run.window, setup_s, PeakRssMb());
  for (const Metric& metric : PerLayerMetrics(run.window, run.replay)) {
    run.metrics.push_back(metric);
  }
  return run;
}

int Check() {
  constexpr uint64_t kSeed = 1;
  bool ok = true;
  const auto expect = [&ok](bool condition, const std::string& workload,
                            const char* what) {
    if (!condition) {
      std::printf("FAIL %s: %s\n", workload.c_str(), what);
      ok = false;
    }
  };
  std::vector<Metric> dictionary;
  for (const WorkloadSpec& spec : Workloads()) {
    const bool ok_before = ok;
    const uint64_t start = NowNs();
    const CheckRun first = RunCheck(spec, kSeed);
    const CheckRun second = RunCheck(spec, kSeed);
    const std::string& name = spec.name;
    expect(first.window.requests == second.window.requests, name,
           "request streams differ between runs");
    expect(first.window.attempted == kCheckRequests, name,
           "wrong request count");
    if (!spec.cache && !spec.fleet) {
      // Fault-free, cache-free serving: each request's cost depends on
      // the request alone.
      expect(first.window.cost == second.window.cost, name,
             "cost_per_query differs between runs");
    }
    const std::vector<Request> merged =
        MergedStream(spec, kSeed, kCheckRequests);
    for (const CheckRun* run : {&first, &second}) {
      expect(run->window.errors + run->window.wrong + run->replay.wrong == 0,
             name, "failed_frac != 0");
      // Request i of the merged stream is caller i % C's (i / C)-th.
      for (size_t i = 0; i < run->replay.answers.size(); ++i) {
        const size_t caller = i % spec.callers;
        const size_t index = i / spec.callers;
        const Request& served = run->window.requests[caller][index];
        const TopKResult& answer = run->window.answers[caller][index];
        const TopKResult& replayed = run->replay.answers[i];
        const bool exact = !answer.certificate.has_value() &&
                           !replayed.certificate.has_value();
        expect(!exact || answer == replayed, name,
               "replayed answer differs from the served one");
        expect(served == merged[i], name,
               "replay request differs from the served one");
      }
    }
    std::printf("%s %s: %zu requests x 2 runs, cost_per_query %.6g, %.1fs\n",
                ok == ok_before ? "ok" : "FAIL", name.c_str(),
                first.window.attempted,
                GetMetric(first.metrics, "cost_per_query"),
                static_cast<double>(NowNs() - start) * 1e-9);
    for (const Metric& metric : first.metrics) {
      SetMetric(&dictionary, metric.name, 0.0, metric.unit);
    }
  }
  std::printf("metrics:\n");
  for (const Metric& metric : dictionary) {
    std::printf("  %-40s %s\n", metric.name.c_str(), metric.unit.c_str());
  }
  std::printf("%s\n", ok ? "check passed" : "check FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nc::ledger

int main(int argc, char** argv) {
  nc::ledger::Options options;
  if (const int code = nc::ledger::ParseArgs(argc, argv, &options)) {
    return code;
  }
  return options.check ? nc::ledger::Check() : nc::ledger::RunOnce(options);
}
