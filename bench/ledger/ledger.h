// The performance ledger: one benchmark, four workloads, two currencies.
//
// Every workload drives the library through the entry point a user would
// call - QueryServer::Submit for the three serving workloads,
// RunOptimizedNC for the one-shot planned workload - and reports what a
// user sees (throughput, latency, CPU, Eq. 1 access cost, set-up time,
// memory). A separate traced run replays the start of the same request
// stream serially and times each layer's public functions from here, so
// the per-layer numbers need no instrumentation inside the library.
//
// See bench/ledger/README.md for the workloads, the metric dictionary and
// how the layer numbers add up to the end-to-end ones.

#ifndef NC_BENCH_LEDGER_LEDGER_H_
#define NC_BENCH_LEDGER_LEDGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "access/cost_model.h"
#include "access/score_provider.h"
#include "access/source.h"
#include "cache/cache.h"
#include "core/result.h"
#include "data/dataset.h"
#include "obs/tracer.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"
#include "server/server.h"

namespace nc::ledger {

// One workload: the corpus, the traffic mix and the serving stack.
struct WorkloadSpec {
  std::string name;
  size_t num_objects = 0;
  // Closed-loop callers, each a front end waiting for its answer.
  size_t callers = 1;
  // Through QueryServer::Submit; otherwise RunOptimizedNC per request.
  bool served = true;
  bool cache = false;
  // Profiler on and a JSONL trace sink attached.
  bool observed = false;
  // Two faulty replicas behind every predicate.
  bool fleet = false;
  size_t k_min = 1;
  size_t k_max = 1;
  std::vector<ScoringKind> scorings;
  std::vector<CostModel> regimes;
  // Every budget_period-th request of a caller carries max_cost =
  // budget_max_cost; 0 never budgets.
  size_t budget_period = 0;
  double budget_max_cost = 0.0;
};

const std::vector<WorkloadSpec>& Workloads();
// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

// One generated request. The budget is the only per-request isolation
// the server offers, so it is all a request carries besides its shape.
struct Request {
  size_t k = 1;
  size_t scoring = 0;  // Index into WorkloadSpec::scorings.
  size_t regime = 0;   // Index into WorkloadSpec::regimes.
  double max_cost = 0.0;

  friend bool operator==(const Request& a, const Request& b) {
    return a.k == b.k && a.scoring == b.scoring && a.regime == b.regime &&
           a.max_cost == b.max_cost;
  }
};

// One caller's request stream, drawn from the seed. Streams are dealt
// from shuffled decks holding every (scoring, regime, k) combination once,
// so any prefix covers the mix almost exactly and the mean work per
// request does not drift with how many requests a run completes.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, uint64_t seed, size_t caller);
  Request Next();

 private:
  const WorkloadSpec* spec_;
  uint64_t seed_;
  size_t caller_;
  size_t dealt_ = 0;
  size_t deck_index_ = 0;
  std::vector<Request> deck_;
};

// The first `count` requests of the workload's merged stream: request i
// is the (i / callers)-th request of caller i % callers.
std::vector<Request> MergedStream(const WorkloadSpec& spec, uint64_t seed,
                                  size_t count);

// The data every request of a workload runs against, plus its scoring
// functions and answer oracles.
class Corpus {
 public:
  explicit Corpus(const WorkloadSpec& spec);

  const WorkloadSpec& spec() const { return *spec_; }
  const Dataset& data() const { return data_; }
  const ScoringFunction& scoring(size_t i) const { return *scorings_[i]; }

  // Brute-force answers per (scoring, k), plus each scoring's true top
  // k_max + 1 for certificate checks. Not part of set-up time: a user's
  // server never computes them.
  void PrecomputeOracles();

  // True when `result` is the right answer to `request`: bit-identical to
  // the brute-force top-k, or - for an answer carrying a certificate - a
  // sound one (every entry's true score inside its interval, no excluded
  // object's true score above the excluded ceiling).
  bool Check(const Request& request, const TopKResult& result) const;

 private:
  const WorkloadSpec* spec_;
  Dataset data_;
  std::vector<std::unique_ptr<ScoringFunction>> scorings_;
  // oracles_[scoring][k - k_min].
  std::vector<std::vector<TopKResult>> oracles_;
  // Per scoring: the true top k_max + 1, best first.
  std::vector<TopKResult> rankings_;
};

// A worker's thread-confined source stack for one cost regime, configured
// exactly as the workload's server configures it (minus the shared cache,
// which the server attaches itself).
class LedgerStack final : public server::WorkerStack {
 public:
  // Dataset-backed: what the server and the planner see.
  LedgerStack(const WorkloadSpec& spec, const Dataset* data,
              const CostModel& cost);
  // Backed by a caller-supplied provider (the traced run's timing
  // decorator); must outlive the stack.
  LedgerStack(const WorkloadSpec& spec, ScoreProvider* provider,
              const CostModel& cost);

  SourceSet& sources() override { return sources_; }

 private:
  void Configure(const WorkloadSpec& spec);

  ReplicaFleet fleet_;
  SourceSet sources_;
};

// Server configuration shared by every served workload.
server::ServerConfig MakeServerConfig(const WorkloadSpec& spec);

// Monotonic nanoseconds.
uint64_t NowNs();

// One named, unit-carrying measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Sets (or overwrites) a metric by name.
void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit);
double GetMetric(const std::vector<Metric>& metrics, const std::string& name);

// A stream buffer that counts the bytes written to it and keeps none: the
// trace sink's destination, so tracing costs its formatting work but no
// disk I/O.
class CountingBuf final : public std::streambuf {
 public:
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type c) override;

 private:
  std::atomic<uint64_t> bytes_{0};
};

// What one served request returned.
struct Served {
  TopKResult result;
  // Eq. 1 cost the request accrued.
  double cost = 0.0;
  // Time the server spent on it, queue wait excluded.
  double service_us = 0.0;
};

// Everything a run builds before it measures - the corpus, and for served
// workloads a started server whose workers have planned every k - timed
// as the workload's set-up.
class Setup {
 public:
  explicit Setup(const WorkloadSpec& spec);
  ~Setup();

  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  Corpus& corpus() { return corpus_; }

  // Serves one request the way the workload's users reach the library.
  // False on an error or a refusal. Thread-safe for served workloads;
  // unserved ones have a single caller.
  bool Serve(const Request& request, Served* out);

  // The shared cache's counters; all zero without a cache.
  cache::CacheStatsSnapshot CacheSnapshot() const;
  // Empties the shared cache, if any.
  void ClearCache();

 private:
  void WarmUp();

  Corpus corpus_;
  CountingBuf trace_bytes_;
  std::ostream trace_stream_{&trace_bytes_};
  obs::JsonlSink sink_{&trace_stream_};
  // Unserved workloads run RunOptimizedNC on these, one per cost regime.
  std::vector<std::unique_ptr<LedgerStack>> direct_stacks_;
  // Declared last: its workers use everything above.
  std::unique_ptr<server::QueryServer> server_;
};

struct WindowOptions {
  // Time-bounded: callers keep sending until `seconds` have passed.
  double seconds = 0.0;
  // Count-bounded instead when nonzero: each caller sends this many.
  size_t per_caller = 0;
  // Keep every request and answer (per caller) for comparison.
  bool keep_answers = false;
};

struct WindowResult {
  size_t attempted = 0;
  size_t completed = 0;
  // Errors and refusals.
  size_t errors = 0;
  // Answers the oracle rejected.
  size_t wrong = 0;
  size_t certified = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  // Eq. 1 cost summed over completed requests.
  double cost = 0.0;
  // Caller-observed, Submit to response, per completed request.
  std::vector<double> latency_us;
  std::vector<double> service_us;
  // Per caller, when WindowOptions::keep_answers.
  std::vector<std::vector<Request>> requests;
  std::vector<std::vector<TopKResult>> answers;
  cache::CacheStatsSnapshot cache_before;
  cache::CacheStatsSnapshot cache_after;
};

// Drives the workload's closed-loop callers, each on its own seeded
// stream, and checks every answer against the oracles.
WindowResult RunWindow(Setup& setup, uint64_t seed,
                       const WindowOptions& options);

// One timed interval of the traced run. Spans of one replayed request
// share `request`; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* layer = "";
  int64_t request = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
};

// Spans are kept in memory and written when the run ends.
class SpanLog {
 public:
  size_t Begin(const char* layer, int64_t request, int64_t parent);
  void End(size_t span);
  // One JSON object per line; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  // Answers from the session pass, in request order.
  std::vector<TopKResult> answers;
  // Replayed answers the oracle rejected, or that differ between passes.
  size_t wrong = 0;
};

// Replays `requests` serially through `setup`'s server and through each
// layer's public functions, timing every call into `spans`, and returns
// the per-layer metrics the replay measures.
ReplayResult Replay(Setup& setup, const std::vector<Request>& requests,
                    SpanLog* spans);

}  // namespace nc::ledger

#endif  // NC_BENCH_LEDGER_LEDGER_H_
