#include "playbook/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "access/source.h"
#include "access/trace_format.h"
#include "cache/cache.h"
#include "common/check.h"
#include "common/numeric.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "replica/replica.h"
#include "server/server.h"

namespace nc::playbook {
namespace {

constexpr const char* kMetricsAlgorithm = "playbook";

// One scenario's fully configured source stack, engine and server mode
// alike: the injector / fleet / hub a SourceSet needs, owned in
// construction order so `sources` may reference all of them. Identical
// specs build identical stacks - the resume oracle and the server's
// interchangeable-workers contract both stand on that.
struct SpecStack {
  FaultInjector injector;
  ReplicaFleet fleet;
  obs::TelemetryHub hub;
  // Engine-mode cache variants own a private AccessCache (server-mode
  // variants share the QueryServer's instead); within one run it still
  // exercises the full hit path on duplicate accesses.
  std::unique_ptr<cache::AccessCache> cache;
  SourceSet sources;

  SpecStack(const ScenarioSpec& spec, const Dataset* data)
      : injector(spec.fault_seed),
        fleet(spec.fleet_seed),
        sources(data, spec.MakeCostModel()) {
    sources.EnableTrace();
    if (spec.has_fleet()) {
      NC_CHECK(spec.ConfigureFleet(&fleet).ok());
      NC_CHECK(sources.set_replica_fleet(&fleet).ok());
    } else {
      // Fleet specs carry their faults on the replicas; the default
      // profile is only meaningful on the plain single-source path.
      injector.set_default_profile(spec.fault);
      sources.set_fault_injector(&injector);
    }
    if (spec.adaptive_hedge) sources.set_telemetry_hub(&hub);
    sources.set_retry_policy(RetryPolicy{}, spec.jitter_seed);
    if (spec.cache_enabled) {
      cache::CacheConfig cache_config;
      cache_config.hit_cost = spec.cache_hit_cost;
      cache = std::make_unique<cache::AccessCache>(cache_config);
      sources.set_access_cache(cache.get());
    }
  }
};

// The worker-confined stack a server variant's workers build. The
// request carries the budget, so the stack itself stays budget-free.
class SpecWorkerStack : public server::WorkerStack {
 public:
  SpecWorkerStack(const ScenarioSpec& spec, const Dataset* data)
      : stack_(spec, data) {}
  SourceSet& sources() override { return stack_.sources; }

 private:
  SpecStack stack_;
};

// Worst-case single-access factors for budget tightness under a fleet:
// every request may be served by the priciest replica, and a hedged
// access bills two requests.
double FleetCostFactor(const ScenarioSpec& spec) {
  double factor = 1.0;
  for (const ReplicaSpec& replica : spec.replicas) {
    factor = std::max(factor, replica.cost_multiplier);
  }
  if (spec.adaptive_hedge || spec.hedge_delay > 0.0) factor *= 2.0;
  return factor;
}

// Worst-case latency stretch of one request: slowest replica at maximal
// jitter landing in its tail.
double FleetLatencyFactor(const ScenarioSpec& spec) {
  double factor = 1.0;
  for (const ReplicaSpec& replica : spec.replicas) {
    factor = std::max(factor, replica.latency.multiplier *
                                  (1.0 + replica.latency.jitter) *
                                  replica.latency.tail_multiplier);
  }
  return factor;
}

// A baseline entry's spec_hash: 64-bit FNV-1a of the spec's canonical
// "ncplay 1" text.
std::string SpecHash(const ScenarioSpec& spec) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : spec.Serialize()) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

void AddViolation(VariantVerdict* verdict, Oracle oracle,
                  std::string detail) {
  verdict->violations.push_back(Violation{oracle, std::move(detail)});
}

// --- The oracles ------------------------------------------------------

// The answer is true to the data (CheckAnswer): an uncertified answer is
// THE top-k whatever the faults and budget were, so a broken promise is
// kDifferential; a certified one keeps its certificate's promises, else
// kCertificate. A fault-free unlimited run must also reach that exact
// answer rather than certify a partial one.
void CheckTruth(const Dataset& data, const ScoringFunction& scoring,
                const ScenarioSpec& spec, const TopKResult& result,
                bool exact, VariantVerdict* verdict) {
  if (spec.fault_free() && spec.budget.unlimited() && !exact) {
    AddViolation(verdict, Oracle::kDifferential,
                 "fault-free unlimited run not reported exact");
  }
  std::string broken = CheckAnswer(data, scoring, spec.k, result);
  if (!broken.empty()) {
    AddViolation(verdict,
                 result.certificate.has_value() ? Oracle::kCertificate
                                                : Oracle::kDifferential,
                 std::move(broken));
  }
}

// Eq. 1 conservation: the per-predicate stats cells sum to the accrued
// cost, and re-aggregating through RecordRunMetrics reproduces the same
// totals in a fresh registry.
void CheckBilling(const SourceSet& sources, double tol,
                  VariantVerdict* verdict) {
  const AccessStats& stats = sources.stats();
  double cells = 0.0;
  for (PredicateId i = 0; i < sources.num_predicates(); ++i) {
    cells += stats.sorted_cost_accrued[i] + stats.random_cost_accrued[i];
  }
  if (!NearlyEqual(cells, sources.accrued_cost(), tol)) {
    AddViolation(verdict, Oracle::kBilling,
                 "stats cost cells sum " + FormatDouble(cells) +
                     " != accrued_cost " +
                     FormatDouble(sources.accrued_cost()));
  }
  obs::MetricsRegistry registry;
  obs::RecordRunMetrics(&registry, obs::BuildRunReport(sources, nullptr,
                                                       kMetricsAlgorithm));
  const double metric_cost = registry.CounterSum(
      "nc_access_cost_total", {{"algorithm", kMetricsAlgorithm}});
  if (!NearlyEqual(metric_cost, sources.accrued_cost(), tol)) {
    AddViolation(verdict, Oracle::kBilling,
                 "nc_access_cost_total " + FormatDouble(metric_cost) +
                     " != accrued_cost " +
                     FormatDouble(sources.accrued_cost()));
  }
  const double metric_accesses = registry.CounterSum(
      "nc_accesses_total", {{"algorithm", kMetricsAlgorithm}});
  const double stat_accesses =
      static_cast<double>(stats.TotalSorted() + stats.TotalRandom());
  if (metric_accesses != stat_accesses) {
    AddViolation(verdict, Oracle::kBilling,
                 "nc_accesses_total " + FormatDouble(metric_accesses) +
                     " != stats total " + FormatDouble(stat_accesses));
  }
}

// Budget tightness: never more than one worst-case access past a cap,
// with the fleet's cost/latency stretch priced in; quotas are exact.
void CheckBudget(const ScenarioSpec& spec, const CostModel& cost,
                 double accrued, double elapsed,
                 const AccessStats* stats, double tol,
                 VariantVerdict* verdict) {
  if (spec.budget.unlimited()) return;
  const RetryPolicy retry;  // Stock policy, matching the stacks above.
  const double cost_factor = FleetCostFactor(spec);
  if (spec.budget.max_cost > 0.0) {
    const double bound = spec.budget.max_cost +
                         WorstAccessBilling(cost, retry) * cost_factor + tol;
    if (accrued > bound) {
      AddViolation(verdict, Oracle::kBudget,
                   "accrued cost " + FormatDouble(accrued) +
                       " overshoots cap " +
                       FormatDouble(spec.budget.max_cost) + " past " +
                       FormatDouble(bound));
    }
  }
  // Deadline and quota read the source-side clock and counters, which a
  // server response does not expose; engine mode passes stats, server
  // mode checks the cost cap only.
  if (stats == nullptr) return;
  if (spec.budget.deadline > 0.0) {
    const double bound =
        spec.budget.deadline +
        WorstElapsedIncrement(cost, retry) * cost_factor *
            FleetLatencyFactor(spec) +
        std::max(0.0, spec.hedge_delay) + tol;
    if (elapsed > bound) {
      AddViolation(verdict, Oracle::kBudget,
                   "elapsed time " + FormatDouble(elapsed) +
                       " overshoots deadline " +
                       FormatDouble(spec.budget.deadline) + " past " +
                       FormatDouble(bound));
    }
  }
  for (PredicateId i = 0; i < spec.budget.predicate_quota.size(); ++i) {
    const size_t quota = spec.budget.predicate_quota[i];
    if (quota == 0) continue;
    const size_t used = stats->sorted_count[i] + stats->random_count[i];
    if (used > quota) {
      AddViolation(verdict, Oracle::kBudget,
                   "predicate " + std::to_string(i) + " used " +
                       std::to_string(used) + " accesses over quota " +
                       std::to_string(quota));
    }
  }
}

}  // namespace

const char* OracleName(Oracle oracle) {
  switch (oracle) {
    case Oracle::kDifferential:
      return "Differential";
    case Oracle::kCertificate:
      return "Certificate";
    case Oracle::kBilling:
      return "Billing";
    case Oracle::kBudget:
      return "Budget";
    case Oracle::kResume:
      return "Resume";
  }
  return "?";
}

double WorstAccessBilling(const CostModel& cost, const RetryPolicy& retry) {
  double unit = 0.0;
  for (PredicateId i = 0; i < cost.num_predicates(); ++i) {
    if (cost.has_sorted(i)) unit = std::max(unit, cost.sorted_cost[i]);
    if (cost.has_random(i)) unit = std::max(unit, cost.random_cost[i]);
  }
  const double failures = static_cast<double>(retry.max_attempts - 1);
  return unit * (failures * retry.retry_cost_factor +
                 std::max(1.0, retry.retry_cost_factor));
}

double WorstElapsedIncrement(const CostModel& cost,
                             const RetryPolicy& retry) {
  double unit = 0.0;
  for (PredicateId i = 0; i < cost.num_predicates(); ++i) {
    if (cost.has_sorted(i)) unit = std::max(unit, cost.sorted_cost[i]);
    if (cost.has_random(i)) unit = std::max(unit, cost.random_cost[i]);
  }
  double backoff = 0.0;
  double delay = retry.backoff_base;
  for (size_t a = 1; a < retry.max_attempts; ++a) {
    backoff += delay * (1.0 + retry.backoff_jitter);
    delay *= retry.backoff_multiplier;
  }
  return WorstAccessBilling(cost, retry) +
         static_cast<double>(retry.max_attempts) *
             retry.timeout_latency_factor * unit +
         backoff;
}

PlaybookRunner::PlaybookRunner(RunnerOptions options)
    : options_(std::move(options)) {}

VariantVerdict PlaybookRunner::RunEngineVariant(
    const ScenarioSpec& spec) const {
  VariantVerdict verdict;
  verdict.spec = spec;
  verdict.executed = true;

  const Dataset data = spec.MakeDataset();
  const CostModel cost = spec.MakeCostModel();
  const std::unique_ptr<ScoringFunction> scoring = spec.MakeScoring();
  const SRGConfig config = spec.MakeSRGConfig();

  SpecStack stack(spec, &data);
  verdict.run_status = stack.sources.set_budget(spec.budget);
  if (!verdict.run_status.ok()) return verdict;

  SRGPolicy policy(config);
  EngineOptions options;
  options.k = spec.k;
  std::optional<EngineCheckpoint> checkpoint;
  NCEngine* engine_ptr = nullptr;
  if (spec.kill_at_access > 0) {
    const size_t kill = spec.kill_at_access;
    options.access_callback = [&checkpoint, &engine_ptr, kill](size_t count) {
      if (count == kill) checkpoint = engine_ptr->Checkpoint();
    };
  }
  NCEngine engine(&stack.sources, scoring.get(), &policy, options);
  engine_ptr = &engine;
  TopKResult result;
  verdict.run_status = engine.Run(&result);
  if (!verdict.run_status.ok()) return verdict;

  verdict.accrued_cost = stack.sources.accrued_cost();
  verdict.elapsed_time = stack.sources.elapsed_time();
  verdict.accesses = engine.accesses_performed();
  verdict.result_size = result.entries.size();
  verdict.exact = engine.last_run_exact();
  verdict.certified = result.certificate.has_value();

  // Crash-safety first, against the pristine result: resume the mid-run
  // snapshot (through the text format) on a freshly built identical
  // stack and demand a bit-identical continuation.
  if (checkpoint.has_value()) {
    const std::string text = SerializeCheckpoint(*checkpoint);
    EngineCheckpoint parsed;
    const Status parse_status = ParseCheckpoint(text, &parsed);
    if (!parse_status.ok()) {
      AddViolation(&verdict, Oracle::kResume,
                   "checkpoint failed to round-trip: " +
                       parse_status.ToString());
    } else {
      SpecStack resume_stack(spec, &data);
      const Status budget_status =
          resume_stack.sources.set_budget(spec.budget);
      NC_CHECK(budget_status.ok());
      SRGPolicy resume_policy(config);
      EngineOptions resume_options;
      resume_options.k = spec.k;
      NCEngine resume_engine(&resume_stack.sources, scoring.get(),
                             &resume_policy, resume_options);
      TopKResult resumed;
      const Status resume_status = resume_engine.Resume(parsed, &resumed);
      if (!resume_status.ok()) {
        AddViolation(&verdict, Oracle::kResume,
                     "resume failed: " + resume_status.ToString());
      } else {
        if (!(resumed == result) ||
            resumed.certificate != result.certificate) {
          AddViolation(&verdict, Oracle::kResume,
                       "answer or certificate diverged after resume: " + resumed.ToString() +
                           " != " + result.ToString());
        }
        if (resume_stack.sources.accrued_cost() !=
            stack.sources.accrued_cost()) {
          AddViolation(
              &verdict, Oracle::kResume,
              "accrued cost diverged: " +
                  FormatDouble(resume_stack.sources.accrued_cost()) +
                  " != " + FormatDouble(stack.sources.accrued_cost()));
        }
        if (resume_stack.sources.elapsed_time() !=
            stack.sources.elapsed_time()) {
          AddViolation(&verdict, Oracle::kResume,
                       "elapsed time diverged after resume");
        }
        if (resume_engine.accesses_performed() !=
            engine.accesses_performed()) {
          AddViolation(&verdict, Oracle::kResume,
                       "access count diverged after resume");
        }
        if (SerializeAttemptTrace(resume_stack.sources.attempt_trace()) !=
            SerializeAttemptTrace(stack.sources.attempt_trace())) {
          AddViolation(&verdict, Oracle::kResume,
                       "attempt trace diverged after resume");
        }
      }
    }
  }

  if (options_.tamper) options_.tamper(spec, &result);

  CheckTruth(data, *scoring, spec, result, verdict.exact, &verdict);
  CheckBilling(stack.sources, options_.tolerance, &verdict);
  CheckBudget(spec, cost, verdict.accrued_cost, verdict.elapsed_time,
              &stack.sources.stats(), options_.tolerance, &verdict);
  return verdict;
}

VariantVerdict PlaybookRunner::RunServerVariant(
    const ScenarioSpec& spec) const {
  VariantVerdict verdict;
  verdict.spec = spec;
  verdict.executed = true;

  const Dataset data = spec.MakeDataset();
  const CostModel cost = spec.MakeCostModel();
  const std::unique_ptr<ScoringFunction> scoring = spec.MakeScoring();

  server::ServerConfig config;
  config.num_workers = spec.workers;
  config.queue_capacity = 4;
  // Server-mode cache variants go through the QueryServer's shared
  // cache, so this path exercises the real cross-worker wiring.
  config.enable_cache = spec.cache_enabled;
  config.cache.hit_cost = spec.cache_hit_cost;
  server::QueryServer server(
      scoring.get(), config,
      [&spec, &data](size_t) {
        return std::make_unique<SpecWorkerStack>(spec, &data);
      });
  verdict.run_status = server.Start();
  if (!verdict.run_status.ok()) return verdict;

  server::QueryRequest request;
  request.k = spec.k;
  request.budget = spec.budget;
  std::future<server::QueryResponse> future;
  verdict.run_status = server.Submit(std::move(request), &future);
  if (!verdict.run_status.ok()) {
    server.Shutdown(true);
    return verdict;
  }
  server::QueryResponse response = future.get();
  server.Shutdown(true);

  verdict.run_status = response.status;
  if (!verdict.run_status.ok()) return verdict;
  if (response.outcome != server::ServeOutcome::kCompleted) {
    verdict.run_status = Status::Internal(
        std::string("server outcome ") +
        server::ServeOutcomeName(response.outcome));
    return verdict;
  }

  verdict.accrued_cost = response.accrued_cost;
  verdict.accesses = response.accesses;
  verdict.result_size = response.result.entries.size();
  verdict.exact = response.query_outcome == QueryOutcome::kExact;
  verdict.certified = response.result.certificate.has_value();

  if (options_.tamper) options_.tamper(spec, &response.result);

  CheckTruth(data, *scoring, spec, response.result, verdict.exact, &verdict);
  // Eq. 1 conservation through the server's registry: the query's
  // recorded per-series costs must sum back to what the response billed.
  const double metric_cost = server.metrics().CounterSum(
      "nc_access_cost_total", {{"algorithm", "server"}});
  if (!NearlyEqual(metric_cost, response.accrued_cost,
                   options_.tolerance)) {
    AddViolation(&verdict, Oracle::kBilling,
                 "server nc_access_cost_total " + FormatDouble(metric_cost) +
                     " != response accrued_cost " +
                     FormatDouble(response.accrued_cost));
  }
  CheckBudget(spec, cost, verdict.accrued_cost, 0.0, nullptr,
              options_.tolerance, &verdict);
  return verdict;
}

VariantVerdict PlaybookRunner::RunOne(const ScenarioSpec& spec) const {
  const auto start = std::chrono::steady_clock::now();
  VariantVerdict verdict;
  const Status valid = spec.Validate();
  if (!valid.ok()) {
    verdict.spec = spec;
    verdict.run_status = valid;
  } else if (spec.workers == 0) {
    verdict = RunEngineVariant(spec);
  } else {
    verdict = RunServerVariant(spec);
  }
  if (verdict.executed && !options_.baseline.empty()) {
    const auto it = options_.baseline.find(spec.name);
    if (it != options_.baseline.end() &&
        it->second.spec_hash == SpecHash(spec)) {
      const BaselineEntry& expected = it->second;
      if (!NearlyEqual(verdict.accrued_cost, expected.cost,
                       options_.tolerance) ||
          verdict.accesses != expected.accesses) {
        verdict.anomaly =
            "cost " + FormatDouble(verdict.accrued_cost) + " accesses " +
            std::to_string(verdict.accesses) + " vs baseline cost " +
            FormatDouble(expected.cost) + " accesses " +
            std::to_string(expected.accesses);
      }
    }
  }
  verdict.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return verdict;
}

PlaybookReport PlaybookRunner::Run(
    const std::vector<ScenarioSpec>& variants) const {
  const auto start = std::chrono::steady_clock::now();
  PlaybookReport report;
  report.total = variants.size();
  report.repro_prefix = options_.repro_prefix;
  const StopConditions& stop = options_.stop;
  for (const ScenarioSpec& spec : variants) {
    if (report.stopped_early) {
      VariantVerdict skipped;
      skipped.spec = spec;
      report.verdicts.push_back(std::move(skipped));
      ++report.skipped;
      continue;
    }
    if (stop.max_wall_seconds > 0.0) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (elapsed >= stop.max_wall_seconds) {
        report.stopped_early = true;
        report.stop_reason = "wall-clock cap reached";
        VariantVerdict skipped;
        skipped.spec = spec;
        report.verdicts.push_back(std::move(skipped));
        ++report.skipped;
        continue;
      }
    }
    VariantVerdict verdict = RunOne(spec);
    ++report.executed;
    if (verdict.flagged()) {
      ++report.flagged;
      report.violations += verdict.violations.size();
      if (!verdict.anomaly.empty()) ++report.anomalies;
    } else {
      ++report.passed;
    }
    const bool over_failures =
        stop.max_failures > 0 && report.flagged >= stop.max_failures;
    const bool first_anomaly =
        stop.stop_on_first_anomaly && report.flagged > 0;
    report.verdicts.push_back(std::move(verdict));
    if (over_failures || first_anomaly) {
      report.stopped_early = true;
      report.stop_reason = first_anomaly && !over_failures
                               ? "first anomaly"
                               : "max failures reached";
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

std::string PlaybookReport::ReproCommand(
    const VariantVerdict& verdict) const {
  if (repro_prefix.empty()) return verdict.spec.name;
  return repro_prefix + " --only " + verdict.spec.name;
}

std::string PlaybookReport::ToText() const {
  std::string out = "playbook: total=" + std::to_string(total) +
                    " executed=" + std::to_string(executed) +
                    " passed=" + std::to_string(passed) +
                    " flagged=" + std::to_string(flagged) +
                    " skipped=" + std::to_string(skipped) +
                    " violations=" + std::to_string(violations) +
                    " anomalies=" + std::to_string(anomalies) + " wall=" +
                    FormatDouble(wall_seconds) + "s\n";
  if (stopped_early) out += "stopped early: " + stop_reason + "\n";
  for (const VariantVerdict& verdict : verdicts) {
    if (!verdict.executed || !verdict.flagged()) continue;
    out += "--- " + verdict.spec.name + " ---\n";
    out += "  spec: " + verdict.spec.Signature() + "\n";
    if (!verdict.run_status.ok()) {
      out += "  status: " + verdict.run_status.ToString() + "\n";
    }
    for (const Violation& violation : verdict.violations) {
      out += std::string("  violation[") + OracleName(violation.oracle) +
             "]: " + violation.detail + "\n";
    }
    if (!verdict.anomaly.empty()) {
      out += "  anomaly: " + verdict.anomaly + "\n";
    }
    out += "  repro: " + ReproCommand(verdict) + "\n";
  }
  return out;
}

std::string PlaybookReport::ToJson() const {
  std::ostringstream os;
  obs::JsonWriter json(&os);
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("summary").BeginObject();
  json.Key("total").UInt(total);
  json.Key("executed").UInt(executed);
  json.Key("passed").UInt(passed);
  json.Key("flagged").UInt(flagged);
  json.Key("skipped").UInt(skipped);
  json.Key("violations").UInt(violations);
  json.Key("anomalies").UInt(anomalies);
  json.Key("stopped_early").Bool(stopped_early);
  json.Key("stop_reason").String(stop_reason);
  json.Key("wall_seconds").Number(wall_seconds);
  json.EndObject();
  json.Key("flagged_variants").BeginArray();
  for (const VariantVerdict& verdict : verdicts) {
    if (!verdict.executed || !verdict.flagged()) continue;
    json.BeginObject();
    json.Key("name").String(verdict.spec.name);
    json.Key("signature").String(verdict.spec.Signature());
    json.Key("repro").String(ReproCommand(verdict));
    json.Key("status").String(verdict.run_status.ToString());
    json.Key("violations").BeginArray();
    for (const Violation& violation : verdict.violations) {
      json.BeginObject();
      json.Key("oracle").String(OracleName(violation.oracle));
      json.Key("detail").String(violation.detail);
      json.EndObject();
    }
    json.EndArray();
    json.Key("anomaly").String(verdict.anomaly);
    json.Key("cost").Number(verdict.accrued_cost);
    json.Key("accesses").UInt(verdict.accesses);
    json.Key("spec").String(verdict.spec.Serialize());
    json.EndObject();
  }
  json.EndArray();
  // The packet doubles as the baseline a later run diffs against.
  json.Key("baseline").BeginObject();
  for (const VariantVerdict& verdict : verdicts) {
    if (!verdict.executed || verdict.flagged()) continue;
    json.Key(verdict.spec.name).BeginObject();
    json.Key("cost").Number(verdict.accrued_cost);
    json.Key("accesses").UInt(verdict.accesses);
    json.Key("spec_hash").String(SpecHash(verdict.spec));
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  os << "\n";
  return os.str();
}

Status LoadBaseline(const std::string& json,
                    std::map<std::string, BaselineEntry>* out) {
  obs::JsonValue doc;
  NC_RETURN_IF_ERROR(obs::ParseJson(json, &doc));
  const obs::JsonValue* object = doc.Find("baseline");
  if (object == nullptr) {
    return Status::InvalidArgument("no \"baseline\" object in document");
  }
  if (!object->is_object()) {
    return Status::InvalidArgument("malformed baseline object");
  }
  std::map<std::string, BaselineEntry> baseline;
  for (const auto& [name, fields] : object->object) {
    if (!fields.is_object()) {
      return Status::InvalidArgument("malformed baseline entry for \"" +
                                     name + "\"");
    }
    BaselineEntry entry;
    bool saw_cost = false, saw_accesses = false, saw_hash = false;
    for (const auto& [field, value] : fields.object) {
      if (field == "spec_hash" ? !value.is_string() : !value.is_number()) {
        return Status::InvalidArgument("malformed baseline field for \"" +
                                       name + "\"");
      }
      if (field == "spec_hash") {
        entry.spec_hash = value.string;
        saw_hash = true;
      } else if (field == "cost") {
        entry.cost = value.number;
        saw_cost = true;
      } else if (field == "accesses") {
        // A count: a non-negative integer that fits in size_t.
        if (!(value.number >= 0.0 && value.number < 0x1p64) ||
            value.number != std::floor(value.number)) {
          return Status::InvalidArgument("baseline accesses for \"" + name +
                                         "\" is not a count");
        }
        entry.accesses = static_cast<size_t>(value.number);
        saw_accesses = true;
      } else {
        return Status::InvalidArgument("unknown baseline field \"" + field +
                                       "\"");
      }
    }
    if (!saw_cost || !saw_accesses || !saw_hash) {
      return Status::InvalidArgument("baseline entry \"" + name +
                                     "\" missing cost, accesses or spec_hash");
    }
    baseline[name] = entry;
  }
  *out = std::move(baseline);
  return Status::OK();
}

Status MatchBaseline(const std::map<std::string, BaselineEntry>& baseline,
                     const std::vector<ScenarioSpec>& variants) {
  for (const ScenarioSpec& spec : variants) {
    const auto it = baseline.find(spec.name);
    if (it != baseline.end() && it->second.spec_hash != SpecHash(spec)) {
      return Status::FailedPrecondition(
          "baseline entry \"" + spec.name + "\" was recorded for another spec");
    }
  }
  return Status::OK();
}

}  // namespace nc::playbook
