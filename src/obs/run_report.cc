#include "obs/run_report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/numeric.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace nc::obs {

namespace {

std::string FormatCost(double cost) {
  if (!std::isfinite(cost)) return "impossible";
  return FormatDouble(cost);  // Locale-safe; %g would honor LC_NUMERIC.
}

std::string PredicateLabel(const SourceSet& sources, PredicateId i) {
  if (sources.has_dataset()) return sources.dataset().predicate_name(i);
  std::string label = "p";
  label += std::to_string(i);
  return label;
}

// |a - p| / max(a, p): symmetric, finite, in [0, 1].
double SymmetricRelativeError(double predicted, double actual) {
  const double denom = std::max(std::abs(predicted), std::abs(actual));
  if (denom == 0.0) return 0.0;
  return std::abs(actual - predicted) / denom;
}

}  // namespace

CostAudit BuildCostAudit(const CostPrediction& prediction,
                         const SourceSet& sources) {
  CostAudit audit;
  const size_t m = sources.num_predicates();
  if (!prediction.valid || prediction.cost.size() != m) return audit;
  const AccessStats& stats = sources.stats();
  audit.valid = true;
  audit.predicates.reserve(m);
  for (PredicateId i = 0; i < m; ++i) {
    PredicateAudit row;
    row.name = PredicateLabel(sources, i);
    row.predicted_sorted = prediction.sorted_accesses[i];
    row.actual_sorted = static_cast<double>(stats.sorted_count[i]);
    row.predicted_random = prediction.random_accesses[i];
    row.actual_random = static_cast<double>(stats.random_count[i]);
    row.predicted_cost = prediction.cost[i];
    row.actual_cost =
        stats.sorted_cost_accrued[i] + stats.random_cost_accrued[i];
    row.cost_error = row.actual_cost - row.predicted_cost;
    row.cost_relative_error =
        SymmetricRelativeError(row.predicted_cost, row.actual_cost);
    audit.predicates.push_back(std::move(row));
  }
  audit.predicted_total = prediction.total_cost;
  audit.actual_total = sources.accrued_cost();
  audit.total_error = audit.actual_total - audit.predicted_total;
  audit.total_relative_error =
      SymmetricRelativeError(audit.predicted_total, audit.actual_total);
  return audit;
}

RunReport BuildRunReport(const SourceSet& sources, const QueryTracer* tracer,
                         std::string algorithm, size_t k,
                         const CostPrediction* prediction,
                         const Profiler* profiler) {
  RunReport report;
  report.algorithm = std::move(algorithm);
  report.k = k;

  const AccessStats& stats = sources.stats();
  const size_t m = sources.num_predicates();
  report.total_cost = sources.accrued_cost();
  report.total_sorted = stats.TotalSorted();
  report.total_random = stats.TotalRandom();
  report.duplicate_random = stats.duplicate_random_count;
  report.retried_attempts = stats.TotalRetried();
  report.transient_failures = stats.transient_failures;
  report.timeout_failures = stats.timeout_failures;
  report.abandoned_accesses = stats.abandoned_accesses;
  report.source_deaths = stats.source_deaths;
  report.breaker_trips = stats.TotalBreakerTrips();
  report.breaker_fast_failures = stats.breaker_fast_failures;
  report.budget_refusals = stats.budget_refusals;
  const SourceSet::QueryCacheHits& cache = sources.cache_hits();
  report.cache_sorted_hits = cache.sorted_hits;
  report.cache_random_hits = cache.random_hits;
  report.cache_inflight_merges = cache.inflight_merges;
  report.cache_hit_cost = cache.hit_cost_accrued;

  report.predicates.reserve(m);
  for (PredicateId i = 0; i < m; ++i) {
    PredicateCost row;
    row.name = PredicateLabel(sources, i);
    row.sorted_accesses = stats.sorted_count[i];
    row.random_accesses = stats.random_count[i];
    row.sorted_cost = stats.sorted_cost_accrued[i];
    row.random_cost = stats.random_cost_accrued[i];
    row.retried_attempts = stats.retried_attempts[i];
    row.source_down = sources.source_down(i);
    if (sources.has_fleet() && sources.fleet().configured(i)) {
      row.completion_latencies = sources.fleet().latency_samples(i);
    }
    report.predicates.push_back(std::move(row));
  }

  report.replica_failovers = stats.replica_failovers;
  report.hedges_issued = stats.hedges_issued;
  report.hedge_wins = stats.hedge_wins;
  if (sources.has_fleet()) {
    const ReplicaFleet& fleet = sources.fleet();
    for (PredicateId i = 0; i < m; ++i) {
      if (!fleet.configured(i)) continue;
      for (size_t r = 0; r < fleet.num_replicas(i); ++r) {
        const ReplicaRuntime& rt = fleet.runtime(i, r);
        ReplicaCost row;
        row.predicate = PredicateLabel(sources, i);
        row.replica = fleet.replica_name(i, r);
        row.served = rt.served;
        row.failovers = rt.failovers;
        row.breaker_trips = rt.breaker_trips;
        row.hedges_issued = rt.hedges_issued;
        row.hedge_wins = rt.hedge_wins;
        row.cost = rt.cost_accrued;
        row.mean_latency = rt.mean_latency();
        row.max_latency = rt.latency_max;
        row.dead = rt.dead;
        report.replicas.push_back(std::move(row));
      }
    }
  }

  if (prediction != nullptr) {
    report.cost_audit = BuildCostAudit(*prediction, sources);
  }

  if (profiler != nullptr) {
    report.profile = profiler->Report();
  }

  if (tracer != nullptr) {
    for (const TraceEvent& e : tracer->events()) {
      if (e.kind == TraceEventKind::kCertificate) {
        report.certified = true;
        report.termination_reason = e.phase != nullptr ? e.phase : "";
        report.certified_epsilon = e.epsilon;
        continue;
      }
      if (e.kind != TraceEventKind::kIteration) continue;
      report.convergence.push_back(
          ConvergencePoint{e.cost_clock, e.threshold, e.kth_bound});
    }
    // Wall time: span of the trace buffer (phase events included).
    if (!tracer->events().empty()) {
      const uint64_t first = tracer->events().front().wall_us;
      const uint64_t last = tracer->events().back().wall_us;
      report.wall_ms = static_cast<double>(last - first) / 1000.0;
    }
  }
  return report;
}

void RecordRunMetrics(MetricsRegistry* registry, const RunReport& report) {
  NC_CHECK(registry != nullptr);
  const std::string& algorithm = report.algorithm;
  // The zeros a run leaves add no series.
  const auto add = [registry](const char* name, const LabelSet& labels,
                              double value) {
    if (value != 0.0) registry->counter(name, labels).Increment(value);
  };
  const auto observe = [registry, &algorithm](
                           const char* name, const std::vector<double>& bounds,
                           double value) {
    registry->histogram(name, bounds, {{"algorithm", algorithm}})
        .Observe(value);
  };
  const LabelSet run{{"algorithm", algorithm}};

  for (const PredicateCost& row : report.predicates) {
    const LabelSet sorted{{"algorithm", algorithm},
                          {"predicate", row.name},
                          {"type", "sorted"}};
    const LabelSet random{{"algorithm", algorithm},
                          {"predicate", row.name},
                          {"type", "random"}};
    add("nc_accesses_total", sorted, row.sorted_accesses);
    add("nc_accesses_total", random, row.random_accesses);
    add("nc_access_cost_total", sorted, row.sorted_cost);
    add("nc_access_cost_total", random, row.random_cost);
    add("nc_access_retries_total",
        {{"algorithm", algorithm}, {"predicate", row.name}},
        row.retried_attempts);
  }
  const auto fault = [&](const char* kind, size_t count) {
    add("nc_access_faults_total", {{"algorithm", algorithm}, {"kind", kind}},
        count);
  };
  fault("transient", report.transient_failures);
  fault("timeout", report.timeout_failures);
  fault("abandoned", report.abandoned_accesses);
  fault("source_down", report.source_deaths);
  add("nc_duplicate_random_total", run, report.duplicate_random);
  add("nc_breaker_trips_total", run, report.breaker_trips);
  add("nc_breaker_fast_failures_total", run, report.breaker_fast_failures);
  add("nc_budget_refusals_total", run, report.budget_refusals);

  // Replica rows come in predicate order, one block per fleet predicate.
  size_t r = 0;
  for (const PredicateCost& row : report.predicates) {
    size_t hedges = 0;
    size_t hedge_wins = 0;
    for (; r < report.replicas.size() &&
           report.replicas[r].predicate == row.name;
         ++r) {
      const ReplicaCost& replica = report.replicas[r];
      const LabelSet labels{{"algorithm", algorithm},
                            {"predicate", row.name},
                            {"replica", replica.replica}};
      add("nc_replica_accesses_total", labels, replica.served);
      add("nc_replica_cost_total", labels, replica.cost);
      add("nc_replica_failovers_total", labels, replica.failovers);
      hedges += replica.hedges_issued;
      hedge_wins += replica.hedge_wins;
    }
    // One win-rate observation per predicate per run: the histogram
    // accumulates the distribution across runs and predicates.
    if (hedges != 0) {
      observe("nc_hedge_win_rate", {0.1, 0.25, 0.5, 0.75, 0.9, 1.0},
              static_cast<double>(hedge_wins) / static_cast<double>(hedges));
    }
    for (const double sample : row.completion_latencies) {
      observe("nc_replica_completion_latency",
              {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}, sample);
    }
  }
  add("nc_hedges_issued_total", run, report.hedges_issued);
  add("nc_hedge_wins_total", run, report.hedge_wins);

  const CostAudit& audit = report.cost_audit;
  if (audit.valid) {
    const std::vector<double> bounds{0.05, 0.1, 0.25, 0.5, 1.0};
    for (const PredicateAudit& row : audit.predicates) {
      const LabelSet labels{{"algorithm", algorithm},
                            {"predicate", row.name}};
      registry->counter("nc_cost_predicted_total", labels)
          .Increment(row.predicted_cost);
      registry->counter("nc_cost_actual_total", labels)
          .Increment(row.actual_cost);
      observe("nc_cost_audit_relative_error", bounds, row.cost_relative_error);
    }
    observe("nc_cost_audit_relative_error", bounds,
            audit.total_relative_error);
  }

  for (const ProfileReport::FlatRow& row : report.profile.flat) {
    const LabelSet labels{{"center", CostCenterName(row.center)}};
    registry->counter("nc_profile_count_total", labels).Increment(row.count);
    registry->counter("nc_profile_total_ns_total", labels)
        .Increment(row.total_ns);
    registry->counter("nc_profile_self_ns_total", labels)
        .Increment(row.self_ns);
    if (report.profile.alloc_accounting) {
      registry->counter("nc_profile_alloc_total", labels)
          .Increment(row.alloc_count);
      registry->counter("nc_profile_alloc_bytes_total", labels)
          .Increment(row.alloc_bytes);
    }
  }
}

std::string RunReport::ToText() const {
  std::ostringstream os;
  if (!algorithm.empty()) {
    os << algorithm;
    if (k > 0) os << " top-" << k;
    os << ": ";
  }
  os << "accesses: " << total_sorted << " sorted, " << total_random
     << " random, cost " << FormatCost(total_cost) << "\n";
  for (const PredicateCost& row : predicates) {
    os << "  " << row.name << ": sa " << row.sorted_accesses << " (cost "
       << FormatCost(row.sorted_cost) << "), ra " << row.random_accesses
       << " (cost " << FormatCost(row.random_cost) << ")";
    if (row.retried_attempts != 0) {
      os << ", " << row.retried_attempts << " retried";
    }
    if (row.source_down) os << ", source DOWN";
    os << "\n";
  }
  if (duplicate_random != 0) {
    os << "  duplicate random probes: " << duplicate_random << "\n";
  }
  const size_t failures = transient_failures + timeout_failures;
  if (failures != 0 || retried_attempts != 0 || abandoned_accesses != 0 ||
      source_deaths != 0) {
    os << "faults: " << transient_failures << " transient, "
       << timeout_failures << " timeouts; " << retried_attempts
       << " retried, " << abandoned_accesses << " abandoned\n";
  }
  if (breaker_trips != 0 || breaker_fast_failures != 0 ||
      budget_refusals != 0) {
    os << "resilience: " << breaker_trips << " breaker trips, "
       << breaker_fast_failures << " fast-failed, " << budget_refusals
       << " budget-refused\n";
  }
  if (cache_sorted_hits != 0 || cache_random_hits != 0) {
    os << "cache: " << cache_sorted_hits << " sorted + " << cache_random_hits
       << " random hits (" << cache_inflight_merges
       << " in-flight merges), hit cost " << FormatCost(cache_hit_cost)
       << "\n";
  }
  if (!replicas.empty()) {
    os << "replicas: " << replica_failovers << " failovers, "
       << hedges_issued << " hedges (" << hedge_wins << " won)\n";
    for (const ReplicaCost& row : replicas) {
      os << "  " << row.predicate << "/" << row.replica << ": served "
         << row.served << ", cost " << FormatCost(row.cost);
      if (row.served != 0) {
        os << ", latency mean " << FormatCost(row.mean_latency) << " max "
           << FormatCost(row.max_latency);
      }
      if (row.failovers != 0) os << ", " << row.failovers << " failovers";
      if (row.breaker_trips != 0) {
        os << ", " << row.breaker_trips << " trips";
      }
      if (row.hedges_issued != 0) {
        os << ", hedged " << row.hedges_issued << " (" << row.hedge_wins
           << " won)";
      }
      if (row.dead) os << ", DEAD";
      os << "\n";
    }
  }
  if (certified) {
    os << "certified: " << termination_reason << ", epsilon ";
    if (std::isfinite(certified_epsilon)) {
      os << FormatCost(certified_epsilon);
    } else {
      os << "unbounded";
    }
    os << "\n";
  }
  if (source_deaths != 0) {
    os << "deaths:";
    for (const PredicateCost& row : predicates) {
      if (row.source_down) os << " " << row.name;
    }
    os << " (down for the rest of the run)\n";
  }
  if (cost_audit.valid) {
    os << "cost audit: predicted " << FormatCost(cost_audit.predicted_total)
       << " vs actual " << FormatCost(cost_audit.actual_total) << " (err "
       << FormatCost(cost_audit.total_error) << ", "
       << FormatCost(cost_audit.total_relative_error * 100.0) << "%)\n";
    for (const PredicateAudit& row : cost_audit.predicates) {
      os << "  " << row.name << ": sa " << FormatCost(row.predicted_sorted)
         << "/" << FormatCost(row.actual_sorted) << ", ra "
         << FormatCost(row.predicted_random) << "/"
         << FormatCost(row.actual_random) << ", cost "
         << FormatCost(row.predicted_cost) << "/"
         << FormatCost(row.actual_cost) << " ("
         << FormatCost(row.cost_relative_error * 100.0) << "%)\n";
    }
  }
  if (!convergence.empty()) {
    const ConvergencePoint& last = convergence.back();
    os << "convergence: " << convergence.size()
       << " iterations; final threshold " << FormatCost(last.threshold)
       << ", k-th bound " << FormatCost(last.kth_bound) << " at cost "
       << FormatCost(last.cost) << "\n";
  }
  if (!profile.empty()) {
    os << "profile:\n" << profile.ToText();
  }
  if (wall_ms > 0.0) {
    os << "wall: " << FormatCost(wall_ms) << " ms\n";
  }
  return os.str();
}

std::string RunReport::ToJson() const {
  std::ostringstream os;
  JsonWriter w(&os);
  w.BeginObject();
  if (!algorithm.empty()) w.Key("algorithm").String(algorithm);
  if (k > 0) w.Key("k").UInt(k);
  w.Key("total_cost").Number(total_cost);
  w.Key("total_sorted").UInt(total_sorted);
  w.Key("total_random").UInt(total_random);
  if (duplicate_random != 0) {
    w.Key("duplicate_random").UInt(duplicate_random);
  }
  w.Key("predicates").BeginArray();
  for (const PredicateCost& row : predicates) {
    w.BeginObject();
    w.Key("name").String(row.name);
    w.Key("sorted_accesses").UInt(row.sorted_accesses);
    w.Key("random_accesses").UInt(row.random_accesses);
    w.Key("sorted_cost").Number(row.sorted_cost);
    w.Key("random_cost").Number(row.random_cost);
    if (row.retried_attempts != 0) {
      w.Key("retried_attempts").UInt(row.retried_attempts);
    }
    if (row.source_down) w.Key("source_down").Bool(true);
    w.EndObject();
  }
  w.EndArray();
  w.Key("faults").BeginObject();
  w.Key("retried_attempts").UInt(retried_attempts);
  w.Key("transient").UInt(transient_failures);
  w.Key("timeouts").UInt(timeout_failures);
  w.Key("abandoned").UInt(abandoned_accesses);
  w.Key("source_deaths").UInt(source_deaths);
  w.EndObject();
  if (breaker_trips != 0 || breaker_fast_failures != 0 ||
      budget_refusals != 0) {
    w.Key("resilience").BeginObject();
    w.Key("breaker_trips").UInt(breaker_trips);
    w.Key("breaker_fast_failures").UInt(breaker_fast_failures);
    w.Key("budget_refusals").UInt(budget_refusals);
    w.EndObject();
  }
  if (cache_sorted_hits != 0 || cache_random_hits != 0) {
    w.Key("cache").BeginObject();
    w.Key("sorted_hits").UInt(cache_sorted_hits);
    w.Key("random_hits").UInt(cache_random_hits);
    w.Key("inflight_merges").UInt(cache_inflight_merges);
    w.Key("hit_cost").Number(cache_hit_cost);
    w.EndObject();
  }
  if (!replicas.empty()) {
    w.Key("replica_fleet").BeginObject();
    w.Key("failovers").UInt(replica_failovers);
    w.Key("hedges_issued").UInt(hedges_issued);
    w.Key("hedge_wins").UInt(hedge_wins);
    w.Key("replicas").BeginArray();
    for (const ReplicaCost& row : replicas) {
      w.BeginObject();
      w.Key("predicate").String(row.predicate);
      w.Key("replica").String(row.replica);
      w.Key("served").UInt(row.served);
      w.Key("cost").Number(row.cost);
      if (row.served != 0) {
        w.Key("mean_latency").Number(row.mean_latency);
        w.Key("max_latency").Number(row.max_latency);
      }
      if (row.failovers != 0) w.Key("failovers").UInt(row.failovers);
      if (row.breaker_trips != 0) {
        w.Key("breaker_trips").UInt(row.breaker_trips);
      }
      if (row.hedges_issued != 0) {
        w.Key("hedges_issued").UInt(row.hedges_issued);
        w.Key("hedge_wins").UInt(row.hedge_wins);
      }
      if (row.dead) w.Key("dead").Bool(true);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  if (certified) {
    w.Key("certificate").BeginObject();
    w.Key("reason").String(termination_reason);
    // JsonWriter renders non-finite numbers as null.
    w.Key("epsilon").Number(certified_epsilon);
    w.EndObject();
  }
  if (cost_audit.valid) {
    w.Key("cost_audit").BeginObject();
    w.Key("predicted_total").Number(cost_audit.predicted_total);
    w.Key("actual_total").Number(cost_audit.actual_total);
    w.Key("total_error").Number(cost_audit.total_error);
    w.Key("total_relative_error").Number(cost_audit.total_relative_error);
    w.Key("predicates").BeginArray();
    for (const PredicateAudit& row : cost_audit.predicates) {
      w.BeginObject();
      w.Key("name").String(row.name);
      w.Key("predicted_sorted").Number(row.predicted_sorted);
      w.Key("actual_sorted").Number(row.actual_sorted);
      w.Key("predicted_random").Number(row.predicted_random);
      w.Key("actual_random").Number(row.actual_random);
      w.Key("predicted_cost").Number(row.predicted_cost);
      w.Key("actual_cost").Number(row.actual_cost);
      w.Key("cost_error").Number(row.cost_error);
      w.Key("cost_relative_error").Number(row.cost_relative_error);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  if (!convergence.empty()) {
    w.Key("convergence").BeginArray();
    for (const ConvergencePoint& p : convergence) {
      w.BeginObject();
      w.Key("cost").Number(p.cost);
      w.Key("threshold").Number(p.threshold);
      w.Key("kth_bound").Number(p.kth_bound);
      w.EndObject();
    }
    w.EndArray();
  }
  if (!profile.empty()) {
    // The profile section is itself a JSON object; splice it in raw.
    w.Key("profile").Raw(profile.ToJson());
  }
  if (wall_ms > 0.0) w.Key("wall_ms").Number(wall_ms);
  w.EndObject();
  return os.str();
}

}  // namespace nc::obs
