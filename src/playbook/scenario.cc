#include "playbook/scenario.h"

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/numeric.h"
#include "common/record_codec.h"

namespace nc::playbook {
namespace {

bool ValidNameToken(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
              c == '-';
    if (!ok) return false;
  }
  return true;
}

bool ZeroProfile(const FaultProfile& p) {
  return p.transient_rate == 0.0 && p.timeout_rate == 0.0 &&
         p.death_rate == 0.0 && p.die_after_attempts == 0;
}

}  // namespace

const char* ScoringKindName(ScoringKind kind) {
  switch (kind) {
    case ScoringKind::kMin:
      return "min";
    case ScoringKind::kMax:
      return "max";
    case ScoringKind::kAverage:
      return "avg";
    case ScoringKind::kProduct:
      return "product";
    case ScoringKind::kGeometricMean:
      return "geomean";
  }
  return "?";
}

bool ScoringKindFromName(std::string_view name, ScoringKind* out) {
  for (ScoringKind kind :
       {ScoringKind::kMin, ScoringKind::kMax, ScoringKind::kAverage,
        ScoringKind::kProduct, ScoringKind::kGeometricMean}) {
    if (name == ScoringKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool ScoreDistributionFromName(std::string_view name, ScoreDistribution* out) {
  for (ScoreDistribution dist :
       {ScoreDistribution::kUniform, ScoreDistribution::kGaussian,
        ScoreDistribution::kZipf}) {
    if (name == ScoreDistributionName(dist)) {
      *out = dist;
      return true;
    }
  }
  return false;
}

bool RoutingPolicyFromName(std::string_view name, RoutingPolicy* out) {
  for (RoutingPolicy policy :
       {RoutingPolicy::kPrimaryOnly, RoutingPolicy::kRoundRobin,
        RoutingPolicy::kLeastLatency, RoutingPolicy::kCheapestHealthy}) {
    if (name == RoutingPolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

Status ReplicaSpec::Validate() const {
  if (!std::isfinite(cost_multiplier) || cost_multiplier <= 0.0) {
    return Status::InvalidArgument("replica cost_multiplier must be > 0");
  }
  NC_RETURN_IF_ERROR(latency.Validate());
  NC_RETURN_IF_ERROR(faults.Validate());
  return Status::OK();
}

Status ScenarioSpec::Validate() const {
  if (!ValidNameToken(name)) {
    return Status::InvalidArgument(
        "scenario name must be one token of [A-Za-z0-9_.:-]+");
  }
  if (num_objects == 0) {
    return Status::InvalidArgument("num_objects must be > 0");
  }
  if (num_predicates == 0) {
    return Status::InvalidArgument("num_predicates must be > 0");
  }
  if (!(correlation >= -1.0 && correlation <= 1.0)) {
    return Status::InvalidArgument("correlation must be in [-1, 1]");
  }
  if (!std::isfinite(gaussian_mean) || !std::isfinite(gaussian_stddev) ||
      gaussian_stddev <= 0.0) {
    return Status::InvalidArgument("gaussian parameters malformed");
  }
  if (!std::isfinite(zipf_skew) || zipf_skew <= 0.0) {
    return Status::InvalidArgument("zipf_skew must be finite and > 0");
  }
  if (k == 0 || k > num_objects) {
    return Status::InvalidArgument("k must be in [1, num_objects]");
  }
  if (sorted_cost.size() != num_predicates ||
      random_cost.size() != num_predicates) {
    return Status::InvalidArgument(
        "cost vectors must cover every predicate");
  }
  CostModel cost = MakeCostModel();
  NC_RETURN_IF_ERROR(cost.Validate());
  NC_RETURN_IF_ERROR(fault.Validate());
  for (const ReplicaSpec& replica : replicas) {
    NC_RETURN_IF_ERROR(replica.Validate());
  }
  if (has_fleet()) {
    if (!std::isfinite(hedge_delay) || hedge_delay < 0.0) {
      return Status::InvalidArgument("hedge_delay must be finite and >= 0");
    }
  } else if (hedge_delay != 0.0 || adaptive_hedge ||
             routing != RoutingPolicy::kPrimaryOnly) {
    return Status::InvalidArgument(
        "routing/hedge settings require a replica topology");
  }
  NC_RETURN_IF_ERROR(budget.Validate(num_predicates));
  if (srg_depths.empty() != srg_schedule.empty()) {
    return Status::InvalidArgument(
        "srg depths and schedule must be set together");
  }
  if (!srg_depths.empty()) {
    NC_RETURN_IF_ERROR(MakeSRGConfig().Validate(num_predicates));
  }
  if (kill_at_access > 0 && workers > 0) {
    return Status::InvalidArgument(
        "kill_at_access requires engine mode (workers == 0)");
  }
  // Adaptive hedge timing reads the telemetry hub, whose mid-run state a
  // checkpoint deliberately excludes (checkpoints re-warm from the live
  // hub), so a killed adaptive run cannot promise bit-identical resume.
  if (kill_at_access > 0 && adaptive_hedge) {
    return Status::InvalidArgument(
        "kill_at_access cannot be combined with adaptive hedging");
  }
  // Cache state is shared across queries and deliberately excluded from
  // checkpoints, so a killed cached run cannot promise bit-identical
  // resumed accrued cost: the resumed run's hits would depend on what
  // else touched the cache meanwhile.
  if (kill_at_access > 0 && cache_enabled) {
    return Status::InvalidArgument(
        "kill_at_access cannot be combined with the access cache");
  }
  if (!std::isfinite(cache_hit_cost) || cache_hit_cost < 0.0) {
    return Status::InvalidArgument("cache_hit_cost must be finite and >= 0");
  }
  if (!cache_enabled && cache_hit_cost != 0.0) {
    return Status::InvalidArgument(
        "cache_hit_cost requires cache_enabled (the canonical document "
        "drops it otherwise)");
  }
  return Status::OK();
}

bool ScenarioSpec::fault_free() const {
  if (!ZeroProfile(fault)) return false;
  for (const ReplicaSpec& replica : replicas) {
    if (!ZeroProfile(replica.faults)) return false;
  }
  return true;
}

Dataset ScenarioSpec::MakeDataset() const {
  GeneratorOptions options;
  options.num_objects = num_objects;
  options.num_predicates = num_predicates;
  options.distribution = distribution;
  options.correlation = correlation;
  options.gaussian_mean = gaussian_mean;
  options.gaussian_stddev = gaussian_stddev;
  options.zipf_skew = zipf_skew;
  options.seed = data_seed;
  return GenerateDataset(options);
}

CostModel ScenarioSpec::MakeCostModel() const {
  CostModel cost(sorted_cost, random_cost);
  cost.sorted_page_size = sorted_page_size;
  cost.attribute_groups = attribute_groups;
  return cost;
}

std::unique_ptr<ScoringFunction> ScenarioSpec::MakeScoring() const {
  return MakeScoringFunction(scoring, num_predicates);
}

SRGConfig ScenarioSpec::MakeSRGConfig() const {
  if (srg_depths.empty()) return SRGConfig::Default(num_predicates);
  SRGConfig config;
  config.depths = srg_depths;
  config.schedule = srg_schedule;
  return config;
}

Status ScenarioSpec::ConfigureFleet(ReplicaFleet* fleet) const {
  if (!has_fleet()) return Status::OK();
  ReplicaSetConfig config;
  for (const ReplicaSpec& replica : replicas) {
    ReplicaEndpoint endpoint;
    endpoint.cost_multiplier = replica.cost_multiplier;
    endpoint.latency = replica.latency;
    endpoint.faults = replica.faults;
    config.replicas.push_back(std::move(endpoint));
  }
  config.routing = routing;
  config.hedge.delay = hedge_delay;
  config.hedge.adaptive = adaptive_hedge;
  for (PredicateId i = 0; i < num_predicates; ++i) {
    NC_RETURN_IF_ERROR(fleet->Configure(i, config));
  }
  return Status::OK();
}

std::string ScenarioSpec::Signature() const {
  std::string out = name;
  out += " n=" + std::to_string(num_objects);
  out += " m=" + std::to_string(num_predicates);
  out += " k=" + std::to_string(k);
  out += " F=";
  out += ScoringKindName(scoring);
  out += " dist=";
  out += ScoreDistributionName(distribution);
  out += " cost=" + MakeCostModel().ToString();
  if (!ZeroProfile(fault)) {
    out += " fault=(t=" + FormatDouble(fault.transient_rate) +
           ",o=" + FormatDouble(fault.timeout_rate) +
           ",d=" + FormatDouble(fault.death_rate) +
           ",die@" + std::to_string(fault.die_after_attempts) + ")";
  }
  if (has_fleet()) {
    out += " replicas=" + std::to_string(replicas.size());
    out += "/";
    out += RoutingPolicyName(routing);
    if (adaptive_hedge) {
      out += "/hedge=adaptive";
    } else if (hedge_delay > 0.0) {
      out += "/hedge=" + FormatDouble(hedge_delay);
    }
  }
  if (!budget.unlimited()) out += " budget=[" + budget.ToString() + "]";
  if (workers > 0) out += " workers=" + std::to_string(workers);
  if (kill_at_access > 0) {
    out += " kill@" + std::to_string(kill_at_access);
  }
  if (cache_enabled) {
    out += " cache";
    if (cache_hit_cost > 0.0) out += "=" + FormatDouble(cache_hit_cost);
  }
  return out;
}

std::string ScenarioSpec::Serialize() const {
  // Records in sorted key order; optional records (groups/pages/quota/
  // replica/srg) are omitted when empty so the canonical form is minimal
  // and parse(serialize(s)) == s holds byte for byte.
  RecordWriter w("ncplay", 1);
  w.Key("budget").Hex(budget.max_cost).Hex(budget.deadline);
  if (cache_enabled) w.Key("cache").UInt(1).Hex(cache_hit_cost);
  w.Key("cost").UInt(num_predicates);
  for (size_t i = 0; i < num_predicates; ++i) {
    w.Hex(sorted_cost[i]).Hex(random_cost[i]);
  }
  w.Key("data").UInt(num_objects).UInt(num_predicates);
  w.Word(ScoreDistributionName(distribution)).Hex(correlation);
  w.UInt(data_seed);
  w.Key("dist").Hex(gaussian_mean).Hex(gaussian_stddev).Hex(zipf_skew);
  w.Key("fault").Hex(fault.transient_rate).Hex(fault.timeout_rate);
  w.Hex(fault.death_rate).UInt(fault.die_after_attempts);
  if (!attribute_groups.empty()) {
    w.Key("groups").UInt(attribute_groups.size());
    for (int g : attribute_groups) w.UInt(static_cast<uint64_t>(g));
  }
  w.Key("hedge").Hex(hedge_delay).UInt(adaptive_hedge ? 1 : 0);
  w.Key("kill").UInt(kill_at_access);
  w.Key("name").Word(name);
  if (!sorted_page_size.empty()) {
    w.Key("pages").UInt(sorted_page_size.size());
    for (size_t b : sorted_page_size) w.UInt(b);
  }
  w.Key("query").Word(ScoringKindName(scoring)).UInt(k);
  if (!budget.predicate_quota.empty()) {
    w.Key("quota").UInt(budget.predicate_quota.size());
    for (size_t q : budget.predicate_quota) w.UInt(q);
  }
  for (size_t r = 0; r < replicas.size(); ++r) {
    const ReplicaSpec& replica = replicas[r];
    w.Key("replica").UInt(r).Hex(replica.cost_multiplier);
    w.Hex(replica.latency.multiplier).Hex(replica.latency.jitter);
    w.Hex(replica.latency.tail_probability);
    w.Hex(replica.latency.tail_multiplier);
    w.Hex(replica.faults.transient_rate).Hex(replica.faults.timeout_rate);
    w.Hex(replica.faults.death_rate);
    w.UInt(replica.faults.die_after_attempts);
  }
  w.Key("routing").Word(RoutingPolicyName(routing));
  w.Key("seeds").UInt(fault_seed).UInt(jitter_seed).UInt(fleet_seed);
  if (!srg_depths.empty()) {
    w.Key("srg").UInt(srg_depths.size());
    for (double d : srg_depths) w.Hex(d);
    for (PredicateId i : srg_schedule) w.UInt(i);
  }
  w.Key("workers").UInt(workers);
  w.Key("end");
  return w.Finish();
}

Status ParseScenario(const std::string& text, ScenarioSpec* out) {
  // Parse into a fresh temporary; *out is only assigned after the whole
  // document, its footer, and semantic validation all succeed.
  ScenarioSpec spec;
  spec.name.clear();
  RecordReader r("ncplay", text);
  NC_RETURN_IF_ERROR(r.Header({1}));
  // Every record but "replica" appears at most once.
  std::set<std::string, std::less<>> seen;
  Record f;
  // A list length: positive and bounded, so a corrupt count cannot
  // allocate without limit.
  const auto take_arity = [&f](uint64_t* m) {
    *m = f.TakeUInt();
    return f.ok() && *m != 0 && *m <= (uint64_t{1} << 20);
  };
  bool saw_end = false;
  while (!saw_end && r.Next(&f)) {
    const std::string key(f.key());
    if (key != "replica" && !seen.insert(key).second) {
      return r.Fail("duplicate " + key);
    }
    uint64_t m = 0;
    if (key == "end") {
      saw_end = true;
    } else if (key == "budget") {
      spec.budget.max_cost = f.TakeHex();
      spec.budget.deadline = f.TakeHex();
    } else if (key == "cache") {
      spec.cache_enabled = f.TakeFlag();
      spec.cache_hit_cost = f.TakeHex();
    } else if (key == "cost") {
      if (!take_arity(&m)) return r.Fail("malformed cost arity");
      spec.sorted_cost.assign(m, 0.0);
      spec.random_cost.assign(m, 0.0);
      for (uint64_t i = 0; i < m; ++i) {
        spec.sorted_cost[i] = f.TakeHex();
        spec.random_cost[i] = f.TakeHex();
      }
    } else if (key == "data") {
      spec.num_objects = f.TakeUInt();
      spec.num_predicates = f.TakeUInt();
      if (!ScoreDistributionFromName(f.Take(), &spec.distribution)) {
        return r.Fail("unknown score distribution");
      }
      spec.correlation = f.TakeHex();
      spec.data_seed = f.TakeUInt();
    } else if (key == "dist") {
      spec.gaussian_mean = f.TakeHex();
      spec.gaussian_stddev = f.TakeHex();
      spec.zipf_skew = f.TakeHex();
    } else if (key == "fault") {
      spec.fault.transient_rate = f.TakeHex();
      spec.fault.timeout_rate = f.TakeHex();
      spec.fault.death_rate = f.TakeHex();
      spec.fault.die_after_attempts = f.TakeUInt();
    } else if (key == "groups") {
      if (!take_arity(&m)) return r.Fail("malformed groups arity");
      spec.attribute_groups.assign(m, 0);
      for (int& g : spec.attribute_groups) g = static_cast<int>(f.TakeUInt());
    } else if (key == "hedge") {
      spec.hedge_delay = f.TakeHex();
      spec.adaptive_hedge = f.TakeFlag();
    } else if (key == "kill") {
      spec.kill_at_access = f.TakeUInt();
    } else if (key == "name") {
      spec.name = std::string(f.Take());
      if (!ValidNameToken(spec.name)) return r.Fail("malformed name record");
    } else if (key == "pages") {
      if (!take_arity(&m)) return r.Fail("malformed pages arity");
      spec.sorted_page_size.assign(m, 0);
      for (size_t& b : spec.sorted_page_size) b = f.TakeUInt();
    } else if (key == "query") {
      if (!ScoringKindFromName(f.Take(), &spec.scoring)) {
        return r.Fail("unknown scoring function");
      }
      spec.k = f.TakeUInt();
    } else if (key == "quota") {
      if (!take_arity(&m)) return r.Fail("malformed quota arity");
      spec.budget.predicate_quota.assign(m, 0);
      for (size_t& q : spec.budget.predicate_quota) q = f.TakeUInt();
    } else if (key == "replica") {
      // Replica records must arrive in index order 0, 1, 2, ... so the
      // canonical document admits exactly one serialization.
      if (f.TakeUInt() != spec.replicas.size() || !f.ok()) {
        return r.Fail("replica records must be sequential from 0");
      }
      ReplicaSpec& replica = spec.replicas.emplace_back();
      replica.cost_multiplier = f.TakeHex();
      replica.latency.multiplier = f.TakeHex();
      replica.latency.jitter = f.TakeHex();
      replica.latency.tail_probability = f.TakeHex();
      replica.latency.tail_multiplier = f.TakeHex();
      replica.faults.transient_rate = f.TakeHex();
      replica.faults.timeout_rate = f.TakeHex();
      replica.faults.death_rate = f.TakeHex();
      replica.faults.die_after_attempts = f.TakeUInt();
    } else if (key == "routing") {
      if (!RoutingPolicyFromName(f.Take(), &spec.routing)) {
        return r.Fail("unknown routing policy");
      }
    } else if (key == "seeds") {
      spec.fault_seed = f.TakeUInt();
      spec.jitter_seed = f.TakeUInt();
      spec.fleet_seed = f.TakeUInt();
    } else if (key == "srg") {
      if (!take_arity(&m)) return r.Fail("malformed srg arity");
      spec.srg_depths.assign(m, 0.0);
      spec.srg_schedule.assign(m, 0);
      for (double& d : spec.srg_depths) d = f.TakeHex();
      for (PredicateId& i : spec.srg_schedule) {
        i = static_cast<PredicateId>(f.TakeUInt());
      }
    } else if (key == "workers") {
      spec.workers = f.TakeUInt();
    } else {
      return r.Fail("unknown record \"" + key + "\"");
    }
    if (!f.Done()) return r.Fail("malformed " + key + " record");
  }
  if (!saw_end) return r.Fail("missing \"end\"");
  NC_RETURN_IF_ERROR(r.End());
  for (const char* required :
       {"budget", "cost", "data", "dist", "fault", "hedge", "kill", "name",
        "query", "routing", "seeds", "workers"}) {
    if (seen.count(required) == 0) {
      return r.Fail("missing record \"" + std::string(required) + "\"");
    }
  }

  NC_RETURN_IF_ERROR(spec.Validate());
  *out = std::move(spec);
  return Status::OK();
}

}  // namespace nc::playbook
