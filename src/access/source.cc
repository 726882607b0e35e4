#include "access/source.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "cache/cache.h"
#include "common/check.h"
#include "common/numeric.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace nc {

namespace {

// Builds the status of a refused or failed access, "<prefix>p<i><suffix>",
// so an access that is served never formats a message.
Status Refuse(StatusCode code, std::string_view prefix, PredicateId i,
              std::string_view suffix) {
  std::string message(prefix);
  message += 'p';
  message += std::to_string(i);
  message += suffix;
  return Status(code, std::move(message));
}

}  // namespace

size_t AccessStats::TotalSorted() const {
  size_t total = 0;
  for (size_t c : sorted_count) total += c;
  return total;
}

size_t AccessStats::TotalRandom() const {
  size_t total = 0;
  for (size_t c : random_count) total += c;
  return total;
}

size_t AccessStats::TotalRetried() const {
  size_t total = 0;
  for (size_t c : retried_attempts) total += c;
  return total;
}

size_t AccessStats::TotalBreakerTrips() const {
  size_t total = 0;
  for (size_t c : breaker_trips) total += c;
  return total;
}

double AccessStats::TotalCost(const CostModel& model) const {
  NC_CHECK(model.num_predicates() == sorted_count.size());
  double total = 0.0;
  for (size_t i = 0; i < sorted_count.size(); ++i) {
    if (sorted_count[i] > 0) {
      // Pages: ns entries consume ceil(ns / b) charged requests.
      const size_t pages =
          (sorted_count[i] + model.page_size(static_cast<PredicateId>(i)) -
           1) /
          model.page_size(static_cast<PredicateId>(i));
      total += static_cast<double>(pages) * model.sorted_cost[i];
    }
    if (random_count[i] > 0) {
      total += static_cast<double>(random_count[i]) * model.random_cost[i];
    }
  }
  return total;
}

SourceSet::SourceSet(const Dataset* data, CostModel cost)
    : SourceSet(nullptr, std::make_unique<DatasetScoreProvider>(data), data,
                std::move(cost)) {}

SourceSet::SourceSet(ScoreProvider* provider, CostModel cost)
    : SourceSet(provider, nullptr, nullptr, std::move(cost)) {}

SourceSet::SourceSet(ScoreProvider* provider,
                     std::unique_ptr<DatasetScoreProvider> owned,
                     const Dataset* data, CostModel cost)
    : provider_(provider != nullptr ? provider : owned.get()),
      owned_provider_(std::move(owned)),
      data_(data),
      cost_(std::move(cost)),
      initial_cost_(cost_),
      latency_rng_(0),
      retry_rng_(0) {
  NC_CHECK(provider_ != nullptr);
  NC_CHECK(cost_.Validate().ok());
  NC_CHECK(cost_.num_predicates() == provider_->num_predicates());
  NC_CHECK(provider_->num_predicates() <= 64);
  source_down_.assign(provider_->num_predicates(), false);
  ClearRunState();
}

// --- The one access path --------------------------------------------------
// TrySortedAccess / TryRandomAccess: capability and budget checks, the
// cache probe, AttemptAccess (RunAttempts drives every retry, plain or per
// replica), then exactly one Book() per served access.

Status SourceSet::AttemptAccess(const Access& access, double unit_cost,
                                FleetServe* served) {
  const PredicateId i = access.predicate;
  if (fleet_ != nullptr && fleet_->configured(i)) {
    return AttemptFleetAccess(access, unit_cost, served);
  }
  if (injector_ == nullptr) return Status::OK();
  // Circuit breaker: an open breaker fast-fails until its cooldown
  // elapses (nothing billed, no injector draw); after that the access
  // becomes a half-open probe with a single attempt.
  BreakerState& state = breaker_state_[i];
  const bool probing = breaker_.enabled() && state.open;
  if (probing && elapsed_time() < state.open_until) {
    ++stats_.breaker_fast_failures;
    return Refuse(StatusCode::kUnavailable, "", i, ": circuit breaker open");
  }
  const size_t attempt_cap = probing ? size_t{1} : retry_policy_.max_attempts;
  bool died = false;
  if (RunAttempts(access, unit_cost, injector_, i, attempt_cap,
                  /*last=*/true, /*billed=*/nullptr, &died)) {
    if (breaker_.enabled()) {
      state.consecutive_failures = 0;
      state.open = false;
    }
    return Status::OK();
  }
  if (died) {
    MarkSourceDown(i);
    return Refuse(StatusCode::kUnavailable, "source for ", i,
                  " died permanently");
  }
  ++stats_.abandoned_accesses;
  TripBreaker(i, probing, &state.consecutive_failures, &state.open,
              &state.open_until);
  return Refuse(StatusCode::kUnavailable, "", i,
                ": " + std::to_string(attempt_cap) + " attempts exhausted");
}

Status SourceSet::AttemptFleetAccess(const Access& access, double unit_cost,
                                     FleetServe* served) {
  const PredicateId i = access.predicate;
  ReplicaFleet& fleet = *fleet_;
  const std::vector<size_t> order = fleet.RouteOrder(i, elapsed_time());
  if (order.empty()) {
    // No replica can serve: all dead (the predicate was downgraded when
    // the last one died) or every breaker open and cooling. Fast-fail
    // like a plain open breaker - nothing billed, nothing drawn.
    ++stats_.breaker_fast_failures;
    return Refuse(StatusCode::kUnavailable, "", i,
                  ": every replica unavailable");
  }
  for (size_t idx = 0; idx < order.size(); ++idx) {
    const size_t r = order[idx];
    ReplicaRuntime& rt = fleet.runtime(i, r);
    // A cooled-down open breaker admits exactly one half-open probe.
    const bool probing = rt.breaker_open;
    const bool last = idx + 1 == order.size();
    bool died = false;
    bool ok = false;
    {
      // Re-routed attempts (idx > 0) are failover work: the time the
      // fleet spends recovering from a replica that already failed.
      obs::ProfileScope failover_scope(idx > 0 ? profiler_ : nullptr,
                                       obs::CostCenter::kReplicaFailover);
      // Every request to this replica - retries included - is priced at
      // its own multiplier. Replica injectors key every draw under
      // predicate 0 (see ReplicaFleet::NextFault).
      ok = RunAttempts(access,
                       unit_cost * fleet.config(i).replicas[r].cost_multiplier,
                       &fleet.injector(i, r), /*key=*/0,
                       probing ? size_t{1} : retry_policy_.max_attempts, last,
                       &rt.cost_accrued, &died);
      if (died) {
        rt.dead = true;
        ReplicaEvent("replica_down", i, r, r);
      }
    }
    if (ok) {
      rt.breaker_open = false;
      rt.breaker_consecutive = 0;
      CompleteFleetRequest(access, unit_cost, r, order, probing, served);
      return Status::OK();
    }
    // A live replica that failed trips its breaker (a failed probe
    // reopens immediately); either way the access fails over.
    if (!died && TripBreaker(i, probing, &rt.breaker_consecutive,
                             &rt.breaker_open, &rt.breaker_open_until)) {
      ++rt.breaker_trips;
    }
    if (!last) {
      ++rt.failovers;
      ++stats_.replica_failovers;
      ReplicaEvent("replica_failover", i, r, order[idx + 1]);
    }
  }
  ++stats_.abandoned_accesses;
  if (fleet.all_dead(i)) MarkSourceDown(i);
  return Refuse(StatusCode::kUnavailable, "", i, ": all replicas exhausted");
}

bool SourceSet::RunAttempts(const Access& access, double unit,
                            FaultInjector* injector, PredicateId key,
                            size_t attempt_cap, bool last, double* billed,
                            bool* died) {
  const PredicateId i = access.predicate;
  std::vector<double>& cost_accrued = access.type == AccessType::kSorted
                                          ? stats_.sorted_cost_accrued
                                          : stats_.random_cost_accrued;
  for (size_t attempt = 1;; ++attempt) {
    const FaultKind fault = injector->NextOutcome(key);
    if (fault == FaultKind::kNone) return true;
    if (fault == FaultKind::kSourceDown) {
      RecordAttempt(access, fault, /*abandoned=*/false, 0.0);
      *died = true;
      return false;
    }
    // The failed request was sent and billed; a timeout also held the
    // line for the full deadline.
    const double charged = retry_policy_.retry_cost_factor * unit;
    accrued_cost_ += charged;
    cost_accrued[i] += charged;
    if (billed != nullptr) *billed += charged;
    if (fault == FaultKind::kTransient) {
      ++stats_.transient_failures;
    } else {
      ++stats_.timeout_failures;
      const double served = retry_policy_.timeout_latency_factor * unit;
      last_access_penalty_ += served;
      total_penalty_ += served;
    }
    // The access is abandoned only when the last route gives up; earlier
    // exhaustions fail over instead.
    const bool giving_up = attempt >= attempt_cap;
    RecordAttempt(access, fault, giving_up && last, charged);
    if (giving_up) return false;
    ++stats_.retried_attempts[i];
    const double backoff = retry_policy_.BackoffDelay(attempt, &retry_rng_);
    last_access_penalty_ += backoff;
    total_penalty_ += backoff;
  }
}

bool SourceSet::TripBreaker(PredicateId i, bool probing, size_t* consecutive,
                            bool* open, double* open_until) {
  if (!breaker_.enabled()) return false;
  if (!probing && ++*consecutive < breaker_.failure_threshold) return false;
  *open = true;
  *open_until = elapsed_time() + breaker_.cooldown;
  *consecutive = 0;
  ++stats_.breaker_trips[i];
  return true;
}

void SourceSet::CompleteFleetRequest(const Access& access, double unit_cost,
                                     size_t routed,
                                     const std::vector<size_t>& order,
                                     bool probed, FleetServe* served) {
  const PredicateId i = access.predicate;
  ReplicaFleet& fleet = *fleet_;
  const ReplicaSetConfig& cfg = fleet.config(i);
  served->routed = &fleet.runtime(i, routed);
  served->cost_multiplier = cfg.replicas[routed].cost_multiplier;
  if (probed) ReplicaEvent("replica_restored", i, routed, routed);
  if (access.type == AccessType::kSorted &&
      positions_[i] % cost_.page_size(i) != 0) {
    // Mid-page sorted entry: already fetched with its page, no new
    // request, no latency.
    ++served->routed->served;
    return;
  }
  const double primary_latency = fleet.DrawLatency(i, routed, unit_cost);
  if (obs::ShouldSample(hub_)) {
    hub_->ObserveReplicaService(i, routed, primary_latency);
  }
  double completion = primary_latency;
  size_t winner = routed;
  // The hedge trigger: the configured constant or, under an adaptive
  // policy with a warm hub, the routed replica's observed service p95.
  double hedge_delay = cfg.hedge.delay;
  if (cfg.hedge.adaptive && obs::ShouldSample(hub_)) {
    const double adaptive = hub_->AdaptiveHedgeDelay(i, routed);
    if (std::isfinite(adaptive)) hedge_delay = adaptive;
  }
  if (access.type == AccessType::kSorted && cfg.hedge.enabled() && !probed &&
      hedge_delay > 0.0 && primary_latency > hedge_delay) {
    // Hedge target: the next replica in routing preference whose breaker
    // is closed (cooling and probing replicas never receive hedges).
    const auto hedge_it =
        std::find_if(order.begin(), order.end(), [&](size_t cand) {
          const ReplicaRuntime& cand_rt = fleet.runtime(i, cand);
          return cand != routed && !cand_rt.dead && !cand_rt.breaker_open;
        });
    if (hedge_it != order.end()) {
      NC_PROFILE_SCOPE(profiler_, kHedgeWait);
      const size_t hedge = *hedge_it;
      ++stats_.hedges_issued;
      ReplicaRuntime& hrt = fleet.runtime(i, hedge);
      ++hrt.hedges_issued;
      // The hedge request is sent and billed in full at the hedge
      // replica's price, win or lose: the honest Eq. 1 cost of cutting
      // the tail.
      const double hedge_charge =
          unit_cost * cfg.replicas[hedge].cost_multiplier;
      accrued_cost_ += hedge_charge;
      stats_.sorted_cost_accrued[i] += hedge_charge;
      hrt.cost_accrued += hedge_charge;
      ReplicaEvent("hedge_issued", i, routed, hedge);
      // One shot, no retries: a failed hedge just loses (a drawn death
      // still kills the replica), and never touches breaker state.
      const FaultKind fault = fleet.NextFault(i, hedge);
      if (fault == FaultKind::kTransient) ++stats_.transient_failures;
      if (fault == FaultKind::kTimeout) ++stats_.timeout_failures;
      if (fault == FaultKind::kSourceDown) {
        hrt.dead = true;
        ReplicaEvent("replica_down", i, hedge, hedge);
      }
      bool won = false;
      if (fault == FaultKind::kNone) {
        const double service = fleet.DrawLatency(i, hedge, unit_cost);
        const double hedge_completion = hedge_delay + service;
        fleet.ObserveLatency(i, hedge, service);
        if (obs::ShouldSample(hub_)) {
          hub_->ObserveReplicaService(i, hedge, service);
        }
        if (hedge_completion < completion) {
          won = true;
          completion = hedge_completion;
        }
      }
      if (won) {
        winner = hedge;
        ++stats_.hedge_wins;
        ++hrt.hedge_wins;
      }
      ReplicaEvent(won ? "hedge_won" : "hedge_lost", i, routed, hedge);
    }
  }
  // The routed replica's own service time is signal for kLeastLatency
  // routing even when a hedge beat it.
  fleet.ObserveLatency(i, routed, primary_latency);
  fleet.RecordCompletion(i, winner, completion);
  if (obs::ShouldSample(hub_)) hub_->ObserveCompletion(i, completion);
  ++fleet.runtime(i, winner).served;
  served->completion_latency = completion;
}

void SourceSet::MarkSourceDown(PredicateId i) {
  // A source dies as a unit: every predicate of its attribute group loses
  // both access types. The downgrade flows through set_cost_model so the
  // removal-only capability guard re-validates it.
  CostModel downgraded = cost_;
  bool changed = false;
  for (PredicateId j = 0; j < num_predicates(); ++j) {
    if (!cost_.same_group(i, j)) continue;
    if (downgraded.has_sorted(j) || downgraded.has_random(j)) changed = true;
    downgraded.sorted_cost[j] = kImpossibleCost;
    downgraded.random_cost[j] = kImpossibleCost;
    if (!source_down_[j]) {
      source_down_[j] = true;
      ++sources_down_;
      ++stats_.source_deaths;
    }
  }
  if (changed) NC_CHECK(set_cost_model(std::move(downgraded)).ok());
  // A death invalidates the shared cache for the whole attribute group:
  // conservative (cached scores are still exact), but a dead source's
  // entries should not keep serving other queries.
  if (access_cache_ != nullptr) {
    for (PredicateId j = 0; j < num_predicates(); ++j) {
      if (cost_.same_group(i, j)) access_cache_->InvalidatePredicate(j);
    }
  }
}

// Counting and billing run on every served access, so they stay inline;
// the trace half (RecordAttempt) is out of line behind one branch.
inline void SourceSet::Book(const Access& access, double charged) {
  const PredicateId i = access.predicate;
  if (access.type == AccessType::kSorted) {
    ++stats_.sorted_count[i];
    stats_.sorted_cost_accrued[i] += charged;
  } else {
    ++stats_.random_count[i];
    stats_.random_cost_accrued[i] += charged;
  }
  accrued_cost_ += charged;
  if (trace_enabled_ || tracer_ != nullptr) {
    RecordAttempt(access, FaultKind::kNone, /*abandoned=*/false, charged);
  }
}

inline void SourceSet::BookSourced(const Access& access, double unit,
                                   const FleetServe& served) {
  // A replica fleet prices the request at the routed replica's multiplier
  // (1 on the plain path).
  const double charged = unit * served.cost_multiplier;
  Book(access, charged);
  if (served.routed != nullptr) {
    served.routed->cost_accrued += charged;
    // Any completion latency beyond the charge is extra wall-clock wait:
    // it lands on the deadline clock, never on the cost cap.
    const double wait = served.completion_latency - charged;
    if (wait > 0.0) {
      last_access_penalty_ += wait;
      total_penalty_ += wait;
    }
  }
  if (obs::ShouldSample(hub_)) {
    hub_->ObserveAccessCost(access.predicate, access.type, charged);
  }
}

void SourceSet::BookCacheHit(const Access& access, ObjectId object,
                             bool merged) {
  // The source was already paid by whichever query materialized the
  // entry, so only the configured hit cost accrues, into the same Eq. 1
  // cells (billing conservation holds). The injector, fleet and hub are
  // untouched: no source was contacted, no fault could have been drawn.
  const double charged = access_cache_->config().hit_cost;
  Book(access, charged);
  const bool sorted = access.type == AccessType::kSorted;
  if (obs::ShouldTrace(tracer_)) {
    tracer_->RecordCacheEvent(
        sorted ? (merged ? "sorted_merge" : "sorted_hit")
               : (merged ? "random_merge" : "random_hit"),
        access.predicate, object, charged, accrued_cost_);
  }
  ++(sorted ? cache_hits_.sorted_hits : cache_hits_.random_hits);
  if (merged) ++cache_hits_.inflight_merges;
  cache_hits_.hit_cost_accrued += charged;
}

void SourceSet::RecordAttempt(const Access& access, FaultKind fault,
                              bool abandoned, double charged) {
  if (trace_enabled_) {
    attempt_trace_.push_back(AccessAttempt{access, fault, abandoned});
  }
  if (!obs::ShouldTrace(tracer_)) return;
  if (fault == FaultKind::kNone) {
    tracer_->RecordAccess(access.type, access.predicate, access.object,
                          charged, accrued_cost_);
    return;
  }
  tracer_->RecordAttempt(access.type, access.predicate, access.object,
                         fault == FaultKind::kSourceDown
                             ? obs::AccessOutcome::kSourceDown
                         : abandoned ? obs::AccessOutcome::kAbandoned
                         : fault == FaultKind::kTransient
                             ? obs::AccessOutcome::kTransient
                             : obs::AccessOutcome::kTimeout,
                         charged, accrued_cost_);
}

void SourceSet::ReplicaEvent(const char* what, PredicateId i, size_t from,
                             size_t to) {
  if (obs::ShouldTrace(tracer_)) {
    tracer_->RecordReplicaEvent(what, i, static_cast<uint32_t>(from),
                                static_cast<uint32_t>(to), accrued_cost_);
  }
}

Status SourceSet::TrySortedAccess(PredicateId i,
                                  std::optional<SortedHit>* out) {
  NC_CHECK(out != nullptr);
  NC_CHECK(i < num_predicates());
  NC_PROFILE_SCOPE(profiler_, kSortedAccess);
  out->reset();
  last_access_penalty_ = 0.0;
  if (!cost_.has_sorted(i)) {
    // Distinguish a degraded source from a caller bug: sorted access on a
    // predicate that never supported it is a programmer error.
    NC_CHECK(initial_cost_.has_sorted(i));
    return Refuse(StatusCode::kUnavailable, "sa on ", i, ": source down");
  }
  if (exhausted(i)) return Status::OK();
  if (access_barred(i)) {
    // Refused before anything is billed: the cap can overshoot by at
    // most the one access that crossed it.
    ++stats_.budget_refusals;
    return Refuse(StatusCode::kResourceExhausted, "sa on ", i,
                  ": budget exhausted");
  }
  const Access access = Access::Sorted(i);
  const size_t pos = positions_[i];
  // Cross-query cache: a position inside the shared stream's prefix is
  // served without touching the source; the stream head claims the
  // single-flight slot and publishes the real access below. Without a
  // cache every access bypasses it.
  cache::SortedLookup lookup = cache::SortedLookup::kBypass;
  cache::CachedSortedEntry cached;
  bool merged = false;
  uint64_t ticket = 0;
  uint64_t topology = 0;
  if (access_cache_ != nullptr) {
    topology = StreamTopology(i);
    NC_PROFILE_SCOPE(profiler_, kCacheProbe);
    lookup = access_cache_->AcquireSorted(i, topology, pos, &cached, &merged,
                                          &ticket);
  }
  SortedHit hit;
  if (lookup == cache::SortedLookup::kHit) {
    BookCacheHit(access, cached.object, merged);
    hit.object = cached.object;
    hit.score = cached.score;
    hit.bundled = std::move(cached.bundled);
  } else {
    FleetServe served;
    const Status attempted =
        AttemptAccess(access, cost_.sorted_cost[i], &served);
    if (!attempted.ok()) {
      if (lookup == cache::SortedLookup::kOwner) {
        access_cache_->AbortSorted(i, topology, pos, ticket);
      }
      return attempted;
    }
    // With a page model, the charge lands on the first entry of each page
    // (one request fetches the whole page).
    const bool page_start = pos % cost_.page_size(i) == 0;
    BookSourced(access, page_start ? cost_.sorted_cost[i] : 0.0, served);
    const SortedEntry entry = provider_->SortedEntryAt(i, pos);
    hit.object = entry.object;
    hit.score = entry.score;
    // A multi-attribute source row carries the whole group.
    if (!cost_.attribute_groups.empty()) {
      for (PredicateId j = 0; j < num_predicates(); ++j) {
        if (j != i && cost_.same_group(i, j)) {
          hit.bundled.emplace_back(j, provider_->ScoreOf(j, hit.object));
        }
      }
    }
    if (lookup == cache::SortedLookup::kOwner) {
      NC_PROFILE_SCOPE(profiler_, kCacheFill);
      access_cache_->PublishSorted(
          i, topology, pos, ticket,
          cache::CachedSortedEntry{hit.object, hit.score, hit.bundled});
    }
  }
  ++positions_[i];
  // Side effect: every unseen object on this list is now bounded by the
  // returned score; an exhausted list leaves no unseen objects, so the
  // bound collapses to 0.
  last_seen_[i] = exhausted(i) ? kMinScore : hit.score;
  *out = std::move(hit);
  return Status::OK();
}

Status SourceSet::TryRandomAccess(PredicateId i, ObjectId u, Score* out) {
  NC_CHECK(out != nullptr);
  NC_CHECK(i < num_predicates());
  NC_CHECK(u < num_objects());
  NC_PROFILE_SCOPE(profiler_, kRandomAccess);
  last_access_penalty_ = 0.0;
  if (!cost_.has_random(i)) {
    NC_CHECK(initial_cost_.has_random(i));
    return Refuse(StatusCode::kUnavailable, "ra on ", i, ": source down");
  }
  if (access_barred(i)) {
    ++stats_.budget_refusals;
    return Refuse(StatusCode::kResourceExhausted, "ra on ", i,
                  ": budget exhausted");
  }
  const Access access = Access::Random(i, u);
  // Cross-query cache: a cached (predicate, object) score is served
  // without touching the source; a miss claims the single-flight slot so
  // concurrent duplicates issue one underlying access.
  bool hit = false;
  Score score = 0.0;
  bool merged = false;
  uint64_t ticket = 0;
  if (access_cache_ != nullptr) {
    NC_PROFILE_SCOPE(profiler_, kCacheProbe);
    hit = access_cache_->AcquireRandom(i, u, &score, &merged, &ticket) ==
          cache::RandomLookup::kHit;
  }
  if (hit) {
    BookCacheHit(access, u, merged);
  } else {
    FleetServe served;
    const Status attempted =
        AttemptAccess(access, cost_.random_cost[i], &served);
    if (!attempted.ok()) {
      if (access_cache_ != nullptr) access_cache_->AbortRandom(i, u, ticket);
      return attempted;
    }
    BookSourced(access, cost_.random_cost[i], served);
    score = provider_->ScoreOf(i, u);
    if (access_cache_ != nullptr) {
      NC_PROFILE_SCOPE(profiler_, kCacheFill);
      access_cache_->PublishRandom(i, u, score, ticket);
    }
  }
  uint64_t& mask = probed_[u];
  const uint64_t bit = uint64_t{1} << i;
  if ((mask & bit) != 0) ++stats_.duplicate_random_count;
  mask |= bit;
  *out = score;
  return Status::OK();
}

void SourceSet::set_access_cache(cache::AccessCache* cache) {
  access_cache_ = cache;
  cache_hits_ = QueryCacheHits{};
  if (access_cache_ != nullptr) {
    access_cache_->BindOrInvalidate(DatasetFingerprint());
  }
}

uint64_t SourceSet::DatasetFingerprint() const {
  // Content-derived identity: shape plus sampled scores, FNV-1a mixed.
  // Provider reads have no billing side effects, so probing is free. A
  // stale serve would need two datasets agreeing on shape and on every
  // sampled score bit pattern.
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  const size_t n = num_objects();
  const size_t m = num_predicates();
  mix(n);
  mix(m);
  if (n == 0) return h;
  const ObjectId samples[] = {0, static_cast<ObjectId>(n / 2),
                              static_cast<ObjectId>(n - 1)};
  for (PredicateId i = 0; i < m; ++i) {
    for (const ObjectId u : samples) {
      const double s = provider_->ScoreOf(i, u);
      uint64_t bits = 0;
      std::memcpy(&bits, &s, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

uint64_t SourceSet::StreamTopology(PredicateId i) const {
  if (fleet_ != nullptr && fleet_->configured(i)) {
    return fleet_->TopologyToken(i);
  }
  return 0;
}

Status SourceSet::set_cost_model(CostModel cost) {
  // Structure only: a swapped-in model may leave a dead predicate with no
  // capability at all, which Validate() (initial scenarios) rejects.
  NC_RETURN_IF_ERROR(cost.ValidateStructure());
  if (cost.num_predicates() != cost_.num_predicates()) {
    return Status::InvalidArgument("cost model predicate count changed");
  }
  for (PredicateId i = 0; i < cost_.num_predicates(); ++i) {
    // Downgrades (a source degrading or dying) are legal; a capability
    // that is impossible can never appear mid-run.
    if ((cost.has_sorted(i) && !cost_.has_sorted(i)) ||
        (cost.has_random(i) && !cost_.has_random(i))) {
      return Status::InvalidArgument(
          "capabilities may be removed mid-run but never added");
    }
  }
  cost_ = std::move(cost);
  return Status::OK();
}

Status SourceSet::set_budget(QueryBudget budget) {
  NC_RETURN_IF_ERROR(budget.Validate(num_predicates()));
  budget_ = std::move(budget);
  return Status::OK();
}

Status SourceSet::set_circuit_breaker(CircuitBreakerPolicy policy) {
  NC_RETURN_IF_ERROR(policy.Validate());
  breaker_ = policy;
  return Status::OK();
}

bool SourceSet::breaker_open(PredicateId i) const {
  NC_CHECK(i < num_predicates());
  if (fleet_ != nullptr && fleet_->configured(i)) {
    // With a fleet, one open replica breaker just steers routing; the
    // predicate fast-fails only when no replica can take the access.
    return fleet_->all_unavailable(i, elapsed_time());
  }
  if (!breaker_.enabled()) return false;
  const BreakerState& state = breaker_state_[i];
  return state.open && elapsed_time() < state.open_until;
}

bool SourceSet::any_breaker_open() const {
  for (PredicateId i = 0; i < num_predicates(); ++i) {
    if (breaker_open(i)) return true;
  }
  return false;
}

Status SourceSet::set_replica_fleet(ReplicaFleet* fleet) {
  if (fleet != nullptr &&
      fleet->max_configured_predicates() > num_predicates()) {
    return Status::InvalidArgument(
        "replica fleet configures predicates this SourceSet does not have");
  }
  fleet_ = fleet;
  return Status::OK();
}

void SourceSet::set_fault_injector(FaultInjector* injector) {
  injector_ = injector;
}

void SourceSet::set_retry_policy(const RetryPolicy& policy,
                                 uint64_t jitter_seed) {
  NC_CHECK(policy.Validate().ok());
  retry_policy_ = policy;
  retry_seed_ = jitter_seed;
  retry_rng_ = Rng(jitter_seed);
}

void SourceSet::KillSource(PredicateId i) {
  NC_CHECK(i < num_predicates());
  MarkSourceDown(i);
}

void SourceSet::set_telemetry_hub(obs::TelemetryHub* hub) {
  hub_ = hub;
  // Re-apply any captured health immediately: a fresh SourceSet (or one
  // the caller just Reset with the hub detached) starts warm. Idempotent
  // on an untouched fleet.
  if (fleet_ != nullptr && obs::ShouldSample(hub_)) hub_->WarmFleet(fleet_);
}

void SourceSet::ClearRunState() {
  const size_t m = num_predicates();
  stats_ = AccessStats{};
  stats_.sorted_count.assign(m, 0);
  stats_.random_count.assign(m, 0);
  stats_.sorted_cost_accrued.assign(m, 0.0);
  stats_.random_cost_accrued.assign(m, 0.0);
  stats_.retried_attempts.assign(m, 0);
  stats_.breaker_trips.assign(m, 0);
  accrued_cost_ = 0.0;
  positions_.assign(m, 0);
  last_seen_.assign(m, kMaxScore);
  probed_.clear();
  attempt_trace_.clear();
  last_access_penalty_ = 0.0;
  total_penalty_ = 0.0;
  breaker_state_.assign(m, BreakerState{});
}

void SourceSet::Reset() {
  // Cross-query telemetry: capture the fleet's health on the dying
  // query's clock BEFORE the rewind wipes it (re-applied below).
  if (fleet_ != nullptr && obs::ShouldSample(hub_)) {
    hub_->CaptureFleetHealth(*fleet_, elapsed_time());
  }
  ClearRunState();
  // Reruns must replay the same draws: reseed the latency and backoff
  // streams from their remembered seeds.
  latency_rng_ = Rng(latency_seed_);
  retry_rng_ = Rng(retry_seed_);
  // Revive dead sources: their construction-time unit costs return.
  // (Dynamic cost swaps on live sources persist, as before.)
  if (sources_down_ > 0) {
    for (PredicateId i = 0; i < num_predicates(); ++i) {
      if (!source_down_[i]) continue;
      cost_.sorted_cost[i] = initial_cost_.sorted_cost[i];
      cost_.random_cost[i] = initial_cost_.random_cost[i];
      source_down_[i] = false;
    }
    sources_down_ = 0;
  }
  if (injector_ != nullptr) injector_->Reset();
  // Replica health is runtime state, not configuration: back-to-back
  // repetitions must start with cold breakers, live replicas, and the
  // same fault/latency draws. With a telemetry hub attached, though, the
  // session's captured health is re-applied so the next query starts
  // warm (deaths sticky, cooldowns resumed, EWMAs carried over).
  if (fleet_ != nullptr) {
    fleet_->ResetRuntime();
    if (obs::ShouldSample(hub_)) hub_->WarmFleet(fleet_);
  }
  // Cross-query cache: re-bind against the (possibly changed) backing
  // data. Same data => shared entries survive into the next query;
  // changed data => everything is dropped, never served stale.
  if (access_cache_ != nullptr) {
    access_cache_->BindOrInvalidate(DatasetFingerprint());
  }
  cache_hits_ = QueryCacheHits{};
}

SourceCheckpoint SourceSet::Checkpoint() const {
  SourceCheckpoint ck;
  ck.positions = positions_;
  ck.stats = stats_;
  ck.accrued_cost = accrued_cost_;
  ck.last_access_penalty = last_access_penalty_;
  ck.total_penalty = total_penalty_;
  ck.probed.assign(probed_.begin(), probed_.end());
  std::sort(ck.probed.begin(), ck.probed.end());
  ck.sorted_cost = cost_.sorted_cost;
  ck.random_cost = cost_.random_cost;
  ck.source_down = source_down_;
  const size_t m = num_predicates();
  ck.breaker_consecutive.resize(m);
  ck.breaker_open.resize(m);
  ck.breaker_open_until.resize(m);
  for (size_t i = 0; i < m; ++i) {
    ck.breaker_consecutive[i] = breaker_state_[i].consecutive_failures;
    ck.breaker_open[i] = breaker_state_[i].open;
    ck.breaker_open_until[i] = breaker_state_[i].open_until;
  }
  ck.latency_rng_state = latency_rng_.SerializeState();
  ck.retry_rng_state = retry_rng_.SerializeState();
  ck.has_injector = injector_ != nullptr;
  if (injector_ != nullptr) {
    ck.injector_rng_state = injector_->rng_state();
    ck.injector_attempts = injector_->attempt_counters();
    ck.injector_script_pos = injector_->script_cursors();
  }
  ck.trace_enabled = trace_enabled_;
  ck.attempt_trace = attempt_trace_;
  ck.has_fleet = fleet_ != nullptr;
  if (fleet_ != nullptr) ck.fleet_state = fleet_->CheckpointState();
  return ck;
}

Status SourceSet::RestoreCheckpoint(const SourceCheckpoint& ck) {
  const size_t m = num_predicates();
  if (ck.positions.size() != m || ck.sorted_cost.size() != m ||
      ck.random_cost.size() != m || ck.source_down.size() != m ||
      ck.breaker_consecutive.size() != m ||
      ck.breaker_open.size() != m || ck.breaker_open_until.size() != m ||
      ck.stats.sorted_count.size() != m || ck.stats.random_count.size() != m ||
      ck.stats.sorted_cost_accrued.size() != m ||
      ck.stats.random_cost_accrued.size() != m ||
      ck.stats.retried_attempts.size() != m ||
      ck.stats.breaker_trips.size() != m) {
    return Status::InvalidArgument(
        "checkpoint predicate count does not match this SourceSet");
  }
  if (ck.has_injector != (injector_ != nullptr)) {
    return Status::FailedPrecondition(
        "checkpoint and SourceSet disagree on fault-injector attachment");
  }
  if (ck.has_fleet != (fleet_ != nullptr)) {
    return Status::FailedPrecondition(
        "checkpoint and SourceSet disagree on replica-fleet attachment");
  }
  const size_t n = num_objects();
  for (size_t i = 0; i < m; ++i) {
    if (ck.positions[i] > n) {
      return Status::InvalidArgument("sorted cursor past end of stream");
    }
    // Capabilities may have been lost mid-run (deaths) but a checkpoint
    // can never claim a capability this scenario never had.
    if (std::isfinite(ck.sorted_cost[i]) &&
        !initial_cost_.has_sorted(static_cast<PredicateId>(i))) {
      return Status::InvalidArgument(
          "checkpoint enables sorted access the scenario never had");
    }
    if (std::isfinite(ck.random_cost[i]) &&
        !initial_cost_.has_random(static_cast<PredicateId>(i))) {
      return Status::InvalidArgument(
          "checkpoint enables random access the scenario never had");
    }
  }
  for (const auto& [object, mask] : ck.probed) {
    if (object >= n) {
      return Status::InvalidArgument("probed object out of range");
    }
    if (m < 64 && (mask >> m) != 0) {
      return Status::InvalidArgument("probed mask names unknown predicates");
    }
  }
  // Eq. 1: the accrued cost is the sum of the stats cells. The file
  // carries both, so it could break billing conservation or hand a
  // budgeted resume free budget. The cells are summed in another order
  // than the accesses accrued, hence the billing oracle's tolerance.
  const auto valid = [](double cost) {
    return std::isfinite(cost) && cost >= 0.0;
  };
  bool costs_valid = valid(ck.accrued_cost) && valid(ck.total_penalty);
  double cells = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double sorted = ck.stats.sorted_cost_accrued[i];
    const double random = ck.stats.random_cost_accrued[i];
    costs_valid = costs_valid && valid(sorted) && valid(random);
    cells += sorted + random;
  }
  if (!costs_valid) {
    return Status::InvalidArgument("negative or non-finite cost");
  }
  if (!NearlyEqual(cells, ck.accrued_cost, 1e-9)) {
    return Status::InvalidArgument(
        "accrued cost is not the sum of the Eq. 1 cost cells");
  }
  // RNG streams first: DeserializeState validates without touching the
  // rest of the state.
  NC_RETURN_IF_ERROR(latency_rng_.DeserializeState(ck.latency_rng_state));
  NC_RETURN_IF_ERROR(retry_rng_.DeserializeState(ck.retry_rng_state));
  if (injector_ != nullptr) {
    NC_RETURN_IF_ERROR(injector_->RestoreState(
        ck.injector_rng_state, ck.injector_attempts, ck.injector_script_pos));
  }
  if (fleet_ != nullptr) {
    NC_RETURN_IF_ERROR(fleet_->RestoreState(ck.fleet_state));
  }
  positions_ = ck.positions;
  // Each l_i is a function of its cursor: 1 before the first sorted
  // access, 0 once the stream is exhausted, otherwise the score of the
  // last entry returned. It is read from the provider, never accessed:
  // nothing is billed.
  for (PredicateId i = 0; i < m; ++i) {
    const size_t pos = positions_[i];
    last_seen_[i] = pos == 0   ? kMaxScore
                    : pos == n ? kMinScore
                               : provider_->SortedEntryAt(i, pos - 1).score;
  }
  stats_ = ck.stats;
  accrued_cost_ = ck.accrued_cost;
  last_access_penalty_ = ck.last_access_penalty;
  total_penalty_ = ck.total_penalty;
  probed_.clear();
  for (const auto& [object, mask] : ck.probed) probed_[object] = mask;
  cost_.sorted_cost = ck.sorted_cost;
  cost_.random_cost = ck.random_cost;
  source_down_ = ck.source_down;
  sources_down_ = 0;
  for (size_t i = 0; i < m; ++i) {
    if (source_down_[i]) ++sources_down_;
  }
  breaker_state_.assign(m, BreakerState{});
  for (size_t i = 0; i < m; ++i) {
    breaker_state_[i].consecutive_failures = ck.breaker_consecutive[i];
    breaker_state_[i].open = ck.breaker_open[i];
    breaker_state_[i].open_until = ck.breaker_open_until[i];
  }
  trace_enabled_ = ck.trace_enabled;
  attempt_trace_ = ck.attempt_trace;
  return Status::OK();
}

void SourceSet::set_latency_jitter(double jitter, uint64_t seed) {
  NC_CHECK(jitter >= 0.0);
  latency_jitter_ = jitter;
  latency_seed_ = seed;
  latency_rng_ = Rng(seed);
}

double SourceSet::DrawLatency(AccessType type, PredicateId i) {
  NC_CHECK(i < num_predicates());
  // Sorted latency is amortized per entry under the page model (a page
  // arrives in one round trip; its entries stream out together).
  const double unit = type == AccessType::kSorted
                          ? cost_.sorted_entry_cost(i)
                          : cost_.random_cost[i];
  NC_CHECK(std::isfinite(unit));
  if (latency_jitter_ == 0.0) return unit;
  return unit * (1.0 + latency_jitter_ * latency_rng_.Uniform01());
}

}  // namespace nc
