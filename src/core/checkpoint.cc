#include "core/checkpoint.h"

#include <utility>

#include "access/trace_format.h"
#include "common/check.h"
#include "common/record_codec.h"

namespace nc {

namespace {

// Vectors are counted: "<key> <count> <value>...".
void PutUInts(RecordWriter* w, const char* key,
              const std::vector<size_t>& values) {
  w->Key(key).UInt(values.size());
  for (const size_t v : values) w->UInt(v);
}

void PutHexes(RecordWriter* w, const char* key,
              const std::vector<double>& values) {
  w->Key(key).UInt(values.size());
  for (const double v : values) w->Hex(v);
}

void PutFlags(RecordWriter* w, const char* key,
              const std::vector<bool>& values) {
  w->Key(key).UInt(values.size());
  for (const bool v : values) w->UInt(v ? 1 : 0);
}

template <typename A, typename B>
void PutPairs(RecordWriter* w, const char* key,
              const std::vector<std::pair<A, B>>& values) {
  w->Key(key).UInt(values.size());
  for (const auto& [a, b] : values) w->UInt(a).UInt(b);
}

// Reads a counted vector with `take`; stops at the first failed take, so
// a corrupt count cannot run past the line.
template <typename T, typename Take>
std::vector<T> TakeCounted(Record* f, Take take) {
  const uint64_t count = f->TakeUInt();
  std::vector<T> values;
  for (uint64_t i = 0; i < count && f->ok(); ++i) values.push_back(take());
  return values;
}

std::vector<size_t> TakeUInts(Record* f) {
  return TakeCounted<size_t>(f, [f] { return f->TakeUInt(); });
}

std::vector<double> TakeHexes(Record* f) {
  return TakeCounted<double>(f, [f] { return f->TakeHex(); });
}

std::vector<bool> TakeFlags(Record* f) {
  return TakeCounted<bool>(f, [f] { return f->TakeFlag(); });
}

template <typename A, typename B>
std::vector<std::pair<A, B>> TakePairs(Record* f) {
  return TakeCounted<std::pair<A, B>>(f, [f] {
    const auto a = static_cast<A>(f->TakeUInt());
    return std::pair<A, B>(a, static_cast<B>(f->TakeUInt()));
  });
}

}  // namespace

std::string SerializeCheckpoint(const EngineCheckpoint& ck) {
  RecordWriter w("ncckpt", ck.version);
  w.Key("k").UInt(ck.k);
  w.Key("m").UInt(ck.num_predicates);
  w.Key("n").UInt(ck.num_objects);
  w.Key("accesses").UInt(ck.accesses);
  w.Key("phase_accesses").UInt(ck.phase_accesses);
  w.Key("consecutive_failures").UInt(ck.consecutive_failures);
  w.Key("choice_width_total").Hex(ck.choice_width_total);
  w.Key("pool").UInt(ck.pool.size());
  for (const CandidateCheckpoint& c : ck.pool) {
    w.Key("cand").UInt(c.object).UInt(c.mask);
    for (const Score s : c.scores) w.Hex(s);
  }
  w.Key("policy").Word(ck.policy_state);

  const SourceCheckpoint& src = ck.sources;
  PutUInts(&w, "src_positions", src.positions);
  w.Key("src_accrued_cost").Hex(src.accrued_cost);
  w.Key("src_last_penalty").Hex(src.last_access_penalty);
  w.Key("src_total_penalty").Hex(src.total_penalty);
  PutPairs(&w, "src_probed", src.probed);
  PutHexes(&w, "src_sorted_cost", src.sorted_cost);
  PutHexes(&w, "src_random_cost", src.random_cost);
  PutFlags(&w, "src_source_down", src.source_down);
  PutUInts(&w, "src_breaker_consecutive", src.breaker_consecutive);
  PutFlags(&w, "src_breaker_open", src.breaker_open);
  PutHexes(&w, "src_breaker_open_until", src.breaker_open_until);
  w.Key("src_latency_rng").Word(src.latency_rng_state);
  w.Key("src_retry_rng").Word(src.retry_rng_state);
  w.Key("src_has_injector").UInt(src.has_injector ? 1 : 0);
  w.Key("src_injector_rng").Word(src.injector_rng_state);
  PutPairs(&w, "src_injector_attempts", src.injector_attempts);
  PutPairs(&w, "src_injector_scripts", src.injector_script_pos);
  w.Key("src_trace_enabled").UInt(src.trace_enabled ? 1 : 0);
  w.Key("src_attempt_trace").Word(SerializeAttemptTrace(src.attempt_trace));

  const AccessStats& stats = src.stats;
  PutUInts(&w, "stats_sorted_count", stats.sorted_count);
  PutUInts(&w, "stats_random_count", stats.random_count);
  PutHexes(&w, "stats_sorted_cost", stats.sorted_cost_accrued);
  PutHexes(&w, "stats_random_cost", stats.random_cost_accrued);
  w.Key("stats_duplicate_random").UInt(stats.duplicate_random_count);
  PutUInts(&w, "stats_retried", stats.retried_attempts);
  w.Key("stats_transient").UInt(stats.transient_failures);
  w.Key("stats_timeout").UInt(stats.timeout_failures);
  w.Key("stats_abandoned").UInt(stats.abandoned_accesses);
  w.Key("stats_deaths").UInt(stats.source_deaths);
  PutUInts(&w, "stats_breaker_trips", stats.breaker_trips);
  w.Key("stats_breaker_fast_failures").UInt(stats.breaker_fast_failures);
  w.Key("stats_budget_refusals").UInt(stats.budget_refusals);
  w.Key("stats_replica_failovers").UInt(stats.replica_failovers);
  w.Key("stats_hedges_issued").UInt(stats.hedges_issued);
  w.Key("stats_hedge_wins").UInt(stats.hedge_wins);

  // --- Replica fleet (since version 2) ----------------------------------
  const ReplicaFleetState& fleet = src.fleet_state;
  w.Key("src_has_fleet").UInt(src.has_fleet ? 1 : 0);
  w.Key("fleet_latency_rng").Word(fleet.latency_rng_state);
  PutPairs(&w, "fleet_rr_cursors", fleet.rr_cursors);
  w.Key("fleet_slots").UInt(fleet.slots.size());
  for (const ReplicaSlotState& slot : fleet.slots) {
    const ReplicaRuntime& rt = slot.runtime;
    w.Key("fleet_slot").UInt(slot.predicate).UInt(slot.replica);
    w.UInt(rt.breaker_consecutive).UInt(rt.breaker_open ? 1 : 0);
    w.Hex(rt.breaker_open_until).UInt(rt.dead ? 1 : 0);
    w.UInt(rt.has_ewma ? 1 : 0).Hex(rt.ewma_latency);
    w.UInt(rt.served).UInt(rt.failovers).UInt(rt.breaker_trips);
    w.UInt(rt.hedges_issued).UInt(rt.hedge_wins).Hex(rt.cost_accrued);
    w.UInt(rt.latency_count).Hex(rt.latency_sum).Hex(rt.latency_min);
    w.Hex(rt.latency_max).UInt(slot.injector_attempts);
    w.UInt(slot.injector_script_pos);
    w.Key("fleet_slot_rng").Word(slot.injector_rng_state);
  }
  return w.Finish();
}

Status ParseCheckpoint(const std::string& text, EngineCheckpoint* out) {
  NC_CHECK(out != nullptr);
  RecordReader r("ncckpt", text);
  uint32_t version = 0;
  NC_RETURN_IF_ERROR(r.Header({2, kEngineCheckpointVersion}, &version));
  EngineCheckpoint ck;
  Record f;
  // Reads the next fixed-order line, which must carry `key`; `take`
  // consumes its tokens, and a malformed or left-over one rejects it.
  const auto read = [&r, &f](const char* key, const auto& take) -> Status {
    NC_RETURN_IF_ERROR(r.Expect(key, &f));
    take();
    if (f.Done()) return Status::OK();
    return r.Fail("malformed \"" + std::string(key) + "\"");
  };
  // Version 2 stored state that version 3 derives; its lines are skipped.
  const auto skip_v2 = [&](const char* key) {
    return version == 2 ? r.Expect(key, &f) : Status::OK();
  };
  SourceCheckpoint& src = ck.sources;
  AccessStats& stats = src.stats;
  ReplicaFleetState& fleet = src.fleet_state;
  uint64_t count = 0;

  NC_RETURN_IF_ERROR(read("k", [&] { ck.k = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("m", [&] { ck.num_predicates = f.TakeUInt(); }));
  if (ck.num_predicates == 0 || ck.num_predicates > 64) {
    return r.Fail("predicate count out of range");
  }
  NC_RETURN_IF_ERROR(read("n", [&] { ck.num_objects = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("accesses", [&] { ck.accesses = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(
      read("phase_accesses", [&] { ck.phase_accesses = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("consecutive_failures",
                          [&] { ck.consecutive_failures = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("choice_width_total",
                          [&] { ck.choice_width_total = f.TakeHex(); }));
  NC_RETURN_IF_ERROR(skip_v2("universe_seeded"));
  NC_RETURN_IF_ERROR(skip_v2("complete_topk"));
  NC_RETURN_IF_ERROR(read("pool", [&] { count = f.TakeUInt(); }));
  for (uint64_t c = 0; c < count; ++c) {
    CandidateCheckpoint cand;
    NC_RETURN_IF_ERROR(r.Expect("cand", &f));
    cand.object = static_cast<ObjectId>(f.TakeUInt());
    cand.mask = f.TakeUInt();
    if (ck.num_predicates < 64 && (cand.mask >> ck.num_predicates) != 0) {
      return r.Fail("cand mask names unknown predicates");
    }
    for (int b = __builtin_popcountll(cand.mask); b > 0; --b) {
      cand.scores.push_back(f.TakeHex());
    }
    if (!f.Done()) return r.Fail("malformed \"cand\"");
    ck.pool.push_back(std::move(cand));
  }
  NC_RETURN_IF_ERROR(skip_v2("heap"));
  NC_RETURN_IF_ERROR(
      read("policy", [&] { ck.policy_state = f.TakeRest(); }));

  NC_RETURN_IF_ERROR(
      read("src_positions", [&] { src.positions = TakeUInts(&f); }));
  NC_RETURN_IF_ERROR(skip_v2("src_last_seen"));
  NC_RETURN_IF_ERROR(
      read("src_accrued_cost", [&] { src.accrued_cost = f.TakeHex(); }));
  NC_RETURN_IF_ERROR(read("src_last_penalty",
                          [&] { src.last_access_penalty = f.TakeHex(); }));
  NC_RETURN_IF_ERROR(
      read("src_total_penalty", [&] { src.total_penalty = f.TakeHex(); }));
  NC_RETURN_IF_ERROR(read("src_probed", [&] {
    src.probed = TakePairs<ObjectId, uint64_t>(&f);
  }));
  NC_RETURN_IF_ERROR(
      read("src_sorted_cost", [&] { src.sorted_cost = TakeHexes(&f); }));
  NC_RETURN_IF_ERROR(
      read("src_random_cost", [&] { src.random_cost = TakeHexes(&f); }));
  NC_RETURN_IF_ERROR(
      read("src_source_down", [&] { src.source_down = TakeFlags(&f); }));
  NC_RETURN_IF_ERROR(read("src_breaker_consecutive", [&] {
    src.breaker_consecutive = TakeUInts(&f);
  }));
  NC_RETURN_IF_ERROR(
      read("src_breaker_open", [&] { src.breaker_open = TakeFlags(&f); }));
  NC_RETURN_IF_ERROR(read("src_breaker_open_until", [&] {
    src.breaker_open_until = TakeHexes(&f);
  }));
  NC_RETURN_IF_ERROR(
      read("src_latency_rng", [&] { src.latency_rng_state = f.TakeRest(); }));
  NC_RETURN_IF_ERROR(
      read("src_retry_rng", [&] { src.retry_rng_state = f.TakeRest(); }));
  NC_RETURN_IF_ERROR(
      read("src_has_injector", [&] { src.has_injector = f.TakeFlag(); }));
  NC_RETURN_IF_ERROR(read("src_injector_rng",
                          [&] { src.injector_rng_state = f.TakeRest(); }));
  NC_RETURN_IF_ERROR(read("src_injector_attempts", [&] {
    src.injector_attempts = TakePairs<PredicateId, size_t>(&f);
  }));
  NC_RETURN_IF_ERROR(read("src_injector_scripts", [&] {
    src.injector_script_pos = TakePairs<PredicateId, size_t>(&f);
  }));
  NC_RETURN_IF_ERROR(
      read("src_trace_enabled", [&] { src.trace_enabled = f.TakeFlag(); }));
  std::string_view trace;
  NC_RETURN_IF_ERROR(
      read("src_attempt_trace", [&] { trace = f.TakeRest(); }));
  NC_RETURN_IF_ERROR(
      ParseAttemptTrace(std::string(trace), &src.attempt_trace));

  NC_RETURN_IF_ERROR(read("stats_sorted_count",
                          [&] { stats.sorted_count = TakeUInts(&f); }));
  NC_RETURN_IF_ERROR(read("stats_random_count",
                          [&] { stats.random_count = TakeUInts(&f); }));
  NC_RETURN_IF_ERROR(read("stats_sorted_cost", [&] {
    stats.sorted_cost_accrued = TakeHexes(&f);
  }));
  NC_RETURN_IF_ERROR(read("stats_random_cost", [&] {
    stats.random_cost_accrued = TakeHexes(&f);
  }));
  NC_RETURN_IF_ERROR(read("stats_duplicate_random", [&] {
    stats.duplicate_random_count = f.TakeUInt();
  }));
  NC_RETURN_IF_ERROR(
      read("stats_retried", [&] { stats.retried_attempts = TakeUInts(&f); }));
  NC_RETURN_IF_ERROR(read("stats_transient",
                          [&] { stats.transient_failures = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(
      read("stats_timeout", [&] { stats.timeout_failures = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("stats_abandoned",
                          [&] { stats.abandoned_accesses = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(
      read("stats_deaths", [&] { stats.source_deaths = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("stats_breaker_trips",
                          [&] { stats.breaker_trips = TakeUInts(&f); }));
  NC_RETURN_IF_ERROR(read("stats_breaker_fast_failures", [&] {
    stats.breaker_fast_failures = f.TakeUInt();
  }));
  NC_RETURN_IF_ERROR(read("stats_budget_refusals",
                          [&] { stats.budget_refusals = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("stats_replica_failovers",
                          [&] { stats.replica_failovers = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(read("stats_hedges_issued",
                          [&] { stats.hedges_issued = f.TakeUInt(); }));
  NC_RETURN_IF_ERROR(
      read("stats_hedge_wins", [&] { stats.hedge_wins = f.TakeUInt(); }));

  NC_RETURN_IF_ERROR(
      read("src_has_fleet", [&] { src.has_fleet = f.TakeFlag(); }));
  NC_RETURN_IF_ERROR(read("fleet_latency_rng",
                          [&] { fleet.latency_rng_state = f.TakeRest(); }));
  NC_RETURN_IF_ERROR(read("fleet_rr_cursors", [&] {
    fleet.rr_cursors = TakePairs<PredicateId, size_t>(&f);
  }));
  NC_RETURN_IF_ERROR(read("fleet_slots", [&] { count = f.TakeUInt(); }));
  for (uint64_t c = 0; c < count; ++c) {
    ReplicaSlotState slot;
    ReplicaRuntime& rt = slot.runtime;
    NC_RETURN_IF_ERROR(read("fleet_slot", [&] {
      slot.predicate = static_cast<PredicateId>(f.TakeUInt());
      slot.replica = f.TakeUInt();
      rt.breaker_consecutive = f.TakeUInt();
      rt.breaker_open = f.TakeFlag();
      rt.breaker_open_until = f.TakeHex();
      rt.dead = f.TakeFlag();
      rt.has_ewma = f.TakeFlag();
      rt.ewma_latency = f.TakeHex();
      rt.served = f.TakeUInt();
      rt.failovers = f.TakeUInt();
      rt.breaker_trips = f.TakeUInt();
      rt.hedges_issued = f.TakeUInt();
      rt.hedge_wins = f.TakeUInt();
      rt.cost_accrued = f.TakeHex();
      rt.latency_count = f.TakeUInt();
      rt.latency_sum = f.TakeHex();
      rt.latency_min = f.TakeHex();
      rt.latency_max = f.TakeHex();
      slot.injector_attempts = f.TakeUInt();
      slot.injector_script_pos = f.TakeUInt();
    }));
    NC_RETURN_IF_ERROR(read("fleet_slot_rng", [&] {
      slot.injector_rng_state = f.TakeRest();
    }));
    fleet.slots.push_back(std::move(slot));
  }
  NC_RETURN_IF_ERROR(r.End());
  *out = std::move(ck);
  return Status::OK();
}

}  // namespace nc
